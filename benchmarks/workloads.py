"""Seeded job streams for the four benchmark workloads.

A job is one `decolab` command line: `sweep` or `diff-formulas` on a generated
run file, or a single `teleport` call. Each workload repeats a fixed cycle of
job shapes (command, resource kind, Kraus variant, mode, grid sizes), so every
seed asks for the same amount and mix of work. The sweep workloads run every
family, Kraus variant and mode on the run-file default grid of 51 gamma points
and on short grids of 2 to 10 (p, gamma) points. The seed only draws the values:
amplitudes, payloads, (p, gamma) grids, analyzer angles and branch selectors.
Job `index` of stream `stream` is drawn from its own generator, so a job's
inputs never depend on how many jobs ran before it.

Why each workload:

  negativity_sweep  negativity run files over both families, both Kraus variants
                    and both modes. Eigensolves dominate: `raw` Kraus yields
                    complex states, which take the slow 2n x 2n embedding path.
                    Teleport is never called.
  fidelity_sweep    fidelity_avg and fidelity_branch run files, GHZ at 1-8
                    analyzer angles and GHZ-like, random payloads. Teleport
                    dominates; the channel runs once per (p, gamma), shared
                    across angles.
  formula_diff      `diff-formulas` on generated run files, both variants and
                    modes. The 64-term channel loop, the closed forms and the
                    ledger CSV dominate; no negativity, no teleport.
  teleport_point    single `teleport` calls with random arguments: the fixed
                    per-call cost that no grid-level batching or cross-point
                    caching can hide. Not in BENCHMARK.json: the p99 of a 6 ms
                    call is set by how long the VM is descheduled, so its
                    job_s_tail moved by 39% between two sets of ten runs of
                    the same code on a 2-vCPU VM. Run it by name to see the
                    per-call cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RUNFILE = "job.ini"
CSV = "job.csv"
SVG = "job.svg"

KINDS = ("ghz", "ghz_like")
COMBOS = tuple(
    (kraus, mode) for kraus in ("standard", "raw") for mode in ("independent", "correlated")
)
BELLS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
CHARLIE = {"ghz": ("x1", "x2"), "ghz_like": ("0", "1")}

# Streams of job indices: timed jobs, warm-up jobs and traced jobs never share inputs.
TIMED, WARMUP, TRACED = 0, 1, 2


@dataclass(frozen=True)
class Job:
    """One command line and everything the reference check needs to verify it."""

    command: str  # "sweep", "diff-formulas" or "teleport"
    kind: str
    amps: tuple[float, ...]
    kraus: str
    mode: str
    p_values: tuple[float, ...]
    gamma_start: float
    gamma_stop: float
    gamma_count: int
    thetas: tuple[float, ...] = (0.0,)
    quantity: str = "negativity"
    mu: float = 1 / math.sqrt(2)
    nu: float = 1 / math.sqrt(2)
    bell: str | None = None
    charlie: str | None = None
    series: str = "p"

    @property
    def points(self) -> int:
        """Requested (p, gamma, theta) combinations."""
        return len(self.p_values) * self.gamma_count * len(self.thetas)

    def gamma_grid(self) -> np.ndarray:
        return np.linspace(self.gamma_start, self.gamma_stop, self.gamma_count)

    def amp_names(self) -> tuple[str, ...]:
        return ("alpha", "beta") if self.kind == "ghz" else ("c1", "c2", "c3", "c4")

    def argv(self) -> list[str]:
        if self.command != "teleport":
            return [self.command, RUNFILE]
        args = ["teleport", "--kind", self.kind, "--kraus", self.kraus, "--mode", self.mode]
        values = {
            "p": self.p_values[0],
            "gamma": self.gamma_start,
            "theta": self.thetas[0],
            "mu": self.mu,
            "nu": self.nu,
            **dict(zip(self.amp_names(), self.amps)),
        }
        # "--x=-1e-05": argparse would read a separate "-1e-05" as an option name.
        return args + [f"--{name}={value!r}" for name, value in values.items()]

    def runfile_text(self) -> str | None:
        if self.command == "teleport":
            return None
        state = [f"kind = {self.kind}"]
        state += [f"{n} = {v!r}" for n, v in zip(self.amp_names(), self.amps)]
        state += [f"mu = {self.mu!r}", f"nu = {self.nu!r}"]
        channel = [
            f"kraus = {self.kraus}",
            f"mode = {self.mode}",
            "p_values = " + ", ".join(repr(p) for p in self.p_values),
        ]
        sweep = [
            f"quantity = {self.quantity}",
            f"gamma_start = {self.gamma_start!r}",
            f"gamma_stop = {self.gamma_stop!r}",
            f"gamma_count = {self.gamma_count}",
            "theta_values = " + ", ".join(repr(t) for t in self.thetas),
        ]
        if self.bell is not None:
            sweep += [f"bell = {self.bell}", f"charlie = {self.charlie}"]
        output = [f"csv = {CSV}"]
        if self.command == "sweep":
            output += [f"svg = {SVG}", f"series = {self.series}"]
        sections = (("state", state), ("channel", channel), ("sweep", sweep), ("output", output))
        return "\n".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections)


def _slot(command, kind, kraus, mode, n_p, n_gamma, n_theta=1, quantity="negativity"):
    return dict(
        command=command,
        kind=kind,
        kraus=kraus,
        mode=mode,
        n_p=n_p,
        n_gamma=n_gamma,
        n_theta=n_theta,
        quantity=quantity,
    )


# Grid sizes as (p values, gamma points). DEFAULT_GAMMA is the run-file default
# (gamma_count = 51) that the shipped negativity and branch-fidelity run files
# use; the default-grid rungs are the jobs users run. The short grids keep the
# fixed per-job layers (argparse, run-file parsing, CSV and SVG writing) a
# visible share of job time. They are most of each cycle's jobs, so a 25-second
# run has some 400 to 650 jobs on a 2-vCPU x86 VM, and job_s_tail stays at p95
# (200 to 999 jobs) whether the machine runs a third slower or half again as fast.
DEFAULT_GAMMA = 51
SHORT_GRIDS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 3))
FIDELITY_QUANTITIES = ("fidelity_avg", "fidelity_branch")


def _rung(command, n_p, n_gamma, n_theta=1, quantities=("negativity",)):
    """One job per (kind, Kraus variant, mode); quantities alternate along the rung."""
    return [
        _slot(command, kind, kraus, mode, n_p, n_gamma, n_theta, quantities[i % len(quantities)])
        for i, (kind, (kraus, mode)) in enumerate((k, c) for k in KINDS for c in COMBOS)
    ]


def _median_anchor(command, n_p, n_gamma, quantity="negativity"):
    # Seven copies of one CLI-default shape (GHZ, standard Kraus, independent mode)
    # whose grid was sized so its time lies at the middle of the rest of the
    # cycle: the median job then falls inside this one shape, not between two
    # shapes' clusters.
    return [_slot(command, "ghz", "standard", "independent", n_p, n_gamma, 1, quantity)] * 7


# p values on the default grid per (kind, Kraus variant, mode), in _rung's order.
# Every job but GHZ-like raw independent (the complex path, 0.8 s at one p value
# on a 2-vCPU x86 VM) then takes 0.2 to 0.3 s, and the p95 job falls inside that
# group of similar jobs, not on a gap between two shapes.
NEGATIVITY_DEFAULT_P = (2, 3, 1, 2, 1, 1, 1, 1)


def _negativity_cycle():
    slots = [s for n_p, n_gamma in SHORT_GRIDS for s in _rung("sweep", n_p, n_gamma)]
    default_grid = _rung("sweep", 1, DEFAULT_GAMMA)
    slots += [{**slot, "n_p": n_p} for slot, n_p in zip(default_grid, NEGATIVITY_DEFAULT_P)]
    return slots + _median_anchor("sweep", 1, 8)


def _fidelity_cycle():
    # GHZ at 1-8 analyzer angles, then every family, variant and mode on the
    # short and default grids; the two fidelity quantities alternate.
    slots = []
    for n_theta in range(1, 9):
        for j, quantity in enumerate(FIDELITY_QUANTITIES):
            kraus, mode = COMBOS[(n_theta + j) % len(COMBOS)]
            slots.append(_slot("sweep", "ghz", kraus, mode, 1, 3, n_theta, quantity))
    for i, (n_p, n_gamma) in enumerate(SHORT_GRIDS):
        quantities = FIDELITY_QUANTITIES[i % 2 :] + FIDELITY_QUANTITIES[: i % 2]
        slots += _rung("sweep", n_p, n_gamma, 1, quantities)
    slots += _rung("sweep", 1, DEFAULT_GAMMA, 1, FIDELITY_QUANTITIES)
    # The shipped branch-fidelity run file's shape at one p value: three angles on the default grid.
    slots.append(_slot("sweep", "ghz", "standard", "independent", 1, DEFAULT_GAMMA, 3, "fidelity_branch"))
    return slots + _median_anchor("sweep", 1, 6, "fidelity_avg")


def _formula_cycle():
    slots = [s for n_p, n_gamma in SHORT_GRIDS for s in _rung("diff-formulas", n_p, n_gamma)]
    for n_p in (1, 2, 3):
        slots += _rung("diff-formulas", n_p, DEFAULT_GAMMA)
    # Independent is the default mode: its 3-p-value jobs, the shipped run
    # files' size, run twice per cycle. They are then enough jobs to hold the
    # p95 job, which would otherwise sit on the gap between them and the next.
    slots += [s for s in _rung("diff-formulas", 3, DEFAULT_GAMMA) if s["mode"] == "independent"]
    return slots + _median_anchor("diff-formulas", 1, 6)


def _teleport_cycle():
    # INDEPENDENT is the channel's default mode and three of four calls use it;
    # an even split would put the median between the two modes' cost clusters.
    modes = ("independent",) * 3 + ("correlated",)
    return [
        _slot("teleport", kind, kraus, mode, 1, 1)
        for kind in KINDS
        for kraus in ("standard", "raw")
        for mode in modes
    ]


CYCLES = {
    "negativity_sweep": _negativity_cycle(),
    "fidelity_sweep": _fidelity_cycle(),
    "formula_diff": _formula_cycle(),
    "teleport_point": _teleport_cycle(),
}
WORKLOADS = tuple(CYCLES)


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _draw(slot: dict, rng, gamma_from_zero: bool = False) -> Job:
    kind = slot["kind"]
    amps = _unit(rng, 2) if kind == "ghz" else 2.0 * _unit(rng, 4)
    mu, nu = _unit(rng, 2)
    p_values = _floats(rng.uniform(0.0, 1.0, slot["n_p"]))
    gamma_start, gamma_stop = sorted(_floats(rng.uniform(0.0, 1.0, 2)))
    if slot["n_gamma"] == 1:
        gamma_stop = gamma_start
    elif gamma_from_zero:
        # Like the default grid: at gamma = 0 two standard Kraus elements vanish.
        gamma_start = 0.0
    thetas = _floats(rng.uniform(0.0, math.pi, slot["n_theta"]))
    bell = charlie = None
    if slot["quantity"] == "fidelity_branch":
        bell = BELLS[rng.integers(len(BELLS))]
        charlie = CHARLIE[kind][rng.integers(2)]
    return Job(
        command=slot["command"],
        kind=kind,
        amps=_floats(amps),
        kraus=slot["kraus"],
        mode=slot["mode"],
        p_values=p_values,
        gamma_start=gamma_start,
        gamma_stop=gamma_stop,
        gamma_count=slot["n_gamma"],
        thetas=thetas,
        quantity=slot["quantity"],
        mu=float(mu),
        nu=float(nu),
        bell=bell,
        charlie=charlie,
        series="theta" if slot["n_theta"] > 1 else "p",
    )


def make_job(workload: str, seed: int, stream: int, index: int) -> Job:
    """Job `index` of a stream; the same arguments always give the same job."""
    cycle = CYCLES[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), stream, index])
    return _draw(cycle[index % len(cycle)], rng, gamma_from_zero=index % 3 == 0)


def warmup_jobs(workload: str, seed: int) -> list[Job]:
    """One smallest-grid job per distinct shape of the workload's cycle."""
    shapes = []
    for slot in CYCLES[workload]:
        small = {**slot, "n_p": 1, "n_gamma": min(slot["n_gamma"], 2), "n_theta": 1}
        if small not in shapes:
            shapes.append(small)
    return [
        _draw(shape, np.random.default_rng([seed, WORKLOADS.index(workload), WARMUP, i]))
        for i, shape in enumerate(shapes)
    ]

"""Independent reference check for every output a benchmark job produces.

The reference shares no computation with the library. It applies the channel
with `einsum` on the register tensor, takes negativity with
`numpy.linalg.eigvalsh`, projects every teleport branch directly on the
four-qubit register, and carries its own transcription of the published closed
forms. Only the correction table is taken from decolab, because it ships as
published (criterion 5a) and is data rather than computation.

Sweep and ledger records are compared at TOL. The `teleport` command prints
six decimals, so its values are compared at half a printed unit plus TOL.
The frozen run files are compared at FROZEN_TOL, the repository's behaviour
contract.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import decolab
from workloads import CSV, SVG, Job

TOL = 1e-9
PRINT_TOL = 0.5e-6 + TOL
FROZEN_TOL = 1e-12

NEG_EIG_CUTOFF = 1e-12  # the library's documented cut for "negative" eigenvalues
ZERO_PROB = 1e-14  # the library's documented threshold for an absent branch

SWEEP_HEADER = "p,gamma,theta,quantity,value"
LEDGER_HEADER = "context,p,gamma,theta,quantity,simulated,formula,absdiff"
GHZ_LIKE_BASIS = (1, 2, 4, 7)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_I = np.eye(2, dtype=complex)


def kraus(variant: str, p: float, g: float) -> np.ndarray:
    """The four GAD elements, shape (4, 2, 2), as given in the channels module docs."""
    sp, sq, sg, s1g = math.sqrt(p), math.sqrt(1 - p), math.sqrt(g), math.sqrt(1 - g)
    if variant == "standard":
        return np.array(
            [
                sp * np.diag([1, s1g]),
                sp * sg * np.array([[0, 1], [0, 0]]),
                sq * np.diag([s1g, 1]),
                sq * sg * np.array([[0, 0], [1, 0]]),
            ],
            dtype=complex,
        )
    return np.array(
        [
            sp / 2 * ((1 + s1g) * _I + (1 - s1g) * _Z),
            sp * (_X + 1j * _Y),
            sq / 2 * ((1 + s1g) * _I - (1 - s1g) * _Z),
            sq * sg * (_X - _Y),
        ]
    )


def resource(kind: str, amps) -> np.ndarray:
    vec = np.zeros(8, dtype=complex)
    if kind == "ghz":
        vec[[0, 7]] = amps
    else:
        vec[[1, 2, 4, 7]] = np.asarray(amps) / 2
    return vec


def channel(rho: np.ndarray, k: np.ndarray, mode: str) -> np.ndarray:
    """Damp all three qubits of an 8x8 state and renormalize to unit trace."""
    t = rho.reshape((2,) * 6)
    kc = k.conj()
    if mode == "independent":
        out = list(range(6))
        for q in range(3):
            legs = out.copy()
            legs[q], legs[q + 3] = 6, 7
            t = np.einsum(k, [8, q, 6], t, legs, kc, [8, q + 3, 7], out)
    else:
        t = np.einsum(
            k, [12, 0, 6], k, [12, 1, 7], k, [12, 2, 8], t, [6, 7, 8, 9, 10, 11],
            kc, [12, 3, 9], kc, [12, 4, 10], kc, [12, 5, 11], list(range(6)),
        )  # fmt: skip
    m = t.reshape(8, 8)
    return m / np.trace(m).real


def damped(job: Job, p: float, g: float) -> np.ndarray:
    psi = resource(job.kind, job.amps)
    return channel(np.outer(psi, psi.conj()), kraus(job.kraus, p, g), job.mode)


def negativity(rho: np.ndarray) -> float:
    """Geometric mean of the three one-vs-two cut negativities."""
    cuts = []
    for q in range(3):
        pt = np.swapaxes(rho.reshape((2,) * 6), q, q + 3).reshape(8, 8)
        eigs = np.linalg.eigvalsh(pt)
        cuts.append(-2.0 * eigs[eigs < -NEG_EIG_CUTOFF].sum())
    return float(np.prod(cuts) ** (1 / 3)) if min(cuts) > 0 else 0.0


def _bell_vectors() -> list[np.ndarray]:
    s = 1 / math.sqrt(2)
    return [
        np.array(v, dtype=complex).reshape(2, 2)
        for v in ([s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0])
    ]


def protocol(job: Job, rho: np.ndarray, theta: float) -> list[tuple]:
    """All eight branches as (bell, charlie, probability, fidelity or None)."""
    payload = np.array([job.mu, job.nu], dtype=complex)
    register = np.kron(np.outer(payload, payload.conj()), rho).reshape((2,) * 8)
    if job.kind == "ghz":
        c, s = math.cos(theta), math.sin(theta)
        charlie = [("x1", np.array([c, s])), ("x2", np.array([-s, c]))]
        kind = decolab.ResourceKind.GHZ
    else:
        charlie = [("0", np.array([1.0, 0.0])), ("1", np.array([0.0, 1.0]))]
        kind = decolab.ResourceKind.GHZ_LIKE
    branches = []
    for bell, b in zip(decolab.BellOutcome, _bell_vectors()):
        # Bob's unnormalized state for each of Charlie's outcomes after Alice's projection.
        bobs = [
            np.einsum("ij,k,ijyklmzn,lm,n->yz", b.conj(), v.conj(), register, b, v)
            for _, v in charlie
        ]
        bell_prob = sum(np.trace(m).real for m in bobs)
        for (name, _), bob in zip(charlie, bobs):
            joint = np.trace(bob).real
            if bell_prob <= ZERO_PROB or joint / bell_prob <= ZERO_PROB:
                branches.append((bell.value, name, 0.0, None))
                continue
            outcome = decolab.CharlieOutcome(name)
            u = decolab.correction_matrix(decolab.correction_lookup(kind, bell, outcome))
            corrected = u @ (bob / joint) @ u.conj().T
            fid = (payload.conj() @ corrected @ payload).real
            branches.append((bell.value, name, joint, min(max(fid, 0.0), 1.0)))
    return branches


def closed_form(job: Job, p: float, g: float) -> list[tuple[str, complex]]:
    """The published coefficients, as the ledger compares them (GHZ doubled)."""
    if job.kind == "ghz":
        a, b = job.amps
        decay, coh = (1 - g) ** 3, (1 - g) ** 1.5
        return [
            ("a1", a**2 * (p**2 + (1 - p) ** 3 * decay)),
            ("a2", coh * (p**2 * a * b + a * b * (1 - p) ** 3)),
            ("a3", coh * (p**2 * a * b + a * b * (1 - p) ** 3)),
            ("a4", b**2 * (p**2 * decay + (1 - p) ** 3)),
        ]
    c1, c2, c3, c4 = job.amps
    base, tail = (1 - g) / 4, (1 - p) ** 1.5
    k1 = base * (p**1.5 + tail)
    k2 = base * (p**1.5 * (1 - g) + tail)
    k3 = base * (p**1.5 * (1 - g) ** 3 + tail)
    values = [
        c3 * c3 * k1, c3 * c1 * k1, c3 * c2 * k1, c3 * c4 * k2 + p**3 / 4 * c4 * c3,
        c1 * c3 * k1, c1 * c1 * k1, c1 * c2 * k1, c1 * c4 * k2,
        c2 * c3 * k1, c2 * c1 * k1, c2 * c2 * k1, c2 * c4 * k2,
        c4 * c1 * k2, c4 * c1 * k2, c4 * c2 * k2, c4 * c4 * k3,
    ]  # fmt: skip
    return [(f"b{i + 1}", v) for i, v in enumerate(values)]


def _close(got: float | complex, want: float | complex, tol: float = TOL) -> bool:
    return abs(got - want) <= tol


def _sweep_rows(job: Job) -> list[tuple[float, float, float, str, float]]:
    label = job.quantity
    if job.quantity == "fidelity_branch":
        label = f"fidelity_{job.bell}_{job.charlie}"
    rows = []
    for p in job.p_values:
        for g in job.gamma_grid():
            rho = damped(job, p, g)
            if job.quantity == "negativity":
                value = negativity(rho)
                rows += [(p, g, t, label, value) for t in job.thetas]
                continue
            for t in job.thetas:
                branches = protocol(job, rho, t)
                if job.quantity == "fidelity_avg":
                    value = sum(pr * f for _, _, pr, f in branches if f is not None)
                else:
                    (f,) = [f for b, c, _, f in branches if (b, c) == (job.bell, job.charlie)]
                    value = 0.0 if f is None else f
                rows.append((p, g, t, label, value))
    return rows


def _ledger_rows(job: Job) -> list[tuple]:
    rows = []
    context = "ghz_coeffs" if job.kind == "ghz" else "ghz_like_coeffs"
    if job.kind == "ghz":
        cells = [(0, 0), (0, 7), (7, 0), (7, 7)]
    else:
        cells = [(r, c) for r in GHZ_LIKE_BASIS for c in GHZ_LIKE_BASIS]
    for p in job.p_values:
        for g in job.gamma_grid():
            rho = damped(job, p, g)
            for (name, formula), cell in zip(closed_form(job, p, g), cells):
                rows.append((context, p, g, 0.0, name, rho[cell], formula))
    return rows


def _check_sweep(job: Job, out: str, work: Path) -> list[str]:
    lines = (work / CSV).read_text().splitlines()
    want = _sweep_rows(job)
    problems = []
    if lines[0] != SWEEP_HEADER or len(lines) != len(want) + 1:
        return [f"{CSV}: header or row count differs ({len(lines) - 1} rows, want {len(want)})"]
    for n, (line, ref) in enumerate(zip(lines[1:], want), start=2):
        p, g, t, label, value = line.split(",")
        got = (float(p), float(g), float(t), label, float(value))
        if got[3] != ref[3] or not all(_close(a, b) for a, b in zip(got[:3] + got[4:], ref[:3] + ref[4:])):
            problems.append(f"{CSV} line {n}: {line!r}, reference {ref}")
    if f"wrote {len(want)} records" not in out:
        problems.append(f"stdout does not report {len(want)} records")
    svg = (work / SVG).read_text()
    if not svg.startswith("<svg") or not svg.endswith("</svg>\n"):
        problems.append(f"{SVG} is not a complete SVG document")
    return problems


def _check_ledger(job: Job, out: str, work: Path) -> list[str]:
    lines = (work / CSV).read_text().splitlines()
    want = _ledger_rows(job)
    if lines[0] != LEDGER_HEADER or len(lines) != len(want) + 1:
        return [f"{CSV}: header or row count differs ({len(lines) - 1} rows, want {len(want)})"]
    problems = []
    for n, (line, ref) in enumerate(zip(lines[1:], want), start=2):
        context, p, g, t, name, sim, formula, absdiff = line.split(",")
        sim, formula = complex(sim), complex(formula)
        ok = (
            (context, name) == (ref[0], ref[4])
            and all(_close(float(a), b) for a, b in zip((p, g, t), ref[1:4]))
            and _close(sim, ref[5])
            and _close(formula, ref[6])
            and _close(float(absdiff), abs(sim - formula))
        )
        if not ok:
            problems.append(f"{CSV} line {n}: {line!r}, reference {ref}")
    if f"wrote {len(want)} comparisons" not in out:
        problems.append(f"stdout does not report {len(want)} comparisons")
    return problems


def _check_teleport(job: Job, out: str) -> list[str]:
    lines = out.splitlines()
    branches = protocol(job, damped(job, job.p_values[0], job.gamma_start), job.thetas[0])
    if len(lines) != 10:
        return [f"teleport printed {len(lines)} lines, want 10"]
    problems = []
    for line, (bell, charlie, prob, fid) in zip(lines[1:9], branches):
        got_bell, got_charlie, _, got_prob, got_fid = line.split()
        ok = (got_bell, got_charlie) == (bell, charlie) and _close(float(got_prob), prob, PRINT_TOL)
        if fid is None:
            ok = ok and got_fid == "absent"
        else:
            ok = ok and got_fid != "absent" and _close(float(got_fid), fid, PRINT_TOL)
        if not ok:
            problems.append(f"branch {line.split()}, reference {(bell, charlie, prob, fid)}")
    average = sum(pr * f for _, _, pr, f in branches if f is not None)
    if not lines[9].startswith("average fidelity = ") or not _close(
        float(lines[9].rsplit("=", 1)[1]), average, PRINT_TOL
    ):
        problems.append(f"{lines[9]!r}, reference average {average}")
    return problems


def check(job: Job, out: str, work: Path) -> list[str]:
    """Everything in `job`'s output that disagrees with the reference."""
    if job.command == "sweep":
        return _check_sweep(job, out, work)
    if job.command == "diff-formulas":
        return _check_ledger(job, out, work)
    return _check_teleport(job, out)


def compare_frozen(got: Path, want: Path) -> list[str]:
    """Row-by-row comparison of a sweep CSV against its frozen copy."""
    got_lines, want_lines = got.read_text().splitlines(), want.read_text().splitlines()
    if len(got_lines) != len(want_lines) or got_lines[0] != want_lines[0]:
        return [f"{got.name}: header or row count differs from the frozen copy"]
    problems = []
    for n, (a, b) in enumerate(zip(got_lines[1:], want_lines[1:]), start=2):
        fa, fb = a.split(","), b.split(",")
        numbers = [i for i in range(len(fb)) if i != 3]
        if fa[3] != fb[3] or not all(_close(float(fa[i]), float(fb[i]), FROZEN_TOL) for i in numbers):
            problems.append(f"{got.name} line {n}: {a!r}, frozen {b!r}")
    return problems

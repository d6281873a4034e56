"""Command-line driver.

  decolab sweep <runfile>          run a sweep, write CSV (and SVG if configured)
  decolab check-channel            completeness defects of both Kraus variants
  decolab teleport ...             one protocol run, printed as a branch table
  decolab diff-formulas <runfile>  closed-form coefficients vs simulation, as CSV

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import states, sweep as sweep_mod, svg as svg_mod, teleport
from .channels import ApplicationMode, KrausVariant, apply_channel, build_kraus
from .constants import KRAUS_COMPLETENESS_TOL
from .errors import NumericalError, RunfileError
from .runfile import parse_runfile
from .teleport import ResourceKind

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Damped three-qubit entanglement and teleportation laboratory.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("sweep", help="run the sweep described by a run file")
    cmd.add_argument("runfile", help="path to an INI-style run file")

    cmd = commands.add_parser(
        "check-channel", help="completeness defect of both Kraus variants over a grid"
    )
    cmd.add_argument(
        "--grid", type=int, default=5, help="points per axis over [0, 1] (default 5)"
    )

    cmd = commands.add_parser("teleport", help="single protocol run, printed per branch")
    cmd.add_argument("--mu", type=float, default=states.SQRT_HALF)
    cmd.add_argument("--nu", type=float, default=states.SQRT_HALF)
    cmd.add_argument("--theta", type=float, default=0.0, help="analyzer angle, radians")
    cmd.add_argument("--kind", choices=["ghz", "ghz_like"], default="ghz")
    cmd.add_argument("--p", type=float, default=0.0)
    cmd.add_argument("--gamma", type=float, default=0.0)
    cmd.add_argument("--kraus", choices=["standard", "raw"], default="standard")
    cmd.add_argument("--mode", choices=["independent", "correlated"], default="independent")
    for kind, amplitudes in sweep_mod.FAMILY_AMPLITUDES.items():
        for name, _ in amplitudes:
            cmd.add_argument(f"--{name}", type=float, help=f"{kind.value} amplitude")

    cmd = commands.add_parser(
        "diff-formulas",
        help="diff the closed-form coefficients against simulation over a grid",
    )
    cmd.add_argument("runfile", help="path to an INI-style run file")
    return parser


def _cmd_sweep(args) -> int:
    config = parse_runfile(args.runfile)
    records = sweep_mod.run_sweep(config.sweep)
    sweep_mod.emit_csv(records, config.csv_path)
    print(f"wrote {len(records)} records to {config.csv_path}")
    if config.svg_path is not None:
        svg_mod.emit_svg_lineplot(records, config.svg_path, config.series_key)
        print(f"wrote plot to {config.svg_path}")
    return EXIT_OK


def _cmd_check_channel(args) -> int:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    axis = [i / (args.grid - 1) for i in range(args.grid)]
    rows = sweep_mod.channel_check(axis, axis)
    print(f"{'p':>6} {'gamma':>6} {'standard defect':>16} {'raw defect':>12}")
    worst = 0.0
    for row in rows:
        worst = max(worst, row.defect_standard)
        print(
            f"{row.p:6.3f} {row.gamma:6.3f} {row.defect_standard:16.3e} "
            f"{row.defect_raw:12.3e}"
        )
    if worst > KRAUS_COMPLETENESS_TOL:
        print(f"FAIL: standard variant defect {worst:.3e} exceeds {KRAUS_COMPLETENESS_TOL}")
        return EXIT_VALIDATION
    print(f"OK: standard variant defect at most {worst:.3e}")
    return EXIT_OK


def _cmd_teleport(args) -> int:
    kind = ResourceKind(args.kind)
    params = []
    for family, amplitudes in sweep_mod.FAMILY_AMPLITUDES.items():
        for name, default in amplitudes:
            value = getattr(args, name)
            if family is kind:
                params.append(default if value is None else value)
            elif value is not None:
                raise ValueError(f"--{name} does not apply to --kind {kind.value}")
    resource = sweep_mod.resource_vector(kind, params)
    kraus = build_kraus(KrausVariant(args.kraus), args.p, args.gamma)
    rho = apply_channel(
        states.density(resource), kraus, (0, 1, 2), ApplicationMode(args.mode), renormalize=True
    )
    result = teleport.run_protocol(args.mu, args.nu, rho, kind, args.theta)
    print(f"{'bell':>10} {'charlie':>8} {'correction':>10} {'probability':>12} {'fidelity':>10}")
    for run in result.runs:
        correction = teleport.correction_lookup(kind, run.bell, run.charlie)
        fid = "absent" if run.fidelity is None else f"{run.fidelity:10.6f}"
        print(
            f"{run.bell.value:>10} {run.charlie.value:>8} {correction.value:>10} "
            f"{run.probability:12.6f} {fid:>10}"
        )
    print(f"average fidelity = {result.average_fidelity:.6f}")
    return EXIT_OK


def _cmd_diff_formulas(args) -> int:
    config = parse_runfile(args.runfile)
    ledger = sweep_mod.formula_diff(config.sweep)
    ledger.write_csv(config.csv_path)
    print(f"wrote {len(ledger.rows)} comparisons to {config.csv_path}")
    print(f"max |simulated - formula| = {ledger.max_absdiff():.6g}")
    return EXIT_OK


# argparse reads -inf and -nan, and before Python 3.13 a negative number in exponent
# form, as an option name, so `--theta -1e-05` is passed on as `--theta=-1e-05`.
_NEGATIVE_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)", re.IGNORECASE)


def _attach_negative_values(argv) -> list[str]:
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    handlers = {
        "sweep": _cmd_sweep,
        "check-channel": _cmd_check_channel,
        "teleport": _cmd_teleport,
        "diff-formulas": _cmd_diff_formulas,
    }
    try:
        return handlers[args.command](args)
    except (RunfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

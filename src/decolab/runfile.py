"""INI-style run files describing one sweep.

Four sections, all keys optional unless stated:

  [state]    kind = ghz | ghz_like          (required)
             alpha, beta                    ghz amplitudes, default 1/sqrt(2) each
             c1, c2, c3, c4                 ghz_like amplitudes, default 1 each
             mu, nu                         payload qubit, default 1/sqrt(2) each

  [channel]  kraus = standard | raw         default standard
             mode = independent | correlated  default independent
             p_values = 0, 0.1, 0.3         default shown

  [sweep]    quantity = negativity | fidelity_branch | fidelity_avg  (required)
             gamma_start, gamma_stop, gamma_count    default 0, 1, 51
                                            (count 1 needs start = stop)
             theta_values = 0               comma list, radians
             bell, charlie                  required for fidelity_branch

  [output]   csv = path                     (required)
             svg = path                     optional line plot
             series = p | theta             default p

Blank lines and full-line comments (# or ;) are ignored. Unknown sections,
unknown keys, duplicate keys, and out-of-range values are all errors that name
the offending line - nothing is silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channels import ApplicationMode, KrausVariant
from .errors import RunfileError
from .states import SQRT_HALF
from .sweep import FAMILY_AMPLITUDES, Quantity, SweepSpec
from .teleport import BellOutcome, CharlieOutcome, ResourceKind

_SECTIONS = ("state", "channel", "sweep", "output")

_KIND_TOKENS = {"ghz": ResourceKind.GHZ, "ghz_like": ResourceKind.GHZ_LIKE}
_KRAUS_TOKENS = {"standard": KrausVariant.STANDARD, "raw": KrausVariant.RAW}
_MODE_TOKENS = {
    "independent": ApplicationMode.INDEPENDENT,
    "correlated": ApplicationMode.CORRELATED,
}
_QUANTITY_TOKENS = {q.value: q for q in Quantity}
_BELL_TOKENS = {b.value: b for b in BellOutcome}
_CHARLIE_TOKENS = {
    "x1": CharlieOutcome.X1,
    "x2": CharlieOutcome.X2,
    "0": CharlieOutcome.ZERO,
    "zero": CharlieOutcome.ZERO,
    "1": CharlieOutcome.ONE,
    "one": CharlieOutcome.ONE,
}
_SERIES_TOKENS = ("p", "theta")


@dataclass(frozen=True)
class RunConfig:
    sweep: SweepSpec
    csv_path: str
    svg_path: str | None
    series_key: str


class _Section:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.entries: dict[str, tuple[str, int]] = {}

    def take(self, key: str) -> tuple[str, int] | None:
        return self.entries.pop(key, None)


def _scan(path) -> dict[str, _Section]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#") or text.startswith(";"):
            continue
        if text.startswith("[") and text.endswith("]"):
            name = text[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise RunfileError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise RunfileError(f"duplicate section [{name}]", lineno)
            current = _Section(name, lineno)
            sections[name] = current
            continue
        if "=" not in text:
            raise RunfileError(f"expected key = value, got {text!r}", lineno)
        if current is None:
            raise RunfileError("key outside any section", lineno)
        key, _, value = text.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key in current.entries:
            raise RunfileError(f"duplicate key {key!r} in [{current.name}]", lineno)
        current.entries[key] = (value, lineno)
    return sections


def _require_section(sections, name: str) -> _Section:
    if name not in sections:
        raise RunfileError(f"missing required section [{name}]")
    return sections[name]


def _float(entry: tuple[str, int], key: str) -> float:
    value, line = entry
    try:
        return float(value)
    except ValueError:
        raise RunfileError(f"{key} must be a number, got {value!r}", line) from None


def _int(entry: tuple[str, int], key: str) -> int:
    value, line = entry
    try:
        return int(value)
    except ValueError:
        raise RunfileError(f"{key} must be an integer, got {value!r}", line) from None


def _float_list(entry: tuple[str, int], key: str) -> tuple[float, ...]:
    value, line = entry
    parts = [part.strip() for part in value.split(",") if part.strip()]
    if not parts:
        raise RunfileError(f"{key} must be a comma-separated list of numbers", line)
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise RunfileError(f"{key} must be a comma-separated list of numbers", line) from None


def _token(entry: tuple[str, int], key: str, table) -> object:
    value, line = entry
    token = value.lower()
    if token not in table:
        options = ", ".join(sorted(table)) if isinstance(table, dict) else ", ".join(table)
        raise RunfileError(f"{key} must be one of: {options}; got {value!r}", line)
    return table[token] if isinstance(table, dict) else token


def _reject_unknown(section: _Section) -> None:
    for key, (_, line) in section.entries.items():
        raise RunfileError(f"unknown key {key!r} in [{section.name}]", line)


def parse_runfile(path) -> RunConfig:
    """Parse and fully validate a run file; every failure names its line."""
    sections = _scan(path)

    state = _require_section(sections, "state")
    kind_entry = state.take("kind")
    if kind_entry is None:
        raise RunfileError("missing required key 'kind' in [state]", state.line)
    kind = _token(kind_entry, "kind", _KIND_TOKENS)
    params = tuple(
        _float(entry, key) if (entry := state.take(key)) else default
        for key, default in FAMILY_AMPLITUDES[kind]
    )
    mu = _float(entry, "mu") if (entry := state.take("mu")) else SQRT_HALF
    nu = _float(entry, "nu") if (entry := state.take("nu")) else SQRT_HALF
    _reject_unknown(state)

    variant = KrausVariant.STANDARD
    mode = ApplicationMode.INDEPENDENT
    p_values: tuple[float, ...] = (0.0, 0.1, 0.3)
    if "channel" in sections:
        channel = sections["channel"]
        if entry := channel.take("kraus"):
            variant = _token(entry, "kraus", _KRAUS_TOKENS)
        if entry := channel.take("mode"):
            mode = _token(entry, "mode", _MODE_TOKENS)
        if entry := channel.take("p_values"):
            p_values = _float_list(entry, "p_values")
            for p in p_values:
                if not 0.0 <= p <= 1.0:
                    raise RunfileError(f"p value {p} outside [0, 1]", entry[1])
        _reject_unknown(channel)

    sweep_section = _require_section(sections, "sweep")
    quantity_entry = sweep_section.take("quantity")
    if quantity_entry is None:
        raise RunfileError("missing required key 'quantity' in [sweep]", sweep_section.line)
    quantity = _token(quantity_entry, "quantity", _QUANTITY_TOKENS)
    gamma_start, gamma_stop, gamma_count = 0.0, 1.0, 51
    if entry := sweep_section.take("gamma_start"):
        gamma_start = _float(entry, "gamma_start")
        if not 0.0 <= gamma_start <= 1.0:
            raise RunfileError(f"gamma_start {gamma_start} outside [0, 1]", entry[1])
    if entry := sweep_section.take("gamma_stop"):
        gamma_stop = _float(entry, "gamma_stop")
        if not 0.0 <= gamma_stop <= 1.0:
            raise RunfileError(f"gamma_stop {gamma_stop} outside [0, 1]", entry[1])
    if entry := sweep_section.take("gamma_count"):
        gamma_count = _int(entry, "gamma_count")
        if gamma_count < (1 if gamma_start == gamma_stop else 2):
            raise RunfileError(
                f"gamma_count must be at least 2 (1 if gamma_start = gamma_stop), "
                f"got {gamma_count}",
                entry[1],
            )
    theta_values: tuple[float, ...] = (0.0,)
    if entry := sweep_section.take("theta_values"):
        theta_values = _float_list(entry, "theta_values")
    bell = charlie = None
    if entry := sweep_section.take("bell"):
        bell = _token(entry, "bell", _BELL_TOKENS)
    if entry := sweep_section.take("charlie"):
        charlie = _token(entry, "charlie", _CHARLIE_TOKENS)
    _reject_unknown(sweep_section)

    output = _require_section(sections, "output")
    csv_entry = output.take("csv")
    if csv_entry is None:
        raise RunfileError("missing required key 'csv' in [output]", output.line)
    csv_path = csv_entry[0]
    svg_path = entry[0] if (entry := output.take("svg")) else None
    series_key = "p"
    if entry := output.take("series"):
        series_key = _token(entry, "series", _SERIES_TOKENS)
    _reject_unknown(output)

    try:
        spec = SweepSpec(
            kind=kind,
            quantity=quantity,
            state_params=params,
            mu=mu,
            nu=nu,
            variant=variant,
            mode=mode,
            p_values=p_values,
            gamma_start=gamma_start,
            gamma_stop=gamma_stop,
            gamma_count=gamma_count,
            theta_values=theta_values,
            bell=bell,
            charlie=charlie,
        )
    except ValueError as exc:
        raise RunfileError(str(exc), sweep_section.line) from exc
    return RunConfig(spec, csv_path, svg_path, series_key)

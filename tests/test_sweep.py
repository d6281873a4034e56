import math
import re

import numpy as np
import pytest

from decolab.channels import ApplicationMode, KrausVariant
from decolab.errors import RunfileError
from decolab.runfile import parse_runfile
from decolab.sweep import (
    Quantity,
    SweepRecord,
    SweepSpec,
    channel_check,
    emit_csv,
    formula_diff,
    read_csv,
    run_sweep,
)
from decolab.teleport import BellOutcome, CharlieOutcome, ResourceKind
from decolab import svg


def fig1_spec():
    return SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY)


def test_default_negativity_sweep_shape():
    records = run_sweep(fig1_spec())
    assert len(records) == 3 * 51  # default p set {0, 0.1, 0.3} x 51 gammas
    for r in records:
        assert -1e-9 <= r.value <= 1 + 1e-9
        assert r.quantity == "negativity"
    # identity channel at gamma=0 keeps the maximal state maximal for every p
    for r in records:
        if r.gamma == 0.0:
            assert r.value == pytest.approx(1.0, abs=1e-10)
        if r.gamma == 1.0:
            assert r.value == pytest.approx(0.0, abs=1e-10)


def test_record_count_matches_grid():
    spec = SweepSpec(
        kind=ResourceKind.GHZ_LIKE,
        quantity=Quantity.FIDELITY_AVG,
        p_values=(0.0, 0.5),
        gamma_count=5,
        theta_values=(0.0, 0.3),
    )
    records = run_sweep(spec)
    assert len(records) == 2 * 5 * 2


def test_sweep_order_is_p_major():
    spec = SweepSpec(
        kind=ResourceKind.GHZ,
        quantity=Quantity.NEGATIVITY,
        p_values=(0.0, 1.0),
        gamma_count=3,
    )
    records = run_sweep(spec)
    assert [(r.p, r.gamma) for r in records] == [
        (0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)
    ]


def test_branch_sweep_labels_and_values():
    spec = SweepSpec(
        kind=ResourceKind.GHZ,
        quantity=Quantity.FIDELITY_BRANCH,
        bell=BellOutcome.PHI_PLUS,
        charlie=CharlieOutcome.X1,
        p_values=(0.0,),
        gamma_count=2,
        theta_values=(np.pi / 4,),
    )
    records = run_sweep(spec)
    assert len(records) == 2
    assert records[0].quantity == "fidelity_phi_plus_x1"
    # undamped maximal GHZ through the X-basis analyzer teleports this branch
    assert records[0].value == pytest.approx(1.0, abs=1e-10)


def test_sweep_determinism():
    spec = SweepSpec(
        kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, p_values=(0.0, 0.3), gamma_count=7
    )
    assert run_sweep(spec) == run_sweep(spec)


def test_numerical_failure_names_the_grid_point(monkeypatch):
    import decolab.sweep as sweep_module
    from decolab.channels import KrausSet
    from decolab.errors import NumericalError

    dead = KrausSet((np.zeros((2, 2)),))
    monkeypatch.setattr(sweep_module, "build_kraus", lambda variant, p, gamma: dead)
    spec = SweepSpec(
        kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, p_values=(0.25,), gamma_count=2
    )
    with pytest.raises(NumericalError, match=r"p=0\.25, gamma=0"):
        run_sweep(spec)


def test_negativity_rows_are_scored_stacked(monkeypatch):
    import decolab.linalg as linalg_module
    from decolab import entanglement, states
    from decolab.channels import apply_channel, build_kraus

    spec = SweepSpec(
        kind=ResourceKind.GHZ_LIKE,
        quantity=Quantity.NEGATIVITY,
        state_params=(0.8, 0.7, 0.6, 1.5842979517754858),
        variant=KrausVariant.RAW,
        p_values=(0.0, 0.4, 0.9),
        gamma_count=5,
        theta_values=(0.0, 1.0),
    )
    rho0 = states.density(spec.resource_vector())
    # one state at a time, through the public single-state function
    want = [
        entanglement.tripartite_negativity(
            apply_channel(rho0, build_kraus(spec.variant, p, g), (0, 1, 2), renormalize=True)
        ).tripartite
        for p in spec.p_values
        for g in spec.gamma_grid()
        for _ in spec.theta_values
    ]
    calls = []
    eig = linalg_module.hermitian_eigenvalues
    monkeypatch.setattr(linalg_module, "hermitian_eigenvalues", lambda h: calls.append(1) or eig(h))
    monkeypatch.setattr(entanglement, "tripartite_negativity", None)
    records = run_sweep(spec)
    assert [r.value for r in records] == want
    assert [(r.p, r.theta) for r in records[:3]] == [(0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    # one PSD check per point in the channel, one eigensolve per cut per p row
    assert len(calls) == 3 * 5 + 3 * 3


def test_raw_variant_sweep_stays_in_range():
    spec = SweepSpec(
        kind=ResourceKind.GHZ,
        quantity=Quantity.NEGATIVITY,
        variant=KrausVariant.RAW,
        p_values=(0.0, 0.5, 1.0),
        gamma_count=6,
    )
    for r in run_sweep(spec):
        assert -1e-9 <= r.value <= 1 + 1e-9


def test_correlated_mode_sweep_runs():
    spec = SweepSpec(
        kind=ResourceKind.GHZ,
        quantity=Quantity.NEGATIVITY,
        mode=ApplicationMode.CORRELATED,
        p_values=(0.3,),
        gamma_count=3,
    )
    assert len(run_sweep(spec)) == 3


def test_spec_validation():
    with pytest.raises(ValueError, match="gamma grid"):
        SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, gamma_stop=1.5)
    with pytest.raises(ValueError, match="at least 2"):
        SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, gamma_count=1)
    with pytest.raises(ValueError, match="at least 2"):
        SweepSpec(
            kind=ResourceKind.GHZ,
            quantity=Quantity.NEGATIVITY,
            gamma_start=0.2,
            gamma_stop=0.2,
            gamma_count=0,
        )
    with pytest.raises(ValueError, match="selector"):
        SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.FIDELITY_BRANCH)
    with pytest.raises(ValueError, match="does not fit"):
        SweepSpec(
            kind=ResourceKind.GHZ,
            quantity=Quantity.FIDELITY_BRANCH,
            bell=BellOutcome.PHI_PLUS,
            charlie=CharlieOutcome.ONE,
        )
    with pytest.raises(ValueError, match="state parameters"):
        SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, state_params=(1, 0, 0, 0))
    with pytest.raises(ValueError, match="theta value nan is not finite"):
        SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, theta_values=(0.0, math.nan))


def test_one_point_gamma_grid():
    spec = SweepSpec(
        kind=ResourceKind.GHZ,
        quantity=Quantity.FIDELITY_AVG,
        p_values=(0.0, 0.3),
        gamma_start=0.2,
        gamma_stop=0.2,
        gamma_count=1,
        theta_values=(0.0, 0.5),
    )
    assert spec.gamma_grid() == (0.2,)
    records = run_sweep(spec)
    assert [(r.p, r.gamma, r.theta) for r in records] == [
        (0.0, 0.2, 0.0), (0.0, 0.2, 0.5), (0.3, 0.2, 0.0), (0.3, 0.2, 0.5)
    ]


def test_channel_check_grid():
    rows = channel_check()
    assert len(rows) == 25
    for row in rows:
        assert row.defect_standard < 1e-12
    by_point = {(row.p, row.gamma): row for row in rows}
    assert by_point[(1.0, 0.0)].defect_raw > 1.0
    assert by_point[(0.0, 0.0)].defect_raw <= 1e-12


def test_formula_diff_ghz_grid():
    spec = SweepSpec(
        kind=ResourceKind.GHZ,
        quantity=Quantity.NEGATIVITY,
        p_values=(0.0, 0.5, 1.0),
        gamma_count=3,
    )
    ledger = formula_diff(spec)
    assert len(ledger.rows) == 9 * 4
    by_key = {(r.p, r.gamma, r.quantity): r for r in ledger.rows}
    # exact agreement at the no-noise corner, disagreement inside the grid
    for q in ("a1", "a2", "a3", "a4"):
        assert by_key[(0.0, 0.0, q)].absdiff < 1e-12
    assert by_key[(0.5, 0.5, "a1")].absdiff > 1e-3


def test_formula_diff_ghz_like_grid():
    spec = SweepSpec(
        kind=ResourceKind.GHZ_LIKE,
        quantity=Quantity.NEGATIVITY,
        p_values=(0.0, 1.0),
        gamma_count=2,
    )
    ledger = formula_diff(spec)
    assert len(ledger.rows) == 4 * 16
    corner = [r for r in ledger.rows if r.p == 0.0 and r.gamma == 0.0]
    assert all(r.absdiff < 1e-12 for r in corner)


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_bytes() == b"p,gamma,theta,quantity,value\n"


def test_emit_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv([SweepRecord(0.1, 0.5, 0.0, "negativity", 0.25)], path)
    assert path.read_bytes() == b"p,gamma,theta,quantity,value\n0.1,0.5,0,negativity,0.25\n"


def test_csv_round_trip_exact_values(tmp_path):
    records = [
        SweepRecord(0.1, 0.5, 0.0, "negativity", 0.25),
        SweepRecord(0.3, 1.0, 0.0, "negativity", 0.0),
        SweepRecord(1.0, 0.75, 0.5, "fidelity_avg", 0.625),
    ]
    path = tmp_path / "rt.csv"
    emit_csv(records, path)
    assert read_csv(path) == records


def test_csv_round_trip_idempotent_on_computed_values(tmp_path):
    records = run_sweep(
        SweepSpec(kind=ResourceKind.GHZ, quantity=Quantity.NEGATIVITY, p_values=(0.3,), gamma_count=5)
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, first)
    emit_csv(read_csv(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_svg_single_series(tmp_path):
    path = tmp_path / "plot.svg"
    records = [
        SweepRecord(0.0, 0.0, 0.0, "negativity", 1.0),
        SweepRecord(0.0, 1.0, 0.0, "negativity", 0.0),
    ]
    svg.emit_svg_lineplot(records, path, series_key="p")
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert text.startswith("<svg")


def test_svg_three_series_with_legend(tmp_path):
    path = tmp_path / "plot.svg"
    records = [
        SweepRecord(p, g, 0.0, "negativity", 1 - g * (1 + p))
        for p in (0.0, 0.1, 0.3)
        for g in (0.0, 0.5, 1.0)
    ]
    svg.emit_svg_lineplot(records, path, series_key="p")
    text = path.read_text()
    assert text.count("<polyline") == 3
    assert "p=0.1" in text and "p=0.3" in text and "p=0" in text


def test_svg_constant_series_y_midline(tmp_path):
    path = tmp_path / "flat.svg"
    records = [
        SweepRecord(0.0, 0.0, 0.0, "negativity", 0.75),
        SweepRecord(0.0, 1.0, 0.0, "negativity", 0.75),
    ]
    svg.emit_svg_lineplot(records, path, series_key="p")
    # degenerate y-range pads to [0.25, 1.25], putting the line at mid-height
    y_mid = svg.MARGIN_TOP + svg.PLOT_HEIGHT / 2
    x_left = float(svg.MARGIN_LEFT)
    x_right = float(svg.MARGIN_LEFT + svg.PLOT_WIDTH)
    expected = f'points="{x_left:.2f},{y_mid:.2f} {x_right:.2f},{y_mid:.2f}"'
    assert expected in path.read_text()


def test_svg_rejects_mixed_quantities(tmp_path):
    records = [
        SweepRecord(0.0, 0.0, 0.0, "negativity", 1.0),
        SweepRecord(0.0, 1.0, 0.0, "fidelity_avg", 0.5),
    ]
    with pytest.raises(ValueError, match="mix"):
        svg.emit_svg_lineplot(records, tmp_path / "bad.svg", series_key="p")


def test_svg_theta_axis_when_gamma_fixed(tmp_path):
    records = [
        SweepRecord(0.0, 0.2, t, "fidelity_avg", 0.5 + 0.1 * t) for t in (0.0, 0.5, 1.0)
    ]
    path = tmp_path / "theta.svg"
    svg.emit_svg_lineplot(records, path, series_key="p")
    assert ">theta</text>" in path.read_text()


MINIMAL = """\
[state]
kind = ghz

[sweep]
quantity = negativity

[output]
csv = out.csv
"""


def write_runfile(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_minimal_runfile(tmp_path):
    config = parse_runfile(write_runfile(tmp_path, MINIMAL))
    spec = config.sweep
    assert spec.kind is ResourceKind.GHZ
    assert spec.quantity is Quantity.NEGATIVITY
    assert spec.mode is ApplicationMode.INDEPENDENT
    assert spec.variant is KrausVariant.STANDARD
    assert spec.p_values == (0.0, 0.1, 0.3)
    assert spec.gamma_grid()[0] == 0.0
    assert spec.gamma_grid()[-1] == 1.0
    assert spec.gamma_count == 51
    assert config.csv_path == "out.csv"
    assert config.svg_path is None
    assert config.series_key == "p"


def test_parse_full_runfile(tmp_path):
    text = """\
# fidelity of one branch vs gamma
[state]
kind = ghz_like
c1 = 0.8
c2 = 0.7
c3 = 0.6
c4 = 1.5842979517754858
mu = 0.6
nu = 0.8

[channel]
kraus = raw
mode = correlated
p_values = 0.1, 0.3, 0.6

[sweep]
quantity = fidelity_branch
bell = phi_plus
charlie = 1
gamma_start = 0
gamma_stop = 0.9
gamma_count = 10

[output]
csv = out.csv
svg = out.svg
series = p
"""
    config = parse_runfile(write_runfile(tmp_path, text))
    spec = config.sweep
    assert spec.variant is KrausVariant.RAW
    assert spec.mode is ApplicationMode.CORRELATED
    assert spec.bell is BellOutcome.PHI_PLUS
    assert spec.charlie is CharlieOutcome.ONE
    assert spec.p_values == (0.1, 0.3, 0.6)
    assert spec.mu == 0.6
    assert config.svg_path == "out.svg"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("quantity = negativity\ngamma_stop = 1.5", "gamma_stop 1.5 outside"),
        ("quantity = negativity\ngamma_count = 1", "at least 2"),
        ("quantity = negativity\ngamma_start = 0.5\ngamma_stop = 0.5\ngamma_count = 0", "at least 2"),
        ("quantity = negativity\nsurprise = 1", "unknown key 'surprise'"),
        ("quantity = everything", "quantity must be one of"),
        ("quantity = negativity\ntheta_values = 0, nan", "line 6: theta value nan is not finite"),
    ],
)
def test_runfile_errors_name_their_line(tmp_path, line, fragment):
    path = write_runfile(tmp_path, MINIMAL.replace("quantity = negativity", line))
    with pytest.raises(RunfileError, match=fragment) as err:
        parse_runfile(path)
    assert err.value.line > 0


def test_runfile_one_point_gamma_grid(tmp_path):
    text = MINIMAL.replace(
        "quantity = negativity",
        "quantity = negativity\ngamma_start = 0\ngamma_stop = 0\ngamma_count = 1",
    )
    spec = parse_runfile(write_runfile(tmp_path, text)).sweep
    assert spec.gamma_grid() == (0.0,)


def test_runfile_unknown_section(tmp_path):
    with pytest.raises(RunfileError, match=r"unknown section \[extras\]"):
        parse_runfile(write_runfile(tmp_path, MINIMAL + "\n[extras]\nx = 1\n"))


def test_runfile_duplicate_key(tmp_path):
    text = MINIMAL.replace("kind = ghz", "kind = ghz\nkind = ghz_like")
    with pytest.raises(RunfileError, match="duplicate key 'kind'"):
        parse_runfile(write_runfile(tmp_path, text))


def test_runfile_missing_required(tmp_path):
    with pytest.raises(RunfileError, match="missing required key 'kind'"):
        parse_runfile(write_runfile(tmp_path, "[state]\nmu = 0.6\n[sweep]\nquantity = negativity\n[output]\ncsv = x.csv\n"))
    with pytest.raises(RunfileError, match=r"missing required section \[output\]"):
        parse_runfile(write_runfile(tmp_path, "[state]\nkind = ghz\n[sweep]\nquantity = negativity\n"))


def test_runfile_unnormalized_state(tmp_path):
    text = MINIMAL.replace("kind = ghz", "kind = ghz\nalpha = 1\nbeta = 1")
    with pytest.raises(RunfileError, match="^line 4: ghz amplitudes: squared amplitudes sum to 2.0"):
        parse_runfile(write_runfile(tmp_path, text))


@pytest.mark.parametrize(
    "state, line, message",
    [
        ("beta = 1\nalpha = 1\nmu = 0.6\nnu = 0.8", 4, "ghz amplitudes: squared amplitudes"),
        ("alpha = nan", 3, "amplitudes contain NaN or Inf"),
        ("mu = 0.6\nalpha = 1\nbeta = 0\nnu = 0.6", 6, "qubit amplitudes: squared amplitudes"),
        ("nu = 1", 3, "qubit amplitudes: squared amplitudes sum to 1.5"),
        ("mu = nan", 3, "amplitudes contain NaN or Inf"),
    ],
)
def test_runfile_amplitude_errors_name_their_line(tmp_path, state, line, message):
    # The failure names the last amplitude (or payload) key given in [state].
    text = MINIMAL.replace("kind = ghz", f"kind = ghz\n{state}")
    with pytest.raises(RunfileError, match=rf"^line {line}: {re.escape(message)}"):
        parse_runfile(write_runfile(tmp_path, text))


def test_runfile_branch_selector_required(tmp_path):
    text = MINIMAL.replace("quantity = negativity", "quantity = fidelity_branch")
    with pytest.raises(RunfileError, match="selector"):
        parse_runfile(write_runfile(tmp_path, text))

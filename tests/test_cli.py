from pathlib import Path

import pytest

from decolab.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from decolab.runfile import parse_runfile
from decolab.sweep import read_csv

FROZEN = Path(__file__).resolve().parents[1] / "benchmarks" / "frozen"

RUNFILE = """\
[state]
kind = ghz

[sweep]
quantity = negativity
gamma_count = 6

[output]
csv = {csv}
"""


def test_check_channel_passes(capsys):
    assert main(["check-channel"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "standard defect" in out
    assert "OK" in out


def test_check_channel_grid_flag(capsys):
    assert main(["check-channel", "--grid", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == 3 * 3 + 2  # header + 9 rows + verdict


def test_sweep_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    runfile = tmp_path / "run.ini"
    runfile.write_text(RUNFILE.format(csv=csv_path))
    assert main(["sweep", str(runfile)]) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,gamma,theta,quantity,value"
    assert len(lines) == 1 + 3 * 6


def test_sweep_byte_identical_reruns(tmp_path):
    csv_path = tmp_path / "out.csv"
    runfile = tmp_path / "run.ini"
    runfile.write_text(RUNFILE.format(csv=csv_path))
    assert main(["sweep", str(runfile)]) == EXIT_OK
    first = csv_path.read_bytes()
    assert main(["sweep", str(runfile)]) == EXIT_OK
    assert csv_path.read_bytes() == first


def test_sweep_writes_svg_when_configured(tmp_path):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    runfile = tmp_path / "run.ini"
    runfile.write_text(RUNFILE.format(csv=csv_path) + f"svg = {svg_path}\n")
    assert main(["sweep", str(runfile)]) == EXIT_OK
    assert svg_path.read_text().count("<polyline") == 3


def test_sweep_invalid_runfile_exit_code(tmp_path, capsys):
    runfile = tmp_path / "run.ini"
    runfile.write_text(RUNFILE.format(csv="x.csv").replace("negativity", "nonsense"))
    assert main(["sweep", str(runfile)]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("quantity", ["negativity", "fidelity_avg"])
def test_sweep_rejects_non_finite_theta(tmp_path, capsys, quantity):
    csv_path = tmp_path / "out.csv"
    runfile = tmp_path / "run.ini"
    runfile.write_text(
        RUNFILE.format(csv=csv_path).replace(
            "quantity = negativity", f"quantity = {quantity}\ntheta_values = nan, inf"
        )
    )
    assert main(["sweep", str(runfile)]) == EXIT_VALIDATION
    assert "error: line 6: theta value nan is not finite" in capsys.readouterr().err
    assert not csv_path.exists()


def test_sweep_missing_runfile_exit_code(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope.ini")]) == EXIT_IO


def test_sweep_unwritable_output_exit_code(tmp_path, capsys):
    runfile = tmp_path / "run.ini"
    runfile.write_text(RUNFILE.format(csv=tmp_path / "no" / "dir" / "out.csv"))
    assert main(["sweep", str(runfile)]) == EXIT_IO


def test_teleport_prints_branch_table(capsys):
    code = main(["teleport", "--kind", "ghz_like", "--mu", "0.6", "--nu", "0.8"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("phi_plus") == 2
    assert out.count("psi_minus") == 2
    assert "average fidelity = 1.000000" in out


def test_teleport_negative_exponent_argument(capsys):
    code = main(["teleport", "--theta", "-1e-05"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("phi_plus") == 2
    assert "average fidelity" in out


def test_teleport_negative_exponent_reaches_validation(capsys):
    # parsed as the value of --p, then rejected by the channel's range check
    assert main(["teleport", "--p", "-1e-05"]) == EXIT_VALIDATION
    assert "outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["ghz", "ghz_like"])
@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_teleport_rejects_non_finite_theta(capsys, kind, theta):
    assert main(["teleport", "--kind", kind, f"--theta={theta}"]) == EXIT_VALIDATION
    assert f"error: analyzer angle theta = {theta} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "token, shown", [("-inf", "-inf"), ("-Infinity", "-inf"), ("-nan", "nan"), ("-NaN", "nan")]
)
def test_teleport_negative_non_finite_theta_reaches_validation(capsys, token, shown):
    assert main(["teleport", "--theta", token]) == EXIT_VALIDATION
    assert f"error: analyzer angle theta = {shown} is not finite" in capsys.readouterr().err


def test_teleport_negative_non_finite_payload_reaches_validation(capsys):
    assert main(["teleport", "--mu", "-inf"]) == EXIT_VALIDATION
    assert "error: amplitudes contain NaN or Inf" in capsys.readouterr().err


def test_teleport_damped_ghz(capsys):
    code = main(
        ["teleport", "--kind", "ghz", "--theta", "0.785398", "--p", "0.3", "--gamma", "0.4"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "x1" in out and "x2" in out and "average fidelity" in out


def test_teleport_rejects_bad_payload(capsys):
    assert main(["teleport", "--mu", "1", "--nu", "1"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "kind, option",
    [("ghz_like", "--alpha"), ("ghz_like", "--beta")]
    + [("ghz", f"--c{i}") for i in range(1, 5)],
)
def test_teleport_rejects_other_family_amplitude(capsys, kind, option):
    assert main(["teleport", "--kind", kind, option, "5"]) == EXIT_VALIDATION
    assert f"{option} does not apply to --kind {kind}" in capsys.readouterr().err


def test_teleport_takes_its_family_amplitudes(capsys):
    ghz_like = ["--c1", "1", "--c2", "1", "--c3", "1", "--c4", "1", "--theta", "0.7"]
    assert main(["teleport", "--kind", "ghz_like", *ghz_like]) == EXIT_OK
    assert "average fidelity = 1.000000" in capsys.readouterr().out
    assert main(["teleport", "--kind", "ghz", "--alpha", "1", "--beta", "0"]) == EXIT_OK
    assert main(["teleport", "--kind", "ghz", "--alpha", "1", "--beta", "1"]) == EXIT_VALIDATION


@pytest.mark.parametrize("ini", sorted(FROZEN.glob("*.ini")), ids=lambda p: p.stem)
def test_frozen_runfile_reproduces_its_csv(tmp_path, monkeypatch, capsys, ini):
    # the frozen run files write their CSV (and SVG) relative to the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(ini)]) == EXIT_OK
    csv_name = parse_runfile(ini).csv_path
    want = read_csv(FROZEN / csv_name)
    got = read_csv(tmp_path / csv_name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.p, g.gamma, g.theta, g.quantity) == (w.p, w.gamma, w.theta, w.quantity)
        assert abs(g.value - w.value) <= 1e-12


def test_diff_formulas_writes_ledger(tmp_path, capsys):
    csv_path = tmp_path / "diffs.csv"
    runfile = tmp_path / "run.ini"
    runfile.write_text(
        RUNFILE.format(csv=csv_path).replace("gamma_count = 6", "gamma_count = 3")
        + "\n[channel]\np_values = 0, 0.5, 1\n"
    )
    assert main(["diff-formulas", str(runfile)]) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "context,p,gamma,theta,quantity,simulated,formula,absdiff"
    assert len(lines) == 1 + 9 * 4
    out = capsys.readouterr().out
    assert "max |simulated - formula|" in out

"""Checks of the benchmark's own machinery: seeded inputs and the reference check.

    python3 -m pytest benchmarks
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import decolab.cli  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import CSV, RUNFILE, TIMED, WORKLOADS, make_job, warmup_jobs  # noqa: E402


def _inputs(workload, seed):
    jobs = [make_job(workload, seed, TIMED, i) for i in range(len(workloads.CYCLES[workload]))]
    jobs += warmup_jobs(workload, seed)
    return [(job.argv(), job.runfile_text()) for job in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    for first, second in zip(_inputs(workload, 7), _inputs(workload, 8)):
        assert first != second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_accepts_the_library_and_rejects_a_perturbed_value(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = make_job(workload, 3, TIMED, 0)
    if job.runfile_text() is not None:
        Path(RUNFILE).write_text(job.runfile_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert decolab.cli.main(job.argv()) == 0
    assert reference.check(job, out.getvalue(), tmp_path) == []

    if job.command == "teleport":
        lines = out.getvalue().splitlines()
        average = float(lines[-1].rsplit("=", 1)[1])
        lines[-1] = f"average fidelity = {average + 2e-6:.6f}"
        assert reference.check(job, "\n".join(lines), tmp_path)
    else:
        rows = Path(CSV).read_text().splitlines()
        fields = rows[1].split(",")
        if job.command == "sweep":
            fields[4] = repr(float(fields[4]) + 1e-8)  # value
        else:
            fields[5] = str(complex(fields[5]) + 1e-8)  # simulated
        rows[1] = ",".join(fields)
        Path(CSV).write_text("\n".join(rows) + "\n")
        assert reference.check(job, out.getvalue(), tmp_path)

"""The benchmark's seed-0 correctness check, run inside the test suite.

``bench/run.py`` compares every report of its workloads with the committed
reference under ``bench/reference/seed0`` (values within its ``REL_TOL``,
the verdicts and the exit codes).  This test writes each workload's seed-0
scenarios with ``bench/workloads.py``, runs ``varmms verify`` on each, and
applies the same comparison, so a report that drifts past the reference
fails here first.  At seed 7, where the gradient solvers meet their hardest
bench models, the same check holds the verdicts, the exit codes and the
finiteness of every value on every workload, as the benchmark does at every
seed but 0.
"""
import importlib.util
import json
import pathlib

import pytest

from varmms import cli

RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("varmms_bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["local_gradients", "global_scalar", "necessity_geometry"])
def test_seed0_reports_match_bench_reference(bench_run, workload, tmp_path):
    paths = bench_run.workloads.write_workload(workload, 0, str(tmp_path / "scenarios"))
    bench_run.check_scenarios_match_reference(workload, paths)
    refs = bench_run.load_reference(workload)
    assert [r["file"] for r in refs] == [pathlib.Path(p).name for p in paths]
    out = tmp_path / "reports"
    for path, ref in zip(paths, refs):
        code = cli.main(["--jobs", "1", "--out", str(out), "verify", path])
        stem = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["name"]
        text = (out / f"{stem}.json").read_text(encoding="utf-8")
        assert code == ref["exit_code"], ref["file"]
        assert bench_run.report_problems(text, ref, exact=True) == [], ref["file"]


@pytest.mark.parametrize("workload", ["local_gradients", "global_scalar", "necessity_geometry"])
def test_seed7_reports_keep_verdicts_and_finite_values(bench_run, workload, tmp_path):
    paths = bench_run.workloads.write_workload(workload, 7, str(tmp_path / "scenarios"))
    refs = bench_run.load_reference(workload)
    assert len(refs) == len(paths)
    out = tmp_path / "reports"
    for path, ref in zip(paths, refs):
        code = cli.main(["--jobs", "1", "--out", str(out), "verify", path])
        stem = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["name"]
        text = (out / f"{stem}.json").read_text(encoding="utf-8")
        assert code == ref["exit_code"], ref["file"]
        assert bench_run.report_problems(text, ref, exact=False) == [], ref["file"]

"""Self-test of the benchmark itself (not of varmms).

    python3 bench/selftest.py

Checks, at seed 0 for every workload:

* the generator is deterministic, and seed 0 regenerates the committed
  reference scenario files byte for byte;
* one untraced and one traced pass over the same scenario files write
  byte-identical report files (JSON and CSV);
* after the traced pass every attribute the tracer wrapped is the original
  object again, in every varmms module and on ``MetricMeasureSpace``;
* the traced pass produced spans for every layer the workload is meant to
  load, and the metric lists in ``run.py`` match ``BENCHMARK.json``.

Exit code 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

for _var, _val in bench.child_env().items():
    os.environ[_var] = _val
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
import varmms  # noqa: E402
from varmms import cli  # noqa: E402

# spans each workload must contain, by the layer it was chosen to load
EXPECTED_KEYS = {
    "local_gradients": ("gradients.vector_s", "gradients.scipy_minimize_s"),
    "global_scalar": ("gradients.scalar_s", "gradients.scipy_linprog_s", "space.build_s"),
    "necessity_geometry": ("norms.luxemburg_s", "norms.mixed_s",
                           "space.uniform_perfectness_s", "space.estimate_doubling_s"),
}


def snapshot() -> dict:
    """Every attribute of every loaded varmms module, plus the
    MetricMeasureSpace class dictionary, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "varmms" or name.startswith("varmms.")):
            for attr, obj in vars(mod).items():
                snap[(name, attr)] = obj
    for attr, obj in vars(varmms.space.MetricMeasureSpace).items():
        snap[("MetricMeasureSpace", attr)] = obj
    return snap


def run_pass(paths: list[str], out: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for path in paths:
            cli.main(["--jobs", "1", "--out", out, "verify", path])


def check_workload(workload: str, tmp: str) -> list[str]:
    problems = []
    gen_a = workloads.write_workload(workload, 0, os.path.join(tmp, "gen_a"))
    gen_b = workloads.write_workload(workload, 0, os.path.join(tmp, "gen_b"))
    for a, b in zip(gen_a, gen_b):
        if not filecmp.cmp(a, b, shallow=False):
            problems.append(f"generator not deterministic: {os.path.basename(a)}")
    try:
        bench.check_scenarios_match_reference(workload, gen_a)
    except (OSError, RuntimeError) as exc:
        problems.append(str(exc))

    plain, traced = os.path.join(tmp, "plain"), os.path.join(tmp, "traced")
    run_pass(gen_a, plain)
    before = snapshot()
    tr = tracer.Tracer()
    with tr:
        run_pass(gen_a, traced)
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    problems.extend(f"not restored after tracing: {'.'.join(k)}" for k in changed)
    if not tr.spans:
        problems.append("traced pass recorded no spans")

    names_plain, names_traced = sorted(os.listdir(plain)), sorted(os.listdir(traced))
    if names_plain != names_traced:
        problems.append(f"report sets differ: {names_plain} vs {names_traced}")
    for name in names_plain:
        if not filecmp.cmp(os.path.join(plain, name), os.path.join(traced, name),
                           shallow=False):
            problems.append(f"traced report differs: {name}")

    agg = tr.aggregate()
    for key in EXPECTED_KEYS[workload]:
        if agg.get(key, 0.0) <= 0.0:
            problems.append(f"no time recorded for {key}")
    return problems


def check_metric_lists() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for key, ours in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in spec[key]]
        if theirs != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from run.py: {theirs} vs {ours}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    problems = check_metric_lists()
    for workload in workloads.WORKLOADS:
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
        try:
            found = check_workload(workload, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"{workload}: {'ok' if not found else f'{len(found)} problem(s)'}")
        problems.extend(found)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""varmms benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (pure Python, nothing to compile).  The run

1. generates the workload's scenario files from the seed
   (``bench/workloads.py``),
2. times ``SETUP_PROBES`` fresh interpreters importing ``varmms`` and
   ``varmms.cli`` (``setup_s``), after a discarded warm-up probe,
3. starts one fresh child (``bench/worker.py``) that calls
   ``varmms.cli.main(["verify", <scenario>])`` for each scenario in a closed
   loop, pass after pass, for about ``--seconds`` seconds,
4. checks every report against ``bench/reference/seed0`` (values within
   ``REL_TOL`` at seed 0, verdicts and finiteness at other seeds),
5. prints an environment line, a summary line, and as the last line one
   JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the child alternates untraced and traced passes and the metrics are the
per-layer ones (``bench/tracer.py``).  Scratch files live under
``.bench_work/`` in the checkout; the run deletes its own directory and
keeps a JSON record of the result (and, when traced, the spans) in
``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference", "seed0")
PYCACHE = os.path.join(os.path.dirname(HERE), ".bench_work", "pycache")
SETUP_PROBES = 7
# BLAS / OpenMP threads in every child: one per process keeps the closed
# loop single-core, so runs do not depend on what else uses the second core
BLAS_THREADS = 1
# the solvers' relative optimality contract (varmms.gradients.EPS_OPT)
REL_TOL = 1e-4
ABS_FLOOR = 1e-12
# a run must finish within 180 s; the child gets what is left after set-up
RUN_DEADLINE_S = 170.0
# Every time metric is scaled to this speed-probe time (worker.SpeedProbe):
# time x PROBE_NOMINAL_S / probe median over the same interval.  The
# machine's speed drifts by up to 1.8x over minutes, and the probe, timed
# in the same process, tracks it.  80 us is the probe's typical time on
# the 2-core machine the bounds were set on, so values read about as
# seconds there.
PROBE_NOMINAL_S = 80e-6
# a call with fewer speed-probe samples is scaled by its pass's median
MIN_PROBES = 5

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("scenario_p50_s", "s"),
              ("peak_rss_mb", "MiB")]

PER_LAYER = [
    ("gradients.vector.calls", "count"), ("gradients.vector_s", "s"),
    ("gradients.scipy_minimize.calls", "count"), ("gradients.scipy_minimize.nit", "count"),
    ("gradients.scipy_minimize_s", "s"),
    ("gradients.scalar.calls", "count"), ("gradients.scalar_s", "s"),
    ("gradients.self_s", "s"),
    ("gradients.scipy_linprog.calls", "count"), ("gradients.scipy_linprog_s", "s"),
    ("gradients.rows", "count"),
    ("norms.luxemburg.calls", "count"), ("norms.luxemburg_s", "s"),
    ("norms.mixed.calls", "count"), ("norms.mixed_s", "s"), ("norms.self_s", "s"),
    ("gradients.cutoff_s", "s"), ("verify.inf_centered_norm_s", "s"),
    ("space.uniform_perfectness_s", "s"), ("space.estimate_doubling_s", "s"),
    ("space.self_s", "s"), ("regularity.best_lower_constant_s", "s"),
    ("regularity.self_s", "s"), ("verify.self_s", "s"), ("space.build_s", "s"),
    ("exponents.self_s", "s"), ("generators.self_s", "s"),
    ("cli.self_s", "s"), ("cli.report_bytes", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]

# per-layer names whose raw tracer key differs
_LAYER_SOURCE = {
    "gradients.scipy_minimize.nit": ("gradients.scipy_minimize.extra",),
    "gradients.rows": ("gradients.vector.extra", "gradients.scalar.extra"),
    "cli.report_bytes": ("cli.write_atomic.extra",),
}


# -- correctness ---------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def numeric_leaves(obj, prefix: str = "") -> dict[str, float]:
    """Flatten the int and float leaves of a JSON value (bools excluded)."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(numeric_leaves(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(numeric_leaves(v, f"{prefix}[{i}]"))
    elif _is_number(obj):
        out[prefix] = float(obj)
    return out


def summarize_report(rep: dict) -> dict:
    """The reference fields of one report: verdict, both sides, the
    constant and every numeric extra."""
    return {"scenario": rep["scenario"], "theorem": rep["theorem"],
            "verdict": rep["verdict"], "lhs": rep["lhs"], "rhs": rep["rhs"],
            "constant": rep["constant"], "extras": numeric_leaves(rep["extras"])}


def _close(a: float, b) -> bool:
    if not _is_number(b):
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def _finite_like(ref: float, got) -> bool:
    return _is_number(got) and (math.isfinite(got) or not math.isfinite(ref))


def report_problems(text: str | None, ref: dict, exact: bool) -> list[str]:
    """Compare one report file with its reference entry.  ``exact`` (seed 0)
    checks values within REL_TOL; otherwise verdicts and finiteness."""
    if text is None:
        return ["no report written"]
    try:
        reps = [summarize_report(r) for r in json.loads(text)]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    if len(reps) != len(ref["reports"]):
        return [f"{len(reps)} reports, expected {len(ref['reports'])}"]
    same = _close if exact else _finite_like
    problems = []
    for got, want in zip(reps, ref["reports"]):
        tag = got["scenario"]
        if got["verdict"] != want["verdict"]:
            problems.append(f"{tag}: verdict {got['verdict']} != {want['verdict']}")
        for field in ("lhs", "rhs", "constant"):
            if not same(want[field], got[field]):
                problems.append(f"{tag}: {field} {got[field]!r} vs reference {want[field]!r}")
        for path, value in want["extras"].items():
            if path not in got["extras"]:
                problems.append(f"{tag}: extras.{path} missing")
            elif not same(value, got["extras"][path]):
                problems.append(f"{tag}: extras.{path} {got['extras'][path]!r} "
                                f"vs reference {value!r}")
    return problems


def load_reference(workload: str) -> list[dict]:
    with open(os.path.join(REFERENCE, f"{workload}.expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["scenarios"]


def check_scenarios_match_reference(workload: str, paths: list[str]) -> None:
    """Seed 0 must regenerate the committed scenario files byte for byte."""
    for path in paths:
        committed = os.path.join(REFERENCE, workload, os.path.basename(path))
        with open(path, encoding="utf-8") as a, open(committed, encoding="utf-8") as b:
            if a.read() != b.read():
                raise RuntimeError(f"seed 0 no longer generates {committed}")


# -- child processes -----------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # bytecode lives in one fixed cache under .bench_work/, so set-up does
    # not depend on whether src/varmms/__pycache__ exists (a test run may
    # have left one); a discarded warm-up probe fills the cache
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # a random hash seed per process changes dict and set layouts, which
    # moved a necessity_geometry pass by up to 9% between processes
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_child(root: str, *extra: str) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it with its set-up time (spawn to ready) and
    the speed-probe median over its import."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), root, *extra],
                            stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline().split()
    setup = perf_counter() - t0
    if len(line) != 2 or line[0] != "ready" or line[1] == "None":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup, float(line[1])


def finish_child(proc: subprocess.Popen, timeout: float) -> None:
    try:
        rest = proc.communicate(timeout=timeout)[0]
    except BaseException as exc:  # never leave the worker running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"worker exceeded {timeout:.0f} s") from exc
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {rest.strip()}")


# -- metrics -------------------------------------------------------------------

def scaled_latencies(p: dict) -> list[float]:
    """A pass's verify latencies at the nominal speed-probe time."""
    return [t * PROBE_NOMINAL_S / (probe if n >= MIN_PROBES else p["pass_probe_s"])
            for t, probe, n in zip(p["latencies_s"], p["probe_s"], p["probe_counts"])]


def end_to_end_metrics(result: dict, setups: list[tuple[float, float]]) -> dict[str, float]:
    passes = result["passes"]
    scaled = [scaled_latencies(p) for p in passes]
    # each scenario's median over the passes first: a workload's scenarios
    # differ in cost by up to 40x, so a pooled median falls between two
    # groups of scenarios and swings with any one slow call
    per_scenario = [statistics.median(xs) for xs in zip(*scaled)]
    return {"setup_s": statistics.median(t * PROBE_NOMINAL_S / probe for t, probe in setups),
            "wall_s": statistics.median(sum(xs) for xs in scaled),
            "scenario_p50_s": statistics.median(per_scenario),
            # after the first pass: later passes add allocator retention, and
            # how many passes fit depends on the machine's speed
            "peak_rss_mb": passes[0]["peak_rss_mb"]}


def per_layer_metrics(result: dict) -> dict[str, float]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    values = {}
    for name, _ in PER_LAYER:
        sources = _LAYER_SOURCE.get(name, (name,))
        per_pass = [sum(p["layers"].get(s, 0) for s in sources) for p in traced]
        values[name] = statistics.median(per_pass)
    values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(p["wall_s"] for p in plain))
    return values


def count_failures(result: dict, refs: list[dict], exact: bool) -> tuple[int, int, list[str]]:
    """Checks attempted and failed over every pass, with the reasons."""
    bad_report = [report_problems(text, ref, exact)
                  for text, ref in zip(result["reports"], refs)]
    attempted = failed = 0
    notes = []
    for k, p in enumerate(result["passes"]):
        for s, ref in enumerate(refs):
            n_checks = len(ref["reports"])
            attempted += n_checks
            why = list(bad_report[s])
            if p["exit_codes"][s] != ref["exit_code"]:
                why.append(f"exit code {p['exit_codes'][s]} != {ref['exit_code']}")
            if not p["same_reports_as_first"][s]:
                why.append("report differs from the first pass")
            if why:
                failed += n_checks
                notes.extend(f"pass {k} {ref['file']}: {w}" for w in why)
        notes.extend(f"pass {k}: {e}" for e in p["errors"])
    return attempted, failed, notes


# -- entry point -------------------------------------------------------------

def run(args, root: str, stem: str) -> dict:
    t_start = perf_counter()
    work = os.path.join(root, ".bench_work", stem)
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = workloads.write_workload(args.workload, args.seed,
                                         os.path.join(work, "scenarios"))
        if args.seed == 0:
            check_scenarios_match_reference(args.workload, paths)
        refs = load_reference(args.workload)
        if [r["file"] for r in refs] != [os.path.basename(p) for p in paths]:
            raise RuntimeError("scenario list differs from the reference list")
        setups = []
        for _ in range(1 + SETUP_PROBES):
            proc, setup, probe_s = start_child(root)
            finish_child(proc, 120.0)
            setups.append((setup, probe_s))
        del setups[0]  # the warm-up probe
        spec = {"scenarios": paths, "out": os.path.join(work, "out"),
                "seconds": args.seconds, "trace": args.trace,
                "result": os.path.join(work, "result.json"),
                "spans": os.path.join(results, f"{stem}-spans.jsonl.gz")}
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc, setup, probe_s = start_child(root, spec_path)
        setups.append((setup, probe_s))
        finish_child(proc, RUN_DEADLINE_S - (perf_counter() - t_start))
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, notes = count_failures(result, refs, exact=args.seed == 0)
    if args.trace:
        values = per_layer_metrics(result)
        units = dict(PER_LAYER)
    else:
        values = end_to_end_metrics(result, setups)
        units = dict(END_TO_END)
    env = dict(result["env"], nproc=os.cpu_count(), seed=args.seed, workload=args.workload,
               blas_threads=BLAS_THREADS, seconds=args.seconds, trace=args.trace)
    return {"env": env, "notes": notes, "setups": setups,
            "passes": [{k: p[k] for k in ("traced", "wall_s", "latencies_s", "probe_s",
                                          "probe_counts", "pass_probe_s", "peak_rss_mb")}
                       for p in result["passes"]],
            "line": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                     "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "varmms", "__init__.py")):
        print(f"error: no varmms sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        out = run(args, root, stem)
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = os.path.join(root, ".bench_work", "results", f"{stem}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    line = out["line"]
    for note in out["notes"]:
        print(f"check: {note}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    n_pass = len(out["passes"])
    n_scen = len(out["passes"][0]["latencies_s"])
    print(f"{args.workload} seed {args.seed}: {n_pass} passes x {n_scen} scenarios "
          f"({n_pass * n_scen} verify calls), {line['attempted']} checks, "
          f"failed_frac {line['failed'] / line['attempted']:.4g}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    walls = [p["wall_s"] for p in out["passes"]]
    print(f"  unscaled: set-up median {statistics.median(t for t, _ in out['setups']):.4g} s, "
          f"pass wall median {statistics.median(walls):.4g} s, speed probe median "
          f"{statistics.median(p['pass_probe_s'] for p in out['passes']) * 1e6:.4g} us")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

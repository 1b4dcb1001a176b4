"""Benchmark child process: one fresh interpreter per run (or set-up probe).

    python3 bench/worker.py ROOT              # set-up probe: import and exit
    python3 bench/worker.py ROOT SPEC.json    # run the passes SPEC describes

The worker imports ``varmms`` and ``varmms.cli`` from ``ROOT/src``, prints
``ready`` (the parent times set-up up to that line), then calls
``varmms.cli.main(["--jobs", "1", "--out", DIR, "verify", FILE])`` once per
scenario file in a closed loop: one client, the next scenario starts when
the previous verdict is back.  Passes over the whole workload repeat until
the next one would overrun the run's time budget (at least one pass; with
tracing, at least one untraced and one traced pass, alternating).
Results go to ``SPEC["result"]`` as JSON.

A speed probe runs throughout, from before the import to the end: every
``PROBE_INTERVAL_S`` a SIGALRM handler times a fixed pure-Python loop.
The loop is benchmark code that no change to varmms touches, so its time
moves only with the speed the machine gives this process.  The ready line
carries the probe's median over the import; every verify call records the
median over its own duration.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from time import perf_counter


PROBE_INTERVAL_S = 0.01
PROBE_LOOPS = 1000


class SpeedProbe:
    """Times ``PROBE_LOOPS`` iterations of a fixed loop on every SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        self.samples.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        # restart system calls the tick interrupts, as without a handler
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> list[float]:
        """The samples since the last call."""
        out, self.samples = self.samples, []
        return out


def _median(samples: list[float]) -> float | None:
    return statistics.median(samples) if samples else None


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import varmms
    import varmms.cli
    where = os.path.realpath(os.path.dirname(varmms.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise ImportError(f"varmms imported from {where}, not from {src}")
    return varmms


def _run_pass(cli, paths: list[str], out_dir: str, probe: SpeedProbe):
    latencies, probes, codes, errors = [], [], [], []
    probe.take()
    start = perf_counter()
    for path in paths:
        t0 = perf_counter()
        try:
            code = cli.main(["--jobs", "1", "--out", out_dir, "verify", path])
        except Exception:  # a crashing check is a failed check, not a dead run
            code = None
            errors.append(traceback.format_exc(limit=3))
        latencies.append(perf_counter() - t0)
        probes.append(probe.take())
        codes.append(code)
    wall = perf_counter() - start
    return wall, latencies, probes, codes, errors


def _report_stems(paths: list[str]) -> list[str]:
    stems = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            stems.append(json.load(fh).get("name", "report"))
    return stems


def _read_reports(stems: list[str], out_dir: str) -> list[str | None]:
    texts = []
    for stem in stems:
        try:
            with open(os.path.join(out_dir, f"{stem}.json"), encoding="utf-8") as fh:
                texts.append(fh.read())
        except OSError:
            texts.append(None)
    return texts


def run(spec: dict, varmms, probe: SpeedProbe) -> dict:
    cli = varmms.cli
    paths, out_dir = spec["scenarios"], spec["out"]
    stems = _report_stems(paths)
    budget = float(spec["seconds"])
    traced = bool(spec["trace"])
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod
    passes = []
    first_reports = None
    start = perf_counter()
    while True:
        use_trace = traced and len(passes) % 2 == 1
        tr = tracer_mod.Tracer() if use_trace else None
        with tr if tr is not None else contextlib.nullcontext():
            wall, lat, probes, codes, errors = _run_pass(cli, paths, out_dir, probe)
        reports = _read_reports(stems, out_dir)
        if first_reports is None:
            first_reports = reports
        record = {"traced": use_trace, "wall_s": wall, "latencies_s": lat,
                  "probe_s": [_median(xs) for xs in probes],
                  "probe_counts": [len(xs) for xs in probes],
                  "pass_probe_s": _median([x for xs in probes for x in xs]),
                  "exit_codes": codes, "errors": errors,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "same_reports_as_first": [a == b for a, b in zip(reports, first_reports)]}
        if tr is not None:
            record["layers"] = tr.aggregate()
            tr.dump(spec["spans"], str(len(passes)))
        passes.append(record)
        elapsed = perf_counter() - start
        need_more = traced and not any(p["traced"] for p in passes)
        if not need_more and elapsed + wall > budget:
            break
    import numpy
    import scipy
    return {
        "passes": passes,
        "reports": first_reports,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }


def main(argv: list[str]) -> int:
    root = argv[0]
    probe = SpeedProbe()
    probe.start()
    try:
        varmms = _import_package(root)
        print(f"ready {_median(probe.take())}", flush=True)
        if len(argv) == 1:
            return 0
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        result = run(spec, varmms, probe)
    finally:
        probe.stop()
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

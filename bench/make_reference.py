"""Regenerate the seed-0 reference set under ``bench/reference/seed0``.

    python3 bench/make_reference.py

Writes the seed-0 scenario files of every workload, runs each once through
``varmms verify`` from this checkout's ``src/``, and records its exit code
and, per report, the verdict, ``lhs``, ``rhs``, ``constant`` and every
numeric extra in ``<workload>.expected.json``.  Run it only on the commit
whose outputs are the reference; the benchmark compares later commits
against these files.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

for _var, _val in bench.child_env().items():
    os.environ[_var] = _val
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from varmms import cli  # noqa: E402


def main() -> int:
    out = os.path.join(ROOT, ".bench_work", "reference-out")
    for workload in workloads.WORKLOADS:
        scen_dir = os.path.join(bench.REFERENCE, workload)
        shutil.rmtree(scen_dir, ignore_errors=True)
        entries = []
        for path in workloads.write_workload(workload, 0, scen_dir):
            code = cli.main(["--jobs", "1", "--out", out, "verify", path])
            with open(path, encoding="utf-8") as fh:
                stem = json.load(fh)["name"]
            with open(os.path.join(out, f"{stem}.json"), encoding="utf-8") as fh:
                reports = json.load(fh)
            entries.append({"file": os.path.basename(path), "exit_code": code,
                            "reports": [bench.summarize_report(r) for r in reports]})
        with open(os.path.join(bench.REFERENCE, f"{workload}.expected.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": 0, "scenarios": entries}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: space generators, norm/gradient evaluation,
batch verification, necessity experiments.

Outputs are deterministic: canonical JSON (sorted keys, shortest
round-trip float formatting) written atomically.  Batch exit code is 0 iff
every applicable check passes, 2 when an applicable check fails, 1 on bad
input; a malformed scenario gets a one-line error and its siblings still
write their reports.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from .exponents import _index, field_from_spec
from .generators import generate_function, generate_space
from .gradients import minimal_scalar_gradient, minimal_vector_gradient
from .norms import luxemburg, mixed_norm_lp_lq, mixed_norm_lq_lp, SequenceSample
from .space import MetricMeasureSpace
from .verify import (check_global, check_morrey_local, check_moser_trudinger_local,
                     check_sobolev_local, counterexample_run, local_embedding_check,
                     necessity_run)


# what a malformed or unreadable scenario raises: every command prints one
# error line for it and exits 1 (``verify`` still runs the sibling scenarios)
_INPUT_ERRORS = (OSError, LookupError, TypeError, ValueError, AttributeError)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=True)


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_space(spec, base_dir: str = ".") -> MetricMeasureSpace:
    if "file" in spec:
        with open(os.path.join(base_dir, spec["file"]), encoding="utf-8") as fh:
            return MetricMeasureSpace.from_json(fh.read())
    return generate_space(spec["kind"], spec.get("params", {}))


def _exponents(space, spec: dict) -> dict:
    return {name: field_from_spec(entry, space.n, name=name, coords=space.coords)
            for name, entry in spec.items()}


def cmd_space_gen(args) -> int:
    try:
        space = generate_space(args.kind, json.loads(args.params))
    except _INPUT_ERRORS as exc:
        print(f"error: space-gen {args.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    write_atomic(args.out, canonical_json(space.to_json()) + "\n")
    print(f"wrote {args.out} (n={space.n})")
    return 0


# local check ops: the check, its constant keys in the scenario, and whether
# it takes a gradient mode and q
_LOCAL_OPS = {
    "sobolev_local": (check_sobolev_local, ("C",), True),
    "moser_local": (check_moser_trudinger_local, ("C1", "C2"), True),
    "morrey_local": (check_morrey_local, ("C_H",), True),
    "local_embedding": (local_embedding_check, ("C_S",), False),
}


# the keys each check op reads without a default: of the check, of its
# ball, and of the scenario's exponents
_REQUIRED = {
    "counterexample": (("n_dim", "beta", "p", "theta"), (), ()),
    **{op: (("ball",), ("center", "radius"), ("s", "p", "Q")) for op in _LOCAL_OPS},
    "global": ((), (), ("s", "p", "Q")),
    "necessity": (("mode",), (), ("s", "p")),
}


def _validate_checks(checks, exponents) -> None:
    """Raise on the first check with an unknown op, a missing key or a
    non-integral index, so a malformed scenario fails before any of its
    checks runs."""
    for i, check in enumerate(checks):
        op = check["op"]
        if op not in _REQUIRED:
            raise ValueError(f"check {i}: unknown check op {op!r}")
        keys, ball, fields = _REQUIRED[op]
        missing = [k for k in keys if k not in check]
        missing += [f"ball.{k}" for k in ball if "ball" in check and k not in check["ball"]]
        missing += [f"exponents.{k}" for k in fields if k not in exponents]
        if missing:
            raise ValueError(f"check {i} ({op}): missing {', '.join(missing)}")
        indices = {"n_dim": check.get("n_dim"), "j_max": check.get("j_max"),
                   "ball.center": check.get("ball", {}).get("center")}
        for key, value in indices.items():
            if value is not None:
                _index(value, f"check {i} ({op}): {key}")


def _scenario_reports(scenario: dict, base_dir: str, tol: float, sigma: float,
                      epsilon: float | None):
    _validate_checks(scenario["checks"], scenario.get("exponents", {}))
    space = _load_space(scenario["space"], base_dir)
    fields = _exponents(space, scenario.get("exponents", {}))
    name = scenario.get("name", "scenario")
    reports = []
    for check in scenario["checks"]:
        op = check["op"]
        label = check.get("name", f"{name}:{op}")
        if op == "counterexample":
            rep = counterexample_run(int(check["n_dim"]), float(check["beta"]),
                                     float(check["p"]), float(check["theta"]),
                                     refinements=tuple(check.get("refinements", (31, 61, 121))),
                                     scenario=label, tol=tol)
            reports.append(rep)
            continue
        common = dict(scenario=label, tol=tol)
        if op != "necessity":  # necessity builds its own test functions
            u = generate_function(space, check.get("function", scenario.get("function", {})))
        if op in _LOCAL_OPS:
            fn, keys, modal = _LOCAL_OPS[op]
            kw = {k: check.get(k) for k in keys}
            if modal:
                kw.update(mode=check.get("mode", "M"), q=fields.get("q"))
            b = check["ball"]
            rep = fn(space, center=int(b["center"]), radius=float(b["radius"]),
                     sigma=float(check.get("sigma", sigma)), u=u, s=fields["s"],
                     p=fields["p"], Q=fields["Q"], **kw, **common)
        elif op == "global":
            rep = check_global(space, u=u, s=fields["s"], p=fields["p"], Q=fields["Q"],
                               q=fields.get("q"), theorem=check.get("theorem", "bounded"),
                               mode=check.get("mode", "M"), C=check.get("C"),
                               delta=float(check.get("delta", 1.0)), **common)
        else:  # necessity
            target = fields.get("gamma") if check["mode"] != "holder" else fields.get("alpha")
            rep = necessity_run(space, s=fields["s"], p=fields["p"],
                                q=fields.get("q", np.inf * np.ones(space.n)),
                                gamma_or_alpha=target, mode=check["mode"],
                                family=check.get("family", "M"),
                                sigma=float(check.get("sigma", sigma)),
                                epsilon=epsilon, omega=check.get("omega"),
                                j_max=int(check.get("j_max", 4)), **common)
        reports.append(rep)
    return reports


def _emit_reports(reports, out_dir: str, fmt: str, stem: str, settings: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    payload = [dict(r.to_json(), settings=settings) for r in reports]
    if fmt in ("json", "both"):
        write_atomic(os.path.join(out_dir, f"{stem}.json"), canonical_json(payload) + "\n")
    if fmt in ("csv", "both"):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "theorem", "hypotheses_ok", "lhs", "rhs",
                         "constant", "pass"])
        for r in reports:
            writer.writerow(r.csv_row())
        write_atomic(os.path.join(out_dir, f"{stem}.csv"), buf.getvalue())


def _scenario_worker(task):
    """Reports of one scenario, or a one-line error when it is malformed."""
    path, scenario, base_dir, tol, sigma, epsilon = task
    try:
        return _scenario_reports(scenario, base_dir, tol, sigma, epsilon), None
    except _INPUT_ERRORS as exc:
        return None, f"error: malformed scenario {path}: {type(exc).__name__}: {exc}"


def _run_verify_like(args) -> int:
    tasks, errors = [], []
    for path in args.scenario:
        try:
            with open(path, encoding="utf-8") as fh:
                scenario = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"error: cannot read scenario {path}: {exc}")
            continue
        tasks.append((path, scenario, os.path.dirname(os.path.abspath(path)),
                      args.tol, args.sigma, args.epsilon))
    # jobs is deliberately not embedded: parallel and sequential runs of the
    # same scenarios must produce byte-identical reports
    settings = {"tol": args.tol, "sigma": args.sigma, "epsilon": args.epsilon}
    if args.jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_scenario_worker, tasks))
    else:
        results = [_scenario_worker(t) for t in tasks]
    failed = False
    for (_, scenario, *_), (reports, error) in zip(tasks, results):
        if error:
            errors.append(error)
            continue
        _emit_reports(reports, args.out, args.format, scenario.get("name", "report"), settings)
        for r in reports:
            print(f"[{r.verdict}] {r.scenario} :: {r.theorem}")
        failed |= any(r.passed is False for r in reports)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 2 if failed else 0


def cmd_norm(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = json.load(fh)
        base_dir = os.path.dirname(os.path.abspath(args.scenario))
        space = _load_space(scenario["space"], base_dir)
        fields = _exponents(space, scenario.get("exponents", {}))
        result: dict = {"name": scenario.get("name", "norm")}
        if "sequence" in scenario:
            seq = SequenceSample(int(scenario["sequence"]["k_min"]),
                                 np.asarray(scenario["sequence"]["values"], dtype=float))
            scale = scenario.get("scale", "lq_lp")
            fn = mixed_norm_lq_lp if scale == "lq_lp" else mixed_norm_lp_lq
            nv = fn(seq, fields["p"], fields["q"], space.weight, args.tol)
        else:
            u = generate_function(space, scenario["function"])
            nv = luxemburg(u, fields["p"], space.weight, args.tol)
        result.update(nv.to_json())
    except _INPUT_ERRORS as exc:
        print(f"error: {args.scenario}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, f"{result['name']}.json"),
                 canonical_json(result) + "\n")
    print(f"norm = {result['value']!r}")
    return 0


def cmd_gradient(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = json.load(fh)
        base_dir = os.path.dirname(os.path.abspath(args.scenario))
        space = _load_space(scenario["space"], base_dir)
        fields = _exponents(space, scenario.get("exponents", {}))
        u = generate_function(space, scenario["function"])
        scale = scenario.get("scale")
        if scale:
            sol = minimal_vector_gradient(space, u, fields["s"], fields["p"],
                                          fields["q"], scale=scale, tol=args.tol)
        else:
            sol = minimal_scalar_gradient(space, u, fields["s"], fields["p"], tol=args.tol)
        payload = sol.to_json()
        payload["name"] = scenario.get("name", "gradient")
    except _INPUT_ERRORS as exc:
        print(f"error: {args.scenario}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, f"{payload['name']}.json"),
                 canonical_json(payload) + "\n")
    print(f"objective = {payload['objective']!r} (certificate {payload['certificate']!r})")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of a process."""
    parser = argparse.ArgumentParser(prog="varmms",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="solver/bisection tolerance (default 1e-6)")
    parser.add_argument("--sigma", type=float, default=2.0,
                        help="default ball inflation factor (default 2)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="uniform-perfectness resolution scale")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="scenario-level parallelism over multiple scenario files")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("space-gen", help="generate a validated space file")
    g.add_argument("kind")
    g.add_argument("params", help="JSON dict of generator parameters")
    g.set_defaults(out_default="space.json")

    v = sub.add_parser("verify", aliases=["necessity"],
                       help="run verification or necessity checks from scenario files")
    v.add_argument("scenario", nargs="+")

    n = sub.add_parser("norm", help="evaluate a Lebesgue or mixed norm")
    n.add_argument("scenario")
    d = sub.add_parser("gradient", help="solve a minimal-gradient problem")
    d.add_argument("scenario")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "space-gen":
        if args.out == "out":
            args.out = "space.json"
        return cmd_space_gen(args)
    if args.command in ("verify", "necessity"):
        return _run_verify_like(args)
    if args.command == "norm":
        return cmd_norm(args)
    if args.command == "gradient":
        return cmd_gradient(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())

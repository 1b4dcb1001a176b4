"""Seeded scenario generator for the three benchmark workloads.

Seed 0 is the committed reference set (``bench/reference/seed0``).  Any
other seed moves ball and bump centres among interior points and moves
exponent values inside their admissible ranges (s < 1, gamma > p,
s p < Q); it never changes a space, a radius or the number of checks, so
every seed does the same amount of structural work.
``write_workload(workload, seed, dir)`` writes one scenario file per check
in the order the benchmark runs them.
"""
from __future__ import annotations

import json
import os
import random

WORKLOADS = ("local_gradients", "global_scalar", "necessity_geometry")


class _Draw:
    """Seed 0 returns the nominal value; other seeds draw from a range."""

    def __init__(self, seed: int):
        self.nominal = seed == 0
        self.rng = random.Random(seed)

    def value(self, nominal: float, lo: float, hi: float) -> float:
        if self.nominal:
            return nominal
        return round(lo + (hi - lo) * self.rng.random(), 4)

    def index(self, nominal: int, choices: list[int]) -> int:
        if self.nominal:
            return nominal
        return choices[int(self.rng.random() * len(choices))]


def _grid2d_index(nx: int, i: int, j: int) -> int:
    # generators.grid2d lists x-major: point (i, j) sits at i * nx + j
    return i * nx + j


def _interior(nx: int, lo: int, hi: int) -> list[int]:
    return [_grid2d_index(nx, i, j) for i in range(lo, hi + 1) for j in range(lo, hi + 1)]


def _const(v: float) -> dict:
    return {"constant": v}


def _scenario(name: str, space: dict, exponents: dict, function: dict, check: dict) -> dict:
    return {"name": name, "space": space, "exponents": exponents,
            "function": function, "checks": [check]}


def local_gradients(seed: int) -> list[dict]:
    """Six sobolev_local checks on grid2d(12): small dense solves repeated
    inside bisections (TL joint trust-constr, Besov SLSQP, scalar SLSQP)."""
    nx = 12
    draw = _Draw(seed)
    # every inflated ball (radius 2 * 0.15) lies inside the unit square for
    # these centres, so each seed sees the same ball sizes
    centre = draw.index(66, _interior(nx, 4, 7))
    s = draw.value(0.5, 0.48, 0.52)
    p = draw.value(1.5, 1.45, 1.55)
    q = draw.value(2.0, 1.9, 2.1)
    p0 = draw.value(1.4, 1.38, 1.42)
    q0 = draw.value(1.2, 1.18, 1.22)
    xs = [(i + 0.5) / nx for i in range(nx) for _ in range(nx)]
    space = {"kind": "grid2d", "params": {"nx": nx}}
    function = {"family": "log_bump", "center": centre, "scale": 0.3}
    constant = {"s": _const(s), "p": _const(p), "Q": _const(2.0), "q": _const(q)}
    variable = {"s": _const(s), "Q": _const(2.0),
                "p": {"values": [round(p0 + 0.2 * x, 12) for x in xs]},
                "q": {"values": [round(q0 + 0.2 * x, 12) for x in xs]}}
    out = []
    for label, exps, mode, radius in [("const_M", constant, "M", 0.15),
                                      ("const_TL", constant, "TL", 0.1),
                                      ("const_Besov", constant, "Besov", 0.15),
                                      ("var_M", variable, "M", 0.1),
                                      ("var_Besov", variable, "Besov", 0.1),
                                      ("var_TL", variable, "TL", 0.1)]:
        check = {"op": "sobolev_local", "mode": mode,
                 "ball": {"center": centre, "radius": radius}}
        out.append(_scenario(f"lg_{label}", space, exps, function, check))
    return out


def global_scalar(seed: int) -> list[dict]:
    """Few large scalar solves over O(n^2) pair rows: HiGHS LP (p = 1,
    n = 400), dual ascent (p = 2, n = 100 > 80) and the SLSQP-backed
    counterexample refinement study."""
    draw = _Draw(seed)
    # the four central points of an even grid are mirror images of each
    # other, so moving the bump among them keeps the problem's structure
    c20 = draw.index(_grid2d_index(20, 10, 10), _interior(20, 9, 10))
    c10 = draw.index(_grid2d_index(10, 5, 5), _interior(10, 4, 5))
    s_lp = draw.value(0.5, 0.45, 0.55)
    s_da = draw.value(0.5, 0.48, 0.52)
    p_da = draw.value(2.0, 1.97, 2.03)
    beta = draw.value(0.5, 0.45, 0.55)
    p_ce = draw.value(2.0, 1.95, 2.05)
    theta = draw.value(0.6, 0.58, 0.62)
    return [
        _scenario("gs_lp_grid20",
                  {"kind": "grid2d", "params": {"nx": 20}},
                  {"s": _const(s_lp), "p": _const(1.0), "Q": _const(2.0)},
                  {"family": "log_bump", "center": c20, "scale": 0.3},
                  {"op": "global", "theorem": "bounded", "mode": "M"}),
        _scenario("gs_dual_grid10",
                  {"kind": "grid2d", "params": {"nx": 10}},
                  {"s": _const(s_da), "p": _const(p_da), "Q": _const(2.0)},
                  {"family": "log_bump", "center": c10, "scale": 0.3},
                  {"op": "global", "theorem": "bounded", "mode": "M"}),
        # the counterexample builds its own spaces; the CLI still loads the
        # scenario's space, so a two-point line stands in
        _scenario("gs_counterexample",
                  {"kind": "line", "params": {"n": 2}},
                  {},
                  {"family": "constant", "value": 0.0},
                  {"op": "counterexample", "n_dim": 1, "beta": beta, "p": p_ce,
                   "theta": theta, "refinements": [31, 61]}),
    ]


def necessity_geometry(seed: int) -> list[dict]:
    """Necessity (global and local Sobolev) and doubling checks on four
    geometries: Luxemburg bisections, perfectness and doubling scans, no
    heavy gradient solves."""
    draw = _Draw(seed)
    spaces = [("grid8", {"kind": "grid2d", "params": {"nx": 8}}, 64,
               _interior(8, 2, 5)),
              ("cantor4", {"kind": "cantor", "params": {"level": 4}}, 16,
               list(range(4, 12))),
              ("glued", {"kind": "two_zone_glued", "params": {"n_line": 8, "n_grid": 4}}, 24,
               list(range(2, 22))),
              ("line64", {"kind": "grid1d", "params": {"n": 64}}, 64,
               list(range(16, 48)))]
    out = []
    for label, space, n, interior in spaces:
        s = draw.value(0.5, 0.4, 0.6)
        p = draw.value(1.5, 1.3, 1.7)
        gamma = round(p + draw.value(1.5, 1.2, 1.8), 4)
        Q = draw.value(2.0, 1.8, 2.2)
        centre = draw.index(n // 2, interior)
        nec = {"s": _const(s), "p": _const(p), "gamma": _const(gamma)}
        # necessity never reads u, but the CLI evaluates the function
        # spec for every non-counterexample check
        dummy = {"family": "constant", "value": 0.0}
        out.append(_scenario(f"ng_{label}_nec_global", space, nec, dummy,
                             {"op": "necessity", "mode": "sobolev_global"}))
        out.append(_scenario(f"ng_{label}_nec_local", space, nec, dummy,
                             {"op": "necessity", "mode": "sobolev_local"}))
        out.append(_scenario(f"ng_{label}_doubling", space,
                             {"s": _const(1.0), "p": _const(1.0), "Q": _const(Q)},
                             {"family": "log_bump", "center": centre, "scale": 0.3},
                             {"op": "global", "theorem": "doubling_sob", "mode": "M"}))
    return out


GENERATORS = {"local_gradients": local_gradients, "global_scalar": global_scalar,
              "necessity_geometry": necessity_geometry}


def scenario_text(scenario: dict) -> str:
    return json.dumps(scenario, sort_keys=True, indent=1) + "\n"


def write_workload(workload: str, seed: int, out_dir: str) -> list[str]:
    """Write one file per scenario and return the paths in run order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, scenario in enumerate(GENERATORS[workload](seed)):
        path = os.path.join(out_dir, f"{k:02d}_{scenario['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(scenario))
        paths.append(path)
    return paths


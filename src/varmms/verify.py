"""Embedding-inequality verification harness.

Every check produces a VerificationReport: named hypothesis diagnostics,
the two sides of the inequality, the constant used (with its provenance),
and a verdict.  Hypothesis failures yield a not-applicable verdict, never
an exception, because the necessity experiments deliberately break
hypotheses.  Constants for which no closed form exists are measured
empirically (the ratio of the two sides) and recorded for refinement-
stability comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as K
from .exponents import (exponent_values, holder_exponent, log_holder_constant,
                        sobolev_conjugate, strictly_dominates)
from .generators import annular_cutoff, ball_grid_with_atom, power_function
from .gradients import lipschitz_cutoff_gradient, minimal_scalar_gradient, minimal_vector_gradient
from .norms import check_slack, holder_seminorm, luxemburg
from .regularity import best_lower_constant
from .space import ball, uniform_perfectness

__all__ = [
    "Hypothesis",
    "VerificationReport",
    "DEFAULT_MT_C1",
    "DEFAULT_MT_C2",
    "check_sobolev_local",
    "check_moser_trudinger_local",
    "check_morrey_local",
    "local_embedding_check",
    "check_global",
    "counterexample_run",
    "necessity_run",
]

# Exponential-integrability default constants, calibrated once on the
# reference scenario (16x16 unit grid, Q=2, s=1, p=2, logarithmic bump,
# ball radius 1/4 at the center, sigma=2): the average hits 2 at C1=2.69,
# so the default keeps a margin below that.
DEFAULT_MT_C1 = 2.0
DEFAULT_MT_C2 = 2.0


@dataclass(frozen=True)
class Hypothesis:
    name: str
    holds: bool
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "holds", bool(self.holds))

    def to_json(self):
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    scenario: str
    hypotheses: list
    lhs: float
    rhs: float
    constant: float
    constant_provenance: str
    margin: float
    passed: bool | None
    extras: dict = field(default_factory=dict)

    @property
    def applicable(self) -> bool:
        return all(h.holds for h in self.hypotheses)

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "not_applicable"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "scenario": self.scenario,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "constant_provenance": self.constant_provenance,
            "margin": self.margin,
            "verdict": self.verdict,
            "extras": _jsonable(self.extras),
        }

    def csv_row(self) -> list:
        return [self.scenario, self.theorem, self.applicable, self.lhs,
                self.rhs, self.constant, self.verdict]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _na_report(theorem, scenario, hypotheses, extras=None) -> VerificationReport:
    return VerificationReport(theorem=theorem, scenario=scenario,
                              hypotheses=hypotheses, lhs=np.nan, rhs=np.nan,
                              constant=np.nan, constant_provenance="n/a",
                              margin=np.nan, passed=None, extras=extras or {})


def _weighted_mean(u, w) -> float:
    return float(np.sum(u * w) / np.sum(w))


def _golden_min(f, lo: float, hi: float, iters: int = 120):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a <= 1e-12 * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    xs = [(f1, x1), (f2, x2)]
    fv, xv = min(xs)
    return xv, fv


def inf_centered_norm(u, p, w) -> tuple[float, float, bool]:
    """inf over shifts c of the Lebesgue norm of u - c.

    Golden-section over [min u, max u] (the map is convex for min p >= 1);
    below that a 64-point grid plus local refinement, flagged heuristic.
    """
    u = np.asarray(u, dtype=float)
    pv = exponent_values(p, u.size)
    lo, hi = float(u.min()), float(u.max())
    if lo == hi:
        return 0.0, lo, False

    def f(c):
        return luxemburg(u - c, pv, w).value

    if pv.min() >= 1.0:
        c_star, val = _golden_min(f, lo, hi)
        return val, c_star, False
    grid = np.linspace(lo, hi, 64)
    vals = [f(c) for c in grid]
    j = int(np.argmin(vals))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, 63)]
    c_star, val = _golden_min(f, a, b)
    return val, c_star, True


def _grad_norm(space, u, s, p, q, mode: str, subset, tol=1e-6):
    if mode == "M":
        sol = minimal_scalar_gradient(space, u, s, p, tol=tol, subset=subset)
    elif mode == "TL":
        if q is None:
            raise ValueError("TL mode needs q")
        sol = minimal_vector_gradient(space, u, s, p, q, scale="lp_lq", tol=tol, subset=subset)
    elif mode == "Besov":
        if q is None:
            raise ValueError("Besov mode needs q")
        sol = minimal_vector_gradient(space, u, s, p, q, scale="lq_lp", tol=tol, subset=subset)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'M', 'TL', or 'Besov'")
    return sol


def _lower_regularity(space, Qv, delta: float) -> float:
    """Best lower-regularity constant b of the measure on radii (0, delta]."""
    if space.n >= 2 and delta > 0:
        return best_lower_constant(space, Qv, r_max=delta).b_lower
    return float(space.weight[0]) if delta > 0 else 0.0


def _log_hypotheses(space, subset, fields: dict) -> list[Hypothesis]:
    out = []
    for name, vals in fields.items():
        c_inv = log_holder_constant(1.0 / np.asarray(vals, dtype=float), space, subset)
        out.append(Hypothesis(f"log_regular_{name}", bool(np.isfinite(c_inv)),
                              f"C_log(1/{name}) = {c_inv:.6g}"))
    return out


def check_sobolev_local(space, center: int, radius: float, sigma: float, u, s, p, Q,
                        mode: str = "M", q=None, C: float | None = None,
                        delta: float | None = None, scenario: str = "",
                        tol: float = 1e-6) -> VerificationReport:
    """Local Poincare-type inequality on a ball in the subcritical regime.

    LHS: inf over c of the conjugate-exponent norm of u - c on B0.
    RHS: C * (mu(B0)/r0**Q(x0))**(1/gamma^-_B0) * minimal gradient norm on
    the inflated ball.  With no supplied C the empirical ratio is recorded.
    """
    theorem = f"sobolev_local[{mode}]"
    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    Qv = exponent_values(Q, space.n)
    B0 = ball(space, center, radius)
    sig = ball(space, center, sigma * radius)
    delta = sigma * radius if delta is None else delta
    hyp = [
        Hypothesis("sigma_gt_1", sigma > 1, f"sigma = {sigma}"),
        Hypothesis("ball_nonempty", B0.members.size > 0, f"|B0| = {B0.members.size}"),
        Hypothesis("r0_le_delta_over_sigma", radius <= delta / sigma + 1e-12,
                   f"r0 = {radius}, delta/sigma = {delta / sigma}"),
    ]
    if sig.members.size:
        gap = np.min((Qv - sv * pv)[sig.members])
        hyp.append(Hypothesis("sp_below_Q", gap > 0, f"min(Q - s p) = {gap:.6g} on sigma B0"))
        hyp.extend(_log_hypotheses(space, sig.members, {"Q": Qv, "p": pv, "s": sv}))
    else:
        hyp.append(Hypothesis("sp_below_Q", False, "empty inflated ball"))
    b = _lower_regularity(space, Qv, delta)
    hyp.append(Hypothesis("lower_regularity", b > 0, f"b = {b:.6g} on (0, {delta}]"))
    extras = {"b": b, "delta": delta, "mode": mode}
    if not all(h.holds for h in hyp):
        return _na_report(theorem, scenario, hyp, extras)

    gamma = sobolev_conjugate(Qv[sig.members], sv[sig.members], pv[sig.members]).values
    gamma_full = np.full(space.n, np.nan)
    gamma_full[sig.members] = gamma
    in_b0 = np.isin(sig.members, B0.members)
    gamma_b0 = gamma[in_b0]
    uv = np.asarray(u, dtype=float)
    w_b0 = space.weight[B0.members]
    lhs, c_star, heur = inf_centered_norm(uv[B0.members], gamma_b0, w_b0)
    sol = _grad_norm(space, uv, sv, pv, q, mode, sig.members, tol)
    grad = sol.objective.value
    core = (B0.measure / radius ** Qv[center]) ** (1.0 / float(gamma_b0.min())) * grad
    extras.update({
        "gamma_minus_B0": float(gamma_b0.min()),
        "grad_norm": grad,
        "core": core,
        "center_shift": c_star,
        "heuristic_inf": heur,
        "heuristic_gradient": sol.heuristic,
    })
    c_emp = (lhs / core) if core > 0 else (0.0 if lhs == 0 else np.inf)
    extras["empirical_constant"] = c_emp
    if C is None:
        rhs = c_emp * core if np.isfinite(c_emp) else np.inf
        return VerificationReport(theorem, scenario, hyp, lhs, rhs, c_emp,
                                  "empirical", rhs - lhs, bool(np.isfinite(c_emp)),
                                  extras)
    rhs = C * core
    return VerificationReport(theorem, scenario, hyp, lhs, rhs, C, "supplied",
                              rhs - lhs, bool(lhs <= rhs + check_slack(rhs)), extras)


def check_moser_trudinger_local(space, center: int, radius: float, sigma: float,
                                u, s, p, Q, mode: str = "M", q=None,
                                C1: float | None = None, C2: float | None = None,
                                delta: float | None = None, scenario: str = "",
                                tol: float = 1e-6) -> VerificationReport:
    """Exponential integrability on a ball in the critical regime Q = s p."""
    theorem = f"moser_trudinger_local[{mode}]"
    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    Qv = exponent_values(Q, space.n)
    B0 = ball(space, center, radius)
    sig = ball(space, center, sigma * radius)
    delta = sigma * radius if delta is None else delta
    hyp = [
        Hypothesis("sigma_gt_1", sigma > 1, f"sigma = {sigma}"),
        Hypothesis("ball_nonempty", B0.members.size > 0, f"|B0| = {B0.members.size}"),
        Hypothesis("r0_le_delta_over_sigma", radius <= delta / sigma + 1e-12, ""),
    ]
    if sig.members.size:
        dev = np.max(np.abs((sv * pv - Qv)[sig.members]))
        hyp.append(Hypothesis("sp_equals_Q", dev <= 1e-9, f"max |s p - Q| = {dev:.3g}"))
        hyp.extend(_log_hypotheses(space, sig.members, {"Q": Qv, "p": pv, "s": sv}))
    else:
        hyp.append(Hypothesis("sp_equals_Q", False, "empty inflated ball"))
    b = _lower_regularity(space, Qv, delta)
    hyp.append(Hypothesis("lower_regularity", b > 0, f"b = {b:.6g}"))
    extras = {"b": b, "delta": delta, "mode": mode}
    if not all(h.holds for h in hyp):
        return _na_report(theorem, scenario, hyp, extras)

    C1 = DEFAULT_MT_C1 if C1 is None else C1
    C2 = DEFAULT_MT_C2 if C2 is None else C2
    uv = np.asarray(u, dtype=float)
    w_b0 = space.weight[B0.members]
    u_bar = _weighted_mean(uv[B0.members], w_b0)
    sol = _grad_norm(space, uv, sv, pv, q, mode, sig.members, tol)
    grad = sol.objective.value
    if grad == 0.0:
        osc = float(np.ptp(uv[B0.members]))
        avg = 1.0 if osc == 0 else np.inf
        extras["zero_gradient_nonconstant"] = osc > 0
    else:
        avg = _weighted_mean(np.exp(C1 * np.abs(uv[B0.members] - u_bar) / grad), w_b0)
    extras.update({"grad_norm": grad, "average": avg, "C1": C1,
                   "heuristic_gradient": sol.heuristic})
    return VerificationReport(theorem, scenario, hyp, avg, C2, C1,
                              "supplied" if C1 != DEFAULT_MT_C1 else "calibrated-default",
                              C2 - avg, bool(avg <= C2 + check_slack(C2)), extras)


def check_morrey_local(space, center: int, radius: float, sigma: float, u, s, p, Q,
                       mode: str = "M", q=None, C_H: float | None = None,
                       delta: float | None = None, scenario: str = "",
                       tol: float = 1e-6) -> VerificationReport:
    """Supercritical regime: sup-norm bound and the pointwise regularity
    bound with the derived quotient constant."""
    theorem = f"morrey_local[{mode}]"
    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    Qv = exponent_values(Q, space.n)
    B0 = ball(space, center, radius)
    sig = ball(space, center, sigma * radius)
    delta = sigma * radius if delta is None else delta
    hyp = [
        Hypothesis("sigma_gt_1", sigma > 1, f"sigma = {sigma}"),
        Hypothesis("ball_nonempty", B0.members.size > 0, f"|B0| = {B0.members.size}"),
        Hypothesis("r0_le_delta_over_sigma", radius <= delta / sigma + 1e-12, ""),
    ]
    if sig.members.size:
        gap = np.min((sv * pv - Qv)[sig.members])
        hyp.append(Hypothesis("sp_above_Q", gap > 0, f"min(s p - Q) = {gap:.6g}"))
        hyp.extend(_log_hypotheses(space, sig.members, {"Q": Qv, "p": pv, "s": sv}))
    else:
        hyp.append(Hypothesis("sp_above_Q", False, "empty inflated ball"))
    b = _lower_regularity(space, Qv, delta)
    hyp.append(Hypothesis("lower_regularity", b > 0, f"b = {b:.6g}"))
    extras = {"b": b, "delta": delta, "mode": mode}
    if not all(h.holds for h in hyp):
        return _na_report(theorem, scenario, hyp, extras)

    alpha = np.full(space.n, np.nan)
    alpha[sig.members] = (sv - Qv / pv)[sig.members]
    uv = np.asarray(u, dtype=float)
    w_b0 = space.weight[B0.members]
    u_bar = _weighted_mean(uv[B0.members], w_b0)
    sup_dev = float(np.max(np.abs(uv[B0.members] - u_bar)))
    sol = _grad_norm(space, uv, sv, pv, q, mode, sig.members, tol)
    grad = sol.objective.value
    alpha_center = float(alpha[center])
    denom = radius ** alpha_center * grad
    c_emp = sup_dev / denom if denom > 0 else (0.0 if sup_dev == 0 else np.inf)
    c_used = c_emp if C_H is None else C_H
    alpha_plus = float(np.nanmax(alpha[sig.members]))
    d_h = K.morrey_DH(c_used, alpha_plus, sigma, delta, radius)
    semi = holder_seminorm(uv, np.where(np.isnan(alpha), 1.0, alpha), space, subset=B0.members)
    lhs = semi
    rhs = d_h * grad
    extras.update({
        "sup_deviation": sup_dev,
        "sup_bound": c_used * denom,
        "C_H": c_used,
        "D_H": d_h,
        "grad_norm": grad,
        "alpha_center": alpha_center,
        "empirical_constant": c_emp,
        "heuristic_gradient": sol.heuristic,
    })
    sup_ok = sup_dev <= c_used * denom + check_slack(c_used * denom)
    holder_ok = lhs <= rhs + check_slack(rhs)
    return VerificationReport(theorem, scenario, hyp, lhs, rhs, c_used,
                              "supplied" if C_H is not None else "empirical",
                              rhs - lhs, bool(sup_ok and holder_ok), extras)


def local_embedding_check(space, center: int, radius: float, sigma: float, u, s, p, Q,
                   C_S: float | None = None, delta: float | None = None,
                   scenario: str = "", tol: float = 1e-6) -> VerificationReport:
    """Non-centered local embedding: full-norm bound with the explicit
    ball-geometry factor and the recorded Poincare constant."""
    theorem = "local_embedding"
    base = check_sobolev_local(space, center, radius, sigma, u, s, p, Q,
                               mode="M", C=None, delta=delta,
                               scenario=scenario, tol=tol)
    if not base.applicable:
        return _na_report(theorem, scenario, base.hypotheses, base.extras)
    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    Qv = exponent_values(Q, space.n)
    B0 = ball(space, center, radius)
    uv = np.asarray(u, dtype=float)
    w_b0 = space.weight[B0.members]
    gamma_b0 = sobolev_conjugate(Qv[B0.members], sv[B0.members], pv[B0.members]).values
    norm_one = luxemburg(np.ones(B0.members.size), gamma_b0, w_b0).value
    lam = K.local_embedding_lambda(B0.measure, float(gamma_b0.min()), norm_one)
    c_s = base.extras["empirical_constant"] if C_S is None else C_S
    core = (B0.measure / radius ** Qv[center]) ** (1.0 / float(gamma_b0.min()))
    grad = base.extras["grad_norm"]
    lhs = luxemburg(uv[B0.members], gamma_b0, w_b0).value
    norm_p = luxemburg(uv[B0.members], pv[B0.members], w_b0).value
    rhs = (1.0 + lam) * c_s * core * grad + lam * norm_p
    extras = dict(base.extras)
    extras.update({"Lambda": lam, "norm_one_gamma": norm_one, "C_S": c_s,
                   "norm_p_B0": norm_p})
    return VerificationReport(theorem, scenario, base.hypotheses, lhs, rhs, c_s,
                              "supplied" if C_S is not None else "empirical",
                              rhs - lhs, bool(lhs <= rhs + check_slack(rhs)), extras)


def _regime(sv, pv, Qv) -> str:
    gap = sv * pv - Qv
    if np.max(np.abs(gap)) <= 1e-9:
        return "critical"
    if np.min(gap) > 0:
        return "supercritical"
    if np.max(gap) < 0:
        return "subcritical"
    return "mixed"


def check_global(space, u, s, p, Q, q=None, theorem: str = "bounded",
                 mode: str = "M", C: float | None = None,
                 delta: float = 1.0, scenario: str = "",
                 tol: float = 1e-6) -> VerificationReport:
    """Global inequalities on the whole space.

    ``bounded`` picks the regime from the exponents; the ``doubling_*``
    variants additionally diagnose geometric doubling and the uniform bound
    on delta-ball masses.
    """
    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    Qv = exponent_values(Q, space.n)
    uv = np.asarray(u, dtype=float)
    w = space.weight
    tag = f"global_{theorem}[{mode}]"
    hyp = [Hypothesis("bounded_space", np.isfinite(space.diameter),
                      f"diam = {space.diameter:.6g}")]
    b = _lower_regularity(space, Qv, delta)
    hyp.append(Hypothesis("lower_regularity", b > 0, f"b = {b:.6g} up to {delta}"))
    hyp.extend(_log_hypotheses(space, None, {"Q": Qv, "p": pv, "s": sv}))
    regime = _regime(sv, pv, Qv)
    extras = {"b": b, "regime": regime, "mode": mode}
    if theorem.startswith("doubling"):
        from .space import estimate_doubling
        M = estimate_doubling(space)
        masses = [ball(space, x, delta).measure for x in range(space.n)]
        extras["doubling_estimate"] = M
        extras["sup_delta_ball_mass"] = max(masses)
        hyp.append(Hypothesis("geometrically_doubling", np.isfinite(M), f"M = {M}"))
        if theorem != "doubling_holder":
            hyp.append(Hypothesis("finite_sup_ball_mass", np.isfinite(max(masses)),
                                  f"sup = {max(masses):.6g}"))
    want = {"bounded": None, "doubling_sob": "subcritical",
            "doubling_mt": "critical", "doubling_holder": "supercritical"}[theorem]
    if want is not None:
        hyp.append(Hypothesis("exponent_regime", regime == want,
                              f"regime = {regime}, wanted {want}"))
    elif regime == "mixed":
        hyp.append(Hypothesis("exponent_regime", False, "mixed regime"))
    if not all(h.holds for h in hyp):
        return _na_report(tag, scenario, hyp, extras)

    sol = _grad_norm(space, uv, sv, pv, q, mode, None, tol)
    grad = sol.objective.value
    norm_p = luxemburg(uv, pv, w).value
    extras.update({"grad_norm": grad, "norm_p": norm_p,
                   "heuristic_gradient": sol.heuristic})
    effective = regime if want is None else want

    if effective == "subcritical":
        gamma = sobolev_conjugate(Qv, sv, pv).values
        lhs_centered, _, _ = inf_centered_norm(uv, gamma, w)
        lhs = luxemburg(uv, gamma, w).value
        denom = norm_p + grad
        c_emp = lhs / denom if denom > 0 else (0.0 if lhs == 0 else np.inf)
        extras["centered_lhs"] = lhs_centered
        extras["centered_constant"] = (lhs_centered / grad if grad > 0
                                       else (0.0 if lhs_centered == 0 else np.inf))
    elif effective == "critical":
        u_bar = _weighted_mean(uv, w)
        if grad == 0:
            lhs = 1.0 if np.ptp(uv) == 0 else np.inf
        else:
            lhs = _weighted_mean(np.exp(DEFAULT_MT_C1 * np.abs(uv - u_bar) / grad), w)
        denom = 1.0
        c_emp = lhs
        extras["C1"] = DEFAULT_MT_C1
    else:
        alpha = holder_exponent(Qv, sv, pv).values
        lhs = float(np.max(np.abs(uv))) + holder_seminorm(uv, alpha, space)
        denom = norm_p + grad
        c_emp = lhs / denom if denom > 0 else (0.0 if lhs == 0 else np.inf)
        extras["holder_seminorm"] = holder_seminorm(uv, alpha, space)
    extras["empirical_constant"] = c_emp
    if C is None:
        rhs = c_emp * denom if np.isfinite(c_emp) else np.inf
        return VerificationReport(tag, scenario, hyp, lhs, rhs, c_emp, "empirical",
                                  rhs - lhs, bool(np.isfinite(c_emp)), extras)
    rhs = C * denom
    return VerificationReport(tag, scenario, hyp, lhs, rhs, C, "supplied",
                              rhs - lhs, bool(lhs <= rhs + check_slack(rhs)), extras)


def counterexample_run(n_dim: int, beta: float, p: float, theta: float,
                       refinements=(31, 61, 121), scenario: str = "counterexample",
                       tol: float = 1e-6) -> VerificationReport:
    """Lebesgue-plus-atom measure on the unit ball: the Sobolev-scale norm of
    |x|**theta stays bounded under refinement while its regularity quotient
    at the origin diverges, so no uniform supercritical embedding constant
    can exist.
    """
    if not 0 < beta < n_dim:
        raise ValueError("beta must lie in (0, n_dim)")
    if not p > n_dim:
        raise ValueError("p must exceed the ambient dimension")
    lo, hi = 1.0 - n_dim / p, 1.0 - beta / p
    if not lo < theta < hi:
        raise ValueError(f"theta must lie in the open interval ({lo}, {hi})")
    growth = abs(theta - 1.0 + beta / p)
    alpha0 = 1.0 - beta / p
    norms, quotients, gaps, bs = [], [], [], []
    for m in refinements:
        space = ball_grid_with_atom(n_dim, m)
        uv = power_function(space, theta)
        origin = space.atoms[0]
        Qv = np.full(space.n, float(n_dim))
        Qv[origin] = beta
        sol = minimal_scalar_gradient(space, uv, 1.0, p, tol=tol)
        m_norm = luxemburg(uv, p, space.weight).value + sol.objective.value
        prof = best_lower_constant(space, Qv, r_max=1.0)
        d0 = np.delete(space.dist[origin], origin)
        h = float(d0.min())
        nearest = int(np.argmin(np.where(space.dist[origin] > 0, space.dist[origin], np.inf)))
        quot = abs(uv[nearest] - uv[origin]) / h ** alpha0
        norms.append(m_norm)
        quotients.append(float(quot))
        gaps.append(h)
        bs.append(prof.b_lower)
    hyp = [Hypothesis("parameter_ranges", True,
                      f"beta in (0,{n_dim}), p > {n_dim}, theta in ({lo:.4g},{hi:.4g})")]
    growth_ok = True
    factors = []
    for i in range(len(refinements) - 1):
        need = 0.9 * (gaps[i] / gaps[i + 1]) ** growth
        got = quotients[i + 1] / quotients[i]
        factors.append({"required": need, "achieved": got})
        growth_ok &= got >= need
    spread = (max(norms) - min(norms)) / min(norms)
    bounded_ok = spread < 0.2
    extras = {
        "norms": norms, "quotients": quotients, "cell_gaps": gaps,
        "growth_exponent": growth, "factors": factors, "norm_spread": spread,
        "b_lower": bs, "alpha_origin": alpha0,
        "divergence_certified": bool(growth_ok and bounded_ok),
    }
    lhs = quotients[-1]
    rhs = quotients[0]
    return VerificationReport("counterexample_holder_failure", scenario, hyp,
                              lhs, rhs, growth, "formula", rhs - lhs,
                              bool(growth_ok and bounded_ok), extras)


# -- necessity ----------------------------------------------------------------

def _family_norm(space, support, L, s, p, q, family: str, u=None):
    _, rep = lipschitz_cutoff_gradient(space, support, L, s, p, q, u=u)
    if family == "M":
        return rep["tl_norm"], rep
    return rep["besov_norm"], rep


def _c_lip(space, s, q) -> float:
    sv = exponent_values(s, space.n)
    qv = exponent_values(q, space.n, allow_inf=True)
    return K.lipschitz_constant(float(qv.min()), float(sv.min()), float(sv.max()))


def necessity_run(space, s, p, q, gamma_or_alpha, mode: str, family: str = "M",
                  sigma: float = 2.0, epsilon: float | None = None,
                  omega: float | None = None, C_MT1: float | None = None,
                  centers=None, radii=None, j_max: int = 4,
                  scenario: str = "", tol: float = 1e-6) -> VerificationReport:
    """Empirical necessity harness.

    Measures the embedding constant over the proof's annular test-function
    family, derives the dimension field the theorem predicts, and verifies
    the measure's lower growth bound with both the empirical and the
    formula constant.  Modes: ``sobolev_global``, ``sobolev_local``,
    ``moser``, ``holder``.
    """
    from .space import phi as phi_op

    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    qv = exponent_values(q, space.n, allow_inf=True)
    uv_field = np.asarray(gamma_or_alpha, dtype=float)
    theorem = f"necessity_{mode}[{family}]"
    s_plus = float(sv.max())
    q_minus = float(qv.min())
    hyp = [Hypothesis("s_plus_admissible",
                      s_plus < 1.0 or (s_plus == 1.0 and not np.isfinite(q_minus)),
                      f"max s = {s_plus}, min q = {q_minus}")]
    if epsilon is None:
        from .space import perfectness_resolution
        epsilon = perfectness_resolution(space)
    lam = None
    if mode in ("sobolev_local", "moser", "holder"):
        lam = uniform_perfectness(space, epsilon)
        hyp.append(Hypothesis("uniformly_perfect", lam is not None,
                              f"lambda = {lam}, resolution epsilon = {epsilon}"))
    extras: dict = {"epsilon": epsilon, "lambda": lam, "family": family}
    if not all(h.holds for h in hyp):
        return _na_report(theorem, scenario, hyp, extras)

    if centers is None:
        centers = sorted({0, space.n // 2, space.n - 1})
    if radii is None:
        top = min(1.0 / sigma, space.diameter * 0.75)
        radii = [top, top / 2.0]
    c_lip = _c_lip(space, sv, qv)
    extras["C_lip"] = c_lip

    if mode == "sobolev_global":
        gamma = uv_field
        hyp.append(Hypothesis("gamma_dominates_p", strictly_dominates(gamma, pv),
                              "gamma >> p"))
        if not all(h.holds for h in hyp):
            return _na_report(theorem, scenario, hyp, extras)
        Q = gamma * sv * pv / (gamma - pv)
        c_emp = 0.0
        for x in centers:
            for r in radii:
                for j in range(1, j_max + 1):
                    u_j, support, L = annular_cutoff(space, x, r, j)
                    if support.size == 0 or np.ptp(u_j) == 0:
                        continue
                    anorm, _ = _family_norm(space, support, L, sv, pv, qv, family, u=u_j)
                    num = luxemburg(u_j, gamma, space.weight).value
                    if anorm > 0:
                        c_emp = max(c_emp, num / anorm)
        b_formula = K.necessity_b_global_sobolev(
            c_emp, c_lip,
            s_minus=float(sv.min()), s_plus=s_plus,
            gamma_minus=float(gamma.min()), gamma_plus=float(gamma.max()),
            Q_minus=float(Q.min()), Q_plus=float(Q.max()),
            c_log_inv_gamma=log_holder_constant(1.0 / gamma, space),
            c_log_gamma=log_holder_constant(gamma, space),
            c_log_s=log_holder_constant(sv, space),
            c_log_Q=log_holder_constant(Q, space))
    elif mode == "sobolev_local":
        gamma = uv_field
        hyp.append(Hypothesis("gamma_dominates_p", strictly_dominates(gamma, pv),
                              "gamma >> p"))
        if not all(h.holds for h in hyp):
            return _na_report(theorem, scenario, hyp, extras)
        Q = gamma * sv * pv / (gamma - pv)
        omega = 1.0 / float(gamma.min()) if omega is None else omega
        extras["omega"] = omega
        c_emp = 0.0
        for x in centers:
            for r in radii:
                base = phi_op(space, x, r)
                if base <= 0:
                    continue
                Br = ball(space, x, r)
                for j in range(1, j_max + 1):
                    u_j, support, L = annular_cutoff(space, x, base, j)
                    if support.size == 0 or np.ptp(u_j[Br.members]) == 0:
                        continue
                    anorm, _ = _family_norm(space, support, L, sv, pv, qv, family, u=u_j)
                    num, _, _ = inf_centered_norm(u_j[Br.members], gamma[Br.members],
                                                  space.weight[Br.members])
                    scale = (Br.measure / r ** Q[x]) ** omega
                    if anorm > 0 and scale > 0:
                        c_emp = max(c_emp, num / (scale * anorm))
        b_formula = K.necessity_b_local_sobolev(
            c_emp, c_lip, lam,
            s_minus=float(sv.min()), s_plus=s_plus,
            gamma_minus=float(gamma.min()), gamma_plus=float(gamma.max()),
            Q_minus=float(Q.min()), Q_plus=float(Q.max()),
            c_log_inv_gamma=log_holder_constant(1.0 / gamma, space),
            c_log_gamma=log_holder_constant(gamma, space),
            c_log_s=log_holder_constant(sv, space),
            c_log_Q=log_holder_constant(Q, space))
    elif mode == "moser":
        if not all(h.holds for h in hyp):
            return _na_report(theorem, scenario, hyp, extras)
        Q = sv * pv
        omega = 1.0 if omega is None else omega
        C_MT1 = DEFAULT_MT_C1 if C_MT1 is None else C_MT1
        extras["omega"] = omega
        extras["C_MT1"] = C_MT1
        c_mt2 = 1.0
        for x in centers:
            for r in radii:
                base = phi_op(space, x, r)
                if base <= 0:
                    continue
                Br = ball(space, x, r)
                for j in range(1, j_max + 1):
                    u_j, support, L = annular_cutoff(space, x, base, j)
                    if support.size == 0 or np.ptp(u_j[Br.members]) == 0:
                        continue
                    anorm, _ = _family_norm(space, support, L, sv, pv, qv, family, u=u_j)
                    if anorm <= 0:
                        continue
                    wb = space.weight[Br.members]

                    def avg(c):
                        return _weighted_mean(
                            np.exp(C_MT1 * np.abs(u_j[Br.members] - c) / anorm) ** omega, wb)

                    _, best = _golden_min(avg, float(u_j[Br.members].min()),
                                          float(u_j[Br.members].max()))
                    c_mt2 = max(c_mt2, best)
        c_emp = c_mt2
        b_formula = K.necessity_b_moser(
            C_MT1, c_mt2, c_lip, lam, omega,
            s_minus=float(sv.min()), s_plus=s_plus,
            Q_minus=float(Q.min()), Q_plus=float(Q.max()))
    elif mode == "holder":
        alpha = uv_field
        hyp.append(Hypothesis("s_dominates_alpha", bool(np.min(sv - alpha) >= -1e-12),
                              "necessity forces s >= alpha; violated means embedding impossible"))
        if not all(h.holds for h in hyp):
            return _na_report(theorem, scenario, hyp, extras)
        Q = pv * (sv - alpha)
        c_emp = 0.0
        for x in centers:
            for r in radii:
                u_c = np.clip(1.0 - space.dist[x] / (lam * r), 0.0, 1.0)
                support = np.flatnonzero(space.dist[x] < lam * r)
                if support.size == 0 or np.ptp(u_c) == 0:
                    continue
                anorm, _ = _family_norm(space, support, 1.0 / (lam * r), sv, pv, qv,
                                        family, u=u_c)
                semi = holder_seminorm(u_c, alpha, space)
                if anorm > 0:
                    c_emp = max(c_emp, semi / anorm)
        b_formula = K.necessity_b_holder(
            c_emp, c_lip, lam,
            p_minus=float(pv.min()), p_plus=float(pv.max()),
            s_plus=s_plus, alpha_plus=float(alpha.max()),
            c_log_s=log_holder_constant(sv, space),
            c_log_alpha=log_holder_constant(alpha, space),
            c_log_p=log_holder_constant(pv, space))
        eq_pts = np.flatnonzero(np.abs(sv - alpha) <= 1e-12)
        missing = [int(x) for x in eq_pts if int(x) not in space.atoms]
        extras["equality_points"] = [int(x) for x in eq_pts]
        extras["atom_contradictions"] = missing
    else:
        raise ValueError(f"unknown necessity mode {mode!r}")

    positive = Q > 1e-12
    if positive.any():
        # restrict the scan to centers with a genuinely positive exponent
        b_emp = np.inf
        witnesses = []
        from .space import critical_radii
        radii_scan = critical_radii(space, space.min_positive_distance(), 1.0)
        if radii_scan.size == 0:
            radii_scan = np.array([1.0])
        for x in np.flatnonzero(positive):
            row = space.dist[x]
            for rr in radii_scan:
                mass = float(space.weight[row < rr].sum())
                ratio = mass / rr ** Q[x]
                if ratio < b_emp:
                    b_emp = ratio
                    witnesses = [(int(x), float(rr))]
        extras["witnesses"] = witnesses
    else:
        b_emp = np.inf
    extras.update({"Q_derived": Q, "b_empirical": b_emp, "b_formula": b_formula,
                   "embedding_constant": c_emp})
    ok = bool(b_emp > 0 and b_emp >= b_formula - check_slack(b_formula))
    if mode == "holder":
        ok = ok and not extras["atom_contradictions"]
    return VerificationReport(theorem, scenario, hyp, b_formula, b_emp, c_emp,
                              "empirical", b_emp - b_formula, ok, extras)

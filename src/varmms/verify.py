"""Embedding-inequality verification harness.

Every check produces a VerificationReport: named hypothesis diagnostics,
the two sides of the inequality, the constant used (with its provenance),
and a verdict.  Hypothesis failures yield a not-applicable verdict, never
an exception, because the necessity experiments deliberately break
hypotheses.  Constants for which no closed form exists are measured
empirically (the ratio of the two sides) and recorded for refinement-
stability comparisons.

The local checks share one pipeline: ``_local_setup`` tests the ball, the
regime of s p against Q (one ``_REGIMES`` entry per check), log-Hoelder
exponents and lower regularity, then solves the minimal gradient on sigma*B0;
each check adds only its own inequality.  The four necessity modes draw their
test functions from one cut-off loop, ``_cutoff_family`` (annular cut-offs, or
one cone for the Hoelder mode), and read the lower growth off one table of
ball masses (``space.ball_masses``).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import constants as K
from .exponents import (exponent_values, holder_exponent, log_holder_constant,
                        sobolev_conjugate, strictly_dominates)
from .generators import annular_cutoff, ball_grid_with_atom, power_function
from .gradients import (_CERT_TOL, _cutoff_sequence, minimal_scalar_gradient,
                        minimal_vector_gradient)
from .norms import check_slack, holder_seminorm, luxemburg, mixed_norm_lp_lq, mixed_norm_lq_lp
from .regularity import best_lower_constant
from .space import (ball, ball_masses, critical_radii, estimate_doubling,
                    perfectness_resolution, phi, uniform_perfectness)

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
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def _na_report(theorem, scenario, hypotheses, extras=None) -> VerificationReport:
    return VerificationReport(theorem=theorem, scenario=scenario,
                              hypotheses=hypotheses, lhs=np.nan, rhs=np.nan,
                              constant=np.nan, constant_provenance="n/a",
                              margin=np.nan, passed=None, extras=extras or {})


def _weighted_mean(u, w) -> float:
    return float(np.sum(u * w) / np.sum(w))


def _ratio(num, den) -> float:
    """num / den, read as 0 or inf when den is not positive."""
    return num / den if den > 0 else (0.0 if num == 0 else np.inf)


def _exp_average(u, w, C1: float, grad: float) -> float:
    """Weighted mean of exp(C1 |u - mean u| / grad); 1 or inf when grad = 0."""
    if grad == 0:
        return 1.0 if np.ptp(u) == 0 else np.inf
    return _weighted_mean(np.exp(C1 * np.abs(u - _weighted_mean(u, w)) / grad), w)


def _bound_report(theorem, scenario, hyp, lhs, scale, c_emp, C, extras) -> VerificationReport:
    """Report of lhs <= C * scale, or of the empirical constant when no C is given."""
    if C is None:
        rhs = c_emp * scale if np.isfinite(c_emp) else np.inf
        C, provenance, passed = c_emp, "empirical", np.isfinite(c_emp)
    else:
        rhs = C * scale
        provenance, passed = "supplied", lhs <= rhs + check_slack(rhs)
    return VerificationReport(theorem, scenario, hyp, lhs, rhs, C, provenance, rhs - lhs,
                              bool(passed), extras)


def _golden_min(f, lo: float, hi: float, iters: int = 120):
    """Golden-section minimum (x, f(x)) of f on [lo, hi] inside [0, 1], to 1e-12."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a <= 1e-12:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    fv, xv = min((f1, x1), (f2, x2))
    return xv, fv


def _unit(u):
    """u mapped affinely onto [0, 1]: (v, min u, max u - min u)."""
    lo = float(u.min())
    span = float(u.max()) - lo
    return (u - lo) / span, lo, span


def _slope_root(v, log_terms) -> float:
    """The shift t in [0, 1] where the slope -sum_i sgn(d_i) exp(L_i) of a
    convex function of t changes sign, d = v - t.  ``log_terms(d, on)``
    gives the L_i on the entries ``on`` where d != 0.  The terms are summed
    relative to the largest, so the slope cannot overflow; v spans [0, 1],
    so it is negative at 0 and positive at 1 and the root is bracketed."""
    def slope(t):
        d = v - t
        on = d != 0
        L = log_terms(d, on)
        return -float(np.dot(np.sign(d[on]), np.exp(L - L.max())))

    return _brentq(slope, 0.0, 1.0, xtol=1e-14)


def _brentq(f, a, b, xtol) -> float:
    """A root of f in [a, b] by Brent's method, step for step as
    ``scipy.optimize.brentq`` at its default ``rtol`` and ``maxiter`` (scipy's
    ``Zeros/brentq.c``), so roots match it bit for bit without importing
    ``scipy.optimize``."""
    rtol, maxiter = 4 * float(np.finfo(float).eps), 100
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _exp_shift(u, w, k: float) -> float:
    """The shift c minimising the weighted mean of exp(k |u - c|), k > 0, for
    nonconstant u: the root of its slope -sum w exp(k |u - c|) sgn(u - c)."""
    v, lo, span = _unit(u)
    log_w = np.log(w)
    return lo + span * _slope_root(v, lambda d, on: log_w[on] + k * span * np.abs(d[on]))


def inf_centered_norm(u, p, w) -> tuple[float, float, bool]:
    """inf over shifts c of the Lebesgue norm of u - c: (value, c, heuristic).

    The work is done on v = (u - min u)/(max u - min u), so the result is
    scale-invariant.  For min p >= 1 the norm lam(c) is convex in c, and by
    implicit differentiation dlam/dc has the sign of
    -sum w p |(u - c)/lam|**(p-1) sgn(u - c); c is the root of that slope
    (a weighted median at p = 1).  A slope evaluation needs one Luxemburg
    norm for variable p and none for constant p, where lam factors out.
    Below p = 1, flagged heuristic, the least of the norms at the data
    values and, unless max p <= 1, of a 64-point grid and its golden-section
    refinement.  With max p <= 1 that least is the infimum: between data
    values each |u - c|**p is concave in c, so the modular at a fixed level
    is, and the set of shifts where it is at most one contains an end of
    any interval on which it contains a point.
    """
    u = np.asarray(u, dtype=float)
    w = np.broadcast_to(np.asarray(w, dtype=float), u.shape)
    pv = exponent_values(p, u.size)
    if u.min() == u.max():
        return 0.0, float(u.min()), False
    v, lo, span = _unit(u)

    def f(t):
        return luxemburg(v - t, pv, w).value

    heuristic = bool(pv.min() < 1.0)
    if heuristic:
        candidates = [(t, f(t)) for t in np.unique(v)]
        if pv.max() > 1.0:
            grid = np.linspace(0.0, 1.0, 64)
            on_grid = [f(t) for t in grid]
            j = int(np.argmin(on_grid))
            # a cusp at a grid point beats its refinement on a tie
            candidates = [(grid[j], on_grid[j]),
                          _golden_min(f, grid[max(j - 1, 0)], grid[min(j + 1, 63)]),
                          *candidates]
        t_star, val = min(candidates, key=lambda c: c[1])
    else:
        log_wp = np.log(w) + np.log(pv)
        constant = np.ptp(pv) == 0

        def log_terms(d, on):
            log_lam = 0.0 if constant else math.log(luxemburg(d, pv, w).value)
            return log_wp[on] + (pv[on] - 1.0) * (np.log(np.abs(d[on])) - log_lam)

        t_star = _slope_root(v, log_terms)
        val = f(t_star)
    return span * val, lo + t_star * span, heuristic


def _grad_norm(space, u, s, p, q, mode: str, subset, tol, extras) -> float:
    """Minimal gradient norm of u in ``mode``, recorded in the extras."""
    if mode == "M":
        sol = minimal_scalar_gradient(space, u, s, p, tol=tol, subset=subset)
    elif mode in ("TL", "Besov"):
        if q is None:
            raise ValueError(f"{mode} mode needs q")
        sol = minimal_vector_gradient(space, u, s, p, q, scale="lp_lq" if mode == "TL" else "lq_lp",
                                      tol=tol, subset=subset)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'M', 'TL', or 'Besov'")
    extras.update({"grad_norm": sol.objective.value, "heuristic_gradient": sol.heuristic})
    return sol.objective.value


def _lower_regularity(space, Qv, delta: float) -> float:
    """Best lower-regularity constant b of the measure on radii (0, delta]."""
    if delta <= 0:
        return 0.0
    if space.n < 2:
        return float(space.weight[0])
    if delta < space.min_positive_distance():
        # every ball of radius at most delta is its centre alone
        return float(np.min(space.weight / delta ** Qv))
    return best_lower_constant(space, Qv, r_max=delta).b_lower


def _log_hypotheses(space, subset, fields: dict) -> list[Hypothesis]:
    out = []
    for name, vals in fields.items():
        c_inv = log_holder_constant(1.0 / np.asarray(vals, dtype=float), space, subset)
        out.append(Hypothesis(f"log_regular_{name}", bool(np.isfinite(c_inv)),
                              f"C_log(1/{name}) = {c_inv:.6g}"))
    return out


# The regime hypothesis of each local check on sigma*B0: the statistic of
# (s, p, Q) it reads, when it holds, and its detail format.
_REGIMES = {
    "sp_below_Q": (lambda s, p, Q: np.min(Q - s * p), lambda v: v > 0,
                   "min(Q - s p) = {:.6g} on sigma B0"),
    "sp_equals_Q": (lambda s, p, Q: np.max(np.abs(s * p - Q)), lambda v: v <= 1e-9,
                    "max |s p - Q| = {:.3g}"),
    "sp_above_Q": (lambda s, p, Q: np.min(s * p - Q), lambda v: v > 0,
                   "min(s p - Q) = {:.6g}"),
}


def _regime(sv, pv, Qv) -> str:
    """The regime of the whole exponent field, read from ``_REGIMES``."""
    for regime, key in (("critical", "sp_equals_Q"), ("supercritical", "sp_above_Q"),
                        ("subcritical", "sp_below_Q")):
        stat, holds, _ = _REGIMES[key]
        if holds(stat(sv, pv, Qv)):
            return regime
    return "mixed"


# A ball whose local hypotheses hold: report fields, exponent values, B0 and
# sigma*B0, u (also on B0), the weights on B0, the gradient norm on sigma*B0.
_Local = namedtuple("_Local", "theorem hyp extras s p Q B0 sig u u_b0 w_b0 grad")


def _local_setup(theorem, regime, space, center, radius, sigma, u, s, p, Q, mode, q,
                 delta, scenario, tol):
    """Hypotheses shared by the local checks (sigma > 1, B0 nonempty, r0 <=
    delta/sigma, ``regime`` and log-Hoelder exponents on sigma*B0, lower
    regularity up to delta): the n/a report, or the context with its gradient."""
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
    m = sig.members
    if m.size:
        stat, holds, detail = _REGIMES[regime]
        value = stat(sv[m], pv[m], Qv[m])
        hyp.append(Hypothesis(regime, holds(value), detail.format(value)))
        hyp.extend(_log_hypotheses(space, m, {"Q": Qv, "p": pv, "s": sv}))
    else:
        hyp.append(Hypothesis(regime, False, "empty inflated ball"))
    b = _lower_regularity(space, Qv, delta)
    hyp.append(Hypothesis("lower_regularity", b > 0, f"b = {b:.6g} on (0, {delta}]"))
    extras = {"b": b, "delta": delta, "mode": mode}
    if not all(h.holds for h in hyp):
        return _na_report(theorem, scenario, hyp, extras)
    uv = np.asarray(u, dtype=float)
    grad = _grad_norm(space, uv, sv, pv, q, mode, m, tol, extras)
    return _Local(theorem, hyp, extras, sv, pv, Qv, B0, sig, uv, uv[B0.members],
                  space.weight[B0.members], grad)


def _sobolev(ctx: _Local, center: int, radius: float):
    """Centered conjugate-exponent norm of u on B0 and its empirical
    constant, recorded in the extras.  Returns (lhs, core, gamma on B0,
    ball factor (mu(B0)/r0**Q(x0))**(1/gamma^-_B0))."""
    b0 = ctx.B0.members
    gamma_b0 = sobolev_conjugate(ctx.Q[b0], ctx.s[b0], ctx.p[b0]).values
    lhs, c_star, heur = inf_centered_norm(ctx.u_b0, gamma_b0, ctx.w_b0)
    factor = (ctx.B0.measure / radius ** ctx.Q[center]) ** (1.0 / float(gamma_b0.min()))
    core = factor * ctx.grad
    ctx.extras.update({"gamma_minus_B0": float(gamma_b0.min()), "core": core,
                       "center_shift": c_star, "heuristic_inf": heur,
                       "empirical_constant": _ratio(lhs, core)})
    return lhs, core, gamma_b0, factor


def check_sobolev_local(space, center: int, radius: float, sigma: float, u, s, p, Q,
                        mode: str = "M", q=None, C: float | None = None,
                        delta: float | None = None, scenario: str = "",
                        tol: float = 1e-6) -> VerificationReport:
    """Local Poincare-type inequality on a ball in the subcritical regime.

    LHS: inf over c of the conjugate-exponent norm of u - c on B0.
    RHS: C * (mu(B0)/r0**Q(x0))**(1/gamma^-_B0) * minimal gradient norm on
    the inflated ball.  With no supplied C the empirical ratio is recorded.
    """
    ctx = _local_setup(f"sobolev_local[{mode}]", "sp_below_Q", space, center, radius,
                       sigma, u, s, p, Q, mode, q, delta, scenario, tol)
    if isinstance(ctx, VerificationReport):
        return ctx
    lhs, core, _, _ = _sobolev(ctx, center, radius)
    return _bound_report(ctx.theorem, scenario, ctx.hyp, lhs, core,
                         ctx.extras["empirical_constant"], C, ctx.extras)


def check_moser_trudinger_local(space, center: int, radius: float, sigma: float,
                                u, s, p, Q, mode: str = "M", q=None,
                                C1: float | None = None, C2: float | None = None,
                                delta: float | None = None, scenario: str = "",
                                tol: float = 1e-6) -> VerificationReport:
    """Exponential integrability on a ball in the critical regime Q = s p."""
    ctx = _local_setup(f"moser_trudinger_local[{mode}]", "sp_equals_Q", space, center,
                       radius, sigma, u, s, p, Q, mode, q, delta, scenario, tol)
    if isinstance(ctx, VerificationReport):
        return ctx
    C1 = DEFAULT_MT_C1 if C1 is None else C1
    C2 = DEFAULT_MT_C2 if C2 is None else C2
    avg = _exp_average(ctx.u_b0, ctx.w_b0, C1, ctx.grad)
    if ctx.grad == 0.0:
        ctx.extras["zero_gradient_nonconstant"] = float(np.ptp(ctx.u_b0)) > 0
    ctx.extras.update({"average": avg, "C1": C1})
    return VerificationReport(ctx.theorem, scenario, ctx.hyp, avg, C2, C1,
                              "supplied" if C1 != DEFAULT_MT_C1 else "calibrated-default",
                              C2 - avg, bool(avg <= C2 + check_slack(C2)), ctx.extras)


def check_morrey_local(space, center: int, radius: float, sigma: float, u, s, p, Q,
                       mode: str = "M", q=None, C_H: float | None = None,
                       delta: float | None = None, scenario: str = "",
                       tol: float = 1e-6) -> VerificationReport:
    """Supercritical regime: sup-norm bound and the pointwise regularity
    bound with the derived quotient constant."""
    ctx = _local_setup(f"morrey_local[{mode}]", "sp_above_Q", space, center, radius,
                       sigma, u, s, p, Q, mode, q, delta, scenario, tol)
    if isinstance(ctx, VerificationReport):
        return ctx
    alpha = np.full(space.n, np.nan)
    alpha[ctx.sig.members] = (ctx.s - ctx.Q / ctx.p)[ctx.sig.members]
    sup_dev = float(np.max(np.abs(ctx.u_b0 - _weighted_mean(ctx.u_b0, ctx.w_b0))))
    alpha_center = float(alpha[center])
    denom = radius ** alpha_center * ctx.grad
    c_emp = _ratio(sup_dev, denom)
    c_used = c_emp if C_H is None else C_H
    d_h = K.morrey_DH(c_used, float(np.nanmax(alpha[ctx.sig.members])), sigma,
                      ctx.extras["delta"], radius)
    lhs = holder_seminorm(ctx.u, np.where(np.isnan(alpha), 1.0, alpha), space,
                          subset=ctx.B0.members)
    rhs = d_h * ctx.grad
    ctx.extras.update({"sup_deviation": sup_dev, "sup_bound": c_used * denom,
                       "C_H": c_used, "D_H": d_h, "alpha_center": alpha_center,
                       "empirical_constant": c_emp})
    sup_ok = sup_dev <= c_used * denom + check_slack(c_used * denom)
    holder_ok = lhs <= rhs + check_slack(rhs)
    return VerificationReport(ctx.theorem, scenario, ctx.hyp, lhs, rhs, c_used,
                              "supplied" if C_H is not None else "empirical",
                              rhs - lhs, bool(sup_ok and holder_ok), ctx.extras)


def local_embedding_check(space, center: int, radius: float, sigma: float, u, s, p, Q,
                   C_S: float | None = None, delta: float | None = None,
                   scenario: str = "", tol: float = 1e-6) -> VerificationReport:
    """Non-centered local embedding: full-norm bound with the explicit
    ball-geometry factor and the recorded Poincare constant."""
    ctx = _local_setup("local_embedding", "sp_below_Q", space, center, radius, sigma,
                       u, s, p, Q, "M", None, delta, scenario, tol)
    if isinstance(ctx, VerificationReport):
        return ctx
    _, _, gamma_b0, factor = _sobolev(ctx, center, radius)
    norm_one = luxemburg(np.ones(ctx.u_b0.size), gamma_b0, ctx.w_b0).value
    lam = K.local_embedding_lambda(ctx.B0.measure, float(gamma_b0.min()), norm_one)
    c_s = ctx.extras["empirical_constant"] if C_S is None else C_S
    lhs = luxemburg(ctx.u_b0, gamma_b0, ctx.w_b0).value
    norm_p = luxemburg(ctx.u_b0, ctx.p[ctx.B0.members], ctx.w_b0).value
    rhs = (1.0 + lam) * c_s * factor * ctx.grad + lam * norm_p
    ctx.extras.update({"Lambda": lam, "norm_one_gamma": norm_one, "C_S": c_s,
                       "norm_p_B0": norm_p})
    return VerificationReport(ctx.theorem, scenario, ctx.hyp, lhs, rhs, c_s,
                              "supplied" if C_S is not None else "empirical",
                              rhs - lhs, bool(lhs <= rhs + check_slack(rhs)), ctx.extras)


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
        M = estimate_doubling(space)
        extras["doubling_estimate"] = M
        extras["sup_delta_ball_mass"] = sup_mass = float(ball_masses(space, [delta]).max())
        hyp.append(Hypothesis("geometrically_doubling", np.isfinite(M), f"M = {M}"))
        if theorem != "doubling_holder":
            hyp.append(Hypothesis("finite_sup_ball_mass", np.isfinite(sup_mass),
                                  f"sup = {sup_mass:.6g}"))
    want = {"bounded": None, "doubling_sob": "subcritical",
            "doubling_mt": "critical", "doubling_holder": "supercritical"}[theorem]
    if want is not None:
        hyp.append(Hypothesis("exponent_regime", regime == want,
                              f"regime = {regime}, wanted {want}"))
    elif regime == "mixed":
        hyp.append(Hypothesis("exponent_regime", False, "mixed regime"))
    if not all(h.holds for h in hyp):
        return _na_report(tag, scenario, hyp, extras)

    grad = _grad_norm(space, uv, sv, pv, q, mode, None, tol, extras)
    extras["norm_p"] = norm_p = luxemburg(uv, pv, w).value
    effective = regime if want is None else want

    if effective == "subcritical":
        gamma = sobolev_conjugate(Qv, sv, pv).values
        lhs_centered, _, _ = inf_centered_norm(uv, gamma, w)
        lhs = luxemburg(uv, gamma, w).value
        denom = norm_p + grad
        extras["centered_lhs"] = lhs_centered
        extras["centered_constant"] = _ratio(lhs_centered, grad)
    elif effective == "critical":
        lhs = _exp_average(uv, w, DEFAULT_MT_C1, grad)
        denom = 1.0
        extras["C1"] = DEFAULT_MT_C1
    else:
        alpha = holder_exponent(Qv, sv, pv).values
        extras["holder_seminorm"] = holder_seminorm(uv, alpha, space)
        lhs = float(np.max(np.abs(uv))) + extras["holder_seminorm"]
        denom = norm_p + grad
    extras["empirical_constant"] = _ratio(lhs, denom)
    return _bound_report(tag, scenario, hyp, lhs, denom, extras["empirical_constant"], C,
                         extras)


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
        nearest = int(np.argmin(np.where(space.dist[origin] > 0, space.dist[origin], np.inf)))
        h = float(space.dist[origin, nearest])
        quot = abs(uv[nearest] - uv[origin]) / h ** alpha0
        norms.append(m_norm)
        quotients.append(float(quot))
        gaps.append(h)
        bs.append(best_lower_constant(space, Qv, r_max=1.0).b_lower)
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

def _family_norm(space, support, L, s, p, q, family: str, u) -> float:
    """The family's norm (TL for "M", Besov for "N") of the explicit
    gradient of ``lipschitz_cutoff_gradient``, which must be a gradient of u."""
    seq, _, cert = _cutoff_sequence(space, support, L, s, q, u)
    if cert > _CERT_TOL:
        raise RuntimeError(f"cut-off family is not a gradient (violation {cert})")
    if family == "M":
        return mixed_norm_lp_lq(seq, p, q, space.weight).value
    return mixed_norm_lq_lp(seq, p, q, space.weight).value


def _cutoff_family(space, centers, radii, cutoffs, s, p, q, family, local: bool):
    """The proofs' test functions as (x, r, B(x, r), u, family norm) when that
    norm is positive; ``cutoffs(x, base)`` yields each (u, support, L) at a
    center and base radius.  ``local`` takes base phi(x, r) and needs u
    nonconstant on B(x, r); otherwise base r, on the whole space."""
    for x in centers:
        for r in radii:
            base = phi(space, x, r) if local else r
            if base <= 0:
                continue
            Br = ball(space, x, r) if local else None
            on = Br.members if local else slice(None)
            for u, support, L in cutoffs(x, base):
                if support.size == 0 or np.ptp(u[on]) == 0:
                    continue
                anorm = _family_norm(space, support, L, s, p, q, family, u)
                if anorm > 0:
                    yield x, r, Br, u, anorm


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
    ``moser``, ``holder``.  ``family`` picks the norm the test functions are
    measured in: ``"M"`` the TL scale, ``"N"`` the Besov scale.
    """
    if mode not in ("sobolev_global", "sobolev_local", "moser", "holder"):
        raise ValueError(f"unknown necessity mode {mode!r}")
    if family not in ("M", "N"):
        raise ValueError(f"unknown necessity family {family!r}; use 'M' or 'N'")
    sv = exponent_values(s, space.n)
    pv = exponent_values(p, space.n)
    qv = exponent_values(q, space.n, allow_inf=True)
    gamma = alpha = np.asarray(gamma_or_alpha, dtype=float)  # the mode's target field
    theorem = f"necessity_{mode}[{family}]"
    if space.n < 2:
        return _na_report(theorem, scenario, [Hypothesis("two_points", False,
                                                         f"n = {space.n}")])
    s_plus = float(sv.max())
    q_minus = float(qv.min())
    hyp = [Hypothesis("s_plus_admissible",
                      s_plus < 1.0 or (s_plus == 1.0 and not np.isfinite(q_minus)),
                      f"max s = {s_plus}, min q = {q_minus}")]
    if epsilon is None:
        epsilon = perfectness_resolution(space)
    lam = None
    if mode != "sobolev_global":
        lam = uniform_perfectness(space, epsilon)
        hyp.append(Hypothesis("uniformly_perfect", lam is not None,
                              f"lambda = {lam}, resolution epsilon = {epsilon}"))
    extras: dict = {"epsilon": epsilon, "lambda": lam, "family": family}
    # the mode's own hypothesis and C_lip are read only on admissible spaces
    if all(h.holds for h in hyp):
        c_lip = extras["C_lip"] = K.lipschitz_constant(q_minus, float(sv.min()), s_plus)
        if mode == "holder":
            hyp.append(Hypothesis(
                "s_dominates_alpha", bool(np.min(sv - alpha) >= -1e-12),
                "necessity forces s >= alpha; violated means embedding impossible"))
        elif mode != "moser":
            hyp.append(Hypothesis("gamma_dominates_p", strictly_dominates(gamma, pv),
                                  "gamma >> p"))
    if not all(h.holds for h in hyp):
        return _na_report(theorem, scenario, hyp, extras)

    if centers is None:
        centers = sorted({0, space.n // 2, space.n - 1})
    if radii is None:
        top = min(1.0 / sigma, space.diameter * 0.75)
        radii = [top, top / 2.0]

    def cutoffs(x, base):  # the annular u_j, j = 1..j_max, or one cone 1 - d/(lam r)
        if mode != "holder":
            return (annular_cutoff(space, x, base, j) for j in range(1, j_max + 1))
        d, R = space.dist[x], lam * base
        return [(np.clip(1.0 - d / R, 0.0, 1.0), np.flatnonzero(d < R), 1.0 / R)]

    family_args = (space, centers, radii, cutoffs, sv, pv, qv, family)
    s_range = dict(s_minus=float(sv.min()), s_plus=s_plus)

    if mode == "holder":
        Q = pv * (sv - alpha)
        c_emp = max([0.0, *(holder_seminorm(u, alpha, space) / anorm
                            for _, _, _, u, anorm in _cutoff_family(*family_args, local=False))])
        b_formula = K.necessity_b_holder(
            c_emp, c_lip, lam,
            p_minus=float(pv.min()), p_plus=float(pv.max()),
            s_plus=s_plus, alpha_plus=float(alpha.max()),
            c_log_s=log_holder_constant(sv, space),
            c_log_alpha=log_holder_constant(alpha, space),
            c_log_p=log_holder_constant(pv, space))
        eq_pts = np.flatnonzero(np.abs(sv - alpha) <= 1e-12)
        extras["equality_points"] = [int(x) for x in eq_pts]
        extras["atom_contradictions"] = [int(x) for x in eq_pts if int(x) not in space.atoms]
    elif mode == "moser":
        Q = sv * pv
        omega = 1.0 if omega is None else omega
        C_MT1 = DEFAULT_MT_C1 if C_MT1 is None else C_MT1
        extras.update({"omega": omega, "C_MT1": C_MT1})

        def score(x, r, Br, u_j, anorm):
            ub, wb = u_j[Br.members], space.weight[Br.members]
            c = _exp_shift(ub, wb, omega * C_MT1 / anorm)
            with np.errstate(over="ignore"):  # a score past the double range reads inf
                return _weighted_mean(np.exp(C_MT1 * np.abs(ub - c) / anorm) ** omega, wb)

        c_emp = max([1.0, *(score(*cut) for cut in _cutoff_family(*family_args, local=True))])
        b_formula = K.necessity_b_moser(C_MT1, c_emp, c_lip, lam, omega, **s_range,
                                        Q_minus=float(Q.min()), Q_plus=float(Q.max()))
    else:
        Q = gamma * sv * pv / (gamma - pv)
        local = mode == "sobolev_local"
        if local:
            omega = 1.0 / float(gamma.min()) if omega is None else omega
            extras["omega"] = omega

        def score(x, r, Br, u_j, anorm):
            if not local:
                return luxemburg(u_j, gamma, space.weight).value / anorm
            scale = (Br.measure / r ** Q[x]) ** omega
            if not scale > 0:
                return 0.0
            num, _, _ = inf_centered_norm(u_j[Br.members], gamma[Br.members],
                                          space.weight[Br.members])
            return num / (scale * anorm)

        c_emp = max([0.0, *(score(*cut) for cut in _cutoff_family(*family_args, local=local))])
        shape = dict(s_range, gamma_minus=float(gamma.min()), gamma_plus=float(gamma.max()),
                     Q_minus=float(Q.min()), Q_plus=float(Q.max()),
                     c_log_inv_gamma=log_holder_constant(1.0 / gamma, space),
                     c_log_gamma=log_holder_constant(gamma, space),
                     c_log_s=log_holder_constant(sv, space),
                     c_log_Q=log_holder_constant(Q, space))
        b_formula = (K.necessity_b_local_sobolev(c_emp, c_lip, lam, **shape) if local
                     else K.necessity_b_global_sobolev(c_emp, c_lip, **shape))

    b_emp = np.inf
    positive = np.flatnonzero(Q > 1e-12)  # centers with a genuinely positive exponent
    if positive.size:
        radii_scan = critical_radii(space, space.min_positive_distance(), 1.0)
        if radii_scan.size == 0:
            radii_scan = np.array([1.0])
        ratios = ball_masses(space, radii_scan, positive) / [radii_scan ** Q[x] for x in positive]
        x, j = divmod(int(np.argmin(ratios)), radii_scan.size)  # first center, then radius
        b_emp = min(b_emp, ratios[x, j])
        extras["witnesses"] = [(int(positive[x]), float(radii_scan[j]))] if b_emp < np.inf else []
    extras.update({"Q_derived": Q, "b_empirical": b_emp, "b_formula": b_formula,
                   "embedding_constant": c_emp})
    ok = bool(b_emp > 0 and b_emp >= b_formula - check_slack(b_formula))
    if mode == "holder":
        ok = ok and not extras["atom_contradictions"]
    return VerificationReport(theorem, scenario, hyp, b_formula, b_emp, c_emp,
                              "empirical", b_emp - b_formula, ok, extras)

"""Semimodulars and Luxemburg quasi-norms for variable exponents, mixed
sequence norms, variable Hoelder seminorms, and the median operator.

Functions here act on aligned value/weight/exponent vectors of a measure
space; callers restrict to subsets by slicing.  Infinite exponents are only
meaningful for the mixed-norm q parameter and follow the conventions
lambda**(1/inf) == 1 and pointwise sup for the inner sequence norm.

One routine, ``_level_roots``, solves every level equation
sum_i w_i u_i**p_i nu**(-e_i) = 1 with a certified Newton root: e = p gives
the Luxemburg norm, e = p/q the Besov level infima.  ``_bisect_level``
serves monotone predicates with no such equation (the lattice oracle and
the variable-q Besov bisection in ``gradients``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import exponent_values

__all__ = [
    "NormValue",
    "SequenceSample",
    "modular",
    "luxemburg",
    "rel_sandwich_check",
    "holder_inequality_check",
    "lebesgue_embedding_constant",
    "mixed_modular_lq_lp",
    "mixed_norm_lq_lp",
    "mixed_modular_closed_form",
    "mixed_norm_lp_lq",
    "pointwise_lq",
    "monotonicity_check",
    "holder_seminorm",
    "median",
    "median_bound_check",
    "check_slack",
]

DEFAULT_TOL = 1e-10
# growing powers of 2 cross the double range in ~65 steps, the level roots'
# factors 1 + 2**(i - 52) from the smallest subnormal in ~120
_MAX_GROWTH = 200
# halving steps that take the largest double below 1e-300, or a bracket as
# wide as the double range down to tol * hi
_MAX_STEPS = 2100
_ULP_NUDGES = 4
_MAX_NEWTON = 100
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_MAX = float(np.finfo(float).max)


def check_slack(rhs: float) -> float:
    """Additive slack for <= assertions: chained level solves compound error."""
    return 1e-8 + 1e-6 * abs(rhs)


@dataclass(frozen=True)
class NormValue:
    value: float
    tolerance: float
    kind: str = "luxemburg"

    def __float__(self):
        return float(self.value)

    def to_json(self) -> dict:
        return {"value": self.value, "tolerance": self.tolerance, "kind": self.kind}


def modular(u, p, weight) -> float:
    """Weighted variable-exponent modular: sum of w_i |u_i|**p_i."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, u.size)
    with np.errstate(over="ignore"):
        return float(np.sum(w * np.abs(u) ** pv))


def _rows_of(x, rows):
    """``x`` at ``rows`` when it is a matrix with one row per row, else ``x``
    (shared by the rows, or a scalar)."""
    return x[rows] if np.ndim(x) == 2 else x


def _modular_scaled(u_abs, pv, w, lam, r) -> np.ndarray:
    """sum_i w_i (u_i / lam**r_i)**p_i for each row of ``u_abs`` at its level
    ``lam``: modular(u/lam) for r = 1, a Besov level sum for r = 1/q.  A row
    is re-evaluated in log form when its direct sum is not finite (u/lam
    itself may overflow, far below max|u|) or when a nonzero base
    u/lam**r falls below the smallest normal double, so that an underflowed
    base cannot hide a large term; otherwise finite sums keep their bits.
    ``pv``, ``w`` and ``r`` are rows like ``u_abs`` or shared by all rows.
    The caller sets ``np.errstate``."""
    base = u_abs / lam[:, None] ** r
    total = (w * base ** pv).sum(axis=1)
    redo = ~np.isfinite(total) | ((base < _TINY) & (u_abs > 0.0)).any(axis=1)
    if redo.any():
        bad = np.flatnonzero(redo)
        pb, wb, rb = (_rows_of(x, bad) for x in (pv, w, r))
        total[bad] = np.exp(np.log(wb) + pb * (np.log(u_abs[bad]) - rb * np.log(lam[bad, None]))
                            ).sum(axis=1)
    return total


def _bisect_level(ok, hi: float, lo: float, tol: float, ulp_nudges: int = _ULP_NUDGES):
    """Smallest level at which a monotone predicate turns true, by
    bisection: ``ok(lam)`` returns ``(holds, payload)``, and the result is
    ``(hi, lo, payload)`` with the payload of the evaluation at hi.

    The predicate must hold at every level above one where it holds.
    ``hi`` is raised until it holds: by ``ulp_nudges`` ulps first (rounding
    on a closed-form seed), then by growing powers of 2, so that a seed
    underflowed to 0 reaches any scale.  ``lo`` is halved while it holds,
    moving ``hi`` down to it; below 1e-300 the search stops with ``lo = 0``,
    also when the ``lo`` seed is already there, so that ``hi - lo`` reports
    an unrefined ``hi``.  The bracket is then bisected until
    ``hi - lo <= tol * hi``.  The lattice oracle and the variable-q Besov
    bisection use it; the Luxemburg norm and the level infima take
    ``_level_roots`` instead.
    """
    payloads = {}

    def holds(lam):
        value, payloads[lam] = ok(lam)
        return value

    hi, lo = float(hi), float(lo)
    holds_hi = holds(hi)
    for i in range(_MAX_GROWTH):
        if holds_hi:
            break
        hi = (float(np.nextafter(hi, np.inf)) if i < ulp_nudges
              else hi * 2.0 ** (i - ulp_nudges + 1))
        holds_hi = holds(hi)
    for _ in range(_MAX_STEPS):
        if lo < 1e-300:
            return hi, 0.0, payloads[hi]
        if not holds(lo):
            break
        hi, lo = lo, lo * 0.5
    for _ in range(_MAX_STEPS):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi, lo, payloads[hi]


def luxemburg(u, p, weight, tol: float = DEFAULT_TOL) -> NormValue:
    """Luxemburg quasi-norm inf{ lam > 0 : modular(u/lam) <= 1 }.

    The level root of the modular (``_level_roots`` with e = p): Newton on
    log lam, then the smallest level tried at which ``_modular_scaled``
    certifies modular(u/lam) <= 1 (the unit-ball equivalence: modular <= 1
    iff norm <= 1).  The tolerance is that level minus the last Newton
    iterate, about 4 eps max(1, |log value|) of the value, so ``tol`` steers
    nothing (Newton runs to rounding); a norm below the double range is
    certified from 0 with a tolerance equal to its value.

    A matrix ``u`` gives one norm per row (value and tolerance are then
    arrays); ``p`` and ``weight`` are then vectors shared by the rows or
    matrices shaped like ``u``.  Each row's norm is the one it has alone.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(weight, dtype=float)
    if u.ndim < 2:
        u = np.atleast_1d(u)
        if u.size == 0:
            return NormValue(0.0, 0.0)
        pv = exponent_values(p, u.size)
        value, width = _level_roots(np.abs(u)[None], pv, pv, w)
        return NormValue(float(value[0]), float(width[0]))
    if np.ndim(p) == 2:
        pv = np.asarray(p, dtype=float)
        if pv.shape != u.shape:
            raise ValueError(f"expected exponent rows of shape {u.shape}, got {pv.shape}")
        exponent_values(pv.ravel(), pv.size)
    else:
        pv = exponent_values(p, u.shape[1])
    return NormValue(*_level_roots(np.abs(u), pv, pv, w))


def _level_roots(u_abs: np.ndarray, pv, ev, w):
    """Per row of ``u_abs`` (rows x n) the level infimum
    nu = inf{ nu > 0 : sum_i w_i u_i**p_i nu**(-e_i) <= 1 }, e = p/q (e = 0
    for q = inf: a fixed part), and the distance of the certified nu from
    the last Newton iterate.  e = p gives each row's Luxemburg norm, and
    e = p/q the Besov level infima (their term weights: ``_level_weights``).
    ``pv``, ``ev`` and ``w`` are vectors shared by the rows or matrices
    shaped like ``u_abs``.

    A fixed part above one (or at one beside a term with e > 0) gives inf, no
    such term 0.  Else t = log nu solves log sum_{e>0} exp(log a - e t) =
    log(1 - fixed), a = w u**p, convex and decreasing in t: Newton from the
    left end max_i (log a_i - log(1 - fixed)) / e_i rises monotonically to
    the root, for all rows at once and at any scale.  The candidate nu starts
    one stopping step above the last iterate and is raised, by one ulp or by
    a factor growing from one ulp, whichever is more, until
    ``_modular_scaled`` reads the sum at most one, so every nu is a certified
    upper end; one that underflowed to 0 rises to a positive nu whose
    distance is nu itself.
    """
    fixed, width = np.zeros(len(u_abs)), np.zeros(len(u_abs))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        la = np.log(w) + pv * np.log(u_abs)
        fin = ev > 0
        if not fin.all():
            la = np.where(fin, la, -np.inf)
            fixed = np.where(fin, 0.0, w * u_abs ** pv).sum(axis=1)
        pos = (la > -np.inf).any(axis=1)
        nu = np.where(pos | (fixed > 1.0), np.inf, 0.0)
        rows = np.flatnonzero(pos & (fixed < 1.0))
        if not rows.size:
            return nu, width
        if rows.size < len(u_abs):
            u_abs, la, fixed = u_abs[rows], la[rows], fixed[rows]
            pv, w, ev = (_rows_of(x, rows) for x in (pv, w, ev))
        if fixed.any():  # log sum_{e>0} exp(la - log(1 - fixed) - e t) = 0
            la = la - np.log(1.0 - fixed)[:, None]
        t = np.max(la / ev, axis=1)
        # after a step d the next is at most (e^+ - e^-)**2 d**2 / (8 e^-):
        # the second derivative, the variance of e under the term weights,
        # is at most (e^+ - e^-)**2 / 4 and the slope at least e^-
        e_lo = ev.min(axis=-1)
        curv = (ev.max(axis=-1) - e_lo) ** 2 / (8.0 * e_lo) * np.ones(rows.size)
        live = np.arange(rows.size)
        for _ in range(_MAX_NEWTON):
            e = _rows_of(ev, live)
            z = la[live] - e * t[live, None]
            zmax = z.max(axis=1)
            ez = np.exp(z - zmax[:, None])
            s = ez.sum(axis=1)
            step = (zmax + np.log(s)) * s / (ez * e).sum(axis=1)
            t[live] = tl = t[live] + step
            # a step that is not positive is rounding at the root; stop as
            # well where the next step cannot exceed that
            small = 4.0 * _EPS * np.maximum(1.0, np.abs(tl))
            live = live[(step > small) & (curv[live] * step * step > small)]
            if not live.size:
                break
        last = np.exp(t)
        # the certification starts at the upper end of the Newton stopping step
        root = np.exp(t + 4.0 * _EPS * np.maximum(1.0, np.abs(t)))
        r, live = ev / pv, np.arange(rows.size)
        for i in range(_MAX_GROWTH):
            if live.size == rows.size:
                total = _modular_scaled(u_abs, pv, w, root, r)
            else:
                total = _modular_scaled(u_abs[live], *(_rows_of(x, live) for x in (pv, w)),
                                        root[live], _rows_of(r, live))
            live = live[~(total <= 1.0)]
            if not live.size:
                break
            grow = root[live]
            root[live] = np.maximum(np.nextafter(grow, np.inf), grow * (1.0 + 2.0 ** (i - 52)))
    # an inf root above an inf iterate is unrefined
    nu[rows], width[rows] = root, root - np.minimum(last, _MAX)
    return nu, width


def _level_weights(u_abs: np.ndarray, pv, ev, w):
    """The level infima nu of the rows of ``u_abs`` (``_level_roots``) and
    the weights pi = a' / (e . a') of their terms a' = w u**p nu**(-e), zero
    on rows whose nu is 0 or inf; so d nu / d a_i = nu pi_i / a_i, and the
    row u / lam has d log nu / d log lam = -pi . p."""
    nu = _level_roots(u_abs, pv, ev, w)[0]
    pi = np.zeros(u_abs.shape)
    rows = np.flatnonzero((nu > 0.0) & (nu < np.inf))
    if rows.size:
        er = _rows_of(ev, rows)
        with np.errstate(divide="ignore"):
            z = (np.log(_rows_of(w, rows)) + _rows_of(pv, rows) * np.log(u_abs[rows])
                 - er * np.log(nu[rows, None]))
        terms = np.exp(z - z.max(axis=1, keepdims=True))
        pi[rows] = terms / (terms * er).sum(axis=1, keepdims=True)
    return nu, pi


def rel_sandwich_check(u, p, weight, tol: float = DEFAULT_TOL) -> dict:
    """Two-sided comparison of the norm with modular**(1/p^-), modular**(1/p^+)."""
    u = np.asarray(u, dtype=float)
    pv = exponent_values(p, u.size)
    rho = modular(u, pv, weight)
    nrm = luxemburg(u, pv, weight, tol).value
    lo_b = min(rho ** (1.0 / pv.min()), rho ** (1.0 / pv.max()))
    hi_b = max(rho ** (1.0 / pv.min()), rho ** (1.0 / pv.max()))
    return {
        "norm": nrm,
        "modular": rho,
        "lower": lo_b,
        "upper": hi_b,
        "lower_margin": nrm - lo_b,
        "upper_margin": hi_b - nrm,
        "ok": bool(lo_b - check_slack(nrm) <= nrm <= hi_b + check_slack(hi_b)),
    }


def holder_inequality_check(f, g, p, weight, tol: float = DEFAULT_TOL) -> dict:
    """Check integral of |f g| against 2 * ||f||_p * ||g||_p' (needs min p > 1)."""
    from .exponents import conjugate

    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, f.size)
    if pv.min() <= 1:
        raise ValueError("Hoelder check needs min p > 1")
    pc = conjugate(pv).values
    lhs = float(np.sum(w * np.abs(f * g)))
    rhs = 2.0 * luxemburg(f, pv, w, tol).value * luxemburg(g, pc, w, tol).value
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf),
            "ok": bool(lhs <= rhs + check_slack(rhs))}


def lebesgue_embedding_constant(p, q, weight, tol: float = DEFAULT_TOL) -> float:
    """Explicit constant for the inclusion of the q(.)-space in the p(.)-space
    on finite measure: 2**(1/p^-) * max over the two powers of the norm of 1
    in the conjugate of t = q/p.
    """
    from .exponents import conjugate, strictly_dominates

    w = np.asarray(weight, dtype=float)
    n = w.size
    pv = exponent_values(p, n)
    qv = exponent_values(q, n)
    if not strictly_dominates(qv, pv):
        raise ValueError("requires q >> p (pointwise gap bounded away from zero)")
    t = qv / pv
    tc = conjugate(t).values
    one = np.ones(n)
    norm_one = luxemburg(one, tc, w, tol).value
    p_minus, p_plus = float(pv.min()), float(pv.max())
    return float(2.0 ** (1.0 / p_minus)
                 * max(norm_one ** (1.0 / p_plus), norm_one ** (1.0 / p_minus)))


# -- mixed sequence spaces ---------------------------------------------------

@dataclass(frozen=True)
class SequenceSample:
    """Dyadic family {u_k}: row r of ``values`` is level k_min + r."""

    k_min: int
    values: np.ndarray  # shape (levels, n)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)

    @property
    def k_max(self) -> int:
        return self.k_min + self.values.shape[0] - 1

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def level(self, k: int) -> np.ndarray:
        if not self.k_min <= k <= self.k_max:
            return np.zeros(self.n)
        return self.values[k - self.k_min]

    def scaled(self, factor) -> "SequenceSample":
        return SequenceSample(self.k_min, self.values * factor)


def mixed_modular_lq_lp(seq: SequenceSample, p, q, weight) -> float:
    """Sequence-space semimodular: the level sum of certified per-level
    infima (``_level_roots``); inf when some level admits none."""
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    qv = exponent_values(q, seq.n, allow_inf=True)
    return float(_level_roots(np.abs(seq.values), pv, pv / qv, w)[0].sum())


def mixed_modular_closed_form(seq: SequenceSample, p, q, weight,
                              tol: float = DEFAULT_TOL) -> float:
    """Closed form of the sequence semimodular for finite q: sum over levels
    of the Luxemburg norm of |u_k|**q(.) with exponent p(.)/q(.)."""
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    qv = exponent_values(q, seq.n, allow_inf=True)
    if np.any(np.isinf(qv)):
        raise ValueError("closed form needs max q < inf")
    total = 0.0
    for row in seq.values:
        total += luxemburg(np.abs(row) ** qv, pv / qv, w, tol).value
    return float(total)


def mixed_norm_lq_lp(seq: SequenceSample, p, q, weight, tol: float = DEFAULT_TOL) -> NormValue:
    """Outer Luxemburg norm of the sequence semimodular (Besov scale): the
    smallest lam tried whose level sum of certified infima of u / lam
    (``_level_roots``) is at most one; the tolerance is the bracket width.

    Newton on log sum_k nu_k in x = log lam (linear for constant q) starts
    at top L**(1/q^-), top the largest level's Lebesgue norm, where each of
    the L levels is at most 1/L.  A step out of the bracket of probes, or a
    sum of 0 or inf, bisects, or doubles away from the one end found.
    Probes overshoot Newton's root by tol/16, so that converged steps close
    the bracket from both sides.
    """
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    qv = exponent_values(q, seq.n, allow_inf=True)
    ev = pv / qv
    u_abs = np.abs(seq.values)
    if not u_abs.any():
        return NormValue(0.0, 0.0, kind="mixed_lqp")

    def lam_at(x: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(x))

    def probe(x: float):
        """The level sum at lam = e**x and the derivative of its log in x."""
        nu, pi = _level_weights(np.abs(seq.values * (1.0 / lam_at(x))), pv, ev, w)
        total = float(nu.sum())
        with np.errstate(invalid="ignore"):
            return total, -float(nu @ (pi @ pv)) / total if 0.0 < total < np.inf else np.nan

    width = -math.log1p(-tol)
    lo, hi = -np.inf, np.inf
    x = (math.log(float(_level_roots(u_abs, pv, pv, w)[0].max()))
         + math.log(u_abs.shape[0]) / float(qv.min()))
    for i in range(_MAX_STEPS):
        s, d = probe(x)
        lo, hi = (lo, x) if s <= 1.0 else (x, hi)
        if hi - lo <= width:
            break
        shift = width / 16.0 if s > 1.0 else -width / 16.0
        nx = x - math.log(s) / d + shift if 0.0 < s < np.inf and d < 0.0 else np.nan
        if not lo < nx < hi:
            nx = 0.5 * (lo + hi) if np.isfinite(lo + hi) else x + 16.0 * shift * 2.0 ** i
        x = nx
    # the width lam(hi) (1 - e**(lo - hi)) without cancellation: at most tol lam(hi)
    return NormValue(lam_at(hi), -lam_at(hi) * math.expm1(lo - hi), kind="mixed_lqp")


def pointwise_lq(seq: SequenceSample, q) -> np.ndarray:
    """Pointwise inner sequence norm: sup over levels where q(x) = inf,
    else the q(x)-sum root."""
    qv = exponent_values(q, seq.n, allow_inf=True)
    vals = np.abs(seq.values)
    out = np.empty(seq.n)
    inf_mask = np.isinf(qv)
    if inf_mask.any():
        out[inf_mask] = vals[:, inf_mask].max(axis=0)
    fin = ~inf_mask
    if fin.any():
        with np.errstate(over="ignore"):
            out[fin] = np.sum(vals[:, fin] ** qv[fin], axis=0) ** (1.0 / qv[fin])
    return out


def mixed_norm_lp_lq(seq: SequenceSample, p, q, weight, tol: float = DEFAULT_TOL) -> NormValue:
    """Pointwise inner sequence norm followed by the Lebesgue norm (TL scale)."""
    inner = pointwise_lq(seq, q)
    nv = luxemburg(inner, p, weight, tol)
    return NormValue(nv.value, nv.tolerance, kind="mixed_plq")


def monotonicity_check(seq: SequenceSample, p, q1, q2, weight,
                       tol: float = DEFAULT_TOL) -> dict:
    """Raising q can only lower both mixed norms (checked on both scales)."""
    q1v = exponent_values(q1, seq.n, allow_inf=True)
    q2v = exponent_values(q2, seq.n, allow_inf=True)
    if np.any(q2v < q1v):
        raise ValueError("needs q1 <= q2 pointwise")
    besov1 = mixed_norm_lq_lp(seq, p, q1v, weight, tol).value
    besov2 = mixed_norm_lq_lp(seq, p, q2v, weight, tol).value
    tl1 = mixed_norm_lp_lq(seq, p, q1v, weight, tol).value
    tl2 = mixed_norm_lp_lq(seq, p, q2v, weight, tol).value
    return {
        "besov": (besov1, besov2),
        "tl": (tl1, tl2),
        "ok": bool(besov2 <= besov1 + check_slack(besov1)
                   and tl2 <= tl1 + check_slack(tl1)),
    }


def interpolation_splitting_check(u, q0, q, q1, weight, tol: float = DEFAULT_TOL) -> dict:
    """Splitting inequality behind interpolation of Lebesgue-scale bounds:
    the q(.)-modular of u is controlled by twice the product of the norms of
    |u|**t1 and |u|**t2 with the conjugate pair w, w' built from q0, q, q1.

    Requires q0 << q << q1 pointwise (gaps bounded away from zero).
    """
    u = np.asarray(u, dtype=float)
    wgt = np.asarray(weight, dtype=float)
    q0v = exponent_values(q0, u.size)
    qv = exponent_values(q, u.size)
    q1v = exponent_values(q1, u.size)
    if not (np.min(qv - q0v) > 0 and np.min(q1v - qv) > 0):
        raise ValueError("needs q0 << q << q1 pointwise")
    t1 = q0v * (q1v - qv) / (q1v - q0v)
    t2 = q1v * (qv - q0v) / (q1v - q0v)
    w_exp = (q1v - q0v) / (q1v - qv)
    w_conj = (q1v - q0v) / (qv - q0v)
    lhs = modular(u, qv, wgt)
    rhs = 2.0 * (luxemburg(np.abs(u) ** t1, w_exp, wgt, tol).value
                 * luxemburg(np.abs(u) ** t2, w_conj, wgt, tol).value)
    return {"lhs": lhs, "rhs": rhs,
            "conjugacy_error": float(np.max(np.abs(1.0 / w_exp + 1.0 / w_conj - 1.0))),
            "ok": bool(lhs <= rhs + check_slack(rhs))}


# -- Hoelder seminorm and median --------------------------------------------

def holder_seminorm(u, alpha, space, subset=None):
    """Exact max over ordered pairs of |u(x)-u(y)| / d(x,y)**alpha(x).

    Asymmetric: the exponent is taken at the first argument, so both (x, y)
    and (y, x) are scanned.  A matrix ``u`` gives one seminorm per row (an
    array); the rows share one table of d**alpha.
    """
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    uv = np.asarray(u, dtype=float)
    rows = np.atleast_2d(uv)[:, idx]
    if idx.size < 2:
        return 0.0 if uv.ndim == 1 else np.zeros(len(rows))
    av = exponent_values(alpha, space.n)[idx] if np.ndim(alpha) else np.full(idx.size, float(alpha))
    d_alpha = space.dist[np.ix_(idx, idx)] ** av[:, None]
    off = ~np.eye(idx.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.array([np.max(np.where(off, np.abs(r[:, None] - r[None, :]) / d_alpha, 0.0))
                        for r in rows])
    return float(out[0]) if uv.ndim == 1 else out


def median(u, weight) -> float:
    """Largest t with mu({u < t}) <= mu(E)/2, exact via cumulative weights."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(weight, dtype=float)
    if u.size == 0 or w.sum() <= 0:
        raise ValueError("median needs a set of positive measure")
    half = 0.5 * float(w.sum())
    vals, inverse = np.unique(u, return_inverse=True)
    mass = np.zeros(vals.size)
    np.add.at(mass, inverse, w)
    cum = np.cumsum(mass)  # mu({u <= vals[j]})
    # mu({u < t}) = cum[j-1] for t in (vals[j-1], vals[j]]; the condition
    # holds up to the first value whose inclusive mass exceeds half
    exceeding = np.flatnonzero(cum > half)
    j = int(exceeding[0]) if exceeding.size else vals.size - 1
    return float(vals[j])


def median_bound_check(u, weight, p, c: float, tol: float = DEFAULT_TOL) -> dict:
    """Distance of the median from c against the explicit multiple of the
    Lebesgue norm of u - c."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, u.size)
    m = median(u, w)
    mu_e = float(w.sum())
    factor = max(2.0, (2.0 / mu_e) ** (1.0 / pv.min()))
    rhs = factor * luxemburg(u - c, pv, w, tol).value
    lhs = abs(m - c)
    return {"median": m, "lhs": lhs, "rhs": rhs, "factor": factor,
            "margin": rhs - lhs, "ok": bool(lhs <= rhs + check_slack(rhs))}

"""Semimodulars and Luxemburg quasi-norms for variable exponents, mixed
sequence norms, variable Hoelder seminorms, and the median operator.

Functions here act on aligned value/weight/exponent vectors of a measure
space; callers restrict to subsets by slicing.  Infinite exponents are only
meaningful for the mixed-norm q parameter and follow the conventions
lambda**(1/inf) == 1 and pointwise sup for the inner sequence norm.
"""
from __future__ import annotations

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
_MAX_GROWTH = 200  # growing powers of 2 cross the double range in ~65 steps
# halving steps that take the largest double below 1e-300, or a bracket as
# wide as the double range down to tol * hi
_MAX_STEPS = 2100
_ULP_STEPS = 4
_TINY = float(np.finfo(float).tiny)  # smallest normal double


def check_slack(rhs: float) -> float:
    """Additive slack for <= assertions: nested bisections compound error."""
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


def _modular_scaled(u_abs, pv, w, lam: float, log_above: float) -> float:
    """modular(u/lam), re-evaluated in log form when the direct sum overflows
    (u/lam itself may, far below max|u|) or when lam exceeds ``log_above``,
    the level at which the smallest nonzero |u|/lam falls below the smallest
    normal double, so that an underflowed u/lam cannot hide a large term;
    otherwise finite sums keep their bits."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = float(np.sum(w * (u_abs / lam) ** pv)) if lam <= log_above else np.inf
        if total == np.inf:
            total = float(np.sum(np.exp(np.log(w) + pv * (np.log(u_abs) - np.log(lam)))))
    return total


def _bisect_level(ok, hi: float, lo: float, tol: float, ulp_steps: int = _ULP_STEPS):
    """Smallest level at which the monotone predicate ``ok`` turns true.

    ``ok(lam)`` returns ``(holds, payload)`` and must hold at every level
    above one where it holds.  ``hi`` is raised until ``ok(hi)`` holds: by
    ``ulp_steps`` ulps first (rounding on a closed-form seed), then by
    growing powers of 2, so that a seed underflowed to 0 reaches any scale.
    ``lo`` is halved while ``ok(lo)`` holds, moving ``hi`` down to it; below
    1e-300 the search stops with ``lo = 0``, also when the ``lo`` seed is
    already there, so that ``hi - lo`` reports an unrefined ``hi``.  The
    bracket is then bisected until ``hi - lo <= tol * hi``.

    Returns ``(hi, lo, payload)`` with the payload of the evaluation at hi.
    """
    holds, best = ok(hi)
    for i in range(_MAX_GROWTH):
        if holds:
            break
        hi = (float(np.nextafter(hi, np.inf)) if i < ulp_steps
              else hi * 2.0 ** (i - ulp_steps + 1))
        holds, best = ok(hi)
    for _ in range(_MAX_STEPS):
        if lo < 1e-300:
            return hi, 0.0, best
        holds, payload = ok(lo)
        if not holds:
            break
        hi, best = lo, payload
        lo *= 0.5
    for _ in range(_MAX_STEPS):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        holds, payload = ok(mid)
        if holds:
            hi, best = mid, payload
        else:
            lo = mid
    return hi, lo, best


def _sandwich(rho: float, e: np.ndarray) -> tuple[float, float]:
    """Ends of the modular sandwich, in increasing order.

    The level lam with sum_i a_i lam**(-e_i) == 1 lies between
    rho**(1/e^-) and rho**(1/e^+), rho = sum_i a_i; both are lam when e is
    constant.  An end that overflows is inf.
    """
    ends = []
    for ex in (float(e.min()), float(e.max())):
        try:
            ends.append(rho ** (1.0 / ex))
        except OverflowError:
            ends.append(np.inf)
    return min(ends), max(ends)


def luxemburg(u, p, weight, tol: float = DEFAULT_TOL) -> NormValue:
    """Luxemburg quasi-norm inf{ lam > 0 : modular(u/lam) <= 1 }.

    The map lam -> modular(u/lam) is nonincreasing, so monotone bisection
    brackets the infimum; the unit-ball equivalence (modular <= 1 iff norm
    <= 1) is the stopping criterion.  Returns the upper bracket end, whose
    modular is certified <= 1.
    """
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        return NormValue(0.0, 0.0)
    return _luxemburg(u, exponent_values(p, u.size), np.asarray(weight, dtype=float), tol)


def _luxemburg(u: np.ndarray, pv: np.ndarray, w: np.ndarray, tol: float) -> NormValue:
    """``luxemburg`` on an already validated exponent vector.

    The bracket is seeded from the modular sandwich: with umax = max|u| and
    rho = modular(u/umax) the norm lies between umax rho**(1/p^+) and
    umax rho**(1/p^-), with equality when p is constant.  When the lower end
    underflows below 1e-300, both ends are taken in log form.  An end that
    overflows is replaced as in ``_level_infimum``, and ``_bisect_level``
    checks both ends against the modular before use.
    """
    u_abs = np.abs(u)
    umax = float(u_abs.max(initial=0.0))
    if umax == 0.0:
        return NormValue(0.0, 0.0)
    log_above = float(u_abs[u_abs > 0].min()) / _TINY
    rho = _modular_scaled(u_abs, pv, w, umax, log_above)
    lo, hi = (umax * end for end in _sandwich(rho, pv))
    if lo < 1e-300:  # rho**(1/p) underflowed, umax times it need not
        with np.errstate(divide="ignore"):
            ends = np.exp(np.log(umax) + np.log(rho) / np.array([pv.min(), pv.max()]))
        lo, hi = float(ends.min()), float(ends.max())
    # a lower end that overflows means rho > 1, so the norm exceeds umax; an
    # upper end that overflows is grown from the lower one, and a lower end
    # below the floor is replaced by walking down from the upper one
    lo = umax if lo == np.inf else lo
    hi = hi if hi < np.inf else lo
    lo = lo * (1.0 - 1e-12) if lo >= 1e-300 else 0.5 * hi
    hi, lo, _ = _bisect_level(
        lambda lam: (_modular_scaled(u_abs, pv, w, lam, log_above) <= 1.0, None), hi, lo, tol)
    return NormValue(float(hi), float(hi - lo))


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


def _level_infimum(u_k: np.ndarray, pv: np.ndarray, qv: np.ndarray, w: np.ndarray,
                   tol: float) -> float:
    """inf{ lam > 0 : modular(u_k / lam**(1/q(.))) <= 1 } with lam**(1/inf)=1.

    Returns inf (possibly 0) or numpy.inf when no lam is admissible.
    """
    u_abs = np.abs(np.asarray(u_k, dtype=float))
    if not u_abs.any():
        return 0.0
    inf_mask = np.isinf(qv)
    fixed = float(np.sum(w[inf_mask] * u_abs[inf_mask] ** pv[inf_mask])) if inf_mask.any() else 0.0
    if fixed > 1.0:
        return np.inf
    fin = ~inf_mask
    if not np.any(u_abs[fin] > 0):
        return 0.0
    budget = 1.0 - fixed
    if budget <= 0.0:
        return np.inf
    a = w[fin] * u_abs[fin] ** pv[fin]
    e = pv[fin] / qv[fin]

    def ok(lam: float):
        with np.errstate(over="ignore", divide="ignore"):
            return fixed + float(np.sum(a * lam ** (-e))) <= 1.0, None

    lo, hi = _sandwich(float(np.sum(a)) / budget, e)
    if lo == np.inf:
        return np.inf  # the level is at least the lower end
    # an upper end that overflows is grown from the lower one, and a lower
    # end below the floor is replaced by walking down from the upper one
    hi = hi if hi < np.inf else lo
    lo = lo * (1.0 - 1e-12) if lo >= 1e-300 else 0.5 * hi
    hi, _, _ = _bisect_level(ok, hi, lo, tol)
    return float(hi)


def mixed_modular_lq_lp(seq: SequenceSample, p, q, weight, tol: float = 1e-12,
                        cross_check: bool = False) -> float:
    """Sequence-space semimodular: sum over levels of the per-level infima.

    With ``cross_check`` and finite q everywhere, the closed form (level sum
    of Luxemburg norms of |u_k|**q with exponent p/q) is also evaluated and
    must agree within 10 * tol relative.
    """
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    qv = exponent_values(q, seq.n, allow_inf=True)
    total = 0.0
    for row in seq.values:
        total += _level_infimum(row, pv, qv, w, tol)
        if np.isinf(total):
            return np.inf
    if cross_check and np.all(np.isfinite(qv)):
        other = mixed_modular_closed_form(seq, pv, qv, w, max(tol, 1e-12))
        if abs(total - other) > 10.0 * max(tol, 1e-8) * max(1.0, abs(total)):
            raise AssertionError(
                f"semimodular cross-check failed: {total} vs closed form {other}")
    return float(total)


def mixed_modular_closed_form(seq: SequenceSample, p, q, weight,
                              tol: float = DEFAULT_TOL) -> float:
    """Closed form of the sequence semimodular for finite q: sum over levels
    of the Luxemburg norm of |u_k|**q(.) with exponent p(.)/q(.).
    """
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    qv = exponent_values(q, seq.n, allow_inf=True)
    if np.any(np.isinf(qv)):
        raise ValueError("closed form needs max q < inf")
    total = 0.0
    for row in seq.values:
        total += _luxemburg(np.abs(row) ** qv, pv / qv, w, tol).value
    return float(total)


def mixed_norm_lq_lp(seq: SequenceSample, p, q, weight, tol: float = DEFAULT_TOL) -> NormValue:
    """Outer Luxemburg norm of the sequence semimodular (Besov scale)."""
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    qv = exponent_values(q, seq.n, allow_inf=True)
    if not np.abs(seq.values).any():
        return NormValue(0.0, 0.0, kind="mixed_lqp")
    top = max(_luxemburg(row, pv, w, tol).value for row in seq.values)
    if np.all(np.isinf(qv)):
        # modular of the scaled family is 0/inf: the norm is the sup of the
        # per-level Lebesgue norms
        return NormValue(top, tol * top, kind="mixed_lqp")

    def ok(lam: float):
        return mixed_modular_lq_lp(seq.scaled(1.0 / lam), pv, qv, w,
                                   tol=min(tol, 1e-12)) <= 1.0, None

    # below the largest level norm one level infimum alone exceeds 1; at
    # that norm times L**(1/q^-) every one of the L levels has infimum <= 1/L
    lo = max(top, 1e-12)
    hi = lo * seq.values.shape[0] ** (1.0 / float(qv.min()))
    hi, lo, _ = _bisect_level(ok, hi, lo, tol)
    return NormValue(float(hi), float(hi - lo), kind="mixed_lqp")


def mixed_norm_lq_lp_constant_q(seq: SequenceSample, p, q_const: float, weight,
                                tol: float = DEFAULT_TOL) -> NormValue:
    """Constant-q shortcut: the level norm of the per-level Lebesgue norms.

    Agrees with the definitional bisection (cross-checked in the tests);
    used internally when the level count is large.
    """
    w = np.asarray(weight, dtype=float)
    pv = exponent_values(p, seq.n)
    per = np.array([_luxemburg(row, pv, w, tol).value for row in seq.values])
    if np.isinf(q_const):
        value = float(per.max(initial=0.0))
    else:
        value = float(np.sum(per ** q_const) ** (1.0 / q_const))
    return NormValue(value, tol * value, kind="mixed_lqp")


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

def holder_seminorm(u, alpha, space, subset=None) -> float:
    """Exact max over ordered pairs of |u(x)-u(y)| / d(x,y)**alpha(x).

    Asymmetric: the exponent is taken at the first argument, so both (x, y)
    and (y, x) are scanned.
    """
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    if idx.size < 2:
        return 0.0
    uv = np.asarray(u, dtype=float)[idx]
    av = exponent_values(alpha, space.n)[idx] if np.ndim(alpha) else np.full(idx.size, float(alpha))
    d = space.dist[np.ix_(idx, idx)]
    gaps = np.abs(uv[:, None] - uv[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = gaps / d ** av[:, None]
    quot[np.eye(idx.size, dtype=bool)] = 0.0
    return float(np.max(quot))


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

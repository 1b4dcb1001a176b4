"""Variable exponent fields: order relations, log-regularity constants,
derived exponents (Sobolev conjugate, Hoelder exponent, Lebesgue conjugate).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExponentField",
    "exponent_values",
    "field_from_spec",
    "restricted_bounds",
    "strictly_dominates",
    "log_holder_constant",
    "log_regularity",
    "log_comparison_bounds",
    "sobolev_conjugate",
    "holder_exponent",
    "conjugate",
]


@dataclass(frozen=True)
class ExponentField:
    """Per-point values of a variable exponent.

    Values must be positive; ``inf`` entries are only legal when
    ``allow_inf`` is set (the mixed-norm q exponents), every other use
    rejects them so the convention lambda**(1/inf) == 1 cannot leak into
    arithmetic where the source material does not permit it.
    """

    values: np.ndarray
    name: str = ""
    allow_inf: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("exponent values must be a vector")
        if np.any(np.isnan(vals)) or np.any(vals <= 0):
            raise ValueError(f"exponent {self.name!r} must be positive")
        if not self.allow_inf and np.any(np.isinf(vals)):
            raise ValueError(f"exponent {self.name!r} does not permit infinite values")

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    def __len__(self):
        return self.values.size

    @property
    def n(self) -> int:
        return self.values.size

    def inf(self) -> float:
        return float(self.values.min())

    def sup(self) -> float:
        return float(self.values.max())

    @property
    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def restrict(self, indices) -> "ExponentField":
        return ExponentField(self.values[np.asarray(indices, dtype=int)],
                             name=self.name, allow_inf=self.allow_inf)

    def to_json(self) -> dict:
        return {"name": self.name, "values": self.values.tolist()}


def exponent_values(p, n: int, allow_inf: bool = False) -> np.ndarray:
    """Coerce an ExponentField, array, or scalar to a length-n value vector."""
    if isinstance(p, ExponentField):
        vals = p.values
    else:
        vals = np.asarray(p, dtype=float)
    if vals.ndim == 0:
        vals = np.full(n, float(vals))
    if vals.shape != (n,):
        raise ValueError(f"expected {n} exponent values, got shape {vals.shape}")
    if not vals.size:
        return vals
    if not vals.min() > 0:  # also NaN
        raise ValueError("exponents must be positive")
    if not allow_inf and vals.max() == np.inf:
        raise ValueError("infinite exponent not permitted here")
    return vals


def _index(value, field: str, size: int | None = None) -> int:
    """An index or count field of a scenario (a point, a level, a seed, an
    axis, a grid size) as an int; a non-integral number, a bool or a
    non-number is an error rather than truncated.  With ``size`` (the number
    of points or of axes) it must index into that many, in [0, size), so a
    negative index cannot wrap to the end."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.number))
            or not float(value).is_integer()):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if size is not None and not 0 <= value < size:
        raise ValueError(f"{field} must lie in [0, {size}), got {value!r}")
    return int(value)


def field_from_spec(spec, n: int, name: str = "", coords=None) -> ExponentField:
    """Expand a formula spec to a per-point field.

    Supported forms: {"constant": c}, {"values": [...]},
    {"formula": {"type": "two_zone", "inside": a, "outside": b, "zone": [...]}},
    {"formula": {"type": "affine", "axis": k, "intercept": a, "slope": b}}
    (affine reads the points' coordinates, ``coords``, an n x d array).
    """
    allow_inf = name in ("q", "q1", "q2")
    if isinstance(spec, (int, float)):
        return ExponentField(np.full(n, float(spec)), name=name, allow_inf=allow_inf)
    if "constant" in spec:
        return ExponentField(np.full(n, float(spec["constant"])), name=name, allow_inf=allow_inf)
    if "values" in spec:
        return ExponentField(np.asarray(spec["values"], dtype=float), name=name, allow_inf=allow_inf)
    formula = spec["formula"]
    kind = formula["type"]
    if kind == "two_zone":
        vals = np.full(n, float(formula["outside"]))
        vals[[_index(i, f"exponent {name!r}: two_zone zone", n) for i in formula["zone"]]] = \
            float(formula["inside"])
        return ExponentField(vals, name=name, allow_inf=allow_inf)
    if kind == "affine":
        if coords is None:
            raise ValueError(f"exponent {name!r}: affine formula needs a space with coordinates")
        coords = np.asarray(coords, dtype=float)
        axis = _index(formula.get("axis", 0), f"exponent {name!r}: affine axis",
                      coords.shape[1])
        vals = float(formula["intercept"]) + float(formula["slope"]) * coords[:, axis]
        return ExponentField(vals, name=name, allow_inf=allow_inf)
    raise ValueError(f"unknown exponent formula type {kind!r}")


def restricted_bounds(f, E) -> tuple[float, float]:
    """Exact (min, max) of the field over the point set E."""
    idx = np.asarray(E, dtype=int)
    if idx.size == 0:
        raise ValueError("E must be nonempty")
    vals = np.asarray(f, dtype=float)[idx]
    return float(vals.min()), float(vals.max())


def strictly_dominates(f, g) -> bool:
    """The relation f >> g: min over points of (f - g) is positive."""
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    if fv.shape != gv.shape:
        raise ValueError("fields must have equal length")
    return bool(np.min(fv - gv) > 0)


def log_holder_constant(f, space, subset=None) -> float:
    """Smallest C with |f(x)-f(y)| <= C / log(e + 1/d(x,y)) over all pairs.

    Exact max over the O(n^2) pairs; 0 for constant fields, which skip the
    pair scan.
    """
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    vals = np.asarray(f, dtype=float)[idx]
    if idx.size < 2 or np.ptp(vals) == 0:
        return 0.0
    d = space.dist[np.ix_(idx, idx)]
    iu = np.triu_indices(idx.size, k=1)
    gaps = np.abs(vals[:, None] - vals[None, :])[iu]
    return float(np.max(gaps * np.log(np.e + 1.0 / d[iu])))


def log_regularity(f, space, subset=None) -> dict:
    """Both log-regularity constants of a field: C_log(f) and C_log(1/f).

    Membership in the log-regular bounded class is governed by C_log(1/f);
    each checker documents which of the two constants it consumes.
    """
    vals = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore"):
        inv = 1.0 / vals
    c_direct = log_holder_constant(vals, space, subset)
    c_inverse = log_holder_constant(inv, space, subset)
    return {
        "C_log": c_direct,
        "C_log_inv": c_inverse,
        "bounded": bool(np.all(np.isfinite(vals))),
        "in_P_log_b": bool(np.isfinite(c_inverse) and np.all(np.isfinite(vals))),
    }


def log_comparison_bounds(t, space, ball, R: float | None = None) -> dict:
    """Check the three log-regularity comparison inequalities on a ball.

    (i) two-sided sandwich of (1/R)**(1/t(x)) between the extremal exponents
        (needs R >= 2 * radius), (ii) the radius-power bound
        r**(1/t_B^+ - 1/t_B^-) <= e**C * 2**(1/t_B^- - 1/t_B^+), and
    (iii) comparability of d(x,y)**(1/t(x)) and d(x,y)**(1/t(y)) with the
        explicit factor M(r, t) = max{1, (2r)**(2/t_B^-), e**C}.
    All three consume C = C_log(1/t) computed on the ball members.
    """
    members = np.asarray(ball.members, dtype=int)
    report: dict = {"hypotheses": {}, "checks": {}}
    if members.size == 0:
        report["hypotheses"]["nonempty"] = False
        return report
    report["hypotheses"]["nonempty"] = True
    tv = np.asarray(t, dtype=float)[members]
    c_log = log_holder_constant(1.0 / np.asarray(t, dtype=float), space, members)
    t_minus, t_plus = float(tv.min()), float(tv.max())
    r = float(ball.radius)
    report["C_log_inv"] = c_log
    slack = 1e-12

    if R is not None:
        report["hypotheses"]["R_ge_2r"] = bool(R >= 2 * r)
        lo = np.exp(-c_log) * (1.0 / R) ** (1.0 / t_minus)
        hi = np.exp(c_log) * (1.0 / R) ** (1.0 / t_plus)
        mid = (1.0 / R) ** (1.0 / tv)
        report["checks"]["sandwich"] = {
            "ok": bool(np.all(mid >= lo - slack) and np.all(mid <= hi + slack)),
            "worst_lower_margin": float(np.min(mid - lo)),
            "worst_upper_margin": float(np.min(hi - mid)),
        }

    lhs_ii = r ** (1.0 / t_plus - 1.0 / t_minus)
    rhs_ii = np.exp(c_log) * 2.0 ** (1.0 / t_minus - 1.0 / t_plus)
    report["checks"]["radius_power"] = {
        "ok": bool(lhs_ii <= rhs_ii + slack),
        "margin": float(rhs_ii - lhs_ii),
    }

    m_rt = max(1.0, (2.0 * r) ** (2.0 / t_minus), np.exp(c_log))
    report["M"] = float(m_rt)
    ok = True
    worst = np.inf
    for a in range(members.size):
        for b in range(a + 1, members.size):
            d = space.dist[members[a], members[b]]
            da = d ** (1.0 / tv[a])
            db = d ** (1.0 / tv[b])
            lo_m = db / m_rt
            hi_m = db * m_rt
            worst = min(worst, da - lo_m, hi_m - da)
            if not (lo_m - slack <= da <= hi_m + slack):
                ok = False
    report["checks"]["comparability"] = {"ok": ok, "worst_margin": float(worst) if members.size > 1 else 0.0}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def _pointwise_field(values: np.ndarray, name: str) -> ExponentField:
    return ExponentField(values, name=name)


def sobolev_conjugate(Q, s, p) -> ExponentField:
    """Pointwise Q p / (Q - s p); requires s p strictly below Q everywhere."""
    Qv = np.asarray(Q, dtype=float)
    sv = np.asarray(s, dtype=float)
    pv = np.asarray(p, dtype=float)
    den = Qv - sv * pv
    if np.any(den <= 0):
        i = int(np.argmin(den))
        raise ValueError(f"s*p must stay below Q; violated at point {i} "
                         f"(s*p={sv[i]*pv[i]}, Q={Qv[i]})")
    return _pointwise_field(Qv * pv / den, "gamma")


def holder_exponent(Q, s, p) -> ExponentField:
    """Pointwise s - Q/p; requires s p strictly above Q for positivity."""
    Qv = np.asarray(Q, dtype=float)
    sv = np.asarray(s, dtype=float)
    pv = np.asarray(p, dtype=float)
    alpha = sv - Qv / pv
    if np.any(alpha <= 0):
        i = int(np.argmin(alpha))
        raise ValueError(f"s*p must stay above Q for a positive exponent; "
                         f"violated at point {i} (s*p={sv[i]*pv[i]}, Q={Qv[i]})")
    return _pointwise_field(alpha, "alpha")


def conjugate(p) -> ExponentField:
    """Pointwise conjugate p' with 1/p + 1/p' = 1; requires min p > 1."""
    pv = np.asarray(p, dtype=float)
    if np.min(pv) <= 1:
        i = int(np.argmin(pv))
        raise ValueError(f"conjugate needs p > 1 everywhere; p[{i}] = {pv[i]}")
    return _pointwise_field(pv / (pv - 1.0), "p'")

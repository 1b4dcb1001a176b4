"""Lower/upper Ahlfors-type regularity: best-constant extraction, pointwise
dimension estimation, threshold rescaling."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import exponent_values
from .space import MetricMeasureSpace, ball_masses, critical_radii

__all__ = ["RegularityProfile", "best_lower_constant", "best_upper_constant",
           "estimate_Q", "rescale_threshold"]


@dataclass(frozen=True)
class RegularityProfile:
    b_lower: float
    r_min: float
    r_max: float
    witnesses: list = field(default_factory=list)
    b_upper: float | None = None

    def to_json(self) -> dict:
        return {"b_lower": self.b_lower, "b_upper": self.b_upper,
                "r_min": self.r_min, "r_max": self.r_max,
                "witnesses": [{"center": int(x), "radius": float(r)}
                              for x, r in self.witnesses]}


# witnesses tie with the minimum up to this relative gap
_TIE = 1e-15


def _radius_powers(radii: np.ndarray, Q) -> np.ndarray:
    """radii ** Q[x], a row per center, one power per distinct exponent value:
    numpy squares for a scalar exponent 2, a broadcast power does not."""
    values, inverse = np.unique(Q, return_inverse=True)
    return np.array([radii ** q for q in values])[inverse]


def _profile(space: MetricMeasureSpace, Q, r_min, r_max, upper: bool) -> RegularityProfile:
    """One ball-mass table for both scans: the min of mu(B(x, r)) / r**Q(x) over
    the critical radii in [r_min, r_max] and both ends, witnessed by the first
    minimizing radius of each center whose minimum is within a relative ``_TIE``
    of it, and if ``upper`` the max over the critical radii alone (the r_min
    column if there is none)."""
    if space.n < 2:
        radii, crit = np.array([min(1.0, r_max)]), slice(None)
    else:
        if r_min is None:
            r_min = space.min_positive_distance()
        if not 0 < r_min <= r_max:
            raise ValueError("need 0 < r_min <= r_max")
        radii = critical_radii(space, r_min, r_max)
        lo = int(radii.size == 0 or radii[0] > r_min)
        crit = slice(lo, lo + radii.size) if radii.size else slice(0, 1)
        radii = np.concatenate([[r_min] * lo, radii])
        if radii[-1] < r_max:
            radii = np.concatenate([radii, [r_max]])
    ratios = ball_masses(space, radii) / _radius_powers(radii, exponent_values(Q, space.n))
    first = np.argmin(ratios, axis=1)
    low = ratios[np.arange(space.n), first]
    best = float(low.min())
    tied = np.flatnonzero(low <= best * (1.0 + _TIE))
    witnesses = [(int(x), float(radii[first[x]])) for x in tied]
    return RegularityProfile(b_lower=best, r_min=float(radii[0]), r_max=float(radii[-1]),
                             witnesses=witnesses,
                             b_upper=float(ratios[:, crit].max()) if upper else None)


def best_lower_constant(space: MetricMeasureSpace, Q, r_min: float | None = None,
                        r_max: float = 1.0) -> RegularityProfile:
    """Exact min over centers and critical radii in [r_min, r_max] of
    mu(B(x, r)) / r**Q(x).

    r_min defaults to the smallest positive distance: below it all balls are
    singletons and the quotient blows up as r -> 0, a finite-space artifact.
    """
    return _profile(space, Q, r_min, r_max, upper=False)


def best_upper_constant(space: MetricMeasureSpace, Q, r_min: float | None = None,
                        r_max: float = 1.0) -> RegularityProfile:
    """Symmetric max scan for the upper regularity constant, read off the
    lower profile's table."""
    return _profile(space, Q, r_min, r_max, upper=True)


def estimate_Q(space: MetricMeasureSpace, r_min: float, r_max: float):
    """Per-point least-squares slope of log mu(B(x, r)) against log r over
    the critical radii in range; a diagnostic, not a hypothesis input.

    Returns (field values, per-point R**2).
    """
    radii = critical_radii(space, r_min, r_max)
    if radii.size < 3:
        raise ValueError(f"need at least 3 critical radii in range, found {radii.size}")
    log_r = np.log(radii)
    slopes = np.empty(space.n)
    r2 = np.empty(space.n)
    for x, masses in enumerate(ball_masses(space, radii)):
        ok = masses > 0
        if ok.sum() < 3:
            raise ValueError(f"point {x} has under 3 radii with positive ball mass")
        lx, ly = log_r[ok], np.log(masses[ok])
        A = np.vstack([lx, np.ones_like(lx)]).T
        coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
        slopes[x] = coef[0]
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        ss_res = float(res[0]) if res.size else float(np.sum((ly - A @ coef) ** 2))
        r2[x] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slopes, r2


def rescale_threshold(b: float, delta: float, delta_prime: float, Q) -> float:
    """Convert a lower bound valid for radii up to delta into one valid up
    to delta' >= delta: multiply by (delta/delta')**(max Q)."""
    from .constants import threshold_rescale_factor

    Qv = np.asarray(Q, dtype=float)
    return float(b * threshold_rescale_factor(delta, delta_prime, float(Qv.max())))

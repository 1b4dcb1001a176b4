"""Pointwise-gradient constraint systems and minimal-gradient solvers.

A scalar gradient of u is any g >= 0 with
``|u(x)-u(y)| <= d(x,y)**s(x) g(x) + d(x,y)**s(y) g(y)`` for all pairs; the
vector (dyadic) variant imposes the inequality on level k only for pairs
with ``2**(-k-1) <= d < 2**(-k)``.  The associated quasi-norms are infima of
Lebesgue / mixed-sequence norms over these polyhedra.

Solver layout: an outer monotone search on the candidate norm level
(``norms._bisect_level``, the bracket-and-bisect primitive shared with the
Luxemburg and mixed norms) wraps an inner minimization of the separable
modular over the constraint polyhedron, chosen by the exponent alone: exact
linear programming (HiGHS) when it is identically one; for min p >= 1, SLSQP
on a working set of rows grown by delayed constraint generation, exact at
every size; for the nonconvex regime min p < 1, a projected-subgradient
heuristic whose solution is flagged.  Every returned point is repaired to hard
feasibility against all rows and its objective is re-evaluated from scratch,
so certificates never rely on solver-internal tolerances.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, minimize

from .exponents import exponent_values
from .norms import (NormValue, SequenceSample, _bisect_level, _level_infimum,
                    _sandwich, check_slack, luxemburg, mixed_norm_lp_lq,
                    mixed_norm_lq_lp, mixed_norm_lq_lp_constant_q)

__all__ = [
    "GradientConstraintSystem",
    "GradientSolution",
    "active_levels",
    "level_of",
    "minimal_scalar_gradient",
    "minimal_vector_gradient",
    "oracle_scalar_gradient",
    "norm_convention_equivalence",
    "gradient_zero_implies_constant",
    "lipschitz_cutoff_gradient",
    "geometric_iteration_check",
]

EPS_OPT = 1e-4  # relative optimality contract of the solvers
_CERT_TOL = 1e-9


def level_of(d) -> np.ndarray:
    """Dyadic level k with 2**(-k-1) <= d < 2**(-k).

    Ties d == 2**(-k) belong to level k-1 (the upper bound is strict); the
    computed log is snapped to integers to make the tie rule robust.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("levels are defined for positive distances")
    x = -np.log2(d)
    snapped = np.rint(x)
    x = np.where(np.abs(x - snapped) < 1e-12, snapped, x)
    return np.ceil(x).astype(int) - 1


def active_levels(space) -> tuple[int, int]:
    """Level range [k_min, k_max] containing every pair's dyadic level."""
    if space.n < 2:
        raise ValueError("need at least two points")
    d_max = space.diameter
    d_min = space.min_positive_distance()
    k_min = math.floor(-math.log2(d_max)) - 1
    k_max = math.ceil(-math.log2(d_min))
    return k_min, k_max


@dataclass(frozen=True)
class GradientConstraintSystem:
    """Constraint rows a_k g[i_k] + b_k g[j_k] >= t_k over a point subset.

    Each unordered pair with distinct u-values contributes one row (pairs
    with equal values are vacuous under g >= 0 and dropped).  For vector
    systems every pair lands in exactly one dyadic level.
    """

    n: int
    idx: np.ndarray
    I: np.ndarray
    J: np.ndarray
    dist: np.ndarray
    coef_i: np.ndarray
    coef_j: np.ndarray
    target: np.ndarray
    level: np.ndarray | None = None

    @classmethod
    def scalar(cls, space, u, s, subset=None) -> "GradientConstraintSystem":
        idx, I, J, d, si, sj, t = _pair_rows(space, u, s, subset)
        return cls(n=idx.size, idx=idx, I=I, J=J, dist=d,
                   coef_i=d ** si, coef_j=d ** sj, target=t)

    @classmethod
    def vector(cls, space, u, s, subset=None,
               convention: str = "distance") -> "GradientConstraintSystem":
        idx, I, J, d, si, sj, t = _pair_rows(space, u, s, subset)
        lev = level_of(d) if d.size else np.zeros(0, dtype=int)
        if convention == "distance":
            ci, cj = d ** si, d ** sj
        elif convention == "dyadic":
            ci, cj = 2.0 ** (-lev * si), 2.0 ** (-lev * sj)
        else:
            raise ValueError(f"unknown convention {convention!r}")
        return cls(n=idx.size, idx=idx, I=I, J=J, dist=d,
                   coef_i=ci, coef_j=cj, target=t, level=lev)

    @property
    def m(self) -> int:
        return self.target.size

    def rows_for_level(self, k: int) -> np.ndarray:
        if self.level is None:
            raise ValueError("scalar system has no levels")
        return np.flatnonzero(self.level == k)

    def violation(self, g: np.ndarray, rows=None) -> float:
        if self.m == 0:
            return 0.0
        r = slice(None) if rows is None else rows
        lhs = self.coef_i[r] * g[self.I[r]] + self.coef_j[r] * g[self.J[r]]
        return float(np.max(self.target[r] - lhs, initial=0.0))


def _pair_rows(space, u, s, subset):
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    uv = np.asarray(u, dtype=float)[idx]
    sv = exponent_values(s, space.n)[idx]
    m = idx.size
    if m < 2:
        z = np.zeros(0)
        return idx, z.astype(int), z.astype(int), z, z, z, z
    iu, ju = np.triu_indices(m, k=1)
    t = np.abs(uv[iu] - uv[ju])
    keep = t > 0
    iu, ju, t = iu[keep], ju[keep], t[keep]
    d = space.dist[np.ix_(idx, idx)][iu, ju]
    return idx, iu, ju, d, sv[iu], sv[ju], t


# -- inner minimization ------------------------------------------------------

def _feasible_point(n, I, J, A, T) -> np.ndarray:
    g = np.zeros(n)
    if T.size:
        np.maximum.at(g, I, T / A)
    return g


def _repair(g, I, J, A, B, T) -> np.ndarray:
    """Push a near-feasible point into the polyhedron (certified)."""
    if T.size == 0:
        return np.maximum(g, 0.0)
    g = np.maximum(g, 0.0)
    for _ in range(4):
        lhs = A * g[I] + B * g[J]
        viol = T - lhs
        worst = float(viol.max(initial=0.0))
        if worst <= 0.0:
            return g
        bad = viol > 0
        dead = bad & (lhs <= 0)
        if dead.any():
            bumped = g.copy()
            np.maximum.at(bumped, I[dead], T[dead] / A[dead])
            g = bumped
            continue
        g = g * float(np.max(T[bad] / lhs[bad])) * (1.0 + 1e-14)
    return g


# delayed constraint generation in the convex solver: rows admitted per point
# and round, and the relative violation above which a row is admitted
_ROWS_PER_POINT = 2
_GEN_TOL = 1e-10


def _min_separable_modular(c, pv, I, J, A, B, T, n, x0=None):
    """min sum c_i g_i**p_i over the row polyhedron, min p >= 1 (convex)."""
    if np.all(pv == 1.0):
        rows = np.tile(np.arange(T.size), 2)
        cols = np.concatenate([I, J])
        vals = np.concatenate([A, B])
        A_sp = sparse.coo_matrix((vals, (rows, cols)), shape=(T.size, n)).tocsr()
        res = linprog(c=c, A_ub=-A_sp, b_ub=-T, bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"LP solve failed: {res.message}")
        return np.maximum(res.x, 0.0)
    return _slsqp_modular(c, pv, I, J, A, B, T, n, x0)


def _constraint_dense(I, J, A, B, T, n):
    M = np.zeros((T.size, n))
    M[np.arange(T.size), I] += A
    M[np.arange(T.size), J] += B
    return M


def _top_rows_per_point(score, I, J):
    """Each point's (at most) ``_ROWS_PER_POINT`` incident rows of largest
    positive score; the stable sort resolves ties by row index."""
    cand = np.flatnonzero(score > 0)
    rows = np.concatenate([cand, cand])
    pts = np.concatenate([I[cand], J[cand]])
    order = np.lexsort((-score[rows], pts))
    pts, rows = pts[order], rows[order]
    rank = np.arange(pts.size) - np.searchsorted(pts, pts)
    return np.unique(rows[rank < _ROWS_PER_POINT])


def _slsqp_modular(c, pv, I, J, A, B, T, n, x0=None):
    """SLSQP on a working set of rows, grown by delayed constraint generation.

    The set starts with each point's rows of largest t/(a+b), the violation
    per unit of g at g = 0.  After each solve every row is checked; each
    point's outside rows of largest violation/(a+b) join the set, until no
    outside row is violated by more than ``_GEN_TOL * t``.  The relaxation's
    optimum then satisfies every row, so it is
    the full problem's optimum; each round adds a row, so the loop ends (at
    worst with every row in the set).
    """
    g0 = _feasible_point(n, I, J, A, T) if x0 is None else np.maximum(x0, 0.0)
    g0 = _repair(g0, I, J, A, B, T)
    scale = max(float(np.sum(c * g0 ** pv)), 1e-300)
    cn = c / scale

    def fun(g):
        with np.errstate(over="ignore"):
            return float(np.sum(cn * np.abs(g) ** pv))

    def jac(g):
        gg = np.maximum(g, 1e-300)
        return cn * pv * gg ** (pv - 1.0)

    AB = A + B
    work = _top_rows_per_point(T / AB, I, J)
    g = g0
    while True:
        M = _constraint_dense(I[work], J[work], A[work], B[work], T[work], n)
        Tw = T[work]
        res = minimize(fun, g * 1.0000001 + 1e-12, jac=jac, method="SLSQP",
                       bounds=[(0.0, None)] * n,
                       constraints=[{"type": "ineq", "fun": lambda g: M @ g - Tw,
                                     "jac": lambda g: M}],
                       options={"maxiter": 400, "ftol": 1e-14})
        g = np.maximum(res.x, 0.0)
        viol = T - (A * g[I] + B * g[J])
        viol[work] = 0.0
        viol[viol <= _GEN_TOL * T] = 0.0
        if not viol.any():
            break
        work = np.union1d(work, _top_rows_per_point(viol / AB, I, J))
    g = _repair(g, I, J, A, B, T)
    if fun(g) > fun(g0):
        g = g0
    return g


def _subgradient_modular(c, pv, I, J, A, B, T, n, x0=None):
    """Projected-subgradient heuristic for the nonconvex regime min p < 1."""
    g = _feasible_point(n, I, J, A, T) if x0 is None else np.maximum(x0, 0.0)
    g = _repair(g, I, J, A, B, T)

    def fun(x):
        with np.errstate(over="ignore"):
            return float(np.sum(c * x ** pv))

    best, best_val = g.copy(), fun(g)
    step0 = 0.5 * float(g.max(initial=0.0)) or 1.0
    iters = 500 * n
    for it in range(1, iters + 1):
        gg = np.maximum(g, 1e-9)
        grad = c * pv * gg ** (pv - 1.0)
        g = np.maximum(g - (step0 / math.sqrt(it)) * grad, 0.0)
        g = _repair(g, I, J, A, B, T)
        val = fun(g)
        if val < best_val:
            best, best_val = g.copy(), val
    return best


def _min_modular(c, pv, sysrows, n, x0=None):
    I, J, A, B, T = sysrows
    if T.size == 0:
        return np.zeros(n)
    if float(np.min(pv)) >= 1.0:
        g = _min_separable_modular(c, pv, I, J, A, B, T, n, x0)
    else:
        g = _subgradient_modular(c, pv, I, J, A, B, T, n, x0)
    return _repair(g, I, J, A, B, T)


def _rows(system, rows=None):
    r = slice(None) if rows is None else rows
    return (system.I[r], system.J[r], system.coef_i[r], system.coef_j[r],
            system.target[r])


def _min_norm_scalar(system, pv, w, tol):
    """Minimize the Lebesgue quasi-norm of g over a scalar system."""
    n = system.n
    if system.m == 0:
        return np.zeros(n), NormValue(0.0, 0.0)
    rows = _rows(system)
    if np.ptp(pv) == 0:
        # constant exponent: the norm is a monotone function of the modular
        g = _min_modular(w, pv, rows, n)
        return g, luxemburg(g, pv, w, min(tol, 1e-10))
    g0 = _repair(_feasible_point(n, *rows[:3], rows[4]), *rows)
    hi = luxemburg(g0, pv, w).value
    g = g0

    def admissible(t):
        nonlocal g
        if t >= hi:
            # luxemburg certifies the warm start at its norm: no solve needed
            return True, g0
        g = _min_modular(w * t ** (-pv), pv, rows, n, x0=g)
        return float(np.sum(w * (g / t) ** pv)) <= 1.0, g

    _, _, g = _bisect_level(admissible, hi, 0.5 * hi, tol, ulp_steps=0)
    return g, luxemburg(g, pv, w, min(tol, 1e-10))


@dataclass(frozen=True)
class GradientSolution:
    g: object  # ndarray (scalar) or SequenceSample (vector)
    objective: NormValue
    certificate: float
    heuristic: bool = False
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        g = self.g
        if isinstance(g, SequenceSample):
            payload = {"k_min": g.k_min, "values": g.values.tolist()}
        else:
            payload = np.asarray(g).tolist()
        return {"objective": self.objective.value, "certificate": self.certificate,
                "heuristic": self.heuristic, "g": payload}


def minimal_scalar_gradient(space, u, s, p, tol: float = 1e-6,
                            subset=None) -> GradientSolution:
    """Smallest Lebesgue quasi-norm of a scalar gradient of u.

    Certified within EPS_OPT relative for min p >= 1 (exact LP when p is
    identically one); flagged heuristic otherwise.
    """
    system = GradientConstraintSystem.scalar(space, u, s, subset)
    idx = system.idx
    w = space.weight[idx]
    pv = exponent_values(p, space.n)[idx]
    g, nv = _min_norm_scalar(system, pv, w, tol)
    cert = system.violation(g)
    if cert > _CERT_TOL * max(1.0, float(system.target.max(initial=0.0))):
        raise RuntimeError(f"infeasible solver output (violation {cert})")
    return GradientSolution(g=g, objective=nv, certificate=cert,
                            heuristic=bool(pv.min() < 1.0),
                            info={"n": system.n, "constraints": system.m})


def _per_level_norm_solutions(system, pv, w, tol):
    sols = {}
    for k in np.unique(system.level):
        rows = system.rows_for_level(int(k))
        sub = GradientConstraintSystem(
            n=system.n, idx=system.idx, I=system.I[rows], J=system.J[rows],
            dist=system.dist[rows], coef_i=system.coef_i[rows],
            coef_j=system.coef_j[rows], target=system.target[rows])
        sols[int(k)] = _min_norm_scalar(sub, pv, w, tol)
    return sols


def _assemble_sequence(space_levels, per_level_g, n) -> SequenceSample:
    k_min, k_max = space_levels
    ks = sorted(per_level_g)
    k_lo = min(k_min, ks[0]) if ks else k_min
    k_hi = max(k_max, ks[-1]) if ks else k_max
    vals = np.zeros((k_hi - k_lo + 1, n))
    for k, g in per_level_g.items():
        vals[k - k_lo] = g
    return SequenceSample(k_lo, vals)


def minimal_vector_gradient(space, u, s, p, q, scale: str = "lq_lp",
                            tol: float = 1e-6, subset=None) -> GradientSolution:
    """Smallest mixed-norm of a vector gradient of u.

    ``scale="lq_lp"`` minimizes the level-sum (Besov) norm, which decomposes
    into independent per-level problems; ``scale="lp_lq"`` minimizes the
    pointwise-sequence (TL) norm, a joint problem over all levels.
    """
    if scale not in ("lq_lp", "lp_lq"):
        raise ValueError("scale must be 'lq_lp' or 'lp_lq'")
    system = GradientConstraintSystem.vector(space, u, s, subset)
    idx = system.idx
    w = space.weight[idx]
    pv = exponent_values(p, space.n)[idx]
    qv = exponent_values(q, space.n, allow_inf=True)[idx]
    sub = space if subset is None else space.subspace(idx)
    lev_range = active_levels(sub) if sub.n >= 2 else (0, 0)
    q_finite = qv[np.isfinite(qv)]
    heuristic = bool(pv.min() < 1.0 or (q_finite.size and q_finite.min() < 1.0))
    all_finite = bool(np.isfinite(qv).all())
    general_besov = (scale == "lq_lp" and np.isfinite(qv).any()
                     and not (all_finite and np.ptp(qv) == 0)
                     and not (all_finite and np.array_equal(qv, pv)))
    if general_besov and np.any(qv > pv):
        heuristic = True  # level-weight objective convex only for q <= p

    if system.m == 0:
        seq = SequenceSample(lev_range[0], np.zeros((lev_range[1] - lev_range[0] + 1, system.n)))
        kind = "mixed_lqp" if scale == "lq_lp" else "mixed_plq"
        return GradientSolution(g=seq, objective=NormValue(0.0, 0.0, kind=kind),
                                certificate=0.0, heuristic=heuristic)

    if scale == "lq_lp":
        seq, nv = _solve_besov(system, pv, qv, w, tol, lev_range)
    else:
        seq, nv = _solve_tl(system, pv, qv, w, tol, lev_range)

    cert = _sequence_violation(system, seq)
    if cert > _CERT_TOL * max(1.0, float(system.target.max(initial=0.0))):
        raise RuntimeError(f"infeasible vector solution (violation {cert})")
    return GradientSolution(g=seq, objective=nv, certificate=cert, heuristic=heuristic,
                            info={"n": system.n, "constraints": system.m, "scale": scale})


def _sequence_violation(system, seq: SequenceSample) -> float:
    worst = 0.0
    for k in np.unique(system.level):
        rows = system.rows_for_level(int(k))
        worst = max(worst, system.violation(seq.level(int(k)), rows))
    return worst


def _solve_besov(system, pv, qv, w, tol, lev_range):
    n = system.n
    finite = np.isfinite(qv)
    if not finite.any():
        sols = _per_level_norm_solutions(system, pv, w, tol)
        value = max(nv.value for _, nv in sols.values())
        seq = _assemble_sequence(lev_range, {k: g for k, (g, _) in sols.items()}, n)
        return seq, NormValue(value, tol * value, kind="mixed_lqp")
    if finite.all() and np.ptp(qv) == 0:
        qc = float(qv[0])
        sols = _per_level_norm_solutions(system, pv, w, tol)
        value = float(np.sum([nv.value ** qc for _, nv in sols.values()]) ** (1.0 / qc))
        seq = _assemble_sequence(lev_range, {k: g for k, (g, _) in sols.items()}, n)
        return seq, NormValue(value, tol * value, kind="mixed_lqp")
    if finite.all() and np.array_equal(qv, pv):
        return _solve_modular_decoupled(system, pv, w, tol, lev_range)
    return _solve_besov_general(system, pv, qv, w, tol, lev_range)


def _solve_modular_decoupled(system, pv, w, tol, lev_range):
    """q == p pointwise: both mixed modulars reduce to a level sum of
    plain modulars, so one bisection over the norm level suffices."""
    n = system.n
    ks = [int(k) for k in np.unique(system.level)]
    level_rows = {k: _rows(system, system.rows_for_level(k)) for k in ks}
    warm = dict.fromkeys(ks)

    def admissible(lam):
        total = 0.0
        c = w * lam ** (-pv)
        for k in ks:
            warm[k] = _min_modular(c, pv, level_rows[k], n, x0=warm[k])
            total += float(np.sum(w * (warm[k] / lam) ** pv))
            if total > 1.0:
                return False, None
        return True, dict(warm)

    hi0 = float(np.sum([np.sum(w * _repair(_feasible_point(n, *r[:3], r[4]), *r) ** pv)
                        for r in level_rows.values()]))
    hi = max(_sandwich(hi0, pv)[1], 1e-12)
    _, _, best = _bisect_level(admissible, hi, 0.5 * hi, tol, ulp_steps=0)
    seq = _assemble_sequence(lev_range, best, n)
    value = mixed_norm_lq_lp(seq, pv, pv, w, min(tol, 1e-10))
    return seq, NormValue(value.value, value.tolerance, kind="mixed_lqp")


def _level_weight(g, w, pv, qv, lam):
    """The level infimum of g / lam (``_level_infimum``) and its gradient in
    g, by implicit differentiation of sum_i c_i nu**(-p_i/q_i) == 1 - fixed
    with c = w (g/lam)**p and fixed the q-infinite part.

    Returns (nu, dnu/dg); infinity when the q-infinite part alone already
    exceeds one (then no nu is admissible).
    """
    nu = _level_infimum(g / lam, pv, qv, w, 1e-12)
    grad = np.zeros_like(g)
    if nu == 0.0 or not np.isfinite(nu):
        return nu, grad
    e = np.where(np.isinf(qv), 0.0, pv / qv)
    with np.errstate(over="ignore"):
        c = w * (g / lam) ** pv
    dh_dnu = -float(np.sum(c * e * nu ** (-e - 1.0)))
    if dh_dnu == 0.0:
        return nu, grad
    gg = np.maximum(g, 1e-300)
    dh_dg = w * pv * gg ** (pv - 1.0) * lam ** (-pv) * nu ** (-e)
    return nu, -dh_dg / dh_dnu


def _solve_besov_general(system, pv, qv, w, tol, lev_range):
    """Fully variable q: one outer bisection on the norm level; per level the
    partial modular is minimized directly over the polyhedron with the level
    weight nu(g) as an implicitly-differentiated objective.

    Convex (hence certified) only for 1 <= q <= p pointwise; the caller
    flags other regimes heuristic.
    """
    n = system.n
    ks = [int(k) for k in np.unique(system.level)]
    level_rows = {k: system.rows_for_level(k) for k in ks}
    dense = {}
    warm = {}
    for k in ks:
        r = level_rows[k]
        dense[k] = _constraint_dense(system.I[r], system.J[r], system.coef_i[r],
                                     system.coef_j[r], system.target[r], n)
        warm[k] = _repair(_feasible_point(n, system.I[r], system.J[r],
                                          system.coef_i[r], system.target[r]),
                          *_rows(system, r))

    @functools.lru_cache(maxsize=1)
    def level_weight(g_bytes, lam):
        # SLSQP asks for fun and then jac at the same iterate: solve once
        return _level_weight(np.frombuffer(g_bytes), w, pv, qv, lam)

    def level_min(k, lam):
        r = level_rows[k]
        M, T = dense[k], system.target[r]

        def fun(g):
            nu, _ = level_weight(g.tobytes(), lam)
            return nu if np.isfinite(nu) else 1e9

        def jac(g):
            _, grad = level_weight(g.tobytes(), lam)
            return grad

        res = minimize(fun, warm[k] + 1e-12, jac=jac, method="SLSQP",
                       bounds=[(0.0, None)] * n,
                       constraints=[{"type": "ineq", "fun": lambda g: M @ g - T,
                                     "jac": lambda g: M}],
                       options={"maxiter": 300, "ftol": 1e-14})
        g = _repair(np.maximum(res.x, 0.0), *_rows(system, r))
        val = fun(g)
        base = fun(warm[k])
        if base < val:
            g, val = warm[k], base
        warm[k] = g
        return val, g

    def admissible(lam):
        total = 0.0
        gs = {}
        for k in ks:
            m_k, gs[k] = level_min(k, lam)
            total += m_k
            if total > 1.0:
                return False, None
        return True, gs

    # the warm start is feasible, so its norm is admissible
    hi = mixed_norm_lq_lp(_assemble_sequence(lev_range, warm, n), pv, qv, w, tol).value
    _, _, best = _bisect_level(admissible, hi, 0.5 * hi, max(tol, 1e-7), ulp_steps=0)
    seq = _assemble_sequence(lev_range, best, n)
    value = mixed_norm_lq_lp(seq, pv, qv, w, min(tol, 1e-10))
    return seq, NormValue(value.value, value.tolerance, kind="mixed_lqp")


def _solve_tl(system, pv, qv, w, tol, lev_range):
    n = system.n
    if not np.isfinite(qv).any():
        # pointwise sup norm: a single envelope function must satisfy every
        # level's constraints, i.e. the scalar problem over the same rows
        flat = GradientConstraintSystem(
            n=n, idx=system.idx, I=system.I, J=system.J, dist=system.dist,
            coef_i=system.coef_i, coef_j=system.coef_j, target=system.target)
        g, nv = _min_norm_scalar(flat, pv, w, tol)
        ks = [int(k) for k in np.unique(system.level)]
        seq = _assemble_sequence(lev_range, {k: g for k in ks}, n)
        return seq, NormValue(nv.value, nv.tolerance, kind="mixed_plq")
    if np.array_equal(qv, pv):
        seq, nv = _solve_modular_decoupled(system, pv, w, tol, lev_range)
        value = mixed_norm_lp_lq(seq, pv, qv, w, min(tol, 1e-10))
        return seq, NormValue(value.value, value.tolerance, kind="mixed_plq")
    if np.any(np.isinf(qv)):
        raise ValueError("TL scale supports q identically infinite or finite everywhere")
    return _solve_tl_joint(system, pv, qv, w, tol, lev_range)


def _solve_tl_joint(system, pv, qv, w, tol, lev_range):
    """Joint minimization across levels of the pointwise-sequence norm."""
    n = system.n
    ks = [int(k) for k in np.unique(system.level)]
    L = len(ks)
    pos = {k: r for r, k in enumerate(ks)}
    rows = np.arange(system.m)
    # stacked variables x[r*n + i] for level ks[r]
    col_i = np.array([pos[int(system.level[t])] * n + system.I[t] for t in rows])
    col_j = np.array([pos[int(system.level[t])] * n + system.J[t] for t in rows])
    A_sp = sparse.csr_matrix(sparse.coo_matrix(
        (np.concatenate([system.coef_i, system.coef_j]),
         (np.tile(rows, 2), np.concatenate([col_i, col_j]))),
        shape=(system.m, L * n)))

    x0 = np.zeros((L, n))
    for k in ks:
        r = system.rows_for_level(k)
        x0[pos[k]] = _repair(
            _feasible_point(n, system.I[r], system.J[r], system.coef_i[r], system.target[r]),
            *_rows(system, r))
    x = x0.ravel()

    def admissible(lam):
        nonlocal x
        c = w * lam ** (-pv)

        def fun(x):
            X = np.abs(x.reshape(L, n))
            with np.errstate(over="ignore"):
                S = np.sum(X ** qv[None, :], axis=0)
            return float(np.sum(c * S ** (pv / qv)))

        def jac(x):
            X = np.maximum(x.reshape(L, n), 0.0)
            with np.errstate(over="ignore"):
                S = np.sum(X ** qv[None, :], axis=0)
            Ssafe = np.maximum(S, 1e-300)
            outer = c * pv * Ssafe ** (pv / qv - 1.0)
            grad = outer[None, :] * np.maximum(X, 1e-300) ** (qv[None, :] - 1.0)
            grad[:, S == 0.0] = 0.0
            return grad.ravel()

        with warnings.catch_warnings():
            # quasi-Newton curvature updates stall on locally-linear pieces
            warnings.filterwarnings("ignore", message="delta_grad == 0.0")
            res = minimize(fun, np.maximum(x, 1e-12), jac=jac,
                           method="trust-constr",
                           constraints=[LinearConstraint(A_sp, system.target, np.inf)],
                           bounds=Bounds(0.0, np.inf),
                           options={"gtol": 1e-9, "xtol": 1e-12, "maxiter": 1200})
        x = np.maximum(res.x, 0.0)
        X = x.reshape(L, n)
        for k in ks:
            r = system.rows_for_level(k)
            X[pos[k]] = _repair(X[pos[k]], *_rows(system, r))
        x = X.ravel()
        return fun(x) <= 1.0, x

    hi = max(mixed_norm_lp_lq(SequenceSample(0, x0), pv, qv, w, 1e-10).value, 1e-12)
    _, _, x = _bisect_level(admissible, hi, 0.5 * hi, max(tol, 1e-7), ulp_steps=0)
    X = x.reshape(L, n)
    seq = _assemble_sequence(lev_range, {k: X[pos[k]] for k in ks}, n)
    value = mixed_norm_lp_lq(seq, pv, qv, w, 1e-10)
    return seq, NormValue(value.value, value.tolerance, kind="mixed_plq")


# -- independent oracle ------------------------------------------------------

def oracle_scalar_gradient(space, u, s, p, step: float = 1e-3, subset=None,
                           coarse_step: float = 0.02) -> float:
    """Exhaustive lattice oracle for the minimal scalar-gradient norm.

    Grids all coordinates except the last on a lattice of the given step
    over [0, m_i] (m_i = the single-sided cover bound, which always contains
    a minimizer), and sets the last coordinate to its exact minimal feasible
    value.  For n == 4 a coarse pass (``coarse_step``) locates the optimum
    and a second pass refines a local box at the requested step; the local
    refinement is justified for convex instances (min p >= 1), which is the
    only regime the oracle is used in.  Variable exponents are handled by a
    shared bisection on the norm level over the fixed feasible lattice.
    Completely independent of the solvers.
    """
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    n = idx.size
    uv = np.asarray(u, dtype=float)[idx]
    sv = exponent_values(s, space.n)[idx]
    pv = exponent_values(p, space.n)[idx]
    w = space.weight[idx]
    d = space.dist[np.ix_(idx, idx)]
    I, J, A, B, T = [], [], [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            t = abs(uv[i] - uv[j])
            if t > 0:
                I.append(i); J.append(j)
                A.append(d[i, j] ** sv[i]); B.append(d[i, j] ** sv[j]); T.append(t)
    if not T:
        return 0.0
    I = np.array(I); J = np.array(J)
    A = np.array(A); B = np.array(B); T = np.array(T)
    box = np.zeros(n)
    np.maximum.at(box, I, T / A)
    np.maximum.at(box, J, T / B)
    if n > 4:
        raise ValueError("oracle is intended for n <= 4")

    last = n - 1

    def feasible_points(axes, lo_block, hi_block):
        """One chunk of the lattice with the last coordinate minimized."""
        grids = np.meshgrid(np.arange(lo_block, hi_block), *axes[1:], indexing="ij")
        cols = [axes[0][grids[0].ravel()]] + [g.ravel() for g in grids[1:]]
        g_last = np.zeros(cols[0].size)
        feas = np.ones(g_last.size, dtype=bool)
        for k in range(T.size):
            if J[k] == last:
                np.maximum(g_last, (T[k] - A[k] * cols[I[k]]) / B[k], out=g_last)
            else:
                feas &= A[k] * cols[I[k]] + B[k] * cols[J[k]] >= T[k] - 1e-12
        np.maximum(g_last, 0.0, out=g_last)
        pts = cols + [g_last]
        if not feas.all():
            pts = [cc[feas] for cc in pts]
        return pts

    def chunks(axes):
        per_row = int(np.prod([len(a) for a in axes[1:]])) if n > 1 else 1
        block = max(1, int(5e5 // max(per_row, 1)))
        for start in range(0, len(axes[0]), block):
            pts = feasible_points(axes, start, min(start + block, len(axes[0])))
            if pts[0].size:
                yield pts

    def lattice_pass(lo, hi, h):
        axes = [np.arange(lo[i], hi[i] + h, h) for i in range(n - 1)]
        if np.ptp(pv) == 0:
            best_val, best_pt = np.inf, None
            for pts in chunks(axes):
                mod = sum(w[i] * pts[i] ** pv[i] for i in range(n))
                b = int(np.argmin(mod))
                if mod[b] < best_val:
                    best_val = float(mod[b])
                    best_pt = np.array([pt[b] for pt in pts])
            if best_pt is None:
                return None, None
            return best_val ** (1.0 / float(pv[0])), best_pt
        # variable exponents: shared bisection on the norm level over the
        # (materialized) feasible lattice; sized for n <= 2 instances
        collected = [np.concatenate(parts) for parts in
                     zip(*list(chunks(axes)))] if n > 1 else None
        if collected is None or collected[0].size == 0:
            return None, None
        if collected[0].size > 2_000_000:
            raise ValueError("variable-exponent oracle lattice too large")

        def min_mod(t):
            mod = sum(w[i] * (collected[i] / t) ** pv[i] for i in range(n))
            return float(mod.min()), int(np.argmin(mod))

        t_hi = float(max(pt.max() for pt in collected)) * max(
            1.0, float(w.sum()) ** (1.0 / float(pv.min()))) + 1e-30
        t_lo = t_hi * 2 ** -60
        for _ in range(120):
            if t_hi - t_lo <= 1e-11 * t_hi:
                break
            mid = 0.5 * (t_lo + t_hi)
            v, _b = min_mod(mid)
            if v <= 1.0:
                t_hi = mid
            else:
                t_lo = mid
        _, b = min_mod(t_hi)
        return t_hi, np.array([pt[b] for pt in collected])

    if n <= 3:
        val, _ = lattice_pass(np.zeros(n), box, step)
        return float(val)
    val1, pt1 = lattice_pass(np.zeros(n), box, coarse_step)
    lo = np.maximum(pt1 - 2 * coarse_step, 0.0)
    hi = np.minimum(pt1 + 2 * coarse_step, box + step)
    val2, _ = lattice_pass(lo, hi, step)
    return float(min(val1, val2))


# -- derived checks ----------------------------------------------------------

def norm_convention_equivalence(space, u, s, p, q, scale: str = "lq_lp",
                                tol: float = 1e-6, subset=None) -> dict:
    """Compare the distance-power vector norm with the dyadic-weight variant.

    The two quasi-norms agree within a factor 2**(max s): the dyadic variant
    never exceeds the distance variant, and conversely dominates it up to
    that factor.
    """
    direct = minimal_vector_gradient(space, u, s, p, q, scale=scale, tol=tol, subset=subset)
    system = GradientConstraintSystem.vector(space, u, s, subset, convention="dyadic")
    idx = system.idx
    w = space.weight[idx]
    pv = exponent_values(p, space.n)[idx]
    qv = exponent_values(q, space.n, allow_inf=True)[idx]
    sub = space if subset is None else space.subspace(idx)
    lev_range = active_levels(sub) if sub.n >= 2 else (0, 0)
    if system.m == 0:
        alt_val = 0.0
    elif scale == "lq_lp":
        _, nv = _solve_besov(system, pv, qv, w, tol, lev_range)
        alt_val = nv.value
    else:
        _, nv = _solve_tl(system, pv, qv, w, tol, lev_range)
        alt_val = nv.value
    s_plus = float(exponent_values(s, space.n)[idx].max()) if idx.size else 0.0
    factor = 2.0 ** s_plus
    direct_val = direct.objective.value
    ok = (alt_val <= direct_val + check_slack(direct_val)
          and direct_val <= factor * alt_val + check_slack(factor * alt_val))
    return {"direct": direct_val, "alternative": alt_val, "factor": factor,
            "ratio": direct_val / alt_val if alt_val > 0 else (1.0 if direct_val == 0 else np.inf),
            "ok": bool(ok)}


def gradient_zero_implies_constant(space, u, s, p, tol: float = 1e-9,
                                   subset=None) -> dict:
    """Quantitative finite-space form: the oscillation of u is bounded by an
    explicit multiple of any feasible gradient's norm, so norm zero forces
    a constant function."""
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    sol = minimal_scalar_gradient(space, u, s, p, subset=subset)
    uv = np.asarray(u, dtype=float)[idx]
    osc = float(uv.max() - uv.min()) if idx.size else 0.0
    sv = exponent_values(s, space.n)[idx]
    pv = exponent_values(p, space.n)[idx]
    w = space.weight[idx]
    if idx.size >= 2:
        d = space.dist[np.ix_(idx, idx)]
        iu = np.triu_indices(idx.size, k=1)
        pair_sum = d[iu] ** sv[iu[0]] + d[iu] ** sv[iu[1]]
        # g_i <= ||g|| * w_i**(-1/p_i) from the unit-ball property
        bound_const = float(pair_sum.max() * np.max(w ** (-1.0 / pv)))
    else:
        bound_const = 0.0
    objective = sol.objective.value
    bound = bound_const * objective
    scale = max(1.0, float(np.abs(uv).max(initial=0.0)))
    return {
        "objective": objective,
        "oscillation": osc,
        "constant": bound_const,
        "zero_norm_detected": bool(objective <= tol * scale),
        "implied_oscillation_bound": bound,
        "ok": bool(osc <= bound + check_slack(bound)),
    }


def lipschitz_cutoff_gradient(space, support, L: float, s, p, q, u=None,
                              tail_rel: float = 1e-9):
    """Explicit vector gradient for a [0,1]-valued L-Lipschitz function
    supported on the given point set.

    Level values on the support: L * 2**(k (s(x)-1)) for k >= k_L and
    2**((k+1) s(x) + 1) below, where 2**(k_L - 1) <= L < 2**k_L.  Requires
    max s <= 1 with equality only when min q is infinite.  Returns the
    truncated family (tails below ``tail_rel`` relative size are dropped;
    truncation only lowers the computed norms) and a report with the norm
    bounds and their explicit constants.
    """
    from . import constants as K

    support = np.asarray(support, dtype=int)
    n = space.n
    sv = exponent_values(s, n)
    pv = exponent_values(p, n)
    qv = exponent_values(q, n, allow_inf=True)
    q_minus = float(qv.min())
    s_plus_global = float(sv.max())
    s_minus_global = float(sv.min())
    if s_plus_global > 1.0 or (s_plus_global == 1.0 and np.isfinite(q_minus)):
        raise ValueError("needs max s <= 1, with equality only for q identically infinite")
    if L <= 0:
        raise ValueError("L must be positive")
    k_L = math.floor(math.log2(L)) + 1
    if L >= 2.0 ** k_L:  # guard float edges
        k_L += 1
    elif L < 2.0 ** (k_L - 1):
        k_L -= 1

    if support.size == 0:
        seq = SequenceSample(k_L, np.zeros((1, n)))
        report = {"tl_norm": 0.0, "besov_norm": 0.0, "tl_bound": 0.0,
                  "besov_bound": 0.0, "certificate": 0.0, "k_L": k_L, "ok": True}
        return seq, report

    # truncation: both tails decay geometrically with the stated ratios
    if np.isfinite(q_minus) or s_plus_global < 1.0:
        up = k_L + max(8, math.ceil(-math.log2(tail_rel) / max(1.0 - s_plus_global, 1e-3)))
    else:
        up = k_L + 8
    down = k_L - 1 - max(8, math.ceil(-math.log2(tail_rel) / max(s_minus_global, 1e-3)))
    if space.n >= 2:
        a_lo, a_hi = active_levels(space)
        down, up = min(down, a_lo), max(up, a_hi)
    ks = np.arange(down, up + 1)
    chi = np.zeros(n)
    chi[support] = 1.0
    vals = np.zeros((ks.size, n))
    for r, k in enumerate(ks):
        if k >= k_L:
            vals[r] = L * 2.0 ** (k * (sv - 1.0)) * chi
        else:
            vals[r] = 2.0 ** ((k + 1) * sv + 1.0) * chi
    seq = SequenceSample(int(ks[0]), vals)

    w = space.weight
    s_B_minus, s_B_plus = float(sv[support].min()), float(sv[support].max())
    l_factor = max(L ** s_B_plus, L ** s_B_minus)
    norm_chi = luxemburg(chi, pv, w).value
    tl_norm = mixed_norm_lp_lq(seq, pv, qv, w).value
    if np.all(qv == qv[0]):
        besov_norm = mixed_norm_lq_lp_constant_q(seq, pv, float(qv[0]), w).value
    else:
        besov_norm = mixed_norm_lq_lp(seq, pv, qv, w).value
    if np.isfinite(q_minus):
        a1 = K.lipschitz_A1(q_minus, s_minus_global, s_plus_global)
        a2 = K.lipschitz_A2(q_minus, s_minus_global, s_plus_global)
    else:
        a1, a2 = 4.0, 5.0
    tl_bound = a1 * l_factor * norm_chi
    besov_bound = a2 * l_factor * norm_chi

    cert = 0.0
    if u is not None and space.n >= 2:
        system = GradientConstraintSystem.vector(space, u, sv)
        cert = _sequence_violation(system, seq)

    report = {
        "k_L": k_L,
        "A1": a1,
        "A2": a2,
        "l_factor": l_factor,
        "chi_norm": norm_chi,
        "tl_norm": tl_norm,
        "tl_bound": tl_bound,
        "besov_norm": besov_norm,
        "besov_bound": besov_bound,
        "certificate": cert,
        "ok": bool(tl_norm <= tl_bound + check_slack(tl_bound)
                   and besov_norm <= besov_bound + check_slack(besov_bound)
                   and cert <= _CERT_TOL),
    }
    return seq, report


def geometric_iteration_check(a, p: float, q: float, rho: float, tau: float) -> dict:
    """Check the geometric-iteration inequality on a supplied prefix.

    Hypothesis (verified on the prefix, 1-indexed): a_{j+1}**(1/q) <=
    rho tau**j a_j**(1/p) with the sequence confined to [a, b] in (0, inf)
    and 0 < p < q.  Conclusion: a_1**(1 - p/q) rho**p tau**(p q / (q - p))
    is at least one; the margin is reported.
    """
    a = np.asarray(a, dtype=float)
    report: dict = {"hypotheses": {}}
    report["hypotheses"]["exponents"] = bool(0 < p < q < np.inf)
    report["hypotheses"]["bounds"] = bool(a.size > 0 and np.all(a > 0) and np.all(np.isfinite(a)))
    chain_ok = True
    for m in range(a.size - 1):
        j = m + 1
        if a[m + 1] ** (1.0 / q) > rho * tau ** j * a[m] ** (1.0 / p) * (1 + 1e-12):
            chain_ok = False
            break
    report["hypotheses"]["chain"] = chain_ok
    applicable = all(report["hypotheses"].values())
    report["applicable"] = applicable
    if report["hypotheses"]["exponents"] and report["hypotheses"]["bounds"]:
        value = a[0] ** (1.0 - p / q) * rho ** p * tau ** (p * q / (q - p))
        report["value"] = float(value)
        report["margin"] = float(value - 1.0)
        report["ok"] = bool(not applicable or value >= 1.0 - 1e-12)
    else:
        report["ok"] = False
    return report

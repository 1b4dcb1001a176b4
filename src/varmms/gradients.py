"""Pointwise-gradient constraint systems and minimal-gradient solvers.

A scalar gradient of u is any g >= 0 with
``|u(x)-u(y)| <= d(x,y)**s(x) g(x) + d(x,y)**s(y) g(y)`` for all pairs; the
vector (dyadic) variant imposes the inequality on level k only for pairs
with ``2**(-k-1) <= d < 2**(-k)``.  The associated quasi-norms are infima of
Lebesgue / mixed-sequence norms over these polyhedra.

Solver layout (README "Solvers").  Every convex modular rho is minimized on
a working set of rows grown by delayed constraint generation
(``_working_set``, pricing the rows on one padded table of each point's rows,
``_point_table``) on one model grown by rows (``_minimize_modular``), with a
duality bracket where rho has a closed-form conjugate.  A constant exponent
p >= 1 makes the norm a monotone function of the separable modular,
minimized itself: at p = 1 a HiGHS LP (scipy's binding, loaded on the
first LP), whose dual model grows by columns, and above by Newton steps,
each a strictly convex QP solved by the dual active-set method of Goldfarb
and Idnani (``_dual_qp``, with H^-1 formed once per QP) from the last
step's active constraints.  Every other convex modular, a variable exponent
(min p >= 1, and min q >= 1 on the TL scale), the TL joint problem, and a
Besov norm with finite variable q and min(p, q) >= 1 on the level-stacked
rows, takes the same Newton steps on rho(mu g) with its block-diagonal
Hessian, while the level mu takes Newton steps towards the gauge,
phi(mu) = min rho(mu g) = 1.  A nonconvex modular (flagged heuristic) is
minimized by majorize-minimize over these (``_majorize_minimize``); a
norm-level bisection around SLSQP remains for variable-q Besov norms with
min(p, q) < 1 or q infinite at some points but not all.  Every returned
point is repaired to hard feasibility against all rows and re-evaluated
from scratch, so certificates never rely on solver-internal tolerances.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .exponents import exponent_values
from .norms import (NormValue, SequenceSample, _bisect_level, _level_roots, check_slack,
                    luxemburg, mixed_norm_lp_lq, mixed_norm_lq_lp)
from .space import level_of

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


def _load_highs():
    """scipy's HiGHS binding ``scipy.optimize._highspy._core``, loaded from its
    file on the first p == 1 LP: importing it by name first runs
    ``scipy/optimize/__init__.py``, about 0.5 s of every process start, and
    scipy itself is not imported until then.  The plain import serves a
    scipy whose binding is not found next to ``scipy.__file__``."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    stem = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(name)


def __getattr__(name):
    """``_highs`` (``_load_highs``), and ``minimize`` (SLSQP, for
    ``_besov_bisection``) and ``linprog`` (not called here) from
    ``scipy.optimize``, loaded on first use (PEP 562) and kept in the
    module's globals, where the benchmark tracer wraps the last two."""
    if name == "_highs":
        value = _load_highs()
    elif name in ("minimize", "linprog"):
        import scipy.optimize
        value = getattr(scipy.optimize, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


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
    d = space.dist[idx[iu], idx[ju]]
    return idx, iu, ju, d, sv[iu], sv[ju], t


# -- inner minimization ------------------------------------------------------

def _feasible_point(n, I, J, A, B, T) -> np.ndarray:
    """Each row met by its first point alone, repaired against every row."""
    g = np.zeros(n)
    np.maximum.at(g, I, T / A)
    return _repair(g, I, J, A, B, T)


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


# delayed constraint generation in the convex solvers: rows admitted per point
# and round, and the relative violation above which a row is admitted
_ROWS_PER_POINT = 2
_GEN_TOL = 1e-10
# entries of the pricing table gathered at once, so that a solve's pricing
# memory stays small next to its rows
_PRICE_BLOCK = 1 << 15
# relative duality gap of the modular at which a round is optimal, and
# the step of log mu at which a gauge's level is settled: at the optimum the
# norm is stationary in the level, so a level step d moves it by O(d**2)
_GAP_TOL, _LEVEL_TOL = 1e-10, 1e-5

# solver paths in increasing precedence: a solve reports the highest it used
_PATHS = ("none", "lp", "qp", "qp_gauge", "mm", "bisection")
# provenance of the solve in progress (``_provenance``), None outside a solve
_RECORD = contextvars.ContextVar("gradient_record", default=None)


def _note(path=None, status=0, nit=0, rounds=0, rows=0, bracket=None, opened=False):
    record = _RECORD.get()
    if record is not None:
        record["paths"].add(path)
        record["statuses"].add(int(status))
        record["nit"] += int(nit)
        record["rounds"] += rounds
        record["rows"] += rows
        record["open"] += opened
        if bracket is not None:
            record["brackets"].append(bracket)


@contextlib.contextmanager
def _provenance(info):
    """Collect the provenance of one solve into ``info``: the highest solver
    ``path``, the distinct non-zero ``slsqp_status`` values, the working-set
    ``rounds`` and final ``rows``, ``nit``, the SLSQP iterations plus the QP
    solves and LP runs, and ``open``, the ``_minimize_modular`` calls whose
    bracket stayed open, each summed over the solve's working-set solves (a
    majorize-minimize solve's path is ``mm``), the ``bracket`` of the
    modular when the solve was one ``_minimize_modular`` call, and on the
    convex paths ``certified``: the solve bracketed its modulars and left
    none open (false on the variable-q Besov gauge, which has no bracket)."""
    token = _RECORD.set({"paths": set(), "statuses": set(), "nit": 0,
                         "rounds": 0, "rows": 0, "open": 0, "brackets": []})
    try:
        yield
        record = _RECORD.get()
        info["path"] = max(record["paths"] - {None}, key=_PATHS.index, default="none")
        info["slsqp_status"] = sorted(record["statuses"] - {0})
        info.update({k: record[k] for k in ("rounds", "rows", "nit", "open")})
        brackets = record["brackets"]
        if info["path"] in ("lp", "qp", "qp_gauge"):
            if len(brackets) == 1:
                info["bracket"] = brackets[0]
            info["certified"] = bool(brackets) and info["open"] == 0
    finally:
        _RECORD.reset(token)


def _ineq(M, T):
    return {"type": "ineq", "fun": lambda x: M @ x - T, "jac": lambda x: M}


def _slsqp(fun, jac, x0, constraints, maxiter):
    """One SLSQP solve over x >= 0; its exit status and iterations are recorded."""
    # looked up on the module, so that a wrapper on ``gradients.minimize`` sees it
    minimize = sys.modules[__name__].minimize
    res = minimize(fun, x0, jac=jac, method="SLSQP", bounds=[(0.0, None)] * x0.size,
                   constraints=constraints, options={"maxiter": maxiter, "ftol": 1e-14})
    _note(status=res.status, nit=res.nit)
    return res


def _constraint_dense(I, J, A, B, T, n):
    M = np.zeros((T.size, n))
    M[np.arange(T.size), I] += A
    M[np.arange(T.size), J] += B
    return M


def _rows_transposed(I, J, A, B, y, n):
    """A^T y: each point's sum of its row coefficients times the row values y."""
    return np.bincount(I, A * y, n) + np.bincount(J, B * y, n)


def _point_table(I, J, n):
    """The pricing table of the rows over n points: row p lists point p's
    entries [rows as i, rows as j] in that order, each row in index order,
    padded to the largest degree with the index m = I.size of the extra
    zero score that ``_top_rows_per_point`` reads; int32."""
    m = I.size
    pts = np.concatenate([I, J], dtype=np.int32)
    order = np.argsort(pts, kind="stable")  # the entries point by point
    deg = np.bincount(pts, minlength=n)
    table = np.full((n, max(int(deg.max(initial=0)), 1)), m, dtype=np.int32)
    # the sorted entry e of point p goes to p's slot e - (p's first entry)
    at = np.repeat((np.arange(n) * table.shape[1] - np.cumsum(deg) + deg).astype(np.int32), deg)
    at += np.arange(at.size, dtype=np.int32)
    order %= max(m, 1)  # the entry's row
    table.ravel()[at] = order
    return table


def _top_rows_per_point(score, table):
    """Each point's (at most) ``_ROWS_PER_POINT`` incident rows of largest
    positive score, over the rows of ``_point_table``; score has one entry
    per row and a last, zero one for the pads.  Ties go to the earlier
    entry, so a row met as i beats a tied row met as j.  The table's lines
    go in blocks of at most ``_PRICE_BLOCK`` entries, each gathered into
    one reused buffer, then one pass per rank: each point's first entry of
    largest score, taken if positive."""
    lines = max(1, _PRICE_BLOCK // table.shape[1])
    buf, picked = np.empty((min(lines, table.shape[0]), table.shape[1])), []
    for b in range(0, table.shape[0], lines):
        block = table[b:b + lines]
        vals = np.take(score, block, out=buf[:len(block)], mode="clip")  # in range: no check
        pts = np.arange(len(block))
        for _ in range(_ROWS_PER_POINT):
            first = vals.argmax(axis=1)
            hit = vals[pts, first] > 0.0
            picked.append(block[pts[hit], first[hit]])
            vals[pts, first] = 0.0  # taken
    return np.unique(np.concatenate(picked))  # a row may be both its points' pick


def _working_set(I, J, A, B, T, g, solve_round):
    """Delayed constraint generation: ``solve_round(work, g)`` solves on the
    rows ``work`` from the gradient g.

    The set starts with each point's rows of largest t/(a+b), the violation
    per unit of g at g = 0; after each solve each point's outside rows of
    largest violation/(a+b) join it, until no outside row is violated by more
    than ``_GEN_TOL * t``.  That optimum satisfies every row, so it is the
    full problem's; each round adds a row, so the loop ends.  Rows are
    priced on one ``_point_table`` per solve, their scores in one array.
    Returns the last gradient, not yet repaired.
    """
    AB, table = A + B, _point_table(I, J, g.size)
    score = np.zeros(T.size + 1)  # the last score: the pads'
    viol = np.divide(T, AB, out=score[:-1])
    work = _top_rows_per_point(score, table)
    for rounds in itertools.count(1):
        g = solve_round(work, g)
        np.take(g, I, out=viol)  # viol = t - a g_i - b g_j, built in place
        viol *= A
        viol += B * g[J]
        np.subtract(T, viol, out=viol)
        viol[work] = 0.0
        viol[viol <= _GEN_TOL * T] = 0.0
        if not viol.any():
            _note(rounds=rounds, rows=work.size)
            return g
        # the new rows score 0 on the set (violation 0), so they are not on it
        viol /= AB
        work = np.sort(np.concatenate([work, _top_rows_per_point(score, table)]))


# Newton steps: the Hessian's floor on g / max g where the curvature is
# unbounded at 0 (g**p with p < 2), the gradient's last floor, steps per
# round, halvings per step and the relative decrease of the modular at or
# below which a step stalls
_HESS_FLOOR, _GRAD_FLOOR = 1e-3, 1e-12
_STEPS, _HALVINGS, _STALL = 60, 53, 1e-12
# the step QP (``_dual_qp``): the ridge that makes it strictly convex, per
# entry relative to |gradient| / g; the violation, relative to a
# constraint's terms, at which it joins; the share of its curvature below
# which it depends on the active ones; joins per column and row at most
_QP_RIDGE, _QP_TOL, _QP_DEPENDENT, _QP_STEPS = 1e-6, 1e-12, 1e-11, 10
# the violation of a row, relative to its terms at the largest entry of each
# entry's Hessian block, at or below which it is rounding (x is accurate
# relative to its blocks, which couple their entries): smaller ones can make
# two constraints join in turn until the iteration limit
_QP_NOISE = 1e-15
# rows of the diagonal blocks that ``_tri_inv`` inverts directly
_TRI_BLOCK = 128


@dataclass(frozen=True)
class _Modular:
    """A convex modular rho on x >= 0 for ``_minimize_modular``.

    ``value``, ``grad`` and ``hess`` evaluate rho, its gradient and its
    block-diagonal Hessian (idx, H): H[b] on the entries idx[b], every entry
    in one block.  A separable rho's Hessian is taken at x floored at
    ``_HESS_FLOOR`` max x, where its curvature is unbounded (``floored``)
    or vanishes at 0, and a ``floored`` entry starts the gradient's floor
    at ``_HESS_FLOOR``.  ``conj(z)`` is (s, rho*(s z))
    for the largest s <= 1 that puts s z in the domain of the conjugate
    rho*, or None where rho* has no closed form.  A separable rho = c.x**p
    also keeps c and p (a float when constant)."""

    value: object
    grad: object
    hess: object
    conj: object
    floored: object
    c: np.ndarray | None = None
    p: object = None


def _separable(c, p):
    """rho(g) = c.g**p for p >= 1, a float or one exponent per entry;
    entries with p == 1 are linear, so rho* is finite only on z <= c there."""
    lin = np.asarray(p) == 1.0
    some, every = bool(lin.any()), bool(lin.all())
    diag = np.arange(c.size)[:, None]

    def value(g):
        with np.errstate(over="ignore"):
            return float(c @ g ** p)

    def conj(z):
        s = 1.0
        if some:
            on = lin & (z > 0)
            s = min(1.0, float(np.min(c[on] / z[on], initial=1.0)))
        if every:
            return s, 0.0
        cc, pp, zz = (c[~lin], p[~lin], s * z[~lin]) if some else (c, p, s * z)
        with np.errstate(over="ignore"):
            return s, float(np.sum((pp - 1.0) * cc * (zz / (pp * cc)) ** (pp / (pp - 1.0))))

    return _Modular(value, lambda g: c * p * g ** (p - 1.0),
                    lambda g: (diag, (c * p * (p - 1.0) * g ** (p - 2.0))[:, None, None]),
                    conj, p < 2, c, p)


def _tl_modular(L, pv, qv, w):
    """rho(x) = sum_i w_i ||x_i||_q_i**p_i, x_i point i's L stacked levels,
    with per point the L x L Hessian block w p (q-1) S**(r-1) diag(x**(q-2))
    + w p (p-q) S**(r-2) v v^T (S = sum x**q, r = p/q, v = x**(q-1); zero
    entries get zero rows and columns, the Hessian on the positive entries)
    and rho*(z) = sum_i (p-1) w (||z_i||_q'/(p w))**(p/(p-1)), 1/q + 1/q' = 1
    (at p == 1: finite only on ||z_i||_q' <= w, and 0 there)."""
    n = pv.size
    r, lin = pv / qv, pv == 1.0
    idx = np.arange(L)[None, :] * n + np.arange(n)[:, None]
    k = np.arange(L)
    with np.errstate(divide="ignore"):
        qd = qv / (qv - 1.0)

    def sums(x):
        X = x.reshape(L, n)
        with np.errstate(over="ignore"):
            return X, np.sum(X ** qv, axis=0)

    def value(x):
        with np.errstate(over="ignore"):
            return float(np.sum(w * sums(x)[1] ** r))

    def grad(x):
        X, S = sums(x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            G = w * pv * S ** (r - 1.0) * X ** (qv - 1.0)
        G[:, S == 0.0] = 0.0
        return G.ravel()

    def hess(x):
        X, S = sums(x)
        on, live = X > 0, S > 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            V = np.where(on, X ** (qv - 1.0), 0.0).T
            outer = np.where(live, w * pv * (pv - qv) * S ** (r - 2.0), 0.0)
            diag = (np.where(live, w * pv * (qv - 1.0) * S ** (r - 1.0), 0.0)
                    * np.where(on, X ** (qv - 2.0), 0.0))
        H = outer[:, None, None] * V[:, :, None] * V[:, None, :]
        H[:, k, k] += diag.T
        return idx, H

    def conj(z):
        Z = z.reshape(L, n)
        top = Z.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            ratio = np.where(top > 0, Z / top, 0.0)
            dual = np.where(qv == 1.0, top, top * np.sum(ratio ** qd, axis=0) ** (1.0 / qd))
        on = lin & (dual > 0)
        s = min(1.0, float(np.min(w[on] / dual[on], initial=1.0)))
        pp, ww, dd = pv[~lin], w[~lin], s * dual[~lin]
        with np.errstate(over="ignore"):
            return s, float(np.sum((pp - 1.0) * ww * (dd / (pp * ww)) ** (pp / (pp - 1.0))))

    return _Modular(value, grad, hess, conj, True)


def _level_sum_hessian(X, pv, ev, w, psd=False):
    """The n x n Hessian blocks nu (grad^2 log nu + g g^T) of the level
    infima nu of the rows of X >= 0 (``norms._level_roots``, e = p/q), with
    g = grad log nu = p pi / X and grad^2 log nu = diag(p (p-1) pi / X**2)
    - (e g) g^T - g (e g)^T + (e**2 . pi) g g^T, pi the roots' term weights;
    zero entries get zero rows and columns (the Hessian on the positive
    entries), and zero rows zero blocks.  ``psd``: each block clipped to its
    positive semidefinite part."""
    nu, pi = _level_roots(X, pv, ev, w)
    on = pi > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        G = np.where(on, pv * pi / X, 0.0)
        D = np.where(on, pv * (pv - 1.0) * pi / X / X, 0.0)
    eG = ev * G
    H = ((np.sum(pi * ev ** 2, axis=1) + 1.0)[:, None, None] * G[:, :, None] * G[:, None, :]
         - eG[:, :, None] * G[:, None, :] - G[:, :, None] * eG[:, None, :])
    k = np.arange(X.shape[1])
    H[:, k, k] += D
    H *= np.where(np.isfinite(nu), nu, 0.0)[:, None, None]
    if psd:
        vals, vecs = np.linalg.eigh(H)
        H = np.einsum("bik,bk,bjk->bij", vecs, np.maximum(vals, 0.0), vecs)
    return H


def _level_sum_modular(L, pv, qv, w):
    """rho(x) = sum_k nu_k(x_k), the level sum of the level infima of the
    stacked levels x_k (``_level_sum``), with one n x n Hessian block per
    level (``_level_sum_hessian``), clipped positive semidefinite where
    q > p somewhere (rho is convex only for q <= p); rho* has no closed form."""
    n, ev = pv.size, pv / qv
    idx = np.arange(L * n).reshape(L, n)
    return _Modular(lambda x: float(_level_roots(x.reshape(L, n), pv, ev, w)[0].sum()),
                    lambda x: _level_sum(x.reshape(L, n), pv, ev, w)[1].ravel(),
                    lambda x: (idx, _level_sum_hessian(x.reshape(L, n), pv, ev, w,
                                                       bool(np.any(qv > pv)))),
                    None, True)


def _block_dot(idx, H, x):
    """H x for the block-diagonal matrix with blocks H[b] on the entries
    idx[b], x a vector or the columns of a matrix."""
    out = np.empty(x.shape)
    out[idx] = np.einsum("bij,bj...->bi...", H, x[idx])
    return out


def _qp_rows(I, J, A, B, T, n):
    """The constraints of ``_dual_qp``: the bounds x >= 0, then the rows
    a x_i + b x_j >= t scaled to unit norm, as (i, j, a, b, lo), and the
    rows' norms.  Rows added at the end keep every constraint's index."""
    ent, zero, norm, cat = np.arange(n), np.zeros(n), np.hypot(A, B), np.concatenate
    return (cat([ent, I]), cat([ent, J]), cat([zero + 1.0, A / norm]), cat([zero, B / norm]),
            cat([zero, T / norm])), norm


def _tri_inv(L):
    """The inverse of a lower triangular L with a positive diagonal, by
    halves: [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], with
    ``np.linalg.inv`` (an LU solve) on blocks of at most ``_TRI_BLOCK`` rows."""
    k = L.shape[0]
    if k <= _TRI_BLOCK:
        return np.linalg.inv(L)
    h = k // 2
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = _tri_inv(L[:h, :h]), _tri_inv(L[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])
    return out


def _inverse_factor(S):
    """U with U U^T = S^-1 for the Gram matrix S of constraints, U = L^-T
    for the Cholesky factor L of S.  Raises ``LinAlgError`` when a
    constraint depends on the ones before it: its pivot L_aa**2, its
    curvature S_aa less theirs, is at most ``_QP_DEPENDENT`` of S_aa (the
    test of a join), or the factorization fails."""
    L = np.linalg.cholesky(S)
    if np.any(np.diag(L) ** 2 <= _QP_DEPENDENT * np.diag(S)):
        raise np.linalg.LinAlgError("dependent constraints")
    return _tri_inv(L).T


def _dual_qp(idx, H, c, rows, start):
    """min 1/2 x.Hx + c.x over the unit-norm rows and the bounds of
    ``_qp_rows`` for a block-diagonal positive definite H (blocks H[b] on
    the entries idx[b]), by the dual active-set method of Goldfarb and
    Idnani (*A numerically stable dual method for solving strictly convex
    quadratic programs*).

    The active constraints N, with multipliers u >= 0, start as ``start``
    (constraint indices; no start if they depend on each other).  The most
    violated constraint n joins them, one at a time, along the primal
    direction z = H^-1 n - H^-1 N r and the dual direction
    r = S^-1 N^T H^-1 n, S = N^T H^-1 N: a full step makes n active, a
    partial one drops the active constraint whose multiplier reaches zero.
    H^-1 is 1/h for a diagonal H, else one dense inverse of the blocks.
    S^-1 is kept as U U^T with U square: one Cholesky factorization and
    triangular inverse (``_tri_inv``) at the start, a border when a
    constraint joins and a Householder reflection when one leaves
    (``drop``).  At the start and whenever no constraint is violated, x and
    u are solved afresh on the active set (``settle``), where constraints
    of negative multiplier leave; the solve returns once that point
    violates none.  Returns x, the constraints' multipliers (zero off the
    active set) and the active set."""
    ci, cj, ca, cb, lo = rows
    n = c.size
    if H.shape[1] == 1:
        hinv = np.empty(n)
        hinv[idx[:, 0]] = 1.0 / H[:, 0, 0]
    else:
        hinv = np.zeros((n, n))
        hinv[idx[:, :, None], idx[:, None, :]] = np.linalg.inv(H)

    def solve(v):  # H^-1 v, v a vector or the columns of a matrix
        return (hinv * v.T).T if hinv.ndim == 1 else hinv @ v

    # the k active constraints: their indices, multipliers, columns N and
    # factor U (S^-1 = U U^T) in the leading parts of buffers for all n
    act, u, N, U = np.zeros(n, dtype=int), np.zeros(n), np.zeros((n, n)), np.zeros((n, n))

    def gather(v):  # N^T v
        return N[:, :k].T @ v

    def scatter(w):  # N w
        return N[:, :k] @ w

    def factor(w):  # S^-1 w
        return U[:k, :k] @ (U[:k, :k].T @ w)

    def drop(leave):
        # the last constraint takes the leaving one's place, and a Householder
        # reflection maps the leaving row of U onto U's last column
        nonlocal k
        h = U[leave, :k] / math.sqrt(U[leave, :k] @ U[leave, :k])
        h[-1] += math.copysign(1.0, h[-1])
        h /= math.sqrt(h @ h)
        k -= 1
        U[leave, :k + 1], N[:, leave], u[leave], act[leave] = U[k, :k + 1], N[:, k], u[k], act[k]
        U[:k, :k + 1] -= (2.0 * (U[:k, :k + 1] @ h))[:, None] * h

    def settle(x):
        # the equality problem on the active set from x and u (x None: from
        # u = S^-1 (lo + N^T H^-1 c)), refined twice for the residuals of
        # H x + c = N u and N^T x = lo; negative multipliers leave
        while True:
            if x is None:
                u[:k] = factor(lo[act[:k]] + gather(solve(c)))
                x = solve(scatter(u[:k]) - c)
            for _ in range(2):
                d = _block_dot(idx, H, x) + c - scatter(u[:k])
                du = factor(lo[act[:k]] - gather(x) + gather(solve(d)))
                x, u[:k] = x + solve(scatter(du) - d), u[:k] + du
            if k == 0 or u[:k].min() >= 0.0:
                return x
            for leave in np.flatnonzero(u[:k] < 0.0)[::-1]:
                drop(leave)
            x = None

    lo_tol = (1.0 - _QP_TOL) * lo

    def violated(x):
        # the most violated inactive row (beyond _QP_TOL of its terms and,
        # for block H, _QP_NOISE of the terms at each entry's block maximum)
        # or bound (beyond _QP_TOL of the largest entry), or None
        ax, bx = ca * x[ci], cb * x[cj]
        tol = _QP_TOL * (np.abs(ax) + np.abs(bx))
        if hinv.ndim == 2:
            size = np.empty(n)
            size[idx] = np.abs(x[idx]).max(axis=1, keepdims=True)
            tol = np.maximum(tol, _QP_NOISE * (ca * size[ci] + cb * size[cj]))
        viol = lo_tol - ax - bx - tol
        viol[:n] = -x - _QP_TOL * np.abs(x).max()
        viol[act[:k]] = 0.0
        p = int(np.argmax(viol))
        return p if viol[p] > 0.0 else None

    start = start if len(start) <= n else start[:0]  # more than n depend on each other
    k = len(start)
    act[:k] = start
    N[ci[start], np.arange(k)] = ca[start]
    N[cj[start], np.arange(k)] += cb[start]
    try:
        U[:k, :k] = _inverse_factor(gather(solve(N[:, :k])))
    except np.linalg.LinAlgError:  # the start's constraints depend on each other
        k = 0
    joins, x = _QP_STEPS * (n + lo.size), None
    with np.errstate(divide="ignore", invalid="ignore"):  # the ratio test's r <= 0
        while joins > 0:
            x = settle(x)
            p = violated(x)
            if p is None:
                mult = np.zeros(lo.size)
                mult[act[:k]] = u[:k]
                return x, mult, act[:k].copy()
            while p is not None and joins > 0:
                joins -= 1
                e = np.zeros(n)
                e[ci[p]] = ca[p]
                e[cj[p]] += cb[p]
                v, up = solve(e), 0.0
                gap, dependent = e @ x - lo[p], _QP_DEPENDENT * (e @ v)
                while True:  # partial steps until p joins
                    r = factor(gather(v))
                    z = v - solve(scatter(r))
                    rho2 = e @ z
                    t2 = -gap / rho2 if rho2 > dependent and k < n else np.inf
                    t1, leave = np.inf, -1
                    if k:
                        ratio = u[:k] / r
                        ratio[r <= 0.0] = np.inf
                        leave = int(np.argmin(ratio))
                        t1 = ratio[leave]
                    t = min(t1, t2)
                    if t == np.inf:
                        raise RuntimeError("QP solve failed: infeasible rows")
                    if t2 < np.inf:
                        x = x + t * z
                        gap += t * rho2
                    u[:k] -= t * r
                    up += t
                    if t2 <= t1:
                        rho = math.sqrt(rho2)
                        U[:k, k], U[k, :k], U[k, k] = -r / rho, 0.0, 1.0 / rho
                        N[:, k], u[k], act[k] = e, up, p
                        k += 1
                        break
                    drop(leave)
                p = violated(x)
    raise RuntimeError("QP solve failed: iteration limit")


def _level(rho, g, t, f=None):
    """One Newton step on log rho(e**t g) = 0 in t = log mu; its slope is the
    envelope slope <grad rho(x), x> / rho(x) at x = e**t g, and f is rho(x)
    if known."""
    x = math.exp(t) * g
    f = rho.value(x) if f is None else f
    return t - math.log(f) * f / float(rho.grad(x) @ x)


def _minimize_modular(rho, I, J, A, B, T, n, g0=None):
    """A convex modular rho (``_Modular``) minimized over ``_working_set``'s
    rows, on one model of the rows admitted so far; each round adds only its
    new rows.  Starts from g0, by default ``_feasible_point``.

    A separable rho with one exponent p is minimized itself.  Any other rho
    is minimized through its gauge: the least norm inf{lam : rho(g/lam) <= 1}
    over the rows is 1/mu at the level mu where phi(mu) = min over the rows
    of rho(mu g) is one.  mu starts at g0's gauge and takes a Newton step
    on log phi (``_level``) after every Newton step on g; at one exponent
    that step is exact.

    At p == 1 the model is a HiGHS LP, the LP's dual max t.y over
    A^T y <= c, y >= 0, with one row per point: a round's rows join as
    columns, so a round is one run of primal simplex restarted from the last
    basis, on n basic variables; g is the row duals and y the column values.
    Otherwise a round takes Newton steps on rho(mu g), each one QP
    (``_dual_qp``) from the last step's active constraints, on the Hessian at
    g floored at ``_HESS_FLOOR`` max g (a block Hessian at the gradient's
    point) plus a ridge of ``_QP_RIDGE`` |gradient| / g, and the gradient at
    g floored at a floor that drops 1e3-fold, down to ``_GRAD_FLOOR``, at
    each stalled step (from ``_HESS_FLOOR`` where ``floored``).  The first
    step of a round takes the QP point, since g can miss the new rows; later
    steps halve towards it while rho(mu g) rises.  A step stalls when it
    lowers rho(mu g) by at most ``_STALL`` relative or 1e-3 of the gap to
    the best D(y).  A round stops once rho(mu g) is within ``_GAP_TOL`` of
    the best D(y) at a settled level (a level step of at most
    ``_LEVEL_TOL``), after ``_STEPS`` steps or on a stall at the last floor.

    Any row duals y >= 0 on the model's rows (zero off them) are feasible
    for the full dual, so D(y) = t.y - rho*(A^T y / mu) bounds the optimum
    at mu from below (y scaled into rho*'s domain first).  The best D(y) at
    the last level and rho(mu g) at the better of the repaired point and g0
    are the solve's ``bracket``, its lower end at most its upper one (both
    bound one optimum, so a D(y) above rho(mu g) is rounding); a gap above
    ``EPS_OPT``, or a level not settled to ``EPS_OPT``, is noted as open.
    Without a closed-form rho* the rounds stop only on a stall (the first
    drops the gradient's floor straight to ``_GRAD_FLOOR``), and the solve
    has no bracket.
    """
    g0 = _feasible_point(n, I, J, A, B, T) if g0 is None else g0
    gauge = rho.c is None or np.ndim(rho.p) > 0
    linear = not gauge and rho.p == 1
    t_mu = -math.log(g0.max()) if gauge else 0.0  # log mu
    for _ in range(_STEPS if gauge else 0):
        t_mu, prev = _level(rho, g0, t_mu), t_mu
        if abs(t_mu - prev) <= _GAP_TOL:
            break
    mu = mu0 = math.exp(t_mu)
    model = np.zeros(0, dtype=int)  # working-set rows in the model's row order
    held = np.zeros(T.size, dtype=bool)  # the rows in the model
    best = -np.inf  # the best dual bound D(y) at the level mu
    floor = _HESS_FLOOR if np.any(rho.floored) else _GRAD_FLOOR  # the gradient's floor
    active = model  # the last QP's active constraints (``_qp_rows``)

    def phi(g, level=None):  # rho at the level mu
        return rho.value((mu if level is None else level) * g)

    def grow(work):
        nonlocal model
        new = work[~held[work]]
        held[new] = True
        model = np.concatenate([model, new])
        return new

    def bound(y):
        # D(y) at mu for duals y >= 0 on the model's rows, kept if the best so far
        nonlocal best
        if rho.conj is not None:
            z = _rows_transposed(I[model], J[model], A[model], B[model], y, n)
            s, conj = rho.conj(z / mu)
            best = max(best, float(T[model] @ (y * s)) - conj)

    if linear:
        # the LP's dual, max t.y over A^T y <= c, y >= 0: each round's rows
        # join as columns, so the last basis stays primal feasible and primal
        # simplex restarts from it on n rows; g is the row duals, held to the
        # rows by the dual tolerance of 1e-10 (HiGHS's default 1e-7 can stop
        # that far short of a row, which _repair turns into a scale-up of g)
        highs = _load_highs()
        lp = highs._Highs()
        lp.setOptionValue("output_flag", False)
        lp.setOptionValue("dual_feasibility_tolerance", 1e-10)
        lp.setOptionValue("simplex_strategy", 4)  # primal simplex
        lp.changeObjectiveSense(highs.ObjSense.kMaximize)
        lp.addRows(n, np.full(n, -highs.kHighsInf), rho.c, 0, np.zeros(n, dtype=np.int32),
                   np.zeros(0, dtype=np.int32), np.zeros(0))

        def solve_round(work, g):
            new = grow(work)
            lp.addCols(new.size, T[new], np.zeros(new.size), np.full(new.size, highs.kHighsInf),
                       2 * new.size, np.arange(0, 2 * new.size, 2, dtype=np.int32),
                       np.column_stack([I[new], J[new]]).astype(np.int32).ravel(),
                       np.column_stack([A[new], B[new]]).ravel())
            lp.run()
            status = lp.modelStatusToString(lp.getModelStatus())
            _note(nit=1)
            if status != "Optimal":
                raise RuntimeError(f"LP solve failed: {status}")
            sol = lp.getSolution()
            bound(np.maximum(np.asarray(sol.col_value), 0.0))
            return np.maximum(np.asarray(sol.row_dual), 0.0)
    else:
        def newton_point(g, rows, norm):
            # the QP point of the Newton model of rho(mu x) at g, and D(y) for
            # its duals; blocks couple their entries, so a block Hessian takes
            # the gradient's point, floored at _HESS_FLOOR**2 for x**(q-2)
            nonlocal active
            gl = np.maximum(g, floor * g.max())
            gh = np.maximum(g, (_HESS_FLOOR if rho.c is not None
                                else max(floor, _HESS_FLOOR ** 2)) * g.max())
            idx, H = rho.hess(mu * gh)
            H, k = mu ** 2 * H, np.arange(H.shape[1])
            lin = mu * rho.grad(mu * gl)
            ridge = np.abs(lin) / gh
            H[:, k, k] += _QP_RIDGE * np.maximum(ridge, _QP_RIDGE * ridge.max())[idx]
            x, mult, active = _dual_qp(idx, H, lin - _block_dot(idx, H, gl), rows, active)
            _note(nit=1)
            bound(mult[n:] / norm)
            return np.maximum(x, 0.0)

        def solve_round(work, g):
            nonlocal floor, mu, t_mu, best
            grow(work)
            rows, norm = _qp_rows(I[model], J[model], A[model], B[model], T[model], n)
            first = True  # the first step takes the QP point: g can miss the new rows
            f = phi(g)  # phi at g, evaluated once per point and level
            for _ in range(_STEPS):
                d = newton_point(g, rows, norm) - g
                t, f_t = 0.0, f  # no halving lowers phi: the step is 0
                for s in (1.0,) if first else 0.5 ** np.arange(_HALVINGS):
                    value = phi(g + s * d)
                    if first or value <= f:
                        t, f_t = s, value
                        break
                least = _STALL * f if rho.conj is None else max(_STALL * f, 1e-3 * (f - best))
                stalled = not first and f - f_t <= least
                g, f, first = g + t * d, f_t, False
                step = _level(rho, g, t_mu, f) - t_mu if gauge else 0.0
                if f - best <= _GAP_TOL * f and abs(step) <= _LEVEL_TOL:
                    return g
                if stalled:
                    if floor <= _GRAD_FLOOR:
                        return g
                    floor = max(floor * 1e-3, _GRAD_FLOOR) if rho.conj is not None else _GRAD_FLOOR
                if step:  # a new level: D(y) at the old one bounds nothing
                    t_mu += step
                    mu, best = math.exp(t_mu), -np.inf
                    f = phi(g)
            return g

    g = _working_set(I, J, A, B, T, g0, solve_round)
    g = _repair(g, I, J, A, B, T)
    g = g0 if phi(g0, mu0) < phi(g, mu0) else g
    path = "qp_gauge" if gauge else "lp" if linear else "qp"
    if rho.conj is None:
        _note(path)
        return g
    upper = phi(g)
    _note(path, bracket=[min(best, upper), upper],
          opened=upper - best > EPS_OPT * upper or (gauge and abs(math.log(upper)) > EPS_OPT))
    return g


_MM_STARTS, _MM_FINAL, _MM_TOL = (1e-1, 1e-2), 1e-5, 1e-6


def _majorize_minimize(x0, norm, w, pv, inner, solve):
    """Majorize-minimize on the gauge of a modular sum_i w_i t_i(x)**p_i,
    nonconvex through its inner values t_i or its exponents p < 1.

    A step at the iterate x of norm lam and a = max(x, floor * max x) / lam
    majorizes each p < 1 by its tangent at the inner value alpha = inner(a),
    w t**p <= w (1-p) alpha**p + w p alpha**(p-1) t; with b the sum of the
    constants, ``solve(a, wt)`` minimizes over the rows the gauge with outer
    exponents max(p, 1), weights wt = (w p alpha**(p-1) where p < 1, else w)
    / (1 - b) and inner values majorized tightly at a (empty once b >= 1).
    That unit ball lies in the modular's, so the step's norm is at most its
    gauge, at most lam while no entry is floored.  From x0, each start's
    floor and then ``_MM_FINAL`` run until a step lowers the norm by less
    than the relative ``_MM_TOL``; returns the iterate of least norm.
    """
    _note("mm")
    lin = pv < 1.0
    runs = [(norm(x0), x0)]
    for start in _MM_STARTS:
        lam, x = runs[0]
        for floor in (start, _MM_FINAL):
            prev = np.inf
            while lam < prev * (1.0 - _MM_TOL):
                a = np.maximum(x, floor * x.max()) / lam
                alpha = inner(a)
                b = float(np.sum(w[lin] * (1.0 - pv[lin]) * alpha[lin] ** pv[lin]))
                if b >= 1.0:
                    break
                y = solve(a, np.where(lin, w * pv * alpha ** (pv - 1.0), w) / (1.0 - b))
                prev, lam_y = lam, norm(y)
                if lam_y < lam:
                    lam, x = lam_y, y
        runs.append((lam, x))
    return min(runs, key=lambda run: run[0])[1]


def _rows(system, rows=None):
    r = slice(None) if rows is None else rows
    return (system.I[r], system.J[r], system.coef_i[r], system.coef_j[r],
            system.target[r])


def _min_norm_scalar(system, pv, w, tol):
    """Minimize the Lebesgue quasi-norm of g over a scalar system: one
    ``_minimize_modular`` solve of the modular w.g**p for min p >= 1
    (constant p minimized itself, variable p through its gauge), and
    majorize-minimize over these for min p < 1."""
    n = system.n
    if system.m == 0:
        return np.zeros(n), NormValue(0.0, 0.0)
    rows = _rows(system)
    if pv.min() < 1.0:
        g = _majorize_minimize(
            _feasible_point(n, *rows), lambda g: luxemburg(g, pv, w, 1e-10).value, w, pv,
            lambda a: a,
            lambda a, wt: _min_norm_scalar(system, np.maximum(pv, 1.0), wt, tol)[0])
    else:
        g = _minimize_modular(_separable(w, float(pv[0]) if np.ptp(pv) == 0 else pv), *rows, n)
    return g, luxemburg(g, pv, w, min(tol, 1e-10))


@dataclass(frozen=True)
class GradientSolution:
    """``info`` (not in ``to_json``) has the size and the solve's provenance
    (``_provenance``): ``path``, ``slsqp_status`` (of the variable-q Besov
    bisection only), ``rounds``, ``rows``, ``nit`` (SLSQP iterations, QP
    solves and LP runs), ``open`` and, when the solve was one
    ``_minimize_modular`` solve with a dual bound, the ``bracket`` [lower,
    upper]: at a constant exponent (the scalar norm, and on the TL scale
    q == p and the q == inf envelope) on the minimal modular sum w g**p, and
    for a gauge (path ``qp_gauge``: variable p, the TL joint problem) on
    min rho(mu g) at its last level mu.  There is none for the Besov level
    sum, which has no bound, nor for a constant-q Besov norm over several
    levels (one solve per level).  On the paths ``lp``, ``qp`` and
    ``qp_gauge``, ``certified`` says that every modular solve closed its
    bracket (false for the Besov level sum)."""

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
    identically one); flagged heuristic otherwise, and where a modular
    solve's bracket stays open (``info["open"]``).
    """
    system = GradientConstraintSystem.scalar(space, u, s, subset)
    idx = system.idx
    w = space.weight[idx]
    pv = exponent_values(p, space.n)[idx]
    info = {"n": system.n, "constraints": system.m}
    with _provenance(info):
        g, nv = _min_norm_scalar(system, pv, w, tol)
    cert = system.violation(g)
    if cert > _CERT_TOL * max(1.0, float(system.target.max(initial=0.0))):
        raise RuntimeError(f"infeasible solver output (violation {cert})")
    return GradientSolution(g=g, objective=nv, certificate=cert,
                            heuristic=bool(pv.min() < 1.0 or info["open"]), info=info)


def _assemble_sequence(space_levels, per_level_g, n) -> SequenceSample:
    k_min, k_max = space_levels
    k_lo, k_hi = min([k_min, *per_level_g]), max([k_max, *per_level_g])
    vals = np.zeros((k_hi - k_lo + 1, n))
    for k, g in per_level_g.items():
        vals[k - k_lo] = g
    return SequenceSample(k_lo, vals)


def minimal_vector_gradient(space, u, s, p, q, scale: str = "lq_lp", tol: float = 1e-6,
                            subset=None, convention: str = "distance") -> GradientSolution:
    """Smallest mixed-norm of a vector gradient of u.

    ``scale="lq_lp"`` minimizes the level-sum (Besov) norm, which decomposes
    into independent per-level problems; ``scale="lp_lq"`` minimizes the
    pointwise-sequence (TL) norm, a joint problem over all levels.
    ``convention`` picks the level weights (``GradientConstraintSystem.vector``).
    """
    if scale not in ("lq_lp", "lp_lq"):
        raise ValueError("scale must be 'lq_lp' or 'lp_lq'")
    system = GradientConstraintSystem.vector(space, u, s, subset, convention)
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

    info = {"n": system.n, "constraints": system.m, "scale": scale}
    with _provenance(info):
        if system.m == 0:
            seq = _assemble_sequence(lev_range, {}, system.n)
            nv = NormValue(0.0, 0.0, kind="mixed_lqp" if scale == "lq_lp" else "mixed_plq")
        else:
            solve = _solve_besov if scale == "lq_lp" else _solve_tl
            seq, nv = solve(system, pv, qv, w, tol, lev_range)

    cert = _sequence_violation(system, seq)
    if cert > _CERT_TOL * max(1.0, float(system.target.max(initial=0.0))):
        raise RuntimeError(f"infeasible vector solution (violation {cert})")
    return GradientSolution(g=seq, objective=nv, certificate=cert,
                            heuristic=bool(heuristic or info["open"]), info=info)


def _sequence_violation(system, seq: SequenceSample) -> float:
    """The largest violation of each row by its level of ``seq``, in one gather."""
    vals = np.pad(seq.values, ((1, 1), (0, 0)))  # levels outside the sample read zero
    r = np.clip(system.level - seq.k_min + 1, 0, vals.shape[0] - 1)
    lhs = system.coef_i * vals[r, system.I] + system.coef_j * vals[r, system.J]
    return float(np.max(system.target - lhs, initial=0.0))


def _solve_besov(system, pv, qv, w, tol, lev_range):
    finite = np.isfinite(qv)
    if not finite.any() or (finite.all() and np.ptp(qv) == 0):
        # constant q: the level norm of the per-level Lebesgue norms
        sols = {}
        for k in np.unique(system.level):
            rows = system.rows_for_level(int(k))
            sub = {f: getattr(system, f)[rows]
                   for f in ("I", "J", "dist", "coef_i", "coef_j", "target")}
            sols[int(k)] = _min_norm_scalar(replace(system, level=None, **sub), pv, w, tol)
        norms = [nv.value for _, nv in sols.values()]
        qc = float(qv[0])
        value = max(norms) if qc == np.inf else float(np.sum(
            [v ** qc for v in norms]) ** (1.0 / qc))
        seq = _assemble_sequence(lev_range, {k: g for k, (g, _) in sols.items()}, system.n)
        return seq, NormValue(value, tol * value, kind="mixed_lqp")
    if finite.all() and np.array_equal(qv, pv):
        return _solve_modular_decoupled(system, pv, w, tol, lev_range)
    return _solve_besov_general(system, pv, qv, w, tol, lev_range)


def _stack(system):
    """The level-stacked scalar system of a vector system, level ks[r] in
    columns r*n .. r*n+n-1; returns (ks, stacked)."""
    ks, pos = np.unique(system.level, return_inverse=True)
    n, N = system.n, ks.size * system.n
    return ks, replace(system, n=N, idx=np.arange(N), I=system.I + pos * n,
                       J=system.J + pos * n, level=None)


def _solve_modular_decoupled(system, pv, w, tol, lev_range):
    """q == p pointwise: both mixed norms are the Lebesgue norm of the
    level-stacked family, so this is the scalar problem on L*n variables."""
    ks, stacked = _stack(system)
    g, nv = _min_norm_scalar(stacked, np.tile(pv, ks.size), np.tile(w, ks.size), tol)
    seq = _assemble_sequence(lev_range, dict(zip(ks.tolist(), g.reshape(ks.size, -1))), system.n)
    return seq, replace(nv, kind="mixed_lqp")


def _level_sum(X, pv, ev, w):
    """(sum_k nu_k, d/dX): the level sum of the level infima of the rows of
    X >= 0 (``norms._level_roots``, e = p/q) and its gradient nu_k p pi_k / X_k
    with pi the roots' term weights, zero where X is and on rows whose
    infimum is infinite."""
    nu, pi = _level_roots(X, pv, ev, w)
    finite = np.where(np.isfinite(nu), nu, 0.0)
    return float(nu.sum()), finite[:, None] * pv * pi / np.maximum(X, 1e-300)


def _level_weight(g, w, pv, qv, lam):
    """(nu, dnu/dg): the level infimum of g / lam (``_level_sum`` on one
    row), infinite when the q-infinite part alone exceeds one."""
    nu, grad = _level_sum(np.abs(g / lam)[None, :], pv, pv / qv, w)
    return nu, grad[0] / lam


def _solve_besov_general(system, pv, qv, w, tol, lev_range):
    """Fully variable q.  For finite q with min(p, q) >= 1 one gauge solve
    on the level-stacked rows (``_besov_gauge``); the bisection on the norm
    level (``_besov_bisection``) serves min(p, q) < 1 and q infinite at
    some points but not all, where the gauge is not known to hold.

    Convex (hence certified) only for 1 <= q <= p pointwise; the caller
    flags other regimes heuristic.
    """
    if np.isfinite(qv).all() and min(pv.min(), qv.min()) >= 1.0:
        seq = _besov_gauge(system, pv, qv, w, tol, lev_range)
    else:
        seq = _besov_bisection(system, pv, qv, w, tol, lev_range)
    value = mixed_norm_lq_lp(seq, pv, qv, w, min(tol, 1e-10))
    return seq, NormValue(value.value, value.tolerance, kind="mixed_lqp")


def _besov_gauge(system, pv, qv, w, tol, lev_range):
    """The Besov norm as the gauge of the level sum of the level infima over
    the stacked levels (``_level_sum_modular``): one ``_minimize_modular``
    solve from the feasible point, and restarts from its result only where
    q > p somewhere."""
    ks, stacked = _stack(system)
    L, n = ks.size, system.n
    rho = _level_sum_modular(L, pv, qv, w)

    def norm(x):
        return mixed_norm_lq_lp(SequenceSample(0, x.reshape(L, n)), pv, qv, w, tol).value

    rows = _rows(stacked)
    x = _feasible_point(L * n, *rows)
    lam = norm(x)
    while True:
        x = _minimize_modular(rho, *rows, L * n, x)
        prev, lam = lam, norm(x)
        # q > p somewhere: the level sum is not convex and its Newton steps
        # can stop short of a local minimum, so restart while that helps
        if not (np.any(qv > pv) and lam < prev * (1.0 - _MM_TOL)):
            break
    return _assemble_sequence(lev_range, dict(zip(ks.tolist(), x.reshape(L, n))), n)


def _besov_bisection(system, pv, qv, w, tol, lev_range):
    """One outer bisection on the norm level; per level the partial modular
    is minimized directly over the polyhedron with the level weight nu(g) as
    an implicitly-differentiated objective."""
    n = system.n
    ks = [int(k) for k in np.unique(system.level)]
    level_rows = {k: system.rows_for_level(k) for k in ks}
    dense, warm = {}, {}
    for k in ks:
        dense[k] = _constraint_dense(*_rows(system, level_rows[k]), n)
        warm[k] = _feasible_point(n, *_rows(system, level_rows[k]))

    @functools.lru_cache(maxsize=1)
    def level_weight(g_bytes, lam):
        # SLSQP asks for fun and then jac at the same iterate: solve once
        return _level_weight(np.frombuffer(g_bytes), w, pv, qv, lam)

    def level_min(k, lam):
        def fun(g):
            nu, _ = level_weight(g.tobytes(), lam)
            return nu if np.isfinite(nu) else 1e9

        def jac(g):
            _, grad = level_weight(g.tobytes(), lam)
            return grad

        x = _slsqp(fun, jac, warm[k] + 1e-12,
                   [_ineq(dense[k], system.target[level_rows[k]])], 300).x
        g = _repair(x, *_rows(system, level_rows[k]))
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
    _note("bisection")
    _, _, best = _bisect_level(admissible, hi, 0.5 * hi, max(tol, 1e-7), ulp_nudges=0)
    return _assemble_sequence(lev_range, best, n)


def _solve_tl(system, pv, qv, w, tol, lev_range):
    if not np.isfinite(qv).any():
        # pointwise sup norm: a single envelope function must satisfy every
        # level's constraints, i.e. the scalar problem over the same rows
        g, nv = _min_norm_scalar(replace(system, level=None), pv, w, tol)
        seq = _assemble_sequence(lev_range, dict.fromkeys(np.unique(system.level).tolist(), g),
                                 system.n)
        return seq, replace(nv, kind="mixed_plq")
    if np.array_equal(qv, pv):
        seq, nv = _solve_modular_decoupled(system, pv, w, tol, lev_range)
        return seq, replace(nv, kind="mixed_plq")
    if np.any(np.isinf(qv)):
        raise ValueError("TL scale supports q identically infinite or finite everywhere")
    ks, stacked = _stack(system)
    x = _min_tl(stacked, ks.size, pv, qv, w, tol)
    seq = _assemble_sequence(lev_range, dict(zip(ks.tolist(), x.reshape(ks.size, -1))), system.n)
    value = mixed_norm_lp_lq(seq, pv, qv, w, 1e-10)
    return seq, NormValue(value.value, value.tolerance, kind="mixed_plq")


def _min_tl(stacked, L, pv, qv, w, tol):
    """Minimizer over the level-stacked rows of the pointwise-sequence norm,
    the gauge of sum_i w_i ||x_i||_q_i**p_i with x_i point i's L levels: one
    ``_minimize_modular`` solve of that modular when it is convex (min p >= 1
    and min q >= 1), the scalar problem when moreover q == p, else
    majorize-minimize over these."""
    n = pv.size
    rows = _rows(stacked)
    if min(pv.min(), qv.min()) < 1.0:
        lin = qv < 1.0

        def norm(x):
            return mixed_norm_lp_lq(SequenceSample(0, x.reshape(L, n)), pv, qv, w, 1e-10).value

        def inner(a):
            with np.errstate(over="ignore"):
                return np.sum(a.reshape(L, n) ** qv, axis=0) ** (1.0 / qv)

        def solve(a, wt):
            # ||x_i||_q <= gamma_i . x_i for q_i < 1, as ||.||_q is concave and
            # 1-homogeneous there (tight at a_i): y = gamma x has inner exponent 1
            gamma = np.where(lin, (a.reshape(L, n) / inner(a)) ** (qv - 1.0), 1.0).ravel()
            sub = replace(stacked, coef_i=stacked.coef_i / gamma[stacked.I],
                          coef_j=stacked.coef_j / gamma[stacked.J])
            y = _min_tl(sub, L, np.maximum(pv, 1.0), np.where(lin, 1.0, qv), wt, tol)
            return _repair(y / gamma, *rows)

        return _majorize_minimize(_feasible_point(L * n, *rows), norm, w, pv, inner, solve)
    if np.array_equal(pv, qv):
        return _min_norm_scalar(stacked, np.tile(pv, L), np.tile(w, L), tol)[0]
    return _minimize_modular(_tl_modular(L, pv, qv, w), *rows, L * n)


# -- independent oracle ------------------------------------------------------

def oracle_scalar_gradient(space, u, s, p, step: float = 1e-3, subset=None,
                           coarse_step: float = 0.02) -> float:
    """Exhaustive lattice oracle for the minimal scalar-gradient norm.

    Grids all coordinates except the last on a lattice of the given step
    over [0, m_i] (m_i = the single-sided cover bound, which always contains
    a minimizer), and sets the last coordinate to its exact minimal feasible
    value.  Each value is the norm of a point feasible within 1e-12, so it
    bounds the minimum from above, nonconvex instances (min p < 1) included;
    for n <= 3 the lattice is exhaustive.  For n == 4 a coarse pass
    (``coarse_step``) locates the optimum and a second pass refines a local
    box at the requested step, which is justified for convex instances (min
    p >= 1).  Variable exponents are handled by a shared bisection on the
    norm level over the fixed feasible lattice.  Completely independent of
    the solvers.
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

        def admissible(t):
            mod = sum(w[i] * (collected[i] / t) ** pv[i] for i in range(n))
            return float(mod.min()) <= 1.0, int(np.argmin(mod))

        t_hi = float(max(pt.max() for pt in collected)) * max(
            1.0, float(w.sum()) ** (1.0 / float(pv.min()))) + 1e-30
        t_hi, _, b = _bisect_level(admissible, t_hi, t_hi * 2 ** -60, 1e-11)
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
    direct, alt = (minimal_vector_gradient(space, u, s, p, q, scale=scale, tol=tol,
                                           subset=subset, convention=c)
                   for c in ("distance", "dyadic"))
    alt_val = alt.objective.value
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
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


# entries per block of the cut-off certificate gather and of the level
# tables behind finite-q inner norms, so that memory stays bounded however
# many cut-offs are certified at once
_CUTOFF_BLOCK = 1 << 13


def _level_powers(k, s):
    """The powers 2**(k (s-1)) and 2**((k+1) s + 1) of the cut-off level
    values at levels k and smoothness s (broadcast)."""
    with np.errstate(over="ignore"):  # each branch is kept only where it applies
        return 2.0 ** (k * (s - 1.0)), 2.0 ** ((k + 1) * s + 1.0)


def _level_values(k, k_L, L, powers):
    """Level values of ``lipschitz_cutoff_gradient``: L 2**(k (s-1)) for
    k >= k_L and 2**((k+1) s + 1) below, from ``_level_powers(k, s)``."""
    above, below = powers
    with np.errstate(over="ignore"):
        return np.where(k >= k_L, L * above, below)


def _cutoff_range(space, k_L, sv, qv, tail_rel: float):
    """The level range [down, up] of the cut-off family at k_L (an int or an
    array): both tails decay geometrically with the stated ratios, and the
    range covers every pair's level."""
    s_plus = float(sv.max())
    if np.isfinite(qv.min()) or s_plus < 1.0:
        up = k_L + max(8, math.ceil(-math.log2(tail_rel) / max(1.0 - s_plus, 1e-3)))
    else:
        up = k_L + 8
    down = k_L - 1 - max(8, math.ceil(-math.log2(tail_rel) / max(float(sv.min()), 1e-3)))
    if space.n >= 2:
        a_lo, a_hi = active_levels(space)
        down, up = np.minimum(down, a_lo), np.maximum(up, a_hi)
    return down, up


def _cutoff_sequence(space, support, L: float, sv, qv, u, tail_rel: float = 1e-9):
    """The level family of ``lipschitz_cutoff_gradient`` on exponent vectors,
    its k_L, and its largest violation of u's vector constraints
    (``_cutoff_certificates``; 0 without u or below two points).  The level
    values are evaluated on the support's columns only (zero elsewhere)."""
    if sv.max() > 1.0 or (sv.max() == 1.0 and np.isfinite(qv.min())):
        raise ValueError("needs max s <= 1, with equality only for q identically infinite")
    if L <= 0:
        raise ValueError("L must be positive")
    k_L = math.frexp(L)[1]  # exact: L = m 2**k_L with 1/2 <= m < 1
    n = space.n
    down, up = (int(k) for k in _cutoff_range(space, k_L, sv, qv, tail_rel))
    ks = np.arange(down, up + 1)[:, None]
    cols = np.unique(np.asarray(support, dtype=int))
    vals = np.zeros((ks.size, n))
    vals[:, cols] = _level_values(ks, k_L, L, _level_powers(ks, sv[cols]))
    cert = 0.0
    if u is not None and n >= 2:
        on = np.zeros((1, n), dtype=bool)
        on[0, cols] = True
        cert = float(_cutoff_certificates(space, on, np.array([L]), sv,
                                          np.asarray(u, dtype=float)[None])[0])
    return SequenceSample(down, vals), k_L, cert


def _cutoff_certificates(space, support, L, sv, u) -> np.ndarray:
    """Each row's largest violation of u's vector constraints by its cut-off
    family: rows of support masks, Lipschitz constants L and functions u.

    One gather over the space's pair table (``MetricMeasureSpace.pairs``,
    cached on the space), with d**s taken once: each pair with
    t = |u(x) - u(y)| > 0 against d**s(x) g_k(x) + d**s(y) g_k(y) at its
    level k, the level values straight from their formula (zero off the
    support), so no row builds a level table.  These are the float
    operations of ``GradientConstraintSystem.vector(space, u, sv).violation``
    per level.  Rows go in blocks of at most ``_CUTOFF_BLOCK`` pair entries."""
    cert = np.zeros(len(L))
    if space.n < 2:
        return cert
    pairs = space.pairs
    I, J, lev = pairs.I, pairs.J, pairs.level
    ds_I, ds_J = pairs.dist ** sv[I], pairs.dist ** sv[J]
    pow_I, pow_J = _level_powers(lev, sv[I]), _level_powers(lev, sv[J])
    k_L = np.frexp(L)[1][:, None]
    step = max(1, _CUTOFF_BLOCK // lev.size)
    for b in range(0, len(L), step):
        rows = slice(b, b + step)
        k, lip, ub, on = k_L[rows], L[rows, None], u[rows], support[rows]
        t = np.abs(ub[:, I] - ub[:, J])
        lhs = (ds_I * np.where(on[:, I], _level_values(lev, k, lip, pow_I), 0.0)
               + ds_J * np.where(on[:, J], _level_values(lev, k, lip, pow_J), 0.0))
        cert[rows] = np.max(np.where(t > 0, t - lhs, 0.0), axis=1, initial=0.0)
    return cert


def _cutoff_lq(space, support, L, sv, qv, tail_rel: float = 1e-9) -> np.ndarray:
    """``pointwise_lq`` of each row's cut-off family (rows of support masks
    and Lipschitz constants L), without its level table.

    Where q is infinite the sup over levels is the larger of the values at
    k_L - 1 and k_L: the values rise in k below k_L and fall from it.  Where
    q is finite the q-th powers are summed over the row's own level range,
    levels on the contiguous axis as in ``pointwise_lq`` (a pairwise sum),
    rows with ranges of one length together, in blocks of at most
    ``_CUTOFF_BLOCK`` entries."""
    m, n = support.shape
    k_L = np.frexp(L)[1][:, None]
    lip = np.asarray(L, dtype=float)[:, None]
    inner = np.zeros((m, n))
    top = np.isinf(qv)
    if top.any():
        k = np.stack([k_L - 1, k_L])
        vals = _level_values(k, k_L, lip, _level_powers(k, sv[top]))
        inner[:, top] = np.where(support[:, top], np.maximum(vals[0], vals[1]), 0.0)
    fin = np.flatnonzero(~top)
    if fin.size:
        down, up = _cutoff_range(space, k_L, sv, qv, tail_rel)
        size = (up - down + 1)[:, 0]
        for K in np.unique(size):
            group = np.flatnonzero(size == K)
            step = max(1, _CUTOFF_BLOCK // (int(K) * fin.size))
            for b in range(0, group.size, step):
                rows = group[b:b + step]
                ks = (down[rows] + np.arange(K))[:, None, :]
                vals = np.where(support[rows][:, fin, None],
                                _level_values(ks, k_L[rows, :, None], lip[rows, :, None],
                                              _level_powers(ks, sv[fin, None])), 0.0)
                with np.errstate(over="ignore"):
                    inner[rows[:, None], fin] = (np.sum(vals ** qv[fin, None], axis=2)
                                                 ** (1.0 / qv[fin]))
    return inner


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
    seq, k_L, cert = _cutoff_sequence(space, support, L, sv, qv, u, tail_rel)
    if support.size == 0:
        report = {"tl_norm": 0.0, "besov_norm": 0.0, "tl_bound": 0.0,
                  "besov_bound": 0.0, "certificate": 0.0, "k_L": k_L, "ok": True}
        return seq, report

    w = space.weight
    chi = np.zeros(n)
    chi[support] = 1.0
    s_B_minus, s_B_plus = float(sv[support].min()), float(sv[support].max())
    l_factor = max(L ** s_B_plus, L ** s_B_minus)
    norm_chi = luxemburg(chi, pv, w).value
    tl_norm = mixed_norm_lp_lq(seq, pv, qv, w).value
    besov_norm = mixed_norm_lq_lp(seq, pv, qv, w).value
    q_minus, s_minus, s_plus = float(qv.min()), float(sv.min()), float(sv.max())
    if np.isfinite(q_minus):
        a1 = K.lipschitz_A1(q_minus, s_minus, s_plus)
        a2 = K.lipschitz_A2(q_minus, s_minus, s_plus)
    else:
        a1, a2 = 4.0, 5.0
    tl_bound = a1 * l_factor * norm_chi
    besov_bound = a2 * l_factor * norm_chi

    ok = (tl_norm <= tl_bound + check_slack(tl_bound)
          and besov_norm <= besov_bound + check_slack(besov_bound) and cert <= _CERT_TOL)
    return seq, {"k_L": k_L, "A1": a1, "A2": a2, "l_factor": l_factor, "chi_norm": norm_chi,
                 "tl_norm": tl_norm, "tl_bound": tl_bound, "besov_norm": besov_norm,
                 "besov_bound": besov_bound, "certificate": cert, "ok": bool(ok)}


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

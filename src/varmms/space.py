"""Finite metric measure spaces: storage, ball queries, nets, covering diagnostics.

A space is a finite point set with a full distance matrix and strictly
positive point weights (the measure).  All operations are pure; a space is
immutable after construction, and its pair table (``MetricMeasureSpace.pairs``)
is built once, on first use.  Distance matrices are validated once when a
space is built through one of the ``from_*`` constructors: ``from_matrix``
checks the triangle inequality on every triple, ``from_points`` skips that
check because Euclidean distances are a metric by construction.  Internal
re-slicing (``subspace``) skips re-validation because restrictions of a
metric stay metric.

Every ball-mass scan reads one table, ``_shells``: each center's sorted
distance row and its cumulative weights.  A check that runs several scans
of a space shares one table of all its centers (``_one_table``), sorted on
first use and dropped after its last scan; a scan outside such a check
sorts its own.  Scans run over all centers at once, in blocks of at most
``_SCAN_BLOCK`` elements; only ``ball`` sums its members itself.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceValidationError",
    "MetricMeasureSpace",
    "PairTable",
    "Ball",
    "ball",
    "ball_masses",
    "critical_radii",
    "level_of",
    "separated_net",
    "product_cover_check",
    "overlap_bound_check",
    "estimate_doubling",
    "uniform_perfectness",
    "perfectness_resolution",
    "phi",
    "phi_iterates",
]

_TRIANGLE_SLACK = 1e-9


class SpaceValidationError(ValueError):
    """Raised when a distance matrix or weight vector fails validation."""


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


@dataclass(frozen=True)
class PairTable:
    """Every unordered pair i < j of a space (``np.triu_indices`` order):
    its points, its distance and its dyadic level."""

    I: np.ndarray
    J: np.ndarray
    dist: np.ndarray
    level: np.ndarray


@dataclass(frozen=True)
class MetricMeasureSpace:
    """A finite metric measure space.

    ``pairs``, the pair table, and ``min_positive_distance()`` are computed
    from ``dist`` on first use and cached on the instance, so they live as
    long as the space; ``dist`` must not be mutated after construction.
    """

    dist: np.ndarray
    weight: np.ndarray
    labels: tuple[str, ...] | None = None
    coords: np.ndarray | None = None
    atoms: tuple[int, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    def min_positive_distance(self) -> float:
        return self._min_positive_distance

    @functools.cached_property
    def _min_positive_distance(self) -> float:
        # not read off ``pairs``: the global checks need this number alone,
        # and a table at n = 400 would stay in memory through their solves
        if self.n < 2:
            raise ValueError("need at least two points")
        return float(self.dist[~np.eye(self.n, dtype=bool)].min())

    @functools.cached_property
    def pairs(self) -> PairTable:
        """The pair table, built once per space (needs two points)."""
        if self.n < 2:
            raise ValueError("need at least two points")
        I, J = np.triu_indices(self.n, k=1)
        d = self.dist[I, J]
        return PairTable(I=I, J=J, dist=d, level=level_of(d))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, dist, weight, labels=None, coords=None, atoms=()):
        space = cls._validated(dist, weight, labels, coords, atoms)
        _check_triangle(space.dist)
        return space

    @classmethod
    def _validated(cls, dist, weight, labels, coords, atoms):
        """A space from a checked matrix and weights; the triangle inequality
        is left to the caller."""
        dist = np.asarray(dist, dtype=float)
        weight = np.asarray(weight, dtype=float)
        _validate(dist, weight)
        return cls(dist=dist, weight=weight,
                   labels=tuple(labels) if labels is not None else None,
                   coords=None if coords is None else np.asarray(coords, dtype=float),
                   atoms=tuple(int(a) for a in atoms))

    @classmethod
    def from_points(cls, coords, weight, labels=None, atoms=()):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.ndim == 2 and coords.shape[0] == 1 and np.ndim(weight) and len(np.atleast_1d(weight)) > 1:
            coords = coords.T
        # squared differences summed one axis at a time, with no n x n x d array:
        # below 8 axes numpy sums that array's last axis in the same order (from
        # 8 on, pairwise); either way the distances are exactly symmetric with a
        # zero diagonal
        if coords.shape[1] < 8:
            sq = np.zeros((len(coords), len(coords)))
            for axis in coords.T:
                diff = axis[:, None] - axis[None, :]
                sq += diff * diff
        else:
            diff = coords[:, None, :] - coords[None, :, :]
            sq = (diff * diff).sum(axis=-1)
        # Euclidean distances are a metric by construction: no triangle check
        return cls._validated(np.sqrt(sq), weight, labels, coords, atoms)

    @classmethod
    def from_json(cls, payload):
        if isinstance(payload, (str, bytes)):
            payload = json.loads(payload)
        n = int(payload["n"])
        weight = np.asarray(payload["weights"], dtype=float)
        if weight.shape != (n,):
            raise SpaceValidationError(f"expected {n} weights, got {weight.shape}")
        metric = payload["metric"]
        labels = payload.get("labels")
        atoms = payload.get("atoms", ())
        if metric["type"] == "matrix":
            return cls.from_matrix(metric["values"], weight, labels=labels, atoms=atoms)
        if metric["type"] == "euclidean":
            coords = np.asarray(metric["coords"], dtype=float)
            if coords.shape[0] != n:
                raise SpaceValidationError(f"expected {n} coordinate rows, got {coords.shape[0]}")
            return cls.from_points(coords, weight, labels=labels, atoms=atoms)
        raise SpaceValidationError(f"unknown metric type {metric['type']!r}")

    def to_json(self) -> dict:
        payload = {"n": self.n, "weights": self.weight.tolist()}
        if self.coords is not None:
            payload["metric"] = {"type": "euclidean", "coords": self.coords.tolist()}
        else:
            payload["metric"] = {"type": "matrix", "values": self.dist.tolist()}
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        if self.atoms:
            payload["atoms"] = list(self.atoms)
        return payload

    # -- derived views -----------------------------------------------------

    def subspace(self, indices) -> "MetricMeasureSpace":
        """Restriction to a point subset (no re-validation needed)."""
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise ValueError("subspace needs at least one point")
        sub_atoms = tuple(int(k) for k, orig in enumerate(idx) if orig in self.atoms)
        return MetricMeasureSpace(
            dist=self.dist[np.ix_(idx, idx)],
            weight=self.weight[idx],
            labels=None if self.labels is None else tuple(self.labels[i] for i in idx),
            coords=None if self.coords is None else self.coords[idx],
            atoms=sub_atoms,
        )


def _validate(dist: np.ndarray, weight: np.ndarray) -> None:
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SpaceValidationError(f"distance matrix must be square, got {dist.shape}")
    n = dist.shape[0]
    if weight.shape != (n,):
        raise SpaceValidationError(f"expected {n} weights, got {weight.shape}")
    if not np.all(np.isfinite(dist)) or not np.all(np.isfinite(weight)):
        raise SpaceValidationError("non-finite entries")
    if np.any(weight <= 0):
        i = int(np.argmin(weight))
        raise SpaceValidationError(f"weight[{i}] = {weight[i]} must be > 0")
    if np.any(np.abs(np.diag(dist)) > 0):
        i = int(np.argmax(np.abs(np.diag(dist))))
        raise SpaceValidationError(f"dist[{i}][{i}] = {dist[i, i]} must be 0")
    asymmetric = dist != dist.T
    if asymmetric.any():
        bad = np.argwhere(asymmetric)[0]
        raise SpaceValidationError(f"asymmetry at ({bad[0]}, {bad[1]})")
    nonpositive = dist <= 0  # the zero diagonal, and any distinct pair at distance <= 0
    if np.count_nonzero(nonpositive) > n:
        np.fill_diagonal(nonpositive, False)
        i, j = np.argwhere(nonpositive)[0]
        raise SpaceValidationError(f"dist[{i}][{j}] = {dist[i, j]} must be > 0 for distinct points")


def _check_triangle(dist: np.ndarray) -> None:
    """Every triple, one intermediate point k at a time."""
    slack = _TRIANGLE_SLACK * max(1.0, float(dist.max(initial=0.0)))
    for k in range(dist.shape[0]):
        bad = dist > dist[:, k][:, None] + dist[k, :][None, :] + slack
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise SpaceValidationError(
                f"triangle inequality fails for ({i}, {j}, {k}): "
                f"{dist[i, j]} > {dist[i, k]} + {dist[k, j]}")


# -- balls -----------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: int
    radius: float
    members: np.ndarray
    measure: float
    closed: bool = False


def ball(space: MetricMeasureSpace, center: int, r: float, closed: bool = False) -> Ball:
    """Open ball ``{j : d(center, j) < r}`` (closed variant via flag)."""
    if not 0 <= center < space.n:
        raise IndexError(f"center {center} out of range for {space.n} points")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    row = space.dist[center]
    mask = (row <= r) if closed else (row < r)
    members = np.flatnonzero(mask)
    return Ball(center=center, radius=float(r), members=members,
                measure=float(space.weight[members].sum()), closed=closed)


def _shells(space: MetricMeasureSpace, centers=None) -> tuple[np.ndarray, np.ndarray]:
    """Each center's sorted distance row and its cumulative weights (``mass[:, k]``: the k
    nearest points); ties keep ``np.argsort``'s default order, so every mass rounds alike."""
    rows = space.dist if centers is None else space.dist[centers]
    order = np.argsort(rows, axis=1)
    mass = np.zeros((rows.shape[0], space.n + 1))
    np.cumsum(space.weight[order], axis=1, out=mass[:, 1:])
    return np.take_along_axis(rows, order, axis=1), mass


# id(space) -> [space, its ``_shells`` table or None before the first scan]
# while a ``_one_table`` block runs on that space
_SHARED: dict[int, list] = {}


@contextlib.contextmanager
def _one_table(space: MetricMeasureSpace):
    """Within the block every scan of ``space`` reads one ``_shells`` table of
    all its centers, sorted on first use and dropped when the block ends."""
    if id(space) in _SHARED:
        yield
        return
    _SHARED[id(space)] = [space, None]
    try:
        yield
    finally:
        del _SHARED[id(space)]


def _table(space: MetricMeasureSpace, centers=None) -> tuple[np.ndarray, np.ndarray]:
    """``_shells(space, centers)``; within a ``_one_table`` block, rows of its
    shared table (``argsort`` sorts each row on its own, so the rows are equal)."""
    slot = _SHARED.get(id(space))
    if slot is None:
        return _shells(space, centers)
    if slot[1] is None:
        slot[1] = _shells(space)
    rows, mass = slot[1]
    return (rows, mass) if centers is None else (rows[centers], mass[centers])


# Element budget of one block of a scan over many centers: the block's rows
# times their length
_SCAN_BLOCK = 1 << 15


def _counts(space: MetricMeasureSpace, centers: np.ndarray, radii):
    """Yield (block, rows, mass, counts) over blocks of ``centers``: their
    ``_table`` rows and |B(x, r)| for each radius, exact integers.  Each
    distance falls in a bin of the sorted radii (those it is not below), a
    bincount per row gives the bin sizes and a running sum the counts."""
    radii = np.asarray(radii, dtype=float)
    edges = np.sort(radii)
    rank = None if np.all(radii[:-1] <= radii[1:]) else np.argsort(np.argsort(radii))
    width = radii.size + 1
    step = max(1, _SCAN_BLOCK // (space.n + width))
    for lo in range(0, centers.size, step):
        block = slice(lo, lo + step)
        rows, mass = _table(space, centers[block])
        bins = np.searchsorted(edges, rows, side="right")
        bins += np.arange(0, bins.shape[0] * width, width)[:, None]
        sizes = np.bincount(bins.ravel(), minlength=bins.shape[0] * width)
        counts = np.cumsum(sizes.reshape(-1, width)[:, :-1], axis=1)
        yield block, rows, mass, counts if rank is None else counts[:, rank]


def ball_masses(space: MetricMeasureSpace, radii, centers=None) -> np.ndarray:
    """Open-ball masses mu(B(x, r)), a row per center (all by default) and a column per radius,
    looked up at each ball's point count in the ``_shells`` cumulative weights."""
    idx = np.arange(space.n)
    if centers is not None:
        idx = idx[centers]
    out = np.empty((idx.size, np.size(radii)))
    for block, _, mass, counts in _counts(space, idx, np.ravel(radii)):
        out[block] = np.take_along_axis(mass, counts, axis=1)
    return out.reshape(idx.size, *np.shape(radii))


def critical_radii(space: MetricMeasureSpace, r_min: float = 0.0,
                   r_max: float = np.inf) -> np.ndarray:
    """Sorted distinct positive pairwise distances plus midpoints between
    consecutive values, clipped to ``[r_min, r_max]``.

    Ball membership is piecewise constant in r, so "for all r" checks
    quantify over this finite set.
    """
    vals = _distances(space)
    if vals.size == 0:
        return np.array([])
    mids = 0.5 * (vals[:-1] + vals[1:])
    out = np.unique(np.concatenate([vals, mids]))
    return out[(out >= r_min) & (out <= r_max)]


def _distances(space: MetricMeasureSpace) -> np.ndarray:
    """Sorted distinct positive pairwise distances."""
    off = space.dist[np.triu_indices(space.n, k=1)]
    return np.unique(off[off > 0])


# -- nets and covering -----------------------------------------------------

def separated_net(space: MetricMeasureSpace, r: float) -> list[int]:
    """Greedy maximal r/2-separated subset, scanning indices in order.

    The output is r/2-separated and every point lies within r/2 of it, so
    the balls B(s, r), s in the net, cover the space.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    blocked = np.zeros(space.n, dtype=bool)  # within r/2 of the net so far
    net: list[int] = []
    for i in range(space.n):
        if not blocked[i]:
            net.append(i)
            blocked |= space.dist[i] < r / 2.0
    return net


def product_cover_check(space: MetricMeasureSpace, delta: float) -> dict:
    """Net-based product cover: a delta/4-net {z_i} whose delta/2-balls
    jointly contain every pair at distance below delta/4.

    Returns the net and the worst pair diagnostics (the global regularity
    harness reduces small-separation pairs to inflated net balls this way);
    ``witness`` is the last uncovered pair in row-major order.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    net = separated_net(space, delta / 4.0)
    near = (space.dist[:, net] < delta / 2.0).astype(np.int64)
    close = (space.dist < delta / 4.0) & (space.dist > 0)
    bad = np.argwhere(close & (near @ near.T == 0))
    witness = tuple(map(int, bad[-1])) if bad.size else None
    return {"net": net, "ok": witness is None, "witness": witness, "delta": float(delta)}


def estimate_doubling(space: MetricMeasureSpace) -> int:
    """Upper estimate of the geometric doubling constant.

    For every center and every radius in the critical set (pairwise
    distances and their doubles), greedily cover B(x, r) by balls of radius
    r/2 centered at points of B(x, r); return the worst cover size.  Greedy
    order is farthest-point, seeded at the lowest index, ties to the lowest
    index, so the result is deterministic.

    One radius per ball suffices.  A point is uncovered iff its distance to
    the chosen centers is at least r/2, so while any point is uncovered the
    farthest points are all uncovered and the visiting order does not
    depend on r; the cover size of a fixed ball can only fall as r grows.
    Each center therefore takes each distinct ball at the smallest critical
    radius that produces it, and the covers of a block of centers run in
    lockstep, one row per ball, non-members at -inf.  A ball's cover has at
    most |ball| centers, so each block skips the balls no larger than the
    worst cover of the blocks before it.
    """
    n = space.n
    if n == 1:
        return 1
    base = _distances(space)
    radii = np.unique(np.concatenate([base, 2.0 * base]))
    rows = _table(space)[0]
    worst, x = 1, 0
    while x < n and worst < n:
        # the centers whose balls of more than `worst` points fill the budget
        stop, size = x + 1, _balls(rows[x, worst:])
        while stop < n:
            more = _balls(rows[stop, worst:])
            if (size + more) * n > _SCAN_BLOCK:
                break
            size, stop = size + more, stop + 1
        on = np.diff(rows[x:stop], axis=1, append=np.inf) > 0  # each ball once, at its last point
        on[:, :worst] = False
        center, col = np.nonzero(on)
        center += x
        levels = rows[center, col]
        half = radii[np.searchsorted(radii, levels, side="right")] / 2.0
        # distance to the chosen centers
        far = np.where(space.dist[center] <= levels[:, None], np.inf, -np.inf)
        picks = 0
        while True:
            nxt = far.argmax(axis=1)
            live = far[np.arange(nxt.size), nxt] >= half
            if not live.all():
                if not live.any():
                    break
                far, half, nxt = far[live], half[live], nxt[live]
            np.minimum(far, space.dist[nxt], out=far)
            picks += 1
        worst, x = max(worst, picks), stop
    return worst


def _balls(tail: np.ndarray) -> int:
    """The distinct values of a sorted row's tail: the balls of that many more points."""
    return int(np.count_nonzero(np.diff(tail, append=np.inf) > 0))


def overlap_bound_check(space: MetricMeasureSpace, r: float, R: float,
                        net: list[int] | None = None,
                        doubling: int | None = None) -> dict:
    """Compare the empirical overlap of the net balls B(net_i, R) with the
    covering bound A (R/r)^B, where A = M^3 and B = log2 M for the greedy
    doubling estimate M.
    """
    if not R > r > 0:
        raise ValueError("need R > r > 0")
    if net is None:
        net = separated_net(space, r)
    M = estimate_doubling(space) if doubling is None else int(doubling)
    sub = space.dist[np.ix_(np.arange(space.n), np.asarray(net, dtype=int))]
    multiplicity = int((sub < R).sum(axis=1).max())
    bound = (M ** 3) * (R / r) ** np.log2(max(M, 1))
    # reverse direction: a cover with overlap constants (A, B) forces the
    # doubling estimate to stay below A 3**B
    reverse = float(M ** 3) * 3.0 ** np.log2(max(M, 1))
    return {
        "multiplicity": multiplicity,
        "bound": float(bound),
        "doubling_estimate": M,
        "net_size": len(net),
        "reverse_doubling_bound": reverse,
        "ok": multiplicity <= bound + 1e-12 and M <= reverse + 1e-12,
    }


# -- uniform perfectness ---------------------------------------------------

_LAMBDA_GRID = np.round(np.arange(0.01, 1.0, 0.01), 2)


def perfectness_resolution(space: MetricMeasureSpace) -> float:
    """Smallest sensible resolution scale for the perfectness check: just
    above the largest nearest-neighbor gap, so no scanned ball is a
    singleton (singleton balls make the annulus condition vacuously fail)."""
    if space.n < 2:
        raise ValueError("need at least two points")
    near = space.dist.copy()
    np.fill_diagonal(near, np.inf)
    return float(near.min(axis=1).max()) * (1.0 + 1e-9)


def uniform_perfectness(space: MetricMeasureSpace, epsilon: float,
                        lambdas: np.ndarray | None = None) -> float | None:
    """Largest grid value lambda in (0, 1) such that B(x, r) \\ B(x, lambda r)
    is nonempty for all centers and all critical radii r >= epsilon with
    X \\ B(x, r) nonempty.

    Finite spaces are never literally uniformly perfect below their minimum
    gap; ``epsilon`` restricts the quantifier and must be reported with the
    result.  Returns None if no grid value works.

    The annulus B(x, r) \\ B(x, lambda r) is nonempty iff the largest
    distance from x below r, ``far``, satisfies lambda r <= far.  Each
    center's sorted row gives ``far`` for every radius at the ball's point
    count, the centers with the smallest ``far`` bind, and the test is the
    same float comparison as the membership test ``row >= lambda r``, so the
    grid result is exact, not approximate.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if lambdas is None:
        lambdas = _LAMBDA_GRID
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    radii = critical_radii(space)
    radii = radii[radii >= epsilon]
    bind = np.full(radii.size, np.inf)  # the least far over centers with X \ B(x, r) nonempty
    for _, rows, _, k in _counts(space, np.arange(space.n), radii):
        far = np.take_along_axis(rows, k - 1, axis=1)  # rows[:, 0] = d(x, x) = 0 < r
        far[k == space.n] = np.inf  # X \ B(x, r) is empty: vacuous
        np.minimum(bind, far.min(axis=0), out=bind)
    live = bind < np.inf
    ok = np.all(lambdas[:, None] * radii[live] <= bind[live], axis=1)
    return float(lambdas[ok][-1]) if ok.any() else None


# -- measure-halving radius ------------------------------------------------

def phi(space: MetricMeasureSpace, x: int, r: float) -> float:
    """Exact sup of { s in [0, r] : mu(B(x,s)) <= mu(B(x,r))/2 }.

    Computed by scanning x's row of the ball-mass table (``_shells``);
    mu(B(x,s)) is a left-continuous step function of s.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    (levels,), (mass,) = _shells(space, [x])
    return _phi(space, x, r, levels, mass)


def _phi(space: MetricMeasureSpace, x: int, r: float, levels, mass) -> float:
    """``phi`` from x's row of ``_shells``: its sorted distances, with
    repeats, and their cumulative masses."""
    if r == 0:
        return 0.0
    target = 0.5 * float(mass[np.searchsorted(levels, r)])
    mass_at = mass[np.searchsorted(levels, levels, side="right")]  # mu of the closed ball
    # mu(B(x, s)) = mass_at[j-1] for s in (levels[j-1], levels[j]], so the
    # condition mu(B(x, s)) <= target holds exactly up to the first level
    # whose closed-ball mass exceeds the target.  Rounding decides only clear
    # cases: a near-tie takes the sign of mu(closed ball) - mu(B(x, r))/2
    # from one correctly rounded math.fsum, which is the exact sign.
    near = 1e-9 * target
    row = space.dist[x]
    for j in np.flatnonzero(mass_at > target - near):
        if mass_at[j] > target + near or math.fsum(np.concatenate(
                [space.weight[row <= levels[j]], -0.5 * space.weight[row < r]])) > 0:
            return float(min(levels[j], r))
    return float(r)


def phi_iterates(space: MetricMeasureSpace, x: int, r: float, j: int) -> list[float]:
    """Iterates phi^0(r)=r, phi^k(r)=phi(phi^{k-1}(r)) for k=1..j."""
    out = [float(r)]
    for _ in range(j):
        out.append(phi(space, x, out[-1]))
    return out

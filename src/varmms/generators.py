"""Deterministic space and test-function generators for the harness."""
from __future__ import annotations

import itertools

import numpy as np

from .exponents import _index
from .space import MetricMeasureSpace, ball

__all__ = [
    "line_space",
    "grid1d",
    "grid2d",
    "ball_grid_with_atom",
    "cantor_space",
    "two_zone_glued",
    "generate_space",
    "coordinate_function",
    "power_function",
    "annular_cutoff",
    "log_bump",
    "random_function",
    "generate_function",
]


def line_space(n: int, spacing: float = 1.0, weight: float = 1.0) -> MetricMeasureSpace:
    """n points at 0, spacing, 2 spacing, ... with equal weights."""
    if n < 1:
        raise ValueError("n must be positive")
    coords = (np.arange(n, dtype=float) * spacing)[:, None]
    return MetricMeasureSpace.from_points(coords, np.full(n, float(weight)))


def grid1d(n: int, h: float | None = None) -> MetricMeasureSpace:
    """Cell centers of an n-cell uniform partition of [0, n h], weights h."""
    if n < 1:
        raise ValueError("n must be positive")
    h = 1.0 / n if h is None else float(h)
    coords = ((np.arange(n) + 0.5) * h)[:, None]
    return MetricMeasureSpace.from_points(coords, np.full(n, h))


def grid2d(nx: int, ny: int | None = None, h: float | None = None) -> MetricMeasureSpace:
    """Cell centers of a uniform nx-by-ny partition of a rectangle, weights h**2."""
    ny = nx if ny is None else ny
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    h = 1.0 / nx if h is None else float(h)
    xs = (np.arange(nx) + 0.5) * h
    ys = (np.arange(ny) + 0.5) * h
    coords = np.array([(x, y) for x in xs for y in ys])
    return MetricMeasureSpace.from_points(coords, np.full(nx * ny, h * h))


def ball_grid_with_atom(n_dim: int, m: int) -> MetricMeasureSpace:
    """Cubic-cell discretization of the unit ball with a unit atom at 0.

    m cells per axis over [-1, 1] (m is forced odd so one cell is centered
    at the origin); cells keep their volume as weight and the origin cell
    additionally carries mass one.
    """
    if n_dim < 1:
        raise ValueError("dimension must be positive")
    if m < 3:
        raise ValueError("need at least 3 cells per axis")
    if m % 2 == 0:
        m += 1
    h = 2.0 / m
    axis = -1.0 + (np.arange(m) + 0.5) * h
    pts = [np.array(c) for c in itertools.product(axis, repeat=n_dim)
           if float(np.linalg.norm(c)) < 1.0]
    coords = np.array(pts)
    weight = np.full(len(pts), h ** n_dim)
    origin = int(np.argmin(np.linalg.norm(coords, axis=1)))
    if np.linalg.norm(coords[origin]) > 1e-12:
        raise RuntimeError("origin cell missing")
    weight[origin] += 1.0
    return MetricMeasureSpace.from_points(coords, weight, atoms=(origin,))


def cantor_space(level: int, ratio: float = 1.0 / 3.0) -> MetricMeasureSpace:
    """Left endpoints of the 2**level intervals of the Cantor construction,
    with the natural uniform weights 2**(-level)."""
    if level < 1:
        raise ValueError("level must be positive")
    if not 0 < ratio < 0.5:
        raise ValueError("ratio must lie in (0, 1/2)")
    pts = [0.0]
    for k in range(1, level + 1):
        shift = (1.0 - ratio) * ratio ** (k - 1)
        pts = [x for x in pts] + [x + shift for x in pts]
    coords = np.sort(np.array(pts))[:, None]
    n = coords.shape[0]
    return MetricMeasureSpace.from_points(coords, np.full(n, 2.0 ** -level))


def two_zone_glued(n_line: int = 8, n_grid: int = 4) -> MetricMeasureSpace:
    """A 1D segment glued to a 2D patch: zones of different local dimension.

    The segment occupies [0, 1] on the x-axis; the patch is an n_grid**2
    cell grid over [1, 2] x [0, 1].  Euclidean distances; cell-sized weights.
    """
    if n_line < 1 or n_grid < 1:
        raise ValueError("n_line and n_grid must be positive")
    hl = 1.0 / n_line
    line_pts = [((i + 0.5) * hl, 0.0) for i in range(n_line)]
    hg = 1.0 / n_grid
    grid_pts = [(1.0 + (i + 0.5) * hg, (j + 0.5) * hg)
                for i in range(n_grid) for j in range(n_grid)]
    coords = np.array(line_pts + grid_pts)
    weight = np.concatenate([np.full(n_line, hl), np.full(n_grid * n_grid, hg * hg)])
    return MetricMeasureSpace.from_points(coords, weight)


# each space kind's generator and its count parameters
_SPACE_KINDS = {
    "line": (line_space, ("n",)),
    "grid1d": (grid1d, ("n",)),
    "grid2d": (grid2d, ("nx", "ny")),
    "ball_grid_with_atom": (ball_grid_with_atom, ("n_dim", "m")),
    "cantor": (cantor_space, ("level",)),
    "two_zone_glued": (two_zone_glued, ("n_line", "n_grid")),
}


def generate_space(kind: str, params: dict) -> MetricMeasureSpace:
    """The space of a scenario spec; every count parameter must be an
    integer (``_index``), so that a non-integral one is an error that names
    it rather than a failure deep in its generator."""
    try:
        maker, counts = _SPACE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown space kind {kind!r}; choose from {sorted(_SPACE_KINDS)}")
    return maker(**{k: _index(v, f"{kind} {k}") if k in counts and v is not None else v
                    for k, v in params.items()})


# -- function families -------------------------------------------------------

def coordinate_function(space: MetricMeasureSpace, axis: int = 0) -> np.ndarray:
    if space.coords is None:
        raise ValueError("coordinate family needs an embedded space")
    return space.coords[:, axis].copy()


def power_function(space: MetricMeasureSpace, theta: float) -> np.ndarray:
    """|x|**theta evaluated at the points (0 at the origin)."""
    if space.coords is None:
        raise ValueError("power family needs an embedded space")
    r = np.linalg.norm(space.coords, axis=1)
    out = np.zeros(space.n)
    pos = r > 0
    out[pos] = r[pos] ** theta
    return out


def annular_cutoff(space: MetricMeasureSpace, center: int, r: float, j: int):
    """Annular test function: one inside radius (2**(-j-2) + 1/2) r, zero
    outside (2**(-j-1) + 1/2) r, linear in the distance in between.

    Returns (values, support indices, Lipschitz constant 2**(j+2)/r).
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    r_j = (2.0 ** (-j - 1) + 0.5) * r
    r_next = (2.0 ** (-j - 2) + 0.5) * r
    d = space.dist[center]
    u = np.clip((r_j - d) / (r_j - r_next), 0.0, 1.0)
    support = np.flatnonzero(d < r_j)
    return u, support, 2.0 ** (j + 2) / r


def log_bump(space: MetricMeasureSpace, center: int, scale: float = 1.0) -> np.ndarray:
    """Logarithmic bump around a center point (finite at the center)."""
    if not scale > 0:
        raise ValueError(f"log_bump scale must be positive, got {scale!r}")
    d = space.dist[center]
    floor = scale / 50.0
    return np.log1p(scale / (d + floor))


def random_function(space: MetricMeasureSpace, seed: int, amplitude: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return amplitude * rng.standard_normal(space.n)


def _function_values(space: MetricMeasureSpace, spec: dict) -> np.ndarray:
    if "values" in spec:
        vals = np.asarray(spec["values"], dtype=float)
        if vals.shape != (space.n,):
            raise ValueError(f"expected {space.n} function values")
        return vals
    family = spec["family"]
    if family == "coordinate":
        return coordinate_function(space, _index(spec.get("axis", 0), "coordinate axis"))
    if family == "power":
        return power_function(space, float(spec["theta"]))
    if family == "annular":
        u, _, _ = annular_cutoff(space, _index(spec["center"], "annular center"),
                                 float(spec["r"]), _index(spec["j"], "annular j"))
        return u
    if family == "log_bump":
        return log_bump(space, _index(spec["center"], "log_bump center"),
                        float(spec.get("scale", 1.0)))
    if family == "random":
        return random_function(space, _index(spec["seed"], "random seed"),
                               float(spec.get("amplitude", 1.0)))
    if family == "constant":
        return np.full(space.n, float(spec["value"]))
    raise ValueError(f"unknown function family {family!r}")


def generate_function(space: MetricMeasureSpace, spec: dict) -> np.ndarray:
    """The function of a scenario spec: explicit ``values`` or a family with
    its fields.  Every value must be finite."""
    vals = _function_values(space, spec)
    if not np.isfinite(vals).all():
        source = ("function values" if "values" in spec else
                  f"function family {spec['family']!r} ({', '.join(sorted(set(spec) - {'family'}))})")
        raise ValueError(f"{source}: non-finite value at point {int(np.argmin(np.isfinite(vals)))}")
    return vals

import json
from fractions import Fraction

import numpy as np
import pytest

from varmms import (MetricMeasureSpace, SpaceValidationError, ball, critical_radii,
                    estimate_doubling, overlap_bound_check, phi, phi_iterates,
                    separated_net, uniform_perfectness)
from varmms.generators import (ball_grid_with_atom, cantor_space, grid1d, grid2d, line_space,
                               two_zone_glued)
from varmms import space as space_module
from varmms.space import _LAMBDA_GRID, _shells, ball_masses, perfectness_resolution


def test_ball_line_three_points():
    sp = line_space(3)
    b = ball(sp, 0, 1.5)
    assert list(b.members) == [0, 1]
    assert b.measure == 2.0


def test_ball_radius_zero_open_and_closed():
    sp = line_space(3)
    assert ball(sp, 1, 0.0).members.size == 0
    assert ball(sp, 1, 0.0).measure == 0.0
    closed = ball(sp, 1, 0.0, closed=True)
    assert list(closed.members) == [1]


def test_ball_contains_everything_beyond_diameter():
    sp = line_space(5)
    b = ball(sp, 2, sp.diameter + 1.0)
    assert b.members.size == sp.n
    assert b.measure == pytest.approx(sp.total_mass)


def test_ball_center_out_of_range():
    sp = line_space(3)
    with pytest.raises(IndexError):
        ball(sp, 3, 1.0)
    with pytest.raises(ValueError):
        ball(sp, 0, -0.5)


def test_validation_rejects_triangle_violation():
    bad = [[0, 1, 3.5], [1, 0, 1], [3.5, 1, 0]]
    with pytest.raises(SpaceValidationError, match="triangle"):
        MetricMeasureSpace.from_matrix(bad, [1, 1, 1])


def test_large_matrix_triangle_violation_rejected():
    # a 300-point line with one inflated distance: only the triples through
    # the two neighbours k = 149 and k = 152 break the triangle inequality
    x = np.arange(300.0)
    d = np.abs(x[:, None] - x[None, :])
    d[150, 151] = d[151, 150] = 3.5
    with pytest.raises(SpaceValidationError, match=r"\(150, 151, 149\)"):
        MetricMeasureSpace.from_matrix(d, np.ones(300))


def test_validation_rejects_nonpositive_weight():
    with pytest.raises(SpaceValidationError, match="weight"):
        MetricMeasureSpace.from_matrix([[0, 1], [1, 0]], [1, 0])


def test_validation_rejects_asymmetry_and_bad_diagonal():
    with pytest.raises(SpaceValidationError):
        MetricMeasureSpace.from_matrix([[0, 1], [2, 0]], [1, 1])
    with pytest.raises(SpaceValidationError):
        MetricMeasureSpace.from_matrix([[1, 1], [1, 0]], [1, 1])


def test_json_round_trip(battery):
    for name, sp in battery.items():
        clone = MetricMeasureSpace.from_json(json.dumps(sp.to_json()))
        assert clone.n == sp.n
        np.testing.assert_allclose(clone.dist, sp.dist, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(clone.weight, sp.weight)


def test_subspace_slices_weights_and_atoms():
    sp = line_space(4)
    sub = sp.subspace([1, 3])
    assert sub.n == 2
    assert sub.dist[0, 1] == pytest.approx(2.0)


def test_separated_net_line_unit_radius():
    sp = line_space(4)
    assert separated_net(sp, 1.0) == [0, 1, 2, 3]


def test_separated_net_single_point():
    sp = MetricMeasureSpace.from_matrix([[0.0]], [1.0])
    assert separated_net(sp, 2.0) == [0]


def test_separated_net_greedy_large_radius():
    sp = line_space(4)
    assert separated_net(sp, 4.0) == [0, 2]


def test_separated_net_separation_and_covering(battery):
    for name, sp in battery.items():
        if sp.n < 2:
            continue
        for r in critical_radii(sp):
            net = separated_net(sp, r)
            sep = r / 2.0
            for a_i, a in enumerate(net):
                for b in net[a_i + 1:]:
                    assert sp.dist[a, b] >= sep - 1e-12, (name, r)
            # maximality: every point within r/2 of the net, hence covered
            gap = sp.dist[:, net].min(axis=1)
            assert np.all(gap < sep + 1e-12), (name, r)
            cover = (sp.dist[:, net] < r).any(axis=1)
            assert cover.all(), (name, r)


def test_estimate_doubling_single_point():
    sp = MetricMeasureSpace.from_matrix([[0.0]], [1.0])
    assert estimate_doubling(sp) == 1


def test_estimate_doubling_line3():
    assert estimate_doubling(line_space(3)) <= 3


def test_estimate_doubling_unit_grid8(battery):
    # four quadrant cells are needed to cover a 2x2 block
    assert estimate_doubling(battery["unit_grid8"]) >= 4


def _doubling_oracle(sp):
    """Reference: a fresh farthest-point greedy cover for every center and
    every critical radius."""
    if sp.n == 1:
        return 1
    off = sp.dist[np.triu_indices(sp.n, k=1)]
    base = np.unique(off[off > 0])
    worst = 1
    for x in range(sp.n):
        for r in np.unique(np.concatenate([base, 2.0 * base])):
            members = np.flatnonzero(sp.dist[x] < r)
            if members.size <= worst:
                continue
            d = sp.dist[np.ix_(members, members)]
            covered = np.zeros(members.size, dtype=bool)
            dist_to_centers = np.full(members.size, np.inf)
            count, nxt = 0, 0
            while True:
                covered |= d[nxt] < r / 2.0
                count += 1
                if covered.all():
                    break
                np.minimum(dist_to_centers, d[nxt], out=dist_to_centers)
                nxt = int(np.argmax(np.where(covered, -np.inf, dist_to_centers)))
            worst = max(worst, count)
    return worst


def test_estimate_doubling_matches_greedy_scan(battery, tie_heavy):
    spaces = dict(battery, ball_grid_atom=ball_grid_with_atom(2, 9), **tie_heavy)
    for name, sp in spaces.items():
        assert estimate_doubling(sp) == _doubling_oracle(sp), name


def test_estimate_doubling_grid2d_12():
    assert estimate_doubling(grid2d(12)) == 13


def _net_oracle(sp, r):
    net = []
    for i in range(sp.n):
        if all(sp.dist[i, s] >= r / 2.0 for s in net):
            net.append(i)
    return net


def _product_cover_oracle(sp, delta):
    net = _net_oracle(sp, delta / 4.0)
    ok, witness = True, None
    net_dist = sp.dist[:, net]
    for x in range(sp.n):
        for y in np.flatnonzero((sp.dist[x] < delta / 4.0) & (sp.dist[x] > 0)):
            if not ((net_dist[x] < delta / 2.0) & (net_dist[y] < delta / 2.0)).any():
                ok, witness = False, (int(x), int(y))
    return {"net": net, "ok": ok, "witness": witness, "delta": float(delta)}


def _semimetric(n, seed):
    """Symmetric positive distances without the triangle inequality, built
    past validation: product covers can fail on these."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 3.0, (n, n))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return MetricMeasureSpace(dist=d, weight=np.ones(n))


def test_separated_net_and_product_cover_match_loops(battery, tie_heavy):
    from varmms import product_cover_check
    spaces = dict(battery, **tie_heavy,
                  **{f"semi{seed}": _semimetric(9 + seed, seed) for seed in range(6)})
    failed = 0
    for name, sp in spaces.items():
        for r in critical_radii(sp)[::2] if sp.n > 1 else [1.0]:
            assert separated_net(sp, r) == _net_oracle(sp, r), (name, r)
            rep = product_cover_check(sp, 4.0 * r)
            assert rep == _product_cover_oracle(sp, 4.0 * r), (name, r)
            failed += not rep["ok"]
    assert failed > 0
    # two net points with close, uncovered neighbours: (1, 3) and (3, 1) fail
    d = np.array([[0, 0.5, 5, 5], [0.5, 0, 5, 1], [5, 5, 0, 0.5], [5, 1, 0.5, 0]])
    rep = product_cover_check(MetricMeasureSpace(dist=d, weight=np.ones(4)), 8.0)
    assert rep["net"] == [0, 2] and rep["witness"] == (3, 1) and not rep["ok"]


def test_overlap_bound_line10():
    sp = line_space(10)
    rep = overlap_bound_check(sp, r=1.0, R=2.0)
    # independent enumeration of the multiplicity
    net = separated_net(sp, 1.0)
    counts = [(np.abs(np.arange(10) - x)[net] < 2.0).sum() for x in range(10)]
    assert rep["multiplicity"] == max(counts)
    assert rep["ok"]


def test_overlap_bound_single_point_bound():
    sp = MetricMeasureSpace.from_matrix([[0.0]], [1.0])
    rep = overlap_bound_check(sp, r=1.0, R=2.0)
    assert rep["multiplicity"] == 1
    assert rep["ok"]


def test_overlap_bound_unit_grid(battery):
    rep = overlap_bound_check(battery["unit_grid8"], r=1.0, R=3.0)
    assert rep["multiplicity"] >= 1
    assert rep["ok"]


def test_overlap_requires_R_gt_r():
    with pytest.raises(ValueError):
        overlap_bound_check(line_space(3), r=1.0, R=1.0)


def test_uniform_perfectness_line10_annulus_fact():
    sp = line_space(10)
    # direct enumeration: B(0,5) minus B(0,2.5) is {3, 4}
    members = set(np.flatnonzero(sp.dist[0] < 5.0)) - set(np.flatnonzero(sp.dist[0] < 2.5))
    assert members == {3, 4}
    # at epsilon = 1.0 the radius-1 open balls are singletons, so no lambda works
    assert uniform_perfectness(sp, epsilon=1.0) is None
    eps = 1.0 + 1e-6
    lam = uniform_perfectness(sp, epsilon=eps)
    # binding case: integer radius 2 keeps only the distance-1 neighbors
    assert lam == pytest.approx(0.5)
    # returned value satisfies the definition on every critical radius >= epsilon
    for r in critical_radii(sp):
        if r < eps:
            continue
        for x in range(sp.n):
            inside = sp.dist[x] < r
            if inside.all():
                continue
            assert np.any(inside & (sp.dist[x] >= lam * r))


def test_uniform_perfectness_two_points_below_gap():
    sp = line_space(2)
    assert uniform_perfectness(sp, epsilon=0.1) is None


def test_uniform_perfectness_vacuous_when_ball_is_everything():
    sp = MetricMeasureSpace.from_matrix([[0.0]], [1.0])
    # X \ B(x, r) is always empty: every candidate works, the largest returned
    assert uniform_perfectness(sp, epsilon=0.5) == pytest.approx(0.99)


def _uniform_perfectness_brute(sp, epsilon, lambdas):
    """Reference: test every grid lambda on every center and critical radius
    by explicit ball membership."""
    radii = critical_radii(sp)
    radii = radii[radii >= epsilon]
    best = None
    for lam in np.sort(lambdas):
        ok = True
        for x in range(sp.n):
            row = sp.dist[x]
            inside = row[None, :] < radii[:, None]  # one ball per radius
            live = ~inside.all(axis=1)  # X \ B(x,r) empty: vacuous
            annulus = inside & (row[None, :] >= lam * radii[:, None])
            if not annulus[live].any(axis=1).all():
                ok = False
                break
        if ok:
            best = float(lam)
    return best


def test_uniform_perfectness_matches_brute_force(battery):
    from varmms.space import _LAMBDA_GRID
    spaces = dict(battery, cantor4=cantor_space(4), glued84=two_zone_glued(8, 4),
                  grid1d64=grid1d(64))
    for name, sp in spaces.items():
        epsilons = [0.5] if sp.n < 2 else [perfectness_resolution(sp),
                                           0.5 * sp.min_positive_distance()]
        for eps in epsilons:
            assert (uniform_perfectness(sp, eps)
                    == _uniform_perfectness_brute(sp, eps, _LAMBDA_GRID)), (name, eps)
    # a coarse, unsorted, non-default grid
    lambdas = np.array([0.7, 0.05, 0.45, 0.3, 0.6, 0.15])
    for name in ("line10", "cloud12", "glued"):
        sp = spaces[name]
        eps = perfectness_resolution(sp)
        assert (uniform_perfectness(sp, eps, lambdas)
                == _uniform_perfectness_brute(sp, eps, lambdas)), name


def test_ball_masses_match_ball_measure(battery):
    for name, sp in battery.items():
        # pairwise distances themselves (the open ball leaves that point
        # out), midpoints, zero and radii past the diameter
        radii = np.concatenate([[0.0, 0.5], critical_radii(sp), [sp.diameter + 1.0]])
        subsets = [None, list(range(0, sp.n, 2))[::-1]]
        for centers in subsets:
            rows = range(sp.n) if centers is None else centers
            masses = ball_masses(sp, radii, centers)
            assert masses.shape == (len(rows), radii.size), name
            want = [[ball(sp, x, r).measure for r in radii] for x in rows]
            np.testing.assert_allclose(masses, want, rtol=1e-12, atol=0, err_msg=name)
    line = battery["line4"]
    assert ball_masses(line, [1.0], [0])[0, 0] == line.weight[0]  # d(0, 1) = 1 is left out


def test_perfectness_resolution_positive(battery):
    for name, sp in battery.items():
        if sp.n < 2:
            continue
        eps = perfectness_resolution(sp)
        assert eps > 0


def test_phi_line3_value():
    sp = line_space(3)
    assert phi(sp, 0, 2.5) == pytest.approx(1.0)


def test_phi_zero_radius():
    sp = line_space(3)
    assert phi(sp, 1, 0.0) == 0.0


def test_phi_monotone_spot():
    sp = line_space(5)
    assert phi(sp, 0, 1.0) <= phi(sp, 0, 2.0)


def _phi_exact(sp, x, r):
    """phi from exact rational ball masses."""
    row, w = sp.dist[x], [Fraction(float(v)) for v in sp.weight]
    target = sum((w[i] for i in range(sp.n) if row[i] < r), Fraction(0)) / 2
    for level in np.unique(row):
        if sum((w[i] for i in range(sp.n) if row[i] <= level), Fraction(0)) > target:
            return float(min(level, r))
    return float(r)


def test_phi_exact_half_mass_ties():
    # at both levels the closed-ball mass equals half the ball's mass exactly,
    # which rounded sums put on either side
    assert phi(grid2d(12), 0, 0.4714045207910317) == 0.3333333333333333
    assert phi(ball_grid_with_atom(1, 61), 0, 0.3606557377049181) == 0.19672131147540983
    rng = np.random.default_rng(1)
    for sp in (grid2d(12), ball_grid_with_atom(1, 61)):
        radii = critical_radii(sp, 0.0, 1.0)
        for _ in range(60):
            x, r = int(rng.integers(sp.n)), float(rng.choice(radii))
            assert phi(sp, x, r) == _phi_exact(sp, x, r), (sp.n, x, r)


def _ball_mass(sp, x, r, closed=False):
    row = sp.dist[x]
    mask = (row <= r) if closed else (row < r)
    return float(sp.weight[mask].sum())


def test_phi_properties_battery(battery):
    for name, sp in battery.items():
        radii = critical_radii(sp)
        if radii.size == 0:
            continue
        for x in range(sp.n):
            prev = 0.0
            for r in np.concatenate([[0.0], radii]):
                val = phi(sp, x, r)
                # (c) range, equality only at r = 0
                assert 0.0 <= val <= r
                if r > 0:
                    assert val < r
                else:
                    assert val == 0.0
                # (a) nondecreasing along increasing radii
                assert val >= prev - 1e-12
                prev = val
                # (b) open/closed mass sandwich
                target = 0.5 * _ball_mass(sp, x, r)
                assert _ball_mass(sp, x, val) <= target + 1e-12
                assert _ball_mass(sp, x, val, closed=True) >= target - 1e-12


def test_phi_iterates_decrease_and_halve(battery):
    sp = battery["line10"]
    for x in (0, 5):
        r0 = 6.0
        its = phi_iterates(sp, x, r0, 4)
        masses = [_ball_mass(sp, x, r) for r in its]
        for j in range(1, len(its)):
            if its[j] > 0:
                assert its[j] < its[j - 1]
            assert masses[j] <= 2.0 ** -j * masses[0] + 1e-12


def test_product_cover_check(battery):
    from varmms import product_cover_check
    for name, sp in battery.items():
        if sp.n < 2:
            continue
        delta = 4.0 * sp.min_positive_distance() * 1.5
        rep = product_cover_check(sp, delta)
        assert rep["ok"], (name, rep)
        # independent verification of the witness-free claim
        net = rep["net"]
        for x in range(sp.n):
            for y in range(sp.n):
                if 0 < sp.dist[x, y] < delta / 4.0:
                    assert any(sp.dist[x, z] < delta / 2.0 and sp.dist[y, z] < delta / 2.0
                               for z in net)
    with pytest.raises(ValueError):
        product_cover_check(battery["line4"], 0.0)


def test_large_point_cloud_builds():
    # coordinate input skips the triangle check (Euclidean distances are a
    # metric), so a 250-point cloud builds
    rng = np.random.default_rng(0)
    sp = MetricMeasureSpace.from_points(rng.uniform(0, 10, (250, 3)),
                                        rng.uniform(0.5, 1.5, 250))
    assert sp.n == 250


def test_critical_radii_cover_membership_changes(battery):
    sp = battery["cantor3"]
    radii = critical_radii(sp)
    # distinct distances all present
    dists = np.unique(sp.dist[np.triu_indices(sp.n, 1)])
    assert np.all(np.isin(dists, radii))


# -- the all-centers scans against the per-center scans they replaced --------

def _doubling_per_center(sp):
    """Reference: estimate_doubling's covers run in lockstep one center at a
    time, each center skipping the balls no larger than the worst cover so far."""
    if sp.n == 1:
        return 1
    base = np.unique(sp.dist[np.triu_indices(sp.n, k=1)])
    radii = np.unique(np.concatenate([base, 2.0 * base]))
    worst = 1
    for x, row in enumerate(np.sort(sp.dist, axis=1)):
        tail = row[worst:]
        levels = tail[np.diff(tail, append=np.inf) > 0]
        half = radii[np.searchsorted(radii, levels, side="right")] / 2.0
        far = np.where(sp.dist[x] <= levels[:, None], np.inf, -np.inf)
        picks = 0
        while True:
            nxt = far.argmax(axis=1)
            live = far[np.arange(nxt.size), nxt] >= half
            if not live.any():
                break
            far, half = far[live], half[live]
            np.minimum(far, sp.dist[nxt[live]], out=far)
            picks += 1
        worst = max(worst, picks)
    return worst


def _perfectness_per_center(sp, epsilon, lambdas=_LAMBDA_GRID):
    """Reference: uniform_perfectness as one sorted-row scan per center."""
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    radii = critical_radii(sp)
    radii = radii[radii >= epsilon]
    ok = np.ones(lambdas.size, dtype=bool)
    for row in np.sort(sp.dist, axis=1):
        k = np.searchsorted(row, radii, side="left")
        live = k < sp.n
        ok &= np.all(lambdas[:, None] * radii[live] <= row[k[live] - 1], axis=1)
    return float(lambdas[ok][-1]) if ok.any() else None


def _ball_masses_per_center(sp, radii, centers=None):
    """Reference: ball_masses as one search of each center's sorted row."""
    rows, mass = _shells(sp, centers)
    return np.stack([m[np.searchsorted(row, radii)] for row, m in zip(rows, mass)])


def _euclidean_reference(coords):
    """Reference: from_points' distances from the full difference array."""
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def test_scans_equal_per_center_scans(battery, tie_heavy, clouds):
    spaces = dict(battery, line64=grid1d(64), ball_grid_atom=ball_grid_with_atom(2, 9),
                  **tie_heavy, **clouds)
    coarse = np.array([0.7, 0.05, 0.45, 0.3, 0.6, 0.15])  # unsorted, not the default grid
    for name, sp in spaces.items():
        assert estimate_doubling(sp) == _doubling_per_center(sp), name
        epsilons = [0.5]
        if sp.n > 1:
            eps = perfectness_resolution(sp)
            assert eps == np.sort(sp.dist, axis=1)[:, 1].max() * (1.0 + 1e-9), name
            epsilons = [eps, 0.5 * sp.min_positive_distance(), 2.0 * eps]
        for eps in epsilons:
            assert uniform_perfectness(sp, eps) == _perfectness_per_center(sp, eps), (name, eps)
            assert (uniform_perfectness(sp, eps, coarse)
                    == _perfectness_per_center(sp, eps, coarse)), (name, eps)
        # unsorted radii with repeats: zero, every distance itself (the open
        # ball leaves that point out), midpoints and radii past the diameter
        radii = np.concatenate([[sp.diameter + 1.0, 0.0, 0.5], critical_radii(sp)[::-1],
                                [sp.diameter, 0.5, 2.0 * sp.diameter + 1.0]])
        for centers in (None, list(range(0, sp.n, 2))[::-1], [sp.n - 1]):
            assert np.array_equal(ball_masses(sp, radii, centers),
                                  _ball_masses_per_center(sp, radii, centers)), name
            assert np.array_equal(ball_masses(sp, np.sort(radii), centers),
                                  _ball_masses_per_center(sp, np.sort(radii), centers)), name


def test_scans_equal_per_center_scans_at_larger_n(monkeypatch):
    # a doubling block of one center, and count blocks of a few centers each
    sp = grid2d(12)
    monkeypatch.setattr(space_module, "_SCAN_BLOCK", 1 << 12)
    radii = critical_radii(sp)
    assert estimate_doubling(sp) == _doubling_per_center(sp) == 13
    eps = perfectness_resolution(sp)
    assert uniform_perfectness(sp, eps) == _perfectness_per_center(sp, eps)
    assert np.array_equal(ball_masses(sp, radii), _ball_masses_per_center(sp, radii))


def test_from_points_distances_bit_for_bit(clouds):
    rng = np.random.default_rng(5)
    coords = [sp.coords for sp in clouds.values()]
    coords += [rng.normal(size=(25, dim)) * 10.0 ** rng.uniform(-3, 3) for dim in range(1, 11)]
    coords += [grid2d(7).coords, grid1d(9).coords, ball_grid_with_atom(2, 5).coords,
               cantor_space(3).coords, two_zone_glued(5, 3).coords]
    for c in coords:
        sp = MetricMeasureSpace.from_points(c, np.ones(len(c)))
        assert np.array_equal(sp.dist.view(np.int64), _euclidean_reference(c).view(np.int64))


def test_validation_names_the_first_nonpositive_pair():
    d = [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    with pytest.raises(SpaceValidationError, match=r"dist\[1\]\[2\] = 0.0 must be > 0"):
        MetricMeasureSpace.from_matrix(d, np.ones(3))
    with pytest.raises(SpaceValidationError, match=r"asymmetry at \(0, 2\)"):
        MetricMeasureSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2.5, 1, 0]], np.ones(3))

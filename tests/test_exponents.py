import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varmms import (ExponentField, ball, conjugate, holder_exponent,
                    log_holder_constant, log_regularity, log_comparison_bounds,
                    restricted_bounds, sobolev_conjugate, strictly_dominates)
from varmms.exponents import exponent_values, field_from_spec
from varmms.generators import grid2d, line_space


def test_field_rejects_nonpositive_and_inf():
    with pytest.raises(ValueError):
        ExponentField(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ExponentField(np.array([1.0, np.inf]), name="p")
    f = ExponentField(np.array([1.0, np.inf]), name="q", allow_inf=True)
    assert f.sup() == np.inf


def test_restricted_bounds_examples():
    const = np.full(5, 2.0)
    assert restricted_bounds(const, [0, 3]) == (2.0, 2.0)
    assert restricted_bounds(np.array([1.0, 2.0, 3.0]), [0, 2]) == (1.0, 3.0)
    vals = np.array([1.5, 0.5, 4.0])
    assert restricted_bounds(vals, range(3)) == (0.5, 4.0)
    with pytest.raises(ValueError):
        restricted_bounds(vals, [])


def test_strictly_dominates_examples():
    assert strictly_dominates(np.full(3, 2.0), np.full(3, 1.0))
    assert not strictly_dominates(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    f = np.array([1.0, 2.0])
    assert not strictly_dominates(f, f)
    with pytest.raises(ValueError):
        strictly_dominates(np.ones(2), np.ones(3))


@given(st.lists(st.floats(0.5, 5.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 2.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 2.0), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_strict_dominance_partial_order(base, gap1, gap2):
    n = min(len(base), len(gap1), len(gap2))
    f = np.array(base[:n])
    g = f + np.array(gap1[:n])
    h = g + np.array(gap2[:n])
    # irreflexive, transitive
    assert not strictly_dominates(f, f)
    assert strictly_dominates(g, f)
    assert strictly_dominates(h, g)
    assert strictly_dominates(h, f)


def test_log_holder_constant_examples():
    sp = line_space(2)
    assert log_holder_constant(np.array([2.0, 2.0]), sp) == 0.0
    c = log_holder_constant(np.array([1.0, 2.0]), sp)
    assert c == pytest.approx(np.log(np.e + 1.0), abs=1e-12)


def test_log_holder_constant_skips_the_pair_scan_for_constant_fields():
    class NoDistances:  # a space whose distances must not be read
        n = 400

        @property
        def dist(self):
            raise AssertionError("pair scan on a constant field")

    assert log_holder_constant(np.full(400, 1.7), NoDistances()) == 0.0
    assert log_holder_constant(np.full(400, 0.3), NoDistances(), subset=[3, 5, 7]) == 0.0
    # a variable field still takes the exact max over all pairs
    sp = grid2d(5)
    f = np.random.default_rng(2).uniform(1.0, 3.0, sp.n)
    pairs = [abs(f[i] - f[j]) * np.log(np.e + 1.0 / sp.dist[i, j])
             for i in range(sp.n) for j in range(i + 1, sp.n)]
    assert log_holder_constant(f, sp) == max(pairs) > 0


def test_log_holder_monotone_under_superset():
    sp = line_space(4)
    f = np.array([1.0, 2.0, 1.5, 3.0])
    c_sub = log_holder_constant(f, sp, subset=[0, 1])
    c_full = log_holder_constant(f, sp)
    assert c_full >= c_sub


def test_log_regularity_both_constants_finite():
    sp = line_space(5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.uniform(0.5, 3.0, 5)
        rep = log_regularity(f, sp)
        assert rep["in_P_log_b"]
        assert np.isfinite(rep["C_log"]) and np.isfinite(rep["C_log_inv"])


def test_log_comparison_constant_field_tight():
    sp = line_space(3)
    b = ball(sp, 0, 1.5)
    rep = log_comparison_bounds(np.full(3, 2.0), sp, b, R=3.0)
    assert rep["ok"]
    assert rep["C_log_inv"] == 0.0
    assert rep["M"] >= 1.0


def test_log_comparison_two_point_instance():
    from varmms import MetricMeasureSpace
    sp = MetricMeasureSpace.from_points([[0.0], [0.5]], [1.0, 1.0])
    b = ball(sp, 0, 0.6)
    assert b.members.size == 2
    rep = log_comparison_bounds(np.array([2.0, 3.0]), sp, b, R=1.2)
    assert rep["hypotheses"]["R_ge_2r"]
    assert rep["ok"], rep


def test_log_comparison_M_at_least_one(battery):
    sp = battery["cloud12"]
    rng = np.random.default_rng(1)
    t = rng.uniform(1.0, 4.0, sp.n)
    b = ball(sp, 0, sp.diameter / 2)
    rep = log_comparison_bounds(t, sp, b, R=sp.diameter)
    assert rep["M"] >= 1.0
    assert rep["ok"], rep


def test_sobolev_conjugate_arithmetic():
    gamma = sobolev_conjugate(np.full(2, 2.0), np.full(2, 1.0), np.full(2, 1.0))
    np.testing.assert_allclose(gamma.values, 2.0)


def test_sobolev_conjugate_precondition_names_point():
    with pytest.raises(ValueError, match="point 1"):
        sobolev_conjugate(np.array([2.0, 1.0]), np.ones(2), np.array([1.0, 2.0]))


def test_holder_exponent_arithmetic():
    alpha = holder_exponent(np.full(2, 1.0), np.full(2, 1.0), np.full(2, 2.0))
    np.testing.assert_allclose(alpha.values, 0.5)
    with pytest.raises(ValueError, match="point"):
        holder_exponent(np.full(2, 2.0), np.full(2, 1.0), np.full(2, 1.0))


def test_conjugate_self_and_involution():
    p2 = conjugate(np.full(3, 2.0))
    np.testing.assert_allclose(p2.values, 2.0)
    rng = np.random.default_rng(2)
    p = rng.uniform(1.01, 8.0, 20)
    back = conjugate(conjugate(p).values).values
    np.testing.assert_allclose(back, p, rtol=1e-12)
    np.testing.assert_allclose(1.0 / p + 1.0 / conjugate(p).values, 1.0, rtol=1e-14)
    with pytest.raises(ValueError):
        conjugate(np.array([1.0, 2.0]))


def test_gamma_strictly_dominates_p():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 6
        Q = rng.uniform(1.5, 3.0, n)
        s = rng.uniform(0.2, 0.6, n)
        p = rng.uniform(1.0, 1.6, n)
        mask = s * p < Q - 0.05
        if not mask.all():
            continue
        gamma = sobolev_conjugate(Q, s, p)
        assert strictly_dominates(gamma.values, p)


def test_field_from_spec_forms():
    f = field_from_spec({"constant": 2.5}, 4, name="p")
    np.testing.assert_allclose(f.values, 2.5)
    g = field_from_spec({"formula": {"type": "two_zone", "inside": 0.5,
                                     "outside": 2.0, "zone": [1]}}, 3, name="Q")
    np.testing.assert_allclose(g.values, [2.0, 0.5, 2.0])
    h = field_from_spec({"values": [1.0, 2.0]}, 2, name="s")
    assert h.inf() == 1.0


def test_exponent_values_broadcast_and_checks():
    np.testing.assert_allclose(exponent_values(2.0, 3), [2, 2, 2])
    with pytest.raises(ValueError):
        exponent_values(np.inf, 2)
    np.testing.assert_allclose(exponent_values(np.inf, 2, allow_inf=True), np.inf)
    with pytest.raises(ValueError):
        exponent_values(np.array([1.0, 2.0]), 3)

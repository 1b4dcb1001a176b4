import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varmms import (SequenceSample, holder_inequality_check, holder_seminorm,
                    lebesgue_embedding_constant, luxemburg, median,
                    median_bound_check, mixed_modular_closed_form,
                    mixed_modular_lq_lp, mixed_norm_lp_lq, mixed_norm_lq_lp, modular,
                    monotonicity_check, pointwise_lq, rel_sandwich_check)
from varmms.generators import line_space
from varmms.norms import _bisect_level, _level_roots


def _level_infimum(u, p, q, w):
    """The level infimum of one row u."""
    return float(_level_roots(np.abs(u)[None, :], p, p / q, w)[0][0])


W2 = np.array([0.5, 0.5])


def test_modular_examples():
    assert modular(np.zeros(4), 2.0, np.ones(4)) == 0.0
    assert modular([2.0, 2.0], [1.0, 2.0], W2) == pytest.approx(3.0)
    # constant function on a unit-mass space
    assert modular([1.5, 1.5], 2.0, W2) == pytest.approx(1.5 ** 2)


def test_luxemburg_analytic_two_point():
    nv = luxemburg([2.0, 2.0], [1.0, 2.0], W2)
    assert nv.value == pytest.approx(2.0, abs=1e-8)


def test_luxemburg_zero_and_constant():
    assert luxemburg(np.zeros(3), 1.5, np.ones(3)).value == 0.0
    # mass one, constant exponent: norm is the absolute value
    assert luxemburg([3.0, 3.0], 1.7, W2).value == pytest.approx(3.0, rel=1e-9)
    assert luxemburg([-3.0, -3.0], 1.7, W2).value == pytest.approx(3.0, rel=1e-9)


@given(st.floats(-50, 50), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_luxemburg_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 8)
    u = rng.standard_normal(n)
    p = rng.uniform(0.5, 3.0, n)
    w = rng.uniform(0.1, 2.0, n)
    base = luxemburg(u, p, w).value
    scaled = luxemburg(c * u, p, w).value
    assert scaled == pytest.approx(abs(c) * base, rel=1e-8, abs=1e-12)


def _log_modular(u, p, w, log_lam):
    """log of modular(u / lam), evaluated in log form."""
    nz = u != 0
    t = np.log(w[nz]) + p[nz] * (np.log(np.abs(u[nz])) - log_lam)
    return t.max() + np.log(np.sum(np.exp(t - t.max())))


def _log_norm(u, p, w):
    """log of the Luxemburg norm, by bisection on the log level."""
    lo, hi = -1000.0, 1000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _log_modular(u, p, w, mid) > 0 else (lo, mid)
    return hi


@given(st.sampled_from([-200, -100, 0, 100, 200]), st.floats(0.5, 50.0),
       st.booleans(), st.integers(0, 10_000), st.booleans())
@example(0, 1.0, False, 99, True)   # exact norm about 1e280: the upper end overflows
@example(0, 1.0, False, 65, True)   # about 1e-266: the lower end lies below 1e-300
@example(0, 1.0, False, 115, True)  # u/lam underflows to 0 where w (u/lam)**p is about 1e56
@settings(max_examples=150, deadline=None)
def test_luxemburg_extreme_scales_and_exponents(exp10, p_max, constant, seed, spread):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    if spread:
        # u and w spread across 1e+-300 independently, p in [0.5, 4]
        u = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        w = 10.0 ** rng.uniform(-300, 300, n)
        p = rng.uniform(0.5, 4.0, n)
        exact = _log_norm(u, p, w)
        assume(abs(exact) < 300 * np.log(10.0))
        nv = luxemburg(u, p, w)
        assert np.log(nv.value) == pytest.approx(exact, abs=1e-9)
        assert nv.tolerance <= 1e-9 * nv.value
        assert _log_modular(u, p, w, np.log(nv.value)) <= 1e-12  # log-form rounding
        return
    scale = 10.0 ** exp10
    v = rng.standard_normal(n)
    w = rng.uniform(1e-3, 2.0, n)
    p = np.full(n, p_max) if constant else rng.uniform(0.5, p_max, n)
    u = scale * v
    nrm = luxemburg(u, p, w).value
    assert modular(u / nrm, p, w) <= 1.0
    assert modular(u / (nrm * (1 - 1e-9)), p, w) > 1.0
    if constant:
        vmax = np.abs(v).max()
        exact = scale * vmax * np.sum(w * (np.abs(v) / vmax) ** p_max) ** (1.0 / p_max)
        assert nrm == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("u0, w0", [(1.0, 1e-300), (1e300, 1e-170)])
def test_luxemburg_underflowed_sandwich_uses_guards(u0, w0):
    # rho**(1/p) underflows to 0.  The exact norm u0 w0**2 is 1e-600 in the
    # first case: the upper end is grown from 0 and returned with tolerance
    # equal to its value.  In the second it is 1e-40, far below u0 / 1.8e308,
    # where u/lam overflows: the log-form ends and modular find it exactly.
    u, w = np.array([u0]), np.array([w0])
    nv = luxemburg(u, 0.5, w)
    assert 0.0 < nv.value < np.inf
    # log of the modular at the returned level: certified <= 1
    assert np.log(w0) + 0.5 * (np.log(u0) - np.log(nv.value)) <= 1e-15
    exact = np.exp(np.log(u0) + 2.0 * np.log(w0))
    if exact < 1e-300:
        assert nv.tolerance == nv.value
    else:
        assert nv.value == pytest.approx(exact, rel=1e-9)
        assert nv.tolerance <= 1e-9 * nv.value


@pytest.mark.parametrize("seed", range(4))
def test_luxemburg_matrix_rows_match_single_rows(seed):
    # row-wise exponents and weights, rows at scales 1e+-200 with zero
    # entries, constant-exponent rows, all-zero rows and a row whose norm
    # (1e-600) lies below the double range
    rng = np.random.default_rng(seed)
    rows, n = 40, 12
    U = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-200, 200, (rows, 1))
    U[rng.random((rows, n)) < 0.2] = 0.0
    U[::7] = 0.0
    P = rng.uniform(0.3, 6.0, (rows, n))
    P[::3] = P[::3, :1]
    W = 10.0 ** rng.uniform(-3.0, 3.0, (rows, n))
    U[5], P[5], W[5, 3] = 0.0, 0.5, 1e-300
    U[5, 3] = 1.0
    nv = luxemburg(U, P, W)
    single = [luxemburg(u, p, w) for u, p, w in zip(U, P, W)]
    assert np.array_equal(nv.value, [s.value for s in single])
    assert np.array_equal(nv.tolerance, [s.tolerance for s in single])
    assert np.all(nv.value[::7] == 0.0) and np.all(nv.tolerance[::7] == 0.0)
    assert 0.0 < nv.value[5] == nv.tolerance[5]
    shared = luxemburg(U, P[1], W[1])
    assert np.array_equal(shared.value, [luxemburg(u, P[1], W[1]).value for u in U])


@given(st.integers(-250, 250), st.sampled_from([1e-12, 1e-6]),
       st.one_of(st.just(None), st.integers(-60, 60)),
       st.one_of(st.sampled_from([0.0, 1e-310]), st.integers(-60, 60)))
@settings(max_examples=300, deadline=None)
def test_bisect_level_brackets_threshold(k, tol, hi_shift, lo_seed):
    # seeds above, below or at t = 10**k; hi_shift None seeds hi = 0, and a
    # float lo_seed lies below the 1e-300 floor
    t = 10.0 ** k
    hi0 = 0.0 if hi_shift is None else t * 2.0 ** hi_shift
    lo0 = lo_seed if isinstance(lo_seed, float) else t * 2.0 ** lo_seed
    calls = []

    def ok(lam):
        calls.append(lam)
        return lam >= t, lam

    hi, lo, payload = _bisect_level(ok, hi0, lo0, tol)
    assert payload == hi
    assert hi >= t
    if lo0 < 1e-300:
        # no lower seed: hi is the first level the guard found admissible
        assert lo == 0.0
        assert hi == next(lam for lam in calls if lam >= t)
    else:
        assert lo < t
        assert hi - lo <= tol * hi
        assert hi <= t * (1.0 + 2.0 * tol)


@pytest.mark.parametrize("t", [1e-305, 1e-310, 5e-324])
def test_bisect_level_floor(t):
    # ok still holds below 1e-300: the halving stops there and reports lo = 0
    hi, lo, payload = _bisect_level(lambda lam: (lam >= t, lam), 1.0, 0.5, 1e-12)
    assert lo == 0.0
    assert payload == hi
    assert t <= hi < 2e-300


@pytest.mark.parametrize("ulp_nudges", [0, 4])
def test_bisect_level_grows_missed_seed(ulp_nudges):
    calls = []

    def ok(lam):
        calls.append(lam)
        return lam >= 3.0, lam

    hi, lo, _ = _bisect_level(ok, 1.0, 0.5, 1e-9, ulp_nudges=ulp_nudges)
    assert lo < 3.0 <= hi <= 3.0 * (1 + 1e-9)
    # the seed, ulp_nudges one-ulp nudges, then the first doubling
    assert calls[:ulp_nudges + 1] == [1.0 + k * 2.0 ** -52 for k in range(ulp_nudges + 1)]
    assert calls[ulp_nudges + 1] == 2.0 * calls[ulp_nudges]


@pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0])
def test_level_infimum_constant_ratio_closed_form(ratio):
    # p/q constant: sum w u**p lam**(-p/q) <= 1 solves to (sum w u**p)**(q/p)
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        u = rng.uniform(0.0, 3.0, n)
        w = rng.uniform(0.1, 2.0, n)
        p = rng.uniform(0.6, 4.0, n)
        exact = float(np.sum(w * u ** p)) ** (1.0 / ratio)
        got = _level_infimum(u, p, p / ratio, w)
        assert got == pytest.approx(exact, rel=1e-12)


@given(st.integers(1, 4), st.integers(-30, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_level_infimum_matches_closed_form_across_scales(n, scale, seed):
    # the level infimum of u is the Luxemburg norm of |u|**q with exponent
    # p/q, here by the log-domain bisection; exponent ratios from 1/10 to 10
    # spread the exponents of the level equation
    rng = np.random.default_rng(seed)
    u = 10.0 ** (scale + rng.uniform(-3.0, 3.0, n))
    w = rng.uniform(0.1, 2.0, n)
    p = rng.uniform(0.5, 5.0, n)
    q = rng.uniform(0.5, 5.0, n)
    got = _level_infimum(u, p, q, w)
    exact = np.exp(_log_norm(u ** q, p / q, w))
    assert got == pytest.approx(exact, rel=1e-9)


def test_unit_ball_equivalence_random():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = rng.integers(1, 9)
        u = rng.standard_normal(n) * rng.uniform(0.1, 10)
        p = rng.uniform(0.5, 3.0, n)
        w = rng.uniform(0.1, 2.0, n)
        nrm = luxemburg(u, p, w).value
        if nrm == 0:
            continue
        assert modular(u / nrm, p, w) <= 1.0 + 1e-9
        assert modular(u / (nrm * (1 - 1e-9)), p, w) > 1.0


def test_quasi_triangle_with_working_constant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 8)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        p = rng.uniform(0.5, 3.0, n)
        w = rng.uniform(0.1, 2.0, n)
        kappa = 2.0 ** (1.0 / p.min())
        lhs = luxemburg(u + v, p, w).value
        rhs = kappa * (luxemburg(u, p, w).value + luxemburg(v, p, w).value)
        assert lhs <= rhs + 1e-8 + 1e-6 * rhs


def test_rel_sandwich_seeds_and_edges():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 10)
        rep = rel_sandwich_check(rng.standard_normal(n), rng.uniform(0.6, 3.0, n),
                                 rng.uniform(0.1, 2.0, n))
        assert rep["ok"], rep
    # constant exponent: equality with the modular power
    u = np.array([1.0, -2.0, 0.5])
    w = np.array([0.3, 0.4, 0.3])
    rep = rel_sandwich_check(u, 2.0, w)
    assert rep["norm"] == pytest.approx(modular(u, 2.0, w) ** 0.5, rel=1e-9)
    rep0 = rel_sandwich_check(np.zeros(3), 2.0, w)
    assert rep0["ok"] and rep0["norm"] == 0.0


def test_holder_inequality():
    ok = holder_inequality_check([1.0, 1.0], [1.0, 1.0], 2.0, W2)
    assert ok["lhs"] == pytest.approx(1.0) and ok["ok"]
    zero = holder_inequality_check(np.zeros(2), [1.0, 2.0], 2.0, W2)
    assert zero["lhs"] == 0.0 and zero["ok"]
    rng = np.random.default_rng(3)
    n = 6
    rep = holder_inequality_check(rng.standard_normal(n), rng.standard_normal(n),
                                  rng.uniform(1.2, 3.0, n), rng.uniform(0.1, 1.0, n))
    assert rep["ok"], rep
    with pytest.raises(ValueError):
        holder_inequality_check([1.0], [1.0], 1.0, [1.0])


def test_lebesgue_embedding_constant_and_harness():
    c = lebesgue_embedding_constant(1.0, 2.0, W2)
    assert c == pytest.approx(2.0, rel=1e-9)
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = rng.integers(2, 8)
        w = rng.uniform(0.05, 0.5, n)
        p = rng.uniform(0.8, 1.5, n)
        q = p + rng.uniform(0.3, 1.5, n)
        cc = lebesgue_embedding_constant(p, q, w)
        u = rng.standard_normal(n)
        assert luxemburg(u, p, w).value <= cc * luxemburg(u, q, w).value * (1 + 1e-8)
    with pytest.raises(ValueError):
        lebesgue_embedding_constant(2.0, 2.0, W2)


# -- mixed sequence norms -----------------------------------------------------

def test_mixed_modular_infinite_q_feasibility_switch():
    w = np.array([1.0, 1.0])
    small = SequenceSample(0, np.array([[0.5, 0.5]]))
    big = SequenceSample(0, np.array([[2.0, 2.0]]))
    p = np.full(2, 2.0)
    q = np.full(2, np.inf)
    assert mixed_modular_lq_lp(small, p, q, w) == 0.0
    assert mixed_modular_lq_lp(big, p, q, w) == np.inf
    # the norm is the per-level Lebesgue norm
    assert mixed_norm_lq_lp(big, p, q, w).value == pytest.approx(
        luxemburg([2.0, 2.0], p, w).value, rel=1e-9)


def test_mixed_zero_sequence():
    seq = SequenceSample(-1, np.zeros((3, 4)))
    p = np.full(4, 1.5)
    assert mixed_modular_lq_lp(seq, p, 2.0, np.ones(4)) == 0.0
    assert mixed_norm_lq_lp(seq, p, 2.0, np.ones(4)).value == 0.0
    assert mixed_norm_lp_lq(seq, p, 2.0, np.ones(4)).value == 0.0


def test_constant_q_norm_formula_cross_check():
    rng = np.random.default_rng(5)
    for q_const in (1.0, 2.0, 3.5):
        n, L = 5, 3
        w = rng.uniform(0.2, 1.0, n)
        p = rng.uniform(0.8, 2.5, n)
        seq = SequenceSample(-1, rng.uniform(0, 1.5, (L, n)))
        defn = mixed_norm_lq_lp(seq, p, q_const, w).value
        # constant q: the level norm of the per-level Lebesgue norms
        per = np.array([luxemburg(row, p, w).value for row in seq.values])
        formula = float(np.sum(per ** q_const) ** (1.0 / q_const))
        assert defn == pytest.approx(formula, rel=1e-7, abs=1e-9)


def test_mixed_modular_self_cross_check_flag():
    rng = np.random.default_rng(13)
    n, L = 4, 3
    w = rng.uniform(0.2, 1.0, n)
    p = rng.uniform(0.8, 2.5, n)
    q = rng.uniform(0.9, 3.0, n)
    seq = SequenceSample(0, rng.uniform(0, 2.0, (L, n)))
    val = mixed_modular_lq_lp(seq, p, q, w)
    other = mixed_modular_closed_form(seq, p, q, w)
    assert np.isfinite(val)
    assert abs(val - other) <= 1e-7 * max(1.0, abs(val))


@given(st.integers(1, 6), st.integers(1, 8), st.integers(-30, 30), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
@example(L=1, n=1, scale=1, seed=2100, with_inf=True, with_zero=False)
def test_mixed_norm_lq_lp_is_certified_upper_end(L, n, scale, seed, with_inf, with_zero):
    # the returned norm v is an upper end: the level sum of certified infima
    # of u / v is at most one; with finite q the independent closed form
    # agrees and exceeds one just below v; the explicit example closes its
    # bracket at exactly the width of 1e-10, where lam(hi) - lam(lo) read
    # 1.0000001e-10 of v by cancellation
    rng = np.random.default_rng(seed)
    u = 10.0 ** (scale + rng.uniform(-3.0, 3.0, (L, n)))
    if with_zero and L > 1:
        u[rng.integers(L)] = 0.0
    w = rng.uniform(0.1, 2.0, n)
    p = rng.uniform(0.5, 5.0, n)
    q = rng.uniform(0.5, 5.0, n)
    if with_inf:
        q[rng.random(n) < 0.4] = np.inf
    seq = SequenceSample(0, u)
    nv = mixed_norm_lq_lp(seq, p, q, w)
    v = nv.value
    assert 0.0 < v < np.inf and 0.0 <= nv.tolerance <= 1e-10 * v
    assert mixed_modular_lq_lp(seq.scaled(1.0 / v), p, q, w) <= 1.0
    if np.all(np.isfinite(q)):
        assert mixed_modular_closed_form(seq.scaled(1.0 / v), p, q, w) <= 1.0 + 1e-9
        assert mixed_modular_closed_form(seq.scaled(1.0 / (v * (1.0 - 1e-8))), p, q, w) > 1.0


def test_finite_q_closed_form_matches_definition():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n, L = 6, 4
        w = rng.uniform(0.2, 1.0, n)
        p = rng.uniform(0.8, 2.5, n)
        q = rng.uniform(0.9, 4.0, n)
        seq = SequenceSample(-2, rng.uniform(0, 2.0, (L, n)))
        assert mixed_modular_lq_lp(seq, p, q, w) == pytest.approx(
            mixed_modular_closed_form(seq, p, q, w), rel=1e-7, abs=1e-9)
    # p/q from 1 to 1/50: the lower sandwich end of the first row underflows
    # to 0, the upper end of the second overflows
    p, q, w = np.ones(2), np.array([1.0, 50.0]), np.ones(2)
    for row, size in (([1e-30, 1e-10], 1e-30), ([1e7, 1e-10], 1e7)):
        seq = SequenceSample(0, np.array([row]))
        direct = mixed_modular_lq_lp(seq, p, q, w)
        assert direct == pytest.approx(mixed_modular_closed_form(seq, p, q, w), rel=1e-9)
        assert direct == pytest.approx(size, rel=1e-6)
    with pytest.raises(ValueError):
        mixed_modular_closed_form(SequenceSample(0, np.ones((1, 2))),
                                  np.ones(2), np.full(2, np.inf), np.ones(2))


def test_lp_lq_single_level_and_doubling():
    rng = np.random.default_rng(7)
    n = 5
    w = rng.uniform(0.2, 1.0, n)
    p = rng.uniform(0.8, 2.5, n)
    row = rng.uniform(0, 2, n)
    single = SequenceSample(0, row[None, :])
    assert mixed_norm_lp_lq(single, p, rng.uniform(1, 3, n), w).value == pytest.approx(
        luxemburg(row, p, w).value, rel=1e-9)
    twice = SequenceSample(0, np.vstack([row, row]))
    assert mixed_norm_lp_lq(twice, p, 1.0, w).value == pytest.approx(
        luxemburg(2 * row, p, w).value, rel=1e-9)


def test_pointwise_lq_sup_and_sum():
    seq = SequenceSample(0, np.array([[1.0, 3.0], [2.0, 4.0]]))
    q = np.array([np.inf, 2.0])
    out = pointwise_lq(seq, q)
    assert out[0] == 2.0
    assert out[1] == pytest.approx(5.0)


def test_mixed_modular_equality_when_q_equals_p():
    # both mixed modulars coincide with the level sum of plain modulars
    rng = np.random.default_rng(8)
    n, L = 5, 3
    w = rng.uniform(0.2, 1.0, n)
    p = rng.uniform(0.8, 2.5, n)
    seq = SequenceSample(0, rng.uniform(0, 2, (L, n)))
    lqlp = mixed_modular_lq_lp(seq, p, p, w)
    plain = sum(modular(row, p, w) for row in seq.values)
    tl_inner = pointwise_lq(seq, p)
    assert lqlp == pytest.approx(plain, rel=1e-9)
    assert modular(tl_inner, p, w) == pytest.approx(plain, rel=1e-12)


def test_monotonicity_check_cases():
    rng = np.random.default_rng(4)
    n, L = 5, 3
    w = rng.uniform(0.2, 1.0, n)
    p = rng.uniform(0.9, 2.5, n)
    seq = SequenceSample(0, rng.uniform(0, 1.5, (L, n)))
    eq = monotonicity_check(seq, p, 2.0, 2.0, w)
    assert eq["ok"]
    assert eq["besov"][0] == pytest.approx(eq["besov"][1], rel=1e-9)
    rep = monotonicity_check(seq, p, 1.0, 2.0, w)
    assert rep["ok"], rep
    zero = monotonicity_check(SequenceSample(0, np.zeros((2, n))), p, 1.0, 2.0, w)
    assert zero["ok"] and zero["besov"] == (0.0, 0.0)
    with pytest.raises(ValueError):
        monotonicity_check(seq, p, 2.0, 1.0, w)


def test_interpolation_splitting_inequality():
    from varmms import interpolation_splitting_check
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        u = rng.standard_normal(n)
        w = rng.uniform(0.1, 1.0, n)
        q0 = rng.uniform(1.0, 1.5, n)
        q = q0 + rng.uniform(0.3, 0.8, n)
        q1 = q + rng.uniform(0.3, 0.8, n)
        rep = interpolation_splitting_check(u, q0, q, q1, w)
        assert rep["conjugacy_error"] <= 1e-12
        assert rep["ok"], rep
    zero = interpolation_splitting_check(np.zeros(3), 1.0, 1.5, 2.0, np.ones(3))
    assert zero["lhs"] == 0.0 and zero["ok"]
    with pytest.raises(ValueError):
        interpolation_splitting_check(np.ones(2), 2.0, 1.5, 3.0, np.ones(2))


# -- Hoelder seminorm and median ----------------------------------------------

def test_holder_seminorm_cases():
    sp = line_space(4)
    assert holder_seminorm(np.full(4, 2.5), 1.0, sp) == 0.0
    u = sp.dist[0]
    assert holder_seminorm(u, 1.0, sp) == pytest.approx(1.0)
    assert holder_seminorm(3.0 * u, 1.0, sp) == pytest.approx(3.0)


def test_holder_seminorm_asymmetric_exponent():
    sp = line_space(2)
    u = np.array([0.0, 1.0])
    alpha = np.array([1.0, 0.5])
    # exponent taken at the first argument of each ordered pair
    sp2 = line_space(2)
    d = 1.0
    expected = max(1.0 / d ** 1.0, 1.0 / d ** 0.5)
    assert holder_seminorm(u, alpha, sp2) == pytest.approx(expected)


def test_median_examples():
    assert median(np.full(3, 4.2), np.ones(3)) == 4.2
    assert median(np.array([0.0, 1.0]), W2) == 1.0


def test_median_shift_scale_abs_props():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = rng.integers(1, 9)
        u = rng.standard_normal(n)
        w = rng.uniform(0.1, 2.0, n)
        m = median(u, w)
        c = float(rng.standard_normal())
        assert median(u + c, w) == pytest.approx(m + c, abs=1e-12)
        cpos = float(rng.uniform(0.1, 5.0))
        assert median(cpos * u, w) == pytest.approx(cpos * m, rel=1e-12, abs=1e-12)
        assert abs(m) <= median(np.abs(u), w) + 1e-12


def test_median_bound_equality_instance():
    rep = median_bound_check(np.array([0.0, 1.0]), W2, 1.0, c=0.0)
    assert rep["lhs"] == pytest.approx(1.0)
    assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)
    assert rep["ok"]


def test_median_bound_trivial_and_random():
    rep = median_bound_check(np.full(4, 2.0), np.ones(4), 1.5, c=2.0)
    assert rep["lhs"] == 0.0 and rep["ok"]
    rng = np.random.default_rng(5)
    n = 7
    rep2 = median_bound_check(rng.standard_normal(n), rng.uniform(0.1, 1.0, n),
                              rng.uniform(0.6, 3.0, n), c=float(rng.standard_normal()))
    assert rep2["ok"], rep2

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varmms import (MetricMeasureSpace, check_global, check_morrey_local,
                    check_moser_trudinger_local, check_sobolev_local, counterexample_run,
                    local_embedding_check, necessity_run, sobolev_conjugate, verify)
from varmms.generators import (annular_cutoff, ball_grid_with_atom, cantor_space,
                               coordinate_function, grid1d, grid2d, log_bump, two_zone_glued)
from varmms.gradients import _CERT_TOL, _cutoff_sequence, lipschitz_cutoff_gradient
from varmms.norms import holder_seminorm, luxemburg, mixed_norm_lp_lq, mixed_norm_lq_lp
from varmms.space import _shells, ball, phi
from varmms.verify import DEFAULT_MT_C1, _exp_shift, inf_centered_norm


@pytest.fixture(scope="module")
def grid8():
    return grid2d(8)


@pytest.fixture(scope="module")
def center8(grid8):
    return int(np.argmin(np.linalg.norm(grid8.coords - 0.5, axis=1)))


def test_inf_centered_norm_constant_and_minimizer():
    w = np.full(4, 0.25)
    val, c, heur = inf_centered_norm(np.full(4, 3.0), 2.0, w)
    assert val == 0.0 and c == 3.0 and not heur
    u = np.array([0.0, 1.0, 2.0, 3.0])
    val2, c2, _ = inf_centered_norm(u, 2.0, w)
    # constant-exponent L2 minimizer is the weighted mean; the shift is the
    # root of the exact slope, located to the root finder's tolerance
    assert c2 == pytest.approx(1.5, abs=1e-12)
    ref = np.sqrt(np.sum(w * (u - 1.5) ** 2))
    assert val2 == pytest.approx(ref, rel=1e-8)
    # at p = 1 the minimizers are the weighted medians, here the single point 2
    w1 = np.array([0.1, 0.2, 0.4, 0.3])
    val1, c1, heur1 = inf_centered_norm(u, 1.0, w1)
    assert c1 == pytest.approx(2.0, abs=1e-12) and not heur1
    assert val1 == pytest.approx(np.sum(w1 * np.abs(u - 2.0)), rel=1e-12)


@pytest.mark.parametrize("p", [3.0, np.linspace(1.0, 20.0, 4)], ids=["constant", "variable"])
def test_inf_centered_norm_is_scale_invariant(p):
    u = np.array([0.0, 1.0, 2.0, 7.0])
    w = np.full(4, 0.25)
    base, c0, _ = inf_centered_norm(u, p, w)
    for scale in (1e-200, 1e-13, 1e200):
        val, c, _ = inf_centered_norm(scale * u, p, w)
        assert val == pytest.approx(scale * base, rel=1e-9, abs=0.0), scale
        assert c == pytest.approx(scale * c0, rel=1e-9, abs=0.0), scale
    # a spread of about 1e-13 riding on an offset of 1; the step 2**-43 keeps
    # every shifted value an exact double
    step = 2.0 ** -43
    val, c, _ = inf_centered_norm(1.0 + step * u, p, w)
    assert val == pytest.approx(step * base, rel=1e-9, abs=0.0)
    assert abs(c - (1.0 + step * c0)) <= 2 * np.spacing(1.0)  # c itself rounds near 1


@given(st.integers(2, 40), st.booleans(), st.booleans(), st.integers(-50, 50),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_inf_centered_norm_beats_every_shift(n, variable, at_one, scale, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) * 10.0 ** scale
    assume(np.ptp(u) > 0)
    w = rng.uniform(0.1, 2.0, n)
    p = rng.uniform(1.0, 6.0, n) if variable else np.full(n, rng.uniform(1.0, 6.0))
    if at_one:  # some exponents exactly 1 (all of them when p is constant)
        p = np.where(rng.random(n) < 0.5, 1.0, p) if variable else np.ones(n)
    val, c, heur = inf_centered_norm(u, p, w)
    assert not heur
    assert u.min() <= c <= u.max()
    for shift in np.linspace(u.min(), u.max(), 65):
        assert val <= luxemburg(u - shift, p, w).value * (1.0 + 1e-9)


def test_inf_centered_norm_subunit_exponent_is_heuristic():
    u = np.array([0.0, 1.0, 2.0, 7.0])
    w = np.full(4, 0.25)
    val, c, heur = inf_centered_norm(u, 0.5, w)
    assert heur and u.min() <= c <= u.max()
    for shift in np.linspace(u.min(), u.max(), 64):  # the heuristic's own grid
        assert val <= luxemburg(u - shift, 0.5, w).value * (1.0 + 1e-9)


def test_inf_centered_norm_subunit_exponent_tries_data_values():
    # max p < 1: the modular is concave in the shift between data values, so
    # the infimum sits at one of them; a 64-point grid and its golden-section
    # refinement alone read up to 9.2% high on this battery
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        u = rng.standard_normal(n)
        w = rng.uniform(0.1, 2.0, n)
        p = rng.uniform(0.3, 0.95, n)
        val, c, heur = inf_centered_norm(u, p, w)
        assert heur
        assert val <= min(luxemburg(u - uk, p, w).value for uk in u) * (1.0 + 1e-12)


@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
def test_zero_weight_padding_keeps_each_rows_result(variable):
    # a necessity run pads its ball rows to the largest ball with zero-weight
    # copies of one of their own values: each row keeps its value within a
    # few ulps, and its shift within the root's tolerance (xtol 1e-14 of its
    # span; the padded sums round differently, so Brent's path may move),
    # alone or as a row of a matrix, and no warning is raised
    rng = np.random.default_rng(28 + variable)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(40):
            rows, n, k = 4, int(rng.integers(3, 40)), int(rng.integers(1, 30))
            U = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            W = rng.uniform(0.05, 2.0, (rows, n))
            P = (rng.uniform(1.0, 4.0, (rows, n)) if variable
                 else np.full((rows, n), rng.uniform(1.0, 4.0)))
            copy = rng.integers(0, n, (rows, 1))
            U2, P2 = (np.hstack([X, np.repeat(np.take_along_axis(X, copy, axis=1), k, axis=1)])
                      for X in (U, P))
            W2 = np.hstack([W, np.zeros((rows, k))])
            span = np.ptp(U, axis=1)
            rate = rng.uniform(0.5, 20.0, (rows, 1)) / span[:, None]
            value, shift, _ = inf_centered_norm(U2, P2, W2)
            exp_shift = _exp_shift(U2, W2, rate)
            for r in range(rows):
                p_row = P[r] if variable else P[r, 0]
                v, c, heur = inf_centered_norm(U[r], p_row, W[r])
                padded = inf_centered_norm(U2[r], P2[r] if variable else p_row, W2[r])
                assert padded == (value[r], shift[r], heur) and not heur
                assert abs(value[r] - v) <= 8 * eps * v
                assert abs(shift[r] - c) <= 1e-14 * span[r]
                e = _exp_shift(U[r], W[r], rate[r, 0])
                assert _exp_shift(U2[r], W2[r], rate[r, 0]) == exp_shift[r]
                assert abs(exp_shift[r] - e) <= 1e-14 * span[r]


@pytest.mark.parametrize("mode, solver", [("sobolev_local", "inf_centered_norm"),
                                          ("moser", "_exp_shift")])
def test_local_necessity_run_scores_all_balls_in_one_call(grid8, monkeypatch, mode, solver):
    # the rows of every ball size share one centred-norm or shift solve
    n = grid8.n
    s, p = np.full(n, 0.5), np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    calls, tables = [], []
    solve, table = getattr(verify, solver), verify._cutoff_table
    monkeypatch.setattr(verify, solver, lambda u, *a: calls.append(len(u)) or solve(u, *a))
    monkeypatch.setattr(verify, "_cutoff_table", lambda *a: tables.append(table(*a)) or tables[-1])
    rep = necessity_run(grid8, s, p, np.inf, gamma, mode=mode)
    assert rep.verdict == "pass"
    sizes = tables[0].ball.sum(axis=1)
    assert len(np.unique(sizes)) > 2
    assert calls == [sizes.size]


def test_annular_cutoff_levels_are_the_one_level_calls(grid8):
    # the necessity table's broadcast over levels gives the function
    # family's one-level cut-offs, row for row, bit for bit
    levels = np.arange(1, 6)
    U, S, L = annular_cutoff(grid8, 27, 0.45, levels)
    for j, u, on, lip in zip(levels, U, S, L):
        u1, support, L1 = annular_cutoff(grid8, 27, 0.45, int(j))
        assert np.array_equal(u, u1) and np.array_equal(np.flatnonzero(on), support)
        assert lip == L1
    with pytest.raises(ValueError, match="positive"):
        annular_cutoff(grid8, 27, 0.45, np.arange(0, 3))


def test_sobolev_local_pass_and_constant(grid8, center8):
    u = coordinate_function(grid8, 0)
    rep = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0)
    assert rep.verdict == "pass"
    assert np.isfinite(rep.extras["empirical_constant"])
    # constant function: zero left side
    rep0 = check_sobolev_local(grid8, center8, 0.25, 2.0, np.full(64, 5.0), 1.0, 1.0, 2.0)
    assert rep0.lhs == 0.0 and rep0.extras["empirical_constant"] == 0.0


def test_sobolev_local_hypothesis_gate(grid8, center8):
    u = coordinate_function(grid8, 0)
    # s p = Q violates the subcritical requirement: not applicable, no raise
    rep = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 1.0)
    assert rep.verdict == "not_applicable"
    names = {h.name: h.holds for h in rep.hypotheses}
    assert names["sp_below_Q"] is False
    # oversized radius violates the threshold restriction
    rep2 = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0, delta=0.3)
    assert rep2.verdict == "not_applicable"
    # sigma must inflate
    rep3 = check_sobolev_local(grid8, center8, 0.25, 1.0, u, 1.0, 1.0, 2.0)
    assert rep3.verdict == "not_applicable"


def test_sobolev_local_supplied_constant(grid8, center8):
    u = coordinate_function(grid8, 0)
    base = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0)
    c_emp = base.extras["empirical_constant"]
    good = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0, C=2 * c_emp)
    bad = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0, C=0.5 * c_emp)
    assert good.verdict == "pass" and bad.verdict == "fail"


def test_moser_local(grid8, center8):
    u = log_bump(grid8, center8)
    rep = check_moser_trudinger_local(grid8, center8, 0.25, 2.0, u, 1.0, 2.0, 2.0)
    assert rep.verdict == "pass"
    assert rep.extras["average"] >= 1.0
    # constant u: average is exactly one
    rep0 = check_moser_trudinger_local(grid8, center8, 0.25, 2.0,
                                       np.full(64, 2.0), 1.0, 2.0, 2.0)
    assert rep0.verdict == "pass" and rep0.extras["average"] == 1.0
    # regime gate: s p != Q
    gate = check_moser_trudinger_local(grid8, center8, 0.25, 2.0, u, 1.0, 2.0, 3.0)
    assert gate.verdict == "not_applicable"


def test_moser_average_monotone_in_C1(grid8, center8):
    u = log_bump(grid8, center8)
    avgs = []
    for c1 in (1e-6, 1e-3, DEFAULT_MT_C1):
        rep = check_moser_trudinger_local(grid8, center8, 0.25, 2.0, u, 1.0, 2.0, 2.0,
                                          C1=c1)
        avgs.append(rep.extras["average"])
    assert avgs[0] == pytest.approx(1.0, abs=1e-4)
    assert avgs[0] <= avgs[1] <= avgs[2]


def test_morrey_local():
    sp = grid1d(64)
    u = np.sqrt(coordinate_function(sp, 0))
    rep = check_morrey_local(sp, 32, 0.2, 2.0, u, 1.0, 2.0, 1.0)
    assert rep.verdict == "pass"
    assert np.isfinite(rep.extras["C_H"]) and rep.extras["D_H"] > 0
    # constant function trivially passes
    rep0 = check_morrey_local(sp, 32, 0.2, 2.0, np.full(64, 1.0), 1.0, 2.0, 1.0)
    assert rep0.verdict == "pass" and rep0.extras["sup_deviation"] == 0.0
    # regime gate: s p below Q
    gate = check_morrey_local(sp, 32, 0.2, 2.0, u, 0.4, 2.0, 1.0)
    assert gate.verdict == "not_applicable"


def test_morrey_single_point_ball():
    sp = grid1d(16)
    rep = check_morrey_local(sp, 3, 1.0 / 32.0, 2.0, np.arange(16.0), 1.0, 2.0, 1.0)
    # radius below the spacing: B0 is a singleton, deviation 0
    assert rep.extras["sup_deviation"] == 0.0


def test_local_embedding(grid8, center8):
    u = coordinate_function(grid8, 0)
    rep = local_embedding_check(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0)
    assert rep.verdict == "pass"
    rep0 = local_embedding_check(grid8, center8, 0.25, 2.0, np.full(64, 3.0), 1.0, 1.0, 2.0)
    assert rep0.verdict == "pass"
    repz = local_embedding_check(grid8, center8, 0.25, 2.0, np.zeros(64), 1.0, 1.0, 2.0)
    assert repz.verdict == "pass" and repz.lhs == 0.0


def test_local_embedding_carries_sobolev_extras(grid8, center8):
    u = log_bump(grid8, center8)
    for s, p in [(1.0, 1.0), (1.0, 2.5)]:  # applicable, then sp above Q
        sob = check_sobolev_local(grid8, center8, 0.25, 2.0, u, s, p, 2.0)
        emb = local_embedding_check(grid8, center8, 0.25, 2.0, u, s, p, 2.0)
        assert sob.verdict == emb.verdict
        assert sob.hypotheses == emb.hypotheses
        for key, value in sob.extras.items():
            assert emb.extras[key] == value, key
    assert emb.verdict == "not_applicable"


def test_check_global_regimes(grid8):
    u = coordinate_function(grid8, 0)
    sob = check_global(grid8, u, 0.5, 1.0, 2.0, theorem="bounded")
    assert sob.extras["regime"] == "subcritical" and sob.verdict == "pass"
    dbl = check_global(grid8, u, 0.5, 1.0, 2.0, theorem="doubling_sob")
    assert dbl.verdict == "pass"
    assert "doubling_estimate" in dbl.extras
    mt = check_global(grid8, u, 1.0, 2.0, 2.0, theorem="doubling_mt")
    assert mt.applicable
    hol = check_global(grid8, u, 1.0, 1.0, 0.5, theorem="doubling_holder")
    assert hol.verdict == "pass" and np.isfinite(hol.extras["empirical_constant"])
    # wrong regime gates to not-applicable
    gate = check_global(grid8, u, 0.5, 1.0, 2.0, theorem="doubling_holder")
    assert gate.verdict == "not_applicable"


def test_check_global_supplied_constant_fail(grid8):
    u = coordinate_function(grid8, 0)
    base = check_global(grid8, u, 0.5, 1.0, 2.0, theorem="bounded")
    c = base.extras["empirical_constant"]
    bad = check_global(grid8, u, 0.5, 1.0, 2.0, theorem="bounded", C=0.5 * c)
    assert bad.verdict == "fail"


def test_counterexample_parameter_validation():
    with pytest.raises(ValueError):
        counterexample_run(1, 1.5, 2.0, 0.6)
    with pytest.raises(ValueError):
        counterexample_run(1, 0.5, 0.9, 0.6)
    # theta at the upper endpoint excluded (open interval)
    with pytest.raises(ValueError):
        counterexample_run(1, 0.5, 2.0, 0.75)
    with pytest.raises(ValueError):
        counterexample_run(1, 0.5, 2.0, 0.5)


def test_counterexample_small_run():
    rep = counterexample_run(1, 0.5, 2.0, 0.6, refinements=(15, 31))
    assert rep.passed
    assert rep.extras["divergence_certified"]
    assert all(b > 0 for b in rep.extras["b_lower"])


def test_counterexample_gradient_modular_closed_form():
    # the explicit gradient r**(theta-1) has a finite p-modular with the
    # closed-form value n omega_n / (theta p - p + n); quadrature agrees
    from scipy.integrate import quad
    n_dim, beta, p, theta = 1, 0.5, 2.0, 0.6
    closed = 2.0 / (theta * p - p + n_dim)  # n omega_n = 2 for n = 1
    quadra, _ = quad(lambda r: 2.0 * r ** (theta * p - p + n_dim - 1), 0, 1)
    assert quadra == pytest.approx(closed, rel=1e-10)
    # the midpoint-cell discretization underestimates the convex decreasing
    # integrand, so the discrete modular increases under refinement while
    # staying bounded by the closed form (the near-singular tail converges
    # only at rate h**0.2, so no tight agreement is expected at desk scale)
    prev = 0.0
    for m in (51, 101, 201):
        sp = ball_grid_with_atom(1, m)
        r = np.linalg.norm(sp.coords, axis=1)
        g = np.zeros(sp.n)
        g[r > 0] = r[r > 0] ** (theta - 1.0)
        discrete = float(np.sum(sp.weight * g ** p))
        assert prev <= discrete <= closed * (1 + 1e-9)
        prev = discrete


def test_necessity_identity_algebraic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = 8
        Q = rng.uniform(1.0, 3.0, n)
        s = rng.uniform(0.2, 0.7, n)
        p = rng.uniform(1.0, 1.8, n)
        if np.any(s * p >= Q - 1e-3):
            continue
        gamma = sobolev_conjugate(Q, s, p).values
        recovered = gamma * s * p / (gamma - p)
        np.testing.assert_allclose(recovered, Q, rtol=1e-12)


def test_necessity_modes_smoke(grid8):
    n = grid8.n
    s = np.full(n, 0.5)
    p = np.full(n, 1.5)
    Q = np.full(n, 2.0)
    gamma = sobolev_conjugate(Q, s, p).values
    rep = necessity_run(grid8, s, p, np.inf, gamma, mode="sobolev_global")
    assert rep.verdict == "pass"
    assert rep.extras["b_empirical"] > 0
    assert rep.extras["b_empirical"] >= rep.extras["b_formula"]


def test_necessity_all_modes_pass(grid8):
    n = grid8.n
    s = np.full(n, 0.5)
    p = np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    for mode, target in [("sobolev_global", gamma), ("sobolev_local", gamma),
                         ("moser", gamma), ("holder", np.full(n, 0.3))]:
        rep = necessity_run(grid8, s, p, np.inf, target, mode=mode)
        assert rep.verdict == "pass", mode
        assert rep.extras["b_empirical"] >= rep.extras["b_formula"], mode
        assert rep.extras["embedding_constant"] > 0, mode


def _golden_exp_shift(u, w, k):
    """The golden-section scorer that the slope root replaced: 120 steps over
    [min u, max u], stopping at a bracket of 1e-12 * max(1, |a| + |b|)."""
    def f(c):
        return np.sum(w * np.exp(k * np.abs(u - c))) / np.sum(w)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(u.min()), float(u.max())
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(120):
        if b - a <= 1e-12 * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    return min((f1, x1), (f2, x2))[1]


def test_moser_necessity_score_matches_golden_section(grid8):
    # every candidate scored about the golden-section shift, one at a time
    n = grid8.n
    s, p = np.full(n, 0.5), np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    w = grid8.weight
    for omega, c1 in ((None, None), (0.5, 3.0)):
        rep = necessity_run(grid8, s, p, np.inf, gamma, mode="moser", omega=omega, C_MT1=c1)
        om, c1 = (1.0 if omega is None else omega), (DEFAULT_MT_C1 if c1 is None else c1)
        scores = []
        for _, _, Br, u, _, _, anorm in _cutoff_family_reference(
                grid8, [0, 32, 63], _default_radii(grid8), _annular(grid8, 4), s, p,
                np.full(n, np.inf), "M", local=True):
            ub, wb = u[Br.members], w[Br.members]
            c = _golden_exp_shift(ub, wb, om * c1 / anorm)
            scores.append(np.sum(wb * np.exp(c1 * np.abs(ub - c) / anorm) ** om) / np.sum(wb))
        assert len(scores) > 1 and max(scores) > 1.0  # not the floor of the max
        assert rep.extras["embedding_constant"] == pytest.approx(max(scores), rel=1e-9)


def test_moser_shift_past_the_exp_range(grid8):
    # exponent arguments k |u - c| up to 1e4, far past exp's overflow at 710:
    # the slope is summed relative to its largest term, so nothing overflows
    u, _, _ = annular_cutoff(grid8, 27, 0.5, 1)
    span = float(np.ptp(u))
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        c = _exp_shift(u, grid8.weight, 1e4 / span)
        # the whole Moser run: its scores read inf, and nothing warns
        n = grid8.n
        rep = necessity_run(grid8, np.full(n, 0.5), np.full(n, 1.5), np.inf, np.full(n, 3.0),
                            mode="moser", C_MT1=1e4)
    assert u.min() <= c <= u.max()
    # the largest deviation dominates: the minimizer is the midrange
    assert c == pytest.approx(0.5 * (u.min() + u.max()), abs=1e-3 * span)
    assert rep.extras["embedding_constant"] == np.inf


def _slope_battery(seed):
    """(v, log_terms) of ``_slope_root``'s two forms on v spanning [0, 1]:
    the Moser shift's log w + k |d| and the Lebesgue shift's
    log(w p) + (p - 1) log|d|, with log weights spread up to +-200 and
    one heavy end point pushing the root onto 0 or 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    v = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
    if seed % 3 == 0:
        v = np.round(v, 1)  # ties
    log_w = rng.uniform(-1.0, 1.0, n) * (200.0 if seed % 2 else 5.0)
    if seed % 5 == 0:
        log_w[int(rng.integers(2))] = 200.0
    if seed % 4 < 2:
        k = float(np.exp(rng.uniform(-7.0, 6.0)))
        return v, lambda d, on, rows: log_w + k * np.abs(d)
    pv = rng.uniform(1.0, 5.0, n)
    return v, lambda d, on, rows: log_w + (pv - 1.0) * np.log(np.abs(d))


def _brentq_slope(v, log_terms):
    """One row's slope as ``_slope_root`` evaluates it, for scipy's brentq."""
    def slope(t):
        d = np.atleast_2d(v) - t
        on = d != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.where(on, log_terms(d, on, np.array([0])), -np.inf)
            return float(-(np.sign(d) * np.exp(L - L.max(axis=1, keepdims=True))).sum())
    return slope


def test_slope_root_matches_scipy_brentq():
    # the centring shifts run Chandrupatla's method, so that no verify
    # imports scipy.optimize; its roots must lie within brentq's own
    # tolerance xtol + 4 eps |t| of scipy's
    from scipy.optimize import brentq
    problems = [_slope_battery(seed) for seed in range(600)]
    ours = np.array([verify._slope_root(v, log_terms) for v, log_terms in problems])
    theirs = np.array([brentq(_brentq_slope(*problem), 0.0, 1.0, xtol=1e-14)
                       for problem in problems])
    tol = 1e-14 + 4 * np.finfo(float).eps * np.abs(theirs)
    assert np.all(np.abs(ours - theirs) <= tol), np.max(np.abs(ours - theirs) / tol)
    assert ours.min() < 1e-12 and ours.max() > 1.0 - 1e-12
    # all 600 problems as the rows of one call, each row padded with entries
    # that add no term and its log terms evaluated on its own: every row
    # takes the steps of its one-row call, bit for bit
    width = max(len(v) for v, _ in problems)
    V = np.zeros((len(problems), width))
    for i, (v, _) in enumerate(problems):
        V[i, :len(v)] = v

    def padded(ids):
        def log_terms(d, on, rows):
            L = np.full(d.shape, -np.inf)
            for k, r in enumerate(rows):
                v, terms = problems[ids[r]]
                L[k, :len(v)] = terms(d[k:k + 1, :len(v)], on[k:k + 1, :len(v)], rows[:1])
            return L
        return log_terms

    together = verify._slope_root(V, padded(range(len(V))))
    alone = [verify._slope_root(V[i], padded([i])) for i in range(len(V))]
    assert np.array_equal(together, alone)
    # a NaN slope, at the ends or at the first step inside (t = 1/2), is an error
    for log_terms in (lambda d, on, rows: np.full(d.shape, np.nan),
                      lambda d, on, rows: np.where(np.abs(d.sum(axis=1, keepdims=True)) < 0.9,
                                                   np.nan, 0.0)):
        with pytest.raises(ValueError, match="NaN"):
            verify._slope_root(np.array([0.0, 0.5, 1.0]), log_terms)


def test_necessity_atom_flagging(grid8):
    n = grid8.n
    s = np.full(n, 0.5)
    p = np.full(n, 1.5)
    alpha = np.full(n, 0.3)
    alpha[5] = 0.5  # s == alpha at point 5, but no atom designated
    rep = necessity_run(grid8, s, p, np.inf, alpha, mode="holder")
    assert rep.extras["atom_contradictions"] == [5]
    assert rep.verdict == "fail"
    spa = ball_grid_with_atom(1, 9)
    na = spa.n
    sa = np.full(na, 0.5)
    pa = np.full(na, 1.5)
    aa = np.full(na, 0.3)
    aa[spa.atoms[0]] = 0.5
    repa = necessity_run(spa, sa, pa, np.inf, aa, mode="holder")
    assert repa.extras["atom_contradictions"] == []
    assert repa.verdict == "pass"


def test_necessity_hypothesis_gate(grid8):
    n = grid8.n
    # max s = 1 with finite q is inadmissible for the cut-off construction
    rep = necessity_run(grid8, np.full(n, 1.0), np.full(n, 1.5), 2.0,
                        np.full(n, 3.0), mode="sobolev_global")
    assert rep.verdict == "not_applicable"
    # gamma must strictly dominate p
    rep2 = necessity_run(grid8, np.full(n, 0.5), np.full(n, 1.5), np.inf,
                         np.full(n, 1.5), mode="sobolev_global")
    assert rep2.verdict == "not_applicable"
    assert any(h.name == "gamma_dominates_p" and not h.holds for h in rep2.hypotheses)
    # a two-point space is not uniformly perfect at any usable resolution
    from varmms.generators import line_space
    pair = line_space(2)
    rep3 = necessity_run(pair, np.full(2, 0.5), np.full(2, 1.5), np.inf,
                         np.full(2, 3.0), mode="sobolev_local", epsilon=0.1)
    assert rep3.verdict == "not_applicable"
    assert any(h.name == "uniformly_perfect" and not h.holds for h in rep3.hypotheses)


def test_necessity_one_point_space_not_applicable():
    one = MetricMeasureSpace.from_matrix([[0.0]], [1.0])
    for mode in ("sobolev_global", "sobolev_local", "moser", "holder"):
        rep = necessity_run(one, [0.5], [1.5], np.inf, [3.0], mode=mode)
        assert rep.verdict == "not_applicable", mode
        assert [(h.name, h.holds) for h in rep.hypotheses] == [("two_points", False)]


def test_local_checks_with_delta_below_point_spacing(grid8):
    # delta = 0.1 is below grid2d(8)'s spacing 1/8: every ball of radius at
    # most delta is a singleton, so b = min over x of w(x) / delta**Q(x)
    u = log_bump(grid8, 27, 0.3)
    b = 1.0 / 64 / 0.1 ** 2
    for check in (check_sobolev_local, check_moser_trudinger_local, check_morrey_local,
                  local_embedding_check):
        rep = check(grid8, 27, 0.25, 2.0, u, 1.0, 1.0, 2.0, delta=0.1)
        assert rep.verdict == "not_applicable", check.__name__
        assert rep.extras["b"] == pytest.approx(b, rel=1e-12)
        holds = {h.name: h.holds for h in rep.hypotheses}
        assert holds["lower_regularity"] and not holds["r0_le_delta_over_sigma"]


def test_sobolev_local_empty_ball_gate(grid8, center8):
    u = coordinate_function(grid8, 0)
    rep = check_sobolev_local(grid8, center8, 0.0, 2.0, u, 1.0, 1.0, 2.0)
    assert rep.verdict == "not_applicable"
    assert any(h.name == "ball_nonempty" and not h.holds for h in rep.hypotheses)


def test_sobolev_local_vector_modes(grid8, center8):
    u = coordinate_function(grid8, 0)
    m = check_sobolev_local(grid8, center8, 0.2, 2.0, u, 1.0, 1.0, 2.0, mode="M")
    tl = check_sobolev_local(grid8, center8, 0.2, 2.0, u, 1.0, 1.0, 2.0,
                             mode="TL", q=np.full(64, np.inf))
    bes = check_sobolev_local(grid8, center8, 0.2, 2.0, u, 1.0, 1.0, 2.0,
                              mode="Besov", q=np.full(64, np.inf))
    assert tl.verdict == bes.verdict == "pass"
    # TL with q = inf reduces to the scalar norm; Besov-inf norm is smaller
    assert tl.extras["grad_norm"] == pytest.approx(m.extras["grad_norm"], rel=1e-6)
    assert bes.extras["grad_norm"] <= m.extras["grad_norm"] * (1 + 1e-9)
    with pytest.raises(ValueError):
        check_sobolev_local(grid8, center8, 0.2, 2.0, u, 1.0, 1.0, 2.0, mode="TL")


def test_report_serialization_shapes(grid8, center8):
    u = coordinate_function(grid8, 0)
    rep = check_sobolev_local(grid8, center8, 0.25, 2.0, u, 1.0, 1.0, 2.0)
    payload = rep.to_json()
    assert payload["verdict"] == "pass"
    assert {"theorem", "scenario", "hypotheses", "lhs", "rhs", "constant",
            "margin", "extras"} <= set(payload)
    row = rep.csv_row()
    assert len(row) == 7


def test_necessity_family_validated_and_besov_family_runs(grid8):
    n = grid8.n
    s, p = np.full(n, 0.5), np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    with pytest.raises(ValueError, match="family"):
        necessity_run(grid8, s, p, np.inf, gamma, mode="sobolev_global", family="B")
    rep = necessity_run(grid8, s, p, np.inf, gamma, mode="sobolev_global", family="N")
    assert rep.theorem == "necessity_sobolev_global[N]" and rep.verdict == "pass"
    assert rep.extras["embedding_constant"] > 0
    # the family norm is the matching norm of lipschitz_cutoff_gradient's report
    u, support, L = annular_cutoff(grid8, 27, 0.4, 2)
    on = np.isin(np.arange(n), support)[None]
    for q in (np.full(n, np.inf), np.full(n, 2.5), np.linspace(1.5, 3.0, n)):
        _, cut = lipschitz_cutoff_gradient(grid8, support, L, s, p, q, u=u)
        for family, key in (("M", "tl_norm"), ("N", "besov_norm")):
            assert verify._family_norms(grid8, on, np.array([L]), s, p, q, family)[0] == cut[key]
    # a family built for a smaller Lipschitz constant is no gradient of u; a
    # skipped candidate (u constant on its ball, or no support) never raises
    def table(u, support, L):
        cutoff = (u[None], np.isin(np.arange(n), support)[None], np.array([L]))
        return verify._cutoff_table(grid8, [27], [0.4], lambda x, base: cutoff, s, p,
                                    np.full(n, np.inf), "M", _shells(grid8, [27]))

    with pytest.raises(RuntimeError, match="not a gradient"):
        table(u, support, L / 100)
    assert len(table(np.ones(n), support, L / 100).L) == 0
    assert len(table(u, np.zeros(0, dtype=int), L / 100).L) == 0
    assert len(table(u, support, L).L) == 1


def test_necessity_centers_must_index_points(grid8):
    # a negative centre would wrap to the end of the distance table
    n = grid8.n
    s, p = np.full(n, 0.5), np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    for mode in ("sobolev_local", "sobolev_global"):
        for bad in (-1, n):
            with pytest.raises(ValueError, match=r"necessity center must lie in \[0, 64\)"):
                necessity_run(grid8, s, p, np.inf, gamma, mode=mode, centers=[0, bad])


# -- the candidate loop that necessity_run's batch replaced, as its oracle ---

def _default_radii(space, sigma=2.0):
    top = min(1.0 / sigma, space.diameter * 0.75)
    return [top, top / 2.0]


def _annular(space, j_max):
    return lambda x, base: annular_cutoff(space, x, base, np.arange(1, j_max + 1))


def _family_norm_reference(space, support, L, s, p, q, family, u):
    """One candidate's family norm from its level table, certified first."""
    seq, _, cert = _cutoff_sequence(space, support, L, s, q, u)
    if cert > _CERT_TOL:
        raise RuntimeError(f"cut-off family is not a gradient (violation {cert})")
    if family == "M":
        return mixed_norm_lp_lq(seq, p, q, space.weight).value
    return mixed_norm_lq_lp(seq, p, q, space.weight).value


def _cutoff_family_reference(space, centers, radii, cutoffs, s, p, q, family, local):
    """The test functions one candidate at a time, as (x, r, B(x, r), u,
    support, L, family norm) when that norm is positive."""
    for x in centers:
        for r in radii:
            base = phi(space, x, r) if local else r
            if base <= 0:
                continue
            Br = ball(space, x, r) if local else ball(space, x, np.inf)
            for u, on, L in zip(*cutoffs(x, base)):
                support = np.flatnonzero(on)
                if support.size == 0 or np.ptp(u[Br.members]) == 0:
                    continue
                anorm = _family_norm_reference(space, support, L, s, p, q, family, u)
                if anorm > 0:
                    yield x, r, Br, u, on, L, anorm


def _reference_table(space, centers, radii, cutoffs, s, p, q, family, shells):
    rows = list(_cutoff_family_reference(space, centers, radii, cutoffs, s, p, q, family,
                                         shells is not None))
    x, r, balls, u, on, L, anorm = zip(*rows) if rows else ((),) * 7
    ball_on = np.zeros((len(rows), space.n), dtype=bool)
    for row, Br in zip(ball_on, balls):
        row[Br.members] = True
    return verify._Cutoffs(np.array(x, dtype=int), np.array(r, dtype=float), ball_on,
                           np.array([Br.measure for Br in balls]),
                           np.reshape(u, (len(rows), space.n)),
                           np.reshape(on, (len(rows), space.n)), np.array(L), np.array(anorm))


def _reference_scores(space, mode, cut, target, Q, omega, C_MT1):
    """Each candidate's score on its own, on its own ``Ball``."""
    w, out = space.weight, []
    for x, r, u, anorm in zip(cut.x, cut.r, cut.u, cut.anorm):
        Br = ball(space, x, r)
        if mode == "holder":
            out.append(holder_seminorm(u, target, space) / anorm)
        elif mode == "sobolev_global":
            out.append(luxemburg(u, target, w).value / anorm)
        elif mode == "moser":
            ub, wb = u[Br.members], w[Br.members]
            c = _exp_shift(ub, wb, omega * C_MT1 / anorm)
            with np.errstate(over="ignore"):
                out.append(np.sum(np.exp(C_MT1 * np.abs(ub - c) / anorm) ** omega * wb) / np.sum(wb))
        else:
            scale = (Br.measure / r ** Q[x]) ** omega
            num = inf_centered_norm(u[Br.members], target[Br.members], w[Br.members])[0]
            out.append(num / (scale * anorm) if scale > 0 else 0.0)
    return np.array(out)


_NECESSITY_SPACES = {"grid8": lambda: grid2d(8), "cantor4": lambda: cantor_space(4),
                     "glued": lambda: two_zone_glued(8, 4), "line64": lambda: grid1d(64)}


@pytest.mark.parametrize("kind", sorted(_NECESSITY_SPACES))
def test_necessity_batch_matches_the_candidate_loop(kind, monkeypatch):
    # every mode, both families and three kinds of q: the batch against the
    # loop it replaced, at the default and at seeded centres and radii
    sp = _NECESSITY_SPACES[kind]()
    n = sp.n
    rng = np.random.default_rng(sorted(_NECESSITY_SPACES).index(kind))
    qs = {"inf": np.full(n, np.inf), "2.5": np.full(n, 2.5), "variable": np.linspace(1.5, 3.0, n)}
    runs = 0
    for m, mode in enumerate(("sobolev_global", "sobolev_local", "moser", "holder")):
        s, p = rng.uniform(0.4, 0.6, n), rng.uniform(1.3, 1.7, n)
        target = np.full(n, 0.3) if mode == "holder" else p + rng.uniform(1.2, 1.8, n)
        where = ({} if m % 2 == 0 else
                 {"centers": sorted(set(rng.integers(0, n, 3).tolist())),
                  "radii": sorted(rng.uniform(0.15, 0.6, 2).tolist())})
        # the Besov family on one q per mode: its per-level norms are slow
        for family, q_kinds in (("M", list(qs)), ("N", [list(qs)[m % 3]])):
            for q_kind in q_kinds:
                args = (sp, s, p, qs[q_kind], target)
                rep = necessity_run(*args, mode=mode, family=family, **where)
                with monkeypatch.context() as patch:
                    patch.setattr(verify, "_cutoff_table", _reference_table)
                    patch.setattr(verify, "_scores", _reference_scores)
                    ref = necessity_run(*args, mode=mode, family=family, **where)
                label = (mode, family, q_kind)
                assert rep.verdict == ref.verdict, label
                for key in ("embedding_constant", "b_formula"):
                    assert rep.extras[key] == pytest.approx(ref.extras[key], rel=1e-12, abs=0), label
                runs += 1
    assert runs == 16


def test_one_sorted_table_per_check(monkeypatch):
    from varmms import space as space_module
    sp = grid2d(6)
    sorts = []
    shells = space_module._shells
    monkeypatch.setattr(space_module, "_shells",
                        lambda space, centers=None: sorts.append(centers) or shells(space, centers))
    n = sp.n
    s, p = np.full(n, 0.5), np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    # perfectness, the cut-off centers' halving radii and the growth scan
    rep = necessity_run(sp, s, p, np.inf, gamma, mode="sobolev_local")
    assert rep.verdict == "pass" and rep.extras["lambda"] is not None
    assert sorts == [None]
    # lower regularity, the doubling scan and the delta-ball masses
    sorts.clear()
    rep = check_global(sp, log_bump(sp, 14, 0.3), 1.0, 1.0, 2.0, theorem="doubling_sob")
    assert rep.extras["doubling_estimate"] > 1 and sorts == [None]
    # the table lives as long as its check
    assert not space_module._SHARED
    sorts.clear()
    necessity_run(sp, s, p, np.inf, gamma, mode="sobolev_local")
    assert sorts == [None]

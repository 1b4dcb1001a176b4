import numpy as np
import pytest
from scipy.optimize import minimize

from varmms import (MetricMeasureSpace, active_levels, gradient_zero_implies_constant,
                    geometric_iteration_check, level_of, lipschitz_cutoff_gradient,
                    luxemburg, minimal_scalar_gradient, minimal_vector_gradient,
                    norm_convention_equivalence, oracle_scalar_gradient)
from varmms.generators import annular_cutoff, grid2d, line_space
from varmms.gradients import GradientConstraintSystem, _level_weight


def two_points(d=1.0, w=(1.0, 1.0)):
    return MetricMeasureSpace.from_points([[0.0], [d]], list(w))


def test_level_of_examples():
    np.testing.assert_array_equal(level_of([0.6, 0.3]), [0, 1])
    assert level_of([0.5])[0] == 0
    assert level_of([1.0])[0] == -1
    with pytest.raises(ValueError):
        level_of([0.0])


def test_active_levels_cover_pairs():
    sp = MetricMeasureSpace.from_points([[0.0], [0.3], [0.9]], [1, 1, 1])
    k_min, k_max = active_levels(sp)
    levels = level_of(sp.dist[np.triu_indices(3, 1)])
    assert k_min <= levels.min() and levels.max() <= k_max


def test_scalar_constant_function_zero():
    sp = line_space(3)
    sol = minimal_scalar_gradient(sp, np.full(3, 7.0), 1.0, 1.0)
    assert sol.objective.value == 0.0
    assert sol.certificate == 0.0


def test_scalar_two_point_hand_lp():
    sol = minimal_scalar_gradient(two_points(), [0.0, 1.0], 1.0, 1.0)
    assert sol.objective.value == pytest.approx(1.0, abs=1e-8)


def test_scalar_three_point_oracle_reference():
    sp = line_space(3)
    u = [0.0, 1.0, 2.0]
    sol = minimal_scalar_gradient(sp, u, 1.0, 1.0)
    orc = oracle_scalar_gradient(sp, u, 1.0, 1.0)
    # hand LP: g = (1/2, 1/2, 1/2) is optimal with value 3/2
    assert orc == pytest.approx(1.5, abs=2e-3)
    assert sol.objective.value == pytest.approx(1.5, abs=1e-6)


def test_solution_feasibility_always_certified():
    rng = np.random.default_rng(0)
    for seed in range(5):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 7))
        sp = MetricMeasureSpace.from_points(r.uniform(0, 2, (n, 2)), r.uniform(0.2, 1, n))
        u = r.standard_normal(n)
        s = r.uniform(0.3, 0.9, n)
        p = r.uniform(1.0, 2.5, n)
        sol = minimal_scalar_gradient(sp, u, s, p)
        system = GradientConstraintSystem.scalar(sp, u, s)
        assert system.violation(np.asarray(sol.g)) <= 1e-9 * max(1.0, system.target.max())


def test_vector_constant_function_zero():
    sp = line_space(3)
    for scale in ("lq_lp", "lp_lq"):
        sol = minimal_vector_gradient(sp, np.full(3, 1.0), 0.5, 1.5, 2.0, scale=scale)
        assert sol.objective.value == 0.0


def test_vector_two_point_single_level():
    sp = two_points()
    for scale in ("lq_lp", "lp_lq"):
        sol = minimal_vector_gradient(sp, [0.0, 1.0], 1.0, 1.0, 1.0, scale=scale)
        assert sol.objective.value == pytest.approx(1.0, abs=1e-6)


def test_tl_infinite_q_matches_scalar():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 0.9, (5, 2))
    sp = MetricMeasureSpace.from_points(pts, rng.uniform(0.3, 1.0, 5))
    u = rng.standard_normal(5)
    s = rng.uniform(0.4, 0.8, 5)
    p = rng.uniform(1.1, 2.0, 5)
    m = minimal_scalar_gradient(sp, u, s, p).objective.value
    tl = minimal_vector_gradient(sp, u, s, p, np.inf, scale="lp_lq").objective.value
    assert tl == pytest.approx(m, rel=1e-6, abs=1e-9)


def test_norm_convention_equivalence_cases():
    sp = two_points()
    rep0 = norm_convention_equivalence(sp, [1.0, 1.0], 0.5, 1.0, 1.0)
    assert rep0["direct"] == 0.0 and rep0["ok"]

    # hand reparametrization: s = 1/2, d = 1 (level -1), p = q = 1:
    # distance coefficients are 1, dyadic coefficients 2**((k+1)s) = 1... for
    # level -1 the dyadic weight is 2**(-(-1)*0.5) = sqrt(2), so the
    # alternative optimum is 1/sqrt(2) and the ratio is exactly sqrt(2).
    rep = norm_convention_equivalence(sp, [0.0, 1.0], 0.5, 1.0, 1.0)
    assert rep["direct"] == pytest.approx(1.0, abs=1e-6)
    assert rep["alternative"] == pytest.approx(2 ** -0.5, abs=1e-6)
    assert rep["ratio"] == pytest.approx(2 ** 0.5, rel=1e-5)
    assert rep["ok"], rep

    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1.6, (5, 2))
    sp5 = MetricMeasureSpace.from_points(pts, rng.uniform(0.3, 1.0, 5))
    u = rng.standard_normal(5)
    s = rng.uniform(0.3, 0.8, 5)
    rep5 = norm_convention_equivalence(sp5, u, s, 1.5, 2.0)
    assert rep5["ok"], rep5
    assert 1.0 - 1e-6 <= rep5["ratio"] <= rep5["factor"] + 1e-6


def test_gradient_zero_implies_constant_cases():
    sp = line_space(4)
    rep = gradient_zero_implies_constant(sp, np.full(4, 2.0), 1.0, 1.0)
    assert rep["zero_norm_detected"] and rep["ok"]
    rep2 = gradient_zero_implies_constant(sp, np.array([0.0, 1.0, 0.0, 1.0]), 1.0, 1.0)
    assert not rep2["zero_norm_detected"]
    assert rep2["ok"]  # quantitative oscillation bound still holds
    rng = np.random.default_rng(1)
    u = 3.0 + 1e-12 * rng.standard_normal(4)
    rep3 = gradient_zero_implies_constant(sp, u, 1.0, 1.0)
    assert rep3["zero_norm_detected"] and rep3["ok"]


def test_lipschitz_hand_values():
    sp = MetricMeasureSpace.from_points([[0.0], [0.3], [0.9]], [1, 1, 1])
    seq, rep = lipschitz_cutoff_gradient(sp, [0, 1], 1.0, 0.5, 2.0, 2.0)
    assert rep["k_L"] == 1
    assert seq.level(1)[0] == pytest.approx(2 ** -0.5)
    assert seq.level(0)[0] == pytest.approx(2 ** 1.5)
    assert seq.level(1)[2] == 0.0  # off the support
    assert rep["ok"], rep


def test_lipschitz_empty_support():
    sp = line_space(3)
    seq, rep = lipschitz_cutoff_gradient(sp, [], 2.0, 0.5, 1.0, 2.0)
    assert rep["tl_norm"] == 0.0 and rep["besov_norm"] == 0.0 and rep["ok"]


def test_lipschitz_infinite_q_branch():
    sp = grid2d(5)
    u, support, L = annular_cutoff(sp, 12, 0.4, 1)
    s = np.full(sp.n, 1.0)  # s = 1 is admissible only for q = inf
    seq, rep = lipschitz_cutoff_gradient(sp, support, L, s, 1.5, np.inf, u=u)
    assert rep["certificate"] <= 1e-9
    # sup_k per-level norm bounded by 5 max{L**s+, L**s-} ||chi||
    assert rep["besov_norm"] <= 5.0 * rep["l_factor"] * rep["chi_norm"] * (1 + 1e-9)
    assert rep["ok"], rep


def test_lipschitz_rejects_s_one_with_finite_q():
    sp = line_space(3)
    with pytest.raises(ValueError):
        lipschitz_cutoff_gradient(sp, [0], 1.0, 1.0, 2.0, 2.0)


def test_lipschitz_feasibility_certificate_annular():
    sp = grid2d(6)
    u, support, L = annular_cutoff(sp, 14, 0.4, 2)
    seq, rep = lipschitz_cutoff_gradient(sp, support, L, 0.6, 1.5, 2.5, u=u)
    assert rep["certificate"] <= 1e-9
    assert rep["ok"], rep


def test_geometric_iteration_cases():
    rep = geometric_iteration_check(np.ones(6), 1.0, 2.0, 1.0, 1.0)
    assert rep["applicable"] and rep["ok"]
    assert rep["margin"] == pytest.approx(0.0, abs=1e-12)
    rep2 = geometric_iteration_check(np.ones(6), 1.0, 2.0, 1.0, 1.5)
    assert rep2["margin"] > 0 and rep2["ok"]
    # hypothesis violation flagged: decreasing chain bound broken
    bad = np.array([1.0, 400.0])
    rep3 = geometric_iteration_check(bad, 1.0, 2.0, 1.0, 1.0)
    assert not rep3["hypotheses"]["chain"]
    assert not rep3["applicable"]
    rep4 = geometric_iteration_check(np.ones(3), 2.0, 1.0, 1.0, 1.0)
    assert not rep4["hypotheses"]["exponents"] and not rep4["ok"]


def test_smoothness_lowering_embedding_constant():
    # lowering the smoothness exponent from t to s embeds the level-sum
    # scale with the explicit geometric-series constant built from
    # min s, min (t - s), and the target constant level exponent
    from varmms import luxemburg as lux
    rng = np.random.default_rng(21)
    for seed in range(3):
        r = np.random.default_rng(30 + seed)
        n = 5
        sp = MetricMeasureSpace.from_points(r.uniform(0, 0.9, (n, 2)),
                                            r.uniform(0.3, 1.0, n))
        u = r.standard_normal(n)
        p = r.uniform(1.1, 2.0, n)
        s = r.uniform(0.25, 0.45, n)
        t = s + r.uniform(0.2, 0.4, n)
        qbar = 2.0
        hom_s = minimal_vector_gradient(sp, u, s, p, qbar, scale="lq_lp").objective.value
        hom_t_inf = minimal_vector_gradient(sp, u, t, p, np.inf, scale="lq_lp").objective.value
        norm_u = lux(u, p, sp.weight).value
        a = 1.0 / (1.0 - 2.0 ** (-float(s.min()) * qbar))
        b = 1.0 / (1.0 - 2.0 ** (-float((t - s).min()) * qbar))
        bound = (a * norm_u ** qbar + b * hom_t_inf ** qbar) ** (1.0 / qbar)
        assert hom_s <= bound * (1 + 1e-6), (hom_s, bound)


def test_scalar_norm_homogeneity_in_u():
    rng = np.random.default_rng(12)
    sp = MetricMeasureSpace.from_points(rng.uniform(0, 1.5, (4, 2)),
                                        rng.uniform(0.3, 1.0, 4))
    u = rng.standard_normal(4)
    s = rng.uniform(0.4, 0.9, 4)
    p = rng.uniform(1.0, 2.0, 4)
    base = minimal_scalar_gradient(sp, u, s, p).objective.value
    scaled = minimal_scalar_gradient(sp, 3.0 * u, s, p).objective.value
    assert scaled == pytest.approx(3.0 * base, rel=2e-4)


@pytest.mark.parametrize("p", [2.0, 1.05])
def test_scalar_gradient_matches_full_row_slsqp(p):
    # the working-set solver against SLSQP over every pair row at once
    rng = np.random.default_rng(3)
    sp = grid2d(7)
    u = rng.standard_normal(sp.n)
    sol = minimal_scalar_gradient(sp, u, 0.7, p)
    system = GradientConstraintSystem.scalar(sp, u, 0.7)
    n, m, w, T = system.n, system.m, sp.weight, system.target
    M = np.zeros((m, n))
    M[np.arange(m), system.I] += system.coef_i
    M[np.arange(m), system.J] += system.coef_j
    g0 = np.zeros(n)
    np.maximum.at(g0, system.I, T / system.coef_i)
    scale = float(np.sum(w * g0 ** p))
    res = minimize(lambda g: float(np.sum(w * np.abs(g) ** p)) / scale, g0,
                   jac=lambda g: w * p * np.maximum(g, 1e-300) ** (p - 1.0) / scale,
                   method="SLSQP", bounds=[(0.0, None)] * n,
                   constraints=[{"type": "ineq", "fun": lambda g: M @ g - T,
                                 "jac": lambda g: M}],
                   options={"maxiter": 1000, "ftol": 1e-15})
    assert res.success, res.message
    reference = (scale * res.fun) ** (1.0 / p)
    assert sol.objective.value == pytest.approx(reference, rel=1e-9)
    assert sol.certificate <= 1e-9 * T.max()


def test_heuristic_flag_for_subunit_exponent():
    sp = two_points()
    sol = minimal_scalar_gradient(sp, [0.0, 1.0], 1.0, 0.5)
    assert sol.heuristic
    # the subgradient fallback still returns the obvious optimum here:
    # minimize ||g||_{1/2} with g1 + g2 >= 1; concentrating mass is best
    assert sol.objective.value <= 1.0 + 1e-6


@pytest.mark.parametrize("with_inf", [False, True])
def test_level_weight_gradient_matches_finite_differences(with_inf):
    rng = np.random.default_rng(17)
    n = 6
    g = rng.uniform(0.2, 1.0, n)
    w = rng.uniform(0.05, 0.3, n)
    p = rng.uniform(1.1, 2.5, n)
    q = rng.uniform(1.0, 3.0, n)
    if with_inf:
        q[0] = np.inf
    lam = 0.7
    nu, grad = _level_weight(g, w, p, q, lam)
    assert 0.0 < nu < np.inf
    for i in range(n):
        h = 1e-5 * g[i]
        step = np.zeros(n)
        step[i] = h
        fd = (_level_weight(g + step, w, p, q, lam)[0]
              - _level_weight(g - step, w, p, q, lam)[0]) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5)

import math
import os
import pathlib
import select
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize
from scipy.sparse import csr_matrix

from varmms import (MetricMeasureSpace, active_levels, gradient_zero_implies_constant,
                    geometric_iteration_check, level_of, lipschitz_cutoff_gradient,
                    luxemburg, minimal_scalar_gradient, minimal_vector_gradient,
                    norm_convention_equivalence, oracle_scalar_gradient, sobolev_conjugate)
from varmms import space as space_module
from varmms import verify as verify_module
from varmms.generators import (annular_cutoff, cantor_space, grid1d, grid2d, line_space,
                               log_bump, two_zone_glued)
from varmms.gradients import (_CERT_TOL, _QP_NOISE, _QP_RIDGE, _QP_TOL, _ROWS_PER_POINT,
                              GradientConstraintSystem, _besov_bisection, _cutoff_sequence,
                              _dual_qp, _feasible_point, _highs, _level_sum,
                              _level_sum_hessian, _level_weight, _point_table, _qp_rows,
                              _sequence_violation, _tl_modular, _top_rows_per_point)
from varmms.norms import SequenceSample, mixed_norm_lp_lq, mixed_norm_lq_lp


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
    # the level values, one level at a time as the docstring states them
    chi, sv = np.isin(np.arange(sp.n), support).astype(float), np.full(sp.n, 0.6)
    for r, k in enumerate(range(seq.k_min, seq.k_max + 1)):
        level = L * 2.0 ** (k * (sv - 1.0)) if k >= rep["k_L"] else 2.0 ** ((k + 1) * sv + 1.0)
        assert np.array_equal(seq.values[r], level * chi), k


def _cutoff_sequence_reference(space, support, L, sv, qv, u, tail_rel=1e-9):
    """``_cutoff_sequence`` as it was before the pair table: the level
    values on every column times the support's indicator, and the violation
    of u's whole vector system, one level at a time."""
    k_L = math.frexp(L)[1]
    n = space.n
    s_plus = float(sv.max())
    if np.isfinite(qv.min()) or s_plus < 1.0:
        up = k_L + max(8, math.ceil(-math.log2(tail_rel) / max(1.0 - s_plus, 1e-3)))
    else:
        up = k_L + 8
    down = k_L - 1 - max(8, math.ceil(-math.log2(tail_rel) / max(float(sv.min()), 1e-3)))
    if n >= 2:
        off = space.dist[~np.eye(n, dtype=bool)]
        down = min(down, math.floor(-math.log2(float(space.dist.max()))) - 1)
        up = max(up, math.ceil(-math.log2(float(off.min()))))
    ks = np.arange(down, up + 1)[:, None]
    chi = np.zeros(n)
    chi[support] = 1.0
    with np.errstate(over="ignore"):
        vals = np.where(ks >= k_L, L * 2.0 ** (ks * (sv - 1.0)), 2.0 ** ((ks + 1) * sv + 1.0)) * chi
    seq = SequenceSample(down, vals)
    cert = 0.0
    if u is not None and n >= 2:
        system = GradientConstraintSystem.vector(space, u, sv)
        cert = _per_level_violation(system, seq)
        assert _sequence_violation(system, seq) == cert
    return seq, k_L, cert


def _per_level_violation(system, seq):
    """The largest violation of a vector system by a sequence, one level's
    rows at a time (``_sequence_violation`` in one gather)."""
    return max((system.violation(seq.level(int(k)), system.rows_for_level(int(k)))
                for k in np.unique(system.level)), default=0.0)


def test_sequence_violation_reads_zero_outside_the_sample():
    sp = grid1d(9)
    system = GradientConstraintSystem.vector(sp, np.arange(9.0) ** 2 / 64.0, 0.5)
    lo, hi = int(system.level.min()), int(system.level.max())
    rng = np.random.default_rng(3)
    # samples inside, across either end of and outside the system's levels
    for k_min, rows in [(lo, hi - lo + 1), (lo + 1, 2), (lo - 2, 4), (hi + 1, 2), (lo - 5, 3)]:
        seq = SequenceSample(k_min, rng.uniform(0.0, 0.5, (rows, sp.n)))
        cert = _sequence_violation(system, seq)
        assert cert == _per_level_violation(system, seq) and cert > 0


def _random_metric(n, seed):
    """Shortest-path closure of random positive edge lengths: a metric."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.05, 1.5, (n, n))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return MetricMeasureSpace.from_matrix(d, rng.uniform(0.5, 2.0, n))


_PAIR_SPACES = {
    "grid2d": lambda k, seed: grid2d(k + 1),
    "grid1d": lambda k, seed: grid1d(2 * k + 1),
    "cantor": lambda k, seed: cantor_space(k),
    "two_zone_glued": lambda k, seed: two_zone_glued(k + 1, k),
    "random": lambda k, seed: _random_metric(2 * k, seed),
}


@given(st.sampled_from(sorted(_PAIR_SPACES)), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["constant", "variable", "one"]), st.booleans(),
       st.sampled_from(["random", "empty", "full"]), st.floats(1e-3, 1e3),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_cutoff_sequence_matches_full_vector_system(kind, k, seed, s_kind, q_finite,
                                                   support_kind, L, with_u):
    sp = _PAIR_SPACES[kind](k, seed)
    n = sp.n
    rng = np.random.default_rng(seed)
    if s_kind == "one":  # s = 1 somewhere is admissible only for q identically infinite
        sv, q_finite = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.05, 1.0, n)), False
    elif s_kind == "constant":
        sv = np.full(n, rng.uniform(0.05, 0.95))
    else:
        sv = rng.uniform(0.05, 0.95, n)
    qv = rng.uniform(1.0, 4.0, n) if q_finite else np.full(n, np.inf)
    if support_kind == "random":  # duplicates included
        support = rng.integers(0, n, rng.integers(1, 2 * n + 1))
    else:
        support = np.arange(n) if support_kind == "full" else np.zeros(0, dtype=int)
    # a few distinct values on the support, 0 off it: ties give t = 0, and
    # every violated pair has a support point, so the certificate reads the
    # level values of the pairs' own levels
    u = rng.integers(0, 4, n) / 3.0 * np.isin(np.arange(n), support) if with_u else None
    seq, k_L, cert = _cutoff_sequence(sp, support, L, sv, qv, u)
    ref, ref_k_L, ref_cert = _cutoff_sequence_reference(sp, support, L, sv, qv, u)
    assert seq.k_min == ref.k_min and np.array_equal(seq.values, ref.values)
    assert k_L == ref_k_L and cert == ref_cert
    # the pair table and what is cached from it, against the matrix itself
    off = sp.dist[~np.eye(n, dtype=bool)]
    assert sp.min_positive_distance() == float(off.min())
    assert sp.diameter == float(sp.dist.max())
    assert active_levels(sp) == (math.floor(-math.log2(float(sp.dist.max()))) - 1,
                                 math.ceil(-math.log2(float(off.min()))))
    iu = np.triu_indices(n, k=1)
    assert np.array_equal(sp.pairs.I, iu[0]) and np.array_equal(sp.pairs.J, iu[1])
    assert np.array_equal(sp.pairs.dist, sp.dist[iu])
    assert np.array_equal(sp.pairs.level, level_of(sp.dist[iu]))


def test_pair_table_built_once_per_space_in_necessity_run(monkeypatch):
    from varmms import necessity_run
    sp = grid2d(6)
    builds, certified, kept = [], [], []
    table = space_module.PairTable
    monkeypatch.setattr(space_module, "PairTable",
                        lambda **kw: builds.append(1) or table(**kw))
    certify, cutoffs = verify_module._cutoff_certificates, verify_module._cutoff_table
    monkeypatch.setattr(verify_module, "_cutoff_certificates",
                        lambda *a: certified.append(len(a[2])) or certify(*a))
    monkeypatch.setattr(verify_module, "_cutoff_table",
                        lambda *a: kept.append(cutoffs(*a)) or kept[-1])
    monkeypatch.setattr(GradientConstraintSystem, "vector",
                        classmethod(lambda cls, *a, **kw: pytest.fail("vector system built")))
    n = sp.n
    s, p = np.full(n, 0.5), np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    for mode in ("sobolev_global", "sobolev_local"):
        rep = necessity_run(sp, s, p, np.inf, gamma, mode=mode)
        assert rep.verdict == "pass"
    # one certificate gather per run, over every kept candidate
    assert certified == [len(cut.L) for cut in kept] and min(certified) > 1
    assert len(builds) == 1 and sp.pairs is sp.pairs and len(builds) == 1


def test_qp_solver_writes_nothing_to_stdout(capfd):
    sp = grid2d(8)
    u = np.log1p(np.maximum(0.3 - sp.dist[7], 0.0) / 0.3)
    sol = minimal_scalar_gradient(sp, u, 0.5682497658774521, 2.0413463650465253)
    assert sol.info["path"] == "qp" and sol.certificate <= _CERT_TOL
    out, _ = capfd.readouterr()
    assert out == ""


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


@pytest.mark.parametrize("p, weighted", [pytest.param(2.0, False, id="2.0"),
                                         pytest.param(1.05, False, id="1.05"),
                                         pytest.param(1.5, False, id="1.5"),
                                         pytest.param(2.0, True, id="2.0-weighted")])
def test_scalar_gradient_matches_full_row_slsqp(p, weighted):
    # the working-set solver against SLSQP over every pair row at once
    rng = np.random.default_rng(3)
    sp = grid2d(7)
    u = rng.standard_normal(sp.n)
    if weighted:
        sp = MetricMeasureSpace.from_points(sp.coords, rng.uniform(0.5, 1.5, sp.n))
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


@pytest.mark.parametrize("instance", ["grid12", "random", "grid20"])
def test_lp_working_set_matches_full_row_highs(instance):
    # p == 1: the working-set LP against one HiGHS solve over every pair row,
    # at the solver's primal tolerance: at HiGHS's default 1e-7 the grid20
    # oracle returned a point 6.5e-8 infeasible and 9.9e-10 below the optimum
    rng = np.random.default_rng(5)
    if instance == "grid12":
        sp, s = grid2d(12), 0.5
        u = log_bump(sp, 78, 0.3)
    elif instance == "grid20":
        sp, s = grid2d(20), 0.45
        u = log_bump(sp, 3, 0.3)
    else:
        n = 60
        sp = MetricMeasureSpace.from_points(rng.uniform(0, 1.5, (n, 2)), rng.uniform(0.2, 1.0, n))
        u, s = rng.standard_normal(n), rng.uniform(0.3, 0.9, n)
    sol = minimal_scalar_gradient(sp, u, s, 1.0)
    system = GradientConstraintSystem.scalar(sp, u, s)
    m = system.m
    M = csr_matrix((-np.concatenate([system.coef_i, system.coef_j]),
                    (np.tile(np.arange(m), 2), np.concatenate([system.I, system.J]))),
                   shape=(m, system.n))
    res = linprog(sp.weight, A_ub=M, b_ub=-system.target, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    assert sol.info["path"] == "lp" and sol.info["rounds"] > 1
    assert sol.info["rows"] < m
    assert sol.objective.value == pytest.approx(res.fun, rel=1e-12)
    lower, upper = sol.info["bracket"]
    assert lower <= upper
    assert upper - lower <= 1e-9 * upper
    assert lower <= sol.objective.value


@pytest.mark.parametrize("nx, center, s", [(16, 3, 0.55), (20, 188, 0.5151)])
def test_lp_restarts_keep_the_bracket_tight(nx, center, s):
    # at HiGHS's default primal tolerance (1e-7) the last basis of these
    # instances stops short on a row, and the repair's uniform scale-up
    # opens the bracket to 2.4e-7 and 1.4e-7 relative
    sp = grid2d(nx)
    sol = minimal_scalar_gradient(sp, log_bump(sp, center, 0.3), s, 1.0)
    lower, upper = sol.info["bracket"]
    assert sol.info["path"] == "lp"
    assert lower <= upper <= lower * (1.0 + 1e-12)


def _full_row_lp(sp, u, s):
    # one HiGHS solve of the p == 1 LP over every pair row, at the primal
    # tolerance 1e-10
    system = GradientConstraintSystem.scalar(sp, u, s)
    m = system.m
    M = csr_matrix((-np.concatenate([system.coef_i, system.coef_j]),
                    (np.tile(np.arange(m), 2), np.concatenate([system.I, system.J]))),
                   shape=(m, system.n))
    res = linprog(sp.weight, A_ub=M, b_ub=-system.target, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun


@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_lp_dual_model_matches_full_row_lp_on_clouds(seed, n):
    # the working-set LP's dual model against the full-row LP on random
    # clouds; a variable s makes the two coefficients of a row differ
    rng = np.random.default_rng(seed)
    sp = MetricMeasureSpace.from_points(rng.uniform(0, 1.5, (n, 2)), rng.uniform(0.2, 1.0, n))
    u, s = rng.standard_normal(n), rng.uniform(0.3, 0.9, n)
    sol = minimal_scalar_gradient(sp, u, s, 1.0)
    assert sol.info["path"] == "lp"
    assert sol.objective.value == pytest.approx(_full_row_lp(sp, u, s), rel=1e-12)
    lower, upper = sol.info["bracket"]
    assert abs(upper - lower) <= 1e-9 * upper
    assert sol.certificate == 0.0


def test_lp_takes_one_highs_run_per_round():
    # each working-set round is one restart of the grown model
    sp = grid2d(20)
    sol = minimal_scalar_gradient(sp, log_bump(sp, 210, 0.3), 0.5, 1.0)
    assert sol.info["path"] == "lp"
    assert sol.info["nit"] == sol.info["rounds"]
    assert sol.info["rounds"] <= 10


def _top_rows_by_lexsort(score, I, J):
    # reference selection: one stable sort over every (row, point) entry
    cand = np.flatnonzero(score > 0)
    rows = np.concatenate([cand, cand])
    pts = np.concatenate([I[cand], J[cand]])
    order = np.lexsort((-score[rows], pts))
    pts, rows = pts[order], rows[order]
    rank = np.arange(pts.size) - np.searchsorted(pts, pts)
    return np.unique(rows[rank < _ROWS_PER_POINT])


def _table_top_rows(score, I, J, n):
    # the pricing table's picks: the scores with the pads' zero appended
    table = _point_table(I, J, n)
    assert table.dtype == np.int32
    return _top_rows_per_point(np.append(score, 0.0), table)


def test_top_rows_per_point_matches_lexsort(monkeypatch):
    # integer scores in {-2, ..., 3} make ties common; the rows come in a
    # random order and miss some pairs, and points past the last row's have
    # no rows at all; the table goes in one block, a line per block, or
    # blocks of a few lines
    from varmms import gradients
    rng = np.random.default_rng(11)
    for block in (gradients._PRICE_BLOCK, 1, 40):
        monkeypatch.setattr(gradients, "_PRICE_BLOCK", block)
        for _ in range(200):
            n = int(rng.integers(1, 31))
            I, J = np.triu_indices(n, k=1)
            keep = rng.permutation(I.size)[:int(rng.integers(0, I.size + 1))]
            I, J = I[keep], J[keep]
            score = rng.integers(-2, 4, I.size).astype(float)
            np.testing.assert_array_equal(_table_top_rows(score, I, J, n + 2),
                                          _top_rows_by_lexsort(score, I, J))
    # four points, rows (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): point 2 meets the
    # tied rows 1 and 3 as j and row 5 as i, so it keeps rows 5 and 1; row 3
    # is no other point's pick, so a tie broken by row index would add it
    I, J = np.triu_indices(4, k=1)
    score = np.array([2.0, 1.0, 0.0, 1.0, 2.0, 1.0])
    assert _ROWS_PER_POINT == 2
    np.testing.assert_array_equal(_table_top_rows(score, I, J, 4), [0, 1, 4, 5])
    np.testing.assert_array_equal(_top_rows_by_lexsort(score, I, J), [0, 1, 4, 5])
    # a point with no rows (4) picks nothing, and no score <= 0 is picked
    I, J = np.array([0, 0, 1, 3]), np.array([1, 2, 3, 5])
    np.testing.assert_array_equal(_table_top_rows(np.array([-1.0, 0.0, -2.0, 0.0]), I, J, 6),
                                  np.zeros(0))
    np.testing.assert_array_equal(_table_top_rows(np.array([-1.0, 3.0, 0.0, 1.0]), I, J, 6),
                                  [1, 3])
    # the table itself: each point's rows as i, then as j, then pads (m = 4)
    np.testing.assert_array_equal(_point_table(I, J, 6),
                                  [[0, 1], [2, 0], [1, 4], [3, 2], [4, 4], [3, 4]])


def test_lp_highs_binding_and_repeatability():
    # every piece of scipy's private HiGHS binding that the p == 1 LP uses
    for name in ("setOptionValue", "addCols", "addRows", "run", "getModelStatus",
                 "modelStatusToString", "getSolution", "changeObjectiveSense"):
        assert callable(getattr(_highs._Highs, name)), name
    assert _highs.kHighsInf == np.inf
    assert hasattr(_highs.ObjSense, "kMaximize")
    assert hasattr(_highs.HighsModelStatus, "kOptimal")
    assert {"col_value", "row_dual"} <= set(dir(_highs.HighsSolution))
    # one instance solved twice gives bit-identical gradients and brackets
    sp = grid2d(8)
    u = log_bump(sp, 27, 0.3)
    first, second = (minimal_scalar_gradient(sp, u, 0.5, 1.0) for _ in range(2))
    assert first.info["path"] == "lp" and first.info["rounds"] > 1
    assert np.array_equal(first.g, second.g)
    assert first.info["bracket"] == second.info["bracket"]


def _random_step_qp(rng, kind):
    """A strictly convex QP shaped like a Newton step's: rows a x_i + b x_j
    >= t with two nonzeros and t spread over 1e-12 .. 1e3, costs of both
    signs, and a block-diagonal Hessian plus a ridge of ``_QP_RIDGE`` of its
    largest curvature: a diagonal with zero entries before it (``diag``), or
    TL-style L x L blocks, one per point, of rank one plus a diagonal with
    zero entries (``blocks``)."""
    if kind == "diag":
        L, points = 1, int(rng.integers(3, 41))
    else:
        L, points = int(rng.integers(2, 6)), int(rng.integers(2, 11))
    n = L * points
    idx = np.arange(L)[None, :] * points + np.arange(points)[:, None]
    v = rng.uniform(0.0, 1.0, (points, L))
    H = rng.uniform(0.0, 2.0, points)[:, None, None] * v[:, :, None] * v[:, None, :]
    k = np.arange(L)
    H[:, k, k] += 10.0 ** rng.uniform(-3, 3, (points, L)) * (rng.random((points, L)) < 0.6)
    H[:, k, k] += _QP_RIDGE * H[:, k, k].max()
    m = int(rng.integers(n // 2 + 1, 4 * n + 2))
    I = rng.integers(0, n, m)
    J = (I + rng.integers(1, n, m)) % n
    A, B = 10.0 ** rng.uniform(-3, 1, (2, m))
    T = 10.0 ** rng.uniform(-12, 3, m)
    c = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
    return idx, H, c, (I, J, A, B, T)


def _qp_objective(idx, H, c, x):
    hx = np.empty(x.size)
    hx[idx] = np.einsum("bij,bj->bi", H, x[idx])
    return 0.5 * float(x @ hx) + float(c @ x), hx


def _assert_kkt(idx, H, c, rows, x, y, tol=1e-9):
    # primal feasibility, dual feasibility and complementarity, each
    # relative to the magnitudes of the terms it compares; a row's entries
    # count at their Hessian block's largest magnitude, as H couples them
    I, J, A, B, T = rows
    n = c.size
    _, hx = _qp_objective(idx, H, c, x)
    mx = A * x[I] + B * x[J]
    size = np.empty(n)
    size[idx] = np.abs(x[idx]).max(axis=1, keepdims=True)
    row_scale = T + A * size[I] + B * size[J]
    assert y.min() >= 0.0
    assert np.max((T - mx) / row_scale) <= tol
    assert np.max(-x) <= tol * size.max()
    my = np.bincount(I, A * y, n) + np.bincount(J, B * y, n)
    nu = hx + c - my  # the bounds' multipliers
    scale = np.abs(hx) + np.abs(c) + my
    assert np.max(-nu / scale) <= tol
    assert np.max(np.abs(mx - T)[y > 0] / row_scale[y > 0], initial=0.0) <= tol
    assert np.max(np.abs(nu * x) / (scale * size.max())) <= tol


_HIGHS_QP = """
import sys
import numpy as np
from varmms.gradients import _highs
data = np.load(sys.argv[1])
for k in range(int(sys.argv[2]), int(data["count"])):
    idx, H, c, I, J, A, B, T = (data[f"{name}{k}"] for name in "idx H c I J A B T".split())
    n, m = c.size, T.size
    dense = np.zeros((n, n))
    dense[idx[:, :, None], idx[:, None, :]] = H
    col, row = np.nonzero(np.tril(dense).T)  # the lower triangle, column by column
    q = _highs._Highs()
    q.setOptionValue("output_flag", False)
    q.setOptionValue("primal_feasibility_tolerance", 1e-10)
    q.setOptionValue("qp_iteration_limit", 10 * (n + m))
    q.addCols(n, c, np.zeros(n), np.full(n, _highs.kHighsInf), 0, np.zeros(n, dtype=np.int32),
              np.zeros(0, dtype=np.int32), np.zeros(0))
    q.addRows(m, T, np.full(m, _highs.kHighsInf), 2 * m, np.arange(0, 2 * m, 2, dtype=np.int32),
              np.column_stack([I, J]).astype(np.int32).ravel(), np.column_stack([A, B]).ravel())
    start = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))]).astype(np.int32)
    q.passHessian(n, col.size, _highs.HessianFormat.kTriangular, start, row.astype(np.int32),
                  dense[row, col])
    q.run()
    x = np.asarray(q.getSolution().col_value)
    status = q.modelStatusToString(q.getModelStatus()).replace(" ", "_")
    print("qp", status, repr(float(0.5 * x @ dense @ x + c @ x)), flush=True)
"""


def _highs_qp_references(qps, tmp_path):
    """HiGHS's QP status and objective on each (idx, H, c, rows), from a
    child process: HiGHS 1.12's QP solver can run on past its iteration and
    time limits, or crash, so a QP without an answer within 5 s gets the
    status None and the child restarts after it."""
    path = tmp_path / "qps.npz"
    names = "idx H c I J A B T".split()
    np.savez(path, count=len(qps), **{f"{name}{k}": value for k, (idx, H, c, rows) in
                                      enumerate(qps) for name, value in
                                      zip(names, (idx, H, c, *rows))})
    out = []
    while len(out) < len(qps):
        proc = subprocess.Popen([sys.executable, "-c", _HIGHS_QP, str(path), str(len(out))],
                                stdout=subprocess.PIPE, env=_child_env())
        fd, buf = proc.stdout.fileno(), b""
        try:
            while len(out) < len(qps):
                while b"\n" not in buf and select.select([fd], [], [], 5.0)[0]:
                    chunk = os.read(fd, 4096)
                    if not chunk:
                        break
                    buf += chunk
                if b"\n" not in buf:
                    out.append((None, None))  # no answer: the next QP in a new child
                    break
                line, buf = buf.split(b"\n", 1)
                if line.startswith(b"qp "):  # HiGHS writes chatter to stdout too
                    _, status, value = line.split()
                    out.append((status.decode(), float(value)))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    return out


@pytest.mark.parametrize("kind", ["diag", "blocks"])
def test_dual_qp_is_a_kkt_point_no_worse_than_highs(kind, tmp_path):
    # seeded random step QPs, each solved once and then, perturbed as the
    # next Newton step's would be, cold, warm from the first's active set
    # and warm from that set less a random third
    rng = np.random.default_rng(11 if kind == "diag" else 12)
    cases = []
    for _ in range(40):
        idx, H, c, rows = _random_step_qp(rng, kind)
        n = c.size
        _, _, act = _dual_qp(idx, H, c, _qp_rows(*rows, n)[0], np.zeros(0, dtype=int))
        H = H * rng.uniform(0.5, 2.0, (H.shape[0], 1, 1))
        c = c + 0.1 * np.abs(c).max() * rng.standard_normal(n)
        cases.append((idx, H, c, rows, act, act[rng.random(act.size) < 2 / 3]))
    optimal = 0
    for (idx, H, c, rows, *starts), (status, reference) in zip(
            cases, _highs_qp_references([case[:4] for case in cases], tmp_path)):
        qp_rows, norm = _qp_rows(*rows, c.size)
        values = []
        for start in (np.zeros(0, dtype=int), *starts):
            x, mult, _ = _dual_qp(idx, H, c, qp_rows, start)
            _assert_kkt(idx, H, c, rows, x, mult[c.size:] / norm)
            values.append(_qp_objective(idx, H, c, x)[0])
        size = max(abs(v) for v in values)
        assert max(values) - min(values) <= 1e-9 * size
        if status == "Optimal":
            optimal += 1
            assert max(values) <= reference + 1e-9 * max(size, abs(reference))
    assert optimal >= 10  # HiGHS ends "Optimal" on 22 diagonal and 14 block QPs


def _assert_dual_qp_solution(idx, H, c, qp_rows, x, mult, act):
    # the inactive constraints feasible within _QP_TOL of their terms
    # (bounds: of the largest entry) plus _QP_NOISE of their terms at their
    # entries' block maxima (rounding), the active ones tight up to rounding at
    # the solution's size, u >= 0 and zero off the active set, x that of the
    # dense KKT system on the active set, and H x + c = N u (u is not unique
    # where rounding let a numerically dependent constraint join)
    ci, cj, ca, cb, lo = qp_rows
    n, k = c.size, act.size
    ax, bx = ca * x[ci], cb * x[cj]
    top = np.abs(x).max()
    scale = np.abs(ax) + np.abs(bx) + lo
    scale[:n] = top
    size = np.empty(n)
    size[idx] = np.abs(x[idx]).max(axis=1, keepdims=True)
    noise = _QP_NOISE * (ca * size[ci] + cb * size[cj])
    off = np.ones(lo.size, dtype=bool)
    off[act] = False
    assert np.all((lo - ax - bx)[off] <= (1.0 + 1e-6) * (_QP_TOL * scale + noise)[off])
    assert np.all(np.abs(ax + bx - lo)[act] <= 1e-12 * (scale[act] + top))
    assert mult.min() >= 0.0
    assert not mult[off].any()
    dense = np.zeros((n, n))
    dense[idx[:, :, None], idx[:, None, :]] = H
    N = np.zeros((n, k))
    N[ci[act], np.arange(k)] = ca[act]
    N[cj[act], np.arange(k)] += cb[act]
    kkt = np.block([[dense, -N], [N.T, np.zeros((k, k))]])
    sol = np.linalg.lstsq(kkt, np.concatenate([-c, lo[act]]), rcond=None)[0]
    np.testing.assert_allclose(x, sol[:n], rtol=0, atol=1e-8 * np.abs(sol[:n]).max())
    hx, nu = dense @ x, N @ mult[act]
    terms = (np.abs(hx) + np.abs(c) + np.abs(nu)).max()
    np.testing.assert_allclose(hx + c - nu, 0.0, rtol=0, atol=1e-10 * terms)


# the first block QP of these seeds reaches the iteration limit cold: its
# Hessian's condition number is about 1e6, so x is accurate to about 1e-10 of
# its largest entry, and constraints violated by that much join in turn, each
# step raising the dual objective by less than its rounding (4558: a settle
# drops the last one joined; 1780: a bound and a row take turns)
_CYCLING = pytest.mark.xfail(strict=True, raises=RuntimeError,
                             reason="QP joins at x's rounding level cycle")


@pytest.mark.parametrize("kind, seed", [("diag", 31), ("blocks", 32), ("blocks", 1003),
                                        ("blocks", 1009),
                                        pytest.param("blocks", 1780, marks=_CYCLING),
                                        pytest.param("blocks", 4558, marks=_CYCLING)])
def test_dual_qp_kkt_conditions_on_random_qps(kind, seed, monkeypatch):
    # random strictly convex step QPs with tied rows (exact copies, and copies
    # scaled by 2, which are equal once at unit norm) and a degenerate row,
    # tight at the solution, each solved cold, warm from its active set and
    # warm from a dependent start (an active constraint twice), which the
    # solve must drop for a cold start.  Seed 1003 lets rounding join a
    # dependent row in a cold solve; at seed 1009 two rows of a warm start
    # joined in turn until the iteration limit while violations at rounding
    # level counted
    from varmms import gradients
    inverses = []
    monkeypatch.setattr(gradients, "_tri_inv",
                        lambda L, inner=gradients._tri_inv: inverses.append(L) or inner(L))
    rng = np.random.default_rng(seed)
    for _ in range(40):
        idx, H, c, (I, J, A, B, T) = _random_step_qp(rng, kind)
        n = c.size
        x, _, _ = _dual_qp(idx, H, c, _qp_rows(I, J, A, B, T, n)[0], np.zeros(0, dtype=int))
        copy = rng.integers(0, T.size, 4)
        i, j = rng.choice(n, 2, replace=False)
        a, b = rng.uniform(0.5, 2.0, 2)
        t = a * max(x[i], 0.0) + b * max(x[j], 0.0)
        rows = (np.concatenate([I, I[copy], [i]]), np.concatenate([J, J[copy], [j]]),
                np.concatenate([A, A[copy] * [1, 1, 2, 2], [a]]),
                np.concatenate([B, B[copy] * [1, 1, 2, 2], [b]]),
                np.concatenate([T, T[copy] * [1, 1, 2, 2], [t]]))
        qp_rows = _qp_rows(*rows, n)[0]
        x, mult, act = _dual_qp(idx, H, c, qp_rows, np.zeros(0, dtype=int))
        _assert_dual_qp_solution(idx, H, c, qp_rows, x, mult, act)
        warm = _dual_qp(idx, H, c, qp_rows, act)
        _assert_dual_qp_solution(idx, H, c, qp_rows, *warm)
        np.testing.assert_allclose(warm[0], x, rtol=0, atol=1e-9 * np.abs(x).max())
        if act.size:
            calls = len(inverses)
            start = np.concatenate([act, act[:1]])
            _assert_dual_qp_solution(idx, H, c, qp_rows, *_dual_qp(idx, H, c, qp_rows, start))
            assert all(L.shape[0] < start.size for L in inverses[calls:])  # not factored


def _child_env(**env):
    """The environment of a fresh interpreter on this checkout's src."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def _run_child(code, **env):
    """stdout of a fresh interpreter running ``code`` on this checkout's src."""
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_child_env(**env)).stdout


def test_highs_binding_is_loaded_by_file_and_shared_with_scipy():
    # varmms loads scipy's HiGHS binding from its file without importing
    # scipy.optimize; a later import of scipy.optimize reuses that module
    out = _run_child(
        "import sys\n"
        "import varmms\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "assert _core is varmms.gradients._highs\n"
        "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],\n"
        "                             bounds=(0, None), method='highs')\n"
        "print(res.status, res.fun, *res.x)\n")
    assert out.split() == ["0", "1.0", "1.0", "0.0"]
    # no binding file matches: the plain import serves, on first use, and the LP solves
    out = _run_child(
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']\n"
        "import numpy as np\n"
        "import varmms\n"
        "from varmms.generators import line_space\n"
        "assert 'scipy' not in sys.modules\n"
        "assert varmms.gradients._highs is sys.modules['scipy.optimize._highspy._core']\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "sol = varmms.minimal_scalar_gradient(line_space(4), np.arange(4.0), 0.5, 1.0)\n"
        "print(sol.info['path'], sol.info['certified'])\n")
    assert out.split() == ["lp", "True"]


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(1.0, 6.0, exclude_min=True))
@settings(max_examples=30, deadline=None)
def test_constant_p_bracket_closes_below_the_oracle(seed, n, p):
    # every constant p > 1 is one HiGHS model: its bracket on the modular
    # closes, and its dual bound stays below the lattice oracle's norm (a
    # feasible point's, so at least the minimum at any lattice step)
    _, sp, u = _cloud(seed, n)
    sol = minimal_scalar_gradient(sp, u, 0.5, p)
    lower, upper = sol.info["bracket"]
    assert sol.info["path"] == "qp"
    # at the optimum both ends agree up to their rounding, which put lower
    # 2.1e-15 above upper on one of 6,000 random clouds
    assert lower <= upper * (1.0 + 1e-13)
    assert upper - lower <= 1e-9 * upper
    assert sol.objective.value == pytest.approx(upper ** (1.0 / p), rel=1e-9)
    # the oracle's points meet the rows to 1e-12, so it may read that far low
    oracle = oracle_scalar_gradient(sp, u, 0.5, p, step=2e-2, coarse_step=0.1)
    assert lower ** (1.0 / p) <= oracle * (1.0 + 1e-9)


@pytest.mark.parametrize("p", [1.02, 1.2])
def test_near_one_bracket_closes_on_grid20(p):
    # near p = 1 the modular's curvature is unbounded at 0, where the Newton
    # steps floor g; the bracket still closes on a 400-point grid
    sp = grid2d(20)
    u = np.random.default_rng(3).standard_normal(sp.n)
    sol = minimal_scalar_gradient(sp, u, 0.7, p)
    lower, upper = sol.info["bracket"]
    assert sol.info["path"] == "qp" and sol.info["rounds"] > 1
    assert lower <= upper and upper - lower <= 1e-9 * upper
    assert sol.certificate == 0.0


def test_constant_p_is_independent_of_blas_threads():
    # four solves in two interpreters, under one and two OpenBLAS threads,
    # give the same values and gradients bit for bit: constant p, and the
    # gauges of variable p, TL and variable-q Besov on a ball of grid2d(12)
    # (the ``local_gradients`` benchmark's spaces)
    code = ("import hashlib\n"
            "import numpy as np\n"
            "from varmms import ball, minimal_scalar_gradient, minimal_vector_gradient\n"
            "from varmms.generators import grid2d, log_bump\n"
            "sp = grid2d(10)\n"
            "sols = [minimal_scalar_gradient(sp, log_bump(sp, 55, 0.3), 0.5, 2.0)]\n"
            "sp = grid2d(12)\n"
            "u, sub = log_bump(sp, 66, 0.3), ball(sp, 66, 0.2).members\n"
            "p, q = 1.4 + 0.2 * sp.coords[:, 0], 1.2 + 0.2 * sp.coords[:, 0]\n"
            "sols.append(minimal_scalar_gradient(sp, u, 0.5, p, subset=sub))\n"
            "for scale in ('lp_lq', 'lq_lp'):\n"
            "    sols.append(minimal_vector_gradient(sp, u, 0.5, p, q, scale=scale, subset=sub))\n"
            "for sol in sols:\n"
            "    g = getattr(sol.g, 'values', sol.g)\n"
            "    print(sol.objective.value.hex(), sol.info['path'],\n"
            "          hashlib.sha256(np.ascontiguousarray(g).tobytes()).hexdigest())\n")
    out = [_run_child(code, OPENBLAS_NUM_THREADS=k) for k in ("1", "2")]
    assert [line.split()[1] for line in out[0].splitlines()] == ["qp"] + ["qp_gauge"] * 3
    assert out[0] == out[1]


class _FailingHighs(_highs._Highs):
    """A HiGHS model whose every run reports "Solve error"."""

    def getModelStatus(self):
        return _highs.HighsModelStatus.kSolveError


def test_failed_highs_runs_are_reported(monkeypatch):
    # HiGHS serves only the p == 1 LP: a failed run raises there, and a
    # p > 1 solve, whose Newton steps are QPs of _dual_qp, still certifies
    monkeypatch.setattr(_highs, "_Highs", _FailingHighs)
    sp = grid2d(5)
    u = log_bump(sp, 12, 0.3)
    with pytest.raises(RuntimeError, match="LP solve failed: Solve error"):
        minimal_scalar_gradient(sp, u, 0.5, 1.0)
    sol = minimal_scalar_gradient(sp, u, 0.5, 2.0)
    lower, upper = sol.info["bracket"]
    assert sol.info["certified"] and not sol.heuristic and sol.certificate == 0.0
    assert upper - lower <= 1e-9 * upper


def test_grid12_qp_at_large_p_closes_its_bracket():
    # HiGHS's QP solver cycled without end on one Newton step of this grid
    # solve at p = 3.49, where the Hessian is floored at small entries
    sp = grid2d(12)
    sol = minimal_scalar_gradient(sp, log_bump(sp, 119, 0.3), 0.3250871690283073,
                                  3.48518904951099)
    lower, upper = sol.info["bracket"]
    assert sol.info["path"] == "qp" and sol.info["certified"]
    assert not sol.heuristic and upper - lower <= 1e-9 * upper


def test_grid10_qp_closes_on_the_slsqp_value():
    # the benchmark's seed-7 ``gs_dual_grid10``: 105 of the 146 HiGHS QP runs
    # this solve took failed; eight step QPs close it on the value the
    # removed SLSQP solver gave, 0.7703751409517477
    sp = grid2d(10)
    sol = minimal_scalar_gradient(sp, log_bump(sp, 44, 0.3), 0.4829, 2.0022)
    lower, upper = sol.info["bracket"]
    assert sol.info["path"] == "qp" and sol.info["nit"] == 8
    assert not sol.heuristic and upper - lower <= 1e-9 * upper
    assert sol.objective.value == pytest.approx(0.7703751409517477, rel=1e-9)


def test_tl_gauge_closes_on_the_slsqp_value():
    # HiGHS's QP solver failed the TL steps of this 11-point cloud in every
    # column order ("Solve error"); the bracket closes on the value the
    # removed SLSQP gauge solver gave, 7.651205335986466
    rng, sp, u = _cloud(18)
    p = rng.uniform(1.1, 2.5, sp.n)
    rng.uniform(1.0, 3.0, sp.n)
    sol = minimal_vector_gradient(sp, u, 0.5, p, rng.uniform(1.0, p), scale="lp_lq")
    lower, upper = sol.info["bracket"]
    assert sol.info["path"] == "qp_gauge" and sol.info["certified"]
    assert not sol.heuristic and upper - lower <= 1e-9 * upper
    assert sol.objective.value == pytest.approx(7.651205335986466, rel=1e-9)


def test_heuristic_flag_for_subunit_exponent():
    sp = two_points()
    sol = minimal_scalar_gradient(sp, [0.0, 1.0], 1.0, 0.5)
    assert sol.heuristic
    # majorize-minimize returns the obvious optimum here: minimize
    # ||g||_{1/2} with g1 + g2 >= 1; concentrating mass is best
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


def test_level_sum_gradient_matches_finite_differences():
    # the stacked level sum of the variable-q Besov gauge: one row per level,
    # a zero row contributing nothing
    rng = np.random.default_rng(23)
    L, n = 3, 5
    X = rng.uniform(0.2, 1.0, (L, n))
    X[1] = 0.0
    w = rng.uniform(0.05, 0.3, n)
    p = rng.uniform(1.1, 2.5, n)
    e = p / rng.uniform(1.0, 3.0, n)
    total, grad = _level_sum(X, p, e, w)
    assert 0.0 < total < np.inf
    assert not grad[1].any()
    for k, i in zip(*np.nonzero(X)):
        step = np.zeros_like(X)
        step[k, i] = 1e-5 * X[k, i]
        fd = (_level_sum(X + step, p, e, w)[0] - _level_sum(X - step, p, e, w)[0]) / (2.0 * step[k, i])
        assert grad[k, i] == pytest.approx(fd, rel=1e-5)


def _fd_hessian(grad, X, k, j):
    """Central difference of grad (a function of the (L, n) array X) in X[k, j]."""
    step = np.zeros_like(X)
    step[k, j] = 1e-5 * X[k, j]
    return (grad(X + step) - grad(X - step)) / (2.0 * step[k, j])


@pytest.mark.parametrize("q_above_p", [False, True])
def test_level_sum_hessian_matches_finite_differences(q_above_p):
    # the Besov level sum's Hessian, one n x n block per level, against
    # central differences of its gradient; a zero row gives a zero block and
    # a zero entry zero rows and columns
    rng = np.random.default_rng(29)
    L, n = 3, 5
    X = rng.uniform(0.2, 1.0, (L, n))
    X[1] = 0.0
    X[2, 3] = 0.0
    w = rng.uniform(0.05, 0.3, n)
    p = rng.uniform(1.1, 2.5, n)
    q = rng.uniform(1.0, 3.0, n) if q_above_p else rng.uniform(1.0, p)
    if q_above_p:
        q[0] = p[0] + 0.5
    e = p / q
    H = _level_sum_hessian(X, p, e, w)
    assert np.isfinite(H).all()
    assert not H[1].any() and not H[2, 3].any() and not H[2, :, 3].any()

    def grad(Y):
        return _level_sum(Y, p, e, w)[1]

    for k, j in zip(*np.nonzero(X)):
        fd = _fd_hessian(grad, X, k, j)[k]
        np.testing.assert_allclose(H[k, :, j], fd, rtol=1e-5, atol=1e-9 * np.abs(fd).max())
    # positive semidefinite for q <= p, where the level sum is convex; the
    # clipped blocks always, and equal to the Hessian there
    scale = np.abs(H).max()
    clipped = _level_sum_hessian(X, p, e, w, psd=True)
    assert np.linalg.eigvalsh(clipped).min() >= -1e-12 * scale
    if not q_above_p:
        assert np.linalg.eigvalsh(H).min() >= -1e-12 * scale
        np.testing.assert_allclose(clipped, H, rtol=0, atol=1e-12 * scale)


def test_tl_hessian_matches_finite_differences():
    # the TL modular's Hessian, one L x L block per point, against central
    # differences of its gradient: q below, above and equal to p, q = 1, a
    # zero point (a zero block) and a zero entry (zero row and column);
    # every block is positive semidefinite
    rng = np.random.default_rng(31)
    L, n = 4, 6
    X = rng.uniform(0.2, 1.0, (L, n))
    X[:, 1] = 0.0
    X[2, 4] = 0.0
    w = rng.uniform(0.05, 0.3, n)
    p = rng.uniform(1.1, 2.5, n)
    q = np.array([1.0, 1.5, 3.0, p[3], 0.5 * (1.0 + p[4]), p[5] + 0.7])
    rho = _tl_modular(L, p, q, w)
    idx, H = rho.hess(X.ravel())
    assert np.isfinite(H).all()
    assert not H[1].any() and not H[4, 2].any() and not H[4, :, 2].any()

    def grad(Y):
        return rho.grad(Y.ravel()).reshape(L, n)

    for k, j in zip(*np.nonzero(X)):
        fd = _fd_hessian(grad, X, k, j)[:, j]
        np.testing.assert_allclose(H[j, :, k], fd, rtol=1e-5, atol=1e-9 * np.abs(fd).max())
    np.testing.assert_array_equal(idx, np.arange(L)[None, :] * n + np.arange(n)[:, None])
    assert np.linalg.eigvalsh(H).min() >= -1e-12 * np.abs(H).max()


def _besov_cases(q_above_p):
    """Six 1-D clouds with p ~ U(1.1, 2.5) and q ~ U(1, p), or U(1, 3) with
    q > p at the first point; with q > p also one 2-D cloud on which a
    single gauge solve stopped with SLSQP status 8 at 13.25 against the
    bisection's 11.92 (seen with one BLAS thread)."""
    for seed in range(6):
        rng, sp, u = _cloud(300 + seed, n=4 + seed % 4)
        p = rng.uniform(1.1, 2.5, sp.n)
        q = rng.uniform(1.0, 3.0, sp.n) if q_above_p else rng.uniform(1.0, p)
        if q_above_p:
            q[0] = p[0] + 0.5
        yield sp, u, p, q
    if q_above_p:
        rng = np.random.default_rng(106)
        n = int(rng.integers(6, 16))
        sp = MetricMeasureSpace.from_points(rng.uniform(0, 1, (n, 2)), rng.uniform(0.2, 1.5, n))
        yield sp, rng.standard_normal(n), rng.uniform(1.1, 2.5, n), rng.uniform(1.0, 3.0, n)


@pytest.mark.parametrize("q_above_p", [False, True])
def test_besov_gauge_matches_bisection(q_above_p):
    # variable finite q with min(p, q) >= 1: the one gauge solve on the
    # level-stacked rows against the norm-level bisection it replaced
    for sp, u, p, q in _besov_cases(q_above_p):
        sol = minimal_vector_gradient(sp, u, 0.5, p, q, scale="lq_lp")
        assert sol.info["path"] == "qp_gauge" and sol.heuristic == q_above_p
        system = GradientConstraintSystem.vector(sp, u, 0.5)
        seq = _besov_bisection(system, p, q, sp.weight, 1e-6, active_levels(sp))
        bisection = mixed_norm_lq_lp(seq, p, q, sp.weight, 1e-10).value
        assert sol.objective.value == pytest.approx(bisection, rel=1e-6), (sp.n, u)
        assert sol.objective.value <= bisection * (1.0 + 1e-9), (sp.n, u)
        assert sol.certificate <= _CERT_TOL


def _bisection_reference(system, pv, qv, w):
    """min over the rows of the mixed norm with inner exponent q (q = p is
    the plain Lebesgue norm of the level-stacked family), as a bisection at
    tol 1e-10 on the norm level around full-row SLSQP on the modular."""
    n = system.n
    if system.level is None:
        L, pos = 1, np.zeros(system.m, dtype=int)
    else:
        ks, pos = np.unique(system.level, return_inverse=True)
        L = ks.size
    m = system.m
    M = np.zeros((m, L * n))
    M[np.arange(m), system.I + pos * n] += system.coef_i
    M[np.arange(m), system.J + pos * n] += system.coef_j
    T = system.target
    x0 = np.zeros(L * n)
    np.maximum.at(x0, system.I + pos * n, T / system.coef_i)

    def modular(x, lam):
        S = np.sum(np.abs(x.reshape(L, n)) ** qv, axis=0)
        return float(np.sum(w * lam ** -pv * S ** (pv / qv)))

    def grad(x, lam):
        X = np.maximum(x.reshape(L, n), 1e-300)
        S = np.maximum(np.sum(X ** qv, axis=0), 1e-300)
        return (w * lam ** -pv * pv * S ** (pv / qv - 1.0) * X ** (qv - 1.0)).ravel()

    def admissible(lam):
        s0 = modular(x0, lam)
        res = minimize(lambda x: modular(x, lam) / s0, x0,
                       jac=lambda x: grad(x, lam) / s0, method="SLSQP",
                       bounds=[(0.0, None)] * x0.size,
                       constraints=[{"type": "ineq", "fun": lambda x: M @ x - T,
                                     "jac": lambda x: M}],
                       options={"maxiter": 1000, "ftol": 1e-15})
        x = np.maximum(res.x, 0.0)
        lhs = M @ x
        x *= max(1.0, float(np.max(T / lhs)))  # exact feasibility
        return modular(x, lam) <= 1.0

    hi = 1.0
    while not admissible(hi):
        hi *= 2.0
    lo = 0.5 * hi
    while admissible(lo):
        hi, lo = lo, 0.5 * lo
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        hi, lo = (mid, lo) if admissible(mid) else (hi, mid)
    return hi


@pytest.mark.parametrize("kind, amp", [("scalar", 0.1), ("scalar", 3.0), ("q=p", 0.1),
                                       ("tl", 0.1), ("tl", 3.0)])
def test_gauge_matches_bisection_reference(kind, amp):
    # one gauge solve against a bisection on the norm level; amplitudes on
    # both sides of norm one, where a missing 1/mu rescale would show
    rng = np.random.default_rng(21)
    n = 6 if kind == "scalar" else 5
    sp = MetricMeasureSpace.from_points(rng.uniform(0, 1.5, (n, 2)), rng.uniform(0.3, 1.0, n))
    u = amp * rng.standard_normal(n)
    s = rng.uniform(0.4, 0.9, n)
    p = rng.uniform(1.1, 2.0, n)
    if kind == "scalar":
        sol = minimal_scalar_gradient(sp, u, s, p)
        system, q = GradientConstraintSystem.scalar(sp, u, s), p
    else:
        q = p if kind == "q=p" else np.full(n, 1.3)
        sol = minimal_vector_gradient(sp, u, s, p, q, scale="lq_lp" if kind == "q=p" else "lp_lq")
        system = GradientConstraintSystem.vector(sp, u, s)
    assert sol.info["path"] == "qp_gauge"
    lower, upper = sol.info["bracket"]
    assert lower <= upper and upper - lower <= 1e-9 * upper and not sol.heuristic
    reference = _bisection_reference(system, p, q, sp.weight)
    value = sol.objective.value
    assert value == pytest.approx(reference, rel=1e-6)
    assert value <= reference * (1.0 + 1e-9)


THREE_POINTS = (MetricMeasureSpace.from_points([[0.0], [0.6], [1.5]], [1.0, 0.5, 0.8]),
                [0.0, 1.0, 0.3])


def _cloud(seed, n=None):
    """A random 1-D cloud: n points U(0, 2) (n from integers(3, 13) if not
    given), weights U(0.3, 1.5), u standard normal; returns the generator too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13)) if n is None else n
    sp = MetricMeasureSpace.from_points(rng.uniform(0, 2, (n, 1)), rng.uniform(0.3, 1.5, n))
    return rng, sp, rng.standard_normal(n)


def _nonconvex_scalar_case(seed):
    rng, sp, u = _cloud(seed)
    p = rng.uniform(0.5, 1.8, sp.n)
    p[0] = 0.7
    return sp, u, p


def test_solution_info_names_solver_path():
    sp, u = THREE_POINTS
    cases = [(1.0, "lp"), (2.0, "qp"), (0.5, "mm"),
             ([1.2, 1.8, 1.5], "qp_gauge"), ([0.7, 1.8, 1.5], "mm")]
    for p, path in cases:
        info = minimal_scalar_gradient(sp, u, 0.5, p).info
        assert info["path"] == path, (p, info)
        assert info["slsqp_status"] == sorted(set(info["slsqp_status"]))
        assert 0 not in info["slsqp_status"]
        # every bracket closed
        assert "highs_status" not in info and info["open"] == 0
        # an mm solve's inner HiGHS solves bracket their majorants, not the
        # norm; a gauge's bracket is on its modular at the last level
        assert ("bracket" in info) == (path in ("lp", "qp", "qp_gauge"))
        # the convex paths say whether their bracket closed; mm has no flag
        assert ("certified" in info) == ("bracket" in info)
        if "bracket" in info:
            assert info["certified"] is True
            lower, upper = info["bracket"]
            assert lower <= upper * (1.0 + 1e-13) and upper - lower <= 1e-9 * upper
        assert info["rounds"] > 0 and info["rows"] > 0
        # nit counts SLSQP iterations, QP solves and LP runs, one LP run per round
        assert info["nit"] > 0
        if path == "lp":
            assert info["nit"] == info["rounds"]
    p = [1.2, 1.8, 1.5]
    tl = minimal_vector_gradient(sp, u, 0.5, p, 1.3, scale="lp_lq").info
    besov = minimal_vector_gradient(sp, u, 0.5, p, [1.1, 1.3, 1.2], scale="lq_lp").info
    assert (tl["path"], besov["path"]) == ("qp_gauge", "qp_gauge")
    # the TL modular has a closed-form conjugate, the Besov level sum none
    lower, upper = tl["bracket"]
    assert lower <= upper and upper - lower <= 1e-9 * upper and tl["open"] == 0
    assert "bracket" not in besov and besov["open"] == 0
    assert tl["certified"] is True and besov["certified"] is False
    # a constant-q Besov norm is one bracketed solve per level, each closed
    levels = minimal_vector_gradient(sp, u, 0.5, 2.0, 1.5, scale="lq_lp").info
    assert levels["path"] == "qp" and "bracket" not in levels
    assert levels["certified"] is True
    # the norm-level bisection serves min q < 1 and partly infinite q
    for q in ([0.8, 1.3, 1.2], [np.inf, 1.3, 1.2]):
        info = minimal_vector_gradient(sp, u, 0.5, p, q, scale="lq_lp").info
        assert info["path"] == "bisection", (q, info)
        assert "certified" not in info
    assert minimal_scalar_gradient(sp, [1.0, 1.0, 1.0], 0.5, p).info["path"] == "none"


def test_nonconvex_scalar_battery_majorize_minimize():
    # min p < 1 on 30 random clouds and the three-point space; a projected
    # subgradient overflowed and raised on seeds 6, 10, 15 and 25
    cases = [_nonconvex_scalar_case(seed) for seed in range(30)]
    cases.append((*THREE_POINTS, np.array([0.7, 1.8, 1.5])))
    for sp, u, p in cases:
        sol = minimal_scalar_gradient(sp, u, 0.5, p)
        system = GradientConstraintSystem.scalar(sp, u, 0.5)
        assert sol.heuristic and sol.info["path"] == "mm"
        assert sol.certificate <= 1e-9 * system.target.max()
        rows = (system.I, system.J, system.coef_i, system.coef_j, system.target)
        warm = luxemburg(_feasible_point(sp.n, *rows), p, sp.weight, 1e-10)
        assert sol.objective.value <= warm.value
        if sp.n <= 3:
            # the lattice is exhaustive at n <= 3: it bounds the minimum from above
            oracle = oracle_scalar_gradient(sp, u, 0.5, p, step=1e-2)
            assert sol.objective.value <= oracle * (1.0 + 1e-9), (sp.n, u)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_subunit_exponent_majorize_minimize_property(seed, n, tl):
    # min p < 1 on the scalar problem, or some q < 1 on the TL scale: the
    # solve raises nothing, keeps its certificate, is flagged heuristic and
    # improves on its feasible warm start
    rng = np.random.default_rng(seed)
    sp = MetricMeasureSpace.from_points(rng.uniform(0, 2, (n, 1)), rng.uniform(0.3, 1.5, n))
    u = rng.standard_normal(n)
    p = rng.uniform(0.3, 2.0, n)
    if tl:
        q = rng.uniform(0.3, 2.0, n)
        q[0] = min(q[0], 0.9)
        sol = minimal_vector_gradient(sp, u, 0.5, p, q, scale="lp_lq")
        system = GradientConstraintSystem.vector(sp, u, 0.5)
        ks, pos = np.unique(system.level, return_inverse=True)
        x0 = _feasible_point(ks.size * n, system.I + pos * n, system.J + pos * n,
                             system.coef_i, system.coef_j, system.target)
        warm = mixed_norm_lp_lq(SequenceSample(0, x0.reshape(ks.size, n)), p, q, sp.weight)
    else:
        p[0] = min(p[0], 0.9)
        sol = minimal_scalar_gradient(sp, u, 0.5, p)
        system = GradientConstraintSystem.scalar(sp, u, 0.5)
        rows = (system.I, system.J, system.coef_i, system.coef_j, system.target)
        warm = luxemburg(_feasible_point(n, *rows), p, sp.weight, 1e-10)
    assert sol.heuristic
    assert sol.certificate <= _CERT_TOL
    assert sol.objective.value <= warm.value


@pytest.mark.parametrize("case, p, q, bound", [
    pytest.param("three", 1.5, 0.8, 0.8276680738632253, id="three-1.5-0.8"),
    pytest.param("six", 0.8, 1.5, 19.619508786010652, id="six-0.8-1.5"),
    pytest.param("six", 0.7, 0.9, 49.4670807076395, id="six-0.7-0.9"),
    pytest.param("six", np.linspace(0.6, 1.6, 6), np.linspace(0.7, 1.4, 6), 48.24686340015347,
                 id="six-variable")])
def test_nonconvex_tl_majorize_minimize_improves_on_its_warm_start(case, p, q, bound):
    # min(p, q) < 1 makes the TL modular nonconvex: majorize-minimize runs,
    # flagged heuristic; ``bound`` is what a norm-level bisection around
    # trust-constr reached
    sp, u = THREE_POINTS if case == "three" else _cloud(5, 6)[1:]
    s = 0.5
    sol = minimal_vector_gradient(sp, u, s, p, q, scale="lp_lq")
    assert sol.heuristic
    assert sol.info["path"] == "mm"
    assert sol.certificate <= 1e-9
    assert sol.objective.value <= bound * (1.0 + 1e-6)
    # the solver's feasible warm start on the level-stacked rows
    system = GradientConstraintSystem.vector(sp, u, s)
    ks, pos = np.unique(system.level, return_inverse=True)
    x0 = _feasible_point(ks.size * sp.n, system.I + pos * sp.n, system.J + pos * sp.n,
                         system.coef_i, system.coef_j, system.target)
    warm = mixed_norm_lp_lq(SequenceSample(0, x0.reshape(ks.size, sp.n)), p, q, sp.weight)
    assert sol.objective.value <= warm.value

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is calibrated at run time.
"""
import time

import numpy as np
import pytest

from varmms import (MetricMeasureSpace, ball, check_sobolev_local,
                    counterexample_run, critical_radii, estimate_doubling,
                    lipschitz_cutoff_gradient, luxemburg, median, median_bound_check,
                    minimal_scalar_gradient, minimal_vector_gradient,
                    mixed_modular_closed_form, mixed_modular_lq_lp, mixed_norm_lq_lp,
                    modular, necessity_run,
                    oracle_scalar_gradient, overlap_bound_check, phi, phi_iterates,
                    rel_sandwich_check, separated_net, sobolev_conjugate,
                    SequenceSample)
from varmms.constants import besov_to_sobolev_zeta
from varmms.generators import annular_cutoff, coordinate_function, grid1d, grid2d


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def scaled_cloud(rng, n, spread=0.9):
    """Random points with distances below one (several dyadic levels)."""
    pts = rng.uniform(0, spread, (n, 2))
    w = rng.uniform(0.2, 1.0, n)
    return MetricMeasureSpace.from_points(pts, w)


def test_criterion_1_luxemburg():
    t0 = time.time()
    nv = luxemburg([2.0, 2.0], [1.0, 2.0], [0.5, 0.5])
    analytic_ok = abs(nv.value - 2.0) <= 1e-8
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        u = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        p = rng.uniform(0.5, 3.0, n)
        w = rng.uniform(0.1, 2.0, n)
        rep = rel_sandwich_check(u, p, w)
        worst = max(worst, rep["lower"] - rep["norm"], rep["norm"] - rep["upper"])
        nrm = rep["norm"]
        if nrm > 0:
            inside = modular(u / nrm, p, w)
            outside = modular(u / (nrm * (1.0 - 1e-9)), p, w)
            worst = max(worst, inside - 1.0)
            if outside <= 1.0:
                worst = max(worst, 1.0)
    elapsed = time.time() - t0
    report(1, analytic_ok and worst <= 1e-8 and elapsed < 1.0,
           f"analytic={nv.value:.10f}, worst sandwich/ball margin={worst:.2e}, "
           f"runtime={elapsed:.2f}s")


def test_criterion_2_mixed_norm_consistency():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_i = worst_ii = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        L = 5
        w = rng.uniform(0.1, 1.0, n)
        p = rng.uniform(0.7, 2.5, n)
        seq = SequenceSample(int(rng.integers(-3, 1)), rng.uniform(0, 1.5, (L, n)))
        q_const = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        defn = mixed_norm_lq_lp(seq, p, q_const, w).value
        # constant q: the level norm of the per-level Lebesgue norms
        per = np.array([luxemburg(row, p, w).value for row in seq.values])
        formula = float(np.sum(per ** q_const) ** (1.0 / q_const))
        worst_i = max(worst_i, abs(defn - formula))
        q_var = rng.uniform(0.8, 3.5, n)
        worst_ii = max(worst_ii, abs(mixed_modular_lq_lp(seq, p, q_var, w)
                                     - mixed_modular_closed_form(seq, p, q_var, w)))
    elapsed = time.time() - t0
    report(2, worst_i <= 1e-6 and worst_ii <= 1e-6 and elapsed < 10.0,
           f"max |norm-formula|={worst_i:.2e}, max |modular-closed|={worst_ii:.2e}, "
           f"runtime={elapsed:.2f}s")


def _oracle_battery():
    """20 fixed instances with n <= 4 and min p >= 1 (amplitudes sized so the
    lattice-oracle quantization stays below the 1e-3 tolerance)."""
    battery = []
    for seed in range(8):  # n = 2, variable exponents
        r = np.random.default_rng(1000 + seed)
        d = float(r.uniform(0.8, 1.6))
        sp = MetricMeasureSpace.from_points([[0.0], [d]], r.uniform(0.3, 0.7, 2))
        battery.append((sp, r.uniform(0, 0.35, 2), r.uniform(0.3, 0.95, 2),
                        r.uniform(1.0, 2.0, 2)))
    for seed, pc in zip(range(7), [1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0]):  # n = 3
        r = np.random.default_rng(2000 + seed)
        pts = r.uniform(0, 1.0, (3, 2)) * 2.0
        while np.min(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
                     + 10 * np.eye(3)) < 0.8:
            pts = r.uniform(0, 1.0, (3, 2)) * 2.0
        w = r.uniform(0.2, 0.5, 3)
        w = w / w.sum()
        battery.append((MetricMeasureSpace.from_points(pts, w),
                        r.uniform(0, 0.35, 3), r.uniform(0.3, 0.95, 3),
                        np.full(3, pc)))
    for seed, pc in zip(range(5), [1.0, 2.0, 1.0, 2.0, 1.5]):  # n = 4
        r = np.random.default_rng(3000 + seed)
        pts = r.uniform(0, 1.2, (4, 2)) * 2.0
        while np.min(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
                     + 10 * np.eye(4)) < 0.8:
            pts = r.uniform(0, 1.2, (4, 2)) * 2.0
        w = r.uniform(0.2, 0.5, 4)
        w = w / w.sum()
        battery.append((MetricMeasureSpace.from_points(pts, w),
                        r.uniform(0, 0.35, 4), r.uniform(0.3, 0.95, 4),
                        np.full(4, pc)))
    return battery


def test_criterion_3_solver_vs_oracle():
    t0 = time.time()
    battery = _oracle_battery()
    assert len(battery) == 20
    worst = 0.0
    ok = True
    for sp, u, s, p in battery:
        sol = minimal_scalar_gradient(sp, u, s, p).objective.value
        orc = oracle_scalar_gradient(sp, u, s, p, step=1e-3)
        diff = abs(sol - orc)
        worst = max(worst, diff)
        ok &= diff <= max(1e-3, 1e-4 * orc)
        # two-sided bracket with the documented lattice-quantization constant:
        # rounding the optimum up by one grid step raises the modular by at
        # most step times its Lipschitz bound over the search box, and the
        # chain rule converts that into a norm perturbation
        box = np.zeros(sp.n)
        sv = np.asarray(s, dtype=float)
        uv = np.asarray(u, dtype=float)
        pv = np.asarray(p, dtype=float)
        for i in range(sp.n):
            for j in range(sp.n):
                if i != j and abs(uv[i] - uv[j]) > 0:
                    box[i] = max(box[i], abs(uv[i] - uv[j]) / sp.dist[i, j] ** sv[i])
        lip_mod = float(np.sum(sp.weight * pv * np.maximum(box + 1e-3, 1e-9)
                               ** (pv - 1.0)))
        p_min = float(pv.min())
        mod_low = max(orc ** p_min - 1e-3 * lip_mod, 1e-12)
        C_doc = lip_mod / p_min * mod_low ** ((1.0 - p_min) / p_min)
        ok &= sol >= orc - 1e-3 * C_doc - 1e-6
        ok &= sol <= orc * (1.0 + 1e-4) + 1e-9
    elapsed = time.time() - t0
    report(3, ok and elapsed < 60.0,
           f"20 instances, worst |solver-oracle|={worst:.2e}, runtime={elapsed:.1f}s")


def test_criterion_4_structural_embeddings():
    t0 = time.time()
    rng = np.random.default_rng(404)
    tol = 1e-6
    ok = True
    worst = {}

    def track(tag, violation):
        nonlocal ok
        worst[tag] = max(worst.get(tag, 0.0), violation)
        ok &= violation <= tol

    for i in range(30):
        n = int(rng.integers(3, 6))
        sp = scaled_cloud(rng, n)
        u = rng.standard_normal(n)
        s = rng.uniform(0.3, 0.8, n)
        p = rng.uniform(1.0, 2.0, n)
        q1 = float(rng.choice([1.0, 1.3, 1.6]))
        m = minimal_scalar_gradient(sp, u, s, p).objective.value
        tl_inf = minimal_vector_gradient(sp, u, s, p, np.inf, scale="lp_lq").objective.value
        tl_q1 = minimal_vector_gradient(sp, u, s, p, q1, scale="lp_lq").objective.value
        bes_q1 = minimal_vector_gradient(sp, u, s, p, q1, scale="lq_lp").objective.value
        bes_inf = minimal_vector_gradient(sp, u, s, p, np.inf, scale="lq_lp").objective.value
        tl_p = minimal_vector_gradient(sp, u, s, p, p, scale="lp_lq").objective.value
        bes_p = minimal_vector_gradient(sp, u, s, p, p, scale="lq_lp").objective.value
        q_small = float(p.min())
        bes_small = minimal_vector_gradient(sp, u, s, p, q_small, scale="lq_lp").objective.value
        scale_ref = max(m, tl_q1, bes_q1, 1e-9)
        track("(i)", (tl_inf - tl_q1) / scale_ref)        # q1 <= inf lowers TL
        track("(i)", (bes_inf - bes_q1) / scale_ref)      # and Besov
        track("(ii)", abs(m - tl_inf) / scale_ref)        # TL-inf equals the scalar norm
        track("(iii)", abs(tl_p - bes_p) / scale_ref)     # q = p: scales agree
        track("(v)", (m - tl_q1) / scale_ref)             # scalar below TL
        track("(vi)", (m - bes_small) / scale_ref)        # q <= p: scalar below Besov
        track("(viii)", (bes_inf - tl_q1) / scale_ref)    # Besov-inf below TL(q)

    # (ix): scalar t-norm on a ball bounded by zeta times the Besov (s, p, q) norm
    ran_ix = 0
    for i in range(10):
        n = 8
        sp = scaled_cloud(rng, n, spread=1.2)
        x0 = int(rng.integers(0, n))
        r0 = float(rng.uniform(0.4, 0.8))
        members = ball(sp, x0, r0).members
        if members.size < 3:
            continue
        ran_ix += 1
        u = rng.standard_normal(n)
        p = rng.uniform(1.0, 2.0, n)
        s = rng.uniform(0.55, 0.8, n)
        t = s - rng.uniform(0.2, 0.35, n)
        q = float(rng.choice([1.5, np.inf]))
        t_norm = minimal_scalar_gradient(sp, u, t, p, subset=members).objective.value
        bes = minimal_vector_gradient(sp, u, s, p, q, scale="lq_lp",
                                      subset=members).objective.value
        zeta = besov_to_sobolev_zeta(p[members], s[members], t[members], delta=r0)
        track("(ix)", (t_norm - zeta * bes) / max(t_norm, 1.0))
    elapsed = time.time() - t0
    detail = ", ".join(f"{k} viol={v:.1e}" for k, v in sorted(worst.items()))
    report(4, ok and ran_ix >= 5 and elapsed < 120.0,
           f"{detail}, (ix) instances={ran_ix}, runtime={elapsed:.1f}s")


def test_criterion_5_lipschitz_constructor():
    t0 = time.time()
    rng = np.random.default_rng(505)
    spaces = [grid2d(6), grid2d(8), grid1d(32)]
    ok = True
    count = 0
    worst_cert = 0.0
    for i in range(20):
        sp = spaces[i % len(spaces)]
        center = int(rng.integers(0, sp.n))
        r = float(rng.uniform(0.3, 0.8))
        j = int(rng.integers(1, 4))
        u, support, L = annular_cutoff(sp, center, r, j)
        if support.size == 0:
            continue
        if i % 4 == 3:
            s = np.full(sp.n, 1.0)
            q = np.inf
        else:
            s = rng.uniform(0.3, 0.9, sp.n)
            q = float(rng.choice([1.0, 2.0, np.inf]))
        p = rng.uniform(1.0, 2.0, sp.n)
        seq, rep = lipschitz_cutoff_gradient(sp, support, L, s, p, q, u=u)
        ok &= rep["ok"]
        worst_cert = max(worst_cert, rep["certificate"])
        count += 1
    # hand-computed level values for L = 1, s = 1/2
    sp = MetricMeasureSpace.from_points([[0.0], [0.3], [0.9]], [1, 1, 1])
    seq, rep = lipschitz_cutoff_gradient(sp, [0, 1], 1.0, 0.5, 2.0, 2.0)
    hand_ok = (rep["k_L"] == 1
               and np.isclose(seq.level(1)[0], 2 ** -0.5)
               and np.isclose(seq.level(0)[0], 2 ** 1.5))
    elapsed = time.time() - t0
    report(5, ok and hand_ok and worst_cert <= 1e-9 and count >= 18 and elapsed < 30.0,
           f"{count} scenarios, worst certificate={worst_cert:.1e}, "
           f"hand values ok={hand_ok}, runtime={elapsed:.1f}s")


def test_criterion_6_median():
    rng = np.random.default_rng(606)
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 10))
        u = rng.standard_normal(n)
        w = rng.uniform(0.1, 2.0, n)
        m = median(u, w)
        c = float(rng.standard_normal())
        cpos = float(rng.uniform(0.1, 4.0))
        ok &= abs(median(u + c, w) - (m + c)) <= 1e-10
        ok &= abs(median(cpos * u, w) - cpos * m) <= 1e-10 * max(1, cpos * abs(m))
        ok &= abs(m) <= median(np.abs(u), w) + 1e-10
        rep = median_bound_check(u, w, rng.uniform(0.6, 3.0, n), c=c)
        worst = max(worst, rep["lhs"] - rep["rhs"])
        ok &= rep["lhs"] <= rep["rhs"] + 1e-10
    eq = median_bound_check(np.array([0.0, 1.0]), [0.5, 0.5], 1.0, c=0.0, tol=1e-13)
    margin0 = abs(eq["rhs"] - eq["lhs"])
    report(6, ok and margin0 <= 1e-12,
           f"100 random instances worst violation={worst:.1e}, "
           f"equality margin={margin0:.1e}")


def test_criterion_7_sobolev_refinement_stability():
    t0 = time.time()
    consts = []
    for m in (8, 16, 24):
        sp = grid2d(m)
        u = coordinate_function(sp, 0)
        center = int(np.argmin(np.linalg.norm(sp.coords - 0.5, axis=1)))
        rep = check_sobolev_local(sp, center, 0.25, 2.0, u, 1.0, 1.0, 2.0)
        assert rep.verdict == "pass"
        consts.append(rep.extras["empirical_constant"])
    spread = (max(consts) - min(consts)) / min(consts)
    elapsed = time.time() - t0
    report(7, all(np.isfinite(consts)) and spread < 0.5 and elapsed < 300.0,
           f"constants={[f'{c:.4f}' for c in consts]}, spread={spread:.1%}, "
           f"runtime={elapsed:.1f}s")


def test_criterion_8_counterexample():
    t0 = time.time()
    rep = counterexample_run(1, 0.5, 2.0, 0.6, refinements=(31, 61, 121))
    growth_ok = all(f["achieved"] >= f["required"] for f in rep.extras["factors"])
    elapsed = time.time() - t0
    growth = [f"{f['achieved']:.4f}>={f['required']:.4f}" for f in rep.extras["factors"]]
    report(8, rep.passed and growth_ok and rep.extras["norm_spread"] < 0.2
           and elapsed < 120.0,
           f"norm spread={rep.extras['norm_spread']:.1%}, growth steps={growth}, "
           f"quotients={[f'{q:.3f}' for q in rep.extras['quotients']]}, "
           f"runtime={elapsed:.1f}s")


def test_criterion_9_necessity():
    t0 = time.time()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(30):
        n = 10
        Q = rng.uniform(1.2, 3.0, n)
        s = rng.uniform(0.2, 0.6, n)
        p = rng.uniform(1.0, 1.8, n)
        if np.any(s * p >= Q - 1e-2):
            continue
        gamma = sobolev_conjugate(Q, s, p).values
        worst = max(worst, float(np.max(np.abs(gamma * s * p / (gamma - p) - Q))))
    identity_ok = worst <= 1e-12

    sp = grid2d(8)
    n = sp.n
    s = np.full(n, 0.5)
    p = np.full(n, 1.5)
    gamma = sobolev_conjugate(np.full(n, 2.0), s, p).values
    rep = necessity_run(sp, s, p, np.inf, gamma, mode="sobolev_global")
    harness_ok = rep.passed and rep.extras["b_empirical"] > 0

    alpha = np.full(n, 0.3)
    alpha[5] = 0.5
    flag_rep = necessity_run(sp, s, p, np.inf, alpha, mode="holder")
    flag_ok = flag_rep.extras["atom_contradictions"] == [5]
    elapsed = time.time() - t0
    report(9, identity_ok and harness_ok and flag_ok,
           f"identity err={worst:.1e}, global b_emp={rep.extras['b_empirical']:.3f} "
           f">= b_formula={rep.extras['b_formula']:.2e}, atom flag={flag_ok}, "
           f"runtime={elapsed:.1f}s")


def test_criterion_10_geometry(battery):
    t0 = time.time()
    ok = True
    for name, sp in battery.items():
        radii = critical_radii(sp)
        for r in radii:
            net = separated_net(sp, r)
            sep = r / 2.0
            for a_i, a in enumerate(net):
                for b in net[a_i + 1:]:
                    ok &= sp.dist[a, b] >= sep - 1e-12
            ok &= bool(((sp.dist[:, net] < r).any(axis=1)).all())
        for x in range(sp.n):
            prev = 0.0
            for r in radii:
                val = phi(sp, x, r)
                ok &= 0.0 <= val < r if r > 0 else val == 0.0
                ok &= val >= prev - 1e-12
                prev = val
                half = 0.5 * float(sp.weight[sp.dist[x] < r].sum())
                ok &= float(sp.weight[sp.dist[x] < val].sum()) <= half + 1e-12
                ok &= float(sp.weight[sp.dist[x] <= val].sum()) >= half - 1e-12
            if radii.size:
                its = phi_iterates(sp, x, float(radii[-1]), 3)
                m0 = float(sp.weight[sp.dist[x] < its[0]].sum())
                for j in range(1, len(its)):
                    ok &= (its[j] < its[j - 1]) or its[j] == 0.0
                    ok &= float(sp.weight[sp.dist[x] < its[j]].sum()) <= 2.0 ** -j * m0 + 1e-12
        if sp.n >= 2:
            M = estimate_doubling(sp)
            r = float(np.median(radii)) if radii.size else 1.0
            for R in (1.5 * r, 3.0 * r):
                rep = overlap_bound_check(sp, r, R, doubling=M)
                ok &= rep["ok"]
    elapsed = time.time() - t0
    report(10, ok and elapsed < 30.0, f"battery of {len(battery)} spaces, "
           f"runtime={elapsed:.1f}s")

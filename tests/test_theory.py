import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest

from sgsmooth import data, engine, problems, theory
from sgsmooth.errors import InsufficientData, UnsupportedConfiguration


def constants(eta=1.0, c=1.0, d=0.0, beta2=0.0, sigma2=0.0):
    return theory.ProblemConstants(eta=eta, c=c, d=d, beta2=beta2, sigma2=sigma2)


# ---------- rate and bounds arithmetic ----------


def test_rate_alpha_direct_arithmetic():
    k = constants(eta=1.0, c=1.0)  # e2 = 2
    assert theory.rate_alpha(0.001, k) == pytest.approx(0.999002, rel=1e-12)


def test_rate_alpha_vertex_of_quadratic():
    k = constants(eta=0.8, c=1.5, beta2=0.5)  # e2 = 4.5
    mu_opt = k.eta / (2 * (k.e2 + k.beta2))
    expected = 1.0 - k.eta**2 / (4 * (k.e2 + k.beta2))
    assert theory.rate_alpha(mu_opt, k) == pytest.approx(expected, rel=1e-14)
    # vertex is the minimum over a small sweep
    sweep = [theory.rate_alpha(mu_opt * s, k) for s in (0.5, 0.9, 1.1, 2.0)]
    assert all(theory.rate_alpha(mu_opt, k) <= v for v in sweep)


def test_rate_alpha_zero_step():
    assert theory.rate_alpha(0.0, constants()) == 1.0


def test_step_size_ceiling():
    k = constants(eta=1.0, c=1.0)  # e2 = 2, beta2 = 0
    assert theory.step_size_ceiling(k) == pytest.approx(0.5, rel=1e-15)
    assert theory.rate_alpha(0.999 * 0.5, k) < 1.0
    assert theory.rate_alpha(1.001 * 0.5, k) >= 1.0


def test_step_size_ceiling_degenerate_is_unbounded():
    # a validated ProblemConstants cannot reach e2 + beta2 = 0 (eta <= c forces
    # c > 0), so the defensive branch is exercised with a bare stand-in
    from types import SimpleNamespace

    k = SimpleNamespace(eta=1.0, e2=0.0, beta2=0.0)
    assert theory.step_size_ceiling(k) == math.inf


def test_steady_state_bounds_noiseless():
    k = constants(eta=1.0, c=1.0, d=0.0, sigma2=0.0)
    ss = theory.steady_state_bounds(0.01, k)
    assert ss.excess_risk == 0.0 and ss.msd == 0.0


def test_steady_state_bounds_msd_relation():
    k = constants(eta=0.5, c=1.0, d=0.3, sigma2=0.7)
    ss = theory.steady_state_bounds(0.02, k)
    assert ss.msd == pytest.approx(2 * ss.excess_risk / k.eta, rel=1e-15)


def test_finite_horizon_bound_started_at_optimum():
    k = constants(eta=1.0, c=1.0, d=0.1, sigma2=0.5)
    mu = 0.01
    steady = theory.steady_state_bounds(mu, k).excess_risk
    for horizon in (1, 10, 1000):
        assert theory.finite_horizon_bound(mu, k, horizon, 0.0) == pytest.approx(
            steady, rel=1e-15
        )


def test_finite_horizon_bound_limits_and_first_step():
    k = constants(eta=1.0, c=1.0, d=0.1, sigma2=0.5)
    mu = 0.01
    msd0 = 2.0
    alpha = theory.rate_alpha(mu, k)
    steady = theory.steady_state_bounds(mu, k).excess_risk
    # one-term geometric sum
    expected_first = alpha * msd0 / (2 * mu) + steady
    assert theory.finite_horizon_bound(mu, k, 1, msd0) == pytest.approx(
        expected_first, rel=1e-12
    )
    assert theory.finite_horizon_bound(mu, k, 10**7, msd0) == pytest.approx(
        steady, rel=1e-9
    )


def test_finite_horizon_bound_is_nonincreasing_and_converges():
    k = constants(eta=0.7, c=1.2, d=0.2, beta2=0.4, sigma2=0.9)
    mu = 0.05
    vals = [theory.finite_horizon_bound(mu, k, n, 3.0) for n in range(1, 400)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= theory.steady_state_bounds(mu, k).excess_risk


def test_finite_horizon_bound_rejects_unstable_rate():
    k = constants(eta=1.0, c=1.0, beta2=1000.0)
    with pytest.raises(UnsupportedConfiguration):
        theory.finite_horizon_bound(0.5, k, 10, 1.0)


# ---------- constants constructors ----------


def test_svm_constants_values():
    k = theory.svm_constants(2e-3, 123.0)
    assert k.eta == 2e-3 and k.c == 2e-3
    assert k.d == pytest.approx(2 * math.sqrt(123.0), rel=1e-15)
    assert k.beta2 == 0.0 and k.sigma2 == 123.0
    assert k.e2 == pytest.approx(2 * k.c**2, rel=1e-15)
    assert k.f2 == pytest.approx(2 * k.d**2, rel=1e-15)
    assert k.tau2 == pytest.approx(k.f2 + k.sigma2, rel=1e-15)


def test_svm_constants_degenerate_trace():
    k = theory.svm_constants(0.5, 0.0)
    assert k.d == 0.0 and k.sigma2 == 0.0


def test_lasso_constants_flagship_parameters():
    dim = 100
    w_true = np.zeros(dim)
    w_true[0], w_true[1] = 1.0, -1.0
    p = problems.LassoProblem(
        delta=0.002, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01
    )
    a = 5.0
    k = theory.lasso_constants(p, a)
    assert k.c == 1.0 and k.eta == 1.0
    assert k.d == pytest.approx(0.04, rel=1e-12)
    assert k.f2 == pytest.approx(0.0032, rel=1e-12)
    gap2 = 2 * 0.002**2
    assert k.sigma2 == pytest.approx(0.01 * 100 + 2 * a * gap2, rel=1e-12)
    assert k.beta2 == 2 * a


def test_lasso_constants_pure_lms():
    p = problems.LassoProblem(
        delta=1e-300, w_true=np.array([1.0, 0.0]), cov_h=np.eye(2), noise_var=0.01
    )
    k = theory.lasso_constants(p, 0.0)
    assert k.d == pytest.approx(0.0, abs=1e-290)
    assert k.f2 == pytest.approx(0.0, abs=1e-290)


def test_lasso_constants_e2_invariant_general_covariance():
    rng = np.random.default_rng(3)
    a_mat = rng.normal(size=(4, 4))
    cov = a_mat @ a_mat.T + 4 * np.eye(4)
    p = problems.LassoProblem(
        delta=0.01, w_true=rng.normal(size=4), cov_h=cov, noise_var=0.01
    )
    k = theory.lasso_constants(p, 1.0, w_star=np.zeros(4))
    assert k.e2 == pytest.approx(2 * p.spectral_norm**2, rel=1e-12)
    assert k.eta == pytest.approx(p.min_eigenvalue, rel=1e-12)


def test_constants_validation():
    with pytest.raises(ValueError):
        theory.ProblemConstants(eta=2.0, c=1.0, d=0.0, beta2=0.0, sigma2=0.0)
    with pytest.raises(ValueError):
        theory.ProblemConstants(eta=0.0, c=1.0, d=0.0, beta2=0.0, sigma2=0.0)


# ---------- noise modulus ----------


def test_estimate_lasso_a_deterministic_features_give_zero():
    p = problems.LassoProblem(
        delta=0.01, w_true=np.array([1.0]), cov_h=np.eye(1), noise_var=0.0
    )
    feats = np.ones((50, 1))  # h h^T equals the covariance for every draw
    est = theory.estimate_lasso_a(p, 50, features=feats)
    assert est.value == 0.0


def test_estimate_lasso_a_scalar_gaussian_moments():
    # 2 E (1 - h^2)^2 = 2 (1 - 2 E h^2 + E h^4) = 2 (1 - 2 + 3) = 4
    p = problems.LassoProblem(
        delta=0.01, w_true=np.array([1.0]), cov_h=np.eye(1), noise_var=0.0
    )
    est = theory.estimate_lasso_a(p, 200_000, seed=5)
    assert abs(est.value - 4.0) <= 3 * est.stderr
    assert est.stderr < 0.1


def test_estimate_lasso_a_consistency_between_sample_sizes():
    p = problems.LassoProblem(
        delta=0.01, w_true=np.zeros(3), cov_h=np.eye(3), noise_var=0.0
    )
    small = theory.estimate_lasso_a(p, 20_000, seed=6)
    big = theory.estimate_lasso_a(p, 80_000, seed=7)
    assert abs(small.value - big.value) <= 3 * math.hypot(small.stderr, big.stderr)


def test_estimate_lasso_a_identity_fast_path_matches_general_path():
    p = problems.LassoProblem(
        delta=0.01, w_true=np.zeros(3), cov_h=np.eye(3), noise_var=0.0
    )
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(500, 3))
    fast = theory.estimate_lasso_a(p, 500, features=feats)
    # force the general eigenvalue path through a numerically identical problem
    cov = np.eye(3)
    cov[0, 0] = 1.0 + 1e-15
    p2 = problems.LassoProblem(delta=0.01, w_true=np.zeros(3), cov_h=cov, noise_var=0.0)
    slow = theory.estimate_lasso_a(p2, 500, features=feats)
    assert fast.value == pytest.approx(slow.value, rel=1e-10)


def whole_draw_a(problem, n, seed):
    # the estimate from one (n, dim) draw held at once, reduced as one array
    m = problem.dim
    z = data.standard_normal(np.random.default_rng(seed), (n, m))
    if problem._identity_cov:
        q = np.einsum("ij,ij->i", z, z)
        norms = np.abs(1.0 - q) if m == 1 else np.maximum(1.0, np.abs(1.0 - q))
    else:
        cov = problem.cov_h
        feats = z @ np.linalg.cholesky(cov).T
        diff = cov[None, :, :] - feats[:, :, None] * feats[:, None, :]
        norms = np.abs(np.linalg.eigvalsh(diff)).max(axis=1)
    draws = 2.0 * norms**2
    stderr = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(draws.mean()), stderr


@pytest.mark.parametrize("m", [1, 3, 100])
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1300])
def test_estimate_lasso_a_blocks_equal_one_whole_draw(n, m):
    p = problems.LassoProblem(delta=0.01, w_true=np.zeros(m), cov_h=np.eye(m), noise_var=0.0)
    est = theory.estimate_lasso_a(p, n, seed=21)
    value, stderr = whole_draw_a(p, n, 21)
    assert est.value == value  # bit for bit
    assert est.stderr == stderr


@pytest.mark.parametrize("m", [3, 30])
def test_estimate_lasso_a_general_covariance_matches_one_whole_draw(m):
    rng = np.random.default_rng(22)
    a = rng.normal(size=(m, m))
    cov = a @ a.T / m + 0.5 * np.eye(m)
    p = problems.LassoProblem(delta=0.01, w_true=np.zeros(m), cov_h=cov, noise_var=0.0)
    est = theory.estimate_lasso_a(p, 1300, seed=23)
    value, stderr = whole_draw_a(p, 1300, 23)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


def lasso_a_problem(kind, m):
    cov = np.eye(m)
    if kind == "general":
        a = np.random.default_rng(22).normal(size=(m, m))
        cov = a @ a.T / m + 0.5 * np.eye(m)
    return problems.LassoProblem(delta=0.01, w_true=np.zeros(m), cov_h=cov, noise_var=0.0)


# blocks are 512 rows, and 419 on the general path at M = 100
@pytest.mark.parametrize("kind, m, n", [
    ("identity", 1, 1), ("identity", 1, 513), ("identity", 1, 1537),
    ("identity", 3, 511), ("identity", 3, 512), ("identity", 3, 513),
    ("identity", 3, 1024), ("identity", 3, 1025), ("identity", 3, 1537),
    ("general", 3, 513), ("general", 3, 1537), ("general", 100, 420),
])
def test_estimate_lasso_a_split_is_bit_identical(monkeypatch, kind, m, n):
    p = lasso_a_problem(kind, m)
    ref = theory.estimate_lasso_a(p, n, seed=31)
    # every block may be a part of its own, so small draws split too
    monkeypatch.setattr(theory, "_MIN_PART_VARIATES", 1)
    parts = []

    def counting_map(fn, tasks):
        parts.append(len(tasks))
        return engine.parallel_map(fn, tasks)

    monkeypatch.setattr(theory, "parallel_map", counting_map)
    blocks = -(-n // (419 if m == 100 else 512))
    for workers in (1, 2, 3):
        est = theory.estimate_lasso_a(p, n, seed=31, workers=workers)
        assert est.value.hex() == ref.value.hex()
        assert est.stderr.hex() == ref.stderr.hex()
        assert parts[-1] == min(workers, blocks)


def test_estimate_lasso_a_below_the_part_minimum_starts_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    m = 100
    p = lasso_a_problem("identity", m)
    n = 2 * theory._MIN_PART_VARIATES // m  # the largest n of one part at M = 100
    assert n * m < 2 * theory._MIN_PART_VARIATES <= (n + 1) * m
    for workers in (1, 2, 64):
        theory.estimate_lasso_a(p, n, seed=3, workers=workers)
    # supplied features are reduced in this process, however many workers
    monkeypatch.setattr(theory, "_MIN_PART_VARIATES", 1)
    feats = np.random.default_rng(4).normal(size=(2000, 3))
    theory.estimate_lasso_a(lasso_a_problem("identity", 3), 2000, features=feats, workers=2)


def test_estimate_lasso_a_memory_does_not_hold_the_whole_draw():
    n, m = 20_000, 100
    p = problems.LassoProblem(delta=0.01, w_true=np.zeros(m), cov_h=np.eye(m), noise_var=0.0)
    theory.estimate_lasso_a(p, 10)  # first-call allocations are not the draw's
    tracemalloc.start()
    try:
        theory.estimate_lasso_a(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy reports its buffers to tracemalloc; one (n, m) float64 draw is 16 MB
    assert peak < n * m * 8 / 8


def test_gaussian_noise_modulus_matches_direct_moment():
    # E ||(R - h h^T) v||^2 = v^T (R^2 + Tr(R) R) v for Gaussian h
    rng = np.random.default_rng(10)
    a_mat = rng.normal(size=(3, 3))
    cov = a_mat @ a_mat.T + 3 * np.eye(3)
    p = problems.LassoProblem(
        delta=0.01, w_true=np.zeros(3), cov_h=cov, noise_var=0.0
    )
    a_g = theory.lasso_gaussian_noise_modulus(p)
    nrm = p.spectral_norm
    assert a_g == pytest.approx(nrm**2 + np.trace(cov) * nrm, rel=1e-12)
    # Monte-Carlo check of the worst-direction bound
    eigvals, eigvecs = np.linalg.eigh(cov)
    v = eigvecs[:, -1]  # top eigenvector attains the bound
    chol = np.linalg.cholesky(cov)
    h = data.standard_normal(np.random.default_rng(11), (200_000, 3)) @ chol.T
    prods = (cov[None, :, :] - h[:, :, None] * h[:, None, :]) @ v
    second = np.einsum("ij,ij->i", prods, prods)
    stderr = second.std(ddof=1) / math.sqrt(len(second))
    assert abs(second.mean() - a_g) <= 4 * stderr


# ---------- tight SVM bound ----------


def test_svm_tight_bound_printed_rate():
    out = theory.svm_tight_bound(0.05, 2e-3, 1.0, 10.0)
    assert abs(out.alpha - 0.99980002) <= 1e-12 * 0.99980002


def test_svm_tight_bound_degenerate():
    out = theory.svm_tight_bound(0.1, 0.5, 0.0, 0.0)
    assert out.bound == pytest.approx(0.1 * 0.5, rel=1e-15)


def test_svm_tight_bound_beats_generic_bound():
    mu, rho, trace = 0.05, 2e-3, 123.0
    w_star_norm2 = 4.0
    generic = theory.steady_state_bounds(mu, theory.svm_constants(rho, trace))
    tight = theory.svm_tight_bound(mu, rho, w_star_norm2, trace)
    assert tight.bound < generic.excess_risk


# ---------- assumption checkers ----------


def make_lasso(dim=5, delta=0.05, noise_var=0.01, seed=1):
    w_true = np.zeros(dim)
    w_true[0], w_true[1] = 1.0, -1.0
    return problems.LassoProblem(
        delta=delta, w_true=w_true, cov_h=np.eye(dim), noise_var=noise_var
    )


def test_noise_moments_lasso_at_optimum():
    p = make_lasso()
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    w_star = p.optimum()
    n = 20_000
    report = theory.verify_noise_moments(p, data.RegressionSampler(spec, 13), w_star, n)
    assert np.all(np.abs(report.mean) <= 3 * report.mean_stderr)
    a = theory.estimate_lasso_a(p, 50_000, seed=14)
    k = theory.lasso_constants(p, a.value, w_star=w_star)
    assert report.second_moment <= k.sigma2 + 3 * report.second_moment_stderr


def test_noise_moments_zero_noise_problem_is_exactly_zero():
    p = problems.LassoProblem(
        delta=0.1, w_true=np.array([2.0]), cov_h=np.eye(1), noise_var=0.0
    )

    class DeterministicSampler:
        def draw_batch(self, n):
            return np.ones((n, 1)), np.full(n, 2.0)  # h h^T = cov exactly

    report = theory.verify_noise_moments(p, DeterministicSampler(), np.array([0.7]), 100)
    np.testing.assert_array_equal(report.mean, [0.0])
    assert report.second_moment == 0.0


def noise_moments_per_draw(problem, sampler, w, n):
    # reference: one draw and one instantaneous subgradient at a time
    g_true = problem.true_subgradient(w)
    s = np.array([
        problem.instantaneous_subgradient(w, sampler.draw()) - g_true for _ in range(n)
    ])
    q = np.array([float(row @ row) for row in s])
    return (
        s.mean(axis=0),
        s.std(axis=0, ddof=1) / math.sqrt(n),
        q.mean(),
        q.std(ddof=1) / math.sqrt(n),
    )


@pytest.mark.parametrize("kind", ["lasso", "svm-set"])
def test_noise_moments_match_a_per_draw_loop(kind):
    if kind == "lasso":
        p = make_lasso()
        spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
        make = make_raw = lambda: data.RegressionSampler(spec, 31)
        w = p.optimum() + np.array([0.3, -0.1, 0.0, 0.2, -0.4])
    else:
        spec = data.TwoClassGaussianSpec.symmetric(np.array([0.7, -0.2, 0.4]))
        feats, labels = data.TwoClassGaussianSampler(spec, 32).draw_batch(2_000)
        p = problems.SvmSampleSet(feats, labels, rho=0.01)
        # the batch form reads signed rows; the per-draw reference reads (h, gamma)
        make = lambda: data.SetSampler(p.signed, np.ones_like(labels), 33)
        make_raw = lambda: data.SetSampler(feats, labels, 33)
        w = np.array([0.5, 0.5, -0.5])
    n = 3_000
    report = theory.verify_noise_moments(p, make(), w, n)
    mean, mean_se, msq, msq_se = noise_moments_per_draw(p, make_raw(), w, n)
    np.testing.assert_allclose(report.mean, mean, rtol=1e-12)
    np.testing.assert_allclose(report.mean_stderr, mean_se, rtol=1e-12)
    assert report.second_moment == pytest.approx(msq, rel=1e-12)
    assert report.second_moment_stderr == pytest.approx(msq_se, rel=1e-12)


def test_noise_moments_svm_variance_below_trace():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.7, -0.2, 0.4]))
    feats, labels = data.TwoClassGaussianSampler(spec, 15).draw_batch(30_000)
    sset = problems.SvmSampleSet(feats, labels, rho=0.01)
    sampler = data.SetSampler(sset.signed, np.ones_like(labels), 16)
    for w in (np.zeros(3), np.array([0.5, 0.5, -0.5])):
        report = theory.verify_noise_moments(sset, sampler, w, 20_000)
        assert (
            report.second_moment
            <= sset.trace_second_moment + 3 * report.second_moment_stderr
        )


def test_affine_lipschitz_lasso_has_no_violations():
    p = make_lasso(dim=8)
    rng = np.random.default_rng(17)
    viol = theory.verify_affine_lipschitz(
        p.true_subgradient, 8, p.spectral_norm, 2 * p.delta * math.sqrt(8), 10_000, rng
    )
    assert viol == 0


def test_affine_lipschitz_needs_the_offset_term():
    # with d forced to 0 the sign-flip discontinuity is exposed
    p = make_lasso(dim=8)
    rng = np.random.default_rng(18)
    viol = theory.verify_affine_lipschitz(
        p.true_subgradient, 8, p.spectral_norm, 0.0, 2_000, rng, scale=0.05
    )
    assert viol > 0


def test_affine_lipschitz_identical_pair_is_trivial():
    p = make_lasso(dim=4)
    w = np.array([0.3, -0.2, 0.0, 1.0])
    lhs = np.linalg.norm(p.true_subgradient(w) - p.true_subgradient(w))
    assert lhs == 0.0 <= 2 * p.delta * math.sqrt(4)


def test_subgradient_inequality_lasso():
    p = make_lasso(dim=6)
    rng = np.random.default_rng(19)
    viol = theory.verify_subgradient_inequality(
        p.risk, p.true_subgradient, 6, 10_000, rng
    )
    assert viol == 0


def test_subgradient_inequality_svm_empirical():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.8, 0.1]))
    feats, labels = data.TwoClassGaussianSampler(spec, 20).draw_batch(2_000)
    sset = problems.SvmSampleSet(feats, labels, rho=0.05)
    rng = np.random.default_rng(21)
    viol = theory.verify_subgradient_inequality(
        sset.risk, sset.subgradient, 2, 5_000, rng
    )
    assert viol == 0


def test_strong_monotonicity_lasso():
    p = make_lasso(dim=6)
    rng = np.random.default_rng(22)
    viol = theory.verify_strong_monotonicity(
        p.true_subgradient, p.optimum(), p.min_eigenvalue, 6, 10_000, rng
    )
    assert viol == 0


def test_verify_checkers_probe_the_per_point_draw_sequence():
    # one batched draw must hand the checkers the points that one
    # standard_normal call per point gave, in the same order
    dim, n, seed = 3, 6, 23
    rng = np.random.default_rng(seed)
    points = [2.0 * data.standard_normal(rng, dim) for _ in range(2 * n)]
    seen = []

    def record(w):
        seen.append(np.array(w))
        return 0.0 * w

    theory.verify_affine_lipschitz(record, dim, 1.0, 0.0, n, np.random.default_rng(seed),
                                   scale=2.0)
    assert len(seen) == 2 * n and all(map(np.array_equal, seen, points))
    seen.clear()
    theory.verify_strong_monotonicity(record, np.zeros(dim), 1.0, dim, 2 * n,
                                      np.random.default_rng(seed), scale=2.0)
    assert len(seen) == 2 * n and all(map(np.array_equal, seen, points))
    seen.clear()
    # per pair: risk(w0), subgrad(w0), risk(w) with w drawn before w0
    theory.verify_subgradient_inequality(lambda w: float(record(w) @ w), record, dim, n,
                                         np.random.default_rng(seed), scale=2.0)
    order = [points[k] for j in range(n) for k in (2 * j + 1, 2 * j + 1, 2 * j)]
    assert len(seen) == 3 * n and all(map(np.array_equal, seen, order))


# ---------- rate fitting ----------


def synthetic_curve(alpha, floor, n, stride=1, scale=0.5):
    iters = np.arange(stride, stride * (n + 1), stride, dtype=np.int64)
    vals = scale * alpha**iters + floor
    return engine.Trajectory(
        iterations=iters,
        excess_risk=vals,
        smoothed_excess_risk=vals,
        msd=vals,
        smoothed_msd=vals,
        iteration_stride=stride,
    )


def test_fit_rate_exact_geometric():
    curve = synthetic_curve(0.99, 0.0, 400)
    fitted = theory.fit_rate(curve, 0.0)
    assert fitted == pytest.approx(0.99, abs=1e-6)


def test_fit_rate_with_jitter():
    rng = np.random.default_rng(23)
    curve = synthetic_curve(0.995, 0.0, 600)
    jitter = 1.0 + 0.01 * (2 * rng.random(600) - 1)
    curve.smoothed_excess_risk = curve.smoothed_excess_risk * jitter
    fitted = theory.fit_rate(curve, 0.0)
    assert abs(fitted - 0.995) <= 1e-3


def test_fit_rate_flat_curve_is_insufficient():
    floor = 0.3
    curve = synthetic_curve(0.99, floor, 200, scale=0.0)  # flat at the floor
    with pytest.raises(InsufficientData):
        theory.fit_rate(curve, floor)


def test_fit_rate_respects_stride():
    curve = synthetic_curve(0.999, 0.0, 300, stride=50)
    fitted = theory.fit_rate(curve, 0.0)
    assert fitted == pytest.approx(0.999, abs=1e-6)


# ---------- global invariants ----------


def test_alpha_in_unit_interval_below_ceiling():
    rng = np.random.default_rng(24)
    for _ in range(200):
        c = float(rng.uniform(0.1, 10))
        eta = float(rng.uniform(0.01, 1.0)) * c
        k = theory.ProblemConstants(
            eta=eta,
            c=c,
            d=float(rng.uniform(0, 5)),
            beta2=float(rng.uniform(0, 50)),
            sigma2=float(rng.uniform(0, 50)),
        )
        ceiling = theory.step_size_ceiling(k)
        for frac in (1e-6, 0.1, 0.5, 0.99):
            alpha = theory.rate_alpha(frac * ceiling, k)
            assert 0.0 < alpha < 1.0

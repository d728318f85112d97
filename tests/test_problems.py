import functools
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from sgsmooth import data, engine, problems
from sgsmooth.errors import NumericError, trap_divergence
from sgsmooth.problems import GrayImage, Sample


def make_lasso(dim=6, delta=0.01, noise_var=0.01, w_true=None):
    if w_true is None:
        w_true = np.zeros(dim)
        w_true[0], w_true[1] = 1.0, -1.0
    return problems.LassoProblem(
        delta=delta, w_true=w_true, cov_h=np.eye(dim), noise_var=noise_var
    )


# ---------- soft threshold ----------


def test_soft_threshold_values():
    assert problems.soft_threshold(0.5, 0.002) == pytest.approx(0.498, abs=1e-15)
    assert problems.soft_threshold(0.001, 0.002) == 0.0
    assert problems.soft_threshold(-0.5, 0.002) == pytest.approx(-0.498, abs=1e-15)


def test_soft_threshold_vector_and_validation():
    np.testing.assert_allclose(
        problems.soft_threshold([1.0, -1.0, 0.0], 0.25), [0.75, -0.75, 0.0]
    )
    with pytest.raises(ValueError):
        problems.soft_threshold([1.0], -0.1)


# ---------- SVM ----------


def test_svm_subgradient_at_zero_is_negative_label_times_feature():
    p = problems.SvmProblem(rho=0.1, dim=3)
    h = np.array([1.0, 2.0, -1.0])
    g = p.instantaneous_subgradient(np.zeros(3), Sample(h, -1.0))
    np.testing.assert_allclose(g, h)  # -gamma*h with gamma=-1


def test_svm_subgradient_inactive_hinge_is_pure_regularizer():
    p = problems.SvmProblem(rho=0.1, dim=2)
    w = np.array([2.0, 0.0])
    s = Sample(np.array([1.0, 0.0]), 1.0)  # margin = 2 > 1
    np.testing.assert_allclose(p.instantaneous_subgradient(w, s), 0.1 * w)


def test_svm_subgradient_boundary_margin_is_active():
    p = problems.SvmProblem(rho=0.1, dim=2)
    w = np.array([1.0, 0.0])
    s = Sample(np.array([1.0, 0.0]), 1.0)  # margin exactly 1
    np.testing.assert_allclose(
        p.instantaneous_subgradient(w, s), 0.1 * w - s.h
    )


def test_svm_rejects_bad_label():
    p = problems.SvmProblem(rho=0.1, dim=2)
    with pytest.raises(ValueError):
        p.instantaneous_subgradient(np.zeros(2), Sample(np.zeros(2), 0.5))


def drawn_set(spec, seed, n, rho):
    """Frozen SVM set of n draws: its exact risk and subgradient are
    Monte-Carlo estimates of the stream's."""
    feats, labels = data.TwoClassGaussianSampler(spec, seed).draw_batch(n)
    return problems.SvmSampleSet(feats, labels, rho)


def test_svm_mc_subgradient_matches_analytic_mean_at_zero():
    # at w = 0 every margin is 0 <= 1, so the mean is -E[gamma h] = -m exactly
    m = np.array([0.8, -0.3, 0.5])
    spec = data.TwoClassGaussianSpec.symmetric(m)
    n = 40_000
    g = drawn_set(spec, 8, n, rho=0.05).true_subgradient(np.zeros(3))
    stderr = math.sqrt((1.0 + float(m @ m) / 3) / n)  # crude per-component scale
    np.testing.assert_allclose(g, -m, atol=4 * stderr + 0.01)


def test_svm_mc_subgradient_scaling_consistency():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.5, 0.5, 0.5]))
    w = np.array([0.2, 0.1, -0.3])
    small = drawn_set(spec, 21, 10_000, rho=0.05).true_subgradient(w)
    big = drawn_set(spec, 22, 40_000, rho=0.05).true_subgradient(w)
    # component std is O(1); combined standard error of the difference
    se = math.sqrt(1.0 / 10_000 + 1.0 / 40_000)
    assert np.max(np.abs(small - big)) <= 5 * se


def test_svm_risk_mc_at_zero_is_exactly_one():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([1.0, 0.0]))
    assert drawn_set(spec, 3, 500, rho=0.7).risk(np.zeros(2)) == 1.0


def test_svm_risk_mc_all_margins_large_leaves_only_regularizer():
    sset = problems.SvmSampleSet(np.tile([5.0, 0.0], (100, 1)), np.ones(100), rho=0.5)
    w = np.array([1.0, 0.0])  # margin = 5 > 1 for every sample
    assert sset.risk(w) == pytest.approx(0.5 * 0.5 * 1.0, abs=0)


def test_svm_empirical_minimizer_is_locally_optimal():
    rng = np.random.default_rng(42)
    spec = data.TwoClassGaussianSpec.symmetric(np.array([1.0, 0.5]))
    feats, labels = data.TwoClassGaussianSampler(spec, 12).draw_batch(3000)
    sset = problems.SvmSampleSet(feats, labels, rho=0.05)
    w_star = sset.minimize(4000)
    base = sset.risk(w_star)
    for _ in range(20):
        assert base <= sset.risk(w_star + 0.05 * rng.normal(size=2)) + 1e-9


def frozen_svm_set(n=5000, seed=11, rho=0.01):
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.75, 0.75, 0.75]))
    return drawn_set(spec, seed, n, rho)


def test_svm_duality_gap_bounds_every_risk_difference():
    # weak duality: the gap at w bounds risk(w) - risk(v) for every v,
    # including near-optimal v where the bound is tight
    sset = frozen_svm_set()
    rng = np.random.default_rng(3)
    points = [sset.minimize(cap) for cap in (1, 10, 100, 249, 1000, 100_000)]
    points += [points[-1] + scale * rng.normal(size=3) for scale in (1e-4, 1e-2, 1.0)]
    points += [rng.normal(size=3) for _ in range(4)]
    for w in points:
        gap = sset.duality_gap(w)
        assert gap >= 0.0
        for v in points:
            assert gap >= sset.risk(w) - sset.risk(v) - 1e-14


def test_svm_minimize_certifies_within_tolerance_before_cap(monkeypatch):
    sset = frozen_svm_set()
    calls = []
    real_gap = problems.SvmSampleSet.duality_gap

    def counted(self, w):
        calls.append(1)
        return real_gap(self, w)

    monkeypatch.setattr(problems.SvmSampleSet, "duality_gap", counted)
    res = sset.minimize(100_000, full_output=True)
    assert res.certified and 0.0 <= res.gap <= problems.ORACLE_GAP_TOL
    # checks come after 250, 500, 1000, ... steps; the cap would take nine
    assert res.iterations == 250 * 2 ** (len(calls) - 1) < 100_000
    assert len(calls) < 9
    np.testing.assert_array_equal(sset.minimize(100_000), res.w)


def tail_average_descent(sset, n_iters):
    # reference: steps 1/(rho (t+1)) from zero, averaging the second half
    w = np.zeros(sset.dim)
    w_avg = np.zeros(sset.dim)
    n_avg = 0
    for t in range(n_iters):
        active = (sset.signed @ w <= 1.0).astype(float)
        gsum = active @ sset._signed_f
        w -= (1.0 / (sset.rho * (t + 1))) * (sset.rho * w - gsum / sset.n)
        if t >= n_iters // 2:
            n_avg += 1
            w_avg += (w - w_avg) / n_avg
    return w_avg


def test_svm_minimize_without_certificate_returns_tail_average(monkeypatch):
    sset = frozen_svm_set(n=500)
    monkeypatch.setattr(problems, "ORACLE_GAP_TOL", -1.0)  # no gap certifies
    for cap in (200, 1000, 1500):
        res = sset.minimize(cap, full_output=True)
        np.testing.assert_array_equal(res.w, tail_average_descent(sset, cap))
        assert res.iterations == cap and not res.certified
        assert res.gap == sset.duality_gap(res.w)
    with pytest.raises(ValueError):
        sset.minimize(0)


class Shifted:
    """``problem`` in the coordinates v = w - ``origin``: a run from v = 0
    starts at w = ``origin``."""

    def __init__(self, problem, origin):
        self.problem, self.origin, self.dim = problem, origin, problem.dim

    def batch_kernel(self, rows):
        kernel = self.problem.batch_kernel(rows)
        return lambda V, H, y, out: kernel(V + self.origin, H, y, out)


def test_svm_negative_excess_risk_lies_within_certified_gap():
    # tiny steps from w* keep every record next to the minimum, where the
    # approximate w* makes some mean excess risks negative
    sset = frozen_svm_set(n=2000, seed=5)
    cert = sset.minimize(100_000, full_output=True)
    assert cert.certified
    oracle = engine.RiskOracle(lambda v: sset.risk(v + cert.w), np.zeros(sset.dim),
                               sset.risk(cert.w))
    config = engine.RunConfig(mu=1e-6, kappa=0.99, iterations=2000,
                              record_stride=100, seed=9, replications=3)
    results = engine.run_replications(
        Shifted(sset, cert.w), functools.partial(data.SetSampler, sset.signed, np.ones(sset.n)),
        config, oracle=oracle,
    )
    stats = engine.average_trajectories([r.trajectory for r in results])
    assert stats.excess_risk.min() < 0.0
    assert np.all(stats.excess_risk >= -cert.gap)
    assert np.all(stats.smoothed_excess_risk >= -cert.gap)


def assert_batch_rows_match(p, W, H, y, rows=None, batch_y=None):
    # subgradient_batch and a batch_kernel kernel read ``rows`` (default H) and
    # ``batch_y`` (default y); row r must equal the subgradient of
    # Sample(H[r], y[r]) bit for bit, the sign of every zero included, with
    # or without ``out``, and from a kernel whose work buffers a call on the
    # rows in reverse order left stale
    rows = H if rows is None else rows
    batch_y = y if batch_y is None else batch_y
    refs = [p.instantaneous_subgradient(W[r], Sample(H[r], y[r])) for r in range(W.shape[0])]
    out = np.full_like(W, np.nan)
    G = p.subgradient_batch(W, rows, batch_y)
    assert p.subgradient_batch(W, rows, batch_y, out=out) is out
    kernel = p.batch_kernel(W.shape[0])
    work = inspect.getclosurevars(kernel).nonlocals
    kernel(W, rows[::-1], batch_y[::-1], np.empty_like(W))
    stale = {name: work[name].tobytes() for name in ("mask", "residuals") if name in work}
    assert stale
    reused = np.full_like(W, np.nan)
    assert kernel(W, rows, batch_y, reused) is reused
    for got in (G, out, reused):
        assert got.shape == W.shape
        for g, ref in zip(got, refs):
            np.testing.assert_array_equal(g, ref)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(ref))
    # the hinge mask (SVM) or the residuals (LASSO) changed between the calls
    assert all(stale[name] != work[name].tobytes() for name in stale)


def test_svm_subgradient_batch_rows_equal_instantaneous():
    rng = np.random.default_rng(12)
    W = np.vstack([
        np.zeros(3),                   # w = 0: every margin is 0, hinge active
        [1.0, 0.0, 0.0],               # margin exactly 1, label +1: active
        [1.0, 0.0, 0.0],               # margin exactly 1, label -1: active
        [0.5, -0.25, 2.0],             # label -1
        [0.5, -0.25, 2.0],             # zero row: margin 0, active
        -np.zeros(3),                  # w = -0 with a zero row
        [2.0, -0.0, 0.5],              # margin 2, inactive: rho * w keeps -0
        rng.normal(size=(5, 3)),
    ])
    H = np.vstack([
        [1.0, 2.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.5, 2.0, 1.0],
        np.zeros(3), np.zeros(3), [1.0, -1.0, 0.0], rng.normal(size=(5, 3)),
    ])
    y = np.array([-1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    assert y[1] * (H[1] @ W[1]) == 1.0 and y[2] * (H[2] @ W[2]) == 1.0
    assert y[6] * (H[6] @ W[6]) == 2.0
    # the batch reads the set's signed rows; y is unused
    sset = problems.SvmSampleSet(H, y, 0.01)
    assert_batch_rows_match(sset, W, H, y, rows=sset.signed, batch_y=np.full_like(y, np.nan))
    G = sset.subgradient_batch(W[:3], sset.signed[:3], y[:3])
    np.testing.assert_array_equal(G[0], H[0])  # -gamma*h with gamma=-1
    np.testing.assert_array_equal(G[1], sset.rho * W[1] - H[1])
    np.testing.assert_array_equal(G[2], sset.rho * W[2] - H[1])


def test_svm_risk_and_subgradient_share_one_margin_pass_bit_for_bit():
    sset = frozen_svm_set(n=500, seed=4)
    rng = np.random.default_rng(15)
    W = np.vstack([np.zeros(3), -np.zeros(3), 3.0 * rng.normal(size=(40, 3))])
    # a point with margin exactly 1 on the first row: the indicator is active there
    h = sset.signed[0]
    W[2] = h / (h @ h)
    assert sset.signed[0] @ W[2] == 1.0
    for w in W:
        risk, g = sset.risk_and_subgradient(w)
        assert risk == sset.risk(w)
        ref = sset.true_subgradient(w)
        np.testing.assert_array_equal(g, ref)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(ref))
    p = make_lasso(dim=4)
    for w in 3.0 * rng.normal(size=(5, 4)):
        risk, g = p.risk_and_subgradient(w)
        assert risk == p.risk(w)
        np.testing.assert_array_equal(g, p.true_subgradient(w))


def test_svm_signed_rows_with_label_one_are_the_same_samples():
    # Sample(gamma h, +1) has the subgradient of Sample(h, gamma), bit for bit
    sset = frozen_svm_set(n=200, seed=3)
    rng = np.random.default_rng(14)
    for k, w in enumerate(rng.normal(size=(200, 3))):
        raw = sset.instantaneous_subgradient(w, Sample(sset.features[k], sset.labels[k]))
        signed = sset.instantaneous_subgradient(w, Sample(sset.signed[k], 1.0))
        np.testing.assert_array_equal(raw, signed)
        np.testing.assert_array_equal(np.signbit(raw), np.signbit(signed))


def test_lasso_subgradient_batch_rows_equal_instantaneous():
    p = make_lasso(dim=40, delta=0.01)
    rng = np.random.default_rng(13)
    W = rng.normal(size=(6, 40))
    W[0] = 0.0                         # sgn(0) = 0 on every coordinate
    W[1, ::3] = 0.0
    H = rng.normal(size=(6, 40))
    y = H @ p.w_true + 0.1 * rng.normal(size=6)
    W[2, 1] = -0.0
    assert_batch_rows_match(p, W, H, y)
    np.testing.assert_array_equal(p.subgradient_batch(W[:1], H[:1], y[:1])[0], -y[0] * H[0])


def test_mean_hinge_loss_equals_empirical_risk():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.5, -0.5]))
    feats, labels = data.TwoClassGaussianSampler(spec, 9).draw_batch(400)
    sset = problems.SvmSampleSet(feats, labels, rho=0.3)
    w = np.array([0.4, 0.2])
    # per-sample loss (rho/2)||w||^2 + max(0, 1 - gamma h.w), one sample at a time
    mean_loss = np.mean(
        [0.5 * 0.3 * (w @ w) + max(0.0, 1.0 - labels[k] * (feats[k] @ w)) for k in range(400)]
    )
    assert mean_loss == pytest.approx(sset.risk(w), rel=1e-12)


# ---------- LASSO ----------


def test_lasso_instantaneous_subgradient_at_zero():
    p = make_lasso(dim=2, delta=0.5, w_true=np.array([1.0, 1.0]))
    g = p.instantaneous_subgradient(np.zeros(2), Sample(np.array([1.0, 0.0]), 1.0))
    np.testing.assert_allclose(g, [-1.0, 0.0])  # sgn(0) = 0 contributes nothing


def test_lasso_instantaneous_subgradient_zero_residual():
    p = make_lasso(dim=3, delta=0.25, w_true=np.array([1.0, -2.0, 0.0]))
    h = np.array([0.5, 1.0, 2.0])
    s = Sample(h, float(h @ p.w_true))  # noiseless sample
    g = p.instantaneous_subgradient(p.w_true, s)
    np.testing.assert_allclose(g, 0.25 * np.sign(p.w_true), atol=1e-15)


def test_lasso_mc_mean_matches_true_subgradient():
    p = make_lasso(dim=5, delta=0.05, noise_var=0.04)
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    sampler = data.RegressionSampler(spec, 123)
    w = np.array([0.5, -0.2, 0.1, 0.0, -0.4])
    n = 100_000
    feats, targets = sampler.draw_batch(n)
    resid = targets - feats @ w
    ghat_mean = p.delta * np.sign(w) - (resid @ feats) / n
    g_true = p.true_subgradient(w)
    # componentwise 3 standard errors
    draws = p.delta * np.sign(w)[None, :] - resid[:, None] * feats
    stderr = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ghat_mean - g_true) <= 3 * stderr)


def test_lasso_true_subgradient_at_w_true():
    p = make_lasso(dim=4, delta=0.3, w_true=np.array([1.0, -2.0, 3.0, -4.0]))
    np.testing.assert_allclose(
        p.true_subgradient(p.w_true), 0.3 * np.sign(p.w_true), atol=1e-15
    )


def test_lasso_soft_threshold_point_is_stationary():
    p = make_lasso(dim=4, delta=0.1, w_true=np.array([1.0, -1.0, 0.5, 0.0]))
    w_star = problems.soft_threshold(p.w_true, p.delta)
    np.testing.assert_allclose(p.true_subgradient(w_star), np.zeros(4), atol=1e-15)


def test_lasso_true_subgradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    p = make_lasso(dim=5, delta=0.07, w_true=rng.normal(size=5))
    for _ in range(25):
        w = rng.normal(size=5)
        if np.min(np.abs(w)) < 0.05:
            continue  # stay away from the kinks
        g = p.true_subgradient(w)
        fd = np.empty(5)
        eps = 1e-5
        for j in range(5):
            e = np.zeros(5)
            e[j] = eps
            fd[j] = (p.risk(w + e) - p.risk(w - e)) / (2 * eps)
        np.testing.assert_allclose(g, fd, atol=1e-6)


def test_lasso_risk_closed_form_values():
    w_true = np.array([1.0, -1.0, 0.0])
    p = problems.LassoProblem(
        delta=1e-9, w_true=w_true, cov_h=np.eye(3), noise_var=0.04
    )
    # at w_true the quadratic part vanishes: risk = noise_var/2 + delta*||w||_1
    assert p.risk(w_true) == pytest.approx(0.02 + 1e-9 * 2.0, rel=1e-12)
    p2 = problems.LassoProblem(delta=0.3, w_true=w_true, cov_h=np.eye(3), noise_var=0.04)
    assert p2.risk(np.zeros(3)) == pytest.approx(0.5 * 2.0 + 0.02, rel=1e-12)
    # ||w - w_true||^2 = 0.25 + 1 + 4 and ||w||_1 = 2.5
    assert p2.risk(np.array([0.5, 0.0, -2.0])) == pytest.approx(
        0.5 * 5.25 + 0.02 + 0.3 * 2.5, rel=1e-12)


def test_lasso_risk_matches_monte_carlo():
    p = make_lasso(dim=4, delta=0.05, noise_var=0.09)
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    sampler = data.RegressionSampler(spec, 55)
    w = np.array([0.3, -0.8, 0.2, 0.0])
    n = 200_000
    feats, targets = sampler.draw_batch(n)
    sq = 0.5 * (targets - feats @ w) ** 2
    mc = sq.mean() + p.delta * np.abs(w).sum()
    stderr = sq.std(ddof=1) / math.sqrt(n)
    assert abs(mc - p.risk(w)) <= 3 * stderr


def test_lasso_optimum_basic_and_dead_zone():
    p = make_lasso(dim=4, delta=0.002, w_true=np.array([1.0, -1.0, 0.0, 0.0]))
    np.testing.assert_allclose(p.optimum(), [0.998, -0.998, 0.0, 0.0], atol=1e-15)
    p2 = make_lasso(dim=3, delta=2.0, w_true=np.array([1.0, -1.0, 0.5]))
    np.testing.assert_array_equal(p2.optimum(), np.zeros(3))


def test_lasso_optimum_coordinate_probes():
    p = make_lasso(dim=5, delta=0.05, w_true=np.array([1.0, -0.5, 0.2, 0.03, 0.0]))
    w_star = p.optimum()
    base = p.risk(w_star)
    step = 1e-4
    for j in range(5):
        e = np.zeros(5)
        e[j] = step
        assert base <= p.risk(w_star + e) + 1e-15
        assert base <= p.risk(w_star - e) + 1e-15


@pytest.mark.parametrize("big", [1e4, 1e5, 1e12, 1e300])
def test_lasso_optimum_accepts_a_large_w_true(big):
    # w_true - delta rounds by about an ulp of w_true, far above 1e-12 at 1e5
    p = make_lasso(dim=3, delta=0.002, w_true=np.array([big, -1.0, 0.001]))
    np.testing.assert_array_equal(p.optimum(), [big - 0.002, -0.998, 0.0])


@pytest.mark.parametrize("big", [1.0, 1e5, 1e12])
@pytest.mark.parametrize("coord", [0, 1])
def test_lasso_optimum_rejects_a_point_moved_by_1e_6_relative(monkeypatch, big, coord):
    real = problems.soft_threshold

    def moved(x, delta):
        w = real(x, delta)
        w[coord] *= 1.0 + 1e-6
        return w

    monkeypatch.setattr(problems, "soft_threshold", moved)
    p = make_lasso(dim=3, delta=0.002, w_true=np.array([big, -1.0, 0.001]))
    with pytest.raises(NumericError, match="on the support"):
        p.optimum()


def test_lasso_validation():
    with pytest.raises(ValueError):
        make_lasso(delta=0.0)


LINEAR_MODELS = {
    "LassoProblem": lambda w_true, cov, noise_var: problems.LassoProblem(
        delta=0.1, w_true=w_true, cov_h=cov, noise_var=noise_var),
    "RegressionStreamSpec": data.RegressionStreamSpec,
}

# (w_true, cov_h, noise_var) and the error both constructors raise
BAD_LINEAR_MODELS = {
    "scalar-w_true": ((1.0, np.eye(1), 0.1), "w_true must be a vector"),
    "2-D-w_true": ((np.zeros((2, 1)), np.eye(2), 0.1), "w_true must be a vector"),
    "negative-noise_var": ((np.zeros(2), np.eye(2), -0.1), "noise_var must be nonnegative"),
}


@pytest.mark.parametrize("build", LINEAR_MODELS.values(), ids=LINEAR_MODELS)
@pytest.mark.parametrize("args, message", BAD_LINEAR_MODELS.values(), ids=BAD_LINEAR_MODELS)
def test_lasso_linear_model_is_checked_alike(build, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)


NON_IDENTITY_COVARIANCES = {
    "spd": np.array([[2.0, 0.5], [0.5, 1.0]]),
    "non-symmetric": np.array([[1.0, 2.0], [0.0, 1.0]]),
    "minus-identity": -np.eye(2),
    "wrong-shape": np.eye(3),
    "one-entry-1+1e-15": np.diag([1.0 + 1e-15, 1.0]),
}


@pytest.mark.parametrize("build", LINEAR_MODELS.values(), ids=LINEAR_MODELS)
@pytest.mark.parametrize("cov", NON_IDENTITY_COVARIANCES.values(), ids=NON_IDENTITY_COVARIANCES)
def test_lasso_regressors_must_have_identity_covariance(build, cov):
    with pytest.raises(ValueError, match="cov_h"):
        build(np.zeros(2), cov, 0.1)


# ---------- total variation ----------


def tv_double_loop(pixels):
    rows, cols = pixels.shape
    total = 0.0
    for m in range(rows):
        for n in range(cols):
            if m + 1 < rows:
                total += abs(pixels[m, n] - pixels[m + 1, n])
            if n + 1 < cols:
                total += abs(pixels[m, n] - pixels[m, n + 1])
    return total


def test_tv_constant_image_is_zero():
    img = GrayImage(np.full((4, 4), 3.0), peak=255.0)
    assert problems.tv_value(img) == 0.0


def test_tv_2x2_hand_count():
    img = GrayImage(np.array([[0.0, 1.0], [0.0, 1.0]]), peak=1.0)
    assert problems.tv_value(img) == 2.0


def test_tv_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    pixels = rng.uniform(0, 255, size=(16, 16))
    img = GrayImage(pixels, peak=255.0)
    assert problems.tv_value(img) == pytest.approx(tv_double_loop(pixels), rel=1e-12)


def test_tv_invariants():
    rng = np.random.default_rng(18)
    pixels = rng.uniform(size=(8, 8))
    img = GrayImage(pixels, peak=1.0)
    assert problems.tv_value(img) > 0
    shifted = GrayImage(pixels + 5.0, peak=1.0)
    assert problems.tv_value(shifted) == pytest.approx(problems.tv_value(img), rel=1e-12)


def test_tv_step_fixed_point_on_constant_image():
    img = GrayImage(np.full((5, 5), 0.5), peak=1.0)
    out = problems.tv_subgradient_step(img, img, mu=0.1, lam=10.0)
    np.testing.assert_array_equal(out.pixels, img.pixels)


def test_tv_step_lambda_zero_is_pure_fidelity():
    rng = np.random.default_rng(19)
    img = GrayImage(rng.uniform(size=(6, 6)), peak=1.0)
    noisy = GrayImage(rng.uniform(size=(6, 6)), peak=1.0)
    out = problems.tv_subgradient_step(img, noisy, mu=0.25, lam=0.0)
    np.testing.assert_allclose(
        out.pixels, 0.75 * img.pixels + 0.25 * noisy.pixels, rtol=1e-12
    )


def test_tv_step_raised_interior_pixel_decreases():
    base = np.full((5, 5), 0.5)
    raised = base.copy()
    raised[2, 2] += 0.2
    img = GrayImage(raised, peak=1.0)
    noisy = GrayImage(raised.copy(), peak=1.0)  # fidelity term vanishes
    mu, lam = 0.01, 0.5
    out = problems.tv_subgradient_step(img, noisy, mu=mu, lam=lam)
    # all four sign terms are +1 at the raised pixel
    assert out.pixels[2, 2] == pytest.approx(raised[2, 2] - 4 * mu * lam, abs=1e-15)
    # each neighbor sees exactly one -1 sign term
    assert out.pixels[1, 2] == pytest.approx(0.5 + mu * lam, abs=1e-15)


def test_tv_step_dimension_mismatch():
    a = GrayImage(np.zeros((4, 4)), peak=1.0)
    b = GrayImage(np.zeros((4, 5)), peak=1.0)
    with pytest.raises(ValueError):
        problems.tv_subgradient_step(a, b, 0.1, 0.1)


def test_tv_step_is_true_subgradient_of_implemented_objective():
    # J(X) = 0.5 ||X - noisy||_F^2 + lam * tv_value(X) must satisfy the
    # subgradient inequality for the direction the step implements
    rng = np.random.default_rng(20)
    lam = 0.3
    noisy_px = rng.uniform(size=(7, 7))
    noisy = GrayImage(noisy_px, peak=1.0)

    def objective(px):
        return 0.5 * float(np.sum((px - noisy_px) ** 2)) + lam * problems.tv_value(
            GrayImage(px, peak=1.0)
        )

    for _ in range(100):
        x = rng.normal(size=(7, 7))
        y = rng.normal(size=(7, 7))
        img = GrayImage(x, peak=1.0)
        stepped = problems.tv_subgradient_step(img, noisy, mu=1.0, lam=lam)
        g = x - stepped.pixels  # mu = 1 recovers the subgradient
        lower = objective(x) + float(np.sum(g * (y - x)))
        assert objective(y) >= lower - 1e-9


def tv_sign_sum_reference(p):
    # the float np.sign form the int8 comparison kernel replaces
    with np.errstate(over="ignore"):  # +-max differences overflow to +-inf
        down = np.sign(p[1:, :] - p[:-1, :])
        right = np.sign(p[:, 1:] - p[:, :-1])
    g = np.zeros_like(p)
    g[1:, :] += down
    g[:-1, :] -= down
    g[:, 1:] += right
    g[:, :-1] -= right
    return g


def tv_sign_sum_cases():
    rng = np.random.default_rng(21)
    tiny = np.finfo(float).smallest_subnormal
    big = np.finfo(float).max
    extremes = np.array([0.0, -0.0, tiny, -tiny, np.finfo(float).tiny, 1.0,
                         np.nextafter(1.0, 2.0), big, -big])
    return {
        "integer-ties": rng.integers(0, 3, size=(17, 23)).astype(float),
        "zeros-subnormals-max": rng.choice(extremes, size=(19, 13)),
        "normals": rng.normal(size=(31, 29)),
        "2x2": np.array([[1.0, -0.0], [0.0, 5e-324]]),
    }


@pytest.mark.parametrize("name", sorted(tv_sign_sum_cases()))
def test_tv_sign_sum_equals_float_sign_reference(name):
    # every row band [lo, hi), read through its halo rows, against the
    # reference rows; a band with spare buffer rows must not mind them
    p = tv_sign_sum_cases()[name]
    ref = tv_sign_sum_reference(p)
    height, width = p.shape
    for lo in range(height):
        for hi in range(lo + 1, height + 1):
            buf = problems.TvBuffers.allocate(hi - lo + lo % 2, width)
            got = problems._tv_sign_sum_rows(p, lo, hi, buf, lo % 2)
            assert np.array_equal(got, ref[lo:hi]), (lo, hi)
            assert np.abs(got).max() <= 4


def test_tv_step_pixels_are_float64_and_match_reference():
    rng = np.random.default_rng(22)
    p = rng.uniform(size=(6, 5))
    noisy = rng.uniform(size=(6, 5))
    # an integer lam must not wrap in the int8 sign sum
    out = problems.tv_subgradient_step(GrayImage(p, peak=1.0), GrayImage(noisy, peak=1.0),
                                       mu=0.1, lam=100)
    assert out.pixels.dtype == np.float64
    expected = p - 0.1 * ((p - noisy) + 100.0 * tv_sign_sum_reference(p))
    assert np.array_equal(out.pixels, expected)


@pytest.mark.parametrize("band_rows", [1, 7, None])
@pytest.mark.parametrize("name", sorted(tv_sign_sum_cases()))
def test_tv_subgradient_step_bands_equal_whole_image_formula(monkeypatch, name, band_rows):
    # bands of one row, of seven rows with a shorter last band, and the
    # default (one band at these sizes), on zeros, subnormals and +-max
    p = tv_sign_sum_cases()[name]
    height, width = p.shape
    if band_rows is not None:
        monkeypatch.setattr(problems, "TV_BAND_PIXELS", band_rows * width)
    assert len(problems.tv_bands(height, width)) == -(-height // (band_rows or height))
    noisy = 0.5 * p
    out = problems.tv_subgradient_step(GrayImage(p, peak=1.0), GrayImage(noisy, peak=1.0),
                                       mu=0.05, lam=0.3)
    expected = p - 0.05 * ((p - noisy) + 0.3 * tv_sign_sum_reference(p))
    assert np.array_equal(out.pixels, expected)


def test_tv_subgradient_step_holds_one_band_of_buffers():
    # the step's traced peak is its output image plus one band's buffers,
    # with room for a few Python objects; whole-image buffers would add 4 MiB
    height, width = 512, 768
    img = GrayImage(np.random.default_rng(23).uniform(size=(height, width)), peak=1.0)
    bands = problems.tv_bands(height, width)
    assert len(bands) > 1
    band_bytes = sum(a.nbytes for a in problems.TvBuffers.for_bands(bands, width))
    tracemalloc.start()
    try:
        out = problems.tv_subgradient_step(img, img, mu=0.01, lam=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.pixels.nbytes + band_bytes + 64 * 1024


def test_tv_step_bands_rejects_a_non_finite_band():
    # under the trap a band's overflow raises before that band is yielded;
    # the bands above it already hold the next iterate
    p = np.zeros((6, 4))
    p[4, 1] = 1.0  # rows 3..5 see it: bands (2, 4) and (4, 6) overflow
    bands = [(0, 2), (2, 4), (4, 6)]
    buf = problems.TvBuffers.for_bands(bands, 4)
    done = []
    with pytest.raises(NumericError, match="^overflow encountered in multiply: band$"):
        with trap_divergence("band"):
            for band in problems.tv_step_bands(p, np.zeros((6, 4)), 1e308, 10.0, bands, buf):
                done.append(band)
    assert done == [(0, 2)]
    assert not p[:2].any()


def test_tv_step_bands_writes_in_place_one_band_late():
    # every band reads the old iterate although the bands above it are
    # already written; each band is yielded once, in order
    p = tv_sign_sum_cases()["normals"]
    noisy = np.random.default_rng(27).normal(size=p.shape)
    expected = p - 0.1 * ((p - noisy) + 0.3 * tv_sign_sum_reference(p))
    bands = [(0, 1), (1, 3), (3, 4), (4, 11), (11, 31)]
    got = p.copy()
    yielded = list(problems.tv_step_bands(got, noisy, 0.1, 0.3, bands,
                                          problems.TvBuffers.for_bands(bands, p.shape[1])))
    assert yielded == bands
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("lo, hi, bands", [
    (0, 31, [(0, 31)]), (5, 6, [(5, 6)]), (4, 20, [(4, 9), (9, 10), (10, 20)]),
    (0, 12, [(0, 7), (7, 12)]), (19, 31, [(19, 20), (20, 31)]),
])
def test_tv_step_bands_reads_the_given_halo_rows(lo, hi, bands):
    # rows [lo, hi) step as in the whole image although the rows around
    # them in p are already overwritten: the halo rows come from above/below
    p = tv_sign_sum_cases()["normals"]
    noisy = np.random.default_rng(28).normal(size=p.shape)
    expected = p - 0.1 * ((p - noisy) + 0.3 * tv_sign_sum_reference(p))
    got = p.copy()
    got[:lo] = got[hi:] = np.nan
    above = p[lo - 1].copy() if lo else None
    below = p[hi].copy() if hi < len(p) else None
    buf = problems.TvBuffers.for_bands(bands, p.shape[1])
    assert list(problems.tv_step_bands(got, noisy, 0.1, 0.3, bands, buf, above, below)) == bands
    assert np.array_equal(got[lo:hi], expected[lo:hi])


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((1, 5)), peak=1.0)
    with pytest.raises(NumericError):
        GrayImage(np.full((3, 3), np.inf), peak=1.0)
    with pytest.raises(ValueError):
        GrayImage(np.zeros((3, 3)), peak=0.0)

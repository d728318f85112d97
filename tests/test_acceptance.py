"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two streaming
fixtures are the expensive parts (about a minute each on two cores); their
wall time is printed for reference but is not part of pass/fail.  Criteria 7
and 8a need external datasets and are skipped unless the environment
variables named in their skip reasons point at local copies.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sgsmooth import cli, data, engine, problems, theory

SEED = 20260811


def report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------- fixtures ----------


@pytest.fixture(scope="module")
def lasso_experiment():
    """Flagship sparse-recovery run: mu=0.001, delta=0.002, M=100, 50 x 200k."""
    dim = 100
    w_true = np.zeros(dim)
    w_true[0], w_true[1] = 1.0, -1.0
    p = problems.LassoProblem(
        delta=0.002, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01
    )
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    w_star = p.optimum()
    oracle = engine.RiskOracle(p.risk, w_star, p.risk(w_star))
    config = engine.RunConfig(
        mu=0.001,
        kappa=0.999,
        iterations=200_000,
        record_stride=250,
        seed=SEED,
        replications=50,
    )
    t0 = time.perf_counter()
    results = engine.run_replications(
        p,
        functools.partial(data.make_sampler, spec),
        config,
        oracle=oracle,
        workers=min(os.cpu_count() or 1, 4),
    )
    elapsed = time.perf_counter() - t0
    stats = engine.average_trajectories([r.trajectory for r in results])
    a_est = theory.estimate_lasso_a(p, 100_000, seed=SEED + 1)
    return {
        "problem": p,
        "config": config,
        "stats": stats,
        "w_star": w_star,
        "a_est": a_est,
        "constants_mc": theory.lasso_constants(p, a_est.value, w_star=w_star),
        "constants_gauss": theory.lasso_constants(
            p, theory.lasso_gaussian_noise_modulus(p), w_star=w_star
        ),
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def svm_experiment():
    """Frozen two-Gaussian SVM set with a deterministic full-risk minimizer."""
    rho, mu = 0.01, 0.01
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.75, 0.75, 0.75]))
    feats, labels = data.TwoClassGaussianSampler(spec, SEED + 2).draw_batch(100_000)
    sset = problems.SvmSampleSet(feats, labels, rho)
    t0 = time.perf_counter()
    w_star = sset.minimize(100_000)
    oracle_elapsed = time.perf_counter() - t0
    tight = theory.svm_tight_bound(
        mu, rho, float(w_star @ w_star), sset.trace_second_moment
    )
    oracle = engine.RiskOracle(sset.risk, w_star, sset.risk(w_star))
    config = engine.RunConfig(
        mu=mu,
        kappa=tight.alpha,  # the problem's own contraction factor
        iterations=120_000,
        record_stride=2_000,
        seed=SEED,
        replications=8,
    )
    t0 = time.perf_counter()
    results = engine.run_replications(
        sset,
        functools.partial(data.SetSampler, sset.signed, np.ones_like(labels)),
        config,
        oracle=oracle,
        workers=min(os.cpu_count() or 1, 4),
    )
    run_elapsed = time.perf_counter() - t0
    stats = engine.average_trajectories([r.trajectory for r in results])
    return {
        "set": sset,
        "config": config,
        "stats": stats,
        "w_star": w_star,
        "tight": tight,
        "elapsed": oracle_elapsed + run_elapsed,
    }


# ---------- criterion 1: steady-state excess-risk bound (LASSO) ----------


def test_criterion_1_lasso_steady_state_bound(lasso_experiment):
    exp = lasso_experiment
    p, cfg = exp["problem"], exp["config"]
    gap = p.w_true - exp["w_star"]
    bound = (
        4.0 * cfg.mu * p.delta**2 * p.dim
        + 0.5 * cfg.mu * p.noise_var * p.trace
        + cfg.mu * exp["a_est"].value * float(gap @ gap)
    )
    # the same number must come out of the generic steady-state formula
    assert bound == pytest.approx(
        theory.steady_state_bounds(cfg.mu, exp["constants_mc"]).excess_risk, rel=1e-12
    )
    final = float(exp["stats"].smoothed_excess_risk[-1])
    ok = final <= bound and final > 0.01 * bound
    report(
        1,
        ok,
        f"final smoothed excess risk {final:.6g} vs bound {bound:.6g} "
        f"(floor guard {0.01 * bound:.3g}); 50 reps x {cfg.iterations} iters "
        f"in {exp['elapsed']:.1f} s (target 120 s)",
    )


# ---------- criterion 2: finite-horizon envelope ----------


def _envelope_violations(stats, bound_at):
    violations = 0
    worst_margin = math.inf
    for row, i in enumerate(stats.iterations):
        # the smoothed iterate after i updates combines i + 1 raw iterates
        allowed = bound_at(int(i) + 1) + 3.0 * stats.smoothed_excess_risk_stderr[row]
        margin = allowed - stats.smoothed_excess_risk[row]
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            violations += 1
    return violations, worst_margin


def test_criterion_2_finite_horizon_envelope(lasso_experiment, svm_experiment):
    lasso = lasso_experiment
    k = lasso["constants_gauss"]
    msd0 = float(lasso["w_star"] @ lasso["w_star"])  # runs start at zero
    mu = lasso["config"].mu
    viol_lasso, worst_lasso = _envelope_violations(
        lasso["stats"],
        lambda h: theory.finite_horizon_bound(mu, k, h, msd0),
    )

    svm = svm_experiment
    tight = svm["tight"]
    svm_mu = svm["config"].mu
    svm_msd0 = float(svm["w_star"] @ svm["w_star"])
    viol_svm, worst_svm = _envelope_violations(
        svm["stats"],
        lambda h: theory.finite_horizon_envelope(
            svm_mu, tight.alpha, tight.bound, h, svm_msd0
        ),
    )
    n_records = lasso["stats"].iterations.size + svm["stats"].iterations.size
    report(
        2,
        viol_lasso == 0 and viol_svm == 0,
        f"0 required, {viol_lasso}+{viol_svm} observed over {n_records} records "
        f"(worst margins: lasso {worst_lasso:.3g}, svm {worst_svm:.3g})",
    )


# ---------- criterion 3: linear-rate evidence ----------


def test_criterion_3_linear_rate(lasso_experiment):
    exp = lasso_experiment
    stats, cfg = exp["stats"], exp["config"]
    k = exp["constants_gauss"]
    alpha = theory.rate_alpha(cfg.mu, k)
    floor = theory.steady_state_bounds(cfg.mu, k).excess_risk
    fitted = theory.fit_rate(stats, floor)
    ok_rate = 0.99 <= fitted <= alpha + 0.0005
    below = stats.iterations[stats.smoothed_excess_risk <= 2.0 * floor]
    reach = int(below[0]) if below.size else None
    budget = 10.0 / (1.0 - alpha)
    ok_reach = reach is not None and reach <= budget
    report(
        3,
        ok_rate and ok_reach,
        f"fitted alpha {fitted:.6f} in [0.99, {alpha + 0.0005:.6f}]; "
        f"reached 2x steady bound at iteration {reach} <= {budget:.0f}",
    )


# ---------- criterion 4: SVM steady-state bound ----------


def test_criterion_4_svm_tight_bound(svm_experiment):
    exp = svm_experiment
    final = float(exp["stats"].smoothed_excess_risk[-1])
    bound = exp["tight"].bound
    report(
        4,
        final <= bound,
        f"final smoothed excess empirical risk {final:.6g} vs bound {bound:.6g} "
        f"(alpha {exp['tight'].alpha!r}); oracle + runs took {exp['elapsed']:.1f} s "
        f"(target 120 s)",
    )


# ---------- criterion 5: assumption suites through the verify command ----------


LASSO_VERIFY_CONFIG = f"""
[problem]
kind = lasso
dim = 100
delta = 0.002
noise_var = 0.01
w_true = 0:1.0 1:-1.0
a_mc_samples = 100000

[run]
mu = 0.001
kappa = 0.999
seed = {SEED}

[verify]
pairs = 10000
noise_samples = 20000
probes = 5
seed = 4
"""

SVM_VERIFY_CONFIG = f"""
[problem]
kind = svm
rho = 0.01
mean = 0.75,0.75,0.75
train_size = 50000
oracle_iterations = 20000

[run]
mu = 0.01
kappa = auto
seed = {SEED}

[verify]
pairs = 10000
noise_samples = 20000
probes = 5
seed = 1
"""


def test_criterion_5_assumption_suites(tmp_path, capsys):
    lasso_cfg = tmp_path / "lasso.ini"
    lasso_cfg.write_text(LASSO_VERIFY_CONFIG)
    svm_cfg = tmp_path / "svm.ini"
    svm_cfg.write_text(SVM_VERIFY_CONFIG)
    rc_lasso = cli.main(["verify", "--config", str(lasso_cfg)])
    rc_svm = cli.main(["verify", "--config", str(svm_cfg)])
    out = capsys.readouterr().out
    passes = out.count("PASS")
    fails = out.count("FAIL")
    report(
        5,
        rc_lasso == 0 and rc_svm == 0 and fails == 0 and passes == 9,
        f"verify exit codes ({rc_lasso}, {rc_svm}); {passes} checks passed, "
        f"{fails} failed (subgradient inequality, affine-Lipschitz, noise "
        f"moments, strong monotonicity)",
    )


# ---------- criterion 6: smoothing algebra ----------


def test_criterion_6_smoothing_algebra():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 1001))
        kappa = float(rng.uniform(0.0, 0.999))
        iterates = rng.normal(size=(n + 1, int(rng.integers(1, 5))))
        state = engine.init_smoothing(iterates[0], kappa)
        for w in iterates[1:]:
            state = engine.smoothing_update(state, w)
        direct = engine.weighted_average_direct(iterates, kappa)
        denom = np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(np.max(np.abs(state.w_bar - direct) / denom)))
    ok_equiv = worst <= 1e-10

    ok_limit = True
    for kappa in (0.5, 0.9, 0.99, 0.999):
        state = engine.init_smoothing(np.zeros(1), kappa)
        for _ in range(int(40.0 / (1.0 - kappa)) + 1):
            state = engine.smoothing_update(state, np.zeros(1))
        ok_limit &= abs(state.s - 1.0 / (1.0 - kappa)) <= 1e-9

    iterates = rng.normal(size=(64, 3))
    state = engine.init_smoothing(iterates[0], 0.0)
    for w in iterates[1:]:
        state = engine.smoothing_update(state, w)
    ok_last = bool(np.array_equal(state.w_bar, iterates[-1]))

    report(
        6,
        ok_equiv and ok_limit and ok_last,
        f"recursion vs direct worst relative error {worst:.3g} (<= 1e-10); "
        f"S -> 1/(1-kappa) within 1e-9; kappa=0 returns the last iterate exactly",
    )


# ---------- criterion 7: Adult dataset (conditional) ----------


@pytest.mark.skipif(
    not (os.environ.get("SGSMOOTH_ADULT_TRAIN") and os.environ.get("SGSMOOTH_ADULT_TEST")),
    reason="set SGSMOOTH_ADULT_TRAIN / SGSMOOTH_ADULT_TEST to LIBSVM files",
)
def test_criterion_7_adult_single_pass(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = cli.main([
        "svm-train",
        "--train", os.environ["SGSMOOTH_ADULT_TRAIN"],
        "--test", os.environ["SGSMOOTH_ADULT_TEST"],
        "--rho", "2e-3", "--mu", "0.05", "--epochs", "1",
        "--seed", str(SEED), "--out", str(tmp_path / "adult"),
    ])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0, out
    accuracy = float(out.split("test accuracy = ")[1].split()[0])
    report(
        7,
        accuracy >= 0.80,
        f"single-pass test accuracy {accuracy:.4f} >= 0.80 in {elapsed:.1f} s "
        f"(target 60 s)",
    )


# ---------- criterion 8: TV denoising ----------


def test_criterion_8_synthetic_denoising_gain(tmp_path, capsys):
    # unconditional substitute: piecewise-constant 64x64 image, noise std 0.1
    # in [0,1] units; the 3 dB threshold was fixed by a one-off parameter sweep
    px = np.full((64, 64), 64.0)
    px[:32, :] = 192.0
    px[40:56, 8:24] = 160.0
    clean_path = tmp_path / "clean.pgm"
    data.write_pgm(problems.GrayImage(px, peak=255.0), clean_path)
    t0 = time.perf_counter()
    rc = cli.main([
        "denoise", "--clean", str(clean_path), "--noise-std", "0.1",
        "--lam", "0.08", "--mu", "0.002", "--iterations", "300",
        "--seed", str(SEED), "--out", str(tmp_path / "out"),
    ])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0, out
    gain = float(out.split("(gain ")[1].split(" dB")[0])
    report(
        8,
        gain >= 3.0,
        f"synthetic 64x64 PSNR gain {gain:+.2f} dB >= 3 dB in {elapsed:.1f} s "
        f"(target 30 s)",
    )


KODAK_REFERENCE_DB = {
    "kodim1": 25.19,
    "kodim5": 25.18,
    "kodim7": 29.43,
    "kodim8": 24.59,
    "kodim11": 27.80,
    "kodim14": 30.32,
    "kodim15": 30.32,
    "kodim17": 29.38,
    "kodim19": 27.53,
    "kodim21": 27.29,
}


@pytest.mark.skipif(
    not os.environ.get("SGSMOOTH_KODAK_DIR"),
    reason="set SGSMOOTH_KODAK_DIR to a directory of grayscale kodimNN.pgm files",
)
def test_criterion_8_kodak_reference_values(tmp_path, capsys):
    directory = Path(os.environ["SGSMOOTH_KODAK_DIR"])
    checked = []
    for name, expected in KODAK_REFERENCE_DB.items():
        candidates = [directory / f"{name}.pgm", directory / f"kodim{int(name[5:]):02d}.pgm"]
        path = next((c for c in candidates if c.exists()), None)
        if path is None:
            continue
        rc = cli.main([
            "denoise", "--clean", str(path), "--noise-std", "0.1",
            "--lam", "0.08", "--mu", "0.002", "--iterations", "300",
            "--seed", str(SEED), "--out", str(tmp_path / name),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        denoised_db = float(out.split("denoised=")[1].split(" dB")[0])
        checked.append((name, denoised_db, expected))
    if not checked:
        pytest.skip("no kodim PGM files found in SGSMOOTH_KODAK_DIR")
    bad = [(n, got, want) for n, got, want in checked if abs(got - want) > 1.0]
    report(
        8.1,
        not bad,
        f"{len(checked)} images within +-1.0 dB of reference" if not bad else f"out of tolerance: {bad}",
    )


# ---------- criterion 9: bound arithmetic ----------


def test_criterion_9_bound_arithmetic():
    checks = []

    tight = theory.svm_tight_bound(0.05, 2e-3, 4.0, 123.0)
    checks.append(abs(tight.alpha - 0.99980002) <= 1e-12 * 0.99980002)
    # mu (rho^2 ||w*||^2 + rho + Tr/2) by hand
    checks.append(abs(tight.bound - 0.05 * (4e-6 * 4.0 + 2e-3 + 61.5)) <= 1e-12 * tight.bound)

    dim = 100
    w_true = np.zeros(dim)
    w_true[0], w_true[1] = 1.0, -1.0
    p = problems.LassoProblem(delta=0.002, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01)
    k = theory.lasso_constants(p, 0.0)
    checks.append(abs(k.f2 - 0.0032) <= 1e-12 * 0.0032)
    checks.append(abs(k.d - 0.04) <= 1e-12 * 0.04)

    k1 = theory.ProblemConstants(eta=1.0, c=1.0, d=0.0, beta2=0.0, sigma2=0.0)
    checks.append(abs(theory.rate_alpha(0.001, k1) - 0.999002) <= 1e-12 * 0.999002)
    checks.append(abs(theory.step_size_ceiling(k1) - 0.5) <= 1e-12 * 0.5)

    k2 = theory.ProblemConstants(eta=1.0, c=1.0, d=0.04, beta2=0.0, sigma2=1.0)
    ss = theory.steady_state_bounds(0.001, k2)
    checks.append(abs(ss.excess_risk - 0.001 * 1.0032 / 2) <= 1e-12 * ss.excess_risk)
    checks.append(abs(ss.msd - 0.001 * 1.0032) <= 1e-12 * ss.msd)

    svm_k = theory.svm_constants(2e-3, 123.0)
    checks.append(abs(svm_k.d - 2 * math.sqrt(123.0)) <= 1e-12 * svm_k.d)
    checks.append(svm_k.sigma2 == 123.0)

    report(
        9,
        all(checks),
        f"{sum(checks)}/{len(checks)} hand-computed rate/bound values matched "
        f"to 1e-12 relative",
    )

"""Experiment runner: ``sgsmooth run | verify | denoise | svm-train``.

Experiments are described by flat INI files (see the shipped ``configs/``
directory and the README for the key reference).  Exit codes: 0 success,
1 property/verification failure, 2 usage or configuration error, 3 I/O error.
"""

import argparse
import configparser
import contextlib
import functools
import math
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import data, engine, problems, theory
from .errors import (
    ConfigError,
    FormatError,
    InsufficientData,
    NumericError,
    ParseError,
    StreamExhausted,
    UnsupportedConfiguration,
    trap_divergence,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

CSV_HEADER = "iteration,excess_risk_raw,excess_risk_smoothed,msd,bound"


# ---------- config handling ----------


# the keys each section may carry: [problem] takes both kinds' keys, and
# a_mc_samples is accepted and ignored since a is exact at identity covariance
_KNOWN_KEYS = {
    "problem": {"kind", "dim", "delta", "noise_var", "w_true", "a_mc_samples", "rho", "mean",
                "cov_scale", "prior_pos", "train_size", "oracle_iterations"},
    "run": {"mu", "kappa", "iterations", "record_stride", "seed", "replications"},
    "verify": {"pairs", "noise_samples", "probes", "scale", "seed"},
    "output": {"dir"},
}


def _load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is malformed: {exc}") from None
    if not read:
        raise FileNotFoundError(f"config file {path!r} not found")
    for section in parser.sections():
        for key in parser.options(section):
            if key not in _KNOWN_KEYS.get(section, ()):
                raise ConfigError(f"[{section}] {key} is not a known key")
    return parser


def _finite(section, key, value, raw):
    # NaN fails every comparison, so no range check after this one can catch it
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _get(cfg, section, key, cast, default=None, required=False):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    try:
        raw = cfg.get(section, key)
    except configparser.Error as exc:  # e.g. a bare '%' fails interpolation
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    try:
        val = cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    if cast is float:
        _finite(section, key, val, raw)
    return val


def _positive(cfg, section, key, cast, default=None, required=False):
    val = _get(cfg, section, key, cast, default=default, required=required)
    if val is not None and val <= 0:
        raise ConfigError(f"[{section}] {key} must be positive, got {val}")
    return val


@contextlib.contextmanager
def _too_large(what):
    # numpy refuses a size past the address space at once, with MemoryError
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"{what} is too large: {exc}") from None


def _parse_sparse_vector(raw, dim):
    """Parse 'idx:val idx:val ...' (0-based) into a dense length-dim vector."""
    vec = np.zeros(dim)
    seen = set()
    for tok in raw.split():
        try:
            idx_text, val_text = tok.split(":", 1)
            idx = int(idx_text)
            val = float(val_text)
        except ValueError:
            raise ConfigError(f"[problem] w_true: cannot parse entry {tok!r}") from None
        if not 0 <= idx < dim:
            raise ConfigError(f"[problem] w_true: index {idx} outside 0..{dim - 1}")
        if idx in seen:
            raise ConfigError(f"[problem] w_true: index {idx} given twice")
        seen.add(idx)
        vec[idx] = val
    return _finite("problem", "w_true", vec, raw)


def _run_seed(cfg, seed_override):
    seed = _get(cfg, "run", "seed", int, default=0)
    _require_count("[run] seed", seed)
    if seed_override is not None:
        _require_count("--seed", seed_override)
        seed = seed_override
    return seed


def _run_config(cfg, seed, constants):
    # kappa = auto is the rate that the problem's constants give at [run] mu
    mu = _positive(cfg, "run", "mu", float, required=True)
    kappa = _smoothing_factor("[run] kappa", _get(cfg, "run", "kappa", str, default="auto"),
                              theory.rate_alpha(mu, constants), f"[run] mu = {mu!r}")
    try:
        return engine.RunConfig(
            mu=mu,
            kappa=kappa,
            iterations=_get(cfg, "run", "iterations", int, default=10_000),
            record_stride=_positive(cfg, "run", "record_stride", int, default=100),
            seed=seed,
            replications=_positive(cfg, "run", "replications", int, default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from None


class _LassoBundle:
    """Problem, stream factory, oracle and constants for a LASSO experiment."""

    kind = "lasso"

    def __init__(self, cfg, seed):
        dim = _positive(cfg, "problem", "dim", int, required=True)
        delta = _positive(cfg, "problem", "delta", float, required=True)
        noise_var = _get(cfg, "problem", "noise_var", float, default=0.01)
        if noise_var < 0:
            raise ConfigError(f"[problem] noise_var must be nonnegative, got {noise_var}")
        w_true_raw = _get(cfg, "problem", "w_true", str, required=True)
        w_true = _parse_sparse_vector(w_true_raw, dim)
        self.problem = problems.LassoProblem(
            delta=delta, w_true=w_true, cov_h=np.eye(dim), noise_var=noise_var
        )
        self.spec = data.RegressionStreamSpec(
            w_true=w_true, cov_h=self.problem.cov_h, noise_var=noise_var
        )
        self.stream_factory = functools.partial(data.make_sampler, self.spec)
        self.w_star = self.problem.optimum()
        self.w_star_sq = float(self.w_star @ self.w_star)
        self.oracle = engine.RiskOracle(
            risk=self.problem.risk,
            w_star=self.w_star,
            risk_star=self.problem.risk(self.w_star),
        )
        self.a_spectral = theory.lasso_spectral_noise_modulus(self.problem)
        self.a_gaussian = theory.lasso_gaussian_noise_modulus(self.problem)
        self.constants_spectral = theory.lasso_constants(
            self.problem, self.a_spectral, w_star=self.w_star
        )
        # Exact modulus for Gaussian regressors; unlike the distribution-free
        # spectral modulus it keeps moderate step sizes below the stability
        # ceiling, so rate-dependent outputs (auto kappa, bound column) use it.
        self.constants = theory.lasso_constants(
            self.problem, self.a_gaussian, w_star=self.w_star
        )

    def summary_lines(self, mu):
        lines = [
            f"problem = lasso (dim={self.problem.dim}, delta={self.problem.delta}, "
            f"noise_var={self.problem.noise_var}, identity covariance)",
            f"w_star = soft_threshold(w_true, delta); ||w_star||^2 = {self.w_star_sq!r}",
            f"noise modulus a (exact spectral) = {self.a_spectral!r}",
            f"noise modulus a (exact Gaussian) = {self.a_gaussian!r}",
        ]
        for tag, k in (("spectral-modulus", self.constants_spectral),
                       ("gaussian-modulus", self.constants)):
            lines += _constants_lines(tag, k, mu)
        lines.append("rate-dependent outputs (auto kappa, bound column) use the "
                     "gaussian-modulus constants")
        return lines


class _SvmBundle:
    """Frozen-set SVM experiment: exact empirical risk and minimizer."""

    kind = "svm"

    def __init__(self, cfg, seed):
        rho = _positive(cfg, "problem", "rho", float, required=True)
        mean_raw = _get(cfg, "problem", "mean", str, required=True)
        try:
            mean = np.array([float(tok) for tok in mean_raw.split(",")])
        except ValueError:
            raise ConfigError(f"[problem] mean: cannot parse {mean_raw!r}") from None
        _finite("problem", "mean", mean, mean_raw)
        cov_scale = _positive(cfg, "problem", "cov_scale", float, default=1.0)
        prior_pos = _get(cfg, "problem", "prior_pos", float, default=0.5)
        if not 0.0 <= prior_pos <= 1.0:
            raise ConfigError(f"[problem] prior_pos must lie in [0, 1], got {prior_pos}")
        train_size = _positive(cfg, "problem", "train_size", int, default=100_000)
        oracle_iters = _positive(cfg, "problem", "oracle_iterations", int, default=100_000)

        self.spec = data.TwoClassGaussianSpec.symmetric(
            mean, cov_scale=cov_scale, prior_pos=prior_pos
        )
        sampler = data.TwoClassGaussianSampler(self.spec, seed + 10**6)
        feats, labels = sampler.draw_batch(train_size)
        self.problem = problems.SvmSampleSet(feats, labels, rho)
        # signed rows with label +1: the same samples in the form subgradient_batch reads
        self.stream_factory = functools.partial(
            data.SetSampler, self.problem.signed, np.ones_like(labels)
        )
        self.oracle_cap = oracle_iters
        self.certificate = self.problem.minimize(oracle_iters, full_output=True)
        self.w_star = self.certificate.w
        self.w_star_sq = float(self.w_star @ self.w_star)
        self.oracle = engine.RiskOracle(
            risk=self.problem.risk,
            w_star=self.w_star,
            risk_star=self.problem.risk(self.w_star),
        )
        self.constants = theory.svm_constants(rho, self.problem.trace_second_moment)

    def summary_lines(self, mu):
        sset = self.problem
        tight = theory.svm_tight_bound(mu, sset.rho, self.w_star_sq, sset.trace_second_moment)
        lines = [
            f"problem = svm (dim={sset.dim}, rho={sset.rho}, frozen set n={sset.n})",
            f"empirical Tr(R_h) = {sset.trace_second_moment!r}",
            f"||w_star||^2 = {self.w_star_sq!r} (deterministic full-risk descent)",
            _certificate_line(self.certificate, self.oracle_cap),
        ]
        lines += _constants_lines("svm", self.constants, mu)
        lines.append(f"tight steady-state excess-risk bound = {tight.bound!r} "
                     f"(alpha = {tight.alpha!r})")
        return lines


def _certificate_line(cert, cap):
    # risk(w_star) exceeds the set's minimum risk by at most the gap
    relation, verdict = ("<=", "certified") if cert.certified else (">", "not certified")
    return (f"oracle duality gap = {cert.gap!r} {relation} {problems.ORACLE_GAP_TOL!r} "
            f"after {cert.iterations} of at most {cap} iterations ({verdict})")


def _constants_lines(tag, k, mu):
    lines = [
        f"constants[{tag}]: eta={k.eta!r} c={k.c!r} d={k.d!r} e2={k.e2!r} "
        f"f2={k.f2!r} beta2={k.beta2!r} sigma2={k.sigma2!r} tau2={k.tau2!r}"
    ]
    alpha = theory.rate_alpha(mu, k)
    ceiling = theory.step_size_ceiling(k)
    line = f"rates[{tag}]: alpha={alpha!r} mu_ceiling={ceiling!r}"
    if 0.0 < alpha < 1.0:
        ss = theory.steady_state_bounds(mu, k)
        line += f" steady_excess<={ss.excess_risk!r} steady_msd<={ss.msd!r}"
    else:
        line += " (mu exceeds ceiling; rate bounds not applicable)"
    lines.append(line)
    return lines


def _build_bundle(cfg, seed):
    kind = _get(cfg, "problem", "kind", str, required=True).strip().lower()
    bundle = {"lasso": _LassoBundle, "svm": _SvmBundle}.get(kind)
    if bundle is None:
        raise ConfigError(f"[problem] kind must be 'lasso' or 'svm', got {kind!r}")
    with _too_large("[problem] dim or train_size"), trap_divergence(f"{kind} setup diverged"):
        return bundle(cfg, seed)


# ---------- run ----------


def _require(flag, value, ok, what):
    # NaN fails every comparison, so a NaN value never arrives with ok True
    if not (ok and math.isfinite(value)):
        raise ConfigError(f"{flag} must be {what}, got {value!r}")


def _require_count(flag, value):
    # an int flag or key: math.isfinite would overflow on a huge one
    if value < 0:
        raise ConfigError(f"{flag} must be nonnegative, got {value!r}")


def _smoothing_factor(name, setting, alpha, step):
    """The smoothing factor that ``setting``, of the key or flag ``name``, gives:
    ``auto`` is the rate ``alpha``, in [0, 1) only while the step size
    ``step`` is below its ceiling, and any other setting a number in [0, 1)."""
    if setting.strip() == "auto":
        if not 0.0 <= alpha < 1.0:  # NaN fails too
            raise ConfigError(f"{step} is above the step-size ceiling: {name} = auto, "
                              f"the rate alpha = {alpha:.6g}, lies outside [0, 1)")
        return alpha
    try:
        kappa = float(setting)
    except ValueError:
        kappa = math.nan
    if not 0.0 <= kappa < 1.0:
        raise ConfigError(f"{name} must be 'auto' or a number in [0, 1), got {setting!r}")
    return kappa


def _workers(requested, cap):
    # --workers 0 means the default: one per usable CPU; either way at most cap
    if requested:
        return min(requested, cap)
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), cap)
    return min(os.cpu_count() or 1, cap)


def cmd_run(ns):
    _require_count("--workers", ns.workers)
    cfg = _load_config(ns.config)
    seed = _run_seed(cfg, ns.seed)
    bundle = _build_bundle(cfg, seed)
    run_cfg = _run_config(cfg, seed, bundle.constants)

    out_dir = Path(ns.out or _get(cfg, "output", "dir", str, default="out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = _workers(ns.workers, run_cfg.replications)

    t0 = time.perf_counter()
    with _too_large(f"[run] replications = {run_cfg.replications}"):
        results = engine.run_replications(
            bundle.problem,
            bundle.stream_factory,
            run_cfg,
            oracle=bundle.oracle,
            workers=workers,
        )
    elapsed = time.perf_counter() - t0
    with trap_divergence("averaging diverged"):
        stats = engine.average_trajectories([r.trajectory for r in results])

    msd0 = bundle.w_star_sq  # runs start at w_0 = 0
    try:
        # horizon L = i + 1: the smoothed iterate after i updates combines i+1 iterates
        bound_fn = lambda i: theory.finite_horizon_bound(
            run_cfg.mu, bundle.constants, int(i) + 1, msd0
        )
        bound_fn(1)
    except UnsupportedConfiguration:
        bound_fn = None

    csv_path = out_dir / "curves.csv"
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row, i in enumerate(stats.iterations):
            bound = "" if bound_fn is None else repr(float(bound_fn(i)))
            fh.write(
                f"{int(i)},{max(float(stats.excess_risk[row]), 0.0)!r},"
                f"{max(float(stats.smoothed_excess_risk[row]), 0.0)!r},"
                f"{float(stats.msd[row])!r},{bound}\n"
            )

    lines = [f"config = {ns.config}"]
    lines += bundle.summary_lines(run_cfg.mu)
    lines += [
        f"run: mu={run_cfg.mu!r} kappa={run_cfg.kappa!r} iterations={run_cfg.iterations} "
        f"record_stride={run_cfg.record_stride} seed={run_cfg.seed} "
        f"replications={run_cfg.replications} workers={workers}",
        f"msd0 = ||w_0 - w_star||^2 = {msd0!r}",
    ]
    final_line = None
    if stats.iterations.size:
        final_line = (
            f"final smoothed excess risk = {float(stats.smoothed_excess_risk[-1])!r} "
            f"+- {stats.smoothed_excess_risk_stderr[-1]:.3g}"
        )
        lines += [
            f"final raw excess risk (mean of {stats.replications}) = "
            f"{float(stats.excess_risk[-1])!r}",
            final_line,
            f"final raw msd = {float(stats.msd[-1])!r}",
            f"final smoothed msd = {float(stats.smoothed_msd[-1])!r}",
        ]
        if bound_fn is not None:
            lines.append(
                f"finite-horizon bound at final record = "
                f"{float(bound_fn(stats.iterations[-1]))!r}"
            )
        try:
            floor = theory.steady_state_bounds(run_cfg.mu, bundle.constants).excess_risk
            fitted = theory.fit_rate(stats, floor)
            lines.append(f"fitted per-iteration rate = {fitted!r} (floor {floor!r})")
        except (InsufficientData, UnsupportedConfiguration) as exc:
            lines.append(f"fitted per-iteration rate = n/a ({exc})")
    lines.append(f"elapsed_seconds = {elapsed:.3f}")

    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {csv_path} and {summary_path}")
    if final_line is not None:
        print(final_line)
    return EXIT_OK


# ---------- verify ----------


def _report_check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _noise_probes(w_star, dim, rng, count):
    # w* and count - 1 points about it, at distances up a ladder of scales,
    # drawn in one call: row-major draws take one generator word per value
    offsets = data.standard_normal(rng, (count - 1, dim))
    scales = np.resize([0.1, 0.3, 1.0, 3.0, 10.0], count - 1)[:, None]
    return np.vstack([w_star, w_star + scales * offsets])


def _check_noise(problem, sampler_factory, w_star, beta2, sigma2, probes, n, seed):
    mean_ok = True
    var_ok = True
    worst_ratio = 0.0
    for idx, w in enumerate(probes):
        report = theory.verify_noise_moments(problem, sampler_factory(seed + idx), w, n)
        bad = np.abs(report.mean) > 3.0 * report.mean_stderr
        mean_ok = mean_ok and not bad.any()
        gap = w - w_star
        limit = beta2 * float(gap @ gap) + sigma2
        var_ok = var_ok and (
            report.second_moment <= limit + 3.0 * report.second_moment_stderr
        )
        if limit > 0:
            worst_ratio = max(worst_ratio, report.second_moment / limit)
    return mean_ok, var_ok, worst_ratio


def cmd_verify(ns):
    cfg = _load_config(ns.config)
    run_seed = _run_seed(cfg, ns.seed)
    pairs = _positive(cfg, "verify", "pairs", int, default=10_000)
    n_noise = _get(cfg, "verify", "noise_samples", int, default=20_000)
    if n_noise < 2:  # the moment checks need a sample variance
        raise ConfigError(f"[verify] noise_samples must be at least 2, got {n_noise}")
    probes = _positive(cfg, "verify", "probes", int, default=5)
    scale = _positive(cfg, "verify", "scale", float, default=3.0)
    # the statistical checks are sharp (3 stderr, componentwise, zero violations
    # allowed), so their sampler seed is its own knob; rerun with another seed
    # if a borderline z-score trips on an otherwise sound problem
    seed = _get(cfg, "verify", "seed", int, default=run_seed)
    _require_count("[verify] seed", seed)
    bundle = _build_bundle(cfg, run_seed)
    _run_config(cfg, run_seed, bundle.constants)  # what run would reject, verify rejects

    p = bundle.problem
    dim = p.dim
    all_ok = True
    if bundle.kind == "svm":
        print(_certificate_line(bundle.certificate, bundle.oracle_cap))

    # an overflowed pair compares as no violation: the trap fails the check
    rng = np.random.default_rng(seed + 1)
    with (_too_large(f"[verify] pairs = {pairs}"),
          trap_divergence("check subgradient-inequality diverged")):
        viol = theory.verify_subgradient_inequality(
            p.risk, p.risk_and_subgradient, dim, pairs, rng, scale=scale
        )
    all_ok &= _report_check(
        "subgradient-inequality",
        viol == 0,
        f"{viol}/{pairs} violations beyond 1e-9 relative slack",
    )

    k = bundle.constants if bundle.kind == "svm" else bundle.constants_spectral
    rng = np.random.default_rng(seed + 2)
    with (_too_large(f"[verify] pairs = {pairs}"),
          trap_divergence("check affine-lipschitz diverged")):
        viol = theory.verify_affine_lipschitz(
            p.true_subgradient, dim, k.c, k.d, pairs, rng, scale=scale
        )
    all_ok &= _report_check(
        "affine-lipschitz",
        viol == 0,
        f"{viol}/{pairs} violations with c={k.c:.6g}, d={k.d:.6g}",
    )

    rng = np.random.default_rng(seed + 3)
    with trap_divergence("checks noise-zero-mean and noise-variance diverged"):
        with _too_large(f"[verify] probes = {probes}"):
            probe_points = _noise_probes(bundle.w_star, dim, rng, probes)
        with _too_large(f"[verify] noise_samples = {n_noise}"):
            mean_ok, var_ok, worst = _check_noise(
                p, bundle.stream_factory, bundle.w_star, k.beta2, k.sigma2,
                probe_points, n_noise, seed + 4,
            )
    all_ok &= _report_check(
        "noise-zero-mean",
        mean_ok,
        f"componentwise |mean| <= 3 stderr at {probes} probes, n={n_noise}",
    )
    all_ok &= _report_check(
        "noise-variance",
        var_ok,
        f"E||s||^2 <= beta2 ||w*-w||^2 + sigma2 (+3 stderr); worst ratio {worst:.3f}",
    )

    if bundle.kind == "lasso":
        rng = np.random.default_rng(seed + 5)
        with (_too_large(f"[verify] pairs = {pairs}"),
              trap_divergence("check strong-monotonicity diverged")):
            viol = theory.verify_strong_monotonicity(
                p.true_subgradient, bundle.w_star, k.eta, dim, pairs, rng,
                scale=scale,
            )
        all_ok &= _report_check(
            "strong-monotonicity",
            viol == 0,
            f"{viol}/{pairs} violations with eta={k.eta:.6g}",
        )

    return EXIT_OK if all_ok else EXIT_PROPERTY


# ---------- denoise ----------


def _tv_alpha(mu):
    # fidelity term has unit curvature: eta = c = 1, so alpha = 1 - mu + 2 mu^2
    return 1.0 - mu + 2.0 * mu * mu


def _tv_parts(height, width):
    """Row parts ``[lo, hi)`` of a denoise, each with its bands ``[(lo, hi), ...]``.

    One part per usable CPU, at most one per band of problems.tv_bands, as
    even as whole rows allow; each part is cut into bands of its own.
    """
    n = _workers(0, len(problems.tv_bands(height, width)))
    cuts = [height * j // n for j in range(n + 1)]
    return [(lo, hi, [(lo + a, lo + b) for a, b in problems.tv_bands(hi - lo, width)])
            for lo, hi in zip(cuts, cuts[1:])]


def _denoise(noisy, mu, lam, kappa, iterations):
    """Smoothed iterate, as pixels, after ``iterations`` TV steps from ``noisy``.

    The smoothing carries S and the numerator Z = kappa Z + w from S_0 = 1 and
    Z_0 = ``noisy``, and divides out w_bar = Z / S at the end.  The first step
    goes through problems.tv_subgradient_step, which checks mu, lam and the
    shapes; _tv_steps takes the others.
    """
    z = noisy.pixels.copy()
    if iterations == 0:
        return z
    s = kappa + 1.0  # S_1 = kappa S_0 + 1 with S_0 = 1
    with trap_divergence("iterate diverged in step 1"):
        try:
            p = problems.tv_subgradient_step(noisy, noisy, mu, lam).pixels
        except NumericError as exc:  # its own trap names the TV step, not the run's
            cause = str(exc).rsplit(": ", 1)[0]
            raise NumericError(f"{cause}: iterate diverged in step 1") from None
        z *= kappa
        z += p
    if iterations > 1:
        _tv_steps(p, z, noisy.pixels, mu, lam, kappa, iterations)
    for _ in range(2, iterations + 1):
        s = kappa * s + 1.0
    z /= s
    return z


def _tv_steps(p, z, noisy, mu, lam, kappa, iterations):
    """Steps 2..``iterations`` of _denoise: ``p`` and ``z`` advance in place.

    The image is cut into the row parts of _tv_parts, one thread per part,
    the calling thread taking the first, and the parts meet at one barrier
    per step.  Each part steps its own bands through problems.tv_step_bands,
    into buffers of its own, and each band it yields advances the same rows
    of Z.  A part reads its neighbours' rows not from ``p``, which they write
    meanwhile, but from the edge rows that each part copies out after every
    step, kept in two slots by step parity.  Every operation is elementwise,
    so the result depends on neither the parts nor the bands.  A part that
    fails breaks the barrier, and all failures come in the same step; the
    one of the topmost part that failed is raised once every thread has
    ended.
    """
    parts = _tv_parts(*p.shape)
    # allocated on the calling thread: a worker thread's malloc arena would
    # keep them resident after the steps, beside the arrays that follow
    bufs = [problems.TvBuffers.for_bands(bands, p.shape[1]) for _, _, bands in parts]
    # edges[step % 2, j] holds the first and the last row of part j after a step
    edges = np.empty((2, len(parts), 2, p.shape[1]))

    def copy_edges(slot, j):
        lo, hi, _ = parts[j]
        edges[slot, j, 0] = p[lo]
        edges[slot, j, 1] = p[hi - 1]

    for j in range(len(parts)):
        copy_edges(1, j)
    barrier = threading.Barrier(len(parts))
    failures = [None] * len(parts)

    def step_part(j):
        bands, buf = parts[j][2], bufs[j]
        try:
            for step in range(2, iterations + 1):
                old = edges[(step - 1) % 2]
                above = old[j - 1, 1] if j > 0 else None
                below = old[j + 1, 0] if j + 1 < len(parts) else None
                with trap_divergence(f"iterate diverged in step {step}"):
                    for a, b in problems.tv_step_bands(p, noisy, mu, lam, bands, buf,
                                                       above, below):
                        z[a:b] *= kappa
                        z[a:b] += p[a:b]
                copy_edges(step % 2, j)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # another part failed
        except BaseException as exc:
            failures[j] = exc
            barrier.abort()

    threads = []
    try:
        for j in range(1, len(parts)):
            thread = threading.Thread(target=step_part, args=(j,))
            thread.start()
            threads.append(thread)
        step_part(0)
    except BaseException:  # a thread that could not start: release the others
        barrier.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    for exc in failures:
        if exc is not None:
            raise exc


def cmd_denoise(ns):
    _require("--mu", ns.mu, ns.mu > 0.0, "positive and finite")
    _require("--lam", ns.lam, ns.lam >= 0.0, "nonnegative and finite")
    _require_count("--iterations", ns.iterations)
    _require_count("--seed", ns.seed)
    if ns.noise_std is not None:
        _require("--noise-std", ns.noise_std, ns.noise_std >= 0.0, "nonnegative and finite")
    kappa = _smoothing_factor("--kappa", ns.kappa, _tv_alpha(ns.mu), f"--mu {ns.mu!r}")
    if ns.input is None and ns.clean is None:
        raise ConfigError("provide --input NOISY.pgm or --clean CLEAN.pgm --noise-std S")
    # --clean stays in 8 bits while the steps run; its float image is made
    # for the noise and again for the PSNRs
    clean = None if ns.clean is None else data.read_pgm_pixels(ns.clean)
    if ns.input is None and ns.noise_std is None:
        raise ConfigError("--noise-std is required when generating noise from --clean")
    noisy = None if ns.input is None else data.read_pgm_pixels(ns.input)
    if clean is not None and noisy is not None and clean.shape != noisy.shape:
        (h, w), (h_c, w_c) = noisy.shape, clean.shape
        raise ConfigError(f"--input {ns.input} is {w}x{h} pixels but "
                          f"--clean {ns.clean} is {w_c}x{h_c}")

    peak = 1.0 if ns.normalize else 255.0

    def working_image(pixels):
        px = pixels.astype(float)
        if ns.normalize:
            px /= 255.0
        return problems.GrayImage(px, peak=peak)

    if noisy is None:
        noisy = data.add_gaussian_noise(working_image(clean), ns.noise_std, ns.seed)
    else:
        noisy = working_image(noisy)

    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    # denoising starts from the observation
    w_bar = _denoise(noisy, ns.mu, ns.lam, kappa, ns.iterations)
    denoised = problems.GrayImage(w_bar, peak=peak)
    elapsed = time.perf_counter() - t0

    out_path = out_dir / "denoised.pgm"
    data.write_pgm(denoised, out_path)
    if ns.input is None:
        data.write_pgm(noisy, out_dir / "noisy.pgm")

    print(f"peak convention: {peak}")
    print(f"iterations={ns.iterations} mu={ns.mu} lam={ns.lam} kappa={kappa!r}")
    print(f"tv: noisy={problems.tv_value(noisy):.6g} "
          f"denoised={problems.tv_value(denoised):.6g}")
    if clean is not None:
        clean = working_image(clean)
        # each difference is formed over its image's pixels, read no more
        before = data.psnr(noisy, clean, out=noisy.pixels)
        after = data.psnr(denoised, clean, out=denoised.pixels)
        # the gain of an infinite PSNR (identical or overflowing images) means nothing
        finite = math.isfinite(before) and math.isfinite(after)
        gain = f"{after - before:+.2f} dB" if finite else "n/a"
        print(f"psnr vs clean: noisy={before:.2f} dB denoised={after:.2f} dB (gain {gain})")
    print(f"wrote {out_path} in {elapsed:.2f} s")
    return EXIT_OK


# ---------- svm-train ----------


def _pad_dataset(ds, dim):
    if ds.dim == dim:
        return ds
    feats = np.zeros((ds.n, dim))
    feats[:, : ds.dim] = ds.features
    return data.DatasetFile(feats, ds.labels)


def cmd_svm_train(ns):
    _require("--rho", ns.rho, ns.rho > 0.0, "positive and finite")
    _require("--mu", ns.mu, ns.mu > 0.0, "positive and finite")
    _require_count("--epochs", ns.epochs)
    _require_count("--seed", ns.seed)
    train = data.load_libsvm(ns.train)
    test = data.load_libsvm(ns.test) if ns.test else None
    for flag, path, ds in (("--train", ns.train, train), ("--test", ns.test, test)):
        if ds is not None and ds.n == 0:
            raise ConfigError(f"{flag} {path}: dataset is empty")
    dim = max(train.dim, test.dim if test else 0)
    if dim == 0:
        raise ConfigError(f"--train {ns.train}: dataset has no features")
    train = _pad_dataset(train, dim)
    if test is not None:
        test = _pad_dataset(test, dim)

    # alpha < 1 needs mu*rho < 1; testing that first keeps the square from overflowing
    alpha = math.inf
    if ns.mu * ns.rho < 1.0:
        alpha = 1.0 - 2.0 * ns.mu * ns.rho + 2.0 * (ns.mu * ns.rho) ** 2
    kappa = _smoothing_factor("kappa", "auto", alpha, f"mu*rho = {ns.mu * ns.rho:.6g}")
    problem = problems.SvmSampleSet(train.features, train.labels, ns.rho)
    # no oracle, so the run records nothing; an overflowing margin stops it
    run_cfg = engine.RunConfig(mu=ns.mu, kappa=kappa, iterations=train.n * ns.epochs,
                               seed=ns.seed)
    # signed rows with label +1: the samples in the form subgradient_batch reads
    stream_factory = functools.partial(data.EpochSampler, problem.signed, np.ones(train.n),
                                       ns.epochs, shuffle=not ns.no_shuffle)
    t0 = time.perf_counter()
    (result,) = engine.run_replications(problem, stream_factory, run_cfg)
    elapsed = time.perf_counter() - t0
    w_bar = result.smoothing.w_bar
    # finite features can still overflow a score; that is a failed run, not a model
    with trap_divergence("scoring diverged"):
        train_acc = problem.accuracy(w_bar)
        if test is not None:
            test_set = problems.SvmSampleSet(test.features, test.labels, ns.rho)
            test_acc = test_set.accuracy(w_bar)

    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.txt"
    model_path.write_text("".join(f"{float(x)!r}\n" for x in w_bar), encoding="ascii")

    print(f"trained on {train.n} samples x {ns.epochs} epoch(s), dim={dim}, "
          f"rho={ns.rho}, mu={ns.mu}, kappa={kappa!r}")
    print(f"train accuracy = {train_acc:.4f}")
    if test is not None:
        print(f"test accuracy = {test_acc:.4f} ({test.n} samples)")
    print(f"wrote {model_path} in {elapsed:.2f} s")
    return EXIT_OK


# ---------- entry point ----------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sgsmooth",
        description="Constant step-size stochastic subgradient learning "
        "with exponential iterate smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured streaming experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p_run.add_argument("--workers", type=int, default=0,
                       help="processes for the replications: this one steps "
                       "them all and the others, where the platform can fork, "
                       "draw their samples, split by measured cost; more than "
                       "about 1 + R*S/T (S one replication's draw, T the step "
                       "of all R) add nothing (default 0: one per usable "
                       "CPU; at most one per replication)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="verify model assumptions on live samplers")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_den = sub.add_parser("denoise", help="total-variation denoise a PGM image")
    p_den.add_argument("--input", default=None, help="noisy PGM to denoise")
    p_den.add_argument("--clean", default=None, help="clean PGM reference")
    p_den.add_argument("--noise-std", type=float, default=None,
                       help="noise std to add to --clean (in the working range)")
    p_den.add_argument("--lam", type=float, default=0.08)
    p_den.add_argument("--mu", type=float, default=0.002)
    p_den.add_argument("--iterations", type=int, default=300)
    p_den.add_argument("--kappa", default="auto")
    p_den.add_argument("--seed", type=int, default=0)
    p_den.add_argument("--out", default="out")
    p_den.add_argument("--no-normalize", dest="normalize", action="store_false",
                       help="work in 8-bit units (peak 255) instead of [0,1]")
    p_den.set_defaults(func=cmd_denoise)

    p_svm = sub.add_parser("svm-train", help="train a linear SVM on a LIBSVM file")
    p_svm.add_argument("--train", required=True)
    p_svm.add_argument("--test", default=None)
    p_svm.add_argument("--rho", type=float, default=2e-3)
    p_svm.add_argument("--mu", type=float, default=0.05)
    p_svm.add_argument("--epochs", type=int, default=1)
    p_svm.add_argument("--seed", type=int, default=0)
    p_svm.add_argument("--no-shuffle", action="store_true",
                       help="stream samples in file order")
    p_svm.add_argument("--out", default="out")
    p_svm.set_defaults(func=cmd_svm_train)
    return parser


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, UnsupportedConfiguration, StreamExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())

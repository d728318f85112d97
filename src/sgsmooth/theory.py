"""Rates, steady-state bounds, problem constants, and assumption checkers.

The model is described by a handful of constants:

* ``eta``  -- strong-convexity modulus of the risk,
* ``c, d`` -- affine-Lipschitz constants of the chosen subgradient,
  ||g(w1) - g'(w2)|| <= c ||w1 - w2|| + d, with squared-form companions
  e^2 = 2 c^2 and f^2 = 2 d^2,
* ``beta2, sigma2`` -- gradient-noise moduli,
  E[||s||^2 | past] <= beta2 ||w* - w||^2 + sigma2, and tau^2 = f^2 + sigma2.

For step sizes below eta / (e^2 + beta2) the excess risk of the smoothed
iterate contracts geometrically with per-iteration factor

    alpha = 1 - mu*eta + mu^2 (e^2 + beta2)

toward a steady-state level of mu * tau^2 / 2 (and mu * tau^2 / eta in
mean-square deviation).  This module computes those numbers for the built-in
problem families and provides Monte-Carlo checkers that confirm the
assumptions actually hold on live samplers.  LASSO regressors are N(0, I),
so the LASSO constants are closed-form: eta = c = 1, the Gaussian noise
modulus is 1 + M, and the spectral noise modulus has a closed form that
:func:`estimate_lasso_a` checks by Monte Carlo.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc

from .data import standard_normal
from .engine import SAMPLE_BLOCK
from .errors import InsufficientData, UnsupportedConfiguration


@dataclass(frozen=True)
class ProblemConstants:
    """The constant ledger (eta, c, d, beta2, sigma2) of one problem.

    The derived squared-form constants are exposed as properties so the
    relations e2 = 2 c^2, f2 = 2 d^2 and tau2 = f2 + sigma2 hold by
    construction.
    """

    eta: float
    c: float
    d: float
    beta2: float
    sigma2: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if min(self.c, self.d, self.beta2, self.sigma2) < 0:
            raise ValueError("c, d, beta2, sigma2 must be nonnegative")
        # strong monotonicity and the affine-Lipschitz bound can only coexist
        # when eta <= c
        if self.eta > self.c * (1 + 1e-12):
            raise ValueError(f"eta={self.eta} exceeds c={self.c}")
        try:
            self.e2, self.f2  # a Python float's ** raises where numpy gives inf
        except OverflowError:
            raise UnsupportedConfiguration(
                f"c={self.c:.6g} or d={self.d:.6g} is too large: e^2 or f^2 overflows"
            ) from None

    @property
    def e2(self):
        return 2.0 * self.c**2

    @property
    def f2(self):
        return 2.0 * self.d**2

    @property
    def tau2(self):
        return self.f2 + self.sigma2


def rate_alpha(mu, constants):
    """Per-iteration contraction factor 1 - mu*eta + mu^2 (e^2 + beta^2)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return 1.0 - mu * constants.eta + mu * mu * (constants.e2 + constants.beta2)


def step_size_ceiling(constants):
    """Largest admissible step size eta / (e^2 + beta^2).

    Every mu strictly below the ceiling yields rate_alpha(mu) < 1.  A
    degenerate problem with e^2 + beta^2 = 0 has no ceiling and returns +inf.
    """
    denom = constants.e2 + constants.beta2
    if denom == 0.0:
        return math.inf
    return constants.eta / denom


def _check_step(mu):
    # written so that NaN, which fails every comparison, fails it too
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")


class SteadyStateBounds(NamedTuple):
    excess_risk: float
    msd: float


def steady_state_bounds(mu, constants):
    """Limiting bounds: excess risk mu*tau^2/2 and MSD mu*tau^2/eta.

    Raises ValueError unless 0 < mu < inf.
    """
    _check_step(mu)
    tau2 = constants.tau2
    return SteadyStateBounds(0.5 * mu * tau2, mu * tau2 / constants.eta)


def finite_horizon_envelope(mu, alpha, steady_excess, horizon, msd0):
    """Transient-plus-steady excess-risk envelope for a given contraction factor.

    Returns  alpha^L (1 - alpha) / (2 mu (1 - alpha^L)) * msd0 + steady_excess
    with L = horizon; the transient coefficient is the sharpest one the
    contraction argument yields, decreases in L, and vanishes in the limit.
    Raises ValueError unless 0 < mu < inf.
    """
    _check_step(mu)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if msd0 < 0:
        raise ValueError("msd0 must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise UnsupportedConfiguration(f"alpha={alpha:.6g} is outside (0, 1)")
    a_pow = alpha**horizon
    transient = a_pow * (1.0 - alpha) / (2.0 * mu * (1.0 - a_pow)) * msd0
    return transient + steady_excess


def finite_horizon_bound(mu, constants, horizon, msd0):
    """Excess-risk bound for the smoothed iterate after ``horizon`` iterations.

    The contraction factor and steady level come from ``constants``;
    ``msd0 = E||w_0 - w*||^2``.  Raises ValueError unless 0 < mu < inf, and
    UnsupportedConfiguration when mu exceeds the step-size ceiling (the rate
    leaves (0, 1) and the contraction argument gives nothing).
    """
    _check_step(mu)
    alpha = rate_alpha(mu, constants)
    if not 0.0 < alpha < 1.0:
        raise UnsupportedConfiguration(
            f"alpha={alpha:.6g} is outside (0, 1); mu exceeds the ceiling "
            f"{step_size_ceiling(constants):.6g}"
        )
    steady = 0.5 * mu * constants.tau2
    return finite_horizon_envelope(mu, alpha, steady, horizon, msd0)


def svm_constants(rho, trace_rh):
    """Constant ledger of the regularized SVM.

    eta = c = rho from the quadratic regularizer, d = 2 sqrt(Tr R_h) from the
    bounded hinge selector, and the gradient noise satisfies beta^2 = 0,
    sigma^2 = Tr R_h.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if trace_rh < 0:
        raise ValueError("trace_rh must be nonnegative")
    return ProblemConstants(
        eta=rho, c=rho, d=2.0 * math.sqrt(trace_rh), beta2=0.0, sigma2=trace_rh
    )


def lasso_constants(problem, a, w_star=None):
    """Constant ledger of the stochastic LASSO for noise modulus ``a``.

    With regressors h ~ N(0, I) the risk Hessian is the identity, so
    eta = c = 1; d = 2 delta sqrt(M), and the gradient noise satisfies
    beta^2 = 2a, sigma^2 = sigma_n^2 M + 2a ||w_true - w*||^2.  ``a`` may be
    the spectral modulus :func:`lasso_spectral_noise_modulus` or the Gaussian
    modulus :func:`lasso_gaussian_noise_modulus`; each makes the noise bound
    valid.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if w_star is None:
        w_star = problem.optimum()
    gap = problem.w_true - np.asarray(w_star, dtype=float)
    return ProblemConstants(
        eta=1.0,
        c=1.0,
        d=2.0 * problem.delta * math.sqrt(problem.dim),
        beta2=2.0 * a,
        sigma2=problem.noise_var * problem.trace + 2.0 * a * float(gap @ gap),
    )


def lasso_gaussian_noise_modulus(problem):
    """Exact conditional-second-moment modulus a_g = 1 + M.

    For h ~ N(0, I_M) the regression gradient noise satisfies
    E||(I - h h^T) v||^2 = (1 + M) ||v||^2 for every v, since
    E (h h^T)^2 = E ||h||^2 h h^T = (M + 2) I.  This plays the same role as
    the distribution-free spectral modulus but grows like M instead of M^2,
    so it keeps moderate step sizes inside the admissible range.
    """
    return 1.0 + problem.dim


def lasso_spectral_noise_modulus(problem):
    """Exact a = 2 E ||I - h h^T||^2 (spectral norm) for h ~ N(0, I_M).

    I - h h^T has eigenvalues 1 - X along h, X = ||h||^2 ~ chi^2_M, and for
    M >= 2 also 1 on the orthogonal complement, so a = 2 E max(1, |1 - X|)^2
    = 2 [2M + (M - 1)^2 - M (M + 2) F_{M+4}(2) + 2M F_{M+2}(2)] with F_k the
    chi^2_k CDF, and a = 2 E (1 - X)^2 = 4 at M = 1.
    """
    m = problem.dim
    if m == 1:
        return 4.0
    # F_k(2) = P(chi^2_k <= 2) = gammainc(k / 2, 1)
    tail = m * (m + 2) * gammainc(m / 2 + 2, 1.0) - 2 * m * gammainc(m / 2 + 1, 1.0)
    return 2.0 * (2 * m + (m - 1) ** 2 - float(tail))


class AEstimate(NamedTuple):
    value: float
    stderr: float


def estimate_lasso_a(problem, n, seed=0):
    """Monte-Carlo estimate of a = 2 E ||I - h h^T||^2 (spectral norm).

    Draws ``n`` regressors h ~ N(0, I) and averages twice the squared
    spectral norm of the covariance estimation error.  Returns the estimate
    with its standard error.  Rows are drawn and reduced to their norm
    ``SAMPLE_BLOCK`` at a time, in the order of one (n, dim) draw, so memory
    is 16 bytes per draw plus one fixed block.  It checks the closed form
    of :func:`lasso_spectral_noise_modulus`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = problem.dim
    rng = np.random.default_rng(seed)
    norms = np.empty(n)
    for start in range(0, n, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, n)
        block = standard_normal(rng, (stop - start, m))
        # I - h h^T has eigenvalues 1 - ||h||^2 (along h) and, for M >= 2,
        # 1 on the orthogonal complement.
        q = np.abs(1.0 - np.einsum("ij,ij->i", block, block))
        norms[start:stop] = q if m == 1 else np.maximum(1.0, q)

    draws = norms  # 2 * norms**2, in place
    draws *= norms
    draws *= 2.0
    value = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return AEstimate(value, stderr)


class SvmTightBound(NamedTuple):
    bound: float
    alpha: float


def svm_tight_rate(mu, rho):
    """Contraction factor 1 - 2 mu rho + 2 mu^2 rho^2 of the joint update-moment
    argument: in [0, 1) only for mu rho < 1, and inf or NaN past the float range."""
    return 1.0 - 2.0 * mu * rho + 2.0 * mu * mu * rho * rho


def svm_tight_bound(mu, rho, w_star_norm2, trace_rh):
    """Sharper SVM steady-state bound from the joint update-moment argument.

    Returns mu (rho^2 ||w*||^2 + rho + Tr(R_h)/2) together with its
    contraction factor alpha, :func:`svm_tight_rate`.
    """
    if mu <= 0 or rho <= 0:
        raise ValueError("mu and rho must be positive")
    bound = mu * (rho**2 * w_star_norm2 + rho + 0.5 * trace_rh)
    return SvmTightBound(bound, svm_tight_rate(mu, rho))


@dataclass(frozen=True, eq=False)
class NoiseMomentReport:
    """Empirical gradient-noise moments at a fixed probe point."""

    mean: np.ndarray
    mean_stderr: np.ndarray
    second_moment: float
    second_moment_stderr: float


def verify_noise_moments(problem, sampler, w, n):
    """Estimate E[s] and E||s||^2 of the gradient noise at a fixed iterate.

    The noise is the instantaneous subgradient minus the problem's true
    subgradient at ``w``, measured over one ``sampler.draw_batch(n)`` by the
    kernel that the problem's ``batch_kernel(n)`` binds, into a fresh array.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    w = np.asarray(w, dtype=float)
    H, y = sampler.draw_batch(n)
    s = problem.batch_kernel(n)(np.broadcast_to(w, H.shape), H, y, np.empty(H.shape))
    s -= problem.true_subgradient(w)
    q = np.einsum("ij,ij->i", s, s)
    return NoiseMomentReport(
        mean=s.mean(axis=0),
        mean_stderr=np.sqrt(s.var(axis=0, ddof=1) / n),
        second_moment=float(q.mean()),
        second_moment_stderr=math.sqrt(q.var(ddof=1) / n),
    )


def _relative_violation(lhs, rhs, slack=1e-9):
    return lhs > rhs + slack * max(1.0, abs(rhs))


def verify_affine_lipschitz(true_subgrad, dim, c, d, n_pairs, rng, scale=3.0):
    """Count pairs violating ||g(w1) - g(w2)|| <= c ||w1 - w2|| + d.

    Probe points are Gaussian with the given scale; violations are counted
    beyond a 1e-9 relative slack.  All probe points come from one draw, in
    the order w1, w2 of pair 1, then of pair 2, and so on.
    """
    violations = 0
    for w1, w2 in scale * standard_normal(rng, (n_pairs, 2, dim)):
        lhs = float(np.linalg.norm(true_subgrad(w1) - true_subgrad(w2)))
        rhs = c * float(np.linalg.norm(w1 - w2)) + d
        if _relative_violation(lhs, rhs):
            violations += 1
    return violations


def verify_subgradient_inequality(risk, risk_and_subgrad, dim, n_pairs, rng, scale=3.0):
    """Count pairs violating J(w) >= J(w0) + g(w0).(w - w0) beyond 1e-9 slack.

    ``risk_and_subgrad(w0)`` returns (J(w0), g(w0)), so a problem can share
    one pass over its data between them.
    """
    violations = 0
    for w, w0 in scale * standard_normal(rng, (n_pairs, 2, dim)):
        risk0, g0 = risk_and_subgrad(w0)
        lower = risk0 + float(g0 @ (w - w0))
        if _relative_violation(lower, risk(w)):
            violations += 1
    return violations


def verify_strong_monotonicity(true_subgrad, w_star, eta, dim, n_points, rng, scale=3.0):
    """Count points violating ||g(w)|| >= eta ||w - w*|| beyond 1e-9 slack."""
    w_star = np.asarray(w_star, dtype=float)
    violations = 0
    for w in scale * standard_normal(rng, (n_points, dim)):
        lhs = eta * float(np.linalg.norm(w - w_star))
        if _relative_violation(lhs, float(np.linalg.norm(true_subgrad(w)))):
            violations += 1
    return violations


# share of the transient that fit_rate drops while the smoothing window fills
_BURN_FRACTION = 0.05


def fit_rate(curve, floor):
    """Fit the geometric decay factor of a recorded smoothed excess-risk curve.

    Takes the leading stretch of ``curve.smoothed_excess_risk`` that sits
    above twice ``floor`` (the steady-state bound), drops the first
    ``_BURN_FRACTION`` of it while the smoothing window fills, and
    least-squares fits log(value - floor) against the iteration index.
    Returns the implied per-iteration factor.
    """
    values = np.asarray(curve.smoothed_excess_risk, dtype=float)
    iters = np.asarray(curve.iterations, dtype=float)
    if values.shape != iters.shape:
        raise ValueError("curve series and iterations differ in length")
    above = values > 2.0 * floor
    lead = int(np.argmin(above)) if not above.all() else above.size
    start = int(math.ceil(_BURN_FRACTION * lead))
    idx = np.arange(start, lead)
    if idx.size < 10:
        raise InsufficientData(
            f"only {idx.size} transient points above twice the floor; need 10"
        )
    slope = np.polyfit(iters[idx], np.log(values[idx] - floor), 1)[0]
    return float(math.exp(slope))

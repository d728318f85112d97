"""Built-in problem families: regularized SVM, stochastic LASSO, TV denoising.

Each family provides the per-sample (instantaneous) subgradient used by the
reference loop :func:`sgsmooth.engine.run`; the SVM set and LASSO also
provide its row-wise batch form ``subgradient_batch(W, H, y, out=None)``,
which the lockstep replications and the gradient-noise check run on; the
SVM set's reads signed rows gamma * h (:attr:`SvmSampleSet.signed`).  Exact
quantities come with them: the LASSO risk and its subgradient are
closed-form under the linear regression model, the SVM ones are evaluated
exactly on a frozen sample set (:class:`SvmSampleSet`), and the TV objective
is deterministic.  :class:`SvmProblem` keeps only the per-sample SVM
subgradient.

Subgradient conventions are fixed once and kept for the whole run:
``sgn(0) = 0`` everywhere, and the hinge indicator is active at margin
exactly 1.
"""

from dataclasses import dataclass
from functools import cached_property
import math
from typing import NamedTuple

import numpy as np

from .errors import NumericError, UnsupportedConfiguration


# SvmSampleSet.minimize stops once the duality gap of its tail average is
# at most ORACLE_GAP_TOL, checked after 250, 500, 1000, ... steps; the gap
# takes the best of the dual points matched on these margin bands
ORACLE_GAP_TOL = 1e-7
_FIRST_GAP_CHECK = 250
_GAP_BANDS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)


class Sample(NamedTuple):
    """One labelled observation: feature/regression vector and target."""

    h: np.ndarray
    gamma: float


class MinimizeResult(NamedTuple):
    """Set minimizer with its certificate: risk(w) - min risk <= gap."""

    w: np.ndarray
    gap: float
    iterations: int

    @property
    def certified(self):
        return self.gap <= ORACLE_GAP_TOL


def soft_threshold(x, delta):
    """Componentwise shrinkage sgn(x) * max(|x| - delta, 0)."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - delta, 0.0)


def hinge_loss(w, sample, rho):
    """Per-sample regularized SVM loss (rho/2)||w||^2 + max(0, 1 - gamma h.w)."""
    w = np.asarray(w, dtype=float)
    h = np.asarray(sample.h, dtype=float)
    if h.shape != w.shape:
        raise ValueError(f"dimension mismatch: w has {w.shape}, h has {h.shape}")
    margin = sample.gamma * (h @ w)
    return 0.5 * rho * (w @ w) + max(0.0, 1.0 - margin)


def _row_dots(H, W):
    # one vector dot per row, the same kernel as the per-sample h @ w; einsum
    # sums in another order and moves results by an ulp
    return np.vecdot(H, W)


def _check_label(gamma):
    if gamma not in (-1, 1, -1.0, 1.0):
        raise ValueError(f"SVM label must be -1 or +1, got {gamma!r}")


@dataclass(frozen=True, eq=False)
class SvmProblem:
    """Two-class linear SVM with risk (rho/2)||w||^2 + E max(0, 1 - gamma h.w).

    Parameters
    ----------
    rho : float
        Regularization weight; also the strong-convexity modulus of the risk.
    dim : int
        Feature dimension.
    """

    rho: float
    dim: int

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    def instantaneous_subgradient(self, w, sample):
        """Per-sample subgradient rho*w - gamma*h * [gamma h.w <= 1].

        The indicator is taken active at margin exactly 1 and the choice is
        kept fixed, so the update is the usual shrink-then-correct step
        w <- (1 - mu*rho) w + mu*gamma*h on margin violators.
        """
        _check_label(sample.gamma)
        h = sample.h
        if h.shape != np.shape(w):
            raise ValueError("dimension mismatch between w and sample")
        g = self.rho * np.asarray(w, dtype=float)
        if sample.gamma * (h @ w) <= 1.0:
            g = g - sample.gamma * h
        return g


@dataclass(frozen=True, eq=False)
class SvmSampleSet:
    """SVM risk restricted to a frozen sample set.

    On a fixed set the "expected" risk is just the sample average, so the
    exact risk, its exact subgradient, and a deterministic minimizer are all
    computable.  Streaming uniformly with replacement from the set makes the
    per-sample subgradient an unbiased estimate of :meth:`subgradient`, which
    is what the steady-state bounds assume.
    """

    features: np.ndarray
    labels: np.ndarray
    rho: float

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or labels.shape != (feats.shape[0],):
            raise ValueError("features must be (n, dim) with matching labels")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @cached_property
    def signed(self):
        """Signed rows s_k = gamma_k h_k, the rows :meth:`subgradient_batch` reads.

        C order for s @ w.  A sign flip commutes with rounding, so s_k . w
        equals gamma_k (h_k . w) bit for bit.
        """
        return np.ascontiguousarray(self.labels[:, None] * self.features)

    @cached_property
    def _signed_f(self):
        # Fortran order so mask @ A is a fast gemv as well
        return np.asfortranarray(self.signed)

    @cached_property
    def trace_second_moment(self):
        """Average squared feature norm (1/n) sum ||h_k||^2."""
        return float(np.einsum("ij,ij->", self.features, self.features) / self.n)

    def instantaneous_subgradient(self, w, sample):
        _check_label(sample.gamma)
        g = self.rho * np.asarray(w, dtype=float)
        if sample.gamma * (sample.h @ w) <= 1.0:
            g = g - sample.gamma * sample.h
        return g

    def subgradient_batch(self, W, H, y, out=None):
        """Row r is rho W[r] - [s_r . W[r] <= 1] s_r for the signed row s_r = H[r].

        With s_r = gamma h this is ``instantaneous_subgradient(W[r],
        Sample(h, gamma))`` bit for bit; ``y`` is unused, since the label is
        already in the row.  Streams for it sample :attr:`signed`, and with
        label +1 (the sample (gamma h, +1) has the same subgradient) they
        also feed :meth:`instantaneous_subgradient`.  The result is written
        into ``out`` when given.
        """
        active = _row_dots(H, W) <= 1.0
        out = np.multiply(W, self.rho, out=out)
        np.subtract(out, H, out=out, where=active[:, None])
        return out

    def risk(self, w):
        """Exact regularized hinge risk on the set."""
        w = np.asarray(w, dtype=float)
        margins = self.signed @ w
        return 0.5 * self.rho * (w @ w) + np.maximum(0.0, 1.0 - margins).mean()

    def subgradient(self, w):
        """Exact subgradient of :meth:`risk` (indicator active at margin 1)."""
        w = np.asarray(w, dtype=float)
        active = (self.signed @ w <= 1.0).astype(float)
        return self.rho * w - (active @ self._signed_f) / self.n

    # engine/theory duck-typing alias
    true_subgradient = subgradient

    def duality_gap(self, w):
        """Certified upper bound on risk(w) - min risk, from weak duality.

        The dual of the regularized hinge over alpha in [0, 1]^n is
        D(alpha) = mean(alpha) - (rho/2) ||u||^2 with u = sum_k alpha_k s_k /
        (rho n) and s_k = gamma_k h_k, and risk(w) - D(alpha) >= risk(w) -
        risk(w*) >= 0 for every such alpha.  The dual point matched to w puts
        alpha_k = 1 below the margin band |margin_k - 1| <= band and 0 above
        it; on the band a least-squares fit to u = w, clipped to [0, 1],
        sets the rest.  The best gap over the bands of ``_GAP_BANDS`` is
        returned.  It is evaluated in the Fenchel-Young form
        (1/n) sum_k [hinge_k - alpha_k (1 - margin_k)] + (rho/2) ||w - u||^2,
        which equals risk(w) - D(alpha) and sums nonnegative terms only, so
        rounding cannot drive it below zero.
        """
        w = np.asarray(w, dtype=float)
        n = self.n
        rho = self.rho
        margins = self.signed @ w
        widest = _GAP_BANDS[-1]
        below = margins < 1.0 - widest
        near = ~below & (margins <= 1.0 + widest)
        # u without the band rows, times rho n; only band rows vary below
        base = rho * n * w - below @ self._signed_f
        slack = 1.0 - margins[near]
        s_near = self.signed[near]
        best = math.inf
        for band in _GAP_BANDS:
            alpha = (slack > band).astype(float)
            on = np.abs(slack) <= band
            if on.any():
                coef = np.linalg.lstsq(s_near[on].T, base - alpha @ s_near, rcond=None)[0]
                alpha[on] = np.clip(coef, 0.0, 1.0)
            resid = (base - alpha @ s_near) / (rho * n)
            fy = np.where(slack > 0.0, slack * (1.0 - alpha), -slack * alpha)
            best = min(best, float(fy.sum()) / n + 0.5 * rho * float(resid @ resid))
        return best

    def minimize(self, n_iters=100_000, full_output=False):
        """Deterministic full-risk subgradient descent to the set minimizer.

        Runs diminishing steps mu_t = 1/(rho (t+1)) from zero and averages
        the second half of the trajectory, the standard tail average for
        strongly convex subgradient descent.  ``n_iters`` is a cap: after
        250, 500, 1000, ... steps the average of the second half so far is
        returned as soon as its :meth:`duality_gap` is at most
        ``ORACLE_GAP_TOL``.  At the cap the tail average of all ``n_iters``
        steps is returned, certified or not.  With ``full_output`` the
        result is a :class:`MinimizeResult` carrying the gap and the steps.
        """
        if n_iters < 1:
            raise ValueError("n_iters must be at least 1")
        signed = self.signed
        signed_f = self._signed_f
        n = float(self.n)
        rho = self.rho
        w = np.zeros(self.dim)
        w_avg = np.zeros(self.dim)
        w_block = np.zeros(self.dim)
        margins = np.empty(self.n)
        active = np.empty(self.n)
        tail_start = n_iters // 2
        n_avg = 0
        n_block = 0
        check = _FIRST_GAP_CHECK
        for t in range(n_iters):
            np.dot(signed, w, out=margins)
            np.less_equal(margins, 1.0, out=active, casting="unsafe")
            gsum = active @ signed_f
            w -= (1.0 / (rho * (t + 1))) * (rho * w - gsum / n)
            if t >= tail_start:
                n_avg += 1
                w_avg += (w - w_avg) / n_avg
            if check <= n_iters and t >= check // 2:
                n_block += 1
                w_block += (w - w_block) / n_block
                if t + 1 == check:
                    gap = self.duality_gap(w_block)
                    if gap <= ORACLE_GAP_TOL:
                        return MinimizeResult(w_block, gap, check) if full_output else w_block
                    check *= 2
                    n_block = 0
                    w_block = np.zeros(self.dim)
        if not full_output:
            return w_avg
        return MinimizeResult(w_avg, self.duality_gap(w_avg), n_iters)

    def accuracy(self, w):
        """Fraction of samples with sign(h.w) equal to the label; sign(0) -> +1."""
        scores = self.features @ np.asarray(w, dtype=float)
        pred = np.where(scores >= 0.0, 1.0, -1.0)
        return float(np.mean(pred == self.labels))


@dataclass(frozen=True, eq=False)
class LassoProblem:
    """Stochastic LASSO: risk (1/2) E (gamma - h.w)^2 + delta ||w||_1.

    The data model is gamma = h.w_true + noise with zero-mean regressors of
    covariance ``cov_h`` and independent zero-mean noise of variance
    ``noise_var``, which makes the risk and its subgradient closed-form.
    """

    delta: float
    w_true: np.ndarray
    cov_h: np.ndarray
    noise_var: float

    def __post_init__(self):
        w_true = np.asarray(self.w_true, dtype=float)
        cov = np.asarray(self.cov_h, dtype=float)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        if w_true.ndim != 1:
            raise ValueError("w_true must be a vector")
        m = w_true.shape[0]
        if cov.shape != (m, m):
            raise ValueError("cov_h must be square and match w_true")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov_h must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("cov_h must be positive definite")
        object.__setattr__(self, "w_true", w_true)
        object.__setattr__(self, "cov_h", cov)

    @property
    def dim(self):
        return self.w_true.shape[0]

    @cached_property
    def _identity_cov(self):
        return bool(np.array_equal(self.cov_h, np.eye(self.dim)))

    @cached_property
    def min_eigenvalue(self):
        """Smallest eigenvalue of the regressor covariance."""
        return float(np.linalg.eigvalsh(self.cov_h)[0])

    @cached_property
    def spectral_norm(self):
        """2-norm of the regressor covariance."""
        return float(np.abs(np.linalg.eigvalsh(self.cov_h)).max())

    @cached_property
    def trace(self):
        return float(np.trace(self.cov_h))

    def instantaneous_subgradient(self, w, sample):
        """Per-sample subgradient -h (gamma - h.w) + delta sgn(w), sgn(0)=0."""
        h = sample.h
        residual = sample.gamma - h @ w
        return self.delta * np.sign(w) - residual * h

    def subgradient_batch(self, W, H, y, out=None):
        """Row r is ``instantaneous_subgradient(W[r], Sample(H[r], y[r]))``, bit for bit.

        The result is written into ``out`` when given.
        """
        residual = y - _row_dots(H, W)
        out = np.sign(W, out=out)
        out *= self.delta
        out -= residual[:, None] * H
        return out

    def true_subgradient(self, w):
        """Exact subgradient cov_h (w - w_true) + delta sgn(w)."""
        w = np.asarray(w, dtype=float)
        return self.cov_h @ (w - self.w_true) + self.delta * np.sign(w)

    def risk(self, w):
        """Closed-form risk (1/2)(w-w_true).cov.(w-w_true) + noise_var/2 + delta||w||_1.

        The constant noise_var/2 keeps the value aligned with Monte-Carlo
        estimates of the risk; it cancels in excess-risk differences.
        """
        w = np.asarray(w, dtype=float)
        d = w - self.w_true
        quad = d @ d if self._identity_cov else d @ self.cov_h @ d
        return 0.5 * quad + 0.5 * self.noise_var + self.delta * np.abs(w).sum()

    def optimum(self):
        """Minimizer soft_threshold(w_true, delta); identity covariance only.

        The shrinkage formula solves the first-order condition coordinatewise,
        which decouples only when cov_h is the identity.  The returned point
        is re-checked against the optimality condition before returning.
        """
        if not self._identity_cov:
            raise UnsupportedConfiguration(
                "closed-form LASSO optimum requires identity covariance"
            )
        w_star = soft_threshold(self.w_true, self.delta)
        # 0 must lie in the subdifferential: residual + delta*t = 0 with
        # t = sgn(w*_j) on the support and |t| <= 1 off it.
        resid = w_star - self.w_true
        on = w_star != 0.0
        if not np.all(np.abs(resid[on] + self.delta * np.sign(w_star[on])) <= 1e-12):
            raise NumericError("optimality condition failed on the support")
        if not np.all(np.abs(self.w_true[~on]) <= self.delta + 1e-12):
            raise NumericError("optimality condition failed off the support")
        return w_star


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale image: float pixel matrix plus its nominal peak value.

    ``peak`` is 255.0 for 8-bit pipelines and 1.0 for normalized ones.  Pixel
    values may leave [0, peak] transiently (e.g. after additive noise or
    during optimization); clamping happens only when writing files.
    """

    pixels: np.ndarray
    peak: float = 255.0

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.shape[0] < 2 or px.shape[1] < 2:
            raise ValueError("image must be at least 2x2")
        if not np.all(np.isfinite(px)):
            raise NumericError("image contains non-finite pixels")
        if self.peak <= 0:
            raise ValueError("peak must be positive")
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self):
        return self.pixels.shape


def tv_value(img):
    """Anisotropic total variation: sum of |down-neighbor| and |right-neighbor|
    differences, boundary terms dropped."""
    p = img.pixels if isinstance(img, GrayImage) else np.asarray(img, dtype=float)
    return float(np.abs(np.diff(p, axis=0)).sum() + np.abs(np.diff(p, axis=1)).sum())


def _sgn_diff(hi, lo, gt, lt):
    # sgn(hi - lo) as int8, written over the comparison bytes gt and lt and
    # returned as a view of gt.  For finite floats this is exact: with gradual
    # underflow hi - lo is 0 only when hi == lo, and an overflow to +-inf
    # keeps its sign.
    np.greater(hi, lo, out=gt)
    np.less(hi, lo, out=lt)
    d = gt.view(np.int8)
    np.subtract(d, lt.view(np.int8), out=d)
    return d


class TvBuffers(NamedTuple):
    """Working memory of :func:`tv_step_rows` for bands of up to ``rows`` rows.

    Allocated once and reused for every band of every step, so a step
    allocates nothing.  ``scratch`` is free again once a band returns.
    """

    sign: np.ndarray  # int8 sign sum, one row per band row
    gt: np.ndarray  # comparison bytes, flat, room for the halo pairs
    lt: np.ndarray
    scratch: np.ndarray  # float64, one row per band row
    finite: np.ndarray  # finiteness mask of the new rows

    @classmethod
    def allocate(cls, rows, width):
        pairs = (rows + 1) * width
        return cls(
            np.empty((rows, width), dtype=np.int8),
            np.empty(pairs, dtype=bool),
            np.empty(pairs, dtype=bool),
            np.empty((rows, width)),
            np.empty((rows, width), dtype=bool),
        )


def _tv_sign_sum_rows(p, lo, hi, buf):
    # rows [lo, hi) of the sum over existing neighbors of sgn(pixel - neighbor),
    # read from one halo row above and below the band; shares the
    # dropped-boundary convention of tv_value so the step is a true
    # subgradient of fidelity + lam * tv_value.  The sum lies in [-4, 4].
    height, width = p.shape
    rows = hi - lo
    g = buf.sign[:rows]
    g.fill(0)
    top, bottom = max(lo - 1, 0), min(hi + 1, height)
    pairs = bottom - top - 1  # vertical pairs (r, r + 1) with r in [top, bottom - 1)
    d = _sgn_diff(p[top + 1 : bottom], p[top : bottom - 1],
                  buf.gt[: pairs * width].reshape(pairs, width),
                  buf.lt[: pairs * width].reshape(pairs, width))
    up = lo - top  # 1 when the band has a halo row above
    g[1 - up :] += d[: rows - 1 + up]
    down = min(hi, height - 1) - lo  # band rows with a neighbor below
    g[:down] -= d[up : up + down]
    n = rows * (width - 1)
    d = _sgn_diff(p[lo:hi, 1:], p[lo:hi, :-1],
                  buf.gt[:n].reshape(rows, width - 1), buf.lt[:n].reshape(rows, width - 1))
    g[:, 1:] += d
    g[:, :-1] -= d
    return g


def tv_step_rows(p, noisy, out, lo, hi, mu, lam, buf):
    """Write rows [lo, hi) of the next TV subgradient iterate into ``out``.

    The rows are ``p - ((p - noisy) + lam * S(p)) * mu`` with S the sign sum,
    read from rows lo - 1 .. hi of ``p``; ``out`` must not be ``p``.  ``buf``
    is a :class:`TvBuffers` of at least ``hi - lo`` rows, and nothing else is
    allocated.  Raises :class:`NumericError` when a new pixel is not finite,
    so callers run it with overflow warnings off.
    A band reads only ``p`` and ``noisy`` and writes only its own rows.
    Arguments are not checked here; :func:`tv_subgradient_step` checks them.
    """
    rows = hi - lo
    g = _tv_sign_sum_rows(p, lo, hi, buf)
    band, new = p[lo:hi], out[lo:hi]
    scratch = buf.scratch[:rows]
    np.subtract(band, noisy[lo:hi], out=scratch)
    # float(lam): an int lam times the int8 sign sum would wrap
    np.multiply(g, float(lam), out=new)
    scratch += new
    scratch *= mu
    np.subtract(band, scratch, out=new)
    finite = buf.finite[:rows]
    np.isfinite(new, out=finite)
    if not finite.all():
        raise NumericError(f"image contains non-finite pixels in rows {lo}..{hi - 1}")


def tv_subgradient_step(img, noisy, mu, lam):
    """One subgradient step on (1/2)||I - I_noisy||_F^2 + lam * TV(I).

    Returns a new image; pixels are not clipped to the display range during
    iteration.  This is :func:`tv_step_rows` on the whole image.
    """
    if img.shape != noisy.shape:
        raise ValueError(f"dimension mismatch: {img.shape} vs {noisy.shape}")
    if mu <= 0 or lam < 0:
        raise ValueError("mu must be positive and lam nonnegative")
    p = img.pixels
    height, width = p.shape
    out = np.empty((height, width))
    with np.errstate(over="ignore", invalid="ignore"):  # the step checks its pixels
        tv_step_rows(p, noisy.pixels, out, 0, height, mu, lam, TvBuffers.allocate(height, width))
    return GrayImage(out, peak=img.peak)

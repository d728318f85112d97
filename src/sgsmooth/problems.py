"""Built-in problem families: regularized SVM, stochastic LASSO, TV denoising.

The SVM set and LASSO provide the row-wise subgradient through the kernel
that ``batch_kernel(rows)`` binds, once per lockstep run and once per probe
of the gradient-noise check; the SVM set's reads signed rows gamma * h
(:attr:`SvmSampleSet.signed`).  Both also keep the per-sample
(instantaneous) subgradient of the reference loop
:func:`sgsmooth.engine.run`, which each kernel row matches bit for bit.

A kernel ``kernel(W, H, y, out)`` writes the R rows' subgradients into
``out`` and its temporaries into work buffers it closed over, and allocates
nothing.  Every operand of its calls is 0-d or has the shape of the call's
output: the constants are 0-d arrays, and an R-long residual or hinge mask
is read as (R, dim) through a broadcast view.  At a few rows numpy would
convert a Python float, or broadcast a column, on every call, which costs
more than the arithmetic.  The row dots come from ``np.vecdot``, the kernel
of the per-sample h @ w; einsum sums in another order and moves results by
an ulp.

Each family comes with exact quantities: the LASSO risk and its
subgradient are closed-form under the linear regression model, the SVM
ones are evaluated exactly on a frozen sample set (:class:`SvmSampleSet`),
and the TV objective is deterministic.  :class:`SvmProblem` keeps only the
per-sample SVM subgradient.

Subgradient conventions are fixed once and kept for the whole run:
``sgn(0) = 0`` everywhere, and the hinge indicator is active at margin
exactly 1.
"""

from dataclasses import dataclass
from functools import cached_property
import math
import threading
from typing import NamedTuple

import numpy as np

from .engine import usable_cpus
from .errors import NumericError, trap_divergence


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
    per-sample subgradient an unbiased estimate of :meth:`true_subgradient`,
    which is what the steady-state bounds assume.
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
        """Signed rows s_k = gamma_k h_k, the rows a :meth:`batch_kernel` kernel reads.

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

    instantaneous_subgradient = SvmProblem.instantaneous_subgradient

    def batch_kernel(self, rows):
        """``kernel(W, H, y, out)`` for ``rows`` rows, with working memory of its own.

        Row r of ``out`` becomes rho W[r] - [s_r . W[r] <= 1] s_r for the
        signed row s_r = H[r], and the kernel returns ``out``.  With
        s_r = gamma h this is ``instantaneous_subgradient(W[r],
        Sample(h, gamma))`` bit for bit; ``y`` is unused, since the label is
        already in the row.  Streams for it sample :attr:`signed`, and with
        label +1 (the sample (gamma h, +1) has the same subgradient) they
        also feed :meth:`instantaneous_subgradient`.  See the module notes.
        """
        coef, one = np.array(float(self.rho)), np.array(1.0)
        dots, mask = np.empty(rows), np.empty(rows, dtype=bool)
        mask_rows = np.broadcast_to(mask[:, None], (rows, self.dim))
        product = np.empty((rows, self.dim))
        vecdot, less_equal, multiply, subtract, copyto = (
            np.vecdot, np.less_equal, np.multiply, np.subtract, np.copyto)

        def kernel(W, H, y, out):
            vecdot(H, W, dots)
            less_equal(dots, one, mask)
            multiply(W, coef, out)
            # a masked copy costs a third of a masked subtract
            subtract(out, H, product)
            copyto(out, product, where=mask_rows)
            return out

        return kernel

    def risk(self, w):
        """Exact regularized hinge risk on the set."""
        w = np.asarray(w, dtype=float)
        return self._risk(w, self.signed @ w)

    def true_subgradient(self, w):
        """Exact subgradient of :meth:`risk` (indicator active at margin 1)."""
        w = np.asarray(w, dtype=float)
        return self._subgradient(w, self.signed @ w)

    def risk_and_subgradient(self, w):
        """(:meth:`risk`, :meth:`true_subgradient`) at ``w`` from one margin pass."""
        w = np.asarray(w, dtype=float)
        margins = self.signed @ w
        return self._risk(w, margins), self._subgradient(w, margins)

    def _risk(self, w, margins):
        return 0.5 * self.rho * (w @ w) + np.maximum(0.0, 1.0 - margins).mean()

    def _subgradient(self, w, margins):
        active = (margins <= 1.0).astype(float)
        return self.rho * w - (active @ self._signed_f) / self.n

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


def check_linear_model(w_true, cov_h, noise_var):
    """``w_true`` and ``cov_h`` as floats, the rules of the linear model that
    :class:`LassoProblem` and the regression stream both check here.

    ``ValueError`` unless ``w_true`` is a vector, ``noise_var`` is
    nonnegative and ``cov_h`` is the identity: regressors are N(0, I).
    """
    w_true = np.asarray(w_true, dtype=float)
    if w_true.ndim != 1:
        raise ValueError("w_true must be a vector")
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    dim = w_true.shape[0]
    cov = np.asarray(cov_h, dtype=float)
    if not np.array_equal(cov, np.eye(dim)):
        raise ValueError(f"cov_h must be the {dim} x {dim} identity: regressors are N(0, I)")
    return w_true, cov


@dataclass(frozen=True, eq=False)
class LassoProblem:
    """Stochastic LASSO: risk (1/2) E (gamma - h.w)^2 + delta ||w||_1.

    The data model is gamma = h.w_true + noise with regressors h ~ N(0, I)
    (``cov_h`` is the identity, see :func:`check_linear_model`) and
    independent zero-mean noise of variance ``noise_var``, which makes the
    risk, its subgradient and its minimizer closed-form.
    """

    delta: float
    w_true: np.ndarray
    cov_h: np.ndarray
    noise_var: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        w_true, cov = check_linear_model(self.w_true, self.cov_h, self.noise_var)
        object.__setattr__(self, "w_true", w_true)
        object.__setattr__(self, "cov_h", cov)

    @property
    def dim(self):
        return self.w_true.shape[0]

    @property
    def trace(self):
        """Trace of the regressor covariance, M."""
        return float(self.dim)

    def instantaneous_subgradient(self, w, sample):
        """Per-sample subgradient -h (gamma - h.w) + delta sgn(w), sgn(0)=0."""
        h = sample.h
        residual = sample.gamma - h @ w
        return self.delta * np.sign(w) - residual * h

    def batch_kernel(self, rows):
        """``kernel(W, H, y, out)`` for ``rows`` rows, with working memory of its own.

        Row r of ``out`` becomes ``instantaneous_subgradient(W[r],
        Sample(H[r], y[r]))`` bit for bit, and the kernel returns ``out``.
        See the module notes.
        """
        coef = np.array(float(self.delta))
        dots, residuals = np.empty(rows), np.empty(rows)
        spread = np.broadcast_to(residuals[:, None], (rows, self.dim))
        product = np.empty((rows, self.dim))
        vecdot, subtract, sign, multiply = np.vecdot, np.subtract, np.sign, np.multiply

        def kernel(W, H, y, out):
            vecdot(H, W, dots)
            subtract(y, dots, residuals)
            sign(W, out)
            multiply(out, coef, out)
            multiply(spread, H, product)
            subtract(out, product, out)
            return out

        return kernel

    def true_subgradient(self, w):
        """Exact subgradient (w - w_true) + delta sgn(w)."""
        w = np.asarray(w, dtype=float)
        return (w - self.w_true) + self.delta * np.sign(w)

    def risk_and_subgradient(self, w):
        """(:meth:`risk`, :meth:`true_subgradient`) at ``w``."""
        return self.risk(w), self.true_subgradient(w)

    def risk(self, w):
        """Closed-form risk (1/2)||w - w_true||^2 + noise_var/2 + delta ||w||_1.

        The constant noise_var/2 keeps the value aligned with Monte-Carlo
        estimates of the risk; it cancels in excess-risk differences.
        """
        w = np.asarray(w, dtype=float)
        d = w - self.w_true
        return 0.5 * (d @ d) + 0.5 * self.noise_var + self.delta * np.abs(w).sum()

    def optimum(self):
        """Minimizer soft_threshold(w_true, delta).

        The shrinkage formula solves the first-order condition, which
        decouples coordinatewise at identity covariance.  The returned point
        is re-checked against the optimality condition before returning.
        """
        w_star = soft_threshold(self.w_true, self.delta)
        # 0 must lie in the subdifferential: residual + delta*t = 0 with
        # t = sgn(w*_j) on the support and |t| <= 1 off it.  The residual
        # carries the rounding of w_true - delta, an ulp of w_true, so the
        # slack scales with |w_true_j|.
        slack = 1e-12 * np.maximum(1.0, np.abs(self.w_true))
        resid = w_star - self.w_true
        on = w_star != 0.0
        if not np.all(np.abs(resid[on] + self.delta * np.sign(w_star[on])) <= slack[on]):
            raise NumericError("optimality condition failed on the support")
        if not np.all(np.abs(self.w_true[~on]) <= self.delta + slack[~on]):
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
    total = 0.0
    for axis in (0, 1):
        d = np.diff(p, axis=axis)
        total += np.abs(d, out=d).sum()
        del d  # one whole-image temporary at a time
    return float(total)


def _sgn_diff(hi, lo, gt, lt):
    # the calls that write sgn(hi - lo) as int8 over the comparison bytes gt
    # and lt, to be read as gt.view(np.int8).  For finite floats this is
    # exact: with gradual underflow hi - lo is 0 only when hi == lo, and an
    # overflow to +-inf keeps its sign.
    d = gt.view(np.int8)
    return [(np.greater, (hi, lo, gt)), (np.less, (hi, lo, lt)),
            (np.subtract, (d, lt.view(np.int8), d))]


# Pixels per row band of a TV step's float update, at most.  A band's
# float64 rows stay in the core's L2 cache across the update's passes, which
# measured faster than whole-image passes.  With the steps run as bound
# programs, 300 steps of 768 x 512 on 2 vCPUs took about 0.27, 0.29 and
# 0.31 s in bands of 32k, 64k and 96k pixels (medians of 5 runs, each
# spread over about 0.04 s): 32k and 64k alike within noise, and 96k, which
# also holds 1 MiB more per part, no faster.
TV_BAND_PIXELS = 65536

# Bands per sign unit, at most: a step takes its int8 sign sum over a unit
# of consecutive bands in one pass, then updates the unit band by band.  A
# larger unit makes fewer numpy calls, but holds 3 bytes per pixel of sign
# and comparison planes beside the band's float rows.  On 2 vCPUs a
# 768 x 512 image is two parts of one unit each.  Units of one band lost 5
# of 6 of the benchmark's alternating pairs there (median solve_s 0.446 ->
# 0.480 s), and one unit per whole part ran slower at 1 and at 2 CPUs.
TV_UNIT_BANDS = 3


def tv_bands(height, width):
    """Row bands [lo, hi) of about ``TV_BAND_PIXELS`` pixels covering the image.

    Bands are as even as whole rows allow and hold at least one row each.
    Every operation of a step is elementwise, so its result does not depend
    on the bands.
    """
    n = min(height, -(-height * width // TV_BAND_PIXELS))
    cuts = [height * c // n for c in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def _tv_units(bands):
    # contiguous runs of at most TV_UNIT_BANDS of the bands, as even as whole
    # bands allow
    n = -(-len(bands) // TV_UNIT_BANDS)
    cuts = [len(bands) * c // n for c in range(n + 1)]
    return [bands[a:b] for a, b in zip(cuts, cuts[1:])]


class TvBuffers(NamedTuple):
    """Working memory of :func:`_tv_program` for the sign units of some bands.

    Allocated once and bound into the program of those bands, which reuses
    it for every unit and band of every step, so a step allocates nothing.
    """

    sign: np.ndarray  # int8 sign sum, one row per unit row
    gt: np.ndarray  # comparison bytes, flat, room for a unit's halo pairs
    lt: np.ndarray
    scratch: np.ndarray  # float64, one row per band row
    scaled: np.ndarray  # float64, lam times a band's sign sum

    @classmethod
    def for_bands(cls, bands, width):
        """Buffers for the largest sign unit and the largest band of ``bands``."""
        unit_rows = max(unit[-1][1] - unit[0][0] for unit in _tv_units(bands))
        band_rows = max(hi - lo for lo, hi in bands)
        pairs = (unit_rows + 1) * width
        return cls(
            np.empty((unit_rows, width), dtype=np.int8),
            np.empty(pairs, dtype=bool),
            np.empty(pairs, dtype=bool),
            np.empty((band_rows, width)),
            np.empty((band_rows, width)),
        )


def _tv_sign_sum_rows(p, lo, hi, buf, above, below):
    # the calls that write rows [lo, hi) of the sum over existing neighbors
    # of sgn(pixel - neighbor) into buf.sign, and the rows they write; shares
    # the dropped-boundary convention of tv_value so the step is a true
    # subgradient of fidelity + lam * tv_value.  The old rows just above and
    # below [lo, hi) are ``above`` and ``below``, None at the image's edge;
    # no row of p outside [lo, hi) is read.  The sum lies in [-4, 4].  p is
    # C-contiguous.
    width = p.shape[1]
    rows = hi - lo
    band = p[lo:hi]
    # vertical pair j joins row j - 1 to row j, the halo rows standing as
    # rows -1 and `rows`; a pair that leaves the image has no sign
    gt = buf.gt[: (rows + 1) * width].reshape(rows + 1, width)
    lt = buf.lt[: (rows + 1) * width].reshape(rows + 1, width)
    d = gt.view(np.int8)
    calls = _sgn_diff(band[1:], band[:-1], gt[1:rows], lt[1:rows])
    if above is None:
        calls.append((d[0].fill, (0,)))
    else:
        calls += _sgn_diff(band[0], above, gt[0], lt[0])
    if below is None:
        calls.append((d[rows].fill, (0,)))
    else:
        calls += _sgn_diff(below, band[-1], gt[rows], lt[rows])
    g = buf.sign[:rows]
    calls.append((np.subtract, (d[:-1], d[1:], g)))
    # horizontal pairs as one flat run over the rows; the pairs that join
    # the end of one row to the start of the next get no sign.  p is
    # C-contiguous, so flat is a view of its rows, not a copy as they were
    # when the calls were bound.
    flat = band.reshape(-1)
    n = flat.size - 1
    calls += _sgn_diff(flat[1:], flat[:-1], buf.gt[:n], buf.lt[:n])
    d = buf.gt[:n].view(np.int8)
    g_flat = g.reshape(-1)
    calls += [(d[width - 1 :: width].fill, (0,)),
              (np.add, (g_flat[1:], d, g_flat[1:])),
              (np.subtract, (g_flat[:-1], d, g_flat[:-1]))]
    return calls, g


def _tv_program(p, noisy, mu, lam, units, halos, buf, z=None, kappa=0.0):
    # The calls, as (f, args) pairs over views made here, that advance the
    # rows of ``units`` (sign units of contiguous bands, in order) of p in
    # place to the next iterate p - ((p - noisy) + lam * S(p)) * mu, S the
    # sign sum of the old iterate; _tv_run runs them, once per step of
    # _tv_steps.  Each unit takes its sign sum in one pass, then updates its
    # bands one by one; where z is given, each band then advances the same
    # rows of the numerator, z = kappa z + p, while they are in cache.  A
    # unit's pair of ``halos`` stands in for the old rows of p just above and
    # just below it, None at the image's edge, so every unit reads the old
    # iterate although the units around it are written meanwhile.  ``buf`` is
    # TvBuffers.for_bands of the units' bands; a run allocates nothing.  mu,
    # lam and kappa are bound as 0-d operands: numpy would convert a Python
    # float on every call.  Run under trap_divergence: from finite pixels
    # only an overflow or invalid operation makes a non-finite one, and it
    # raises before its band advances z.  Arguments are not checked here.
    mu, lam, kappa = (np.array(x, dtype=float) for x in (mu, lam, kappa))
    program = []
    for unit, (above, below) in zip(units, halos):
        lo = unit[0][0]
        calls, g = _tv_sign_sum_rows(p, lo, unit[-1][1], buf, above, below)
        program += calls
        for a, b in unit:
            rows = b - a
            band, scratch, scaled = p[a:b], buf.scratch[:rows], buf.scaled[:rows]
            # the sign sum goes to float64 before it is scaled: faster than a
            # mixed-type multiply, and an integer lam cannot wrap the int8 sum
            program += [(np.subtract, (band, noisy[a:b], scratch)),
                        (np.copyto, (scaled, g[a - lo : b - lo])),
                        (np.multiply, (scaled, lam, scaled)),
                        (np.add, (scratch, scaled, scratch)),
                        (np.multiply, (scratch, mu, scratch)),
                        (np.subtract, (band, scratch, band))]
            if z is not None:
                zrows = z[a:b]
                program += [(np.multiply, (zrows, kappa, zrows)),
                            (np.add, (zrows, band, zrows))]
    return program


def _tv_run(program):
    # one step: the calls of a program from _tv_program, in order
    for f, args in program:
        f(*args)


def _check_tv_step(mu, lam):
    if not (0.0 < mu < math.inf and 0.0 <= lam < math.inf):
        raise ValueError(f"mu must be positive and finite and lam nonnegative and finite, "
                         f"got mu={mu!r}, lam={lam!r}")


def tv_subgradient_step(img, noisy, mu, lam):
    """One subgradient step on (1/2)||I - I_noisy||_F^2 + lam * TV(I).

    Returns a new image; pixels are not clipped to the display range during
    iteration.  The step runs on a copy of the image through the row parts
    of :func:`_tv_steps`, each with buffers of its own.  ``mu`` must be
    positive and finite, ``lam`` nonnegative and finite.  A step that
    overflows raises :class:`~sgsmooth.errors.NumericError` naming step 1.
    """
    if img.shape != noisy.shape:
        raise ValueError(f"dimension mismatch: {img.shape} vs {noisy.shape}")
    _check_tv_step(mu, lam)
    out = img.pixels.copy()
    _tv_steps(out, None, noisy.pixels, mu, lam, 0.0, range(1, 2))
    return GrayImage(out, peak=img.peak)


def tv_denoise(noisy, mu, lam, kappa, iterations):
    """Smoothed iterate, as pixels, after ``iterations`` TV steps from ``noisy``.

    Steps the subgradient iteration of :func:`tv_subgradient_step` from the
    :class:`GrayImage` ``noisy`` and smooths the iterates with factor
    ``kappa``: the smoothing carries S and the numerator Z = kappa Z + w from
    S_0 = 1 and Z_0 = ``noisy``, and divides out w_bar = Z / S at the end.
    ``mu`` must be positive and finite, ``lam`` nonnegative and finite and
    ``kappa`` in [0, 1), whatever the count, or this raises ValueError.  The
    first step is one call of tv_subgradient_step, and _tv_steps takes the
    others, advancing Z with the iterate.  A step that overflows raises
    :class:`~sgsmooth.errors.NumericError` naming the step.
    """
    _check_tv_step(mu, lam)
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations!r}")
    z = noisy.pixels.copy()
    if iterations == 0:
        return z
    p = tv_subgradient_step(noisy, noisy, mu, lam).pixels
    with trap_divergence("iterate diverged in step 1"):
        z *= kappa
        z += p
    if iterations > 1:
        _tv_steps(p, z, noisy.pixels, mu, lam, kappa, range(2, iterations + 1))
    s = kappa + 1.0  # S_1 = kappa S_0 + 1 with S_0 = 1
    for _ in range(2, iterations + 1):
        s = kappa * s + 1.0
    z /= s
    return z


def _tv_parts(height, width):
    # row parts (lo, hi, bands) of _tv_steps: one per usable CPU, at most
    # one per band of the image, as even as whole rows allow, each cut into
    # bands of its own
    n = min(usable_cpus(), len(tv_bands(height, width)))
    cuts = [height * j // n for j in range(n + 1)]
    return [(lo, hi, [(lo + a, lo + b) for a, b in tv_bands(hi - lo, width)])
            for lo, hi in zip(cuts, cuts[1:])]


def _tv_steps(p, z, noisy, mu, lam, kappa, steps):
    """Run the TV steps numbered by ``steps``, a range, on ``p`` in place.

    Each step maps p to p - ((p - noisy) + lam * S(p)) * mu, S the sign sum
    of the old iterate, and advances z = kappa z + p where ``z`` is given.
    The row parts of _tv_parts each run one program of _tv_program over the
    sign units of their bands and buffers of their own, on a thread of their
    own, the calling thread taking the first.  Every unit reads the rows
    just around it not from ``p``, which its own part and the neighbouring
    parts write meanwhile, but from one halo slot of the first and the last
    row of every unit, which the action of the parts' barrier fills once a
    step while every part waits.  Every operation is elementwise, so the
    result depends on neither the parts, the units nor the bands.  Each step
    runs under trap_divergence naming it.  A part that fails breaks the
    barrier, and all failures come in the same step; the topmost part's is
    raised once every thread has ended.
    """
    parts = [(bands, _tv_units(bands)) for _, _, bands in _tv_parts(*p.shape)]
    spans = [(unit[0][0], unit[-1][1]) for _, units in parts for unit in units]
    width = p.shape[1]
    halo = np.empty((len(spans), 2, width))  # the first and the last row of each unit

    def snapshot():
        for k, (lo, hi) in enumerate(spans):
            halo[k, 0], halo[k, 1] = p[lo], p[hi - 1]

    # each unit's old rows just above and below it, in the order of the units
    halos = iter([(halo[k - 1, 1] if k > 0 else None,
                   halo[k + 1, 0] if k + 1 < len(spans) else None) for k in range(len(spans))])
    programs = []
    for bands, units in parts:
        # allocated on the calling thread: a worker thread's malloc arena would
        # keep them resident after the steps, beside the arrays that follow
        buf = TvBuffers.for_bands(bands, width)
        programs.append(_tv_program(p, noisy, mu, lam, units, [next(halos) for _ in units],
                                    buf, z, kappa))
    snapshot()
    barrier = threading.Barrier(len(parts), action=snapshot)
    failures = [None] * len(parts)

    def step_part(j):
        try:
            for step in steps:
                with trap_divergence(f"iterate diverged in step {step}"):
                    _tv_run(programs[j])
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

"""Synthetic sample streams, LIBSVM parsing, PGM image I/O, and metrics.

All randomness flows through seeded PCG64 generators, and Gaussian variates
are produced by the inverse-CDF transform of 64-bit uniforms (see
:func:`standard_normal`), so a (spec, seed) pair always reproduces the same
sample sequence.  Each value takes one 64-bit word, so a draw of k values
leaves the generator where ``bit_generator.advance(k)`` would.

Every sampler defines one sampling method, ``draw_batch(n)``, which returns
``(features (n, dim), targets (n,))``.  The random samplers' ``draw()`` and
iteration, the per-sample forms of the reference loop
:func:`sgsmooth.engine.run`, are views of it, defined once in a base class.
"""

from dataclasses import dataclass
import math
import re

import numpy as np
from scipy.special import ndtri

from .engine import SAMPLE_BLOCK
from .errors import FormatError, ParseError, StreamExhausted, refuse_size, trap_divergence
from .problems import GrayImage, Sample, check_linear_model


# the largest double below 1, as a 0-d operand
_BELOW_ONE = np.array(np.nextafter(1.0, 0.0))


def uniform_open(rng, size):
    """Uniforms strictly inside (0, 1): bin midpoints (k + 1/2) / 2^64 of a
    64-bit integer draw, exactly one generator word per value.

    k is converted through its two 32-bit halves, hi 2^32 + lo, where both
    terms are exact in float64, so the sum rounds once and equals numpy's
    uint64 to float64 cast, which is slower because it branches on the top
    bit of every word.  The top 1024 words round up to 1.0 there, so values
    are clamped to the largest double below 1, the value of the word below
    them.
    """
    k = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    halves = k.reshape(-1).astype("<u8", copy=False).view("<u4")  # lo, hi, lo, hi, ...
    u = np.multiply(halves[1::2], 2.0**32)
    u += halves[0::2]
    u += 0.5
    u *= 2.0**-64
    np.minimum(u, _BELOW_ONE, out=u)
    return u.reshape(k.shape)


def standard_normal(rng, size):
    """Standard normal draws via the inverse normal CDF of open uniforms.

    Any generator producing the same 64-bit integer stream reproduces these
    values exactly, one word per value.  The samplers below consume a fixed
    number of values per sample in row-major order, so a sample sequence
    does not depend on how draws are batched.
    """
    return ndtri(uniform_open(rng, size))


@dataclass(frozen=True, eq=False)
class RegressionStreamSpec:
    """Linear-model stream: gamma = h . w_true + noise.

    Regressors are standard normal, h ~ N(0, I) (``cov_h`` is the identity,
    see :func:`~sgsmooth.problems.check_linear_model`), and the noise is
    independent zero-mean Gaussian with variance ``noise_var``.
    """

    w_true: np.ndarray
    cov_h: np.ndarray
    noise_var: float

    kind = "regression"

    def __post_init__(self):
        w_true, cov = check_linear_model(self.w_true, self.cov_h, self.noise_var)
        object.__setattr__(self, "w_true", w_true)
        object.__setattr__(self, "cov_h", cov)

    @property
    def dim(self):
        return self.w_true.shape[0]


@dataclass(frozen=True, eq=False)
class TwoClassGaussianSpec:
    """Two-class stream: draw the label y = +-1 by prior, then h ~ N(y mean, cov_scale I)."""

    mean: np.ndarray
    cov_scale: float
    prior_pos: float

    kind = "svm-gaussian"

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if not 0.0 < self.cov_scale < math.inf:
            raise ValueError("cov_scale must be positive and finite")
        if not 0.0 <= self.prior_pos <= 1.0:
            raise ValueError("prior_pos must lie in [0, 1]")
        object.__setattr__(self, "mean", mean)

    @classmethod
    def symmetric(cls, mean, cov_scale=1.0, prior_pos=0.5):
        """Mirror-image classes at +-mean with isotropic covariance."""
        return cls(mean, cov_scale, prior_pos)

    @property
    def dim(self):
        return self.mean.shape[0]


class _Sampler:
    """Per-sample views of the subclass's ``draw_batch(n)``, the one sampling path.

    ``draw()`` is the single row of ``draw_batch(1)`` and iteration yields the
    rows of successive ``draw_batch(SAMPLE_BLOCK)`` blocks.  Every sampler
    consumes a fixed amount of generator output per row, so the three views
    give the same sample sequence.
    """

    def draw(self):
        feats, targets = self.draw_batch(1)
        return Sample(feats[0], float(targets[0]))

    def __iter__(self):
        while True:
            feats, targets = self.draw_batch(SAMPLE_BLOCK)
            for k in range(SAMPLE_BLOCK):
                yield Sample(feats[k], targets[k])


class RegressionSampler(_Sampler):
    """Stateful stream of regression samples; draws are buffered in blocks."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.dim = spec.dim
        self._rng = np.random.default_rng(seed)
        self._sigma = math.sqrt(spec.noise_var)

    def draw_batch(self, n):
        """Return (features (n, dim), targets (n,)); dim + 1 variates per row."""
        z = standard_normal(self._rng, (n, self.dim + 1))
        feats = z[:, :-1]
        noise = self._sigma * z[:, -1]
        return feats, feats @ self.spec.w_true + noise


class TwoClassGaussianSampler(_Sampler):
    """Stateful stream of two-class Gaussian samples."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.dim = spec.dim
        self._rng = np.random.default_rng(seed)
        self._scale = math.sqrt(spec.cov_scale)

    def draw_batch(self, n):
        """Return (features (n, dim), labels (n,) of +-1); dim + 1 variates per row."""
        u = uniform_open(self._rng, (n, self.dim + 1))
        labels = np.where(u[:, 0] < self.spec.prior_pos, 1.0, -1.0)
        return labels[:, None] * self.spec.mean + self._scale * ndtri(u[:, 1:]), labels


class SetSampler(_Sampler):
    """Uniform-with-replacement sampling from a frozen (features, labels) set."""

    def __init__(self, features, labels, seed):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.dim = self.features.shape[1]
        self._rng = np.random.default_rng(seed)

    def draw_batch(self, n):
        idx = self._rng.integers(0, self.features.shape[0], size=n)
        return self.features[idx], self.labels[idx]


class EpochSampler:
    """A frozen (features, labels) set served ``epochs`` times, every row once
    per epoch: in set order, or with ``shuffle`` in a fresh permutation per
    epoch from one ``default_rng(seed)``.  Drawing past the last epoch raises
    :class:`StreamExhausted`."""

    def __init__(self, features, labels, epochs, seed, shuffle=True):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self._rng = np.random.default_rng(seed) if shuffle else None
        self._epochs_left = epochs
        self._queue = np.empty(0, dtype=np.intp)  # row indices not yet drawn

    def draw_batch(self, n):
        while self._queue.size < n:
            if self._epochs_left == 0:
                raise StreamExhausted("the set's epochs ran out")
            self._epochs_left -= 1
            size = self.labels.shape[0]
            order = np.arange(size) if self._rng is None else self._rng.permutation(size)
            self._queue = np.concatenate([self._queue, order])
        idx, self._queue = self._queue[:n], self._queue[n:]
        return self.features[idx], self.labels[idx]


def make_sampler(spec, seed):
    """Build the sampler matching a stream spec."""
    if spec.kind == "regression":
        return RegressionSampler(spec, seed)
    if spec.kind == "svm-gaussian":
        return TwoClassGaussianSampler(spec, seed)
    raise ValueError(f"unknown stream kind {spec.kind!r}")


@dataclass(frozen=True, eq=False)
class DatasetFile:
    """Parsed dataset: dense feature matrix plus +-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


_LABEL_MAP = {"+1": 1.0, "1": 1.0, "-1": -1.0, "0": -1.0}


def parse_libsvm(text):
    """Parse LIBSVM sparse text: per line ``label idx:val idx:val ...``.

    Indices are 1-based and must be strictly increasing within a line.
    Labels +1/1 map to +1 and -1/0 map to -1.  The dimension is the maximum
    feature index seen.
    """
    rows = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        label = _LABEL_MAP.get(fields[0])
        if label is None:
            raise ParseError(f"unsupported label {fields[0]!r}", line=lineno)
        entries = []
        prev = 0
        for tok in fields[1:]:
            try:
                idx_text, val_text = tok.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise ParseError(f"malformed feature {tok!r}", line=lineno) from None
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}", line=lineno)
            if idx < 1:
                raise ParseError(f"feature index {idx} must be >= 1", line=lineno)
            if idx <= prev:
                raise ParseError(
                    f"feature indices must be strictly increasing ({idx} after {prev})",
                    line=lineno,
                )
            prev = idx
            entries.append((idx, val))
        max_index = max(max_index, prev)
        rows.append((label, entries))

    with refuse_size(lambda exc: ParseError(
            f"a {len(rows)} x {max_index} feature matrix is too large to hold")):
        features = np.zeros((len(rows), max_index))
    labels = np.empty(len(rows))
    for k, (label, entries) in enumerate(rows):
        labels[k] = label
        for idx, val in entries:
            features[k, idx - 1] = val
    return DatasetFile(features, labels)


def load_libsvm(path):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_libsvm(fh.read())


def add_gaussian_noise(img, sigma, seed):
    """Add i.i.d. zero-mean Gaussian noise of standard deviation ``sigma``.

    The result is intentionally not clipped to [0, peak]; clamping would bias
    the noise and happens only when an image is written to disk.  A pixel
    that overflows raises :class:`NumericError` (``noise injection diverged``).
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    with trap_divergence("noise injection diverged"):
        noisy = img.pixels + sigma * standard_normal(rng, img.pixels.shape)
    return GrayImage(noisy, peak=img.peak)


def mse(img, reference, out=None):
    """Mean squared pixel difference.

    The difference is formed in ``out`` when given, a float64 array of the
    images' shape that may be either image's own pixels, and in a new array
    otherwise.
    """
    if img.shape != reference.shape:
        raise ValueError("image dimensions differ")
    d = np.subtract(img.pixels, reference.pixels, out=out)
    d *= d
    return float(np.mean(d))


def psnr(img, reference, out=None):
    """Peak signal-to-noise ratio 10 log10(peak^2 / MSE) in dB.

    Identical images return +inf, and images so far apart that the MSE
    overflows return -inf.  Both images must share the same peak convention.
    ``out`` is passed to :func:`mse`.
    """
    if img.peak != reference.peak:
        raise ValueError("images use different peak conventions")
    with np.errstate(over="ignore"):
        err = mse(img, reference, out)
    if err == 0.0:
        return math.inf
    if err == math.inf:
        return -math.inf
    return 10.0 * math.log10(img.peak**2 / err)


# One header token after whitespace and comments; a '#' where a token would
# start opens a comment through its newline.  No part of the pattern can fail,
# so it matches greedily without backtracking; the token is empty only at EOF.
_PGM_TOKEN = re.compile(rb"\s*(?:#[^\n]*\s*)*(\S*)")


def _read_pgm_tokens(blob, count):
    tokens = []
    pos = 0
    for _ in range(count):
        match = _PGM_TOKEN.match(blob, pos)
        token = match.group(1)
        if not token:
            raise FormatError("truncated PGM header")
        tokens.append(token)
        pos = match.end()
    return tokens, pos + 1  # skip the single whitespace after the last token


def read_pgm(path):
    """Read a binary (P5) PGM with maxval 255 into a GrayImage with peak 255."""
    return GrayImage(read_pgm_pixels(path).astype(float), peak=255.0)


def read_pgm_pixels(path):
    """The 8-bit pixels, a (height, width) uint8 array, of a binary (P5) PGM
    with maxval 255."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise FormatError("not a binary PGM (P5) file")
    tokens, offset = _read_pgm_tokens(blob, 4)
    if tokens[0] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError("non-numeric PGM header field") from None
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255 is handled")
    if width < 2 or height < 2:
        raise FormatError(f"PGM size {width}x{height} is below the 2x2 minimum")
    expected = width * height
    data = blob[offset : offset + expected]
    if len(data) != expected:
        raise FormatError("PGM pixel data shorter than header promises")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


def write_pgm(img, path):
    """Write a GrayImage as binary PGM, clamping to [0, 255] and rounding half-up."""
    # one float scratch image, rounded in place; clamped to [0, peak] before
    # it is scaled, so that a pixel far above the peak cannot overflow.  That
    # moves a scaled value by at most an ulp or two of 255, where it rounds
    # to 255 either way.
    px = np.clip(img.pixels, 0.0, img.peak)
    if img.peak != 255.0:
        px *= 255.0 / img.peak
    px += 0.5
    np.floor(px, out=px)
    px = px.astype(np.uint8)
    height, width = px.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(px.tobytes())

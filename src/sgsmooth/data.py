"""Synthetic sample streams, LIBSVM parsing, PGM image I/O, and metrics.

All randomness flows through seeded PCG64 generators, and Gaussian variates
are produced by the inverse-CDF transform of 64-bit uniforms (see
:func:`standard_normal`), so a (spec, seed) pair always reproduces the same
sample sequence.  Each value takes one 64-bit word, so any span of a draw
can be drawn on its own, bit for bit, from :func:`advanced_rng`.

Every sampler defines one sampling method, ``draw_batch(n)``, which returns
``(features (n, dim), targets (n,))``.  ``draw()`` and iteration, the
per-sample forms used by the reference loop :func:`sgsmooth.engine.run`,
are views of it, defined once in a shared base class.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import ndtri

from .engine import SAMPLE_BLOCK
from .errors import FormatError, ParseError
from .problems import GrayImage, Sample


def uniform_open(rng, size):
    """Uniforms strictly inside (0, 1): bin midpoints (k + 1/2) / 2^64 of a
    64-bit integer draw, exactly one generator word per value."""
    k = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    return (k.astype(np.float64) + 0.5) * 2.0**-64


def standard_normal(rng, size):
    """Standard normal draws via the inverse normal CDF of open uniforms.

    Any generator producing the same 64-bit integer stream reproduces these
    values exactly, one word per value.  The samplers below consume a fixed
    number of values per sample in row-major order, so a sample sequence
    does not depend on how draws are batched.
    """
    return ndtri(uniform_open(rng, size))


def advanced_rng(seed, k):
    """``np.random.default_rng(seed)`` after ``k`` values of :func:`uniform_open`
    or :func:`standard_normal`, reached by PCG64 jump-ahead in O(log k)."""
    bits = np.random.PCG64(seed)
    bits.advance(k)
    return np.random.Generator(bits)


def _cholesky_or_none(cov, dim):
    """Lower Cholesky factor, or None when the covariance is the identity."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise ValueError("covariance shape does not match dimension")
    if np.array_equal(cov, np.eye(dim)):
        return None
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc


@dataclass(frozen=True, eq=False)
class RegressionStreamSpec:
    """Linear-model stream: gamma = h . w_true + noise.

    Regressors are zero-mean Gaussian with covariance ``cov_h`` and the noise
    is independent zero-mean Gaussian with variance ``noise_var``.
    """

    w_true: np.ndarray
    cov_h: np.ndarray
    noise_var: float

    kind = "regression"

    def __post_init__(self):
        w = np.asarray(self.w_true, dtype=float)
        object.__setattr__(self, "w_true", w)
        object.__setattr__(self, "cov_h", np.asarray(self.cov_h, dtype=float))
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        _cholesky_or_none(self.cov_h, w.shape[0])

    @property
    def dim(self):
        return self.w_true.shape[0]


@dataclass(frozen=True, eq=False)
class TwoClassGaussianSpec:
    """Two-class stream: draw the label by prior, then h ~ N(mean_label, cov_label)."""

    mean_pos: np.ndarray
    mean_neg: np.ndarray
    cov_pos: np.ndarray
    cov_neg: np.ndarray
    prior_pos: float

    kind = "svm-gaussian"

    def __post_init__(self):
        mp = np.asarray(self.mean_pos, dtype=float)
        mn = np.asarray(self.mean_neg, dtype=float)
        if mp.shape != mn.shape or mp.ndim != 1:
            raise ValueError("class means must be vectors of equal length")
        if not 0.0 <= self.prior_pos <= 1.0:
            raise ValueError("prior_pos must lie in [0, 1]")
        object.__setattr__(self, "mean_pos", mp)
        object.__setattr__(self, "mean_neg", mn)
        object.__setattr__(self, "cov_pos", np.asarray(self.cov_pos, dtype=float))
        object.__setattr__(self, "cov_neg", np.asarray(self.cov_neg, dtype=float))
        _cholesky_or_none(self.cov_pos, mp.shape[0])
        _cholesky_or_none(self.cov_neg, mp.shape[0])

    @classmethod
    def symmetric(cls, mean, cov_scale=1.0, prior_pos=0.5):
        """Mirror-image classes at +-mean with isotropic covariance."""
        mean = np.asarray(mean, dtype=float)
        cov = cov_scale * np.eye(mean.shape[0])
        return cls(mean, -mean, cov, cov, prior_pos)

    @property
    def dim(self):
        return self.mean_pos.shape[0]


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
        self._chol = _cholesky_or_none(spec.cov_h, spec.dim)
        self._sigma = math.sqrt(spec.noise_var)

    def draw_batch(self, n):
        """Return (features (n, dim), targets (n,)); dim + 1 variates per row."""
        z = standard_normal(self._rng, (n, self.dim + 1))
        feats = z[:, :-1] if self._chol is None else z[:, :-1] @ self._chol.T
        noise = self._sigma * z[:, -1]
        return feats, feats @ self.spec.w_true + noise


class TwoClassGaussianSampler(_Sampler):
    """Stateful stream of two-class Gaussian samples."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.dim = spec.dim
        self._rng = np.random.default_rng(seed)
        self._chol_pos = _cholesky_or_none(spec.cov_pos, spec.dim)
        self._chol_neg = _cholesky_or_none(spec.cov_neg, spec.dim)

    def draw_batch(self, n):
        """Return (features (n, dim), labels (n,) of +-1); dim + 1 variates per row."""
        spec = self.spec
        u = uniform_open(self._rng, (n, self.dim + 1))
        positive = u[:, 0] < spec.prior_pos
        labels = np.where(positive, 1.0, -1.0)
        z = ndtri(u[:, 1:])
        feats = np.empty((n, self.dim))
        zp = z[positive]
        zn = z[~positive]
        feats[positive] = spec.mean_pos + (
            zp if self._chol_pos is None else zp @ self._chol_pos.T
        )
        feats[~positive] = spec.mean_neg + (
            zn if self._chol_neg is None else zn @ self._chol_neg.T
        )
        return feats, labels


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


def parse_libsvm(text, dim=None):
    """Parse LIBSVM sparse text: per line ``label idx:val idx:val ...``.

    Indices are 1-based and must be strictly increasing within a line.
    Labels +1/1 map to +1 and -1/0 map to -1.  The dimension is the maximum
    feature index seen, or ``dim`` when given (to align train/test splits).
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

    width = max_index if dim is None else dim
    if width < max_index:
        raise ParseError(f"dataset has index {max_index} beyond dim={dim}")
    try:
        features = np.zeros((len(rows), width))
    except MemoryError:
        raise ParseError(f"a {len(rows)} x {width} feature matrix is too large to hold") from None
    labels = np.empty(len(rows))
    for k, (label, entries) in enumerate(rows):
        labels[k] = label
        for idx, val in entries:
            features[k, idx - 1] = val
    return DatasetFile(features, labels)


def serialize_libsvm(dataset):
    """Inverse of :func:`parse_libsvm` on well-formed data (zeros are skipped)."""
    lines = []
    for k in range(dataset.n):
        parts = ["+1" if dataset.labels[k] > 0 else "-1"]
        row = dataset.features[k]
        for idx in np.flatnonzero(row):
            parts.append(f"{idx + 1}:{float(row[idx])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def load_libsvm(path, dim=None):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_libsvm(fh.read(), dim=dim)


def dataset_stream(dataset, epochs=1, shuffle_seed=None):
    """Yield dataset samples for ``epochs`` passes, reshuffled per pass when seeded."""
    rng = None if shuffle_seed is None else np.random.default_rng(shuffle_seed)
    for _ in range(epochs):
        order = np.arange(dataset.n) if rng is None else rng.permutation(dataset.n)
        for k in order:
            yield Sample(dataset.features[k], float(dataset.labels[k]))


def add_gaussian_noise(img, sigma, seed):
    """Add i.i.d. zero-mean Gaussian noise of standard deviation ``sigma``.

    The result is intentionally not clipped to [0, peak]; clamping would bias
    the noise and happens only when an image is written to disk.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # GrayImage rejects an overflowed pixel
        noisy = img.pixels + sigma * standard_normal(rng, img.pixels.shape)
    return GrayImage(noisy, peak=img.peak)


def mse(img, reference):
    """Mean squared pixel difference."""
    if img.shape != reference.shape:
        raise ValueError("image dimensions differ")
    d = img.pixels - reference.pixels
    return float(np.mean(d * d))


def psnr(img, reference):
    """Peak signal-to-noise ratio 10 log10(peak^2 / MSE) in dB.

    Identical images return +inf, and images so far apart that the MSE
    overflows return -inf.  Both images must share the same peak convention.
    """
    if img.peak != reference.peak:
        raise ValueError("images use different peak conventions")
    with np.errstate(over="ignore"):
        err = mse(img, reference)
    if err == 0.0:
        return math.inf
    if err == math.inf:
        return -math.inf
    return 10.0 * math.log10(img.peak**2 / err)


def _read_pgm_tokens(blob, count):
    # Whitespace-separated header tokens; '#' starts a comment to end of line.
    tokens = []
    pos = 0
    n = len(blob)
    while len(tokens) < count:
        if pos >= n:
            raise FormatError("truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = blob.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            end = pos
            while end < n and not blob[end : end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    return tokens, pos + 1  # skip the single whitespace after the last token


def read_pgm(path):
    """Read a binary (P5) PGM with maxval 255 into a GrayImage with peak 255."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise FormatError("not a binary PGM (P5) file")
    tokens, offset = _read_pgm_tokens(blob, 4)
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
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.astype(float), peak=255.0)


def write_pgm(img, path):
    """Write a GrayImage as binary PGM, clamping to [0, 255] and rounding half-up."""
    px = img.pixels
    if img.peak != 255.0:
        px = px * (255.0 / img.peak)
    px = np.clip(px, 0.0, 255.0)
    px = np.floor(px + 0.5).astype(np.uint8)
    height, width = px.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(px.tobytes())

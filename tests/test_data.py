import math
import warnings

import numpy as np
import pytest

from sgsmooth import data, problems
from sgsmooth.engine import SAMPLE_BLOCK
from scipy.special import ndtri

from sgsmooth.errors import FormatError, NumericError, ParseError, StreamExhausted
from sgsmooth.problems import GrayImage


# ---------- gaussian sampling ----------


def test_standard_normal_moments():
    rng = np.random.default_rng(0)
    z = data.standard_normal(rng, 200_000)
    assert abs(z.mean()) <= 3 / math.sqrt(200_000)
    assert abs(z.var() - 1.0) <= 3 * math.sqrt(2.0 / 200_000)


def test_standard_normal_reproducible():
    a = data.standard_normal(np.random.default_rng(42), (3, 4))
    b = data.standard_normal(np.random.default_rng(42), (3, 4))
    np.testing.assert_array_equal(a, b)


class WordStub:
    """A generator whose integers() returns chosen 64-bit words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**64, np.uint64)
        return self.words.reshape(size)


BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


def uniform_reference(k):
    # numpy's uint64 -> float64 cast, which the split-word conversion
    # replaces, clamped below 1: the top 1024 words round up to 1.0 there
    return np.minimum((k.astype(np.float64) + 0.5) * 2.0**-64, BELOW_ONE)


def split_word_cases():
    words = {2**64 - 1}
    for e in range(64):
        words.update(2**e + d for d in range(-3, 4) if 0 <= 2**e + d < 2**64)
    for e in range(53, 64):
        # in [2^e, 2^(e+1)) float64 steps by 2^(e-52), so words halfway
        # between two steps are ties: one that rounds down to an even
        # mantissa, one that rounds up to one, and one up to 2^(e+1)
        half = 2 ** (e - 53)
        for tie in (2**e + half, 2**e + 3 * half, 2 ** (e + 1) - half):
            words.update((tie - 1, tie, tie + 1))
    return sorted(words)


def test_uniform_open_equals_the_cast_on_powers_ties_and_the_top_word():
    words = split_word_cases()
    k = np.array(words, dtype=np.uint64)
    u = data.uniform_open(WordStub(k), k.size)
    assert np.array_equal(u, uniform_reference(k))
    # Python's int to float conversion rounds correctly, independently of numpy
    assert u.tolist() == [min((float(w) + 0.5) * 2.0**-64, BELOW_ONE) for w in words]


TOP_WORDS = [2**64 - 1, 2**64 - 2, 2**64 - 1023, 2**64 - 1024]


def test_uniform_open_keeps_the_top_words_below_one():
    # the word below them already maps to the largest double below 1
    k = np.array(TOP_WORDS + [2**64 - 1025], dtype=np.uint64)
    assert (k[-1].astype(np.float64) + 0.5) * 2.0**-64 == BELOW_ONE
    u = data.uniform_open(WordStub(k), k.size)
    assert u.tolist() == [BELOW_ONE] * k.size
    z = data.standard_normal(WordStub(k), k.size)
    assert np.all(np.isfinite(z)) and np.all(z > 8.0)


def test_top_words_give_class_one_at_prior_one():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([1.0, -1.0]), prior_pos=1.0)
    sampler = data.TwoClassGaussianSampler(spec, 0)
    sampler._rng = WordStub(np.repeat(np.array(TOP_WORDS, dtype=np.uint64), 3))
    feats, labels = sampler.draw_batch(4)
    assert labels.tolist() == [1.0] * 4
    assert np.all(np.isfinite(feats))


@pytest.mark.parametrize("shape", [(1 << 20,), (1024, 1025)])
def test_uniform_open_equals_the_cast_on_random_words(shape):
    k = np.random.default_rng(25).integers(0, 2**64, size=shape, dtype=np.uint64)
    u = data.uniform_open(WordStub(k), shape)
    assert u.shape == shape and u.dtype == np.float64
    assert np.array_equal(u, uniform_reference(k))


@pytest.mark.parametrize("k", [0, 1, 511, 51237])
def test_standard_normal_takes_one_generator_word_per_value(k):
    # a numpy change to full-range integers breaks this
    rng = np.random.default_rng(19)
    data.standard_normal(rng, k)
    bits = np.random.PCG64(19)
    bits.advance(k)
    assert rng.bit_generator.state == bits.state


# ---------- regression stream ----------


def test_regression_stream_zero_noise_zero_signal():
    spec = data.RegressionStreamSpec(np.zeros(3), np.eye(3), 0.0)
    sampler = data.RegressionSampler(spec, 1)
    for _ in range(20):
        s = sampler.draw()
        assert s.gamma == 0.0


def test_regression_stream_empirical_covariance():
    dim = 100
    spec = data.RegressionStreamSpec(np.zeros(dim), np.eye(dim), 0.0)
    sampler = data.RegressionSampler(spec, 2)
    n = 100_000
    feats, _ = sampler.draw_batch(n)
    cov = feats.T @ feats / n
    # var of an off-diagonal entry estimate is ~1/n; diagonal ~2/n
    assert np.max(np.abs(cov - np.eye(dim))) <= 5 * math.sqrt(2.0 / n)


def test_regression_stream_cross_moment_matches_normal_equations():
    # E[h gamma] = w_true, and Var(h_j gamma) = ||w||^2 + 0.25 + w_j^2
    dim = 8
    w_true = np.random.default_rng(3).normal(size=dim)
    spec = data.RegressionStreamSpec(w_true, np.eye(dim), 0.25)
    sampler = data.RegressionSampler(spec, 4)
    n = 100_000
    feats, targets = sampler.draw_batch(n)
    cross = feats.T @ targets / n
    scale = math.sqrt((2 * w_true @ w_true + 0.25) / n)
    assert np.max(np.abs(cross - w_true)) <= 5 * scale


def test_regression_sampler_sequence_is_access_pattern_invariant():
    spec = data.RegressionStreamSpec(np.array([1.0, 0.0]), np.eye(2), 0.01)
    one_by_one = data.RegressionSampler(spec, 9)
    singles = [one_by_one.draw() for _ in range(5)]
    batched = data.RegressionSampler(spec, 9).draw_batch(5)
    it = iter(data.RegressionSampler(spec, 9))
    streamed = [next(it) for _ in range(5)]
    for k in range(5):
        np.testing.assert_array_equal(singles[k].h, batched[0][k])
        assert singles[k].gamma == batched[1][k]
        np.testing.assert_array_equal(singles[k].h, streamed[k].h)
        assert singles[k].gamma == streamed[k].gamma


def test_two_class_sampler_sequence_is_access_pattern_invariant():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([0.5, -0.5]), prior_pos=0.4)
    singles_src = data.TwoClassGaussianSampler(spec, 10)
    singles = [singles_src.draw() for _ in range(6)]
    feats, labels = data.TwoClassGaussianSampler(spec, 10).draw_batch(6)
    it = iter(data.TwoClassGaussianSampler(spec, 10))
    streamed = [next(it) for _ in range(6)]
    for k in range(6):
        np.testing.assert_array_equal(singles[k].h, feats[k])
        assert singles[k].gamma == labels[k]
        np.testing.assert_array_equal(singles[k].h, streamed[k].h)
        assert singles[k].gamma == streamed[k].gamma


def test_set_sampler_sequence_is_access_pattern_invariant():
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(7, 3))
    labels = np.where(rng.random(7) < 0.5, 1.0, -1.0)
    n = 600  # more than one iteration block
    singles_src = data.SetSampler(feats, labels, 13)
    singles = [singles_src.draw() for _ in range(n)]
    batch_feats, batch_labels = data.SetSampler(feats, labels, 13).draw_batch(n)
    it = iter(data.SetSampler(feats, labels, 13))
    streamed = [next(it) for _ in range(n)]
    assert len({s.gamma for s in singles}) == 2
    for k in range(n):
        np.testing.assert_array_equal(singles[k].h, batch_feats[k])
        assert singles[k].gamma == batch_labels[k]
        np.testing.assert_array_equal(singles[k].h, streamed[k].h)
        assert singles[k].gamma == streamed[k].gamma


# ---------- two-class stream ----------


def test_svm_stream_degenerate_prior():
    spec = data.TwoClassGaussianSpec.symmetric(np.array([1.0, 0.0]), prior_pos=1.0)
    _, labels = data.TwoClassGaussianSampler(spec, 6).draw_batch(500)
    assert np.all(labels == 1.0)


def test_svm_stream_class_mean():
    m = np.array([0.8, -0.4, 0.2])
    spec = data.TwoClassGaussianSpec.symmetric(m)
    feats, labels = data.TwoClassGaussianSampler(spec, 7).draw_batch(100_000)
    emp = (labels[:, None] * feats).mean(axis=0)
    assert np.max(np.abs(emp - m)) <= 5 / math.sqrt(100_000) * 2


def test_svm_stream_second_moment_trace():
    m = np.array([0.6, 0.6])
    spec = data.TwoClassGaussianSpec.symmetric(m, cov_scale=1.5)
    feats, _ = data.TwoClassGaussianSampler(spec, 8).draw_batch(100_000)
    emp = np.einsum("ij,ij->", feats, feats) / 100_000
    expected = 1.5 * 2 + float(m @ m)
    assert abs(emp - expected) <= 0.05


def per_class_cholesky_draw(mean, cov_scale, prior_pos, seed, n):
    # the sampler before the symmetric model: mean_y + z @ chol.T per class
    dim = mean.shape[0]
    cov = cov_scale * np.eye(dim)
    chol = None if np.array_equal(cov, np.eye(dim)) else np.linalg.cholesky(cov)
    u = data.uniform_open(np.random.default_rng(seed), (n, dim + 1))
    positive = u[:, 0] < prior_pos
    labels = np.where(positive, 1.0, -1.0)
    z = ndtri(u[:, 1:])
    feats = np.empty((n, dim))
    for rows, class_mean in ((positive, mean), (~positive, -mean)):
        zc = z[rows]
        feats[rows] = class_mean + (zc if chol is None else zc @ chol.T)
    return feats, labels


@pytest.mark.parametrize("cov_scale", [1.0, 1.5, 1e-3])
@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("prior_pos", [0.0, 0.4, 1.0])
def test_two_class_draw_equals_the_per_class_cholesky_reference(cov_scale, dim, prior_pos):
    # a zero coordinate makes -0.0 in the negative class mean
    mean = np.array([0.0, 0.7, -1.3, 2.5, -0.25, 1e-3, 4.0, -0.0][:dim])
    spec = data.TwoClassGaussianSpec.symmetric(mean, cov_scale=cov_scale, prior_pos=prior_pos)
    feats, labels = data.TwoClassGaussianSampler(spec, 17).draw_batch(1500)
    ref_feats, ref_labels = per_class_cholesky_draw(mean, cov_scale, prior_pos, 17, 1500)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(feats, ref_feats)
    np.testing.assert_array_equal(np.signbit(feats), np.signbit(ref_feats))


def test_sampler_draw_matches_model():
    spec = data.RegressionStreamSpec(np.array([2.0]), np.eye(1), 0.0)
    s = data.RegressionSampler(spec, 11).draw()
    assert s.gamma == pytest.approx(2.0 * s.h[0])
    spec2 = data.TwoClassGaussianSpec.symmetric(np.array([1.0]), prior_pos=0.0)
    s2 = data.TwoClassGaussianSampler(spec2, 11).draw()
    assert s2.gamma == -1.0


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        data.RegressionStreamSpec(np.zeros(2), np.eye(2), -0.1)
    with pytest.raises(ValueError):
        data.TwoClassGaussianSpec.symmetric(np.array([1.0]), prior_pos=1.5)
    for cov_scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="cov_scale"):
            data.TwoClassGaussianSpec.symmetric(np.array([1.0]), cov_scale=cov_scale)
    with pytest.raises(ValueError, match="mean"):
        data.TwoClassGaussianSpec.symmetric(np.eye(2))


# ---------- LIBSVM ----------


def test_parse_libsvm_basic():
    ds = data.parse_libsvm("+1 1:0.5 3:2\n")
    assert ds.n == 1 and ds.dim == 3
    np.testing.assert_array_equal(ds.features[0], [0.5, 0.0, 2.0])
    assert ds.labels[0] == 1.0


def test_parse_libsvm_empty():
    ds = data.parse_libsvm("")
    assert ds.n == 0 and ds.dim == 0


def test_parse_libsvm_label_mapping():
    ds = data.parse_libsvm("0 1:1\n1 1:2\n-1 2:3\n")
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0, -1.0])


def test_parse_libsvm_round_trip():
    rng = np.random.default_rng(12)
    feats = np.where(rng.random((20, 7)) < 0.4, rng.normal(size=(20, 7)), 0.0)
    feats[0, 6] = 1.25  # pin the dimension
    labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    # repr round-trips a float exactly; zeros are left out, as sparse files do
    text = "".join(
        " ".join(["+1" if label > 0 else "-1"]
                 + [f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row)]) + "\n"
        for row, label in zip(feats, labels)
    )
    again = data.parse_libsvm(text)
    np.testing.assert_array_equal(again.features, feats)
    np.testing.assert_array_equal(again.labels, labels)


def test_parse_libsvm_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        data.parse_libsvm("+1 1:0.5\n+1 junk\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        data.parse_libsvm("+1 3:1 2:5\n")  # nonascending
    with pytest.raises(ParseError):
        data.parse_libsvm("+1 0:1\n")  # indices are 1-based
    with pytest.raises(ParseError):
        data.parse_libsvm("2 1:1\n")  # unsupported label


@pytest.mark.parametrize("sizes", [[6], [1, 5], [2, 2, 2], [4, 1, 1]])
def test_epoch_sampler_orders_and_exhausts(sizes):
    feats = np.array([[1.0], [2.0], [3.0]])
    labels = np.array([1.0, -1.0, 1.0])

    def draw(sampler):
        parts = [sampler.draw_batch(n) for n in sizes]
        h = np.concatenate([p[0] for p in parts])[:, 0]
        y = np.concatenate([p[1] for p in parts])
        # every row keeps its label, whatever the order
        np.testing.assert_array_equal(y, labels[h.astype(int) - 1])
        with pytest.raises(StreamExhausted):
            sampler.draw_batch(1)
        return h

    in_order = draw(data.EpochSampler(feats, labels, 2, seed=1, shuffle=False))
    np.testing.assert_array_equal(in_order, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    # one generator, one fresh permutation per epoch
    rng = np.random.default_rng(1)
    expected = np.concatenate([rng.permutation(3), rng.permutation(3)]) + 1.0
    np.testing.assert_array_equal(draw(data.EpochSampler(feats, labels, 2, seed=1)), expected)
    assert data.EpochSampler(feats, labels, 0, seed=1).draw_batch(0)[0].shape == (0, 1)
    with pytest.raises(StreamExhausted):
        data.EpochSampler(feats, labels, 1, seed=1).draw_batch(4)


@pytest.mark.parametrize("kind", ["regression", "svm-gaussian", "set"])
def test_short_draw_is_the_prefix_of_a_full_block(kind):
    # the lockstep's last, partial block draws only the rows it steps on
    def sampler():
        if kind == "set":
            feats = np.random.default_rng(2).normal(size=(37, 3))
            return data.SetSampler(feats, np.sign(feats[:, 0]), 8)
        spec = (data.RegressionStreamSpec(np.array([1.0, -1.0, 0.5]), np.eye(3), 0.1)
                if kind == "regression"
                else data.TwoClassGaussianSpec.symmetric(np.array([0.5, 0.5, 0.5])))
        return data.make_sampler(spec, 8)

    full_h, full_y = sampler().draw_batch(SAMPLE_BLOCK)
    for n in (1, 276, SAMPLE_BLOCK - 1):
        h, y = sampler().draw_batch(n)
        np.testing.assert_array_equal(h, full_h[:n])
        np.testing.assert_array_equal(y, full_y[:n])


# ---------- noise injection and metrics ----------


def test_add_noise_sigma_zero_is_identity():
    img = GrayImage(np.full((4, 4), 0.5), peak=1.0)
    out = data.add_gaussian_noise(img, 0.0, seed=1)
    np.testing.assert_array_equal(out.pixels, img.pixels)


def test_add_noise_statistics():
    img = GrayImage(np.full((64, 64), 0.5), peak=1.0)
    out = data.add_gaussian_noise(img, 0.1, seed=2)
    noise = out.pixels - img.pixels
    assert abs(noise.std() - 0.1) <= 0.002  # within 2% of 0.1
    assert abs(noise.mean()) <= 3 * 0.1 / 64


def test_add_noise_does_not_clip():
    img = GrayImage(np.zeros((32, 32)), peak=1.0)
    out = data.add_gaussian_noise(img, 0.5, seed=3)
    assert out.pixels.min() < 0.0  # negative excursions survive


def test_add_noise_overflow_is_numeric_error():
    img = GrayImage(np.full((4, 4), 0.5), peak=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^overflow encountered in multiply: "
                                               r"noise injection diverged$"):
            data.add_gaussian_noise(img, 1e308, seed=1)


def test_psnr_values():
    a = GrayImage(np.zeros((4, 4)), peak=255.0)
    b = GrayImage(np.ones((4, 4)), peak=255.0)
    assert data.psnr(a, b) == pytest.approx(10 * math.log10(255.0**2), rel=1e-12)
    assert data.psnr(a, a) == math.inf
    c = GrayImage(np.zeros((4, 4)), peak=1.0)
    d = GrayImage(np.full((4, 4), 0.1), peak=1.0)  # mse = 0.01
    assert data.psnr(c, d) == pytest.approx(20.0, rel=1e-12)


def test_psnr_of_overflowing_mse_is_minus_inf():
    a = GrayImage(np.zeros((4, 4)), peak=255.0)
    b = GrayImage(np.full((4, 4), 1e200), peak=255.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data.psnr(a, b) == -math.inf


def test_psnr_shift_symmetry():
    rng = np.random.default_rng(13)
    base = rng.uniform(size=(8, 8))
    x = GrayImage(base, peak=1.0)
    up = GrayImage(base + 0.25, peak=1.0)
    down = GrayImage(base - 0.25, peak=1.0)
    assert data.psnr(x, up) == pytest.approx(data.psnr(x, down), rel=1e-12)


def test_psnr_rejects_mismatched_peaks():
    a = GrayImage(np.zeros((4, 4)), peak=255.0)
    b = GrayImage(np.zeros((4, 4)), peak=1.0)
    with pytest.raises(ValueError):
        data.psnr(a, b)


# ---------- PGM ----------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    pixels = rng.integers(0, 256, size=(13, 9)).astype(float)
    img = GrayImage(pixels, peak=255.0)
    path = tmp_path / "img.pgm"
    data.write_pgm(img, path)
    again = data.read_pgm(path)
    np.testing.assert_array_equal(again.pixels, pixels)
    assert again.peak == 255.0


def test_pgm_zero_image(tmp_path):
    path = tmp_path / "zero.pgm"
    data.write_pgm(GrayImage(np.zeros((2, 2)), peak=255.0), path)
    img = data.read_pgm(path)
    np.testing.assert_array_equal(img.pixels, np.zeros((2, 2)))


def test_pgm_write_clamps_and_rounds(tmp_path):
    img = GrayImage(np.array([[-5.0, 300.0], [0.49, 0.5]]), peak=255.0)
    path = tmp_path / "clamp.pgm"
    data.write_pgm(img, path)
    out = data.read_pgm(path)
    np.testing.assert_array_equal(out.pixels, [[0.0, 255.0], [0.0, 1.0]])


def pgm_bytes_reference(img):
    # the rounding formula with its whole-image temporaries
    px = img.pixels
    if img.peak != 255.0:
        px = px * (255.0 / img.peak)
    return np.floor(np.clip(px, 0.0, 255.0) + 0.5).astype(np.uint8).tobytes()


@pytest.mark.parametrize("peak", [255.0, 1.0])
def test_pgm_write_bytes_equal_the_rounding_formula(tmp_path, peak):
    rng = np.random.default_rng(26)
    values = np.concatenate([
        rng.uniform(-300.0, 600.0, size=299),  # negatives and values above 255
        np.arange(-2.0, 258.0) + 0.5,  # exact .5 ties
        np.nextafter(np.arange(256.0) + 0.5, 0.0),
        [-0.0, 0.0, 255.0, 1e300, -1e300],
    ])
    img = GrayImage((values * (peak / 255.0)).reshape(4, -1), peak=peak)
    before = img.pixels.copy()
    path = tmp_path / "img.pgm"
    data.write_pgm(img, path)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    assert path.read_bytes() == header + pgm_bytes_reference(img)
    assert np.array_equal(img.pixels, before)


def test_pgm_normalized_write(tmp_path):
    img = GrayImage(np.array([[0.0, 1.0], [0.5, 0.25]]), peak=1.0)
    path = tmp_path / "norm.pgm"
    data.write_pgm(img, path)
    out = data.read_pgm(path)
    np.testing.assert_array_equal(out.pixels, [[0.0, 255.0], [128.0, 64.0]])


def test_pgm_header_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    img = data.read_pgm(path)
    np.testing.assert_array_equal(img.pixels, [[1.0, 2.0], [3.0, 4.0]])


def byte_scan_pgm_tokens(blob, count):
    # the header scan one byte at a time: the reference for the regex scan
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
    return tokens, pos + 1


def scan_outcome(scan, blob):
    try:
        return scan(blob, 4)
    except FormatError as exc:
        return str(exc)


PGM_HEADERS = [
    b"P5\n2 2\n255\n\x01\x02\x03\x04",
    b"P5\n# a comment\n2 # another\n2\n# one more\n255\n\x01\x02\x03\x04",
    b"P5# right after the magic\n2 2 255\n",
    b"P5\n2#3 2 255\n",
    b"P5\t2\t2\t255\t\x01",
    b"P5\r\n2 2\r\n255\r\n\x01\x02",
    b"P5\r\n# crlf comment\r\n2 2 # tail\r\n255\r\n",
    b"P5 \x0b2\x0c2 255\n",
    b"P5\n\x1c2 2 255\n",  # \x1c is no whitespace
    b"P5\n2 2 255",  # the last token ends the file
    b"P5\n2 2",
    b"P5\n2 2 # unterminated comment",
    b"P5\n2 2 #\n#\n\n",
    b"P5",
    b"",
]


@pytest.mark.parametrize("blob", PGM_HEADERS)
def test_pgm_header_tokens_equal_the_byte_scan(blob):
    assert scan_outcome(data._read_pgm_tokens, blob) == scan_outcome(byte_scan_pgm_tokens, blob)


def test_pgm_header_tokens_equal_the_byte_scan_on_random_headers():
    rng = np.random.default_rng(41)
    alphabet = [b"P", b"5", b"2", b"#", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"a"]
    for _ in range(20_000):
        blob = b"".join(alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 15)))
        assert scan_outcome(data._read_pgm_tokens, blob) == scan_outcome(byte_scan_pgm_tokens, blob)


def test_pgm_format_errors(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
    with pytest.raises(FormatError):
        data.read_pgm(bad_magic)
    bad_maxval = tmp_path / "max.pgm"
    bad_maxval.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        data.read_pgm(bad_maxval)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(FormatError):
        data.read_pgm(short)
    glued = tmp_path / "glued.pgm"
    glued.write_bytes(b"P52 2 2 255\n" + bytes(4))
    with pytest.raises(FormatError, match="P5"):
        data.read_pgm(glued)

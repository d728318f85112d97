import math
import warnings

import numpy as np
import pytest

from sgsmooth import data, problems
from sgsmooth.errors import FormatError, ParseError
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


@pytest.mark.parametrize("k", [0, 1, 511, 51237])
def test_advanced_rng_draws_the_tail_of_one_long_draw(k):
    # one 64-bit word per value: a numpy change to full-range integers breaks this
    tail = data.standard_normal(data.advanced_rng(19, k), (300, 3))
    whole = data.standard_normal(np.random.default_rng(19), k + 900)
    assert np.array_equal(tail.ravel(), whole[k:])


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
    dim = 8
    rng = np.random.default_rng(3)
    w_true = rng.normal(size=dim)
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T / dim + np.eye(dim)
    spec = data.RegressionStreamSpec(w_true, cov, 0.25)
    sampler = data.RegressionSampler(spec, 4)
    n = 100_000
    feats, targets = sampler.draw_batch(n)
    cross = feats.T @ targets / n
    expected = cov @ w_true
    scale = math.sqrt(np.max(np.diag(cov)) * (w_true @ cov @ w_true + 0.25) / n)
    assert np.max(np.abs(cross - expected)) <= 5 * scale


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


def test_correlated_draws_follow_cholesky():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = data.RegressionStreamSpec(np.zeros(2), cov, 0.0)
    feats, _ = data.RegressionSampler(spec, 5).draw_batch(200_000)
    emp = feats.T @ feats / 200_000
    assert np.max(np.abs(emp - cov)) <= 0.05


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


def test_sampler_draw_matches_model():
    spec = data.RegressionStreamSpec(np.array([2.0]), np.eye(1), 0.0)
    s = data.RegressionSampler(spec, 11).draw()
    assert s.gamma == pytest.approx(2.0 * s.h[0])
    spec2 = data.TwoClassGaussianSpec.symmetric(np.array([1.0]), prior_pos=0.0)
    s2 = data.TwoClassGaussianSampler(spec2, 11).draw()
    assert s2.gamma == -1.0


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        data.RegressionStreamSpec(np.zeros(2), np.eye(3), 0.1)
    with pytest.raises(ValueError):
        data.RegressionStreamSpec(np.zeros(2), np.eye(2), -0.1)
    with pytest.raises(ValueError):
        data.TwoClassGaussianSpec.symmetric(np.array([1.0]), prior_pos=1.5)
    with pytest.raises(ValueError):
        data.RegressionStreamSpec(
            np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1
        )  # indefinite


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
    ds = data.DatasetFile(feats, labels)
    again = data.parse_libsvm(data.serialize_libsvm(ds))
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
    with pytest.raises(ParseError):
        data.parse_libsvm("+1 1:1 2:2\n", dim=1)  # width conflict


def test_dataset_stream_orders():
    ds = data.parse_libsvm("+1 1:1\n-1 1:2\n+1 1:3\n")
    in_order = [s.h[0] for s in data.dataset_stream(ds, epochs=2)]
    assert in_order == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    shuffled = [s.h[0] for s in data.dataset_stream(ds, epochs=2, shuffle_seed=1)]
    assert sorted(shuffled[:3]) == [1.0, 2.0, 3.0]
    assert sorted(shuffled[3:]) == [1.0, 2.0, 3.0]


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

import ast
import dataclasses
import functools
import inspect
import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest

from sgsmooth import data, engine, problems
from sgsmooth.errors import NumericError, StreamExhausted


class QuadraticProblem:
    """Deterministic smooth test problem J(w) = 0.5 ||w - target||^2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.dim = self.target.shape[0]

    def instantaneous_subgradient(self, w, sample):
        return w - self.target

    def risk(self, w):
        d = np.asarray(w) - self.target
        return 0.5 * float(d @ d)


def null_stream(n):
    return iter([None] * n)


# ---------- one step ----------


def test_sgd_step_composes_with_lasso_subgradient():
    # hand-computed scalar arithmetic, independent of the library formulas
    p = problems.LassoProblem(
        delta=0.01, w_true=np.array([1.0, 0.0]), cov_h=np.eye(2), noise_var=0.0
    )
    W = np.array([[0.5, -0.5]])
    # residual = 3 - (2*0.5 + 1*(-0.5)) = 2.5
    # g = delta*sgn(w) - residual*h = (0.01 - 5.0, -0.01 - 2.5)
    G = p.subgradient_batch(W, np.array([[2.0, 1.0]]), np.array([3.0]))
    np.testing.assert_allclose(G, [[0.01 - 5.0, -0.01 - 2.5]], rtol=0, atol=1e-15)
    # the engine's step: G *= mu; W -= G
    G *= 0.1
    W -= G
    np.testing.assert_allclose(
        W, [[0.5 - 0.1 * (-4.99), -0.5 - 0.1 * (-2.51)]], rtol=0, atol=1e-15
    )


# ---------- smoothing algebra ----------


def test_smoothing_update_two_iterate_example():
    state = engine.init_smoothing(np.array([1.0]), 0.5)
    state = engine.smoothing_update(state, np.array([4.0]))
    assert state.s == pytest.approx(1.5, abs=0)
    # direct weights: 1/3 on the old iterate, 2/3 on the new one
    np.testing.assert_allclose(state.w_bar, [3.0], rtol=1e-15)


def test_smoothing_update_kappa_zero_has_no_memory():
    state = engine.init_smoothing(np.array([123.0]), 0.0)
    state = engine.smoothing_update(state, np.array([7.0]))
    assert state.s == 1.0
    np.testing.assert_array_equal(state.w_bar, [7.0])


def test_smoothing_update_is_the_numerator_recursion_bit_for_bit():
    rng = np.random.default_rng(8)
    z, w = rng.normal(size=(2, 3, 50))
    for s, kappa in ((1.0, 0.0), (1.7, 0.3), (3.0, 0.9), (123.456, 0.999)):
        state = engine.smoothing_update(engine.SmoothingState(s, z, kappa), w)
        assert state.s == kappa * s + 1.0
        assert np.array_equal(state.z, kappa * z + w)
        assert np.array_equal(state.w_bar, state.z / state.s)
        assert state.kappa == kappa


def test_smoothing_long_run_constant_iterate():
    kappa = 0.999
    c = 2.5
    state = engine.init_smoothing(np.array([c]), kappa)
    for _ in range(10_000):
        state = engine.smoothing_update(state, np.array([c]))
    # closed-form geometric sum, evaluated independently
    expected_s = (1.0 - kappa**10_001) / (1.0 - kappa)
    assert state.s == pytest.approx(expected_s, rel=1e-12)
    np.testing.assert_allclose(state.w_bar, [c], rtol=1e-12)


def test_weighted_average_direct_trivia():
    np.testing.assert_allclose(
        engine.weighted_average_direct([np.array([5.0])], 0.7), [5.0]
    )
    np.testing.assert_allclose(
        engine.weighted_average_direct([np.array([1.0]), np.array([4.0])], 0.5), [3.0]
    )
    with pytest.raises(ValueError):
        engine.weighted_average_direct([], 0.5)


def test_recursion_matches_direct_average_100_random_sequences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 1000))
        kappa = float(rng.uniform(0.0, 0.999))
        dim = int(rng.integers(1, 4))
        iterates = [rng.normal(size=dim) for _ in range(n + 1)]
        state = engine.init_smoothing(iterates[0], kappa)
        for w in iterates[1:]:
            state = engine.smoothing_update(state, w)
        direct = engine.weighted_average_direct(iterates, kappa)
        np.testing.assert_allclose(state.w_bar, direct, rtol=1e-10, atol=1e-12)


def test_geometric_sum_identity():
    rng = np.random.default_rng(4)
    for kappa in (0.0, 0.3, 0.9, 0.999):
        state = engine.init_smoothing(np.zeros(1), kappa)
        n = int(rng.integers(10, 400))
        for _ in range(n):
            state = engine.smoothing_update(state, np.zeros(1))
        expected = (1.0 - kappa ** (n + 1)) / (1.0 - kappa) if kappa else 1.0
        assert abs(state.s - expected) <= 1e-12 * state.s


def test_smoothed_scalar_iterate_stays_between_min_and_max():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kappa = float(rng.uniform(0, 0.999))
        iterates = rng.normal(size=int(rng.integers(2, 200)))
        state = engine.init_smoothing(np.array([iterates[0]]), kappa)
        for w in iterates[1:]:
            state = engine.smoothing_update(state, np.array([w]))
        assert iterates.min() - 1e-12 <= state.w_bar[0] <= iterates.max() + 1e-12


def test_geometric_sum_limit():
    for kappa in (0.1, 0.9, 0.99, 0.999):
        state = engine.init_smoothing(np.zeros(1), kappa)
        for _ in range(int(40.0 / (1.0 - kappa)) + 1):
            state = engine.smoothing_update(state, np.zeros(1))
        assert abs(state.s - 1.0 / (1.0 - kappa)) <= 1e-9


def test_kappa_zero_smoothed_equals_last_iterate():
    rng = np.random.default_rng(6)
    iterates = rng.normal(size=(50, 3))
    state = engine.init_smoothing(iterates[0], 0.0)
    for w in iterates[1:]:
        state = engine.smoothing_update(state, w)
    np.testing.assert_array_equal(state.w_bar, iterates[-1])


# ---------- run ----------


def test_run_zero_iterations_returns_initial_state():
    p = QuadraticProblem(np.array([1.0, 2.0]))
    cfg = engine.RunConfig(mu=0.1, kappa=0.5, iterations=0)
    res = engine.run(p, null_stream(0), cfg)
    np.testing.assert_array_equal(res.w, [0.0, 0.0])
    assert res.smoothing.s == 1.0
    assert res.trajectory.iterations.size == 0


def test_run_deterministic_quadratic_converges_to_machine_precision():
    target = np.array([3.0, -2.0, 0.5])
    p = QuadraticProblem(target)
    cfg = engine.RunConfig(mu=0.5, kappa=0.0, iterations=200, record_stride=10)
    oracle = engine.RiskOracle(p.risk, target, 0.0)
    res = engine.run(p, null_stream(200), cfg, oracle=oracle)
    np.testing.assert_allclose(res.w, target, rtol=0, atol=1e-14)
    # error halves each step: linear convergence at factor exactly 0.5
    msd = res.trajectory.msd
    ratio = msd[1] / msd[0]
    assert ratio == pytest.approx(0.5 ** (2 * 10), rel=1e-6)


def test_run_stream_exhaustion_is_an_error():
    p = QuadraticProblem(np.zeros(2))
    cfg = engine.RunConfig(mu=0.1, kappa=0.5, iterations=10)
    with pytest.raises(StreamExhausted):
        engine.run(p, null_stream(5), cfg)


def test_run_is_deterministic_given_seed():
    p = problems.LassoProblem(
        delta=0.005, w_true=np.array([1.0, 0.0, 0.0]), cov_h=np.eye(3), noise_var=0.01
    )
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    w_star = p.optimum()
    oracle = engine.RiskOracle(p.risk, w_star, p.risk(w_star))
    cfg = engine.RunConfig(mu=0.01, kappa=0.9, iterations=500, record_stride=25, seed=9)
    out = []
    for _ in range(2):
        stream = iter(data.RegressionSampler(spec, cfg.seed))
        out.append(engine.run(p, stream, cfg, oracle=oracle))
    a, b = out
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(
        a.trajectory.smoothed_excess_risk, b.trajectory.smoothed_excess_risk
    )
    np.testing.assert_array_equal(a.trajectory.msd, b.trajectory.msd)


def test_run_replications_parallel_matches_serial():
    p = problems.LassoProblem(
        delta=0.005, w_true=np.array([1.0, 0.0]), cov_h=np.eye(2), noise_var=0.01
    )
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    factory = functools.partial(data.make_sampler, spec)
    w_star = p.optimum()
    oracle = engine.RiskOracle(p.risk, w_star, p.risk(w_star))
    # past two blocks, so the split into sampling processes applies
    cfg = engine.RunConfig(
        mu=0.01, kappa=0.9, iterations=2000, record_stride=100, seed=3, replications=4
    )
    serial = engine.run_replications(p, factory, cfg, oracle=oracle, workers=1)
    parallel = engine.run_replications(p, factory, cfg, oracle=oracle, workers=2)
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(
            a.trajectory.smoothed_excess_risk, b.trajectory.smoothed_excess_risk
        )


def lockstep_case(kind):
    # (problem, lockstep stream factory, engine.run stream factory, oracle)
    if kind == "lasso":
        dim = 30
        w_true = np.zeros(dim)
        w_true[0], w_true[1] = 1.0, -1.0
        p = problems.LassoProblem(delta=0.005, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01)
        factory = functools.partial(
            data.make_sampler, data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
        )
        ref_factory = factory
        w_star = p.optimum()
    else:
        spec = data.TwoClassGaussianSpec.symmetric(np.array([0.75, 0.75, 0.75]))
        feats, labels = data.TwoClassGaussianSampler(spec, 21).draw_batch(2000)
        p = problems.SvmSampleSet(feats, labels, 0.01)
        # the batch form reads the signed rows, the reference the raw (h, gamma)
        factory = functools.partial(data.SetSampler, p.signed, np.ones_like(labels))
        ref_factory = functools.partial(data.SetSampler, feats, labels)
        w_star = p.minimize(20_000)
    return p, factory, ref_factory, engine.RiskOracle(p.risk, w_star, p.risk(w_star))


# case: (recording kwargs, RunConfig fields changed from the 1300-iteration
# default, which is not a multiple of the 512-sample draw block)
LOCKSTEP_CASES = {
    "oracle": ("oracle", {}),
    "no-oracle": ("no-oracle", {}),
    "kappa-0": ("oracle", {"kappa": 0.0}),
    # one record, mid-block; the first and last blocks record nothing
    "stride-700": ("oracle", {"record_stride": 700}),
    "300-iterations": ("no-oracle", {"iterations": 300}),
    "0-iterations": ("oracle", {"iterations": 0}),
    "one-replication": ("oracle", {"replications": 1}),
}


@pytest.mark.parametrize("kind", ["lasso", "svm"])
@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_run_replications_rows_equal_run_bit_for_bit(kind, case):
    p, factory, ref_factory, oracle = lockstep_case(kind)
    recording, changes = LOCKSTEP_CASES[case]
    kwargs = {
        "oracle": {"oracle": oracle},
        "no-oracle": {},
    }[recording]
    fields = {"mu": 0.01, "kappa": 0.95, "iterations": 1300, "record_stride": 100,
              "seed": 5, "replications": 3}
    cfg = engine.RunConfig(**{**fields, **changes})
    n_rep, n_records = cfg.replications, cfg.iterations // cfg.record_stride
    refs = [engine.run(p, iter(ref_factory(cfg.seed + r)), cfg, **kwargs) for r in range(n_rep)]
    for workers in (1, 2):
        results = engine.run_replications(p, factory, cfg, workers=workers, **kwargs)
        assert len(results) == n_rep
        for res, ref in zip(results, refs):
            np.testing.assert_array_equal(res.w, ref.w)
            np.testing.assert_array_equal(res.smoothing.w_bar, ref.smoothing.w_bar)
            assert res.smoothing.s == ref.smoothing.s
            for name in ("iterations", "excess_risk", "smoothed_excess_risk", "msd",
                         "smoothed_msd"):
                np.testing.assert_array_equal(
                    getattr(res.trajectory, name), getattr(ref.trajectory, name)
                )
            assert res.trajectory.iterations.size == (0 if recording == "no-oracle" else n_records)


# ---------- block smoothing ----------


def lasso_of_dim(dim):
    # (problem, stream factory, oracle) of a LASSO run in ``dim`` coordinates
    w_true = np.zeros(dim)
    w_true[0], w_true[1:2] = 1.0, -1.0
    p = problems.LassoProblem(delta=0.005, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01)
    factory = functools.partial(
        data.make_sampler, data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    )
    w_star = p.optimum()
    return p, factory, engine.RiskOracle(p.risk, w_star, p.risk(w_star))


# (iterations, record_stride): no block up to three blocks, the last one
# partial, with records mid-block, on a block's end (512 and 1500) and after
# every step
BLOCK_RUNS = [(0, 1), (1, 1), (511, 7), (512, 512), (513, 1), (1500, 250), (1500, 700)]


@pytest.mark.parametrize("kappa", [0.0, 0.5, 0.999, 0.9999])
@pytest.mark.parametrize("dim", [1, 3, 100])
def test_block_smoothing_rows_equal_single_runs_bit_for_bit(dim, kappa):
    # row r of a run of R = 1, 3 or 8 rows equals run() seeded r, which
    # smooths its own block of iterates, and so the one-row run seeded r
    p, factory, oracle = lasso_of_dim(dim)
    kwargs = {"oracle": oracle}
    for iterations, stride in BLOCK_RUNS:
        fields = {"mu": 0.01, "kappa": kappa, "iterations": iterations, "record_stride": stride}
        refs = [engine.run(p, iter(factory(seed)), engine.RunConfig(**fields, seed=seed), **kwargs)
                for seed in range(8)]
        assert refs[0].trajectory.iterations.size == iterations // stride
        for rows in (1, 3, 8):
            cfg = engine.RunConfig(**fields, seed=0, replications=rows)
            assert_same_results(engine.run_replications(p, factory, cfg, **kwargs), refs[:rows])


@pytest.mark.parametrize("kappa", [0.0, 0.5, 0.999, 0.9999])
def test_block_smoothing_is_the_weighted_average_of_the_iterates(kappa):
    # five blocks and a part, recorded after every step: the oracle is asked
    # for the raw iterate, then the smoothed one
    p, factory, _ = lasso_of_dim(3)
    seen = []
    oracle = engine.RiskOracle(lambda v: seen.append(v.copy()) or 0.0, np.zeros(3), 0.0)
    cfg = engine.RunConfig(mu=0.01, kappa=kappa, iterations=5 * engine.SAMPLE_BLOCK + 100,
                           record_stride=1, seed=4)
    (res,) = engine.run_replications(p, factory, cfg, oracle=oracle)
    raw, smoothed = np.array(seen[0::2]), np.array(seen[1::2])
    assert len(raw) == cfg.iterations
    np.testing.assert_array_equal(res.w, raw[-1])
    np.testing.assert_array_equal(res.smoothing.w_bar, smoothed[-1])
    if kappa == 0.0:
        np.testing.assert_array_equal(smoothed, raw)
    iterates = np.vstack([np.zeros(3), raw])  # w_0 = 0 carries the weight kappa^i
    for i, w_bar in enumerate(smoothed, start=1):
        direct = engine.weighted_average_direct(iterates[: i + 1], kappa)
        assert np.abs(w_bar - direct).max() <= 1e-12 * np.abs(direct).max()


def test_lockstep_buffers_hold_one_block_of_iterates():
    # the tier-1 fixture's shape: the (block + 1, R, dim) history is 19.6 MiB,
    # and a second buffer of a block's rows would double it
    p, _, _ = lasso_of_dim(100)
    cfg = engine.RunConfig(mu=0.001, kappa=0.999, replications=50)
    tracemalloc.start()
    try:
        engine._Lockstep(p, cfg, engine.RING_SLOTS, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_lockstep_divergence_names_the_block_without_warnings(recwarn):
    # no oracle, so no record reads the risk: the step's first overflow stops it
    p, factory, _, _ = lockstep_case("lasso")
    cfg = engine.RunConfig(
        mu=0.5, kappa=0.9, iterations=5000, record_stride=10**6, seed=5, replications=2
    )
    errstate = np.geterr()
    block = r"^overflow .*diverged in iterations \d+\.\.\d+$"
    with pytest.raises(NumericError, match=block) as info:
        engine.run_replications(p, factory, cfg)
    lo, hi = map(int, str(info.value).rsplit(" ", 1)[1].split(".."))
    assert (lo - 1) % engine.SAMPLE_BLOCK == 0 and hi == lo + engine.SAMPLE_BLOCK - 1
    assert np.geterr() == errstate
    assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


class InfiniteTargetSampler:
    """``make(seed)``, except that the last target of each draw is inf."""

    def __init__(self, make, seed):
        self.sampler = make(seed)

    def draw_batch(self, n):
        feats, targets = self.sampler.draw_batch(n)
        targets[-1] = np.inf
        return feats, targets


def test_lockstep_checks_a_partial_block():
    # the last step's infinite target makes an infinite iterate without a
    # floating-point flag, so the trap passes it and the block's check stops it
    p, factory, _, _ = lockstep_case("lasso")
    cfg = engine.RunConfig(mu=0.01, kappa=0.9, iterations=300, record_stride=10**6,
                           seed=5, replications=2)
    factory = functools.partial(InfiniteTargetSampler, factory)
    with pytest.raises(NumericError, match=r"^iterate diverged in iterations 1\.\.300$"):
        engine.run_replications(p, factory, cfg)


class ProcessLog:
    """Stands in for the fork context's ``Process``; counts the sampling
    processes a run starts, in a counter its forked processes share."""

    def __init__(self, real):
        self.real, self.count = real, engine._FORK.Value("i", 0)

    @property
    def started(self):
        return self.count.value

    def __call__(self, *args, **kwargs):
        with self.count.get_lock():
            self.count.value += 1
        return self.real(*args, **kwargs)


@pytest.fixture
def process_log(monkeypatch):
    log = ProcessLog(engine._FORK.Process)
    monkeypatch.setattr(engine._FORK, "Process", log)
    return log


def force_split(monkeypatch, kept):
    # the rows whose samples the stepper draws, that _stepper_rows would measure
    monkeypatch.setattr(engine, "_stepper_rows", lambda *args: kept)


def assert_same_results(results, refs):
    assert len(results) == len(refs)
    for res, ref in zip(results, refs):
        np.testing.assert_array_equal(res.w, ref.w)
        np.testing.assert_array_equal(res.smoothing.w_bar, ref.smoothing.w_bar)
        assert res.smoothing.s == ref.smoothing.s
        for name in ("iterations", "excess_risk", "smoothed_excess_risk", "msd", "smoothed_msd"):
            np.testing.assert_array_equal(getattr(res.trajectory, name),
                                          getattr(ref.trajectory, name))


# 4000 iterations: seven full blocks and a partial one, so a sampling process
# laps the ring and waits for the stepper
SPLIT_FIELDS = {"mu": 0.01, "kappa": 0.95, "iterations": 4000, "record_stride": 300,
                "seed": 5, "replications": 5}

# the workers of a run of five rows, the rows whose samples the stepper
# draws (none, some or all of them) and the iterations
SPLIT_PLANS = {f"one-stepper-{workers}-keeps-{kept}":
               (workers, kept, SPLIT_FIELDS["iterations"])
               for workers in (2, 3) for kept in (0, 2, 5)}
# the sampling processes start right before the last block, of one sample
SPLIT_PLANS["one-stepper-3-keeps-2-iterations-1025"] = (3, 2, 1025)
# the first word to the sampling processes follows block 2, and they first
# wait for one before block 5, of one sample
SPLIT_PLANS["one-stepper-3-keeps-2-iterations-2561"] = (3, 2, 2561)


def sampling_processes(workers, kept):
    return min(workers - 1, SPLIT_FIELDS["replications"] - kept)


@pytest.mark.parametrize("kind", ["lasso", "svm"])
@pytest.mark.parametrize("plan", list(SPLIT_PLANS))
def test_split_runs_equal_one_worker_bit_for_bit(kind, plan, process_log, monkeypatch):
    p, factory, _, oracle = lockstep_case(kind)
    workers, kept, iterations = SPLIT_PLANS[plan]
    cfg = engine.RunConfig(**{**SPLIT_FIELDS, "iterations": iterations})
    kwargs = {"oracle": oracle}
    refs = engine.run_replications(p, factory, cfg, workers=1, **kwargs)
    assert process_log.started == 0
    force_split(monkeypatch, kept)
    results = engine.run_replications(p, factory, cfg, workers=workers, **kwargs)
    assert process_log.started == sampling_processes(workers, kept)
    assert multiprocessing.active_children() == []
    assert_same_results(results, refs)


@pytest.mark.parametrize("workers", [2, 3])
def test_measured_split_equals_one_worker(workers, process_log):
    p, factory, _, oracle = lockstep_case("lasso")
    cfg = engine.RunConfig(**SPLIT_FIELDS)
    refs = engine.run_replications(p, factory, cfg, workers=1, oracle=oracle)
    results = engine.run_replications(p, factory, cfg, workers=workers, oracle=oracle)
    assert 0 < process_log.started
    assert multiprocessing.active_children() == []
    for res, ref in zip(results, refs):
        np.testing.assert_array_equal(res.w, ref.w)
        np.testing.assert_array_equal(res.trajectory.smoothed_msd, ref.trajectory.smoothed_msd)


@pytest.mark.parametrize("iterations", [0, 300, 512, 1024])
def test_runs_of_two_blocks_or_fewer_start_no_process(iterations, process_log, monkeypatch):
    p, factory, _, oracle = lockstep_case("lasso")
    cfg = engine.RunConfig(**{**SPLIT_FIELDS, "iterations": iterations})
    kwargs = {"oracle": oracle}
    refs = engine.run_replications(p, factory, cfg, workers=1, **kwargs)
    force_split(monkeypatch, 0)
    results = engine.run_replications(p, factory, cfg, workers=3, **kwargs)
    assert process_log.started == 0
    assert_same_results(results, refs)


class StubSampler:
    """Seeded normal draws, each kept in ``draws``; draw number ``bad_draw``
    (from 1) overflows instead."""

    def __init__(self, seed, dim, bad_draw=0):
        self.rng, self.dim, self.bad_draw = np.random.default_rng(seed), dim, bad_draw
        self.draws = []

    def draw_batch(self, n):
        if len(self.draws) + 1 == self.bad_draw:
            np.array([1e308]) * 1e308
        self.draws.append((self.rng.standard_normal((n, self.dim)), self.rng.standard_normal(n)))
        return self.draws[-1]


def sample_span_in_process(samplers, orders):
    # _sample_span run here over a pipe that already holds ``orders``, on a
    # ring of NaN slots; returns the ring, the replies and the orders unread
    H = np.full((engine.RING_SLOTS, engine.SAMPLE_BLOCK, len(samplers), samplers[0].dim), np.nan)
    Y = np.full(H.shape[:-1], np.nan)
    stepper, span = multiprocessing.Pipe()
    with stepper, span:
        for order in orders:
            stepper.send(order)
        assert engine._sample_span(samplers, H, Y, span) is None
        replies = [stepper.recv() for _ in iter(stepper.poll, False)]
        unread = [span.recv() for _ in iter(span.poll, False)]
    return H, Y, replies, unread


def test_sampling_process_draws_the_blocks_it_is_sent():
    # a block into slot 2, one into slot 0, then one sample into slot 0 again
    samplers = [StubSampler(seed, 3) for seed in (1, 2)]
    orders = [(1024, 512, 2), (1536, 512, 0), (2048, 1, 0), None, (2049, 512, 1)]
    H, Y, replies, unread = sample_span_in_process(samplers, orders)
    assert replies == [None, None, None]
    assert unread == [(2049, 512, 1)]
    for r, sampler in enumerate(samplers):
        assert [len(y) for _, y in sampler.draws] == [512, 512, 1]
        (h2, y2), (h0, y0), (h_one, y_one) = sampler.draws
        for got, want in ((H[2, :, r], h2), (Y[2, :, r], y2), (H[0, 1:, r], h0[1:]),
                          (Y[0, 1:, r], y0[1:]), (H[0, :1, r], h_one), (Y[0, :1, r], y_one)):
            np.testing.assert_array_equal(got, want)
    assert np.isnan(H[1]).all() and np.isnan(Y[1]).all()


def test_sampling_process_sends_its_error_and_stops():
    # row 1's second draw overflows: block 2's reply is the error, and the
    # process reads no further order
    samplers = [StubSampler(1, 3), StubSampler(2, 3, bad_draw=2)]
    orders = [(1024, 512, 2), (1536, 512, 0), (2048, 512, 1), None]
    _, _, replies, unread = sample_span_in_process(samplers, orders)
    assert replies[0] is None and len(replies) == 2
    assert isinstance(replies[1], NumericError)
    assert str(replies[1]) == ("overflow encountered in multiply: "
                               "iterate diverged in iterations 1537..2048")
    assert unread == orders[2:]
    assert [len(s.draws) for s in samplers] == [2, 1]


def names_read(func, seen=None):
    # the names and attributes an engine function reads, with those of the
    # engine functions it calls
    seen = seen or {func}
    tree = ast.parse(inspect.getsource(getattr(engine, func)))
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    for callee in sorted(names - seen):
        obj = getattr(engine, callee, None)
        if inspect.isfunction(obj) and obj.__module__ == engine.__name__:
            seen.add(callee)
            names |= names_read(callee, seen)
    return names


SCHEDULE_CONSTANTS = {"TIMED_BLOCK", "SAMPLE_BLOCK", "RING_SLOTS"}


def test_only_the_stepper_reads_the_block_schedule():
    # the block list of run_replications is the one place the schedule is
    # computed; the sampling processes draw what they are sent
    assert SCHEDULE_CONSTANTS <= names_read("run_replications")
    span = names_read("_sample_span")
    assert {"_draw_rows", "draw_batch", "_block_where"} <= span
    assert span.isdisjoint(SCHEDULE_CONSTANTS)


def test_stepper_rows_balance_the_stepper_and_the_samplers():
    # T + x S = (R - x) S / (P - 1), rounded and clamped to [0, R]
    assert engine._stepper_rows(50, 2, 2.0, 40.0) == 15
    assert engine._stepper_rows(16, 3, 1.0, 4.0) == 3
    assert engine._stepper_rows(4, 2, 2.0, 8.0) == 0
    assert engine._stepper_rows(8, 2, 0.01, 5.0) == 0
    assert engine._stepper_rows(8, 2, 5.0, 0.0) == 4
    assert engine._stepper_rows(8, 9, 5.0, 0.0) == 1
    assert engine._stepper_rows(8, 2, 0.0, 5.0) == 8


class FailingSampler:
    """``make(*args)``, whose last argument is the seed, except that for
    ``bad_seed`` its draw number ``bad_draw`` (from 1) overflows."""

    def __init__(self, make, bad_seed, bad_draw, *args):
        self.sampler = make(*args)
        self.draws_left = bad_draw if args[-1] == bad_seed else -1

    def draw_batch(self, n):
        self.draws_left -= 1
        feats, targets = self.sampler.draw_batch(n)
        if self.draws_left == 0:
            np.multiply(targets, 1e308) * 1e308
        return feats, targets


def failing_case(kind, bad_seed):
    # (problem, stream factory) whose replication seeded bad_seed fails at block 5
    p, factory, _, _ = lockstep_case("lasso" if kind == "overflow" else "svm")
    if kind == "overflow":
        return p, functools.partial(FailingSampler, factory, bad_seed, 6)
    # 2600 rows, one epoch: the draw of block 5 finds 40 rows where it needs 512
    feats = np.resize(p.signed, (2600, p.dim))
    return p, lambda seed: data.EpochSampler(feats, np.ones(2600), 1 if seed == bad_seed else 9,
                                             seed)


FAILING_PLANS = ["one-stepper-2-keeps-0", "one-stepper-2-keeps-2", "one-stepper-3-keeps-0",
                 "one-stepper-3-keeps-2"]


@pytest.mark.parametrize("kind", ["overflow", "exhausted"])
@pytest.mark.parametrize("plan", FAILING_PLANS)
def test_split_failure_is_raised_as_in_one_worker(kind, plan, process_log, monkeypatch):
    # replication 3 fails, drawn by a sampling process
    cfg = engine.RunConfig(**SPLIT_FIELDS)
    p, factory = failing_case(kind, cfg.seed + 3)
    error = NumericError if kind == "overflow" else StreamExhausted
    with pytest.raises(error) as serial:
        engine.run_replications(p, factory, cfg, workers=1)
    workers, kept, _ = SPLIT_PLANS[plan]
    force_split(monkeypatch, kept)
    with pytest.raises(error) as split:
        engine.run_replications(p, factory, cfg, workers=workers)
    assert str(split.value) == str(serial.value)
    if kind == "overflow":
        assert str(serial.value) == ("overflow encountered in multiply: "
                                     "iterate diverged in iterations 2561..3072")
    assert process_log.started == sampling_processes(workers, kept)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("early_row", [0, 4])
def test_failure_of_the_earliest_block_is_raised_whatever_its_group(early_row, monkeypatch):
    # replication early_row fails at block 5, the other end's at block 7;
    # the stepper draws row 0 and a sampling process row 4, and whichever
    # fails first, the split run raises block 5 as the one-worker run does
    cfg = engine.RunConfig(**SPLIT_FIELDS)
    p, factory, _, _ = lockstep_case("lasso")
    late_row = 4 - early_row
    factory = functools.partial(FailingSampler, factory, cfg.seed + late_row, 8)
    factory = functools.partial(FailingSampler, factory, cfg.seed + early_row, 6)
    with pytest.raises(NumericError) as serial:
        engine.run_replications(p, factory, cfg, workers=1)
    assert str(serial.value).endswith("iterate diverged in iterations 2561..3072")
    force_split(monkeypatch, 1)
    with pytest.raises(NumericError) as split:
        engine.run_replications(p, factory, cfg, workers=2)
    assert str(split.value) == str(serial.value)
    assert multiprocessing.active_children() == []


class InterruptingSampler(FailingSampler):
    """A :class:`FailingSampler` whose bad draw is a Ctrl-C."""

    def draw_batch(self, n):
        if self.draws_left == 1:
            raise KeyboardInterrupt
        return super().draw_batch(n)


class PidLog:
    """Stands in for the fork context's ``Process``; keeps the pid of every
    process started, in an array its forked processes share."""

    def __init__(self, real):
        self.pids, self.count = engine._FORK.Array("i", 16), engine._FORK.Value("i", 0)
        log = self

        class Logged(real):
            def start(self):
                super().start()
                with log.count.get_lock():
                    log.pids[log.count.value] = self.pid
                    log.count.value += 1

        self.process = Logged

    def alive(self):
        alive = []
        for pid in self.pids[: self.count.value]:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        return alive


def test_interrupted_run_stops_the_sampling_processes_of_a_stepping_process(monkeypatch,
                                                                            capfd):
    # the stepper's own draw of row 0 at block 4 is interrupted; it stops
    # both sampling processes, which draw rows 1..4 up to two blocks ahead
    cfg = engine.RunConfig(**SPLIT_FIELDS)
    p, factory, _, _ = lockstep_case("lasso")
    factory = functools.partial(InterruptingSampler, factory, cfg.seed, 5)
    log = PidLog(engine._FORK.Process)
    monkeypatch.setattr(engine._FORK, "Process", log.process)
    force_split(monkeypatch, 1)
    with pytest.raises(KeyboardInterrupt):
        engine.run_replications(p, factory, cfg, workers=3)
    assert log.count.value == 2
    alive = log.alive()
    for pid in alive:  # a failure should not leave them running
        os.kill(pid, signal.SIGKILL)
    assert alive == []
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


def test_run_config_validation():
    with pytest.raises(ValueError):
        engine.RunConfig(mu=-1.0, kappa=0.5)
    with pytest.raises(ValueError):
        engine.RunConfig(mu=0.1, kappa=0.5, iterations=-1)
    with pytest.raises(TypeError):
        engine.RunConfig(mu=0.1)  # the smoothing factor has no default


# the command line settles kappa = auto; the engine takes only a number
@pytest.mark.parametrize("kappa", ["auto", "0.5", None, 1.0, -0.1, float("nan")])
def test_run_config_kappa_is_a_number_in_the_unit_interval(kappa):
    with pytest.raises(ValueError, match=r"^kappa must be a number in \[0, 1\)"):
        engine.RunConfig(mu=0.1, kappa=kappa)


def test_block_schedule_is_computed_as_it_is_stepped():
    # 10**8 iterations are 195,313 blocks; a run that fails in its third
    # block holds no entry of the schedule past it
    p = problems.LassoProblem(delta=0.01, w_true=np.array([1.0, -1.0, 0.0]), cov_h=np.eye(3),
                              noise_var=0.01)
    factory = functools.partial(StubSampler, dim=3, bad_draw=3)
    cfg = engine.RunConfig(mu=0.01, kappa=0.9, iterations=10**8)
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match=r"iterations 1025\.\.1536$"):
            engine.run_replications(p, factory, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_small_scale_lasso_run_meets_steady_state_bound():
    # scaled-down version of the flagship sparse-recovery experiment
    dim = 20
    w_true = np.zeros(dim)
    w_true[0], w_true[1] = 1.0, -1.0
    p = problems.LassoProblem(delta=0.002, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01)
    spec = data.RegressionStreamSpec(p.w_true, p.cov_h, p.noise_var)
    factory = functools.partial(data.make_sampler, spec)
    w_star = p.optimum()
    oracle = engine.RiskOracle(p.risk, w_star, p.risk(w_star))
    cfg = engine.RunConfig(
        mu=0.001, kappa=0.999, iterations=20_000, record_stride=500,
        seed=7, replications=8,
    )
    results = engine.run_replications(p, factory, cfg, oracle=oracle, workers=2)
    stats = engine.average_trajectories([r.trajectory for r in results])
    from sgsmooth import theory

    a = theory.estimate_lasso_a(p, 20_000, seed=77)
    gap = w_true - w_star
    bound = (
        4 * cfg.mu * p.delta**2 * dim
        + 0.5 * cfg.mu * p.noise_var * p.trace
        + cfg.mu * a.value * float(gap @ gap)
    )
    assert stats.smoothed_excess_risk[-1] <= bound
    assert stats.smoothed_excess_risk[-1] > 0


# ---------- averaging ----------


def trajectory(iterations, *curves):
    # excess_risk, smoothed_excess_risk, msd and smoothed_msd, in that order
    return engine.Trajectory(np.asarray(iterations, dtype=np.int64),
                             *(np.asarray(c, dtype=float) for c in curves))


def test_average_trajectories_hand_computed():
    runs = [trajectory([10, 20], [1, 2], [0.5, 1], [3, 4], [1, 1]),
            trajectory([10, 20], [3, 4], [1.5, 2], [5, 6], [2, 3]),
            trajectory([10, 20], [5, 9], [1, 6], [1, 2], [3, 5])]
    stats = engine.average_trajectories(runs)
    assert stats.replications == 3
    np.testing.assert_array_equal(stats.iterations, [10, 20])
    np.testing.assert_array_equal(stats.excess_risk, [3, 5])
    np.testing.assert_array_equal(stats.smoothed_excess_risk, [1, 3])
    np.testing.assert_array_equal(stats.msd, [3, 4])
    np.testing.assert_array_equal(stats.smoothed_msd, [2, 3])
    # sample deviations (ddof = 1) 0.5 and sqrt(7), over sqrt(3)
    np.testing.assert_allclose(stats.smoothed_excess_risk_stderr,
                               [0.5 / np.sqrt(3), np.sqrt(7 / 3)], rtol=1e-15)


def test_average_of_one_trajectory_has_zero_stderr():
    run = trajectory([5, 10, 15], [1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 1])
    stats = engine.average_trajectories([run])
    assert stats.replications == 1
    np.testing.assert_array_equal(stats.smoothed_excess_risk, run.smoothed_excess_risk)
    np.testing.assert_array_equal(stats.smoothed_excess_risk_stderr, [0, 0, 0])


def test_average_trajectories_rejects_empty_and_mismatched_input():
    with pytest.raises(ValueError, match="at least one"):
        engine.average_trajectories([])
    runs = [trajectory([10, 20], [1, 2], [1, 2], [1, 2], [1, 2]),
            trajectory([10, 30], [1, 2], [1, 2], [1, 2], [1, 2])]
    with pytest.raises(ValueError, match="different iterations"):
        engine.average_trajectories(runs)


def test_trajectory_stats_holds_the_means_and_the_smoothed_stderr():
    assert [f.name for f in dataclasses.fields(engine.TrajectoryStats)] == [
        "iterations", "excess_risk", "smoothed_excess_risk", "smoothed_excess_risk_stderr",
        "msd", "smoothed_msd", "replications"]

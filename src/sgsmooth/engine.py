"""Generic constant step-size stochastic subgradient loop with smoothing.

The loop is problem-agnostic.  :func:`run` runs one replication against any
iterable of samples, for anything exposing ``dim`` and
``instantaneous_subgradient(w, sample)``.  Alongside the raw iterate it
maintains the exponentially smoothed iterate

    S_i = kappa * S_{i-1} + 1
    w_bar_i = (1 - 1/S_i) * w_bar_{i-1} + (1/S_i) * w_i

which is the realizable substitute for best-iterate tracking when the risk
cannot be evaluated online.  Every loop that smooths, here and in the
``denoise`` command, takes the step with :func:`smooth_in_place`.  A single
run is strictly sequential.

:func:`run_replications` advances independent replications in lockstep, as
the rows of one (R, dim) matrix, each row fed by its own sampler.  It needs
the problem's ``subgradient_batch(W, H, y, out)``, which writes the rows'
subgradients into ``out``, and a stream factory whose samplers have
``draw_batch(n)``; row r then equals :func:`run` on the same samples bit
for bit.  The SVM set's batch form reads signed rows, so its lockstep
stream samples :attr:`sgsmooth.problems.SvmSampleSet.signed` where
:func:`run` reads (h, gamma).  Blocks of replications may run in parallel
processes through :func:`parallel_map`, the package's one process pool.
"""

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional
import concurrent.futures
import math

import numpy as np

from .errors import NumericError, StreamExhausted, UnsupportedConfiguration

# Samples drawn per sampler call.  The samplers' iterators draw blocks of the
# same size, which keeps lockstep rows on the samples that run() sees.
SAMPLE_BLOCK = 512


class SmoothingState(NamedTuple):
    """Running geometric weight sum S, smoothed iterate, and the factor kappa."""

    s: float
    w_bar: np.ndarray
    kappa: float


def init_smoothing(w0, kappa):
    """Initial smoothing state: S = 1 and w_bar = w_0."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    return SmoothingState(1.0, np.array(w0, dtype=float), kappa)


def smooth_in_place(w_bar, w, s, scratch):
    """One smoothing step in place: w_bar <- (1 - 1/s) w_bar + w / s.

    ``s`` is the new weight sum S_i.  ``scratch``, shaped like ``w_bar``,
    receives w / s, so nothing is allocated.
    """
    # the (1 - 1/S) form makes kappa = 0 reduce to the last iterate exactly
    w_bar *= 1.0 - 1.0 / s
    np.divide(w, s, out=scratch)
    w_bar += scratch


def smoothing_update(state, w):
    """Advance the smoothing recursion by one iterate; returns a new state."""
    s = state.kappa * state.s + 1.0
    w_bar = np.array(state.w_bar, dtype=float)
    smooth_in_place(w_bar, np.asarray(w, dtype=float), s, np.empty_like(w_bar))
    return SmoothingState(s, w_bar, state.kappa)


def weighted_average_direct(iterates, kappa):
    """Direct kappa-geometric weighted average of an iterate sequence.

    Computes sum_j kappa^(L-j) w_j / sum_j kappa^(L-j); the most recent
    iterate carries the largest weight.  This is the reference form the
    smoothing recursion must reproduce.
    """
    if len(iterates) == 0:
        raise ValueError("need at least one iterate")
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    stack = np.asarray(iterates, dtype=float)
    last = stack.shape[0] - 1
    weights = kappa ** np.arange(last, -1, -1, dtype=float)
    return weights @ stack / weights.sum()


def pocket_update(current_best, candidate, risk_estimate):
    """Keep whichever of incumbent/candidate has the lower (estimated) risk.

    Ties keep the incumbent.  The pocket is only as exact as the risk
    estimates fed to it; with Monte-Carlo risks it is an estimator of the
    best iterate, not the exact object.
    """
    if math.isnan(risk_estimate):
        raise NumericError("pocket risk estimate is NaN")
    best_w, best_risk = current_best
    if risk_estimate < best_risk:
        return (np.array(candidate, dtype=float), float(risk_estimate))
    return (best_w, best_risk)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one streaming run.

    ``kappa`` may be a float in [0, 1) or the string "auto", in which case it
    must be resolved to the problem's theoretical rate before running (see
    :func:`resolve_kappa`).  Replication r uses seed ``seed + r``.
    """

    mu: float
    kappa: object = "auto"
    iterations: int = 10_000
    record_stride: int = 100
    seed: int = 0
    replications: int = 1

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.record_stride < 1:
            raise ValueError("record_stride must be positive")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.kappa != "auto":
            k = float(self.kappa)
            if not 0.0 <= k < 1.0:
                raise ValueError("kappa must lie in [0, 1) or be 'auto'")


def resolve_kappa(config, theoretical_alpha=None):
    """Replace kappa='auto' with the problem's theoretical rate alpha.

    The smoothing guarantee needs alpha <= kappa < 1, so 'auto' uses alpha
    itself.  If alpha >= 1 the step size is too large for the rate theory
    (it exceeds the ceiling eta / (e^2 + beta^2)) and the run is rejected.
    """
    if config.kappa != "auto":
        return config
    if theoretical_alpha is None:
        raise ValueError("kappa='auto' needs the problem's theoretical alpha")
    if not 0.0 <= theoretical_alpha < 1.0:
        raise UnsupportedConfiguration(
            f"theoretical rate alpha={theoretical_alpha:.6g} is outside [0, 1); "
            "the step size exceeds the ceiling eta/(e^2 + beta^2) -- reduce mu "
            "or set kappa explicitly"
        )
    return replace(config, kappa=float(theoretical_alpha))


@dataclass(frozen=True)
class RiskOracle:
    """Exact (or high-quality estimated) risk information for diagnostics.

    ``risk`` maps an iterate to its mean risk, ``w_star`` is the minimizer
    and ``risk_star`` its risk value.  Excess risk and mean-square deviation
    can only be recorded when an oracle is available.
    """

    risk: Callable[[np.ndarray], float]
    w_star: np.ndarray
    risk_star: float


@dataclass(eq=False)
class Trajectory:
    """Per-run diagnostics recorded every ``iteration_stride`` updates.

    Excess risks and deviations are recorded for both the raw and the
    smoothed iterate.  Values are stored exactly as computed; tiny negative
    excess-risk values from oracle noise are clamped only when reports are
    emitted, never here.
    """

    iterations: np.ndarray
    excess_risk: np.ndarray
    smoothed_excess_risk: np.ndarray
    msd: np.ndarray
    smoothed_msd: np.ndarray
    iteration_stride: int
    iterates: Optional[list] = None


class RunResult(NamedTuple):
    w: np.ndarray
    smoothing: SmoothingState
    trajectory: Trajectory
    pocket: Optional[tuple]


class _Recorder:
    """Records and pocket of one replication, every ``record_stride`` steps.

    Both loops call it, so a lockstep row records exactly what :func:`run`
    would.
    """

    def __init__(self, oracle, w0, track_pocket):
        self.oracle = oracle
        self.track_pocket = track_pocket
        self.columns = ([], [], [], [], [])
        self.snapshots = [] if oracle is None else None
        self.pocket = (w0.copy(), float(oracle.risk(w0))) if track_pocket else None

    def record(self, i, w, w_bar):
        oracle = self.oracle
        if oracle is None:
            self.snapshots.append(w.copy())
            return
        risk_raw = float(oracle.risk(w))
        if not math.isfinite(risk_raw):
            raise NumericError(f"risk diverged at iteration {i}")
        d = w - oracle.w_star
        d_bar = w_bar - oracle.w_star
        rec_i, rec_a, rec_a_sm, rec_b, rec_b_sm = self.columns
        rec_i.append(i)
        rec_a.append(risk_raw - oracle.risk_star)
        rec_a_sm.append(float(oracle.risk(w_bar)) - oracle.risk_star)
        rec_b.append(float(d @ d))
        rec_b_sm.append(float(d_bar @ d_bar))
        if self.track_pocket:
            self.pocket = pocket_update(self.pocket, w, risk_raw)

    def result(self, w, smoothing, stride):
        rec_i, rec_a, rec_a_sm, rec_b, rec_b_sm = self.columns
        trajectory = Trajectory(
            iterations=np.asarray(rec_i, dtype=np.int64),
            excess_risk=np.asarray(rec_a, dtype=float),
            smoothed_excess_risk=np.asarray(rec_a_sm, dtype=float),
            msd=np.asarray(rec_b, dtype=float),
            smoothed_msd=np.asarray(rec_b_sm, dtype=float),
            iteration_stride=stride,
            iterates=self.snapshots,
        )
        return RunResult(w, smoothing, trajectory, self.pocket)


def _start(problem, config, oracle, w0, track_pocket):
    """Checked kappa and start point shared by both loops."""
    if config.kappa == "auto":
        raise ValueError("kappa is unresolved; call resolve_kappa first")
    if w0 is None:
        w = np.zeros(problem.dim)
    else:
        w = np.array(w0, dtype=float)
    if track_pocket and oracle is None:
        raise ValueError("pocket tracking requires a risk oracle")
    return float(config.kappa), w


def run(problem, stream, config, *, oracle=None, w0=None, track_pocket=False):
    """Run the subgradient + smoothing loop for ``config.iterations`` steps.

    Parameters
    ----------
    problem : object
        Must expose ``dim`` and ``instantaneous_subgradient(w, sample)``.
    stream : iterable
        Yields one sample per iteration; exhausting it early raises
        :class:`StreamExhausted` rather than truncating silently.
    config : RunConfig
        ``config.kappa`` must already be numeric (see :func:`resolve_kappa`).
    oracle : RiskOracle, optional
        Enables excess-risk / MSD recording and pocket tracking.  Without it
        only iterate snapshots are recorded.
    w0 : array, optional
        Start point; defaults to the zero vector.
    """
    kappa, w = _start(problem, config, oracle, w0, track_pocket)
    mu = config.mu
    stride = config.record_stride
    n_iters = config.iterations
    subgrad = problem.instantaneous_subgradient

    w_bar = w.copy()
    scratch = np.empty_like(w)
    s_sum = 1.0
    it = iter(stream)
    recorder = _Recorder(oracle, w, track_pocket)

    for i in range(1, n_iters + 1):
        try:
            sample = next(it)
        except StopIteration:
            raise StreamExhausted(
                f"stream exhausted at iteration {i} of {n_iters}"
            ) from None
        g = subgrad(w, sample)
        w -= mu * g
        s_sum = kappa * s_sum + 1.0
        smooth_in_place(w_bar, w, s_sum, scratch)
        if i % stride == 0:
            recorder.record(i, w, w_bar)

    return recorder.result(w, SmoothingState(s_sum, w_bar, kappa), stride)


def parallel_map(fn, tasks):
    """``[fn(*task) for task in tasks]``, in order: inline for one task,
    otherwise one process per task (``fn`` and the tasks must be picklable)."""
    if len(tasks) == 1:
        return [fn(*tasks[0])]
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _run_lockstep(problem, stream_factory, config, seeds, oracle, w0, track_pocket):
    """Replications seeded ``seeds``, advanced together as rows of a matrix.

    The arithmetic is that of :func:`run`, one row per replication, with
    ``G *= mu; W -= G`` keeping the rounding of ``w -= mu * g``.  The step
    writes into buffers allocated once.  Overflow is not warned about: the
    iterates are checked once per block and a non-finite one raises
    :class:`NumericError` naming the block.
    """
    kappa, w = _start(problem, config, oracle, w0, track_pocket)
    mu = config.mu
    stride = config.record_stride
    n_iters = config.iterations
    subgrad = problem.subgradient_batch

    # the (R, dim) state first, so a size too large to hold fails at once
    W = np.tile(w, (len(seeds), 1))
    W_bar = W.copy()
    scratch = np.empty_like(W)
    G = np.empty_like(W)
    s_sum = 1.0
    samplers = [stream_factory(seed) for seed in seeds]
    recorders = [_Recorder(oracle, w, track_pocket) for _ in seeds]

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_iters, SAMPLE_BLOCK):
            stop = min(start + SAMPLE_BLOCK, n_iters)
            draws = [sampler.draw_batch(SAMPLE_BLOCK) for sampler in samplers]
            # (block, R, dim) and (block, R): step k reads contiguous rows
            H = np.stack([h for h, _ in draws], axis=1)
            Y = np.stack([y for _, y in draws], axis=1)
            for i, h, y in zip(range(start + 1, stop + 1), H, Y):
                subgrad(W, h, y, out=G)
                G *= mu
                W -= G
                s_sum = kappa * s_sum + 1.0
                smooth_in_place(W_bar, W, s_sum, scratch)
                if i % stride == 0:
                    for recorder, w_row, w_bar_row in zip(recorders, W, W_bar):
                        recorder.record(i, w_row, w_bar_row)
            if not np.isfinite(W).all():
                raise NumericError(f"iterate diverged in iterations {start + 1}..{stop}")

    return [
        recorder.result(W[r].copy(), SmoothingState(s_sum, W_bar[r].copy(), kappa), stride)
        for r, recorder in enumerate(recorders)
    ]


def run_replications(
    problem,
    stream_factory,
    config,
    *,
    oracle=None,
    w0=None,
    track_pocket=False,
    workers=1,
):
    """Run ``config.replications`` independent replications.

    ``stream_factory(seed)`` must build a fresh sampler with ``draw_batch``;
    replication r gets seed ``config.seed + r``.  The seeds are split into
    ``workers`` contiguous blocks, and each block advances in lockstep (see
    :func:`_run_lockstep`).  Several blocks run in separate processes
    (:func:`parallel_map`; everything passed in must be picklable).  Results
    are returned in replication order and do not depend on ``workers``.  Too
    many replications to hold raise ``MemoryError`` before any sampling.
    """
    n_rep = config.replications
    n_blocks = max(1, min(workers, n_rep))
    cuts = [n_rep * b // n_blocks for b in range(n_blocks + 1)]
    tasks = [
        (
            problem,
            stream_factory,
            config,
            range(config.seed + lo, config.seed + hi),
            oracle,
            w0,
            track_pocket,
        )
        for lo, hi in zip(cuts, cuts[1:])
    ]
    return [result for block in parallel_map(_run_lockstep, tasks) for result in block]


@dataclass(eq=False)
class TrajectoryStats:
    """Across-replication mean and standard error of each recorded curve."""

    iterations: np.ndarray
    excess_risk: np.ndarray
    excess_risk_stderr: np.ndarray
    smoothed_excess_risk: np.ndarray
    smoothed_excess_risk_stderr: np.ndarray
    msd: np.ndarray
    msd_stderr: np.ndarray
    smoothed_msd: np.ndarray
    smoothed_msd_stderr: np.ndarray
    replications: int
    iteration_stride: int


def average_trajectories(trajectories):
    """Arithmetic mean (and stderr) of trajectories at matched iterations."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    base = trajectories[0].iterations
    for t in trajectories[1:]:
        if not np.array_equal(t.iterations, base):
            raise ValueError("trajectories were recorded at different iterations")
    n_rep = len(trajectories)

    def mean_stderr(name):
        stack = np.asarray([getattr(t, name) for t in trajectories], dtype=float)
        mean = stack.mean(axis=0)
        if n_rep > 1:
            stderr = stack.std(axis=0, ddof=1) / math.sqrt(n_rep)
        else:
            stderr = np.zeros_like(mean)
        return mean, stderr

    a, a_se = mean_stderr("excess_risk")
    asm, asm_se = mean_stderr("smoothed_excess_risk")
    b, b_se = mean_stderr("msd")
    bsm, bsm_se = mean_stderr("smoothed_msd")
    return TrajectoryStats(
        iterations=base.copy(),
        excess_risk=a,
        excess_risk_stderr=a_se,
        smoothed_excess_risk=asm,
        smoothed_excess_risk_stderr=asm_se,
        msd=b,
        msd_stderr=b_se,
        smoothed_msd=bsm,
        smoothed_msd_stderr=bsm_se,
        replications=n_rep,
        iteration_stride=trajectories[0].iteration_stride,
    )

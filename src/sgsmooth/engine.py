"""Generic constant step-size stochastic subgradient loop with smoothing.

The loop is problem-agnostic.  Alongside the raw iterate it maintains the
exponentially smoothed iterate

    S_i = kappa * S_{i-1} + 1
    w_bar_i = (1 - 1/S_i) * w_bar_{i-1} + (1/S_i) * w_i

which is the realizable substitute for best-iterate tracking when the risk
cannot be evaluated online.  Every loop that smooths, here and in the
``denoise`` command, takes the step from :func:`smoothing_terms` and
:func:`smooth_step`, one iterate at a time through :func:`smooth_in_place`
or a block at a time in the lockstep.  A single run is strictly sequential.

:func:`run_replications`, the one loop the commands step through, advances
independent replications in lockstep, as the rows of one (R, dim) matrix,
each row fed by its own sampler.  It needs the problem's
``subgradient_batch(W, H, y, out, work)``, which writes the rows'
subgradients into ``out`` and its temporaries into ``work``, made once per
run by the problem's ``batch_work(R)``, and a stream factory whose samplers
have ``draw_batch(n)``.  Row r equals the per-sample reference :func:`run`
(any ``dim`` and ``instantaneous_subgradient(w, sample)``, any iterable of
samples) on the same samples bit for bit; the SVM set's batch form reads
signed rows, so its lockstep stream samples
:attr:`sgsmooth.problems.SvmSampleSet.signed` where :func:`run` reads
(h, gamma).  One process steps every row; with more workers, the others
only draw samples into a shared ring, split by measured cost.

At a few rows of a few coordinates a numpy call costs its dispatch, not
its arithmetic, and a Python float or a broadcast column nearly doubles
that.  So the lockstep step writes the iterates of a block of
``SAMPLE_BLOCK`` steps into the rows of a history, then takes every
w_i / S_i of the block in one division and runs the block's smoothing
steps, two calls each (:func:`smoothing_terms`, :func:`smooth_step`).
Every call of the loop takes operands of its output's shape or 0-d
arrays, and every buffer is allocated once per run.  A step's smoothing
factor 1 - 1/S_i is a 0-d array: a factor the shape of the iterates
would cost a (block, R, dim) copy per block, which at many rows outweighs
its cheaper dispatch.
"""

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional
import concurrent.futures
import contextlib
import math
import mmap
import multiprocessing
import time

import numpy as np

from .errors import NumericError, StreamExhausted, UnsupportedConfiguration, trap_divergence

# Samples drawn per sampler call, fewer in a run's last block.  The samplers'
# iterators draw full blocks, and a short draw is the prefix of a full one, so
# lockstep rows stay on the samples that run() sees.
SAMPLE_BLOCK = 512

# Blocks of the shared sample ring: a sampling process fills up to
# RING_SLOTS - 1 blocks ahead of the one being stepped.
RING_SLOTS = 3

# The block whose draw and step set the split between the stepper and the
# sampling processes; block 0 also pays the first touch of every buffer.
TIMED_BLOCK = 1

# Sampling processes inherit the samplers and the ring by fork.
_FORK = (multiprocessing.get_context("fork")
         if "fork" in multiprocessing.get_all_start_methods() else None)


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


def smoothing_terms(w, s, quotient):
    """Terms of the smoothing steps that take in ``w`` at weight sums ``s``.

    Writes w / s into ``quotient`` and returns the factor 1 - 1/s, so the
    step is ``smooth_step(w_bar, factor, quotient)``.  ``s`` is one new
    weight sum S_i, or a column of them for a stack of iterates, one step
    each.
    """
    np.divide(w, s, out=quotient)
    # the (1 - 1/S) form makes kappa = 0 reduce to the last iterate exactly
    return 1.0 - 1.0 / s


def smooth_step(w_bar, factor, quotient):
    """One smoothing step in place: w_bar <- factor * w_bar + quotient."""
    w_bar *= factor
    w_bar += quotient


def smooth_in_place(w_bar, w, s, scratch):
    """One smoothing step in place: w_bar <- (1 - 1/s) w_bar + w / s.

    ``s`` is the new weight sum S_i.  ``scratch``, shaped like ``w_bar``,
    receives w / s, so nothing is allocated.
    """
    smooth_step(w_bar, smoothing_terms(w, s, scratch), scratch)


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
    """Per-run diagnostics recorded every ``record_stride`` updates.

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


class RunResult(NamedTuple):
    w: np.ndarray
    smoothing: SmoothingState
    trajectory: Trajectory
    pocket: Optional[tuple]


class _Recorder:
    """Records and pocket of one replication, every ``record_stride`` steps.

    Both loops call it, so a lockstep row records exactly what :func:`run`
    would.  Without an oracle it records nothing.
    """

    def __init__(self, oracle, w0, track_pocket):
        self.oracle = oracle
        self.track_pocket = track_pocket
        self.columns = ([], [], [], [], [])
        self.pocket = (w0.copy(), float(oracle.risk(w0))) if track_pocket else None

    def record(self, i, w, w_bar):
        oracle = self.oracle
        if oracle is None:
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

    def result(self, w, smoothing):
        rec_i, rec_a, rec_a_sm, rec_b, rec_b_sm = self.columns
        trajectory = Trajectory(
            iterations=np.asarray(rec_i, dtype=np.int64),
            excess_risk=np.asarray(rec_a, dtype=float),
            smoothed_excess_risk=np.asarray(rec_a_sm, dtype=float),
            msd=np.asarray(rec_b, dtype=float),
            smoothed_msd=np.asarray(rec_b_sm, dtype=float),
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
        Enables excess-risk / MSD recording and pocket tracking.
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

    return recorder.result(w, SmoothingState(s_sum, w_bar, kappa))


def parallel_map(fn, tasks):
    """``[fn(*task) for task in tasks]``, in order: inline for one task,
    otherwise one process per task (``fn`` and the tasks must be picklable).

    The Monte-Carlo estimate :func:`sgsmooth.theory.estimate_lasso_a` splits
    its draws through it; :func:`run_replications` forks its own sampling
    processes.
    """
    if len(tasks) == 1:
        return [fn(*tasks[0])]
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _block_where(start, n):
    return f"iterate diverged in iterations {start + 1}..{start + n}"


def _draw_rows(samplers, H, Y, n):
    """``n`` samples of each sampler into its row of the (block, rows, dim)
    features ``H`` and (block, rows) targets ``Y``."""
    for r, sampler in enumerate(samplers):
        H[:n, r], Y[:n, r] = sampler.draw_batch(n)


def _ring(slots, rows, dim):
    """(slots, block, rows, dim) features and (slots, block, rows) targets,
    in memory that forked processes share."""
    shapes = ((slots, SAMPLE_BLOCK, rows, dim), (slots, SAMPLE_BLOCK, rows))
    split = math.prod(shapes[0])
    try:
        buf = mmap.mmap(-1, 8 * (split + math.prod(shapes[1])))
    except OSError as exc:
        raise MemoryError(f"cannot map the sample ring: {exc}") from None
    flat = np.frombuffer(buf)
    return flat[:split].reshape(shapes[0]), flat[split:].reshape(shapes[1])


class _Steps(NamedTuple):
    """What every row of a run steps with."""

    problem: object
    mu: np.ndarray  # 0-d: numpy converts a float on every call
    kappa: float
    stride: int


class _Lockstep:
    """The rows of a lockstep run, at one point of it.

    ``history`` (block + 1, rows, dim) receives a block's iterates, row 0
    holding the last iterate of the block before; ``quotients`` (block,
    rows, dim) its w_i / S_i.  ``H`` and ``Y`` are the sample ring.  Every
    per-step view is made once: indexing an array makes a new view on every
    call.
    """

    def __init__(self, steps, history, quotients, W_bar, H, Y, recorders):
        self.steps, self.history, self.quotients = steps, history, quotients
        self.W_bar, self.H, self.Y = W_bar, H, Y
        self.recorders, self.s_sum = recorders, 1.0
        self.G = np.empty_like(W_bar)
        self.work = steps.problem.batch_work(len(W_bar))
        self.factors = np.empty(SAMPLE_BLOCK)
        self.W_rows, self.q_rows = list(history), list(quotients)
        self.c_rows = [self.factors[k : k + 1].reshape(()) for k in range(SAMPLE_BLOCK)]  # 0-d
        self.H_slots, self.Y_slots = [list(h) for h in H], [list(y) for y in Y]

    def step(self, start, n, slot):
        """Steps ``start + 1`` .. ``start + n`` on the samples in ring slot
        ``slot``, with their smoothing and records; a non-finite iterate
        that raised nothing raises :class:`NumericError` at the end."""
        problem, mu, kappa, stride = self.steps
        subgrad = problem.subgradient_batch
        W_rows, G, work, W_bar, s_sum = self.W_rows, self.G, self.work, self.W_bar, self.s_sum
        sums = []
        for k, H_k, Y_k in zip(range(n), self.H_slots[slot], self.Y_slots[slot]):
            subgrad(W_rows[k], H_k, Y_k, G, work)
            np.multiply(G, mu, G)
            np.subtract(W_rows[k], G, W_rows[k + 1])
            s_sum = kappa * s_sum + 1.0
            sums.append(s_sum)
        column = np.array(sums)[:, None, None]
        terms = smoothing_terms(self.history[1 : n + 1], column, self.quotients[:n])
        np.copyto(self.factors[:n], terms[:, 0, 0])
        for i, c, q, W in zip(range(start + 1, start + n + 1), self.c_rows, self.q_rows, W_rows[1:]):
            smooth_step(W_bar, c, q)
            if i % stride == 0:
                for recorder, w_row, w_bar_row in zip(self.recorders, W, W_bar):
                    recorder.record(i, w_row, w_bar_row)
        if not np.isfinite(W_rows[n]).all():
            raise NumericError(_block_where(start, n))
        np.copyto(W_rows[0], W_rows[n])
        self.s_sum = s_sum

    def results(self):
        W = self.W_rows[0]
        return [
            recorder.result(W[r].copy(), SmoothingState(self.s_sum, self.W_bar[r].copy(),
                                                        self.steps.kappa))
            for r, recorder in enumerate(self.recorders)
        ]


def _block(lock, own, conns, children, slot, start, n):
    """The block of steps ``start + 1`` .. ``start + n`` of the rows of
    ``lock``, on ring slot ``slot``: draws the samples of the samplers
    ``own``, those of its leading rows, takes the word of the sampling
    processes ``children``, over ``conns``, for the others, and steps.
    Returns the seconds of the draw and of the step.

    A sampling process that ended without a word raises
    :class:`ChildProcessError`, which names the block and how it ended."""
    with trap_divergence(_block_where(start, n)):
        t0 = time.perf_counter()
        _draw_rows(own, lock.H[slot], lock.Y[slot], n)
        t1 = time.perf_counter()
        for conn, proc in zip(conns, children):
            try:
                exc = conn.recv()
            except (EOFError, OSError):
                proc.join()  # its end of the pipe closes only as it ends
                code = proc.exitcode
                how = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise ChildProcessError(f"a sampling process ended ({how}) before iterations "
                                        f"{start + 1}..{start + n} were drawn") from None
            if exc is not None:
                raise exc
        t2 = time.perf_counter()
        lock.step(start, n, slot)
    return t1 - t0, time.perf_counter() - t2


def _sample_span(samplers, H, Y, n_iters, conn):
    """Body of a sampling process: the blocks after ``TIMED_BLOCK`` of the
    rows of ``H``, ``Y``, the span's part of the ring.

    Block b goes into slot b % slots; past the first lap it waits for the
    stepper's word that the block last in that slot is stepped.  After each
    block it sends None; on an exception it sends the exception, which the
    stepper raises on reaching that block, and stops.
    """
    slots = len(H)
    try:
        first_block = TIMED_BLOCK + 1
        starts = range(first_block * SAMPLE_BLOCK, n_iters, SAMPLE_BLOCK)
        for b, start in enumerate(starts, first_block):
            if b > TIMED_BLOCK + slots:
                conn.recv()
            n = min(SAMPLE_BLOCK, n_iters - start)
            with trap_divergence(_block_where(start, n)):
                _draw_rows(samplers, H[b % slots], Y[b % slots], n)
            conn.send(None)
    except Exception as exc:
        with contextlib.suppress(OSError):  # the stepper has already stopped
            conn.send(exc)


def _stepper_rows(rows, workers, draw_s, step_s):
    """Rows whose samples the stepper draws itself: x makes its block,
    ``step_s + x draw_s``, cost what each of the ``workers - 1`` sampling
    processes' ``(rows - x) draw_s / (workers - 1)`` does."""
    if draw_s <= 0.0:
        return rows
    x = round((rows * draw_s - (workers - 1) * step_s) / (workers * draw_s))
    return min(rows, max(0, x))


def _fork(children, target, *args):
    """Starts ``target(*args, conn)`` in a forked daemon process, added to
    ``children``; returns the other end of ``conn``."""
    conn, child = _FORK.Pipe()
    try:
        proc = _FORK.Process(target=target, args=(*args, child), daemon=True)
        proc.start()
    except BaseException:
        conn.close()
        raise
    finally:
        child.close()
    children.append(proc)
    return conn


def _finish(lock, samplers, kept, workers, n_iters):
    """The blocks after ``TIMED_BLOCK`` of the rows of ``lock``, whose
    samplers are ``samplers``.

    This process steps every row and draws the samples of the first
    ``kept``; the others are split into contiguous spans, one forked process
    each (:func:`_sample_span`), at most ``workers - 1``.  An exception of
    any block is raised after the sampling processes are stopped.
    """
    rows = len(samplers)
    spans = min(workers - 1, rows - kept)
    cuts = [kept + (rows - kept) * j // spans for j in range(spans + 1)] if spans else []
    slots = len(lock.H)
    starts = range(0, n_iters, SAMPLE_BLOCK)
    conns, children = [], []
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            conns.append(_fork(children, _sample_span, samplers[lo:hi],
                               lock.H[:, :, lo:hi], lock.Y[:, :, lo:hi], n_iters))
        for b in range(TIMED_BLOCK + 1, len(starts)):
            start = starts[b]
            _block(lock, samplers[:kept], conns, children, b % slots, start,
                   min(SAMPLE_BLOCK, n_iters - start))
            if b + slots < len(starts):
                for conn in conns:  # slot b % slots is free for block b + slots
                    # a process that failed has stopped; its error waits in the pipe
                    with contextlib.suppress(ConnectionError):
                        conn.send(None)
    except BaseException:
        for proc in children:
            proc.terminate()
        raise
    finally:
        for proc in children:
            proc.join()
            proc.close()
        for conn in conns:
            conn.close()


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
    """Run ``config.replications`` independent replications in lockstep.

    ``stream_factory(seed)`` must build a fresh sampler with ``draw_batch``;
    replication r gets seed ``config.seed + r``.  Every replication is a row
    of one (R, dim) matrix that this process steps, with the arithmetic of
    :func:`run`: ``G *= mu`` then ``W - G`` keeps the rounding of
    ``w -= mu * g``.  A block of steps writes iterate k into row k of a
    (block + 1, R, dim) history, row 0 holding the last iterate of the
    block before; then one division by the block's weight sums gives every
    w_i / S_i, and the smoothing steps and the records follow in order.
    The last block draws only the rows it steps on.

    With ``workers = P > 1``, blocks after ``TIMED_BLOCK`` and a platform
    that can fork, the other P - 1 processes only draw samples.  This
    process draws and steps the blocks up to ``TIMED_BLOCK`` for every
    row, timing that block's draw per row and its step, smoothing and
    records, and then keeps drawing the first x rows, the count that
    balances the two (:func:`_stepper_rows`).  The other rows are split
    into contiguous spans, and a forked process per span continues its
    rows' samplers from where they stand, writing each block into a ring
    of ``RING_SLOTS`` shared (block, R, dim) and (block, R) slots that the
    step reads in place.  Each row still draws its own samples in order, so
    the results, returned in replication order, do not depend on
    ``workers`` or x.  Where fork is not available, this process also
    draws every row.

    Each block runs under :func:`trap_divergence`, which names the cause
    and the block; the iterates are also checked once per block, for
    non-finite input that raises nothing.  An exception in a sampling
    process is raised here at the block it belongs to, as the serial run
    raises it, and a sampling process that ends without one raises
    :class:`ChildProcessError`.  Too many replications to hold raise
    ``MemoryError`` before any sampling.
    """
    kappa, w = _start(problem, config, oracle, w0, track_pocket)
    n_iters = config.iterations
    n_rep, dim = config.replications, w.shape[0]
    starts = range(0, n_iters, SAMPLE_BLOCK)
    split = workers > 1 and len(starts) > TIMED_BLOCK + 1 and _FORK is not None

    # the buffers first, (R, dim) before (block, R, dim), so a size too
    # large to hold fails at once
    W_bar = np.tile(w, (n_rep, 1))
    history = np.empty((SAMPLE_BLOCK + 1, n_rep, dim))
    quotients = np.empty((SAMPLE_BLOCK, n_rep, dim))
    # (slot, block, R, dim): step k reads contiguous rows
    H, Y = _ring(RING_SLOTS if split else 1, n_rep, dim)
    history[0] = w
    steps = _Steps(problem, np.array(config.mu), kappa, config.record_stride)
    recorders = [_Recorder(oracle, w, track_pocket) for _ in range(n_rep)]
    lock = _Lockstep(steps, history, quotients, W_bar, H, Y, recorders)
    samplers = [stream_factory(config.seed + r) for r in range(n_rep)]

    # slot 0 throughout, so that the timed block pays no first touch
    for b in range(TIMED_BLOCK + 1 if split else len(starts)):
        n = min(SAMPLE_BLOCK, n_iters - starts[b])
        draw_s, step_s = _block(lock, samplers, [], [], 0, starts[b], n)
    if split:
        kept = _stepper_rows(n_rep, workers, draw_s / n_rep, step_s)
        _finish(lock, samplers, kept, workers, n_iters)
    return lock.results()


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
    )

"""Generic constant step-size stochastic subgradient loop with smoothing.

The loop is problem-agnostic.  Alongside the raw iterate it maintains the
exponentially smoothed iterate by one recursion, on the weight sum S and the
numerator Z:

    S_i = kappa * S_{i-1} + 1,    Z_i = kappa * Z_{i-1} + w_i,    w_bar_i = Z_i / S_i

This is the realizable substitute for best-iterate tracking when the risk
cannot be evaluated online.  The factor kappa is a number in [0, 1); the
theory's choice, kappa = alpha, the problem's rate, is the caller's to make.
It is evaluated in two orders, and w_bar is divided out only where it is
read.  The runs take it once per block of ``SAMPLE_BLOCK`` steps, from the
block's iterates, at the record points and the block's end
(:class:`_BlockSmoothing`); :func:`smoothing_update` takes it one iterate
at a time, and the ``denoise`` command's steps advance its numerator band by
band inside their programs (:func:`sgsmooth.problems.tv_denoise`).
A single run is strictly sequential.

:func:`run_replications`, the one loop the commands step through, advances
independent replications in lockstep, as the rows of one (R, dim) matrix,
each row fed by its own sampler.  It needs the problem's
``batch_kernel(R)``, which binds once per run a kernel
``kernel(W, H, y, out)`` that writes the rows' subgradients into ``out``,
and a stream factory whose samplers have ``draw_batch(n)``.  Row r equals
the per-sample reference :func:`run` (any ``dim`` and
``instantaneous_subgradient(w, sample)``, any iterable of samples) on the
same samples bit for bit; the SVM set's batch form reads signed rows, so
its lockstep stream samples :attr:`sgsmooth.problems.SvmSampleSet.signed`
where :func:`run` reads (h, gamma).  One process steps every row from zero,
every block in one loop; with more workers, the others only draw the
blocks it sends them, into a shared ring, their rows split by measured
cost.

At a few rows of a few coordinates a numpy call costs its dispatch, not
its arithmetic, and a Python float or a broadcast column nearly doubles
that.  So the loop over a lockstep block's steps holds only the kernel,
``G *= mu`` and ``W - G``, every numpy call on operands of its output's
shape or 0-d arrays, and writes the block's iterates into the rows of a
history.  Every buffer is allocated once per run, by the lockstep, before
any per-row object.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple
import contextlib
import math
import mmap
import multiprocessing
import numbers
import os
import time

import numpy as np

from .errors import NumericError, StreamExhausted, trap_divergence

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
    """Running geometric weight sum S, numerator Z, and the factor kappa."""

    s: float
    z: np.ndarray
    kappa: float

    @property
    def w_bar(self):
        """The smoothed iterate Z / S."""
        return self.z / self.s


def init_smoothing(w0, kappa):
    """Initial smoothing state: S = 1 and Z = w_0."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    return SmoothingState(1.0, np.array(w0, dtype=float), kappa)


def smoothing_update(state, w):
    """Advance the smoothing recursion by one iterate; returns a new state.
    At kappa = 0, Z = w and S = 1: w_bar is the last iterate exactly."""
    s, z, kappa = state
    return SmoothingState(kappa * s + 1.0, kappa * z + np.asarray(w, dtype=float), kappa)


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


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one streaming run.

    ``kappa``, the smoothing factor, is a number in [0, 1); the theory's
    choice, the problem's rate alpha, is the caller's to compute.
    Replication r uses seed ``seed + r``.
    """

    mu: float
    kappa: float
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
        # a string is no number, whatever it spells; NaN fails the range
        if not (isinstance(self.kappa, numbers.Real) and 0.0 <= self.kappa < 1.0):
            raise ValueError(f"kappa must be a number in [0, 1), got {self.kappa!r}")


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


class _Recorder:
    """Records of one replication, every ``record_stride`` steps.

    Both loops call it, so a lockstep row records exactly what :func:`run`
    would.  Without an oracle it records nothing.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.columns = ([], [], [], [], [])

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

    def result(self, w, smoothing):
        rec_i, rec_a, rec_a_sm, rec_b, rec_b_sm = self.columns
        trajectory = Trajectory(
            iterations=np.asarray(rec_i, dtype=np.int64),
            excess_risk=np.asarray(rec_a, dtype=float),
            smoothed_excess_risk=np.asarray(rec_a_sm, dtype=float),
            msd=np.asarray(rec_b, dtype=float),
            smoothed_msd=np.asarray(rec_b_sm, dtype=float),
        )
        return RunResult(w, smoothing, trajectory)


class _BlockSmoothing:
    """The smoothed iterates of a run's blocks, in numerator form.

    The numerator Z_i = kappa Z_{i-1} + w_i, with Z_0 = w_0 = 0, gives
    w_bar_i = Z_i / S_i.  After a block's steps, Z_k = kappa^k Z_0 +
    sum_{j<=k} kappa^(k-j) w_j is one product of the powers kappa^0 ..
    kappa^SAMPLE_BLOCK, taken once by repeated multiplication, with the
    block's iterates.  It is taken at each record point, every ``stride``
    steps of the run, and at the block's end.  ``scratch`` receives one
    row's iterates of a block: BLAS sums a strided or a many-row operand in
    other orders, so each row's product reads the same contiguous
    (block, dim) rows in every loop.
    """

    def __init__(self, config, dim):
        self.kappa, self.stride, self.s_sum = float(config.kappa), config.record_stride, 1.0
        self.powers = np.cumprod(np.r_[1.0, np.full(SAMPLE_BLOCK, self.kappa)])
        self.reverse = self.powers[::-1].copy()
        self.scratch, self.z_k = np.empty((SAMPLE_BLOCK, dim)), np.empty(dim)

    def sums(self, n):
        """The weight sums S of the next ``n`` steps, which S moves past."""
        sums, s_sum, kappa = [], self.s_sum, self.kappa
        for _ in range(n):
            s_sum = kappa * s_sum + 1.0
            sums.append(s_sum)
        self.s_sum = s_sum
        return sums

    def _numerator(self, z, k):
        # kappa^k z + sum_{j=1..k} kappa^(k-j) w_j, with w_j in scratch row j - 1
        z_k = np.matmul(self.reverse[SAMPLE_BLOCK + 1 - k :], self.scratch[:k], out=self.z_k)
        z_k += self.powers[k] * z
        return z_k

    def block(self, z, iterates, start, sums, recorder):
        """Records, to ``recorder``, the points of the block of steps
        ``start + 1`` .. ``start + n`` whose iterates are the rows of
        ``iterates`` and whose weight sums are ``sums``, and moves the
        numerator ``z`` to the block's end, in place."""
        n, stride = len(sums), self.stride
        np.copyto(self.scratch[:n], iterates)
        for k in range(stride - start % stride, n + 1, stride):
            recorder.record(start + k, self.scratch[k - 1], self._numerator(z, k) / sums[k - 1])
        np.copyto(z, self._numerator(z, n))


def run(problem, stream, config, *, oracle=None):
    """Run the subgradient + smoothing loop for ``config.iterations`` steps
    from the zero vector.

    Parameters
    ----------
    problem : object
        Must expose ``dim`` and ``instantaneous_subgradient(w, sample)``.
    stream : iterable
        Yields one sample per iteration; exhausting it early raises
        :class:`StreamExhausted` rather than truncating silently.
    config : RunConfig
        Step size ``mu``, smoothing factor ``kappa``, horizon and record stride.
    oracle : RiskOracle, optional
        Enables excess-risk / MSD recording.

    As in the lockstep, the smoothed iterate is evaluated once per block,
    from the block's iterates (:class:`_BlockSmoothing`).
    """
    w = np.zeros(problem.dim)
    recorder = _Recorder(oracle)
    mu, n_iters = config.mu, config.iterations
    subgrad = problem.instantaneous_subgradient
    smoothing = _BlockSmoothing(config, problem.dim)
    iterates, z = np.empty((SAMPLE_BLOCK, problem.dim)), np.zeros(problem.dim)
    it = iter(stream)

    for start in range(0, n_iters, SAMPLE_BLOCK):
        n = min(SAMPLE_BLOCK, n_iters - start)
        for k in range(n):
            try:
                sample = next(it)
            except StopIteration:
                raise StreamExhausted(f"stream exhausted at iteration {start + k + 1} "
                                      f"of {n_iters}") from None
            w -= mu * subgrad(w, sample)
            iterates[k] = w
        smoothing.block(z, iterates[:n], start, smoothing.sums(n), recorder)

    return recorder.result(w, SmoothingState(smoothing.s_sum, z, smoothing.kappa))


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


class _Lockstep:
    """The rows of a lockstep run, at one point of it.

    It allocates every buffer of the run, the (R, dim) numerators of the
    smoothed iterates first, at zero, before any per-row object: a size too
    large to hold raises ``MemoryError`` before a recorder or sampler is
    made.  ``history`` (block + 1, rows, dim) receives a block's iterates,
    row 0 holding the last iterate of the block before.  ``H`` and ``Y`` are
    a sample ring of ``slots`` blocks.  Every per-step view is made once:
    indexing an array makes a new view on every call.
    """

    def __init__(self, problem, config, slots, oracle):
        rows, w = config.replications, np.zeros(problem.dim)
        self.Z = np.tile(w, (rows, 1))
        self.history = np.empty((SAMPLE_BLOCK + 1, *self.Z.shape))
        # (slot, block, R, dim): step k reads contiguous rows
        self.H, self.Y = _ring(slots, *self.Z.shape)
        self.G = np.empty_like(self.Z)
        self.kernel = problem.batch_kernel(rows)
        self.smoothing = _BlockSmoothing(config, problem.dim)
        self.history[0] = w
        self.mu = np.array(config.mu)  # 0-d: numpy converts a float on every call
        self.W_rows = list(self.history)
        self.H_slots, self.Y_slots = [list(h) for h in self.H], [list(y) for y in self.Y]
        self.recorders = [_Recorder(oracle) for _ in range(rows)]

    def step(self, start, n, slot):
        """Steps ``start + 1`` .. ``start + n`` on the samples in ring slot
        ``slot``, then smooths and records them row by row; a non-finite
        iterate that raised nothing raises :class:`NumericError` at the end."""
        kernel, mu, W_rows, G = self.kernel, self.mu, self.W_rows, self.G
        multiply, subtract = np.multiply, np.subtract
        for k, H_k, Y_k in zip(range(n), self.H_slots[slot], self.Y_slots[slot]):
            kernel(W_rows[k], H_k, Y_k, G)
            multiply(G, mu, G)
            subtract(W_rows[k], G, W_rows[k + 1])
        sums = self.smoothing.sums(n)
        for recorder, z, iterates in zip(self.recorders, self.Z,
                                         self.history[1 : n + 1].swapaxes(0, 1)):
            self.smoothing.block(z, iterates, start, sums, recorder)
        if not np.isfinite(W_rows[n]).all():
            raise NumericError(_block_where(start, n))
        np.copyto(W_rows[0], W_rows[n])

    def results(self):
        W, s_sum, kappa = self.W_rows[0], self.smoothing.s_sum, self.smoothing.kappa
        return [recorder.result(W[r].copy(), SmoothingState(s_sum, self.Z[r].copy(), kappa))
                for r, recorder in enumerate(self.recorders)]


def _block(lock, own, conns, children, start, n, slot):
    """The block ``(start, n, slot)`` of the schedule: steps ``start + 1``
    .. ``start + n`` of the rows of ``lock`` on ring slot ``slot``.  Draws
    the samples of the samplers ``own``, those of its leading rows, takes
    the word of the sampling processes ``children``, over ``conns``, that
    the others are drawn, and steps.  Returns the seconds of the draw and
    of the step.

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


def _sample_span(samplers, H, Y, conn):
    """Body of a sampling process: draws each block ``(start, n, slot)``
    the stepper sends, into slot ``slot`` of ``H``, ``Y``, the span's part
    of the ring, and replies None, until the stepper sends None.

    On an exception it sends the exception, which the stepper raises on
    reaching that block, and stops.
    """
    try:
        for start, n, slot in iter(conn.recv, None):
            with trap_divergence(_block_where(start, n)):
                _draw_rows(samplers, H[slot], Y[slot], n)
            conn.send(None)
    except Exception as exc:
        with contextlib.suppress(OSError):  # the stepper has already stopped
            conn.send(exc)


def _send(conns, orders):
    """Sends ``orders`` over each of ``conns``; a sampling process that
    failed has stopped, and its error waits in the pipe."""
    for conn in conns:
        with contextlib.suppress(ConnectionError):
            for order in orders:
                conn.send(order)


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


def usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_replications(problem, stream_factory, config, *, oracle=None, workers=1):
    """Run ``config.replications`` independent replications in lockstep.

    ``stream_factory(seed)`` must build a fresh sampler with ``draw_batch``;
    replication r gets seed ``config.seed + r``.  Every replication is a row
    of one (R, dim) matrix that this process steps from zero, with the
    arithmetic of :func:`run`: ``G *= mu`` then ``W - G`` keeps the rounding
    of ``w -= mu * g``.  A block of steps writes iterate k into row k of a
    (block + 1, R, dim) history, row 0 holding the last iterate of the
    block before.  Then, row by row, the row's iterates are copied into one
    contiguous block, its smoothed iterates are evaluated from them at the
    record points, as :func:`run` evaluates its own, and the records follow
    in order.
    One loop runs every block ``(start, n, slot)`` of the one schedule,
    kept here: ``n`` steps from ``start`` on ring slot ``slot`` (:func:`_block`),
    each computed from its index when it is stepped or sent.

    With ``workers = P > 1``, blocks after ``TIMED_BLOCK`` and a platform
    that can fork, the other P - 1 processes only draw samples.  This
    process draws and steps the blocks up to ``TIMED_BLOCK`` for every
    row, in ring slot 0, timing that block's draw per row and its step,
    smoothing and records.  On reaching the next block it keeps drawing
    the first x rows, the count that balances the two
    (:func:`_stepper_rows`).  The other rows are split into contiguous
    spans, and a forked process per span continues its rows' samplers from
    where they stand, writing each block into a ring of ``RING_SLOTS``
    shared (block, R, dim) and (block, R) slots that the step reads in
    place.  Each is sent the blocks to draw: the ring's first lap at the
    fork, then after each step the block that takes the slot stepped, or
    None, its end.  Each row still draws its own samples in order, so the
    results, returned in replication order, do not depend on ``workers`` or x.
    Where fork is not available, this process also draws every row.

    Each block runs under :func:`trap_divergence`, which names the cause
    and the block; the iterates are also checked once per block, for
    non-finite input that raises nothing.  An exception in a sampling
    process is raised here at the block it belongs to, as the serial run
    raises it, and a sampling process that ends without one raises
    :class:`ChildProcessError`; either way the sampling processes are
    stopped first.  Too many replications to hold raise ``MemoryError``
    from the lockstep's buffers, before any recorder, sampler or process
    is made.
    """
    n_iters, n_rep = config.iterations, config.replications
    n_blocks = -(-n_iters // SAMPLE_BLOCK)
    split = workers > 1 and n_blocks > TIMED_BLOCK + 1 and _FORK is not None
    slots = RING_SLOTS if split else 1

    def block(b):
        # slot 0 up to TIMED_BLOCK, so that the timed block pays no first touch
        start = b * SAMPLE_BLOCK
        return start, min(SAMPLE_BLOCK, n_iters - start), b % slots if b > TIMED_BLOCK else 0

    def orders(lo, hi):
        # what a sampling process is sent for blocks lo .. hi - 1: None past the last
        return [block(b) if b < n_blocks else None for b in range(lo, min(hi, n_blocks + 1))]

    lock = _Lockstep(problem, config, slots, oracle)
    samplers = [stream_factory(config.seed + r) for r in range(n_rep)]

    kept, conns, children = n_rep, [], []
    try:
        for b in range(n_blocks):
            if split and b == TIMED_BLOCK + 1:
                kept = _stepper_rows(n_rep, workers, draw_s / n_rep, step_s)
                spans = min(workers - 1, n_rep - kept)
                cuts = ([kept + (n_rep - kept) * j // spans for j in range(spans + 1)]
                        if spans else [])
                for lo, hi in zip(cuts, cuts[1:]):
                    conns.append(_fork(children, _sample_span, samplers[lo:hi],
                                       lock.H[:, :, lo:hi], lock.Y[:, :, lo:hi]))
                _send(conns, orders(b, b + slots))  # the first lap of the ring
            draw_s, step_s = _block(lock, samplers[:kept], conns, children, *block(b))
            _send(conns, orders(b + slots, b + slots + 1))  # into the slot just stepped
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
    return lock.results()


@dataclass(eq=False)
class TrajectoryStats:
    """Across-replication means of the recorded curves, and the standard
    error of the smoothed excess-risk mean."""

    iterations: np.ndarray
    excess_risk: np.ndarray
    smoothed_excess_risk: np.ndarray
    smoothed_excess_risk_stderr: np.ndarray
    msd: np.ndarray
    smoothed_msd: np.ndarray
    replications: int


def average_trajectories(trajectories):
    """Arithmetic means of trajectories at matched iterations, and the
    standard error of the smoothed excess-risk mean (zero for one)."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    base = trajectories[0].iterations
    for t in trajectories[1:]:
        if not np.array_equal(t.iterations, base):
            raise ValueError("trajectories were recorded at different iterations")
    n_rep = len(trajectories)

    def stack(name):
        return np.asarray([getattr(t, name) for t in trajectories], dtype=float)

    smoothed = stack("smoothed_excess_risk")
    if n_rep > 1:
        smoothed_stderr = smoothed.std(axis=0, ddof=1) / math.sqrt(n_rep)
    else:
        smoothed_stderr = np.zeros_like(smoothed[0])
    return TrajectoryStats(
        iterations=base.copy(),
        excess_risk=stack("excess_risk").mean(axis=0),
        smoothed_excess_risk=smoothed.mean(axis=0),
        smoothed_excess_risk_stderr=smoothed_stderr,
        msd=stack("msd").mean(axis=0),
        smoothed_msd=stack("smoothed_msd").mean(axis=0),
        replications=n_rep,
    )

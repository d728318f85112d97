"""In-memory span tree for the traced benchmark run.

Spans are recorded from outside the program: :func:`install` replaces public
callables of the ``sgsmooth`` modules with timing wrappers, in place, and the
returned :class:`Patches` puts the originals back.  Each call site becomes a
node keyed by its path from the root (name, parent), holding a call count, the
total time, the time covered by child spans and an optional work count.  Self
time is total minus child time, so children plus self rebuild every parent
exactly (times are integer nanoseconds).
"""

import builtins
import inspect
import pathlib
import statistics
import time


class Node:
    __slots__ = ("name", "parent", "children", "count", "total", "child", "items", "nbytes")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = {}
        self.count = 0
        self.total = 0  # ns inside this span
        self.child = 0  # ns of that covered by child spans
        self.items = 0  # work units reported by the wrapped call
        self.nbytes = 0  # computed bytes moved by the wrapped call

    @property
    def self_ns(self):
        return self.total - self.child

    def path(self):
        names = []
        node = self
        while node.parent is not None:
            names.append(node.name)
            node = node.parent
        return "/".join(reversed(names))

    def walk(self):
        yield self
        for kid in self.children.values():
            yield from kid.walk()


class Tracer:
    """Span stack plus the aggregated tree; ``clock`` returns integer ns."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.root = Node("", None)
        self.current = self.root

    def child(self, parent, name):
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name, parent)
        return node

    def enter(self, name):
        node = self.current = self.child(self.current, name)
        return node, self.clock()

    def leave(self, node, t0):
        dt = self.clock() - t0
        node.count += 1
        node.total += dt
        node.parent.child += dt
        self.current = node.parent

    # The two wrappers below inline enter/leave: each traced call is on the
    # per-sample path, where a method call costs a tenth of a microsecond.

    def wrap(self, fn, name, measure=None):
        """Timing wrapper; ``measure(args, kwargs, result)`` -> (items, bytes)."""
        tracer, clock, child = self, self.clock, self.child

        def traced(*args, **kwargs):
            parent = tracer.current
            node = parent.children.get(name) or child(parent, name)
            tracer.current = node
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                node.count += 1
                node.total += dt
                parent.child += dt
                tracer.current = parent
            if measure is not None:
                items, nbytes = measure(args, kwargs, result)
                node.items += items
                node.nbytes += nbytes
            return result

        return traced

    def wrap_iter(self, iter_fn, name):
        """``__iter__`` replacement that times each ``next`` as one span."""
        tracer, clock, child = self, self.clock, self.child

        def traced_iter(obj):
            inner = iter_fn(obj)
            while True:
                parent = tracer.current
                node = parent.children.get(name) or child(parent, name)
                tracer.current = node
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    node.count += 1
                    node.total += dt
                    parent.child += dt
                    tracer.current = parent
                yield item

        return traced_iter

    def nodes(self, name):
        return [n for n in self.root.walk() if n.name == name]

    def total(self, name, field="total"):
        return sum(getattr(n, field) for n in self.nodes(name))

    def under(self, ancestor, name, field="total"):
        """Sum of ``field`` over ``name`` spans nested anywhere below ``ancestor``."""
        out = 0
        for top in self.nodes(ancestor):
            for n in top.walk():
                if n is not top and n.name == name:
                    out += getattr(n, field)
        return out

    def check(self):
        """Every node's total equals its self time plus its children's totals."""
        for node in self.root.walk():
            if node.parent is None:
                continue
            kids = sum(k.total for k in node.children.values())
            if node.self_ns + kids != node.total or node.self_ns < 0:
                raise AssertionError(f"span {node.path()} does not add up")

    def table(self):
        return [
            {"span": n.path(), "count": n.count, "total_ns": n.total,
             "self_ns": n.self_ns, "items": n.items}
            for n in self.root.walk() if n.parent is not None
        ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _set_rows(passes):
    # rows of a frozen SVM set touched per call, and their bytes
    def measure(args, kwargs, result):
        sset = args[0]
        return passes * sset.n, passes * sset.n * sset.dim * 8

    return measure


def _minimize_rows(fn):
    sig = inspect.signature(fn)

    def measure(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        # one margin pass and one gradient pass over the set per iteration
        rows = 2 * bound.arguments["self"].n * bound.arguments["n_iters"]
        return rows, rows * bound.arguments["self"].dim * 8

    return measure


def _array_size(args, kwargs, result):
    return result.size, 0


def _batch_rows(args, kwargs, result):
    return args[1], 0


class _TracedOpen:
    """``open`` for the cli module: one ``cli.write`` span per opened file."""

    def __init__(self, tracer, real_open):
        self.tracer = tracer
        self.real_open = real_open

    def __call__(self, *args, **kwargs):
        node, t0 = self.tracer.enter("cli.write")
        try:
            fh = self.real_open(*args, **kwargs)
        except BaseException:
            self.tracer.leave(node, t0)
            raise
        close = fh.close

        def traced_close():
            try:
                close()
            finally:
                if self.tracer.current is node:
                    self.tracer.leave(node, t0)

        fh.close = traced_close
        return fh


def install(tracer, sgsmooth):
    """Wrap the program's public callables; returns the :class:`Patches` to undo."""
    cli, data, engine, problems, theory = (
        sgsmooth.cli, sgsmooth.data, sgsmooth.engine, sgsmooth.problems, sgsmooth.theory
    )
    patches = Patches()

    def wrap(owner, attr, name, measure=None):
        patches.set(owner, attr, tracer.wrap(getattr(owner, attr), name, measure))

    for cls in (data.RegressionSampler, data.TwoClassGaussianSampler, data.SetSampler):
        wrap(cls, "draw_batch", "data.draw_batch", _batch_rows)
        wrap(cls, "draw", "data.draw")
        patches.set(cls, "__iter__", tracer.wrap_iter(cls.__iter__, "data.sample"))
    # every Gaussian variate is ndtri of uniform_open, looked up in data's globals
    wrap(data, "uniform_open", "data.uniform", _array_size)
    wrap(data, "ndtri", "data.ndtri", _array_size)
    wrap(data, "read_pgm", "data.read_pgm")
    wrap(data, "write_pgm", "cli.write")

    for cls in (problems.LassoProblem, problems.SvmSampleSet, problems.SvmProblem):
        wrap(cls, "instantaneous_subgradient", "problems.subgradient")
    wrap(problems.LassoProblem, "risk", "problems.risk")
    wrap(problems.LassoProblem, "true_subgradient", "problems.true_subgradient")
    wrap(problems.SvmSampleSet, "risk", "problems.risk", _set_rows(1))
    wrap(problems.SvmSampleSet, "true_subgradient", "problems.true_subgradient", _set_rows(2))
    wrap(problems.SvmSampleSet, "minimize", "problems.minimize",
         _minimize_rows(problems.SvmSampleSet.minimize))
    wrap(problems, "tv_subgradient_step", "problems.tv_step")
    wrap(problems.GrayImage, "__post_init__", "problems.gray_image")

    for attr in ("run_replications", "run", "average_trajectories", "smoothing_update"):
        wrap(engine, attr, f"engine.{attr}")
    for attr in ("estimate_lasso_a", "verify_subgradient_inequality",
                 "verify_affine_lipschitz", "verify_noise_moments",
                 "verify_strong_monotonicity", "fit_rate"):
        wrap(theory, attr, f"theory.{attr}")

    # curves.csv goes through the builtin open, summary.txt through Path.write_text
    patches.set(cli, "open", _TracedOpen(tracer, builtins.open))
    wrap(pathlib.Path, "write_text", "cli.write")
    return patches


def wrapper_cost_ns(calls=200_000):
    """Cost of one empty traced call over a plain call, in ns (median of 5)."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibrate")
    samples = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)

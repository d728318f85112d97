"""The benchmark's hooks still name callables of the program.

``bench/spans.py`` wraps public callables of ``sgsmooth`` by name, and each
workload in ``bench/workloads.py`` names the callables whose first call opens
its main phase.  Renaming or deleting one of them in ``src/`` breaks the
benchmark, so these tests load both files, without changing them, and check
the names against the program, and run the one reference computation that
calls into it.
"""

import importlib.util
import math
import sys
from pathlib import Path

import sgsmooth
import sgsmooth.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the benchmark's files
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_span_hooks_install_and_restore():
    spans = load_bench_module("spans")
    original = (sgsmooth.engine.run_replications, sgsmooth.data.SetSampler.draw_batch)
    spans.install(spans.Tracer(), sgsmooth).restore()
    assert (sgsmooth.engine.run_replications, sgsmooth.data.SetSampler.draw_batch) == original
    assert "open" not in vars(sgsmooth.cli)


def test_workload_boundaries_name_existing_callables(tmp_path):
    workloads = load_bench_module("workloads")
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(quick=True)
        work = tmp_path / name
        work.mkdir()
        wl.prepare(work, 1, sgsmooth)
        hooks = wl.boundaries()
        assert hooks, name
        for owner, attr in hooks:
            assert callable(getattr(owner, attr, None)), f"{name}: {attr}"


def test_lasso_flagship_reference_is_a_finite_positive_bound(tmp_path):
    # the criterion-1 bound that judges lasso-flagship builds its own
    # LassoProblem and reads trace, optimum() and estimate_lasso_a
    wl = load_bench_module("workloads").LassoFlagship(quick=True)
    wl.prepare(tmp_path, 11, sgsmooth)
    bound = wl.reference()
    assert math.isfinite(bound) and bound > 0.0

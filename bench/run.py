"""sgsmooth benchmark: closed-loop CLI requests, end-to-end times, traced layers.

    python3 bench/run.py --workload lasso-flagship --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``sgsmooth`` from its
``src/``.  One process sends one ``sgsmooth`` request at a time through
``sgsmooth.cli.main`` and sends the next only when the previous has returned,
until ``--seconds`` are used up.  ``--trace 0`` reports the end-to-end metrics
(medians over the requests, in reference seconds: see ``calibrate``);
``--trace 1`` reports the per-layer metrics of a
serial run traced from outside the program (see spans.py).  Every request's
outputs are checked; the last line of standard output is one JSON object.
``--workload all`` runs every workload, each in its own process.
See bench/README.md for the metrics and the reasons behind each workload.
"""

import os

# Held fixed for every run: two pool workers with threaded BLAS would share
# two cores.  Must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def declared_units():
    """Metric names and units, (end-to-end, per-layer), from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def load_program():
    """Import ``sgsmooth`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "sgsmooth" / "__init__.py").is_file():
        raise SystemExit(f"error: no sgsmooth sources under {src}")
    sys.path.insert(0, str(src))
    import sgsmooth
    import sgsmooth.cli

    if Path(sgsmooth.__file__).resolve().parent != (src / "sgsmooth").resolve():
        raise SystemExit(f"error: sgsmooth imported from {sgsmooth.__file__}, not {src}")
    return sgsmooth


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(quick):
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "mode": "quick smoke run, not comparable with full runs" if quick else "full",
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# Median time of one ``calibrate`` pass on the reference machine (see
# README.md); the end-to-end times are scaled to this speed.
CALIBRATION_S = 0.0880


def calibrate():
    """Seconds that one pass of a fixed kernel takes at the machine's current speed.

    The reference machine's speed drifts by up to 1.8x over tens of seconds, in
    CPU time as much as in wall time.  Each request is timed between two passes
    of this kernel, and its times are scaled by ``CALIBRATION_S`` over their
    mean.  The kernel owes nothing to sgsmooth, so a change to the program
    cannot move it.  Its three parts match the program's three kinds of work:
    interpreter loops, numpy calls on 100-vectors and passes over a whole image.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    v, w = numpy.ones(100), numpy.zeros(100)
    for _ in range(5_000):
        w = w - 0.001 * (numpy.sign(w) + v * (v @ w))
    image, out = numpy.ones((512, 768)), numpy.zeros((512, 768))
    for _ in range(15):
        out = numpy.sign(image - out) * 0.5 + out
    return time.perf_counter() - t0


class Boundary:
    """The one wrapper of untraced runs: time of the first main-phase call."""

    def __init__(self):
        self.t = None

    def wrap(self, fn):
        def marked(*args, **kwargs):
            if self.t is None:
                self.t = time.perf_counter()
            return fn(*args, **kwargs)

        return marked


def request(sg, wl, out, workers, tracer=None):
    """One closed-loop request: the workload's commands, in order, timed."""
    main = sg.cli.main
    if tracer is None:
        patches = spans.Patches()
    else:
        patches = spans.install(tracer, sg)
        main = tracer.wrap(main, "cli.main")
    boundary = Boundary()
    for owner, attr in wl.boundaries():
        patches.set(owner, attr, boundary.wrap(getattr(owner, attr)))
    shutil.rmtree(out, ignore_errors=True)
    rec = {"total_s": 0.0, "setup_s": 0.0, "command_s": [], "codes": [],
           "stdouts": [], "stderr": ""}
    try:
        for argv in wl.commands(out, workers):
            stdout, stderr = io.StringIO(), io.StringIO()
            boundary.t = None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = None
            t1 = time.perf_counter()
            rec["total_s"] += t1 - t0
            rec["command_s"].append(t1 - t0)
            rec["setup_s"] += (boundary.t if boundary.t is not None else t1) - t0
            rec["codes"].append(code)
            rec["stdouts"].append(stdout.getvalue())
            rec["stderr"] += stderr.getvalue()
            if boundary.t is None:
                rec["no_main_phase"] = True
    finally:
        patches.restore()
    rec["left_running"] = len(multiprocessing.active_children()) + threading.active_count() - 1
    rec["solve_s"] = rec["total_s"] - rec["setup_s"]
    path = wl.output_file(out)
    rec["output"] = path.read_bytes() if path is not None and path.exists() else None
    rec["obs"] = wl.observe(out, rec["stdouts"])
    return rec


def failures(rec, wl, ref, first_output):
    """Quality metrics of one request and the reasons it failed, if any."""
    reasons = [f"exit code {c}" for c in rec["codes"] if c != 0]
    if "Traceback" in rec["stderr"]:
        reasons.append("traceback on stderr")
    if rec.get("no_main_phase"):
        reasons.append("main phase never reached")
    if rec["left_running"]:
        # it would also slow the calibration pass that scales this request
        reasons.append("processes or threads left running after the command returned")
    quality, bad = wl.judge(rec["obs"], ref)
    reasons += bad
    values = [rec["total_s"], rec["setup_s"], rec["solve_s"], *quality.values()]
    if not all(math.isfinite(v) for v in values):
        reasons.append("non-finite value")
    if first_output is not None and rec["output"] != first_output:
        reasons.append("output bytes differ from the first request of the seed")
    return quality, reasons


def peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed_loop(seconds, step):
    """Call ``step`` until the next call would end past ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return len(durations)


def end_to_end(sg, wl, seconds, out, workers):
    recs, passes = [], [calibrate()]

    def step():
        recs.append(request(sg, wl, out, workers))
        passes.append(calibrate())

    timed_loop(seconds, step)
    rss = peak_rss_mb()  # read before the reference work below can raise it
    for rec, before, after in zip(recs, passes, passes[1:]):
        rec["scale"] = CALIBRATION_S / ((before + after) / 2)
    ref = wl.reference()
    judged = [failures(r, wl, ref, recs[0]["output"]) for r in recs]
    # times of failed requests say nothing about the program; keep them only
    # when every request failed, so that a failed run still reports numbers
    good = [r for r, (_, reasons) in zip(recs, judged) if not reasons] or recs
    keys = ("total_s", "setup_s", "solve_s")
    metrics = {key: statistics.median(r[key] * r["scale"] for r in good) for key in keys}
    metrics["samples_per_s"] = statistics.median(
        wl.samples / (r["solve_s"] * r["scale"]) if r["solve_s"] > 0 else 0.0 for r in good)
    metrics["peak_rss_mb"] = rss
    metrics["command_s"] = [statistics.median(t) for t in zip(*(r["command_s"] for r in good))]
    metrics["wall"] = {key: statistics.median(r[key] for r in good) for key in keys}
    metrics["wall"]["calibration_s"] = statistics.median(passes)
    return metrics, judged


def layer_metrics(tr, traced, serial, parallel, workers):
    """Per-layer numbers from one traced request and its untraced twins."""
    total = tr.total
    count = lambda name: tr.total(name, "count")

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    samples = count("data.sample") + count("data.draw")
    uniforms, normals = tr.total("data.uniform", "items"), tr.total("data.ndtri", "items")
    iterations = tr.under("engine.run", "data.sample", "count")
    record_risks = tr.under("engine.run", "problems.risk", "count")
    run_self = sum(n.self_ns for n in tr.nodes("engine.run"))
    set_rows = sum(tr.total(n, "items") for n in
                   ("problems.risk", "problems.true_subgradient", "problems.minimize"))
    set_bytes = sum(tr.total(n, "nbytes") for n in
                    ("problems.risk", "problems.true_subgradient", "problems.minimize"))
    m = {
        "data.sample_ns": per(total("data.sample") + total("data.draw"), samples),
        "data.samples": samples,
        "data.draw_batch_calls": count("data.draw_batch"),
        "data.normals": normals,
        "data.normal_ns": per(total("data.ndtri"), normals)
        + per(total("data.uniform"), uniforms),
        "problems.subgradient_ns": per(total("problems.subgradient"),
                                       count("problems.subgradient")),
        "problems.subgradient_calls": count("problems.subgradient"),
        "problems.risk_calls": count("problems.risk"),
        "problems.risk_s": total("problems.risk") / 1e9,
        "problems.true_subgradient_calls": count("problems.true_subgradient"),
        "problems.true_subgradient_s": total("problems.true_subgradient") / 1e9,
        "problems.set_rows": set_rows,
        "problems.set_bytes": set_bytes,
        "problems.minimize_s": total("problems.minimize") / 1e9,
        "problems.tv_step_ms": per(total("problems.tv_step"), count("problems.tv_step"), 1e-6),
        "problems.gray_images": count("problems.gray_image"),
        "engine.step_ns": per(run_self, iterations),
        # each record evaluates the oracle risk at the raw and the smoothed iterate
        "engine.record_ns": per(tr.under("engine.run", "problems.risk"), record_risks / 2),
        "engine.records": record_risks // 2,
        "engine.replication_s": per(total("engine.run"), count("engine.run"), 1e-9),
        "engine.parallel_efficiency": per(serial["solve_s"], workers * parallel["solve_s"])
        if parallel is not None else 0.0,
        "engine.smoothing_update_ms": per(total("engine.smoothing_update"),
                                          count("engine.smoothing_update"), 1e-6),
        "engine.average_s": total("engine.average_trajectories") / 1e9,
        "theory.estimate_lasso_a_s": total("theory.estimate_lasso_a") / 1e9,
        "theory.subgradient_inequality_s": total("theory.verify_subgradient_inequality") / 1e9,
        "theory.affine_lipschitz_s": total("theory.verify_affine_lipschitz") / 1e9,
        "theory.noise_moments_s": total("theory.verify_noise_moments") / 1e9,
        "theory.strong_monotonicity_s": total("theory.verify_strong_monotonicity") / 1e9,
        "theory.fit_rate_s": total("theory.fit_rate") / 1e9,
        "cli.write_s": total("cli.write") / 1e9,
        "trace.overhead": per(traced["solve_s"], serial["solve_s"]),
    }
    return m


def traced_cycles(sg, wl, seconds, out, workers, trace_path):
    """Untraced parallel, untraced serial and traced serial requests, repeated."""
    cycles = []

    def cycle():
        parallel = request(sg, wl, out, workers) if wl.stream else None
        serial = request(sg, wl, out, 1)
        tracer = spans.Tracer()
        traced = request(sg, wl, out, 1, tracer=tracer)
        tracer.check()
        cycles.append((parallel, serial, traced, tracer))

    timed_loop(seconds, cycle)
    wrapper_ns = spans.wrapper_cost_ns()
    ref = wl.reference()
    # every request of the seed must write the bytes of the first, parallel one
    first = (cycles[0][0] or cycles[0][1])["output"]
    per_cycle, judged = [], []
    for parallel, serial, traced, tracer in cycles:
        m = layer_metrics(tracer, traced, serial, parallel, workers)
        m["trace.wrapper_ns"] = wrapper_ns
        per_cycle.append(m)
        for rec in (parallel, serial, traced):
            if rec is not None:
                judged.append(failures(rec, wl, ref, first))
    metrics = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    trace_path.write_text(json.dumps({
        "workload": wl.name, "seed": wl.seed, "metrics": metrics,
        "spans": cycles[-1][3].table(),
    }, indent=1) + "\n", encoding="ascii")
    return metrics, judged


def run_workload(sg, name, seed, seconds, trace, quick, out_root):
    wl = workloads.WORKLOADS[name](quick=quick)
    work = out_root / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workers = len(os.sched_getaffinity(0))
    try:
        wl.prepare(work, seed, sg)
        out = work / "out"
        if trace:
            trace_path = out_root / f"trace-{name}-{seed}.json"
            metrics, judged = traced_cycles(sg, wl, seconds, out, workers, trace_path)
            units = declared_units()[1]
        else:
            metrics, judged = end_to_end(sg, wl, seconds, out, workers)
            units = declared_units()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [reasons for _, reasons in judged if reasons]
    command_s = metrics.pop("command_s", None)
    wall = metrics.pop("wall", None)
    keys = sorted({key for q, _ in judged for key in q})
    quality = {key: statistics.median(q[key] for q, _ in judged if key in q) for key in keys}
    return {
        "workload": name,
        # a failed run can leave a non-finite number, which JSON cannot carry
        "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else 0.0,
                        "unit": units[k]} for k in units},
        "quality": quality,
        "command_s": command_s,
        "wall": wall,
        "attempted": len(judged),
        "failed": len(failed),
        "reasons": sorted({r for rs in failed for r in rs}),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run on tiny inputs; labelled, never compared")
    return parser.parse_args(argv)


def report(res):
    """Human-readable lines for one workload result."""
    print(f"{res['workload']}: attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac={res['failed'] / res['attempted']:.3g} (1)")
    for key, m in res["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in res["quality"].items():
        unit = "dB" if key == "psnr_gain_db" else "(1)"
        print(f"  {key} = {value:.6g} {unit}")
    if res["wall"]:
        print("  unscaled wall-clock medians: " + ", ".join(
            f"{key} {t:.4g} s" for key, t in res["wall"].items()))
    if res["command_s"] and len(res["command_s"]) > 1:
        print("  per command (wall clock): " + ", ".join(f"{t:.4g} s" for t in res["command_s"]))
    for reason in res["reasons"]:
        print(f"  FAILED: {reason}")


def run_all(ns):
    """Every workload in its own process, so each reports its own peak memory."""
    failed = attempted = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
        proc = subprocess.run(argv + ["--quick"] * ns.quick, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), end="\n" if len(lines) > 1 else "")
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"attempted": 1, "failed": 1}
            print(f"{name}: exit code {proc.returncode}, no result")
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0


def main(argv=None):
    ns = parse_args(argv)
    sg = load_program()
    if ns.workload == "all":
        return run_all(ns)
    env = environment(ns.quick)
    print("environment " + json.dumps(env))
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    res = run_workload(sg, ns.workload, ns.seed, ns.seconds, ns.trace, ns.quick, out_root)
    report(res)
    with open(out_root / "results.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps({"seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
                             "environment": env, **res}) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: span arithmetic, failure counting, smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Integer clock advanced by hand, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.tick(5)

    def middle():
        clock.tick(2)
        leaf()
        clock.tick(3)
        leaf()

    def top():
        clock.tick(1)
        middle()
        leaf()
        clock.tick(4)

    leaf, middle = tracer.wrap(leaf, "leaf"), tracer.wrap(middle, "middle")
    tracer.wrap(top, "top")()

    (top_node,) = tracer.nodes("top")
    (mid_node,) = tracer.nodes("middle")
    assert [n.path() for n in tracer.nodes("leaf")] == ["top/middle/leaf", "top/leaf"]
    assert (mid_node.total, mid_node.self_ns, mid_node.count) == (15, 5, 1)
    assert (top_node.total, top_node.self_ns) == (25, 5)
    assert tracer.total("leaf") == 15 and tracer.total("leaf", "count") == 3
    assert tracer.under("middle", "leaf") == 10
    # children plus self rebuild every parent
    tracer.check()
    for node in top_node.walk():
        assert node.self_ns + sum(k.total for k in node.children.values()) == node.total


def test_traced_iterator_and_broken_sum_is_caught():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def numbers(_):
        for k in range(3):
            clock.tick(7)
            yield k

    assert list(tracer.wrap_iter(numbers, "item")(None)) == [0, 1, 2]
    (node,) = tracer.nodes("item")
    assert (node.count, node.total) == (4, 21)  # three items and the final StopIteration
    node.child = 1  # a child time with no child span behind it
    with pytest.raises(AssertionError):
        tracer.check()


def test_patches_restore_the_program():
    sg = run.load_program()
    original = (sg.engine.run, sg.data.SetSampler.__iter__, sg.problems.GrayImage.__post_init__)
    patches = spans.install(spans.Tracer(), sg)
    assert sg.engine.run is not original[0] and "open" in vars(sg.cli)
    patches.restore()
    assert (sg.engine.run, sg.data.SetSampler.__iter__,
            sg.problems.GrayImage.__post_init__) == original
    assert "open" not in vars(sg.cli)


class BrokenLasso(workloads.LassoFlagship):
    """The quick LASSO workload with a config the program must reject."""

    name = "broken-lasso"

    def prepare(self, work, seed, sgsmooth):
        super().prepare(work, seed, sgsmooth)
        self.config_path.write_text(
            self.config_path.read_text().replace("mu = 0.001", "mu = -1"))


def test_forced_nonzero_exit_counts_as_failure(tmp_path, monkeypatch):
    sg = run.load_program()
    monkeypatch.setitem(workloads.WORKLOADS, BrokenLasso.name, BrokenLasso)
    res = run.run_workload(sg, BrokenLasso.name, seed=3, seconds=0.1, trace=0,
                           quick=True, out_root=tmp_path)
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert {"exit code 2", "main phase never reached"} <= set(res["reasons"])


def test_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # a machine at half the reference speed: each calibration pass takes twice as long
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CALIBRATION_S)
    sg = run.load_program()
    res = run.run_workload(sg, "lasso-flagship", seed=3, seconds=0.1, trace=0,
                           quick=True, out_root=tmp_path)
    assert res["failed"] == 0
    for key in ("total_s", "setup_s", "solve_s"):
        assert res["metrics"][key]["value"] == pytest.approx(res["wall"][key] / 2)
    assert res["wall"]["calibration_s"] == 2 * run.CALIBRATION_S


def test_work_left_running_counts_as_failure(tmp_path, monkeypatch):
    sg = run.load_program()
    stop, real_main = threading.Event(), sg.cli.main

    def main_leaving_a_thread(argv):
        threading.Thread(target=stop.wait).start()
        return real_main(argv)

    monkeypatch.setattr(sg.cli, "main", main_leaving_a_thread)
    try:
        res = run.run_workload(sg, "lasso-flagship", seed=3, seconds=0.1, trace=0,
                               quick=True, out_root=tmp_path)
    finally:
        stop.set()
    assert res["failed"] == res["attempted"]
    assert "processes or threads left running after the command returned" in res["reasons"]


def test_quick_smoke_run_is_labelled_and_correct(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(HERE, checkout / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE.parent / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", checkout)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lasso-flagship", "--seed", "5",
         "--seconds", "1", "--trace", "1", "--quick"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "quick smoke run" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_units()[1])
    assert result["metrics"]["problems.subgradient_calls"]["value"] == 2 * 10000


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tv-denoise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verify_fail_is_named_with_its_suite():
    wl = workloads.VerifySuites()
    wl.expected_checks = 9
    lasso = "".join(f"PASS {c}: ok\n" for c in (
        "subgradient-inequality", "affine-lipschitz", "noise-zero-mean",
        "noise-variance: worst ratio 0.773", "strong-monotonicity"))
    svm = ("PASS subgradient-inequality: ok\nPASS affine-lipschitz: ok\n"
           "FAIL noise-zero-mean: componentwise |mean| <= 3 stderr\n"
           "PASS noise-variance: worst ratio 0.156\n")
    quality, reasons = wl.judge({"stdouts": [lasso, svm]}, None)
    assert reasons == ["FAIL svm noise-zero-mean", "8/9 checks passed"]
    assert quality == {"verify_worst_ratio": 0.773}

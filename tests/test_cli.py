import contextlib
import functools
import io
import math
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgsmooth import cli, data, engine, problems, theory
from sgsmooth.errors import NumericError
from sgsmooth.problems import GrayImage
from test_engine import FailingSampler
from test_problems import tv_sign_sum_reference

REPO = Path(__file__).resolve().parent.parent


LASSO_QUICK = """
[problem]
kind = lasso
dim = 10
delta = 0.002
noise_var = 0.01
w_true = 0:1.0 1:-1.0
a_mc_samples = 20000

[run]
mu = 0.001
kappa = 0.999
iterations = {iterations}
record_stride = 200
seed = 5
replications = {replications}

[verify]
pairs = 2000
noise_samples = 4000
probes = 3

[output]
dir = {out}
"""

SVM_QUICK = """
[problem]
kind = svm
rho = 0.05
mean = 0.8,0.4
cov_scale = 1.0
prior_pos = 0.5
train_size = 4000
oracle_iterations = 4000

[run]
mu = 0.01
kappa = auto
iterations = {iterations}
record_stride = 500
seed = 5
replications = 2

[verify]
pairs = 1500
noise_samples = 4000
probes = 3

[output]
dir = {out}
"""


def write_config(tmp_path, text, **kw):
    path = tmp_path / "exp.ini"
    path.write_text(text.format(**kw))
    return path


# ---------- run ----------


def test_run_zero_iterations_writes_header_only(tmp_path, capsys):
    cfg = write_config(
        tmp_path, LASSO_QUICK, iterations=0, replications=1, out=tmp_path / "out"
    )
    assert cli.main(["run", "--config", str(cfg)]) == 0
    csv_text = (tmp_path / "out" / "curves.csv").read_text()
    assert csv_text == cli.CSV_HEADER + "\n"
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "constants[" in summary and "eta=" in summary


def test_run_lasso_quick_stays_below_bound_column(tmp_path):
    cfg = write_config(
        tmp_path, LASSO_QUICK, iterations=15000, replications=3, out=tmp_path / "out"
    )
    assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == 0
    lines = (tmp_path / "out" / "curves.csv").read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    last = lines[-1].split(",")
    smoothed, bound = float(last[2]), float(last[4])
    assert 0.0 <= smoothed <= bound


def test_run_prints_the_final_smoothed_excess_risk(tmp_path, capsys):
    cfg = write_config(
        tmp_path, LASSO_QUICK, iterations=2000, replications=1, out=tmp_path / "out"
    )
    assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert printed.startswith("final smoothed excess risk = ")
    assert printed in summary
    assert any(line.startswith("finite-horizon bound") for line in summary)


def test_run_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(
        tmp_path, LASSO_QUICK, iterations=4000, replications=2, out=tmp_path / "unused"
    )
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_b), "--workers", "2"]) == 0
    assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()


@pytest.mark.parametrize("workers", ["-3", "-1" + "0" * 400])
def test_run_negative_workers_is_config_error(tmp_path, capsys, workers):
    cfg = write_config(
        tmp_path, LASSO_QUICK, iterations=200, replications=1, out=tmp_path / "out"
    )
    assert cli.main(["run", "--config", str(cfg), f"--workers={workers}"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--workers" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@contextlib.contextmanager
def runtime_warnings_raise():
    # forked pool workers inherit the filter, so their warnings raise too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_lasso_divergence_is_property_failure_without_warnings(tmp_path, capsys, workers):
    # M = 100 at mu = 0.5 overflows within the first block
    text = LASSO_QUICK
    for old, new in (("dim = 10", "dim = 100"), ("mu = 0.001", "mu = 0.5"),
                     ("kappa = 0.999", "kappa = 0.9"), ("record_stride = 200", "record_stride = 500")):
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text, iterations=5000, replications=2, out=tmp_path / "out")
    with runtime_warnings_raise():
        rc = cli.main(["run", "--config", str(cfg), "--workers", workers])
    assert rc == cli.EXIT_PROPERTY
    err = capsys.readouterr().err
    assert "diverged" in err and "Traceback" not in err


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_run_huge_replications_is_config_error(tmp_path, capsys, monkeypatch, workers):
    # 10**15 rows of dim 2 cannot be allocated, so this fails at once:
    # before any recorder or sampler is made or any process starts.  The
    # stand-ins raise on their first call, so per-row state built too early
    # fails the test instead of filling memory.
    def refused(what):
        def stand_in(*args, **kwargs):
            raise AssertionError(f"{what} was made before the buffers failed")
        return stand_in

    monkeypatch.setattr(data, "make_sampler", refused("a sampler"))
    monkeypatch.setattr(engine, "_Recorder", refused("a recorder"))
    monkeypatch.setattr(engine._FORK, "Process", refused("a sampling process"))
    text = LASSO_QUICK.replace("dim = 10", "dim = 2")
    cfg = write_config(tmp_path, text, iterations=5000, replications=10**15, out=tmp_path / "out")
    assert cli.main(["run", "--config", str(cfg), "--workers", workers]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "replications" in err and "too large" in err and "Traceback" not in err


def shared_memory_names():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class DyingSampler(FailingSampler):
    """A :class:`FailingSampler` whose bad draw, in a forked process, ends
    that process at once, with no word to its parent."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pid = os.getpid()

    def draw_batch(self, n):
        if self.draws_left == 1 and os.getpid() != self.pid:
            os._exit(1)
        return super().draw_batch(n)


# outcome: (exit code, message on fd 2)
RUN_OUTCOMES = {
    "finishes": (cli.EXIT_OK, ""),
    # the records' risk overflows in the stepper
    "stepper-diverges": (cli.EXIT_PROPERTY, "overflow encountered in matmul: "
                                            "iterate diverged in iterations 4609..5120"),
    # the fourth draw of replication 0, in the sampling process or in the
    # stepper's own draw, overflows
    "draw-diverges": (cli.EXIT_PROPERTY, "overflow encountered in multiply: "
                                         "iterate diverged in iterations 1537..2048"),
    # the sampling process ends in the fourth draw of replication 1
    "sampler-dies": (cli.EXIT_IO, "a sampling process ended (exit code 1) "
                                  "before iterations 1537..2048 were drawn"),
}


# the replications whose samples the stepper draws: none, so the sampling
# process draws both, or the first, so it draws the second meanwhile
RUN_PLANS = {
    "stepper-and-sampler": 0,
    "stepper-draws-one": 1,
}


@pytest.mark.parametrize("plan", list(RUN_PLANS))
@pytest.mark.parametrize("outcome", list(RUN_OUTCOMES))
def test_run_with_two_workers_leaves_nothing_running(tmp_path, capfd, monkeypatch, outcome,
                                                     plan):
    # the benchmark counts a request that leaves a process or a thread
    # running as failed; a forked process's error or end reaches the parent
    text = LASSO_QUICK
    if outcome == "stepper-diverges":
        text = text.replace("mu = 0.001", "mu = 0.25").replace("kappa = 0.999", "kappa = 0.9")
    if outcome == "draw-diverges":
        monkeypatch.setattr(data, "make_sampler",
                            functools.partial(FailingSampler, data.make_sampler, 5, 4))
    if outcome == "sampler-dies":
        monkeypatch.setattr(data, "make_sampler",
                            functools.partial(DyingSampler, data.make_sampler, 6, 4))
    started = []
    real_process = engine._FORK.Process
    monkeypatch.setattr(engine._FORK, "Process",
                        lambda *args, **kwargs: started.append(1) or real_process(*args, **kwargs))
    monkeypatch.setattr(engine, "_stepper_rows", lambda *args: RUN_PLANS[plan])
    cfg = write_config(tmp_path, text, iterations=8000, replications=2, out=tmp_path / "out")
    threads, segments = threading.active_count(), shared_memory_names()
    with runtime_warnings_raise():
        rc = cli.main(["run", "--config", str(cfg), "--workers", "2"])
    assert started == [1]
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    assert shared_memory_names() == segments
    code, message = RUN_OUTCOMES[outcome]
    assert rc == code and capfd.readouterr().err == (f"error: {message}\n" if message else "")
    if message:
        assert not (tmp_path / "out" / "curves.csv").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_w_star_norm_overflow_is_property_failure(tmp_path, capsys, command):
    # ||w_star||^2 overflows; with no iterations nothing else would
    cfg = write_config(tmp_path, LASSO_QUICK.replace("w_true = 0:1.0", "w_true = 0:1e200"),
                       iterations=0, replications=2, out=tmp_path / "out")
    with runtime_warnings_raise():
        rc = cli.main([command, "--config", str(cfg)])
    assert rc == cli.EXIT_PROPERTY
    captured = capsys.readouterr()
    assert captured.err == "error: overflow encountered in matmul: lasso setup diverged\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_svm_quick(tmp_path):
    cfg = write_config(
        tmp_path, SVM_QUICK, iterations=4000, out=tmp_path / "out"
    )
    assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "tight steady-state excess-risk bound" in summary


def test_run_invalid_config_names_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nkind = lasso\ndim = 10\ndelta = -3\nw_true = 0:1\n"
                    "[run]\nmu = 0.01\n")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "delta" in err


def test_run_missing_config_file_is_io_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == cli.EXIT_IO


def kappa_argv(tmp_path, command, setting):
    # run with [run] kappa = setting, or denoise with --kappa setting
    out = tmp_path / "out"
    if command == "run":
        text = LASSO_QUICK.replace("kappa = 0.999", f"kappa = {setting}")
        cfg = write_config(tmp_path, text, iterations=200, replications=1, out=out)
        return ["run", "--config", str(cfg), "--out", str(out)]
    return ["denoise", "--clean", str(piecewise_image(tmp_path)), "--noise-std", "0.1",
            "--iterations", "2", f"--kappa={setting}", "--out", str(out)]


# one rule settles kappa for every command: auto, or a number in [0, 1)
@pytest.mark.parametrize("command, name", [("run", "[run] kappa"), ("denoise", "--kappa")],
                         ids=["run", "denoise"])
@pytest.mark.parametrize("setting, ok", [
    (" auto ", True), ("0", True), ("0.5", True),
    ("1", False), ("-0.1", False), ("nan", False), ("inf", False), ("abc", False),
], ids=["spaced-auto", "0", "0.5", "1", "-0.1", "nan", "inf", "abc"])
def test_kappa_setting_follows_one_rule(tmp_path, capsys, command, name, setting, ok):
    rc = cli.main(kappa_argv(tmp_path, command, setting))
    captured = capsys.readouterr()
    if ok:
        assert rc == cli.EXIT_OK
        if command == "run":
            shown = (tmp_path / "out" / "summary.txt").read_text()
            alpha = re.search(r"rates\[gaussian-modulus\]: alpha=(\S+)", shown)[1]
        else:
            shown, alpha = captured.out, repr(cli._tv_alpha(0.002))
        kappa = alpha if setting.strip() == "auto" else repr(float(setting))
        assert re.search(rf"kappa={re.escape(kappa)}\b", shown)
    else:
        assert rc == cli.EXIT_CONFIG
        assert name in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()


def auto_kappa_argv(tmp_path, argv, run_mu):
    # argv with its inputs and --out: run at [run] mu = run_mu, denoise or
    # svm-train, each with kappa auto
    out = tmp_path / "out"
    if argv[0] == "run":
        text = LASSO_QUICK.replace("kappa = 0.999", "kappa = auto").replace("mu = 0.001",
                                                                          f"mu = {run_mu}")
        argv = argv + ["--config", str(write_config(tmp_path, text, iterations=200,
                                                    replications=1, out=out))]
    elif argv[0] == "denoise":
        argv = argv + ["--clean", str(piecewise_image(tmp_path)), "--noise-std", "0.1"]
    else:
        path = tmp_path / "toy.libsvm"
        path.write_text("+1 1:1.0\n-1 1:-1.0\n")
        argv = argv + ["--train", str(path)]
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("argv, step", [
    (["run"], "[run] mu"),
    (["denoise", "--mu", "0.6"], "--mu"),
    (["svm-train", "--mu", "2", "--rho", "1"], "mu*rho"),
], ids=["run", "denoise", "svm-train"])
def test_auto_kappa_above_the_step_size_ceiling_is_config_error(tmp_path, capsys, argv, step):
    assert cli.main(auto_kappa_argv(tmp_path, argv, 10)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert step in err and "ceiling" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, step", [
    (["run"], "[run] mu = 1e-300"),
    (["denoise", "--mu", "1e-320"], "--mu 1e-320"),
    (["svm-train", "--mu", "1e-300", "--rho", "1e-300"], "mu*rho = 0"),
], ids=["run", "denoise", "svm-train"])
def test_auto_kappa_of_a_step_too_small_to_move_alpha_is_config_error(tmp_path, capsys, argv,
                                                                       step):
    # alpha rounds to exactly 1: the step is not above the ceiling, but at it
    # or too small to take the rate below 1
    assert cli.main(auto_kappa_argv(tmp_path, argv, 1e-300)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{step} is at the step-size ceiling or too small to move alpha below 1" in err
    assert "alpha = 1," in err and "above" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("old, new, name", [
    ("kappa = 0.999", "kapa = 0.5", "[run] kapa"),
    ("probes = 3", "probe = 3", "[verify] probe"),
    ("[output]", "[ouput]", "[ouput] dir"),
], ids=["run", "verify", "section"])
def test_unknown_config_key_is_config_error(tmp_path, capsys, command, old, new, name):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, LASSO_QUICK.replace(old, new), iterations=200,
                       replications=1, out=out)
    argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{name} is not a known key" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(REPO.glob("configs/*.ini")), ids=lambda p: p.name)
def test_shipped_configs_carry_only_known_keys(path):
    cli._load_config(path)


def test_readme_config_reference_lists_the_known_keys():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \|", readme, flags=re.M)
    assert sorted(rows) == sorted((sec, key) for sec, keys in cli._KNOWN_KEYS.items()
                                  for key in keys)


LASSO_NO_RUN = LASSO_QUICK.format(iterations=0, replications=1, out="unused")


@pytest.mark.parametrize("text", [
    b"kind = lasso\n",  # no section header
    LASSO_NO_RUN.encode() + b"[problem]\nkind = svm\n",  # repeated section
    LASSO_NO_RUN.replace("kind = lasso", "kind lasso").encode(),  # no '='
    LASSO_NO_RUN.encode() + b"# \xff\n",  # not UTF-8
    LASSO_NO_RUN.replace("delta = 0.002", "delta = 5%").encode(),  # bad interpolation
], ids=["no-header", "duplicate-section", "no-equals", "non-utf8", "interpolation"])
def test_run_malformed_ini_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("template, old, new", [
    (LASSO_QUICK, "noise_var = 0.01", "noise_var = nan"),
    (LASSO_QUICK, "noise_var = 0.01", "noise_var = -1"),
    (LASSO_QUICK, "delta = 0.002", "delta = nan"),
    (LASSO_QUICK, "w_true = 0:1.0 1:-1.0", "w_true = 0:nan"),
    (LASSO_QUICK, "mu = 0.001", "mu = nan"),
    (SVM_QUICK, "mean = 0.8,0.4", "mean = 1,nan"),
    (SVM_QUICK, "rho = 0.05", "rho = nan"),
    (SVM_QUICK, "prior_pos = 0.5", "prior_pos = nan"),
    (SVM_QUICK, "prior_pos = 0.5", "prior_pos = 2"),
    (SVM_QUICK, "cov_scale = 1.0", "cov_scale = inf"),
])
def test_run_non_finite_or_out_of_range_number_is_config_error(tmp_path, capsys,
                                                              template, old, new):
    assert old in template
    cfg = write_config(tmp_path, template.replace(old, new), iterations=1000,
                       replications=1, out=tmp_path / "out")
    assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert new.split(" =")[0] in err and "Traceback" not in err
    assert not (tmp_path / "out" / "curves.csv").exists()


LASSO_TINY = """
[problem]
kind = lasso
dim = 3
delta = 0.01
noise_var = 0.01
w_true = 0:1.0 1:-0.5
a_mc_samples = 1000

[run]
mu = 0.01
kappa = auto
iterations = 200
record_stride = 100
seed = 3
replications = 1
"""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz")


def run_config_bytes(work, text):
    # an uncaught exception fails the test; stderr must not carry one either
    path = work / "fuzz.ini"
    path.write_bytes(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", str(path), "--workers", "1",
                       "--out", str(work / "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_PROPERTY, cli.EXIT_CONFIG, cli.EXIT_IO)
    assert "Traceback" not in err.getvalue()


# one line of any encodable text: no line break, so no size key can be added
ONE_LINE = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"))


@settings(max_examples=150, deadline=None, database=None)
@given(key=st.sampled_from(["delta", "noise_var", "mu", "kappa"]),
       value=st.one_of(ONE_LINE, st.floats().map(repr)))
@example(key="delta", value="3.870500758797579e+153")  # d = 2 delta sqrt(3); d**2 overflows
def test_run_config_value_fuzz_exits_with_documented_code(fuzz_dir, key, value):
    old = next(line for line in LASSO_TINY.splitlines() if line.startswith(key + " ="))
    run_config_bytes(fuzz_dir, LASSO_TINY.replace(old, f"{key} = {value}").encode())


SVM_TINY = """
[problem]
kind = svm
rho = 0.05
mean = 0.8,0.4
cov_scale = 1.0
prior_pos = 0.5
train_size = 200
oracle_iterations = 500

[run]
mu = 0.01
kappa = auto
iterations = 200
record_stride = 100
seed = 3
replications = 2
"""


@settings(max_examples=150, deadline=None, database=None)
@given(key=st.sampled_from(["mean", "cov_scale", "rho"]),
       value=st.one_of(ONE_LINE, st.lists(st.floats().map(repr), min_size=1, max_size=3)
                       .map(",".join)))
@example(key="mean", value="1e200,0.4")  # the oracle's margins overflow during setup
@example(key="cov_scale", value="1e300")  # the replications' spread overflows
def test_run_svm_config_value_fuzz_exits_with_documented_code(fuzz_dir, key, value):
    old = next(line for line in SVM_TINY.splitlines() if line.startswith(key + " ="))
    with runtime_warnings_raise():
        run_config_bytes(fuzz_dir, SVM_TINY.replace(old, f"{key} = {value}").encode())


@settings(max_examples=150, deadline=None, database=None)
@given(text=st.one_of(st.binary(), st.binary().map(lambda tail: LASSO_TINY.encode() + tail)))
def test_run_config_bytes_fuzz_exits_with_documented_code(fuzz_dir, text):
    # every size key is already set, so an appended copy is a duplicate (exit 2)
    run_config_bytes(fuzz_dir, text)


# 10**15 floats are 7 PiB: far past any address space, so numpy fails at once
HUGE = "1000000000000000"


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("template, old", [
    (LASSO_TINY, "dim = 3"),
    (SVM_QUICK.format(iterations=200, out="unused"), "train_size = 4000"),
], ids=["dim", "train_size"])
def test_size_too_large_to_allocate_is_config_error(tmp_path, capsys, command, template, old):
    key = old.split(" =")[0]
    path = tmp_path / "huge.ini"
    path.write_text(template.replace(old, f"{key} = {HUGE}"))
    argv = [command, "--config", str(path)] + (["--out", str(tmp_path / "out")]
                                              if command == "run" else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "too large" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# probes: the offsets are drawn in one call, so a count past the address
# space fails at once rather than building probes one at a time
@pytest.mark.parametrize("key", ["pairs", "noise_samples", "probes"])
def test_verify_sample_too_large_to_allocate_is_config_error(tmp_path, capsys, key):
    text = re.sub(rf"^{key} = \d+$", f"{key} = {HUGE}", LASSO_QUICK, flags=re.M)
    cfg = write_config(tmp_path, text, iterations=200, replications=1, out=tmp_path / "out")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"[verify] {key} = {HUGE} is too large" in err and "Traceback" not in err


# 10**20 is past numpy's index range, so numpy refuses it with ValueError or
# OverflowError, not MemoryError; so does 2**63 as a LIBSVM feature index
PAST_INDEX = str(10**20)


@pytest.mark.parametrize("command, template, key", [
    ("run", LASSO_QUICK, "dim"),
    ("run", SVM_QUICK, "train_size"),
    ("run", LASSO_QUICK, "replications"),
    ("verify", LASSO_QUICK, "pairs"),
    ("verify", LASSO_QUICK, "probes"),
    ("verify", LASSO_QUICK, "noise_samples"),
    ("svm-train", None, "feature index"),
], ids=["dim", "train_size", "replications", "pairs", "probes", "noise_samples", "libsvm-index"])
def test_size_past_numpys_index_range_exits_with_documented_code(tmp_path, capsys, command,
                                                                  template, key):
    if template is None:
        path = tmp_path / "huge.libsvm"
        path.write_text(f"+1 1:0.5 {2**63}:1\n")
        argv, code = ["svm-train", "--train", str(path)], cli.EXIT_IO
    else:
        text = template.format(iterations=200, replications=1, out="unused")
        path = tmp_path / "huge.ini"
        path.write_text(re.sub(rf"^{key} = \d+$", f"{key} = {PAST_INDEX}", text, flags=re.M))
        argv, code = [command, "--config", str(path)], cli.EXIT_CONFIG
    if command != "verify":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "too large" in err and "Traceback" not in err
    if template is not None:
        assert f"{key} = {PAST_INDEX}" in path.read_text()
        assert (key if key in ("dim", "train_size") else f"{key} = {PAST_INDEX}") in err
    assert not list((tmp_path / "out").glob("*"))


def test_run_summary_does_not_depend_on_the_worker_count(tmp_path):
    cfg = write_config(tmp_path, LASSO_QUICK, iterations=400, replications=1,
                       out=tmp_path / "unused")
    summaries = []
    for workers in ("1", "2", "8"):
        out = tmp_path / f"out{workers}"
        assert cli.main(["run", "--config", str(cfg), "--workers", workers, "--out", str(out)]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-1].startswith("elapsed_seconds = ")
        summaries.append(lines[:-1])
    # one replication runs as one block whatever --workers asks for
    assert summaries[0] == summaries[1] == summaries[2]
    assert any(line.endswith(" replications=1 workers=1") for line in summaries[0])


@pytest.mark.parametrize("command", ["run", "verify"])
def test_lasso_commands_take_the_exact_spectral_modulus(tmp_path, monkeypatch, command):
    def no_estimate(*args, **kwargs):
        raise AssertionError("estimate_lasso_a was called")

    monkeypatch.setattr(theory, "estimate_lasso_a", no_estimate)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, LASSO_QUICK, iterations=400, replications=1, out=out)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_OK
    if command == "run":
        p = problems.LassoProblem(delta=0.002, w_true=np.zeros(10), cov_h=np.eye(10),
                                  noise_var=0.01)
        a = theory.lasso_spectral_noise_modulus(p)
        summary = (out / "summary.txt").read_text().splitlines()
        assert f"noise modulus a (exact spectral) = {a!r}" in summary


def test_run_svm_summary_reports_oracle_certificate(tmp_path):
    cfg = write_config(tmp_path, SVM_QUICK, iterations=0, out=tmp_path / "out")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    line = next(l for l in summary.splitlines() if l.startswith("oracle duality gap = "))
    gap = float(line.split()[4])
    assert line.endswith("of at most 4000 iterations (certified)")
    assert 0.0 <= gap <= problems.ORACLE_GAP_TOL
    # the exact prefixes other tools parse stay in place
    assert "\n||w_star||^2 = " in summary and "\nempirical Tr(R_h) = " in summary


@pytest.mark.parametrize("command", ["run", "verify"])
def test_setup_overflow_is_property_failure(tmp_path, capsys, command):
    # the oracle's first margin pass after one step overflows
    cfg = write_config(tmp_path, SVM_QUICK.replace("mean = 0.8,0.4", "mean = 1e200,0.4"),
                       iterations=1000, out=tmp_path / "out")
    with runtime_warnings_raise():
        rc = cli.main([command, "--config", str(cfg)])
    assert rc == cli.EXIT_PROPERTY
    captured = capsys.readouterr()
    assert captured.err == "error: overflow encountered in dot: svm setup diverged\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_averaging_overflow_is_property_failure(tmp_path, capsys):
    # every step stays finite, but the spread of the two replications' risks does not
    cfg = write_config(tmp_path, SVM_QUICK.replace("cov_scale = 1.0", "cov_scale = 1e300"),
                       iterations=1000, out=tmp_path / "out")
    with runtime_warnings_raise():
        rc = cli.main(["run", "--config", str(cfg), "--workers=1"])
    assert rc == cli.EXIT_PROPERTY
    captured = capsys.readouterr()
    assert captured.err.endswith(": averaging diverged\n") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out" / "curves.csv").exists()
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_large_w_true_runs_and_verifies(tmp_path, capsys, command):
    # the LASSO optimum's self-check scales its slack with |w_true|
    cfg = write_config(tmp_path, LASSO_QUICK.replace("w_true = 0:1.0 1:-1.0",
                                                     "w_true = 0:1e5 1:-1.0"),
                       iterations=1000, replications=1, out=tmp_path / "out")
    with runtime_warnings_raise():
        rc = cli.main([command, "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and "FAIL" not in captured.out


@pytest.mark.parametrize("command", ["run", "verify"])
def test_repeated_w_true_index_is_config_error(tmp_path, capsys, command):
    # a later entry would silently replace the earlier one
    cfg = write_config(tmp_path, LASSO_QUICK.replace("w_true = 0:1.0 1:-1.0",
                                                     "w_true = 0:1.0 1:-1.0 0:-1.0"),
                       iterations=1000, replications=1, out=tmp_path / "out")
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "[problem] w_true: index 0 given twice" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


# ---------- verify ----------


def test_verify_lasso_quick_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path, LASSO_QUICK, iterations=0, replications=1, out=tmp_path / "out"
    )
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_svm_quick_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, SVM_QUICK, iterations=0, out=tmp_path / "out")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4  # no monotonicity suite without a closed-form w*
    assert "FAIL" not in out


def test_verify_non_finite_scale_is_config_error(tmp_path, capsys):
    # NaN probe points would make every comparison false, so no check could fail
    cfg = write_config(tmp_path, LASSO_QUICK.replace("probes = 3", "probes = 3\nscale = nan"),
                       iterations=0, replications=1, out=tmp_path / "out")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "[verify] scale" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("text", [LASSO_QUICK, SVM_QUICK], ids=["lasso", "svm"])
def test_verify_overflowing_check_is_property_failure(tmp_path, capsys, text):
    # a pair that overflows compares false, so unstopped it would count as no violation
    cfg = write_config(tmp_path, text.replace("probes = 3", "probes = 3\nscale = 1e200"),
                       iterations=0, replications=1, out=tmp_path / "out")
    with runtime_warnings_raise():
        rc = cli.main(["verify", "--config", str(cfg)])
    assert rc == cli.EXIT_PROPERTY
    captured = capsys.readouterr()
    assert "PASS subgradient-inequality" not in captured.out
    assert captured.err.endswith(": check subgradient-inequality diverged\n")
    assert "Traceback" not in captured.err


def test_verify_single_noise_sample_is_config_error(tmp_path, capsys):
    # a noise moment's standard error needs a sample variance, so two draws at least
    cfg = write_config(tmp_path, LASSO_QUICK.replace("noise_samples = 4000", "noise_samples = 1"),
                       iterations=0, replications=1, out=tmp_path / "out")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "[verify] noise_samples" in captured.err and "Traceback" not in captured.err


# ---------- denoise ----------


def piecewise_image(tmp_path, name="clean.pgm"):
    px = np.full((64, 64), 64.0)
    px[:32, :] = 192.0
    px[40:56, 8:24] = 160.0
    path = tmp_path / name
    data.write_pgm(GrayImage(px, peak=255.0), path)
    return path


def test_denoise_improves_noisy_piecewise_image(tmp_path, capsys):
    clean = piecewise_image(tmp_path)
    rc = cli.main([
        "denoise", "--clean", str(clean), "--noise-std", "0.1",
        "--lam", "0.08", "--mu", "0.002", "--iterations", "300",
        "--seed", "3", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak convention: 1.0" in out
    gain = float(out.split("(gain ")[1].split(" dB")[0])
    assert gain >= 3.0
    assert (tmp_path / "out" / "denoised.pgm").exists()
    assert (tmp_path / "out" / "noisy.pgm").exists()


def test_denoise_lambda_zero_full_step_returns_noisy_input(tmp_path):
    clean = piecewise_image(tmp_path)
    noisy_img = data.add_gaussian_noise(
        GrayImage(data.read_pgm(clean).pixels / 255.0, peak=1.0), 0.1, seed=4
    )
    noisy_path = tmp_path / "noisy_in.pgm"
    data.write_pgm(noisy_img, noisy_path)
    rc = cli.main([
        "denoise", "--input", str(noisy_path), "--lam", "0", "--mu", "1.0",
        "--iterations", "1", "--kappa", "0", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    res = data.read_pgm(tmp_path / "out" / "denoised.pgm")
    ref = data.read_pgm(noisy_path)
    np.testing.assert_array_equal(res.pixels, ref.pixels)


def test_denoise_noise_free_input_is_barely_touched(tmp_path, capsys):
    # threshold established once by a sweep over lam in {0.005, 0.01, 0.02}:
    # with 300 iterations the output stays above 40 dB for lam <= 0.01
    clean = piecewise_image(tmp_path)
    rc = cli.main([
        "denoise", "--clean", str(clean), "--noise-std", "0",
        "--lam", "0.01", "--mu", "0.002", "--iterations", "300",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    clean_norm = GrayImage(data.read_pgm(clean).pixels / 255.0, peak=1.0)
    den = data.read_pgm(tmp_path / "out" / "denoised.pgm")
    den_norm = GrayImage(den.pixels / 255.0, peak=1.0)
    assert data.psnr(den_norm, clean_norm) >= 40.0


def test_denoise_constant_image_is_fixed_point(tmp_path):
    path = tmp_path / "const.pgm"
    data.write_pgm(GrayImage(np.full((8, 8), 100.0), peak=255.0), path)
    rc = cli.main([
        "denoise", "--clean", str(path), "--noise-std", "0",
        "--lam", "0.5", "--mu", "0.01", "--iterations", "50",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    out = data.read_pgm(tmp_path / "out" / "denoised.pgm")
    np.testing.assert_array_equal(out.pixels, np.full((8, 8), 100.0))


def test_denoise_unreadable_image_is_io_error(tmp_path):
    rc = cli.main(["denoise", "--input", str(tmp_path / "missing.pgm")])
    assert rc == cli.EXIT_IO


def test_denoise_degenerate_pgm_header_is_format_error(tmp_path, capsys):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"P5 0 0 255\n")
    assert cli.main(["denoise", "--input", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "2x2" in err and "Traceback" not in err


def test_denoise_magic_must_be_exactly_p5(tmp_path, capsys):
    # "P52" would otherwise read as magic P5 followed by width 2
    path = tmp_path / "p52.pgm"
    path.write_bytes(b"P52 2 2 255\n\x01\x02\x03\x04")
    assert cli.main(["denoise", "--input", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "P5" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "denoised.pgm").exists()


def test_denoise_requires_some_input():
    assert cli.main(["denoise", "--lam", "0.1"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--mu", "0.6"],
    ["--mu", "0"],
    ["--mu", "nan"],
    ["--lam=-1"],
    ["--noise-std=-1"],
    ["--noise-std", "nan"],
    ["--kappa", "abc"],
    ["--iterations=-3"],
    ["--iterations=-1" + "0" * 400],  # too large for a float
])
def test_denoise_bad_flag_is_config_error(tmp_path, capsys, flags):
    clean = piecewise_image(tmp_path)
    argv = ["denoise", "--clean", str(clean), "--noise-std", "0.1", "--iterations", "2",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv + flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert flags[0].split("=")[0] in err and "Traceback" not in err
    assert not (tmp_path / "out" / "denoised.pgm").exists()


def denoise_reference(noisy, mu, lam, kappa, iterations):
    # the whole-image loop that the row bands replace, stepping by the
    # whole-image formula p - mu ((p - noisy) + lam S(p))
    p, y = noisy.pixels, noisy.pixels
    state = engine.init_smoothing(p, kappa)
    for _ in range(iterations):
        p = p - mu * ((p - y) + lam * tv_sign_sum_reference(p))
        state = engine.smoothing_update(state, p)
    return state.w_bar


@pytest.mark.parametrize("height", [2, 3, 7, 16])
@pytest.mark.parametrize("band_pixels", [problems.TV_BAND_PIXELS, 7, 1])
@pytest.mark.parametrize("iterations", [0, 1, 2, 25])
def test_banded_denoise_equals_whole_image_loop(monkeypatch, height, band_pixels, iterations):
    # one band, bands of one or two rows, and one row each
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", band_pixels)
    runs = record_parts(monkeypatch)
    rng = np.random.default_rng(height)
    noisy = GrayImage(rng.normal(size=(height, 6)), peak=1.0)
    got = problems.tv_denoise(noisy, 0.05, 0.3, 0.9, iterations)
    assert np.array_equal(got, denoise_reference(noisy, 0.05, 0.3, 0.9, iterations))
    # every step, the first too, takes the bands of each part
    per_step = sum(len(part_bands) for part_bands in expected_parts(height, 6, cli._workers(0, 99)))
    bands = sum(len(bands) for _, bands in runs)
    assert bands == iterations * per_step


def expected_parts(height, width, cpus):
    # the part rule: one part per CPU, at most one per band of the image,
    # as even as rows allow, each cut into bands of its own
    n = min(cpus, len(problems.tv_bands(height, width)))
    cuts = [height * j // n for j in range(n + 1)]
    return [[(lo + a, lo + b) for a, b in problems.tv_bands(hi - lo, width)]
            for lo, hi in zip(cuts, cuts[1:])]


def set_cpus(monkeypatch, count):
    # the usable-CPU count that cli._workers and problems._tv_parts read
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    assert cli._workers(0, 99) == count


def bind_bands(monkeypatch):
    # the lookup from a program that _tv_program builds to the bands of the
    # sign units it steps
    built = []
    build = problems._tv_program

    def recorded(p, noisy, mu, lam, units, *rest):
        program = build(p, noisy, mu, lam, units, *rest)
        built.append((program, tuple(band for unit in units for band in unit)))
        return program

    monkeypatch.setattr(problems, "_tv_program", recorded)
    return lambda program: next(bands for p, bands in built if p is program)


def record_parts(monkeypatch):
    # the bands of the program that each call of _tv_run steps, one call a
    # step, with its thread
    bands_of, calls = bind_bands(monkeypatch), []
    run = problems._tv_run

    def recorded(program):
        calls.append((threading.get_ident(), bands_of(program)))
        return run(program)

    monkeypatch.setattr(problems, "_tv_run", recorded)
    return calls


@pytest.fixture
def switch_storm():
    # the interpreter hands the GIL between threads as often as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("storm", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("height", [2, 3, 7, 16])
@pytest.mark.parametrize("band_pixels", [problems.TV_BAND_PIXELS, 7, 1])
@pytest.mark.parametrize("iterations", [0, 1, 2, 25])
def test_denoise_parts_equal_whole_image_loop(request, monkeypatch, storm, cpus, height,
                                              band_pixels, iterations):
    # one part, and parts of a few rows or of one row each, on their own
    # threads; with the storm the threads switch about every bytecode.  Sign
    # units of one band put a unit seam between every two bands of a part.
    if storm:
        request.getfixturevalue("switch_storm")
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", band_pixels)
    set_cpus(monkeypatch, cpus)
    calls = record_parts(monkeypatch)
    rng = np.random.default_rng(height)
    noisy = GrayImage(rng.normal(size=(height, 6)), peak=1.0)
    expected = denoise_reference(noisy, 0.05, 0.3, 0.9, iterations)
    me = threading.get_ident()
    parts = [tuple(bands) for bands in expected_parts(height, 6, cpus)]
    for unit_bands in (1, 3):
        monkeypatch.setattr(problems, "TV_UNIT_BANDS", unit_bands)
        calls.clear()
        before = threading.enumerate()
        got = problems.tv_denoise(noisy, 0.05, 0.3, 0.9, iterations)
        assert threading.enumerate() == before
        assert np.array_equal(got, expected)
        # each step steps every part on a thread of its own, the first part on
        # this one; step 1 and steps 2.. are two runs, each with its threads
        assert sorted(bands for _, bands in calls) == sorted(parts * iterations)
        for run in (calls[: len(parts)], calls[len(parts) :]):
            if run:
                threads = {bands: {thread for thread, b in run if b == bands} for bands in parts}
                assert threads[parts[0]] == {me}
                assert all(len(t) == 1 for t in threads.values())
                assert len(set.union(*threads.values())) == len(parts)


@pytest.mark.parametrize("cpus", [1, 2])
def test_denoise_takes_one_sign_sum_per_sign_unit(monkeypatch, cpus):
    # at the default bands a 768 x 512 image is 6 bands; on 2 CPUs each part
    # is 3 bands, one sign unit, and takes one sign sum a step on its own
    # thread, and on 1 CPU the image is 2 units; every band is updated once.
    # A step runs a program once, so the sign sums of a step are the ones
    # bound into the programs it runs.
    set_cpus(monkeypatch, cpus)
    signs = []  # the first call and the rows of every sign sum bound
    sign_sum = problems._tv_sign_sum_rows

    def bound(p, lo, hi, *rest):
        calls, g = sign_sum(p, lo, hi, *rest)
        signs.append((calls[0], (lo, hi)))
        return calls, g

    monkeypatch.setattr(problems, "_tv_sign_sum_rows", bound)
    bands_of, runs = bind_bands(monkeypatch), []
    run = problems._tv_run

    def recorded(program):
        spans = [span for first, span in signs for call in program if call is first]
        runs.append((threading.get_ident(), spans, bands_of(program)))
        return run(program)

    monkeypatch.setattr(problems, "_tv_run", recorded)
    noisy = GrayImage(np.random.default_rng(4).normal(size=(512, 768)), peak=1.0)
    problems.tv_denoise(noisy, 0.002, 0.08, 0.9, 4)
    bands = problems.tv_bands(512, 768)
    updates = [band for _, _, program_bands in runs for band in program_bands]
    assert len(bands) == 6 and len(updates) == 4 * 6
    assert sorted(set(updates)) == bands
    halves = [(0, 256), (256, 512)]
    assert len(runs) == 4 * cpus
    assert sorted(span for _, spans, _ in runs for span in spans) == sorted(halves * 4)
    # step 1 and steps 2..4 are two runs, each with its threads
    step_1, later = runs[:cpus], runs[cpus:]
    assert sorted(span for _, spans, _ in step_1 for span in spans) == halves
    for run in (step_1, later):
        threads = {span: {t for t, spans, _ in run if span in spans} for span in halves}
        assert all(len(t) == 1 for t in threads.values())
        assert len(set.union(*threads.values())) == cpus


@pytest.mark.parametrize("unit_bands", [1, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_sign_unit_reads_its_halo_rows_from_the_barrier_slot(monkeypatch, cpus,
                                                                   unit_bands):
    # one halo rule: no sign sum reads a row of p outside its own rows [lo, hi),
    # and no program copies a row of p, so the old rows around every unit come
    # from the slot that the barrier action fills.  Bands of one row give
    # parts of several units.
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 6)
    monkeypatch.setattr(problems, "TV_UNIT_BANDS", unit_bands)
    set_cpus(monkeypatch, cpus)
    parts = problems._tv_parts(16, 6)
    units = sum(len(problems._tv_units(bands)) for _, _, bands in parts)
    assert units > len(parts) == cpus
    outside = []  # per sign sum bound: the rows of p outside [lo, hi) that it reads
    sign_sum = problems._tv_sign_sum_rows

    def bound(p, lo, hi, *rest):
        calls, g = sign_sum(p, lo, hi, *rest)
        outside.append([a for _, args in calls for a in args if isinstance(a, np.ndarray)
                        and (np.shares_memory(a, p[:lo]) or np.shares_memory(a, p[hi:]))])
        return calls, g

    monkeypatch.setattr(problems, "_tv_sign_sum_rows", bound)
    copies = []  # the copies of a row of p that a program makes
    build = problems._tv_program

    def recorded(p, *rest):
        program = build(p, *rest)
        copies.extend(args for f, args in program
                      if f is np.copyto and np.shares_memory(args[1], p))
        return program

    monkeypatch.setattr(problems, "_tv_program", recorded)
    noisy = GrayImage(np.random.default_rng(16).normal(size=(16, 6)), peak=1.0)
    got = problems.tv_denoise(noisy, 0.05, 0.3, 0.9, 3)
    assert np.array_equal(got, denoise_reference(noisy, 0.05, 0.3, 0.9, 3))
    # step 1 and steps 2.. each bind one sign sum per unit
    assert len(outside) == 2 * units
    assert not any(outside) and not copies
    assert "edge" not in problems.TvBuffers._fields


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_denoise_binds_its_programs_once_per_run(monkeypatch, cpus):
    # one program a part for step 1 and one a part for steps 2.., however
    # many steps run
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 6 * 3)
    set_cpus(monkeypatch, cpus)
    noisy = GrayImage(np.random.default_rng(10).normal(size=(9, 6)), peak=1.0)
    built = []
    build = problems._tv_program
    monkeypatch.setattr(problems, "_tv_program", lambda *args: built.append(args) or build(*args))
    for iterations in (0, 1, 2, 5, 25):
        built.clear()
        problems.tv_denoise(noisy, 0.05, 0.3, 0.9, iterations)
        assert len(built) == (0 if iterations == 0 else cpus if iterations == 1 else 2 * cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tv_steps_builds_one_program_per_part_per_call(monkeypatch, cpus):
    # every program is built inside a _tv_steps call, one for each part, in
    # the order of the parts: step 1's call and the call of steps 2..
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 6 * 3)
    set_cpus(monkeypatch, cpus)
    noisy = GrayImage(np.random.default_rng(12).normal(size=(9, 6)), peak=1.0)
    calls = []  # the bands of each program built, by _tv_steps call
    build, tv_steps = problems._tv_program, problems._tv_steps
    monkeypatch.setattr(problems, "_tv_steps", lambda *args: calls.append([]) or tv_steps(*args))
    monkeypatch.setattr(problems, "_tv_program", lambda *args: calls[-1].append(
        [band for unit in args[4] for band in unit]) or build(*args))
    parts = expected_parts(9, 6, cpus)
    for iterations in (1, 2, 25):
        calls.clear()
        problems.tv_denoise(noisy, 0.05, 0.3, 0.9, iterations)
        assert calls == [parts] * min(iterations, 2)


def test_tv_subgradient_step_enters_tv_steps_once(monkeypatch):
    # the step is step 1 of the one step runner, with no numerator
    entered = []
    tv_steps = problems._tv_steps
    monkeypatch.setattr(problems, "_tv_steps",
                        lambda *args: entered.append((args[1], args[6])) or tv_steps(*args))
    img = GrayImage(np.random.default_rng(13).normal(size=(9, 6)), peak=1.0)
    problems.tv_subgradient_step(img, img, 0.05, 0.3)
    assert entered == [(None, range(1, 2))]


@pytest.mark.parametrize("cpus", [2, 3])
def test_tv_subgradient_step_reports_the_topmost_failed_part(monkeypatch, switch_storm, cpus):
    # with lam = 0 a row overflows only where its fidelity term does: the
    # lowest part in the multiply by mu, the part above it already in
    # p - noisy, and on 3 CPUs the top part not at all.  Whichever part's
    # thread fails first, the topmost failure is the one raised.
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 6)
    set_cpus(monkeypatch, cpus)
    parts = problems._tv_parts(9, 6)
    assert len(parts) == cpus
    p, noisy = np.zeros((9, 6)), np.zeros((9, 6))
    (lo, hi, _), (bottom, _, _) = parts[-2], parts[-1]
    p[lo:hi], noisy[lo:hi] = 1e308, -1e308
    p[bottom:] = 1e10
    img, noisy = GrayImage(p, peak=1.0), GrayImage(noisy, peak=1.0)
    before = threading.enumerate()
    for _ in range(10):
        with pytest.raises(NumericError,
                           match=r"^overflow encountered in subtract: iterate diverged in step 1$"):
            problems.tv_subgradient_step(img, noisy, 1e300, 0.0)
        assert threading.enumerate() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_denoise_steps_after_the_first_allocate_nothing(monkeypatch, cpus):
    # the traced peak of 25 steps is that of 3: steps 2.. run programs bound
    # once, over buffers allocated once
    set_cpus(monkeypatch, cpus)
    noisy = GrayImage(np.random.default_rng(11).normal(size=(512, 768)), peak=1.0)
    peaks = []
    tracemalloc.start()
    try:
        for iterations in (3, 25):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            problems.tv_denoise(noisy, 0.002, 0.08, 0.9, iterations)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 1024


@pytest.mark.parametrize("mu, lam, kappa, iterations", [
    pytest.param(0.05, 0.3, kappa, iterations, id=f"{kappa}-{iterations}")
    for kappa, iterations in [(1.0, 2), (-0.1, 2), (float("nan"), 2), (0.5, -1)]
] + [
    # mu and lam are checked whatever the count, as ValueError, not as a
    # step that diverges
    pytest.param(mu, lam, 0.5, iterations, id=f"mu={mu}-lam={lam}-{iterations}")
    for mu, lam in [(-1.0, 0.3), (0.0, 0.3), (math.nan, 0.3), (math.inf, 0.3),
                    (0.05, -1.0), (0.05, math.nan), (0.05, math.inf)]
    for iterations in (0, 1, 2)
])
def test_tv_denoise_rejects_kappa_outside_the_unit_interval_and_negative_counts(
        mu, lam, kappa, iterations):
    noisy = GrayImage(np.zeros((3, 3)), peak=1.0)
    with pytest.raises(ValueError):
        problems.tv_denoise(noisy, mu, lam, kappa, iterations)


@pytest.mark.parametrize("band_rows", [1, None])
@pytest.mark.parametrize("iterations", [1, 2, 25])
def test_denoise_kappa_zero_is_the_last_tv_iterate(monkeypatch, band_rows, iterations):
    # with no memory, Z = w and S = 1: the smoothing hands back the iterate
    rng = np.random.default_rng(iterations)
    noisy = GrayImage(rng.normal(size=(7, 6)), peak=1.0)
    img = noisy
    for _ in range(iterations):
        img = problems.tv_subgradient_step(img, noisy, 0.05, 0.3)
    if band_rows is not None:
        monkeypatch.setattr(problems, "TV_BAND_PIXELS", band_rows * 6)
    assert len(problems.tv_bands(7, 6)) == (7 if band_rows else 1)
    assert np.array_equal(problems.tv_denoise(noisy, 0.05, 0.3, 0.0, iterations), img.pixels)


@pytest.mark.parametrize("band_pixels", [problems.TV_BAND_PIXELS, 1])
def test_denoise_divergence_is_property_failure(tmp_path, capsys, monkeypatch, band_pixels):
    # step 1 stays finite; step 2 overflows inside the row bands
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", band_pixels)
    assert len(problems.tv_bands(64, 64)) == (1 if band_pixels > 64 * 64 else 64)
    clean = piecewise_image(tmp_path)
    before = threading.active_count()
    with runtime_warnings_raise():
        rc = cli.main(["denoise", "--clean", str(clean), "--noise-std", "0.1", "--kappa", "0.5",
                       "--mu", "1e300", "--iterations", "5",
                       "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_PROPERTY
    assert threading.active_count() == before
    err = capsys.readouterr().err
    assert err.endswith(": iterate diverged in step 2\n") and "Traceback" not in err
    assert not (tmp_path / "out" / "denoised.pgm").exists()


@pytest.mark.parametrize("cpus", [2, 3])
def test_denoise_divergence_in_parts_is_one_failure(tmp_path, capsys, monkeypatch, cpus):
    # every part overflows in step 2, in whichever order its thread gets
    # there; the message is the topmost part's, and nothing is left behind
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 64 * 8)
    set_cpus(monkeypatch, cpus)
    clean = piecewise_image(tmp_path)
    before = threading.enumerate()
    messages = set()
    for _ in range(20):
        with runtime_warnings_raise():
            rc = cli.main(["denoise", "--clean", str(clean), "--noise-std", "0.1",
                           "--kappa", "0.5", "--mu", "1e300", "--iterations", "5",
                           "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_PROPERTY
        assert threading.enumerate() == before
        messages.add(capsys.readouterr().err)
    (err,) = messages
    assert err.endswith(": iterate diverged in step 2\n") and "Traceback" not in err
    assert not (tmp_path / "out" / "denoised.pgm").exists()


def test_denoise_reports_the_topmost_failed_part(monkeypatch):
    # the parts fail in step 3, the lower ones first in time, each with a
    # cause of its own; the topmost part's failure is the one raised.  Each
    # part runs its program once a step, step 1 included.
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 6)
    set_cpus(monkeypatch, 3)
    bands_of = bind_bands(monkeypatch)
    run = problems._tv_run
    steps = {}

    def failing(program):
        lo = bands_of(program)[0][0]
        steps[lo] = steps.get(lo, 0) + 1
        if steps[lo] == 3 and lo > 0:  # step 3 of a part below the top
            time.sleep(0.02 * (10 - lo))
            raise FloatingPointError(f"part at row {lo}")
        return run(program)

    monkeypatch.setattr(problems, "_tv_run", failing)
    noisy = GrayImage(np.random.default_rng(5).normal(size=(9, 6)), peak=1.0)
    before = threading.enumerate()
    with pytest.raises(NumericError, match=r"^part at row 3: iterate diverged in step 3$"):
        problems.tv_denoise(noisy, 0.05, 0.3, 0.9, 5)
    assert threading.enumerate() == before


def test_denoise_thread_that_cannot_start_leaves_none_running(monkeypatch):
    # the parts already started are released from the barrier and joined
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 6)
    set_cpus(monkeypatch, 3)
    starts = []

    class Thread(threading.Thread):
        def start(self):
            starts.append(self)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(problems.threading, "Thread", Thread)
    noisy = GrayImage(np.random.default_rng(6).normal(size=(9, 6)), peak=1.0)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        problems.tv_denoise(noisy, 0.05, 0.3, 0.9, 5)
    assert len(starts) == 2 and not starts[0].is_alive()
    assert threading.enumerate() == before


def test_denoise_output_does_not_depend_on_the_parts(tmp_path, monkeypatch):
    # small bands, so that the 64 x 64 image has parts on every CPU count
    monkeypatch.setattr(problems, "TV_BAND_PIXELS", 64 * 8)
    clean = piecewise_image(tmp_path)
    outputs = set()
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        before = threading.enumerate()
        rc = cli.main(["denoise", "--clean", str(clean), "--noise-std", "0.1",
                       "--iterations", "30", "--seed", "7", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert threading.enumerate() == before
        outputs.add((out / "denoised.pgm").read_bytes())
    assert len(outputs) == 1


def test_denoise_steps_without_a_float_copy_of_clean(tmp_path, monkeypatch):
    # while the steps run, step 1 in tv_subgradient_step and steps 2.. after
    # it, the traced memory holds the noisy image, the iterate and the
    # numerator in float64, and --clean only in 8 bits
    height, width = 128, 96
    clean = tmp_path / "clean.pgm"
    data.write_pgm(GrayImage(np.random.default_rng(8).uniform(0, 255, (height, width))),
                   clean)
    held = []
    tv_steps = problems._tv_steps
    monkeypatch.setattr(problems, "_tv_steps", lambda *args: held.append(
        tracemalloc.get_traced_memory()[0]) or tv_steps(*args))
    tracemalloc.start()
    try:
        rc = cli.main(["denoise", "--clean", str(clean), "--noise-std", "0.1",
                       "--iterations", "3", "--out", str(tmp_path / "out")])
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_OK
    pixels = height * width
    assert len(held) == 2
    assert all(h < 3 * 8 * pixels + pixels + 64 * 1024 for h in held)


@pytest.mark.parametrize("noise_std, psnrs", [
    ("1e306", r"noisy=-inf dB denoised=-inf dB"),  # both MSEs overflow
    ("0", r"noisy=inf dB denoised=\d+\.\d\d dB"),  # the noisy image is the clean one
])
def test_denoise_gain_of_an_infinite_psnr_is_not_a_number(tmp_path, capsys, noise_std, psnrs):
    path = tmp_path / "clean.pgm"
    data.write_pgm(GrayImage(np.arange(64.0).reshape(8, 8) * 4.0, peak=255.0), path)
    rc = cli.main(["denoise", "--clean", str(path), f"--noise-std={noise_std}",
                   "--iterations", "3", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert re.search(rf"^psnr vs clean: {psnrs} \(gain n/a\)$", capsys.readouterr().out,
                     re.MULTILINE)


def test_denoise_steps_once_through_tv_subgradient_step(tmp_path, monkeypatch):
    # a benchmark that times denoise from its first tv_subgradient_step call
    # needs that call; steps 2.. run in problems._tv_steps
    calls = []
    step = problems.tv_subgradient_step
    monkeypatch.setattr(problems, "tv_subgradient_step",
                        lambda *args: calls.append(args) or step(*args))
    clean = piecewise_image(tmp_path)
    rc = cli.main(["denoise", "--clean", str(clean), "--noise-std", "0.1", "--iterations", "4",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert len(calls) == 1


def test_denoise_first_step_divergence_is_property_failure(tmp_path, capsys):
    # lam times the sign sum overflows in the first step
    clean = piecewise_image(tmp_path)
    with runtime_warnings_raise():
        rc = cli.main(["denoise", "--clean", str(clean), "--noise-std", "0.1", "--kappa", "0.5",
                       "--lam", "1e308", "--iterations", "3",
                       "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_PROPERTY
    err = capsys.readouterr().err
    assert err.endswith(": iterate diverged in step 1\n")
    assert "overflow" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "denoised.pgm").exists()


def test_denoise_input_and_clean_of_different_sizes_is_config_error(tmp_path, capsys):
    noisy, clean = tmp_path / "noisy.pgm", tmp_path / "clean.pgm"
    data.write_pgm(GrayImage(np.full((10, 12), 90.0), peak=255.0), noisy)
    data.write_pgm(GrayImage(np.full((20, 30), 90.0), peak=255.0), clean)
    rc = cli.main(["denoise", "--input", str(noisy), "--clean", str(clean),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--input" in err and "--clean" in err and "12x10" in err and "30x20" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "denoised.pgm").exists()


@settings(max_examples=200, deadline=None, database=None)
@given(blob=st.one_of(
    st.binary(),
    st.builds(lambda width, height, tail: f"P5\n{width} {height}\n255\n".encode() + tail,
              st.integers(-1, 5), st.integers(-1, 5), st.binary(max_size=40)),
))
def test_denoise_pgm_bytes_fuzz_exits_with_documented_code(fuzz_dir, blob):
    path = fuzz_dir / "fuzz.pgm"
    path.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["denoise", "--input", str(path), "--iterations", "2",
                       "--out", str(fuzz_dir / "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_PROPERTY, cli.EXIT_CONFIG, cli.EXIT_IO)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def tiny_pgm(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "tiny.pgm"
    data.write_pgm(GrayImage(np.arange(16.0).reshape(4, 4) * 16.0, peak=255.0), path)
    return path


@settings(max_examples=400, deadline=None, database=None)
@given(
    mu=st.floats(),
    lam=st.floats(),
    noise_std=st.floats(),
    kappa=st.one_of(st.just("auto"), st.text(), st.floats().map(repr)),
)
@example(mu=0.002, lam=0.08, noise_std=1e200, kappa="auto")  # the PSNR's MSE overflows
@example(mu=0.002, lam=0.08, noise_std=1e308, kappa="auto")  # the noisy pixels overflow
def test_denoise_flag_fuzz_exits_with_documented_code(tiny_pgm, mu, lam, noise_std, kappa):
    # '=' keeps argparse from reading values such as '-inf' as option names
    with runtime_warnings_raise():
        rc = cli.main([
            "denoise", "--clean", str(tiny_pgm), f"--noise-std={noise_std!r}",
            f"--mu={mu!r}", f"--lam={lam!r}", f"--kappa={kappa}", "--iterations", "1",
            "--out", str(tiny_pgm.parent / "out"),
        ])
    assert rc in (cli.EXIT_OK, cli.EXIT_PROPERTY, cli.EXIT_CONFIG, cli.EXIT_IO)
    valid = mu > 0 and math.isfinite(mu) and lam >= 0 and math.isfinite(lam)
    if not (valid and noise_std >= 0 and math.isfinite(noise_std)):
        assert rc == cli.EXIT_CONFIG


# ---------- svm-train ----------


def test_svm_train_separable_toy_set(tmp_path, capsys):
    path = tmp_path / "toy.libsvm"
    path.write_text(
        "+1 1:1.0 2:1.0\n"
        "+1 1:1.0 2:-1.0\n"
        "-1 1:-1.0 2:1.0\n"
        "-1 1:-1.0 2:-1.0\n"
    )
    rc = cli.main([
        "svm-train", "--train", str(path), "--test", str(path),
        "--rho", "0.01", "--mu", "0.3", "--epochs", "200",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train accuracy = 1.0000" in out
    assert "test accuracy = 1.0000" in out
    model = (tmp_path / "out" / "model.txt").read_text().splitlines()
    assert len(model) == 2


def test_svm_train_single_class_predicts_that_class(tmp_path, capsys):
    path = tmp_path / "mono.libsvm"
    path.write_text("+1 1:0.5\n+1 1:1.5\n+1 1:0.7\n")
    rc = cli.main([
        "svm-train", "--train", str(path), "--rho", "0.01", "--mu", "0.5",
        "--epochs", "100", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert "train accuracy = 1.0000" in capsys.readouterr().out


def test_svm_train_pads_test_dimension(tmp_path, capsys):
    train = tmp_path / "train.libsvm"
    train.write_text("+1 1:1.0\n-1 1:-1.0\n")
    test = tmp_path / "test.libsvm"
    test.write_text("+1 1:1.0 3:0.1\n")
    rc = cli.main([
        "svm-train", "--train", str(train), "--test", str(test),
        "--rho", "0.01", "--mu", "0.3", "--epochs", "50",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert "test accuracy = 1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("empty_flag", ["--train", "--test"])
def test_svm_train_set_without_rows_is_config_error(tmp_path, capsys, empty_flag):
    # the other set gives a dimension, so only the row count is empty
    paths = {"--train": tmp_path / "train.libsvm", "--test": tmp_path / "test.libsvm"}
    for flag, path in paths.items():
        path.write_text("# comments only\n" if flag == empty_flag else "+1 1:1.0\n-1 1:-1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["svm-train", "--train", str(paths["--train"]),
                       "--test", str(paths["--test"]), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{empty_flag} {paths[empty_flag]}: dataset is empty" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not (tmp_path / "o" / "model.txt").exists()


def test_svm_train_set_without_features_is_config_error(tmp_path, capsys):
    # rows, each with a label and no feature: the set is not empty
    path = tmp_path / "nofeat.libsvm"
    path.write_text("+1\n-1\n")
    rc = cli.main(["svm-train", "--train", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: --train {path}: dataset has no features\n"
    assert not (tmp_path / "o" / "model.txt").exists()


def test_svm_train_parse_error_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 2:1 1:2\n")
    rc = cli.main(["svm-train", "--train", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_IO
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_svm_train_non_finite_feature_is_parse_error(tmp_path, capsys, value):
    path = tmp_path / "nonfinite.libsvm"
    path.write_text(f"+1 1:1.0\n-1 1:{value}\n")
    rc = cli.main(["svm-train", "--train", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "line 2" in err and "non-finite" in err
    assert not (tmp_path / "o" / "model.txt").exists()


def test_svm_train_negative_epochs_is_config_error(tmp_path, capsys):
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:1.0\n-1 1:-1.0\n")
    rc = cli.main(["svm-train", "--train", str(path), "--epochs", "-1",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--epochs" in err and "Traceback" not in err


def test_svm_train_feature_index_too_large_to_allocate_is_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.libsvm"
    path.write_text(f"+1 1:0.5 {HUGE}:1\n")
    rc = cli.main(["svm-train", "--train", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "too large" in err and "Traceback" not in err


def small_indices(text):
    # any index parse_libsvm would read stays below 1000, so the matrix stays small
    for line in text.splitlines():
        for tok in line.split("#", 1)[0].split()[1:]:
            try:
                if int(tok.split(":", 1)[0]) >= 1000:
                    return False
            except ValueError:
                pass
    return True


# a well-formed line with indices in 1..999; finite values of any size
LIBSVM_LINE = st.builds(
    lambda label, idx, vals: " ".join([label] + [f"{i}:{v!r}" for i, v in zip(idx, vals)]),
    st.sampled_from(["+1", "-1", "1", "0"]),
    st.lists(st.integers(1, 999), unique=True, max_size=6).map(sorted),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
)


@settings(max_examples=150, deadline=None, database=None)
@given(text=st.one_of(
    st.text(st.characters(exclude_categories=("Cs",))).filter(small_indices),
    st.lists(LIBSVM_LINE, max_size=8).map("\n".join),
    st.lists(st.one_of(LIBSVM_LINE, ONE_LINE), max_size=8).map("\n".join).filter(small_indices),
))
@example(text=f"+1 1:0.5 {HUGE}:1\n")  # the feature matrix cannot be allocated
def test_svm_train_libsvm_text_fuzz_exits_with_documented_code(fuzz_dir, text):
    path = fuzz_dir / "fuzz.libsvm"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["svm-train", "--train", str(path), "--epochs", "1",
                       "--out", str(fuzz_dir / "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_PROPERTY, cli.EXIT_CONFIG, cli.EXIT_IO)
    assert "Traceback" not in err.getvalue()


def test_svm_train_overflow_is_property_failure(tmp_path, capsys):
    # finite features whose margins overflow once w has grown
    path = tmp_path / "huge.libsvm"
    path.write_text("+1 1:1e308\n-1 1:-1e308\n")
    with runtime_warnings_raise():
        rc = cli.main(["svm-train", "--train", str(path), "--epochs", "3",
                       "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_PROPERTY
    captured = capsys.readouterr()
    assert "overflow" in captured.err and "Traceback" not in captured.err
    assert "accuracy" not in captured.out
    assert not (tmp_path / "o" / "model.txt").exists()


def test_svm_train_huge_step_is_config_error(tmp_path, capsys):
    # (mu*rho)**2 of a finite mu*rho above 1e154 used to raise OverflowError
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:1.0\n-1 1:-1.0\n")
    rc = cli.main(["svm-train", "--train", str(path), "--mu", "1e200", "--rho", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mu*rho" in err and "Traceback" not in err


def test_svm_train_overflow_that_would_shrink_away_is_property_failure(tmp_path, capsys):
    # the huge rows overflow a margin at step 2; unreported, the overflowed
    # margin reads as no violation and the iterate shrinks back to a finite model
    path = tmp_path / "huge.libsvm"
    path.write_text("+1 1:1e308\n-1 1:-1e308\n+1 1:0.5\n-1 1:-0.5\n")
    rc = cli.main(["svm-train", "--train", str(path), "--no-shuffle", "--mu", "0.5",
                   "--rho", "1", "--epochs", "2000", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_PROPERTY
    captured = capsys.readouterr()
    assert "overflow" in captured.err and "iterations 1..512" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o" / "model.txt").exists()


def epoch_stream(features, labels, epochs, shuffle_seed):
    # svm-train's samples one at a time: a fresh permutation per epoch from
    # one generator, or file order without a seed
    rng = None if shuffle_seed is None else np.random.default_rng(shuffle_seed)
    n = len(labels)
    for _ in range(epochs):
        for k in np.arange(n) if rng is None else rng.permutation(n):
            yield problems.Sample(features[k], float(labels[k]))


def libsvm_text(features, labels):
    return "".join(
        " ".join(["+1" if label > 0 else "-1"]
                 + [f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row)]) + "\n"
        for row, label in zip(features, labels)
    )


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("shuffle", [True, False])
def test_svm_train_equals_the_per_sample_reference_bit_for_bit(tmp_path, capsys, epochs,
                                                                 shuffle):
    rng = np.random.default_rng(17)
    n, dim, mu, rho, seed = 700, 6, 0.05, 0.01, 11  # 700 rows: not a multiple of 512
    feats = np.where(rng.random((n + 200, dim)) < 0.6, rng.normal(size=(n + 200, dim)), 0.0)
    feats[:, -1] = 1.0  # a bias column, which also pins the dimension
    labels = np.where(feats @ rng.normal(size=dim) + 0.5 * rng.normal(size=n + 200) > 0, 1.0, -1.0)
    (tmp_path / "train.libsvm").write_text(libsvm_text(feats[:n], labels[:n]))
    (tmp_path / "test.libsvm").write_text(libsvm_text(feats[n:], labels[n:]))
    rc = cli.main(["svm-train", "--train", str(tmp_path / "train.libsvm"),
                   "--test", str(tmp_path / "test.libsvm"), "--mu", str(mu), "--rho", str(rho),
                   "--epochs", str(epochs), "--seed", str(seed), "--out", str(tmp_path / "o")]
                  + ([] if shuffle else ["--no-shuffle"]))
    assert rc == 0
    out = capsys.readouterr().out

    train = problems.SvmSampleSet(feats[:n], labels[:n], rho)
    cfg = engine.RunConfig(mu=mu, kappa=1.0 - 2.0 * mu * rho + 2.0 * (mu * rho) ** 2,
                           iterations=n * epochs)
    stream = epoch_stream(feats[:n], labels[:n], epochs, seed if shuffle else None)
    w_bar = engine.run(train, stream, cfg).smoothing.w_bar
    model = (tmp_path / "o" / "model.txt").read_text()
    assert model == "".join(f"{float(x)!r}\n" for x in w_bar)
    test_acc = problems.SvmSampleSet(feats[n:], labels[n:], rho).accuracy(w_bar)
    assert f"train accuracy = {train.accuracy(w_bar):.4f}\n" in out
    assert f"test accuracy = {test_acc:.4f} (200 samples)\n" in out


@pytest.mark.parametrize("argv, name", [
    (["run", "--config", "{lasso}", "--seed", "-1"], "--seed"),
    (["run", "--config", "{run_seed}"], "[run] seed"),
    (["verify", "--config", "{lasso}", "--seed", "-5"], "--seed"),
    (["verify", "--config", "{verify_seed}"], "[verify] seed"),
    (["denoise", "--clean", "{pgm}", "--noise-std", "0.1", "--seed", "-1"], "--seed"),
    (["svm-train", "--train", "{libsvm}", "--seed", "-1"], "--seed"),
    (["svm-train", "--train", "{libsvm}", "--seed", "-1", "--no-shuffle"], "--seed"),
])
def test_negative_seed_is_config_error(tmp_path, capsys, tiny_pgm, argv, name):
    out = tmp_path / "out"
    configs = {
        "lasso": LASSO_QUICK,
        "run_seed": LASSO_QUICK.replace("seed = 5", "seed = -1"),
        "verify_seed": LASSO_QUICK.replace("[verify]\n", "[verify]\nseed = -5\n"),
    }
    paths = {"pgm": tiny_pgm, "libsvm": tmp_path / "toy.libsvm"}
    paths["libsvm"].write_text("+1 1:1.0\n-1 1:-1.0\n")
    for key, text in configs.items():
        paths[key] = tmp_path / f"{key}.ini"
        paths[key].write_text(text.format(iterations=200, replications=1, out=out))
    argv = [arg.format(**paths) for arg in argv]
    assert cli.main(argv + (["--out", str(out)] if argv[0] != "verify" else [])) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{name} must be nonnegative" in err and "Traceback" not in err
    assert not out.exists()

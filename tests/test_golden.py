"""Golden outputs: the sha256 of what each command writes, pinned across commits.

Each case runs one command of ``sgsmooth.cli`` (or ``problems.tv_denoise``,
whose float pixels the 8-bit PGM would round away) at a tiny size and hashes
its output bytes, less the elapsed time, the worker count and the paths of
the run.  ``tests/golden.json`` holds the hashes and the numpy and scipy
versions that wrote them.  A change that moves a hash changes output bytes;
it lands on its own and says so.  On another numpy, scipy or BLAS a
mismatch is a finding to report, not a reason to skip.

After a deliberate byte change, rewrite ``tests/golden.json`` with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from sgsmooth import cli, data, problems
from test_cli import LASSO_QUICK, SVM_QUICK, libsvm_text

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
    return out.getvalue()


def _untimed(text):
    # the last line of denoise and svm-train names the output path and the time
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("wrote "))


def _run(tmp, text, workers, **kw):
    cfg = tmp / "exp.ini"
    cfg.write_text(text.format(out=tmp / "out", **kw))
    _cli("run", "--config", cfg, "--workers", workers)
    summary = (tmp / "out" / "summary.txt").read_text()
    summary = summary.replace(str(cfg), "exp.ini").replace(f" workers={workers}", "")
    return {
        "curves.csv": (tmp / "out" / "curves.csv").read_bytes(),
        "summary.txt": "".join(line for line in summary.splitlines(keepends=True)
                               if not line.startswith("elapsed_seconds = ")),
    }


def _verify(tmp, path):
    return {"stdout": _cli("verify", "--config", path)}


def _svm_quick_config(tmp):
    cfg = tmp / "svm.ini"
    cfg.write_text(SVM_QUICK.format(iterations=0, out=tmp / "unused"))
    return cfg


def _clean_pixels():
    # 260 x 1024: five bands of TV_BAND_PIXELS, so two sign units at 1 CPU
    # and parts of 2, 2 and 1 bands at 3
    px = np.full((260, 1024), 64.0)
    px[:130, :] = 192.0
    px[150:230, 100:400] = 160.0
    return px


def _denoise(tmp, cpus, kappa):
    clean = tmp / "clean.pgm"
    data.write_pgm(problems.GrayImage(_clean_pixels(), peak=255.0), clean)
    with mock.patch.object(problems, "usable_cpus", lambda: cpus):
        stdout = _cli("denoise", "--clean", clean, "--noise-std", 0.1, "--lam", 0.08,
                      "--mu", 0.002, "--iterations", 20, "--kappa", kappa, "--seed", 3,
                      "--out", tmp / "out")
    return {
        "denoised.pgm": (tmp / "out" / "denoised.pgm").read_bytes(),
        "noisy.pgm": (tmp / "out" / "noisy.pgm").read_bytes(),
        "stdout": _untimed(stdout),
    }


def _tv_denoise(tmp, cpus):
    noisy = data.add_gaussian_noise(problems.GrayImage(_clean_pixels() / 255.0, peak=1.0),
                                    0.1, seed=3)
    with mock.patch.object(problems, "usable_cpus", lambda: cpus):
        return {"pixels": problems.tv_denoise(noisy, 0.002, 0.08, 0.9, 20).tobytes()}


def _svm_train(tmp, shuffle):
    rng = np.random.default_rng(17)
    n, dim = 700, 6
    feats = np.where(rng.random((n + 200, dim)) < 0.6, rng.normal(size=(n + 200, dim)), 0.0)
    feats[:, -1] = 1.0
    labels = np.where(feats @ rng.normal(size=dim) + 0.5 * rng.normal(size=n + 200) > 0,
                      1.0, -1.0)
    (tmp / "train.libsvm").write_text(libsvm_text(feats[:n], labels[:n]))
    (tmp / "test.libsvm").write_text(libsvm_text(feats[n:], labels[n:]))
    stdout = _cli("svm-train", "--train", tmp / "train.libsvm", "--test", tmp / "test.libsvm",
                  "--mu", 0.05, "--rho", 0.01, "--epochs", 2, "--seed", 11,
                  "--out", tmp / "out", *([] if shuffle else ["--no-shuffle"]))
    return {"model.txt": (tmp / "out" / "model.txt").read_bytes(), "stdout": _untimed(stdout)}


CASES = {
    **{f"run-lasso-workers{w}": (lambda tmp, w=w: _run(tmp, LASSO_QUICK, w, iterations=2000,
                                                       replications=2))
       for w in (1, 2)},
    **{f"run-svm-workers{w}": (lambda tmp, w=w: _run(tmp, SVM_QUICK, w, iterations=2000))
       for w in (1, 2)},
    "verify-lasso-quick": lambda tmp: _verify(tmp, REPO / "configs" / "lasso_quick.ini"),
    "verify-svm-quick": lambda tmp: _verify(tmp, _svm_quick_config(tmp)),
    **{f"denoise-cpus{c}-kappa-{k}": (lambda tmp, c=c, k=k: _denoise(tmp, c, k))
       for c in (1, 3) for k in ("auto", "0.9")},
    **{f"tv_denoise-cpus{c}": (lambda tmp, c=c: _tv_denoise(tmp, c)) for c in (1, 3)},
    **{f"svm-train-{name}": (lambda tmp, s=s: _svm_train(tmp, s))
       for name, s in (("shuffle", True), ("no-shuffle", False))},
}


def digests(case, tmp):
    return {name: hashlib.sha256(blob if isinstance(blob, bytes) else blob.encode()).hexdigest()
            for name, blob in sorted(CASES[case](tmp).items())}


def _stack():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def test_golden_file_pins_every_case():
    assert GOLDEN is not None, f"{GOLDEN_PATH.name} is missing; see the module docstring"
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_equal_the_golden_hashes(tmp_path, case):
    assert GOLDEN is not None, f"{GOLDEN_PATH.name} is missing; see the module docstring"
    assert digests(case, tmp_path) == GOLDEN["cases"][case], (
        f"hashes written under {GOLDEN['stack']}, checked under {_stack()}")


if __name__ == "__main__":
    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = digests(case, Path(tmp))
    GOLDEN_PATH.write_text(json.dumps({"stack": _stack(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}", file=sys.stderr)

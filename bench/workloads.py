"""The four benchmark workloads: inputs, command lines and output checks.

Each workload writes its inputs from the benchmark seed, names the
``sgsmooth`` command lines of one closed-loop request, names the callables
whose first call opens the main phase, and judges the outputs of every
request.  Sizes are fixed here; ``quick`` sizes exist only for smoke runs.
"""

import re
from pathlib import Path

import numpy as np

LASSO_CONFIG = """\
[problem]
kind = lasso
dim = 100
delta = 0.002
noise_var = 0.01
w_true = 0:1.0 1:-1.0
a_mc_samples = {a_mc_samples}

[run]
mu = 0.001
kappa = 0.999
iterations = {iterations}
record_stride = 250
replications = {replications}
"""

SVM_CONFIG = """\
[problem]
kind = svm
rho = 0.01
mean = 0.75,0.75,0.75
cov_scale = 1.0
prior_pos = 0.5
train_size = {train_size}
oracle_iterations = {oracle_iterations}

[run]
mu = 0.01
kappa = auto
iterations = {iterations}
record_stride = 2000
replications = {replications}
"""

# the two criterion-5 configs of tests/test_acceptance.py, verbatim
SEED = 20260811

LASSO_VERIFY_CONFIG = f"""
[problem]
kind = lasso
dim = 100
delta = 0.002
noise_var = 0.01
w_true = 0:1.0 1:-1.0
a_mc_samples = 100000

[run]
mu = 0.001
kappa = 0.999
seed = {SEED}

[verify]
pairs = 10000
noise_samples = 20000
probes = 5
seed = 4
"""

SVM_VERIFY_CONFIG = f"""
[problem]
kind = svm
rho = 0.01
mean = 0.75,0.75,0.75
train_size = 50000
oracle_iterations = 20000

[run]
mu = 0.01
kappa = auto
seed = {SEED}

[verify]
pairs = 10000
noise_samples = 20000
probes = 5
seed = 1
"""


def _shrink(text, **values):
    for key, val in values.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {val}", text, flags=re.M)
    return text


# smoke-run substitutes: same keys, a few hundred times less work
_QUICK_CHECKS = {"pairs": 300, "noise_samples": 2000, "probes": 2}
QUICK_VERIFY = [
    (_shrink(LASSO_VERIFY_CONFIG, dim=20, a_mc_samples=5000, **_QUICK_CHECKS), 5),
    (_shrink(SVM_VERIFY_CONFIG, train_size=2000, oracle_iterations=2000, **_QUICK_CHECKS), 4),
]


def _last_csv_row(path):
    if not Path(path).exists():
        return None
    lines = Path(path).read_text(encoding="ascii").splitlines()
    return lines[-1].split(",") if len(lines) > 1 else None


def _summary_value(text, label):
    m = re.search(re.escape(label) + r"\s*=\s*([-+0-9.eE]+|nan|inf)", text)
    return float(m.group(1)) if m else None


class Workload:
    """Base: one request is one or more ``sgsmooth`` commands in sequence."""

    name = ""
    stream = False  # whether ``run`` replications spread over worker processes
    samples = 0  # work items per request, the numerator of samples_per_s

    def __init__(self, quick=False):
        self.quick = quick

    def prepare(self, work, seed, sgsmooth):
        """Write input files under ``work``; keep what the checks need."""
        self.work = Path(work)
        self.seed = seed
        self.sg = sgsmooth

    def commands(self, out, workers):
        raise NotImplementedError

    def boundaries(self):
        """(owner, attribute) pairs whose first call starts the main phase."""
        raise NotImplementedError

    def output_file(self, out):
        """File whose bytes must repeat exactly across requests, or None."""
        return None

    def observe(self, out, stdouts):
        """Cheap readings taken right after a request; one stdout per command."""
        return {}

    def reference(self):
        """Per-seed reference values, computed once after the timed loop."""
        return None

    def judge(self, obs, ref):
        """Quality metrics and failure reasons of one request."""
        return {}, []


class _RunWorkload(Workload):
    stream = True
    config = ""

    def prepare(self, work, seed, sgsmooth):
        super().prepare(work, seed, sgsmooth)
        self.config_path = self.work / f"{self.name}.ini"
        self.config_path.write_text(self.config.format(**self.sizes), encoding="ascii")

    @property
    def samples(self):
        return self.sizes["replications"] * self.sizes["iterations"]

    def commands(self, out, workers):
        return [["run", "--config", str(self.config_path), "--seed", str(self.seed),
                 "--workers", str(workers), "--out", str(out)]]

    def boundaries(self):
        return [(self.sg.engine, "run_replications")]

    def output_file(self, out):
        return Path(out) / "curves.csv"

    def observe(self, out, stdouts):
        row = _last_csv_row(Path(out) / "curves.csv")
        summary = Path(out) / "summary.txt"
        return {
            "final_smoothed": float(row[2]) if row else None,
            "summary": summary.read_text(encoding="ascii") if summary.exists() else "",
        }


class LassoFlagship(_RunWorkload):
    name = "lasso-flagship"
    config = LASSO_CONFIG
    mu = 0.001

    @property
    def sizes(self):
        if self.quick:
            return {"a_mc_samples": 20000, "iterations": 10000, "replications": 2}
        return {"a_mc_samples": 100000, "iterations": 40000, "replications": 4}

    def reference(self):
        # criterion 1: mu (4 delta^2 M + sigma_n^2 Tr/2 + a ||w_true - w*||^2)
        # with the benchmark's own Monte-Carlo estimate of a
        dim = 100
        w_true = np.zeros(dim)
        w_true[0], w_true[1] = 1.0, -1.0
        p = self.sg.problems.LassoProblem(
            delta=0.002, w_true=w_true, cov_h=np.eye(dim), noise_var=0.01
        )
        a = self.sg.theory.estimate_lasso_a(p, self.sizes["a_mc_samples"], seed=self.seed)
        gap = p.w_true - p.optimum()
        return self.mu * (4.0 * p.delta**2 * p.dim + 0.5 * p.noise_var * p.trace
                          + a.value * float(gap @ gap))

    def judge(self, obs, bound):
        if obs["final_smoothed"] is None:
            return {}, ["no curves.csv written"]
        ratio = obs["final_smoothed"] / bound
        reasons = []
        if not ratio < 1.0:
            reasons.append(f"bound_ratio {ratio:.4g} >= 1")
        elif not ratio > 0.01:
            reasons.append(f"bound_ratio {ratio:.4g} at or below the 0.01 floor guard")
        return {"bound_ratio": ratio}, reasons


class SvmOracle(_RunWorkload):
    name = "svm-oracle"
    config = SVM_CONFIG
    mu, rho = 0.01, 0.01

    @property
    def sizes(self):
        if self.quick:
            return {"train_size": 1000, "oracle_iterations": 5000, "iterations": 20000,
                    "replications": 8}
        return {"train_size": 5000, "oracle_iterations": 100000, "iterations": 40000,
                "replications": 8}

    def judge(self, obs, ref):
        if obs["final_smoothed"] is None:
            return {}, ["no curves.csv written"]
        wn2 = _summary_value(obs["summary"], "||w_star||^2")
        trace = _summary_value(obs["summary"], "empirical Tr(R_h)")
        if wn2 is None or trace is None:
            return {}, ["summary.txt lacks ||w_star||^2 or Tr(R_h)"]
        bound = self.sg.theory.svm_tight_bound(self.mu, self.rho, wn2, trace).bound
        ratio = obs["final_smoothed"] / bound
        return {"bound_ratio": ratio}, [] if ratio < 1.0 else [f"bound_ratio {ratio:.4g} >= 1"]


class VerifySuites(Workload):
    name = "verify-suites"

    def prepare(self, work, seed, sgsmooth):
        super().prepare(work, seed, sgsmooth)
        suites = QUICK_VERIFY if self.quick else [(LASSO_VERIFY_CONFIG, 5), (SVM_VERIFY_CONFIG, 4)]
        self.paths = []
        for tag, (text, _) in zip(("lasso", "svm"), suites):
            path = self.work / f"verify-{tag}.ini"
            path.write_text(text, encoding="ascii")
            self.paths.append(path)
        self.expected_checks = sum(n for _, n in suites)
        noise = [re.search(r"noise_samples = (\d+)", t).group(1) for t, _ in suites]
        probes = [re.search(r"probes = (\d+)", t).group(1) for t, _ in suites]
        # a sample here is one draw of the noise-moment checks
        self.samples = sum(int(n) * int(p) for n, p in zip(noise, probes))

    def commands(self, out, workers):
        return [["verify", "--config", str(p), "--seed", str(self.seed)] for p in self.paths]

    def boundaries(self):
        theory = self.sg.theory
        return [(theory, a) for a in dir(theory) if a.startswith("verify_")]

    def observe(self, out, stdouts):
        return {"stdouts": stdouts}

    def judge(self, obs, ref):
        passes, reasons, ratios = 0, [], []
        for suite, stdout in zip(("lasso", "svm"), obs["stdouts"]):
            for line in stdout.splitlines():
                passes += line.startswith("PASS ")
                if line.startswith("FAIL "):
                    reasons.append(f"FAIL {suite} {line[5:].split(':')[0]}")
                m = re.search(r"worst ratio ([-+0-9.eE]+|nan|inf)", line)
                if m:
                    ratios.append(float(m.group(1)))
        if passes != self.expected_checks:
            reasons.append(f"{passes}/{self.expected_checks} checks passed")
        return ({"verify_worst_ratio": max(ratios)} if ratios else {}), reasons


def piecewise_image(seed, width, height):
    """8-bit piecewise-constant test image: a background and random rectangles."""
    rng = np.random.default_rng(seed)
    px = np.full((height, width), float(rng.integers(32, 224)))
    for _ in range(12):
        r0, c0 = rng.integers(0, height - 16), rng.integers(0, width - 16)
        r1 = r0 + rng.integers(16, height // 2)
        c1 = c0 + rng.integers(16, width // 2)
        px[r0:r1, c0:c1] = float(rng.integers(0, 256))
    return px.astype(np.uint8)


class TvDenoise(Workload):
    name = "tv-denoise"
    iterations = 300

    @property
    def shape(self):
        return (96, 128) if self.quick else (512, 768)

    def prepare(self, work, seed, sgsmooth):
        super().prepare(work, seed, sgsmooth)
        height, width = self.shape
        self.clean = self.work / "clean.pgm"
        with open(self.clean, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(piecewise_image(seed, width, height).tobytes())

    @property
    def samples(self):
        # a sample here is one pixel update
        return self.shape[0] * self.shape[1] * self.iterations

    def commands(self, out, workers):
        return [["denoise", "--clean", str(self.clean), "--noise-std", "0.1",
                 "--lam", "0.08", "--mu", "0.002", "--iterations", str(self.iterations),
                 "--seed", str(self.seed), "--out", str(out)]]

    def boundaries(self):
        return [(self.sg.problems, "tv_subgradient_step")]

    def output_file(self, out):
        return Path(out) / "denoised.pgm"

    def observe(self, out, stdouts):
        return {"stdout": "".join(stdouts)}

    def judge(self, obs, ref):
        m = re.search(r"\(gain ([-+0-9.eE]+|nan|inf) dB\)", obs["stdout"])
        if m is None:
            return {}, ["no PSNR gain printed"]
        gain = float(m.group(1))
        return {"psnr_gain_db": gain}, [] if gain >= 3.0 else [f"psnr_gain_db {gain} < 3"]


WORKLOADS = {cls.name: cls for cls in (LassoFlagship, SvmOracle, VerifySuites, TvDenoise)}

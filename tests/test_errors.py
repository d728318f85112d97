import ast
import re
from pathlib import Path

import numpy as np
import pytest

from sgsmooth import engine
from sgsmooth.errors import NumericError, trap_divergence

SRC = Path(__file__).resolve().parent.parent / "src" / "sgsmooth"


def test_trap_turns_overflow_and_invalid_into_numeric_error():
    errstate = np.geterr()
    big = np.array([1e308])
    with pytest.raises(NumericError, match=r"^overflow encountered in multiply: step 3$"):
        with trap_divergence("step 3"):
            big * 10.0
    assert np.geterr() == errstate
    inf = np.array([np.inf])
    with pytest.raises(NumericError, match=r"^invalid value encountered in subtract: block$"):
        with trap_divergence("block"):
            inf - inf
    assert np.geterr() == errstate


def test_trap_leaves_finite_arithmetic_and_other_errors_alone():
    errstate = np.geterr()
    with trap_divergence("unused"):
        tiny = np.array([1e-308]) / 1e10  # gradual underflow is not divergence
        assert np.geterr()["over"] == np.geterr()["invalid"] == "raise"
    assert tiny[0] > 0.0 and np.geterr() == errstate
    with pytest.raises(KeyError):
        with trap_divergence("unused"):
            raise KeyError("passes through")
    assert np.geterr() == errstate


# np.errstate is allowed only where its use is the contract: the trap itself
# and a PSNR whose overflowing MSE is -inf.  Code that ignores overflow and
# scans for non-finite values afterwards goes through trap_divergence instead.
ERRSTATE_SITES = sorted([
    ("data.py", "psnr"),
    ("errors.py", "trap_divergence"),
])


def _errstate_sites(path):
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("errstate", "seterr"):
            sites.append((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return sites


def test_errstate_appears_only_in_the_trap_and_psnr():
    sites = sorted(site for path in SRC.glob("*.py") for site in _errstate_sites(path))
    assert sites == ERRSTATE_SITES


# The engine's fork of its sampling processes is the one way src/ starts a
# process: no pool, no subprocess, and multiprocessing only in engine.py.
def _imported_modules(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_only_the_engine_starts_processes():
    imports = {path.name: _imported_modules(path) for path in SRC.glob("*.py")}
    assert imports  # the scan found the sources
    for name, modules in imports.items():
        roots = {module.split(".")[0] for module in modules}
        assert not roots & {"concurrent", "subprocess"}, name
    assert sorted(n for n, modules in imports.items() if "multiprocessing" in modules) == [
        "engine.py"]


# kappa = auto, the theory's rate, is settled where it is configured, in the
# command line: the engine takes a number and must not learn the policy again
def test_the_engine_has_no_auto_kappa():
    tree = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert strings  # the scan found the docstrings at least
    assert [s for s in strings if re.search(r"\bauto\b", s)] == []
    assert not hasattr(engine, "resolve_kappa")


def _is_one(node):
    return isinstance(node, ast.Constant) and node.value == 1


# one smoothing recursion, Z = kappa Z + w read as Z / S: the older form
# w_bar <- (1 - 1/S) w_bar + w / S must not come back beside it
def test_there_is_one_smoothing_recursion():
    assert not hasattr(engine, "smooth_in_place")
    paths, found = list(SRC.glob("*.py")), []
    assert paths  # the scan found the sources
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and _is_one(node.left) and isinstance(node.right, ast.BinOp)
                    and isinstance(node.right.op, ast.Div) and _is_one(node.right.left)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

import os
import subprocess
import sys
from pathlib import Path

import pytest

from idemalg import fixtures
from idemalg.algebra import validate_algebra


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh Python with this package importable, capturing its
    output; a run that outlasts the timeout raises, so a hang fails."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def run_optimized():
    """Run Python source under `python -O` (asserts stripped) with this
    package importable; return its stdout, failing on a nonzero exit."""
    def run(code: str, timeout: float = 60) -> str:
        done = _python(["-O", "-c", code], timeout)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture
def run_cli():
    """Run the command line in a fresh Python, with a timeout of 5 s;
    return its exit code, stdout and stderr."""
    def run(*argv: str) -> tuple[int, str, str]:
        done = _python(["-m", "idemalg.cli", *argv], 5)
        return done.returncode, done.stdout, done.stderr

    return run


@pytest.fixture
def a_ne():
    return fixtures.no_edge()


@pytest.fixture
def sl2():
    return fixtures.sl2()


@pytest.fixture
def mj2():
    return fixtures.mj2()


@pytest.fixture
def z3a():
    return fixtures.z3_affine()


@pytest.fixture
def a_nms():
    return fixtures.no_majority_symmetry()


@pytest.fixture
def c_nef():
    return fixtures.no_edge_factor()


@pytest.fixture
def trivial():
    return validate_algebra("trivial", 1, [("e", 1, [0])])


def majority_mm():
    """Two elements carrying both a majority and a minority basic operation;
    its pair is a majority edge whose clone contains a minority term."""
    maj = [1 if x + y + z >= 2 else 0
           for x in range(2) for y in range(2) for z in range(2)]
    mnr = [x ^ y ^ z
           for x in range(2) for y in range(2) for z in range(2)]
    return validate_algebra("mm2", 2, [("maj", 3, maj), ("mnr", 3, mnr)])


@pytest.fixture
def mm2():
    return majority_mm()

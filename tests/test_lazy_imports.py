"""A CLI process loads numpy only for the commands that build arrays.

Each check runs in a fresh interpreter, as a shell user's command does, so
no module imported by another test is already loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_importing_the_cli_loads_no_numpy():
    assert fresh("import sys, divisorlab.cli; print('numpy' in sys.modules)") == "False"


def test_importing_remainder_loads_no_process_pool():
    # the contour sweep imports them when it runs; remainder imports laurent
    assert fresh("import sys, divisorlab.remainder; "
                 "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)") \
        == "False False"


@pytest.mark.parametrize("argv, loads_numpy", [
    (["constants"], False),
    (["theta-opt"], False),
    (["bounds", "--k", "30"], False),
    (["zeta", "--sigma", "0.75", "--t", "1000", "--chi", "--afe"], False),
    (["expsum", "--N", "16", "--t", "1000"], False),
    (["sieve", "--k", "2", "--x-list", "10"], True),  # the check can see numpy
    (["expsum", "--N-list", "64,128", "--t-list", "1e6"], False),
])
def test_commands_load_numpy_only_when_they_use_it(argv, loads_numpy):
    code = ("import contextlib, io, sys\n"
            "from divisorlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print('numpy' in sys.modules)")
    assert fresh(code) == str(loads_numpy)


def test_package_attributes_load_submodules():
    assert fresh("import divisorlab; "
                 "print(divisorlab.sieve.dk_block(2, 1, 10).values.tolist())") \
        == "[1, 2, 2, 3, 2, 4, 2, 4, 3]"
    with pytest.raises(AttributeError):
        import divisorlab
        divisorlab.no_such_module

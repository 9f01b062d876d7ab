"""A CLI process loads numpy only for the commands that build arrays, and runs
OpenBLAS with one thread unless the command is ``moment`` or the user set one.

Each check runs in a fresh interpreter, as a shell user's command does, so
no module imported by another test is already loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(code: str, blas_threads: str | None = None) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout.  The child's
    OPENBLAS_NUM_THREADS is ``blas_threads``, or unset when that is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
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


def cli_call(argv) -> str:
    """Code that runs ``cli.main(argv)`` with its output discarded."""
    return ("import contextlib, io, os, sys\n"
            "from divisorlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


@pytest.mark.parametrize("argv, loads_numpy", [
    (["constants"], False),
    (["theta-opt"], False),
    (["bounds", "--k", "30"], False),
    (["zeta", "--sigma", "0.75", "--t", "1000", "--chi", "--afe"], False),
    (["expsum", "--N", "16", "--t", "1000"], False),
    (["sieve", "--k", "2", "--x-list", "10"], True),  # the check can see numpy
    (["expsum", "--N-list", "64,128", "--t-list", "1e6"], False),
    (["delta", "--k", "2", "--x", "10.5"], True),
    (["fit", "--k", "2", "--grid", "1000:100000:16"], True),
    (["report"], True),  # numpy for its three k = 2 points up to 1000.5
])
def test_commands_load_numpy_only_when_they_use_it(argv, loads_numpy):
    assert fresh(cli_call(argv) + "print('numpy' in sys.modules)") == str(loads_numpy)


# the thread count of the OpenBLAS that numpy loaded, or None, read through ctypes
BLAS_THREADS = """
import ctypes
def blas_threads():
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None
"""


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_cli_runs_one_blas_thread_unless_the_user_set_one(preset, want):
    if want == "2" and (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS runs at most one thread per CPU")
    got = fresh(cli_call(["sieve", "--k", "2", "--x-list", "10"]) + BLAS_THREADS
                + "print(blas_threads())", blas_threads=preset)
    if got == "None":
        pytest.skip("numpy loaded no OpenBLAS")
    assert got == want


def test_moment_leaves_the_blas_threads_unset():
    code = cli_call(["moment", "--k", "1", "--sigma", "2", "--T", "100"])
    assert fresh(code + "print(os.environ.get('OPENBLAS_NUM_THREADS'))") == "None"


def test_library_callers_keep_their_environment():
    code = ("import os\n"
            "before = dict(os.environ)\n"
            "import divisorlab.cli\n"
            "from divisorlab import remainder\n"
            "remainder.delta_scan(2, [10.5, 100.5])\n"
            "print(dict(os.environ) == before)")
    assert fresh(code) == "True"


def test_package_attributes_load_submodules():
    assert fresh("import divisorlab; "
                 "print(divisorlab.sieve.dk_block(2, 1, 10).values.tolist())") \
        == "[1, 2, 2, 3, 2, 4, 2, 4, 3]"
    with pytest.raises(AttributeError):
        import divisorlab
        divisorlab.no_such_module

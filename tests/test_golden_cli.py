"""Golden CLI corpus: the sha256 of the output of every README CLI example.

Each example runs in a fresh interpreter, as a shell user would run it, so
no in-process memo (Stieltjes constants, main-term polynomials) carries over
between commands.  A refactor that is meant to keep behaviour must keep
every digest; a deliberate output change re-pins the digests it moves and
says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divisorlab

SRC = str(Path(divisorlab.__file__).resolve().parents[1])

# (argv, sha256 of stdout), run in an empty working directory
EXAMPLES = [
    (["constants"],
     "31212399b32f936d1326059ed17fc2395c2194dcb6ec9bf1606ce23255330767"),
    (["constants", "--B", "4.45"],
     "0a933b7437664a50df63299265c1cbb9a9c70b0e0bf41e0ac70b2b78b6aa5a65"),
    (["theta-opt", "--B", "0.4918"],
     "a678b1a106a7b704268978835023ee9838089877f9b3a3fff5de07b9949096f6"),
    (["bounds", "--k-list", "30,40,100", "--which", "both"],
     "619140b626805630ecd536472e960f1a380db892f5fdd83f8396b79844786572"),
    (["sieve", "--k", "3", "--x-list", "10,100,100000"],
     "bec7b7aac82851e52e04b83b9c5b3e1224bce5bf5f5daee1d85c9830fe8b05de"),
    (["delta", "--k", "2", "--x", "10.5"],
     "ddfd905d7e295a705653766b1847e1e26ca06e1329b1625b735e64f85ae40782"),
    (["delta", "--k", "2", "--grid", "1000:100000:16", "--format", "json",
      "--output", "delta.json"],
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["fit", "--k", "2", "--grid", "10000:10000000:32"],
     "f2a2dfabb3985a58653b730708710ef0c3c3b5e2c58b17542dafce3d17abd235"),
    (["signs", "--k", "2", "--X0", "1000", "--X1", "100000", "--C", "5"],
     "d90fba3cb69cadc3fd36b11efe37af4b2db00d70f6365651b6bc292595273f5e"),
    (["meansquare", "--k", "1", "--x", "10000"],
     "b52c9f02486e5f0796accf31c66c2072a965ee559831c13b5ae2a1d47d247d4e"),
    (["expsum", "--N-list", "256,1024,4096", "--t-list", "1e6,1e8"],
     "f8e3c904b7d97ce048683fcb68f609511df324fdfa9caf26c33768cf2adb1250"),
    (["zeta", "--sigma", "0.75", "--t", "1000", "--chi", "--afe"],
     "8f0141f4868c645f7fb076d690cc56f85a49cf55acec995d526e1dd2f6fd0d6f"),
    (["moment", "--k", "1", "--sigma", "2", "--T", "10000"],
     "f8a094cb32900e370821ff8e932cd53a9cb7424b8a2df7a19cb9b837612471ef"),
    (["report"],
     "e915b29bcc1811c406d90997a4ec4a15cfa3659ef3556cd22cd723ff9fef0a2a"),
]
# the file the JSON delta example writes with --output
DELTA_JSON = "d4c9029a1e336f66ab2e512c5f83548496c0c6ed3723f7257069f3a1647a5b28"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_example(argv, want, tmp_path, blas_threads):
    """Run one example with OPENBLAS_NUM_THREADS set to ``blas_threads``, or
    unset when that is None, and check its digests."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DIVISORLAB_CACHE", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-m", "divisorlab.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert _sha(proc.stdout) == want
    if "--output" in argv:
        assert _sha((tmp_path / "delta.json").read_bytes()) == DELTA_JSON


IDS = [f"{i}-{a[0]}" for i, (a, _) in enumerate(EXAMPLES)]


@pytest.mark.parametrize("argv, want", EXAMPLES, ids=IDS)
def test_readme_example_output_is_pinned(argv, want, tmp_path):
    # one BLAS thread: the moment quadrature's GEMM then sums in a fixed order
    run_example(argv, want, tmp_path, "1")


@pytest.mark.parametrize("argv, want", EXAMPLES, ids=IDS)
def test_readme_example_output_as_shipped(argv, want, tmp_path):
    # the variable unset, as a user runs the CLI: moment at the library's
    # default thread count, every other command at the one thread the CLI sets
    run_example(argv, want, tmp_path, None)

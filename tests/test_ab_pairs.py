"""tools/ab_pairs.py: its exit status reports incorrect outputs and failed
operations, and SIGTERM leaves no export behind.  The git export and the
benchmark runs are stubbed, so no benchmark runs here."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import signal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab_pairs(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.chdir(tmp_path)

    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        return rev
    monkeypatch.setattr(mod, "export", export)
    return mod


def stub_runs(mod, monkeypatch, bad=None):
    """run_once returns a fixed result; ``bad`` = (side, workload, fields)
    overrides the result fields of that side's runs of that workload."""
    def run_once(tree, workload, seed, seconds, trace):
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        if bad and tree.name == bad[0] and workload == bad[1]:
            result.update(bad[2])
        return {"result": result, "facts": {}}
    monkeypatch.setattr(mod, "run_once", run_once)


ARGS = ["--parent", "p", "--change", "c", "--pr", "0",
        "--set", "remainder-sieve:1:2", "--set", "residue-constants:1:2"]


def test_ab_pairs_exits_0_on_correct_runs(ab_pairs, monkeypatch, capsys):
    stub_runs(ab_pairs, monkeypatch)
    assert ab_pairs.main(ARGS) == 0
    assert "incorrect" not in capsys.readouterr().err
    out = json.loads(Path("BENCH_0.json").read_text())
    assert all(s["all_correct"] for s in out["sets"].values())


@pytest.mark.parametrize("bad", [
    ("change", "residue-constants", {"correct": False}),
    ("parent", "residue-constants", {"failed": 1}),
])
def test_ab_pairs_exits_1_and_names_the_set(ab_pairs, monkeypatch, capsys, bad):
    stub_runs(ab_pairs, monkeypatch, bad)
    assert ab_pairs.main(ARGS) == 1
    err = capsys.readouterr().err
    assert "residue-constants seed=1 trace=0" in err
    assert "remainder-sieve" not in err
    # every set is still recorded
    out = json.loads(Path("BENCH_0.json").read_text())
    assert len(out["sets"]) == 2


def test_ab_pairs_sigterm_removes_the_exports(ab_pairs, monkeypatch):
    trees = []

    def run_once(tree, workload, seed, seconds, trace):
        trees.append(tree)
        assert tree.is_dir()
        os.kill(os.getpid(), signal.SIGTERM)
        raise AssertionError("SIGTERM did not stop the run")
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    def default(signum, frame):  # stands in for termination, so pytest survives
        raise RuntimeError("ab_pairs installed no SIGTERM handler")
    previous = signal.signal(signal.SIGTERM, default)
    try:
        with pytest.raises(SystemExit) as exc:
            ab_pairs.main(ARGS)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert exc.value.code == 128 + signal.SIGTERM
    assert len(trees) == 1
    assert not trees[0].parent.exists()

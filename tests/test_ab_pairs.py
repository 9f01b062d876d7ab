"""tools/ab_pairs.py: its exit status reports incorrect outputs, failed
operations and failed runs, a failed run does not stop the others, SIGTERM
leaves no export behind, it records per-operation medians from each run's
result file, a parent-against-parent control series gives each metric a
noise band, and each tree's ``src/`` lines are counted per module.  The git export and the benchmark runs
are stubbed, so no benchmark runs here."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import signal
import subprocess
from pathlib import Path
from types import SimpleNamespace

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
    overrides the result fields of that side's runs of that workload.  The
    operation "cold:a" takes 0.1 s more on the parent side, and 0.1 s more
    again in each later run of a side."""
    seen = []

    def run_once(tree, workload, seed, seconds, trace):
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        if bad and tree.name == bad[0] and workload == bad[1]:
            result.update(bad[2])
        seen.append((tree.name, workload))
        t = 0.1 * seen.count((tree.name, workload)) + (0.1 if tree.name == "parent" else 0)
        return {"result": result, "facts": {},
                "ops": {"cold:a": {"wall_s": t, "cpu_s": 2 * t}}}
    monkeypatch.setattr(mod, "run_once", run_once)


ARGS = ["--parent", "p", "--change", "c", "--pr", "0",
        "--set", "remainder-sieve:1:2", "--set", "residue-constants:1:2"]


def test_ab_pairs_exits_0_on_correct_runs(ab_pairs, monkeypatch, capsys):
    stub_runs(ab_pairs, monkeypatch)
    assert ab_pairs.main(ARGS) == 0
    assert "incorrect" not in capsys.readouterr().err
    out = json.loads(Path("BENCH_0.json").read_text())
    assert all(s["all_correct"] for s in out["sets"].values())
    # two runs a side: parent 0.2 and 0.3 s, change 0.1 and 0.2 s
    op = out["sets"]["remainder-sieve seed=1 trace=0"]["ops"]["cold:a"]
    assert op["wall_s"] == pytest.approx({"parent": 0.25, "change": 0.15})
    assert op["cpu_s"] == pytest.approx({"parent": 0.5, "change": 0.3})


def test_ab_pairs_counts_src_lines_per_module(ab_pairs, monkeypatch):
    def export(rev, dest):
        pkg = dest / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text("x = 1\ny = 2\n" if rev == "p" else "x = 1\n")
        (pkg / "b.py").write_text("z = 3\n\n\nw = 4\n")
        (pkg / "notes.txt").write_text("not a module\n")
        return rev
    monkeypatch.setattr(ab_pairs, "export", export)
    stub_runs(ab_pairs, monkeypatch)
    assert ab_pairs.main(ARGS) == 0
    out = json.loads(Path("BENCH_0.json").read_text())
    assert out["src_module_lines"] == {
        "parent": {"pkg.__init__": 0, "pkg.a": 2, "pkg.b": 4},
        "change": {"pkg.__init__": 0, "pkg.a": 1, "pkg.b": 4}}
    assert out["src_lines"] == {"parent": 6, "change": 5}


def test_run_once_reads_each_operations_fastest_round(ab_pairs, monkeypatch, tmp_path):
    """Per ``pass:label``, the smallest wall_s and cpu_s of the untraced rounds
    (each minimum on its own); traced rounds are left out."""
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}

    def op(pass_name, label, wall, cpu):
        return {"pass": pass_name, "label": label, "wall_s": wall, "cpu_s": cpu,
                "error": None, "digest": "d"}
    saved = {"facts": {"nproc": 2, "unlisted": 1}, "result": result, "rounds": {
        "plain": [{"ops": [op("cold", "x", 0.3, 0.5), op("warm", "x", 0.2, 0.2)]},
                  {"ops": [op("cold", "x", 0.4, 0.4), op("warm", "x", 0.1, 0.3)]}],
        "trace": [{"ops": [op("cold", "x", 0.01, 0.01), op("warm", "x", 0.01, 0.01)]}]}}
    tree = tmp_path / "tree"
    (tree / "perfbench" / "out").mkdir(parents=True)
    (tree / "perfbench" / "out" / "cli-session-seed3-trace0.json").write_text(json.dumps(saved))

    def run(cmd, cwd, capture_output, text):
        assert cwd == tree and cmd[cmd.index("--seed") + 1] == "3"
        return subprocess.CompletedProcess(cmd, 0, "rounds: 2\n" + json.dumps(result) + "\n", "")
    monkeypatch.setattr(ab_pairs, "subprocess", SimpleNamespace(run=run))
    got = ab_pairs.run_once(tree, "cli-session", 3, 26, 0)
    assert got["result"] == result
    assert got["facts"]["nproc"] == 2 and "unlisted" not in got["facts"]
    assert got["ops"] == {"cold:x": {"wall_s": 0.3, "cpu_s": 0.4},
                          "warm:x": {"wall_s": 0.1, "cpu_s": 0.2}}


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


def fail_runs(mod, monkeypatch, failing):
    """Wrap the stubbed run_once: the calls numbered in ``failing`` (1-based,
    over the whole session) raise RunFailed instead of running."""
    run_once, calls = mod.run_once, []

    def wrapped(tree, workload, seed, seconds, trace):
        calls.append(tree.name)
        if len(calls) in failing:
            raise mod.RunFailed(1, "Traceback\nworker crashed\n")
        return run_once(tree, workload, seed, seconds, trace)
    monkeypatch.setattr(mod, "run_once", wrapped)


def test_ab_pairs_records_a_failed_run_and_carries_on(ab_pairs, monkeypatch, capsys):
    stub_runs(ab_pairs, monkeypatch)
    fail_runs(ab_pairs, monkeypatch, {1})  # pair 1 of remainder-sieve, change side
    assert ab_pairs.main(ARGS) == 1
    err = capsys.readouterr().err
    assert "remainder-sieve seed=1 trace=0" in err and "residue-constants" not in err
    out = json.loads(Path("BENCH_0.json").read_text())
    s = out["sets"]["remainder-sieve seed=1 trace=0"]
    assert s["failed_runs"] == [{"side": "change", "pair": 1, "exit_code": 1,
                                 "stderr_tail": "Traceback\nworker crashed\n"}]
    wall = s["metrics"]["wall_s"]
    assert wall["parent_runs"] == [1.0, 1.0] and wall["change_runs"] == [None, 1.0]
    assert wall["change"]["median"] == 1.0 and wall["change_wins"] == 0
    assert s["ops_attempted"] == {"parent": 8, "change": 4, "control": 8}
    # the change's one completed run took 0.1 s
    assert s["ops"]["cold:a"]["wall_s"] == pytest.approx({"parent": 0.25, "change": 0.1})
    later = out["sets"]["residue-constants seed=1 trace=0"]
    assert later["failed_runs"] == [] and len(later["metrics"]["wall_s"]["change_runs"]) == 2


def test_ab_pairs_records_a_side_whose_every_run_failed(ab_pairs, monkeypatch, capsys):
    stub_runs(ab_pairs, monkeypatch)
    fail_runs(ab_pairs, monkeypatch, {1, 6})  # both change runs of remainder-sieve
    assert ab_pairs.main(ARGS) == 1
    out = json.loads(Path("BENCH_0.json").read_text())
    s = out["sets"]["remainder-sieve seed=1 trace=0"]
    assert [r["side"] for r in s["failed_runs"]] == ["change", "change"]
    assert s["metrics"] == {} and s["ops"] == {}
    assert out["sets"]["residue-constants seed=1 trace=0"]["metrics"]


def test_ab_pairs_records_the_control_band(ab_pairs, monkeypatch):
    """Pair i runs the parent between the change and the control, alternating
    which of them goes first; the control's median gap, the interquartile
    range of its pair gaps and its wins give each metric a noise band."""
    walls = {"parent": [1.0, 1.2, 1.1, 1.0], "control": [1.1, 1.0, 1.2, 1.3],
             "change": [0.8, 0.9, 0.7, 1.0]}
    order = []

    def run_once(tree, workload, seed, seconds, trace):
        order.append(tree.name)
        wall = walls[tree.name][order.count(tree.name) - 1]
        return {"result": {"correct": True, "attempted": 4, "failed": 0,
                           "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                       "cpu_s": {"value": 1.0, "unit": "s"}}},
                "facts": {}, "ops": {"cold:a": {"wall_s": wall, "cpu_s": wall}}}
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main(["--parent", "p", "--pr", "0", "--set", "zeta-quadrature:1:4"]) == 0
    assert order == ["change", "parent", "control", "control", "parent", "change"] * 2
    s = json.loads(Path("BENCH_0.json").read_text())["sets"]["zeta-quadrature seed=1 trace=0"]
    wall = s["metrics"]["wall_s"]
    assert wall["parent"]["median"] == pytest.approx(1.05)
    assert wall["change"]["median"] == pytest.approx(0.85) and wall["change_wins"] == 3
    # control gaps 0.1, -0.2, 0.1, 0.3: quartiles 0.025 and 0.15
    control = wall["control"]
    assert control["median"] == pytest.approx(1.15)
    assert control["median_gap"] == pytest.approx(0.1)
    assert control["pair_gap_iqr"] == pytest.approx(0.125)
    assert control["band"] == pytest.approx(0.225) and control["wins"] == 1
    assert control["runs"] == walls["control"]
    assert wall["median_gap_exceeds_parent_iqr"] is True
    assert wall["median_gap_exceeds_control_band"] is False  # 0.2 < 0.225
    # identical sides: a zero gap, a zero band, and nothing exceeds it
    cpu = s["metrics"]["cpu_s"]
    assert cpu["control"]["band"] == 0 and cpu["control"]["wins"] == 0
    assert cpu["median_gap_exceeds_control_band"] is False
    assert s["ops_attempted"] == {"parent": 16, "change": 16, "control": 16}
    assert set(s["ops"]["cold:a"]["wall_s"]) == {"parent", "change"}


def test_run_once_raises_run_failed_on_a_non_zero_exit(ab_pairs, monkeypatch, tmp_path):
    def run(cmd, cwd, capture_output, text):
        return subprocess.CompletedProcess(cmd, 1, "", "x" * 3000 + "deadline reached\n")
    monkeypatch.setattr(ab_pairs, "subprocess", SimpleNamespace(run=run))
    with pytest.raises(ab_pairs.RunFailed) as exc:
        ab_pairs.run_once(tmp_path, "cli-session", 0, 26, 0)
    assert exc.value.exit_code == 1
    assert len(exc.value.stderr_tail) == 2000
    assert exc.value.stderr_tail.endswith("deadline reached\n")


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

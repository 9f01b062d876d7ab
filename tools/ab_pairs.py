"""Alternating parent/change pairs of the benchmark, summarised in one file.

    python3 tools/ab_pairs.py --parent REV --pr N \\
        --set cli-session:1:10 --set remainder-sieve:1:5 [--set W:SEED:PAIRS:1]

Run from the root of a git checkout.  ``git archive`` exports the parent
revision twice, as the parent and as a control, and the change revision
(``--change``, default HEAD; commit the change first) into a temporary
directory, and ``compileall`` compiles the trees, so no side pays for
bytecode compilation another skips.  Each ``--set WORKLOAD:SEED:PAIRS[:TRACE]``
then runs

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace TRACE

PAIRS times on each side and reads the JSON object on the last line of its
output.  Pair i runs the parent between the change and the control, the
change first when i is even and the control first when it is odd: the real
pairs (parent against change) and the control pairs (parent against the same
code in another directory, an A/A test) interleave, and each alternates
which side runs first.  ``BENCH_<pr>.json`` gets the machine facts, every
run, and per metric each side's median and quartiles (linear
interpolation), the number of pairs the change won (ties count for neither
side), whether the median gap exceeds the parent's interquartile range, and
whether the change is worse than the parent beyond the bound in
BENCHMARK.json; plus the ``src/`` line count of each tree, in total and per
module.  The control
gives the metric's noise floor: its median gap to the parent, the
interquartile range of its per-pair gaps, the pairs it won, and a band, the
sum of the first two.  A gap of medians that the control reaches as well
shows nothing, so each metric also records whether the change's gap exceeds
that band.  To show where a
gain appears, each set also records per side, per operation (``pass:label``),
the median over runs of each run's fastest untraced round, read from the
run's result file ``perfbench/out/<workload>-seed<S>-trace<T>.json``: raw
wall and CPU seconds, without the calibration scaling that perfbench applies
to in-process operations.

A run that exits non-zero (a crashed worker, the run deadline) is recorded
under its set with its side, pair, exit code and the end of its standard
error, and left out of the medians; its pairs count for neither side.  The
exit status is 1, with the sets named on standard error, when any run of any
set failed, is incorrect or has failed operations; every set is still run and
recorded.  SIGTERM exits as an exception would: the running benchmark is
killed and the temporary directory removed.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change", "control")
FACT_KEYS = ("nproc", "cpu_count", "cpu_model", "L2", "L3", "python", "numpy", "mpmath",
             "mpmath_backend", "openblas_threads")


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest``, compile it, return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit], check=True)
    dest.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest / "src"),
                    str(dest / "perfbench")], check=True)
    return commit


def module_lines(tree: Path) -> dict[str, int]:
    """Lines of each ``.py`` file under ``tree/src``, keyed by its dotted module name."""
    src = tree / "src"
    return {".".join(p.relative_to(src).with_suffix("").parts): len(p.read_text().splitlines())
            for p in sorted(src.rglob("*.py"))}


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero."""

    def __init__(self, exit_code: int, stderr_tail: str):
        super().__init__(f"exited {exit_code}:\n{stderr_tail}")
        self.exit_code, self.stderr_tail = exit_code, stderr_tail


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        saved = json.load(fh)
    return {"result": result, "facts": {k: saved["facts"].get(k) for k in FACT_KEYS},
            "ops": fastest_ops(saved["rounds"]["plain"])}


def fastest_ops(rounds: list) -> dict:
    """Per ``pass:label``, the smallest wall_s and cpu_s across ``rounds``."""
    best: dict[str, dict] = {}
    for r in rounds:
        for op in r["ops"]:
            b = best.setdefault(f"{op['pass']}:{op['label']}",
                                {"wall_s": math.inf, "cpu_s": math.inf})
            for key in b:
                b[key] = min(b[key], op[key])
    return best


def op_medians(runs: dict) -> dict:
    """``{"pass:label": {key: {side: median over the side's runs}}}``; each
    side needs at least one run."""
    return {op: {key: {side: statistics.median(r[op][key] for r in runs[side])
                       for side in runs}
                 for key in best}
            for op, best in runs["parent"][0].items()}


def quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def wins(parent: list, other: list, sign: int) -> int:
    """Pairs where ``other`` reads better than the parent."""
    return sum(sign * (a - b) > 0 for a, b in zip(parent, other)
               if a is not None and b is not None)


def summarise(parent: list, change: list, control: list, better: str,
              bound: float | None) -> dict:
    """Quartiles and pair wins of one metric, and the control's noise band;
    ``parent[i]``, ``change[i]`` and ``control[i]`` are pair i's values,
    None where that run failed."""
    sign = 1 if better == "lower" else -1
    p = quartiles([a for a in parent if a is not None])
    c = quartiles([b for b in change if b is not None])
    out = {"parent": p, "change": c,
           "median_ratio": c["median"] / p["median"] if p["median"] else None,
           "change_wins": wins(parent, change, sign),
           "median_gap_exceeds_parent_iqr":
               sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
           "parent_runs": parent, "change_runs": change}
    gaps = [b - a for a, b in zip(parent, control) if a is not None and b is not None]
    if gaps:
        k = quartiles([b for b in control if b is not None])
        g = quartiles(gaps)
        median_gap, iqr = k["median"] - p["median"], g["q3"] - g["q1"]
        out["control"] = {"median": k["median"], "median_gap": median_gap,
                          "pair_gap_iqr": iqr, "wins": wins(parent, control, sign),
                          "band": abs(median_gap) + iqr, "runs": control}
        out["median_gap_exceeds_control_band"] = \
            sign * (p["median"] - c["median"]) > out["control"]["band"]
    if bound is not None:
        out["bound"] = bound
        out["worse_beyond_bound"] = sign * (c["median"] - p["median"]) > bound * abs(p["median"])
    return out


def parse_set(text: str) -> tuple[str, int, int, int]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS[:TRACE], got {text!r}")
    trace = int(parts[3]) if len(parts) == 4 else 0
    return parts[0], int(parts[1]), int(parts[2]), trace


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="change revision (default HEAD)")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--set", dest="sets", type=parse_set, action="append", required=True,
                    metavar="WORKLOAD:SEED:PAIRS[:TRACE]")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    path = Path(f"BENCH_{args.pr}.json")
    out = {"parent_commit": None, "change_commit": None, "machine": None,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                      "--trace T",
           "method": "parent (twice: parent and control) and change exported by git archive "
                     "and compiled by compileall; pair i runs change, parent, control when i "
                     "is even and control, parent, change when it is odd; quartiles by "
                     "linear interpolation; a win is a pair whose change (or control) reads "
                     "better; the control band is the control's median gap plus the "
                     "interquartile range of its pair gaps",
           "sets": {}, "src_lines": {}, "src_module_lines": {}}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        out["parent_commit"] = export(args.parent, trees["parent"])
        out["change_commit"] = export(args.change, trees["change"])
        export(args.parent, trees["control"])
        out["src_module_lines"] = {side: module_lines(trees[side]) for side in ("parent", "change")}
        out["src_lines"] = {side: sum(lines.values())
                            for side, lines in out["src_module_lines"].items()}
        for workload, seed, pairs, trace in args.sets:
            runs = {side: [] for side in SIDES}  # per pair; None where the run failed
            ops = {"parent": [], "change": []}
            failed_runs = []
            for i in range(pairs):
                order = (("change", "parent", "control") if i % 2 == 0
                         else ("control", "parent", "change"))
                for side in order:
                    head = f"{workload} seed={seed} trace={trace} pair {i + 1}/{pairs} {side}"
                    try:
                        run = run_once(trees[side], workload, seed, seconds, trace)
                    except RunFailed as exc:
                        failed_runs.append({"side": side, "pair": i + 1,
                                            "exit_code": exc.exit_code,
                                            "stderr_tail": exc.stderr_tail})
                        runs[side].append(None)
                        print(f"{head}: exited {exc.exit_code}", flush=True)
                        continue
                    out["machine"] = out["machine"] or run["facts"]
                    runs[side].append(run["result"])
                    if side in ops:
                        ops[side].append(run["ops"])
                    print(f"{head}: " + " ".join(f"{k}={v['value']:.4g}"
                                                 for k, v in run["result"]["metrics"].items()),
                          flush=True)
            done = {s: [r for r in runs[s] if r is not None] for s in runs}
            metrics = {}
            if all(ops.values()):
                for name, m in done["parent"][0]["metrics"].items():
                    metrics[name] = {"unit": m["unit"], **summarise(
                        *([None if r is None else r["metrics"][name]["value"]
                           for r in runs[side]] for side in SIDES),
                        better.get(name, "lower"), bounds.get(name) if not trace else None)}
            out["sets"][f"{workload} seed={seed} trace={trace}"] = {
                "workload": workload, "seed": seed, "trace": trace, "pairs": pairs,
                "failed_runs": failed_runs,
                "ops_attempted": {s: sum(r["attempted"] for r in done[s]) for s in done},
                "ops_failed": {s: sum(r["failed"] for r in done[s]) for s in done},
                "all_correct": all(r["correct"] for s in done for r in done[s]),
                "metrics": metrics, "ops": op_medians(ops) if all(ops.values()) else {}}
            path.write_text(json.dumps(out, indent=1) + "\n")  # after every set
            print(f"wrote {path}", flush=True)
    bad = [name for name, s in out["sets"].items()
           if s["failed_runs"] or not s["all_correct"] or any(s["ops_failed"].values())]
    if bad:
        print(f"failed runs, incorrect outputs or failed operations in: {'; '.join(bad)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

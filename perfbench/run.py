"""divisorlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see workloads.py and BENCHMARK.json):

* remainder-sieve, zeta-quadrature, residue-constants: library sessions.
  One round is a fresh interpreter that runs the seeded operation list
  twice: a cold pass with empty in-memory memos and a warm pass after it.
* cli-session: one round runs the seeded command list twice against one
  cache directory that starts empty, every command a fresh process.

A run makes as many rounds as fit in ``--seconds`` at the nominal round
length (``ROUND_S``), at least one.  A pass time is the sum over its
operations of each operation's fastest time across the rounds; times of
library operations are scaled to a reference host speed by a calibration
kernel timed around each of them (see ``best_pass`` and calibration.py),
and raw seconds are printed beside them.  ``setup_s`` is the median, over
every fresh process of the run plus a few import-only probes, of the time
from spawn to ``import divisorlab.cli`` done.

With ``--trace 1`` the run makes one untraced and one traced round and
reports the per-layer metrics instead (see tracer.py).  Every operation's
output is checked after the timed passes; a failed check counts the
operation as failed.  The last line of standard output is one JSON object;
a result file with the run facts, raw rounds and spans goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

N_PROBES = 5
# Seconds one round takes on the host the benchmark was built on.  A run
# makes as many rounds as fit in --seconds at that speed, so every run of a
# workload takes its per-operation minima over the same number of rounds.
ROUND_S = {"remainder-sieve": 6.0, "zeta-quadrature": 5.0, "residue-constants": 12.5,
           "cli-session": 13.0}
MAX_STRETCH = 1.25  # no round starts that is predicted to end past this many --seconds
RUN_DEADLINE_S = 170  # every child is killed past this point of the run

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cold_pass_s": "s", "warm_pass_s": "s",
    "cpu_s": "s", "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    pass


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def best_pass(rounds: list, pass_name: str, key: str, normalised: bool = True) -> float:
    """Sum over a pass's operations of each operation's smallest time across
    rounds.  Operations timed inside a running interpreter carry a
    calibration (``cal_s``) and are host-speed normalised unless
    ``normalised`` is False; whole processes (CLI commands) stay raw.

    The fastest repetition is the estimate least moved by the host's drift
    within a run; the calibration removes most of the drift between runs of
    in-process work (see calibration.py).
    """
    best: dict[str, float] = {}
    for r in rounds:
        for op in r["ops"]:
            if op["pass"] == pass_name:
                v = op[key]
                if normalised and "cal_s" in op:
                    v = calibration.normalise(v, op["cal_s"])
                best[op["label"]] = min(best.get(op["label"], float("inf")), v)
    return sum(best.values())


def round_wall(r: dict) -> float:
    """Raw wall seconds of one round's cold and warm passes."""
    return sum(op["wall_s"] for op in r["ops"] if op["pass"] in ("cold", "warm"))


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.start = time.perf_counter()
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.rounds = {"plain": [], "trace": []}
        self.setups: list[float] = []
        self.facts: dict = {}

    # -------------------------------------------------------------- children

    def spawn(self, args: list, extra_env: dict | None = None) -> subprocess.CompletedProcess:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 1:
            raise BenchError("run deadline reached")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(extra_env or {}))
        env["PERFBENCH_T0"] = repr(time.time())
        return subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              env=env, capture_output=True, timeout=left)

    def probe(self) -> None:
        for _ in range(N_PROBES):
            p = self.spawn(["probe"])
            if p.returncode != 0:
                raise BenchError(f"import probe failed:\n{p.stderr.decode()[-2000:]}")
            data = json.loads(p.stdout)
            self.setups.append(data["setup_s"])
            self.facts = data["facts"]

    # ---------------------------------------------------------------- rounds

    def library_round(self, mode: str) -> dict:
        out = self.tmp / f"round-{len(self.rounds['plain']) + len(self.rounds['trace'])}.json"
        p = self.spawn(["library", self.workload, str(self.seed), mode, str(out)])
        if p.returncode != 0:
            raise BenchError(f"{self.workload} worker failed:\n{p.stderr.decode()[-3000:]}")
        with open(out) as fh:
            data = json.load(fh)
        rnd = {"peak_rss_mib": data["rss_mib"], "setups": [data["setup_s"]],
               "warm_setups": [], "ops": data["ops"]}
        if mode == "trace":
            rnd["trace"] = {"cold": data["passes"]["cold"]["trace"],
                            "warm": data["passes"]["warm"]["trace"], "memory": data["memory"]}
        return rnd

    def cli_pass(self, cmds, mode: str, name: str, cache: Path) -> tuple[list, list]:
        env = {workloads.CACHE_ENV: str(cache)}
        runs = []
        for i, cmd in enumerate(cmds):
            stats = self.tmp / f"{name}-{i}.json"
            t0, c0 = time.perf_counter(), _children_cpu_s()
            p = self.spawn(["cli", str(stats), mode, cmd.label, "--", *cmd.argv], env)
            runs.append((p, stats, time.perf_counter() - t0, _children_cpu_s() - c0))
        ops, stats_list = [], []
        for cmd, (p, stats_path, wall, cpu) in zip(cmds, runs):
            output = p.stdout
            if cmd.output:
                output += Path(cmd.output).read_bytes()
            error = None
            if p.returncode != 0:
                error = f"exit {p.returncode}: {p.stderr.decode()[-500:]}"
            ops.append({"label": cmd.label, "pass": name, "wall_s": wall, "cpu_s": cpu,
                        "error": error, "output": output,
                        "digest": hashlib.sha256(output).hexdigest()})
            with open(stats_path) as fh:
                stats_list.append(json.load(fh))
        return ops, stats_list

    def cli_round(self, mode: str, memory: bool) -> dict:
        cache = self.tmp / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        cmds = workloads.cli_commands(self.seed, str(self.tmp / "out.json"))
        cold_ops, cold = self.cli_pass(cmds, mode, "cold", cache)
        warm_ops, warm = self.cli_pass(cmds, mode, "warm", cache)
        self.check_cli(cmds, cold_ops, warm_ops)
        ops = cold_ops + warm_ops
        rnd = {"peak_rss_mib": max(s["rss_mib"] for s in cold + warm),
               "setups": [s["setup_s"] for s in cold + warm],
               "warm_setups": [s["setup_s"] for s in warm]}
        if mode == "trace":
            rnd["trace"] = {"cold": tracer.merge([s["trace"] for s in cold]),
                            "warm": tracer.merge([s["trace"] for s in warm]), "memory": None}
            if memory:
                shutil.rmtree(cache, ignore_errors=True)
                mem_ops, mem = self.cli_pass(cmds, "memory", "memory", cache)
                ops += mem_ops
                rnd["trace"]["memory"] = tracer.merge([s["trace"] for s in mem])
        for op in ops:
            del op["output"]
        rnd["ops"] = ops
        return rnd

    def check_cli(self, cmds, cold_ops, warm_ops) -> None:
        pinned = (workloads.pinned(self.workload)
                  if self.seed == workloads.DEFAULT_SEED else None)
        for cmd, cold, warm in zip(cmds, cold_ops, warm_ops):
            if cold["error"] or warm["error"]:
                continue
            if warm["output"] != cold["output"]:
                warm["error"] = "warm output is not byte-identical to the cold output"
            if pinned is not None and pinned.get(cmd.label) != cold["digest"]:
                cold["error"] = "output differs from the pinned digest"
            if cmd.check_d2:
                rows = workloads.cli_rows(cold["output"].decode(), bool(cmd.output))
                msg = workloads.check_cli_d2(rows)
                if msg:
                    cold["error"] = msg

    def one_round(self, mode: str, first_trace: bool) -> dict:
        if self.workload == workloads.CLI_WORKLOAD:
            return self.cli_round(mode, memory=first_trace)
        return self.library_round(mode)

    def run(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.probe()
        if self.trace:
            modes = ["plain", "trace"]
        else:
            modes = ["plain"] * max(1, int(self.seconds // ROUND_S[self.workload]))
        t0 = time.perf_counter()
        for i, mode in enumerate(modes):
            elapsed = time.perf_counter() - t0
            if i and elapsed * (i + 1) / i > MAX_STRETCH * self.seconds:
                break  # a host far slower than the reference: keep the run bounded
            first_trace = mode == "trace" and not self.rounds["trace"]
            self.rounds[mode].append(self.one_round(mode, first_trace))

    # ---------------------------------------------------------------- report

    def all_ops(self) -> list:
        return [op for rs in self.rounds.values() for r in rs for op in r["ops"]]

    def end_to_end(self, normalised: bool = True) -> dict:
        plain = self.rounds["plain"]
        setups = self.setups + [s for r in plain for s in r["setups"]]

        def best(pass_name, key):
            return best_pass(plain, pass_name, key, normalised)

        cold, warm = best("cold", "wall_s"), best("warm", "wall_s")
        return {"setup_s": statistics.median(setups), "wall_s": cold + warm,
                "cold_pass_s": cold, "warm_pass_s": warm,
                "cpu_s": best("cold", "cpu_s") + best("warm", "cpu_s"),
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain)}

    def per_layer(self) -> dict:
        plain_wall = self.end_to_end()["wall_s"]
        rows = []
        for r in self.rounds["trace"]:
            t = r["trace"]
            rec = tracer.merge([t["cold"], t["warm"]])
            m = tracer.layer_metrics(rec, t["warm"], t["memory"])
            m["setup.self_s"] = sum(r["setups"])
            m["setup.warm_s"] = sum(r["warm_setups"])
            in_wall_setup = m["setup.self_s"] if self.workload == workloads.CLI_WORKLOAD else 0
            m["trace.unattributed_s"] = round_wall(r) - m["_covered_s"] - in_wall_setup
            m["trace.overhead_s"] = (best_pass([r], "cold", "wall_s")
                                     + best_pass([r], "warm", "wall_s") - plain_wall)
            m["_wall_s"] = round_wall(r)
            m["_cold_main_term_s"] = t["cold"]["fn_time"].get("laurent.main_term_poly", 0.0)
            m["_contour_sweep_s"] = t["cold"]["fn_time"].get("laurent._contour_zetas", 0.0)
            m["_contour_zeta_evals"] = t["cold"]["counters"].get("zeta_evals", 0)
            m["_self"] = tracer.layer_self(rec)
            m["_warm_self"] = tracer.layer_self(t["warm"])
            rows.append(m)
        first_mem = self.rounds["trace"][0]["trace"]["memory"]
        out = {}
        for name in rows[0]:
            if name.startswith("_") or name.endswith("peak_alloc_mib") \
                    or name == "remainder.scan_bytes_per_point":
                out[name] = rows[0][name]
            else:
                out[name] = statistics.median(m[name] for m in rows)
        out["_op_peaks"] = first_mem["op_peaks"] if first_mem else {}
        return out


# ------------------------------------------------------------------- facts

def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return p.stdout.strip() or None


def run_facts(runner: Runner) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), **_cache_sizes(), **runner.facts,
            "git_commit": _git_commit(), "src_sha256": _src_sha256(),
            "workload": runner.workload, "seed": runner.seed,
            "seconds": runner.seconds, "trace": int(runner.trace)}


# ------------------------------------------------------------------ output

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def print_end_to_end(metrics: dict, runner: Runner, attempted: int, failed: int) -> None:
    n = len(runner.rounds["plain"])
    walls = " ".join(_fmt(round_wall(r)) for r in runner.rounds["plain"])
    n_setup = len(runner.setups) + sum(len(r["setups"]) for r in runner.rounds["plain"])
    raw = runner.end_to_end(normalised=False)
    print(f"rounds: {n} (raw wall seconds per round: {walls})")
    print("in-process operation times are host-speed normalised (calibration.py), raw "
          "seconds beside them; process start-up times are raw")
    for name, unit in END_TO_END.items():
        note = {"setup_s": f"median of {n_setup} processes",
                "peak_rss_mib": f"median of {n} rounds"}.get(
                    name, f"sum over operations of the fastest of {n} rounds")
        raw_text = f"raw {_fmt(raw[name])}" if raw[name] != metrics[name] else ""
        print(f"  {name:<16} {_fmt(metrics[name]):>12} {unit:<6} {raw_text:<16} {note}")
    print(f"  {'ops':<16} {attempted:>12} count  operations attempted")
    print(f"  {'error_rate':<16} {_fmt(failed / attempted):>12} ratio  "
          f"{failed} failed of {attempted} ops")
    bench = _load_json(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    base = _load_json(BENCH / "baseline.json")
    ref = base.get("workloads", {}).get(runner.workload, {}).get("end_to_end")
    if ref:
        print(f"seed-commit baseline ({base.get('commit')}), median of its runs:")
        for name, old in ref.items():
            ratio = metrics[name] / old
            flag = "  beyond bound" if abs(ratio - 1) > bounds.get(name, 0.0) else ""
            print(f"  {name:<16} {_fmt(old):>12} -> {_fmt(metrics[name]):<12} "
                  f"x{ratio:.3f}{flag}")


def print_per_layer(metrics: dict, runner: Runner) -> None:
    n_t, n_p = len(runner.rounds["trace"]), len(runner.rounds["plain"])
    baseline = _load_json(BENCH / "baseline.json")
    ref = baseline.get("workloads", {}).get(runner.workload, {}).get("per_layer", {})
    print(f"rounds: {n_t} traced, {n_p} untraced; memory pass in the first traced round; "
          f"seed-commit ({baseline.get('commit')}) value in brackets")
    for name, (unit, base) in tracer.PER_LAYER.items():
        old = f"[{_fmt(ref[name])}]" if name in ref else ""
        text = f"  {name:<32} {_fmt(metrics[name]):>12} {unit:<6} {old:<12}"
        if base == "sieve.n_sweeps":
            text += f" base: {_fmt(metrics['_n_sweeps'])} n-sweeps"
        elif base in metrics:
            text += f" base: {base} = {_fmt(metrics[base])}"
        elif base:
            text += f" base: {base}"
        print(text)
    wall = metrics["_wall_s"]
    print(f"self time per layer, traced round (cold + warm = {_fmt(wall)} s; "
          f"setup {_fmt(metrics['setup.self_s'])} s):")
    for layer in tracer.LAYERS:
        print(f"  {layer:<10} {_fmt(metrics['_self'][layer]):>10} s"
              f"   warm pass {_fmt(metrics['_warm_self'][layer]):>10} s")
    shares = dict(metrics["_self"])
    warm_shares = dict(metrics["_warm_self"])
    if runner.workload == workloads.CLI_WORKLOAD:  # set-up is inside wall_s there
        shares["setup"] = metrics["setup.self_s"]
        warm_shares["setup"] = metrics["setup.warm_s"]
    for what, sh in (("round", shares), ("warm pass", warm_shares)):
        top = max(sh, key=sh.get)
        print(f"dominant in the {what}: {top} ({sh[top] / max(sum(sh.values()), 1e-12):.0%} "
              f"of attributed time)")
    peaks = sorted(metrics["_op_peaks"].items(), key=lambda kv: -kv[1])[:5]
    if peaks:
        print("largest per-operation allocation high-water marks (tracemalloc, "
              "sieve and remainder spans):")
        for label, peak in peaks:
            print(f"  {label:<36} {peak / tracer.MIB:10.1f} MiB")
    rows = []
    if metrics["sieve.ns_per_n_sweep"] and runner.workload == "remainder-sieve":
        rows.append(("_dk_table(k, 1e7): ~1.8 s per sweep = 180 ns per n-sweep",
                     180.0, metrics["sieve.ns_per_n_sweep"], "ns per n-sweep (this run)"))
    if metrics["_cold_main_term_s"] and runner.workload == "residue-constants":
        rows.append(("cold main_term_poly(12, 256): 4.3 s", 4.3, metrics["_cold_main_term_s"],
                     "s, cold main_term_poly(k, 256) for k = 1..12"))
    if metrics["_contour_zeta_evals"]:
        per = metrics["_contour_sweep_s"] / metrics["_contour_zeta_evals"]
        rows.append(("mp.zeta near s = 1: ~5 ms each at 288 bits", 5e-3, per,
                     f"s per mp.zeta at {workloads.CONTOUR_BITS + 32} bits, not 288"))
    if rows:
        print("ROADMAP baseline rows (single runs at the seed commit) next to this run:")
        for what, old, new, unit in rows:
            print(f"  {what:<58} now {_fmt(new)} {unit} (x{new / old:.3f})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "divisorlab" / "__init__.py").is_file():
        print(f"no divisorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        runner.run()
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
    ops = runner.all_ops()
    failed = sum(1 for op in ops if op["error"])
    facts = run_facts(runner)
    print(f"divisorlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()
                               if k not in ("workload", "seed", "seconds", "trace")))
    for op in ops:
        if op["error"]:
            print(f"FAILED {op['pass']} {op['label']}: {op['error']}")
    if args.trace:
        full = runner.per_layer()
        print_per_layer(full, runner)
        metrics = {name: {"value": full[name], "unit": unit}
                   for name, (unit, _) in tracer.PER_LAYER.items()}
    else:
        values = runner.end_to_end()
        print_end_to_end(values, runner, len(ops), failed)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"facts": facts, "result": result, "rounds": runner.rounds}, fh)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

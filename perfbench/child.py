"""Fresh-interpreter processes of the benchmark.

    child.py probe
    child.py library WORKLOAD SEED MODE OUT_JSON
    child.py cli STATS_JSON MODE LABEL -- ARGV...

MODE is ``plain`` (no tracing) or ``trace``; ``cli`` also takes ``memory``.
The parent puts ``src`` on PYTHONPATH and the wall-clock time just before
the spawn in PERFBENCH_T0, so the set-up time a process reports runs from
its spawn to ``import divisorlab.cli`` done.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _setup_s() -> float:
    import divisorlab.cli  # noqa: F401
    return time.time() - float(os.environ["PERFBENCH_T0"])


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """Thread count of the BLAS library numpy loaded, read through ctypes."""
    import ctypes
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


def facts() -> dict:
    import platform
    import mpmath
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "openblas_threads": _blas_threads()}


def probe() -> None:
    setup = _setup_s()
    print(json.dumps({"setup_s": setup, "facts": facts()}))


def library(workload: str, seed: int, mode: str, out_path: str) -> None:
    setup = _setup_s()
    import workloads
    from calibration import calibrate
    from tracer import Tracer
    tr = None
    if mode == "trace":
        tr = Tracer()
        tr.install()
    ops = workloads.library_ops(workload, seed)
    out = {"setup_s": setup, "passes": {}, "ops": []}
    results = {}
    for pass_name in ("cold", "warm"):
        if tr:
            tr.begin_pass()
        cal = calibrate()
        for op in ops:
            t0, c0 = time.perf_counter(), _cpu_s()
            with tr.op(op.label) if tr else contextlib.nullcontext():
                try:
                    value = op.call()
                    error = None
                except Exception as e:  # an operation that raises counts as failed
                    value, error = None, f"{type(e).__name__}: {e}"
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            cal_after = calibrate()
            out["ops"].append({"label": op.label, "pass": pass_name, "wall_s": wall,
                               "cpu_s": cpu, "cal_s": (cal + cal_after) / 2, "error": error})
            cal = cal_after
            results.setdefault(pass_name, {})[op.label] = value
        out["passes"][pass_name] = {"trace": tr.end_pass() if tr else None}
    out["rss_mib"] = _rss_mib()
    if tr:
        tr.begin_pass(memory=True)
        for op in ops:
            t0 = time.perf_counter()
            with tr.op(op.label):
                try:
                    op.call()
                    error = None
                except Exception as e:
                    error = f"{type(e).__name__}: {e}"
            out["ops"].append({"label": op.label, "pass": "memory",
                               "wall_s": time.perf_counter() - t0, "error": error})
        out["memory"] = tr.end_pass()
    _check(workload, seed, ops, results, out["ops"])
    with open(out_path, "w") as fh:
        json.dump(out, fh)


def _check(workload, seed, ops, results, records) -> None:
    """Fill each record's digest and mark failed checks (outside timing)."""
    import workloads
    pinned = workloads.pinned(workload) if seed == workloads.DEFAULT_SEED else None
    by_pass = {(r["label"], r["pass"]): r for r in records}
    for op in ops:
        cold, warm = by_pass[(op.label, "cold")], by_pass[(op.label, "warm")]
        if cold["error"] or warm["error"]:
            continue
        d_cold = workloads.digest(results["cold"][op.label])
        d_warm = workloads.digest(results["warm"][op.label])
        cold["digest"], warm["digest"] = d_cold, d_warm
        if d_warm != d_cold:
            warm["error"] = "warm result differs from cold result"
        if pinned is not None and pinned.get(op.label) != d_cold:
            cold["error"] = "result differs from the pinned digest"
        if op.check is not None:
            msg = op.check(results["cold"][op.label], results["cold"])
            if msg:
                cold["error"] = msg


def cli(stats_path: str, mode: str, label: str, argv: list) -> int:
    setup = _setup_s()
    import divisorlab.cli as dcli
    tr = None
    if mode != "plain":
        from tracer import Tracer
        tr = Tracer()
        tr.install()
        tr.begin_pass(memory=(mode == "memory"))
    with tr.op(label) if tr else contextlib.nullcontext():
        rc = dcli.main(argv)
    stats = {"setup_s": setup, "rss_mib": _rss_mib(), "trace": tr.end_pass() if tr else None}
    sys.stdout.flush()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


def main(argv: list) -> int:
    kind = argv[0]
    if kind == "probe":
        probe()
        return 0
    if kind == "library":
        library(argv[1], int(argv[2]), argv[3], argv[4])
        return 0
    if kind == "cli":
        sep = argv.index("--")
        return cli(argv[1], argv[2], argv[3], argv[sep + 1:])
    raise SystemExit(f"unknown child kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

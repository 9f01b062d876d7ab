"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every function defined at module level in each
layer module of divisorlab (``sieve``, ``laurent``, ``remainder``,
``zetasum``, ``exponents``, ``cli``).  Functions are found by module, not by
name, so a function renamed or added later is still attributed to its layer.
Calls within one layer fold into one span; a call into another layer opens a
child span.  Spans are kept in memory and returned by ``end_pass`` as plain
JSON-ready data; the caller writes them out once.

Memory is measured with ``tracemalloc`` only in a dedicated pass
(``begin_pass(memory=True)``) and only while a ``sieve`` or ``remainder``
span is innermost: tracemalloc slows mpmath's allocation-heavy code about
tenfold, so it is paused inside the other layers and never runs in the
passes whose times are reported.

``layer_metrics`` turns the records of a round into the per-layer metrics
that BENCHMARK.json lists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("sieve", "laurent", "remainder", "zetasum", "exponents", "cli")
MEMORY_LAYERS = frozenset({"sieve", "remainder"})
MIB = float(1 << 20)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Hooks read a call's arguments and result.  ``attrs`` is the span's
# attribute dict when the call opened the span (it is the layer's entry
# call) and None when it was folded into an enclosing span of its layer.

def _sieve_request(n_of):
    def hook(counters, a, result, attrs):
        if attrs is not None:
            n = n_of(a)
            attrs["n"] = n
            attrs["sweeps"] = n * max(a["k"] - 1, 0)
    return hook


def _scan_points(points_of):
    def hook(counters, a, result, attrs):
        if attrs is not None:
            attrs["points"] = points_of(a)
    return hook


def _cache_lookup(hit_of):
    def hook(counters, a, result, attrs):
        counters["cache_lookups"] += 1
        counters["cache_hits"] += int(hit_of(result))
    return hook


def _bytes_written(size_of):
    def hook(counters, a, result, attrs):
        counters["bytes_written"] += size_of(a)
    return hook


def _expsum_terms(counters, a, result, attrs):
    counters["expsum_terms"] += a["N_prime"] - a["N"]


HOOKS = {
    "sieve._dk_table": _sieve_request(lambda a: a["n_max"]),
    "sieve.dk_block": _sieve_request(lambda a: a["hi"] - a["lo"]),
    "sieve.dk_partial_sums": _sieve_request(lambda a: a["x_max"]),
    "remainder.sign_change_scan": _scan_points(
        lambda a: math.floor(a["X1"] - 0.5) - max(1, math.ceil(a["X0"] - 0.5)) + 1),
    "remainder.mean_square": _scan_points(lambda a: int(a["x"])),
    "sieve.load_checkpoints_csv": _cache_lookup(lambda r: r is not None),
    "laurent.load_stieltjes_cache": _cache_lookup(lambda r: r[0] > 0),
    "cli._atomic_write": _bytes_written(lambda a: len(a["text"].encode())),
    "sieve.save_checkpoints_csv": _bytes_written(
        lambda a: _file_size(a["path"]) + _file_size(str(a["path"]) + ".sha256")),
    "laurent.save_stieltjes_cache": _bytes_written(lambda a: _file_size(a["path"])),
    "zetasum.exp_sum": _expsum_terms,
}


class _Frame:
    __slots__ = ("sid", "name", "layer", "start", "child_s", "attrs",
                 "mem_base", "mem_max", "op_peak")

    def __init__(self, sid, name, layer, start):
        self.sid, self.name, self.layer, self.start = sid, name, layer, start
        self.child_s = 0.0
        self.attrs = {}
        self.mem_base = self.mem_max = 0
        self.op_peak = 0


class Tracer:
    """Records spans, per-function call counts and times, and hook counters."""

    def __init__(self):
        self.enabled = False
        self._installed = False
        self._active: Counter = Counter()  # open activations per function
        self._reset(memory=False)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        for layer in LAYERS:
            mod = importlib.import_module(f"divisorlab.{layer}")
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    setattr(mod, name, self._wrap(obj, layer))
        import mpmath
        zeta = mpmath.zeta

        @functools.wraps(zeta)
        def counted_zeta(*args, **kwargs):
            if self.enabled:
                self._rec["counters"]["zeta_evals"] += 1
            return zeta(*args, **kwargs)

        mpmath.zeta = counted_zeta

    def _wrap(self, fn, layer):
        qual = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(qual)
        sig = inspect.signature(fn) if hook else None
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            entry = not stack or stack[-1].layer != layer
            if entry:
                frame = self._open(qual, layer)
            outermost = active[qual] == 0
            active[qual] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active[qual] -= 1
                rec = self._rec
                rec["fn_calls"][qual] += 1
                if outermost:
                    rec["fn_time"][qual] += dt
                if entry:
                    self._close()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self._rec["counters"], bound.arguments, result,
                     frame.attrs if entry else None)
            return result

        return wrapper

    # -------------------------------------------------------------- passes

    def _reset(self, memory: bool) -> None:
        self._rec = {"spans": [], "fn_calls": Counter(), "fn_time": defaultdict(float),
                     "counters": Counter(), "op_peaks": {}}
        self._stack: list[_Frame] = []
        self._active.clear()
        self._memory = memory
        self._mem_offset = 0
        self._next_id = 0

    def begin_pass(self, memory: bool = False) -> None:
        self._reset(memory)
        self.enabled = True

    def end_pass(self) -> dict:
        self.enabled = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        rec = self._rec
        return {"spans": rec["spans"], "fn_calls": dict(rec["fn_calls"]),
                "fn_time": dict(rec["fn_time"]), "counters": dict(rec["counters"]),
                "op_peaks": rec["op_peaks"]}

    @contextlib.contextmanager
    def op(self, label: str):
        """Root frame for one benchmark operation."""
        self._open(label, "op")
        try:
            yield
        finally:
            frame = self._close()
            if self._memory:
                self._rec["op_peaks"][label] = frame.op_peak

    # --------------------------------------------------------------- spans

    def _mem_level(self) -> tuple[int, int]:
        cur, peak = tracemalloc.get_traced_memory()
        return self._mem_offset + cur, self._mem_offset + peak

    def _open(self, name: str, layer: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        base = 0
        if self._memory:
            tracing = tracemalloc.is_tracing()
            if tracing:
                cur, peak = self._mem_level()
                parent.mem_max = max(parent.mem_max, peak)
            want = layer in MEMORY_LAYERS
            if want and not tracing:
                tracemalloc.start()
            elif tracing and not want:
                self._mem_offset = cur
                tracemalloc.stop()
            if want:
                tracemalloc.reset_peak()
                base = self._mem_level()[0]
        frame = _Frame(self._next_id, name, layer, time.perf_counter())
        self._next_id += 1
        frame.mem_base = frame.mem_max = base
        self._stack.append(frame)
        return frame

    def _close(self) -> _Frame:
        end = time.perf_counter()
        frame = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - frame.start
        if self._memory and frame.layer in MEMORY_LAYERS:
            cur, peak = self._mem_level()
            frame.mem_max = max(frame.mem_max, peak)
            frame.attrs["peak"] = frame.mem_max - frame.mem_base
            root = self._stack[0] if self._stack else frame
            root.op_peak = max(root.op_peak, frame.attrs["peak"])
            if parent is not None and parent.layer in MEMORY_LAYERS:
                parent.mem_max = max(parent.mem_max, frame.mem_max)
                tracemalloc.reset_peak()
            else:
                self._mem_offset = cur
                tracemalloc.stop()
                if not any(f.layer in MEMORY_LAYERS for f in self._stack):
                    self._mem_offset = 0
        elif (self._memory and parent is not None and parent.layer in MEMORY_LAYERS
              and not tracemalloc.is_tracing()):
            tracemalloc.start()
        if parent is not None:
            parent.child_s += dur
        self._rec["spans"].append(
            [frame.sid, frame.name, frame.layer, frame.start, end,
             parent.sid if parent is not None else None,
             dur - frame.child_s, frame.attrs,
             parent is None or parent.layer == "op"])
        return frame


# ------------------------------------------------------------------ analysis

def merge(records: list[dict]) -> dict:
    """Sum the records of several passes or processes (spans concatenated)."""
    out = {"spans": [], "fn_calls": Counter(), "fn_time": Counter(),
           "counters": Counter(), "op_peaks": {}}
    for r in records:
        out["spans"].extend(r["spans"])
        out["fn_calls"].update(r["fn_calls"])
        out["fn_time"].update(r["fn_time"])
        out["counters"].update(r["counters"])
        out["op_peaks"].update(r["op_peaks"])
    return out


def layer_self(rec: dict) -> dict[str, float]:
    """Self seconds per layer (span time minus child spans of other layers)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s in rec["spans"]:
        if s[2] in out:
            out[s[2]] += s[6]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Each per-layer metric: name -> (unit, base).  The base names the quantity
# a ratio is taken over; it is printed beside the value.
PER_LAYER = {
    "sieve.calls": ("count", None),
    "sieve.self_s": ("s", None),
    "sieve.n_covered": ("count", None),
    "sieve.ns_per_n": ("ns", "sieve.n_covered"),
    "sieve.ns_per_n_sweep": ("ns", "sieve.n_sweeps"),
    "sieve.peak_alloc_mib": ("MiB", "memory pass"),
    "laurent.self_s": ("s", None),
    "laurent.stieltjes_calls": ("count", None),
    "laurent.stieltjes_s": ("s", None),
    "laurent.main_term_builds": ("count", None),
    "laurent.s_per_main_term": ("s", "laurent.main_term_builds"),
    "laurent.contour_s": ("s", None),
    "laurent.zeta_evals": ("count", None),
    "remainder.self_s": ("s", None),
    "remainder.samples": ("count", None),
    "remainder.us_per_sample": ("us", "remainder.samples"),
    "remainder.scan_points": ("count", None),
    "remainder.ns_per_scan_point": ("ns", "remainder.scan_points"),
    "remainder.peak_alloc_mib": ("MiB", "memory pass"),
    "remainder.scan_bytes_per_point": ("B", "points of the largest scan"),
    "zetasum.self_s": ("s", None),
    "zetasum.moment_s_per_call": ("s", "moment_integral calls"),
    "zetasum.mvt_s_per_call": ("s", "mvt_check calls"),
    "zetasum.expsum_terms_per_s": ("1/s", "exp_sum seconds"),
    "zetasum.zeta_em_s_per_call": ("s", "zeta_em calls"),
    "exponents.calls": ("count", None),
    "exponents.self_s": ("s", None),
    "cli.self_s": ("s", None),
    "cli.warm_self_s": ("s", None),
    "cli.cache_lookups": ("count", None),
    "cli.cache_hit_ratio": ("ratio", "cli.cache_lookups"),
    "cli.bytes_written": ("B", None),
    "setup.self_s": ("s", "processes of the round"),
    "setup.warm_s": ("s", "processes of the warm pass"),
    "op.peak_alloc_mib": ("MiB", "memory pass"),
    "trace.overhead_s": ("s", "untraced wall_s"),
    "trace.unattributed_s": ("s", "traced wall_s"),
}


def layer_metrics(rec: dict, warm: dict, mem: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``rec`` merges the cold and warm passes, ``warm`` is the warm pass
    alone and ``mem`` the memory pass (None when not run).
    """
    spans = rec["spans"]
    calls, fn_time, ctr = rec["fn_calls"], rec["fn_time"], rec["counters"]
    selfs = layer_self(rec)
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s[2]].append(s)

    def attr_sum(layer, key):
        n = t = 0.0
        for s in by_layer[layer]:
            if s[7] and key in s[7]:
                n += s[7][key]
                t += s[6]
        return n, t

    n_cov, t_cov = attr_sum("sieve", "n")
    n_sweep, t_sweep = attr_sum("sieve", "sweeps")
    pts, t_pts = attr_sum("remainder", "points")

    def mem_peak(layer):
        if not mem:
            return 0.0
        return max((s[7]["peak"] for s in mem["spans"]
                    if s[2] == layer and s[7] and "peak" in s[7]), default=0) / MIB

    scan_bpp = 0.0
    if mem:
        scans = [s[7] for s in mem["spans"]
                 if s[2] == "remainder" and s[7] and "points" in s[7] and "peak" in s[7]]
        if scans:
            big = max(scans, key=lambda a: a["points"])
            scan_bpp = _ratio(big["peak"], big["points"])

    def per_call(name):
        return _ratio(fn_time.get(name, 0.0), calls.get(name, 0))

    out = {
        "sieve.calls": len(by_layer["sieve"]),
        "sieve.self_s": selfs["sieve"],
        "sieve.n_covered": n_cov,
        "sieve.ns_per_n": 1e9 * _ratio(t_cov, n_cov),
        "sieve.ns_per_n_sweep": 1e9 * _ratio(t_sweep, n_sweep),
        "sieve.peak_alloc_mib": mem_peak("sieve"),
        "laurent.self_s": selfs["laurent"],
        "laurent.stieltjes_calls": calls.get("laurent.stieltjes", 0),
        "laurent.stieltjes_s": fn_time.get("laurent.stieltjes", 0.0),
        "laurent.main_term_builds": calls.get("laurent.main_term_poly", 0),
        "laurent.s_per_main_term": per_call("laurent.main_term_poly"),
        "laurent.contour_s": fn_time.get("laurent.residue_contour_oracle", 0.0),
        "laurent.zeta_evals": ctr.get("zeta_evals", 0),
        "remainder.self_s": selfs["remainder"],
        "remainder.samples": calls.get("remainder._sample_from_D", 0),
        "remainder.us_per_sample": 1e6 * per_call("remainder._sample_from_D"),
        "remainder.scan_points": pts,
        "remainder.ns_per_scan_point": 1e9 * _ratio(t_pts, pts),
        "remainder.peak_alloc_mib": mem_peak("remainder"),
        "remainder.scan_bytes_per_point": scan_bpp,
        "zetasum.self_s": selfs["zetasum"],
        "zetasum.moment_s_per_call": per_call("zetasum.moment_integral"),
        "zetasum.mvt_s_per_call": per_call("zetasum.mvt_check"),
        "zetasum.expsum_terms_per_s": _ratio(ctr.get("expsum_terms", 0),
                                             fn_time.get("zetasum.exp_sum", 0.0)),
        "zetasum.zeta_em_s_per_call": per_call("zetasum.zeta_em"),
        "exponents.calls": len(by_layer["exponents"]),
        "exponents.self_s": selfs["exponents"],
        "cli.self_s": selfs["cli"],
        "cli.warm_self_s": layer_self(warm)["cli"],
        "cli.cache_lookups": ctr.get("cache_lookups", 0),
        "cli.cache_hit_ratio": _ratio(ctr.get("cache_hits", 0), ctr.get("cache_lookups", 0)),
        "cli.bytes_written": ctr.get("bytes_written", 0),
        "op.peak_alloc_mib": max(mem["op_peaks"].values(), default=0) / MIB if mem else 0.0,
    }
    out["_n_sweeps"] = n_sweep
    out["_covered_s"] = sum(s[4] - s[3] for s in spans if s[2] != "op" and s[8])
    return out

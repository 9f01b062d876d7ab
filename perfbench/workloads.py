"""Seeded inputs, operation lists and output checks of the four workloads.

Every workload is a closed loop with one client: operations run one after
another.  The seed chooses the inputs (grid points, isolated abscissae,
probe points, (sigma, t) pairs, k lists); the program only receives them.
Inputs are drawn from narrow bands so that the amount of work, and hence the
measured time, barely depends on the seed.

Sizes are scaled down from the figures that motivated each workload so that
one round (a cold and a warm pass) fits the benchmark's run length:

* ``remainder-sieve``: ranges up to 1e6 instead of 1e7.
* ``zeta-quadrature``: T near 100 instead of 1e3.
* ``residue-constants``: the contour oracle at 32 bits for k = 12 only,
  instead of 256 bits for every k (its 8192-node mp.zeta sweep alone costs
  ~41 s at 288 bits, ~6 s at 64).
* ``cli-session``: ranges up to 5e5, eleven commands.

Checks run outside the timed interval.  Each returns None or a message; a
message makes the operation count as failed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

DEFAULT_SEED = 0
CACHE_ENV = "DIVISORLAB_CACHE"  # the CLI's cache-directory variable
GOLDEN = Path(__file__).with_name("golden.json")
LIBRARY_WORKLOADS = ("remainder-sieve", "zeta-quadrature", "residue-constants")
CLI_WORKLOAD = "cli-session"
WORKLOADS = LIBRARY_WORKLOADS + (CLI_WORKLOAD,)


class Op(NamedTuple):
    label: str
    module: str          # divisorlab layer module holding the function
    func: str
    args: tuple
    check: Optional[Callable] = None   # check(result, results_by_label) -> str | None

    def call(self):
        mod = importlib.import_module(f"divisorlab.{self.module}")
        return getattr(mod, self.func)(*self.args)


# ------------------------------------------------------------------ digests

def canon(v) -> str:
    """Canonical text of a result.  Floats keep 10 significant digits and mp
    numbers 15, so a change in the last bits of a BLAS reduction or an mp
    summation order does not count as a different answer; integers are exact."""
    import mpmath as mp
    import numpy as np
    if v is None or isinstance(v, (bool, str)):
        return repr(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".10g")
    if isinstance(v, (complex, np.complexfloating)):
        return f"({canon(v.real)},{canon(v.imag)})"
    if isinstance(v, mp.mpf):
        return mp.nstr(v, 15)
    if isinstance(v, mp.mpc):
        return f"({mp.nstr(v.real, 15)},{mp.nstr(v.imag, 15)})"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, np.ndarray):
        if v.dtype.kind in "iu":
            data = np.ascontiguousarray(v, dtype=np.dtype("<i8") if v.dtype.kind == "i"
                                        else np.dtype("<u8")).tobytes()
            return f"nd{v.shape}:{hashlib.sha256(data).hexdigest()}"
        return canon(v.tolist())
    if dataclasses.is_dataclass(v):
        return type(v).__name__ + "(" + ",".join(
            f"{f.name}={canon(getattr(v, f.name))}" for f in dataclasses.fields(v)) + ")"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(canon(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v[k])}" for k in sorted(v)) + "}"
    raise TypeError(f"no canonical form for {type(v).__name__}")


def digest(v) -> str:
    return hashlib.sha256(canon(v).encode()).hexdigest()


def pinned(workload: str) -> dict:
    """Digests of every operation's result at DEFAULT_SEED, by label."""
    with open(GOLDEN) as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------- oracles

def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_d2(samples):
    from divisorlab import sieve
    for s in samples:
        want = sieve.d2_summatory_hyperbola(math.floor(s.x))
        if s.D != want:
            return f"D_2({s.x}) = {s.D}, hyperbola identity gives {want}"
        if not s.half_odd:
            return f"sample at {s.x} is not half-odd"
    return None


def _check_delta1(sample):
    if abs(sample.delta + 0.5) > 1e-9:
        return f"Delta_1({sample.x}) = {sample.delta}, expected -1/2"
    return None


def _check_sign_changes_k2(windows):
    """Re-derive the first reported sign changes exactly: D_2 from the
    hyperbola identity, the main term in mpmath."""
    import mpmath as mp
    from divisorlab import laurent, sieve
    poly = laurent.main_term_poly(2, 192)
    found = [loc for _, loc in windows if loc is not None]
    if not found:
        return "no sign change found"
    for loc in found[:4]:
        signs = []
        for x in (loc, loc + 1.0):
            d = sieve.d2_summatory_hyperbola(math.floor(x))
            with mp.workprec(224):
                signs.append(mp.sign(d - laurent.eval_main_term(poly, x)))
        if signs[0] * signs[1] >= 0:
            return f"no exact sign change of Delta_2 between {loc} and {loc + 1}"
    return None


def _check_mean_square_k1(x):
    def check(value, _):
        n = math.floor(x)
        f = x - n
        want = math.sqrt(((n - 1) / 3 + f ** 3 / 3) / x)
        if _rel(value, want) > 1e-6:
            return f"mean_square(1, {x}) = {value}, closed form gives {want}"
        return None
    return check


def _check_block(positions):
    def check(block, _):
        from divisorlab import sieve
        if block.overflow_flag:
            return "d_k block reports overflow"
        for n in positions:
            got = int(block.values[n - block.lo])
            want = sieve.dk_factor(block.k, n)
            if got != want:
                return f"d_{block.k}({n}) = {got}, factorisation gives {want}"
        return None
    return check


def _check_contour(k, x_probe):
    def check(value, results):
        from divisorlab import laurent
        poly = results[_mtp_label(k)]
        series = laurent.eval_main_term(poly, x_probe) / x_probe
        if _rel(value, series) > 1e-15:
            return (f"contour oracle {value} and series {series} differ by "
                    f"{float(_rel(value, series)):.3g} relative at k={k}")
        return None
    return check


def _check_leading(k):
    def check(poly, _):
        lead = Fraction(1, math.factorial(k - 1))
        if poly.leading_exact != lead:
            return f"exact leading coefficient {poly.leading_exact} != {lead}"
        if _rel(float(poly.coeffs[-1]), float(lead)) > 1e-15:
            return f"leading coefficient {poly.coeffs[-1]} != 1/{k - 1}!"
        return None
    return check


def _check_parseval(k):
    def check(est, _):
        import mpmath as mp
        with mp.workdps(30):
            z4, z8 = mp.zeta(4), mp.zeta(8)
            want = float(z4 if k == 1 else z4 ** 4 / z8)
        if _rel(est.normalized, want) > 0.02:
            return f"moment k={k} sigma=2: {est.normalized} vs Parseval {want}"
        return None
    return check


def _check_mvt(rep, _):
    if not rep.ratio <= 1.1:
        return f"mean-value ratio {rep.ratio} > 1.1"
    return None


def _check_zeta_em(sigma, t):
    def check(z, _):
        import mpmath as mp
        with mp.workprec(160):
            want = mp.zeta(mp.mpc(sigma, t))
            err = float(abs(z - want) / abs(want))
        if err > 1e-15:
            return f"zeta_em({sigma}+{t}i) differs from mpmath.zeta by {err:.3g}"
        return None
    return check


def _check_chi(sigma, t):
    """chi_factor implements pi^{1/2-s} Gamma(s/2) / Gamma((1-s)/2), for which
    the functional equation reads zeta(1-s) = chi(s) zeta(s)."""
    def check(c, _):
        import mpmath as mp
        with mp.workprec(160):
            s = mp.mpc(sigma, t)
            err = float(abs(mp.zeta(1 - s) - c * mp.zeta(s)) / abs(mp.zeta(1 - s)))
        if err > 1e-12:
            return f"functional equation with chi({sigma}+{t}i) off by {err:.3g}"
        return None
    return check


def _check_scan_ok(rep, _):
    return None if rep.ok else f"ck inequality scan failed: {rep.failure}"


# ---------------------------------------------------------------- workloads

def _half_odd(x: float) -> float:
    return math.floor(x) + 0.5


def _geo_grid(rng: random.Random, top: float, n: int = 32) -> list[float]:
    lo = rng.uniform(1e3, 2e3)
    hi = top * rng.uniform(0.99, 1.0)
    return sorted({_half_odd(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)})


def _mtp_label(k: int) -> str:
    return f"main_term_poly k={k}"


def remainder_sieve(rng: random.Random) -> list[Op]:
    """sieve-dominated: dense scans plus sparse isolated points."""
    top = 10 ** 6
    ops = []
    for k in (2, 3, 5):
        grid = _geo_grid(rng, top)
        ops.append(Op(f"delta_scan k={k}", "remainder", "delta_scan", (k, grid),
                      (lambda r, _: _check_d2(r)) if k == 2 else None))
    for k in (1, 2, 3):
        x = _half_odd(top * rng.uniform(0.8 + 0.05 * k, 0.85 + 0.05 * k))
        check = {1: lambda r, _: _check_delta1(r),
                 2: lambda r, _: _check_d2([r])}.get(k)
        ops.append(Op(f"delta_at k={k}", "remainder", "delta_at", (k, x), check))
    for k in (2, 3):
        X0, X1 = rng.uniform(1e3, 1e4), top - rng.uniform(0, 1e3)
        ops.append(Op(f"sign_change_scan k={k}", "remainder", "sign_change_scan",
                      (k, X0, X1),
                      (lambda r, _: _check_sign_changes_k2(r)) if k == 2 else None))
    for k in (1, 2, 3):
        x = 1e5 * rng.uniform(0.98, 1.0)
        ops.append(Op(f"mean_square k={k}", "remainder", "mean_square", (k, x),
                      _check_mean_square_k1(x) if k == 1 else None))
    hi = 500_001 - rng.randrange(1000)
    lo = hi - 100_000
    positions = sorted(rng.sample(range(lo, hi), 20))
    ops.append(Op("dk_block k=10", "sieve", "dk_block", (10, lo, hi),
                  _check_block(positions)))
    return ops


def zeta_quadrature(rng: random.Random) -> list[Op]:
    """zetasum-dominated: float64 panel quadratures and mp zeta values."""
    ops = []
    for k, sigma in ((1, 2.0), (2, 2.0), (1, 0.75)):
        T = 100 + rng.uniform(0, 2)
        ops.append(Op(f"moment_integral k={k} sigma={sigma}", "zetasum",
                      "moment_integral", (k, sigma, T),
                      _check_parseval(k) if sigma == 2.0 else None))
    for mode in ("ones", "dk", "random"):
        T = 100 + rng.uniform(0, 2)
        args = (256, T, mode, 3, rng.randrange(1 << 30))
        ops.append(Op(f"mvt_check {mode}", "zetasum", "mvt_check", args, _check_mvt))
    N_list = [rng.randint(500, 520), rng.randint(2000, 2050)]
    t_list = [1e7 * rng.uniform(1.0, 1.1), 1e9 * rng.uniform(1.0, 1.1)]
    ops.append(Op("expsum_bound_grid", "zetasum", "expsum_bound_grid", (N_list, t_list)))
    sigma = round(rng.uniform(0.55, 0.95), 6)
    t = round(rng.uniform(1000, 1020), 6)
    ops.append(Op("zeta_em", "zetasum", "zeta_em", (sigma, t), _check_zeta_em(sigma, t)))
    ops.append(Op("chi_factor", "zetasum", "chi_factor", (sigma, t), _check_chi(sigma, t)))
    ops.append(Op("afe_residual", "zetasum", "afe_residual", (sigma, t)))
    return ops


CONTOUR_K = (12,)
CONTOUR_BITS = 32


def residue_constants(rng: random.Random) -> list[Op]:
    """laurent-dominated: Stieltjes constants, residues and the contour oracle."""
    from divisorlab import exponents
    ops = [Op(_mtp_label(k), "laurent", "main_term_poly", (k, 256), _check_leading(k))
           for k in range(1, 13)]
    x_probe = round(10 ** rng.uniform(1, 4), 6)
    for k in CONTOUR_K:
        ops.append(Op(f"residue_contour_oracle k={k}", "laurent", "residue_contour_oracle",
                      (k, CONTOUR_BITS, x_probe), _check_contour(k, x_probe)))
    B = round(rng.uniform(4.0, 5.0), 6)
    params = exponents.ExponentParams()
    ks = sorted(rng.sample(range(30, 1000), 5))
    ops.append(Op("optimize_theta", "exponents", "optimize_theta", (B,)))
    ops.append(Op("historical_table", "exponents", "historical_table", ()))
    for k in ks:
        ops.append(Op(f"alpha_bound k={k}", "exponents", "alpha_bound", (k, params)))
        ops.append(Op(f"beta_bound k={k}", "exponents", "beta_bound", (k, params)))
    ops.append(Op("ck_inequality_scan", "exponents", "ck_inequality_scan", (10 ** 4,),
                  _check_scan_ok))
    ops.append(Op("zeta_h_max", "exponents", "zeta_h_max",
                  (rng.randint(500, 2000), 1.0)))
    return ops


_LIBRARY = {"remainder-sieve": remainder_sieve, "zeta-quadrature": zeta_quadrature,
            "residue-constants": residue_constants}


def library_ops(workload: str, seed: int) -> list[Op]:
    return _LIBRARY[workload](random.Random(f"{workload}:{seed}"))


# ------------------------------------------------------------- cli-session

class Command(NamedTuple):
    label: str
    argv: list
    output: Optional[str] = None       # file written by --output, if any
    check_d2: bool = False             # rows carry (x, D) of k = 2


def cli_commands(seed: int, output_path: str) -> list[Command]:
    """A shell user's session: every command is a fresh process.

    Eleven commands, so that a cold and a warm pass of ~0.4 s processes fit
    the run length twice; ``theta-opt`` is left out because ``constants``
    runs the same optimisation, and ``delta --x`` runs once (k = 2, JSON).
    """
    rng = random.Random(f"{CLI_WORKLOAD}:{seed}")
    top = 5 * 10 ** 5
    cmds = [
        Command("constants", ["constants"]),
        Command("bounds", ["bounds", "--k-list",
                           ",".join(map(str, sorted(rng.sample(range(30, 1000), 4))))]),
        Command("report", ["report"]),
    ]
    xs = sorted(rng.sample(range(1000, top), 3)) + [top - rng.randrange(1000)]
    cmds.append(Command("sieve k=2", ["sieve", "--k", "2", "--x-list",
                                      ",".join(map(str, xs))], check_d2=True))
    for k in (2, 3, 5, 8):
        lo = rng.randint(1000, 2000)
        hi = top - rng.randrange(1000)
        cmds.append(Command(f"delta --grid k={k}",
                            ["delta", "--k", str(k), "--grid", f"{lo}:{hi}:16"],
                            check_d2=(k == 2)))
    x2 = _half_odd(top * rng.uniform(0.8, 1.0))
    cmds.append(Command("delta --x k=2 json",
                        ["delta", "--k", "2", "--x", repr(x2), "--format", "json",
                         "--output", output_path], output=output_path, check_d2=True))
    sigma = rng.uniform(0.55, 0.95)
    t = rng.uniform(1000, 1020)
    cmds.append(Command("zeta", ["zeta", "--sigma", f"{sigma:.6f}", "--t", f"{t:.6f}",
                                 "--chi", "--afe"]))
    cmds.append(Command("expsum", ["expsum", "--N-list",
                                   f"{rng.randint(200, 220)},{rng.randint(800, 840)}",
                                   "--t-list", f"{1e7 * rng.uniform(1, 1.1):.1f}"]))
    return cmds


def cli_rows(text: str, is_json: bool) -> list[dict]:
    if is_json:
        return json.loads(text)["rows"]
    body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def check_cli_d2(rows: list[dict]) -> Optional[str]:
    from divisorlab import sieve
    for r in rows:
        n = math.floor(float(r["x"]))
        want = sieve.d2_summatory_hyperbola(n)
        if int(r["D"]) != want:
            return f"D_2({n}) = {r['D']}, hyperbola identity gives {want}"
    return None

"""Batch command-line surface: constants, bounds, sieve tables, remainder
samples, fits, sign scans, mean squares, exponential sums, zeta values and
moment integrals, with CSV/JSON emission.

Configuration comes from an optional key=value file plus command-line flags
(flags win); unknown config keys are rejected.  Every output carries a
metadata header recording inputs and conventions (half-odd sampling flag,
rho orientation, AFE length mode, rounding directions), and no timestamps,
so reruns are byte-identical.  Every file written (output, plot series)
is written atomically (temp file, then rename); a file that cannot be
written exits 2 and leaves no temp file.  No state carries from one run to
the next.

Exit codes: 0 success, 2 precondition violation, 3 numeric self-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

import mpmath as mp

# numpy, sieve and remainder are imported by the commands that use them, so
# constants, bounds, theta-opt, zeta and expsum start without numpy
from . import __version__, exponents, zetasum
from .errors import ConfigError, PreconditionError, SelfCheckError

# --grid sizes above this exit 2: each point costs ~0.3 ms of mp main term and
# envelopes, so `delta --k 2 --grid 10:999999999:20000` takes ~6 s on a 2-CPU
# x86 host, near the ~8 s of a run at the moment cost cap
GRID_POINTS_CAP = 20000

CONVENTIONS = {
    "rho_orientation": "log_t_over_log_N",
    "rounding": "karatsuba_down_exponents_up_thresholds_up",
}

# parsed options that are not inputs of the computation: the metadata's
# params record every other option that has a value
NON_INPUT_KEYS = ("command", "output_format", "output_path", "precision_bits", "config")


# ------------------------------------------------------------ file helpers

def _atomic_write(path, text: str) -> None:
    """Write a temp file beside ``path`` and rename it over ``path``, so a
    reader sees the old file or the new one, never a part.  A failed write
    removes the temp file and raises ConfigError naming ``path``."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write {os.fspath(path)!r}: {e.strerror}") from e


def _jsonable(v):
    if isinstance(v, mp.mpf):
        return float(v)
    if v is None or isinstance(v, (int, str, bool, float)):
        return v
    return str(v)


def _fmt(v) -> str:
    v = _jsonable(v)
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def emit(args, rows: list[dict], conventions: dict) -> str:
    """Render rows in the format ``args`` asks for and write/print them."""
    meta = {
        "tool": "divisorlab",
        "version": __version__,
        "command": args.command,
        "format": args.output_format,
        "precision_bits": args.precision_bits,
        "params": {k: str(v) for k, v in sorted(vars(args).items())
                   if k not in NON_INPUT_KEYS and v is not None},
        "conventions": dict(sorted({**CONVENTIONS, **conventions}.items())),
    }
    if args.output_format == "json":
        payload = {"metadata": meta,
                   "rows": [{k: _jsonable(v) for k, v in r.items()} for r in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# tool={meta['tool']}", f"# version={meta['version']}",
                 f"# command={meta['command']}",
                 f"# precision_bits={meta['precision_bits']}"]
        for k, v in meta["params"].items():
            lines.append(f"# param.{k}={v}")
        for k, v in meta["conventions"].items():
            lines.append(f"# convention.{k}={v}")
        body = io.StringIO()
        if rows:
            cols = list(rows[0].keys())
            writer = csv.writer(body, lineterminator="\n")
            writer.writerow(cols)
            for r in rows:
                writer.writerow([_fmt(r.get(c)) for c in cols])
        text = "\n".join(lines) + "\n" + body.getvalue()
    if args.output_path:
        _atomic_write(args.output_path, text)
    else:
        sys.stdout.write(text)
    return text


# ------------------------------------------------------------------ plots

def _write_plot_series(plot_dir: str, name: str, pairs) -> None:
    """Bare (x, y) CSV series, one file per curve, no header."""
    try:
        os.makedirs(plot_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create plot directory {plot_dir!r}: {e.strerror}") from e
    body = "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in pairs if y is not None)
    _atomic_write(os.path.join(plot_dir, name + ".csv"), body)


# ------------------------------------------------------------ grid parsing

def _parse_grid(spec: str, half_odd: bool) -> list[float]:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as e:
        raise ConfigError(f"grid must be lo:hi:n, got {spec!r}") from e
    if not (1 < lo < hi < math.inf and n >= 2):
        raise ConfigError(f"bad grid bounds {spec!r}")
    if n > GRID_POINTS_CAP:
        raise ConfigError(f"grid of {n} points exceeds the cap of {GRID_POINTS_CAP}")
    import numpy as np
    pts = np.geomspace(lo, hi, n)
    if half_odd:
        xs = sorted({math.floor(p) + 0.5 for p in pts})
    else:
        xs = sorted({float(round(p)) for p in pts})
    return [x for x in xs if x > 1]


def _parse_list(spec: str, cast, flag: str) -> list:
    try:
        values = [cast(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigError(f"bad list {spec!r}: {e}") from e
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    return values


# ---------------------------------------------------------------- commands

def _B(args) -> float:
    """``--B``, or the default B of ``exponents.ExponentParams``."""
    return exponents.ExponentParams.B if args.B is None else args.B


def cmd_constants(args) -> tuple[list[dict], dict]:
    B = _B(args)
    opt = exponents.optimize_theta(B)
    table = exponents.historical_table(args.B_richert, B)
    route = {rep.name: rep for rep in table}
    rows = [
        {"name": "theta_star", "value": opt.theta_star, "reported": opt.theta_star,
         "validity": "maximiser of k1"},
        {"name": "k0_star", "value": opt.k0_star,
         "reported": exponents.report_subtracted_threshold(opt.k0_star),
         "validity": ""},
        {"name": "k1_star", "value": opt.k1_star,
         "reported": exponents.report_subtracted_threshold(opt.k1_star),
         "validity": ""},
        {"name": "two_k1", "value": 2 * opt.k1_star,
         "reported": exponents.report_subtracted_threshold(2 * opt.k1_star),
         "validity": ""},
        {"name": "alpha_k_threshold", "value": 2 * opt.k0_star,
         "reported": exponents.report_k_threshold(2 * opt.k0_star),
         "validity": "k range for the pointwise bound"},
    ]
    for name, source, validity in (
            ("karatsuba_D_alpha", "moment-route(alpha)", "pointwise, large-k limit"),
            ("karatsuba_D_beta", "moment-route(beta)", "mean square, large-k limit"),
            ("karatsuba_D_expsum", "expsum-route(limit)",
             "expsum route, k sufficiently large")):
        rows.append({"name": name, "value": route[source].karatsuba_D_exact,
                     "reported": route[source].karatsuba_D, "validity": validity})
    for rep in table:
        rows.append({"name": f"table:{rep.name}", "value": rep.karatsuba_D_exact,
                     "reported": rep.karatsuba_D, "validity": rep.validity})
    return rows, {}


def cmd_theta_opt(args) -> tuple[list[dict], dict]:
    B = _B(args)
    opt = exponents.optimize_theta(B)
    return [{"B": B, "theta_star": opt.theta_star, "k1_star": opt.k1_star,
             "k0_star": opt.k0_star, "bracket_lo": opt.bracket[0],
             "bracket_hi": opt.bracket[1]}], {}


def cmd_bounds(args) -> tuple[list[dict], dict]:
    params = exponents.ExponentParams(B=_B(args), theta=args.theta, eps0=args.eps0)
    ks = _parse_list(args.k_list, int, "--k-list") if args.k_list else [args.k]
    rows = []
    for k in ks:
        for which, fn in (("alpha", exponents.alpha_bound),
                          ("beta", exponents.beta_bound)):
            if args.which not in (which, "both"):
                continue
            rep = fn(k, params)
            rows.append({"k": k, "bound": which, "exponent": rep.exponent,
                         "exponent_reported": rep.exponent_reported,
                         "karatsuba_D": rep.karatsuba_D,
                         "karatsuba_D_exact": rep.karatsuba_D_exact,
                         "validity": rep.validity})
    return rows, {}


def cmd_sieve(args) -> tuple[list[dict], dict]:
    xs = sorted(set(_parse_list(args.x_list, int, "--x-list")))
    from . import sieve
    return [{"k": args.k, "x": x, "D": D} for x, D in sieve.dk_partial_sums(args.k, xs[-1], xs)], {}


def _delta_rows(k: int, xs: list[float], bits: int) -> list[dict]:
    from . import remainder
    rows = []
    for s in remainder.delta_scan(k, xs, bits):
        row = {"k": k, "x": s.x, "D": s.D, "main": float(s.main),
               "delta": s.delta, "half_odd": s.half_odd}
        if k >= 2:
            env = remainder.envelopes(k, s.x)
            row.update({"conjecture": env.conjecture,
                        "omega_lower": env.omega_lower,
                        "thm1_upper": env.thm1_upper,
                        "tong_window": env.tong_window})
        rows.append(row)
    return rows


def cmd_delta(args) -> tuple[list[dict], dict]:
    if args.grid:
        xs = _parse_grid(args.grid, not args.integer_x)
    else:
        if args.x is None:
            raise ConfigError("delta needs --x or --grid")
        xs = [args.x]
    rows = _delta_rows(args.k, xs, args.precision_bits)
    if args.plot_dir:
        curves = ("delta", "conjecture", "tong_window") if args.k >= 2 else ("delta",)
        for col in curves:
            _write_plot_series(args.plot_dir, f"{col}_k{args.k}",
                               [(r["x"], r[col]) for r in rows])
    mode = "integer" if args.integer_x else "half_odd"
    return rows, {"abscissa_sampling": mode}


def cmd_fit(args) -> tuple[list[dict], dict]:
    from . import remainder
    xs = _parse_grid(args.grid, not args.integer_x)
    samples = remainder.delta_scan(args.k, xs, args.precision_bits)
    slope, err = remainder.fit_exponent(samples, args.drop_below)
    return ([{"k": args.k, "n_samples": len(samples), "slope": slope,
              "stderr": err,
              "drop_below": args.drop_below if args.drop_below is not None else ""}],
            {"abscissa_sampling": "integer" if args.integer_x else "half_odd"})


def cmd_signs(args) -> tuple[list[dict], dict]:
    from . import remainder
    rows = [{"k": args.k, "window_start": w, "change_location": loc,
             "C": args.C}
            for w, loc in remainder.sign_change_scan(args.k, args.X0, args.X1,
                                                     args.C, args.precision_bits)]
    return rows, {"abscissa_sampling": "half_odd"}


def cmd_meansquare(args) -> tuple[list[dict], dict]:
    from . import remainder
    value = remainder.mean_square(args.k, args.x, precision_bits=args.precision_bits)
    return [{"k": args.k, "x": args.x, "mean_square": value}], {}


def cmd_expsum(args) -> tuple[list[dict], dict]:
    if args.N_list:
        if args.t_list is None:
            raise ConfigError("expsum --N-list needs --t-list")
        reports = zetasum.expsum_bound_grid(_parse_list(args.N_list, int, "--N-list"),
                                            _parse_list(args.t_list, float, "--t-list"),
                                            args.precision_bits)
    else:
        if args.N is None or args.t is None:
            raise ConfigError("expsum needs --N and --t, or --N-list and --t-list")
        Np = args.N_prime if args.N_prime is not None else 2 * args.N
        reports = [zetasum.exp_sum(args.N, Np, args.t, args.precision_bits)]
    rows = [{"N": r.N, "N_prime": r.N_prime, "t": r.t,
             "value_re": r.value.real, "value_im": r.value.imag,
             "modulus": r.modulus, "rho": r.rho, "refined_exp": r.refined_exp,
             "hb_exp": r.hb_exp, "ratio_refined": r.ratio_refined,
             "ratio_hb": r.ratio_hb, "trivial": r.trivial}
            for r in reports]
    if args.plot_dir:
        keyed = sorted((r for r in rows if r["rho"] is not None),
                       key=lambda r: r["rho"])
        for col in ("refined_exp", "hb_exp", "ratio_refined"):
            _write_plot_series(args.plot_dir, f"rho_vs_{col}",
                               [(r["rho"], r[col]) for r in keyed])
    return rows, {}


def cmd_zeta(args) -> tuple[list[dict], dict]:
    row = {"sigma": args.sigma, "t": args.t}
    z = zetasum.zeta_em(args.sigma, args.t, args.precision_bits)
    row.update({"zeta_re": float(mp.re(z)), "zeta_im": float(mp.im(z)),
                "zeta_abs": float(abs(z))})
    if args.chi:
        c = zetasum.chi_factor(args.sigma, args.t, args.precision_bits)
        row.update({"chi_re": float(mp.re(c)), "chi_im": float(mp.im(c)),
                    "chi_abs": float(abs(c))})
    conventions = {}
    if args.afe:
        rep = zetasum.afe_residual(args.sigma, args.t, args.precision_bits,
                                   args.afe_length)
        row.update({"afe_residual": rep.residual, "afe_L": rep.L,
                    "afe_chi_ratio": rep.chi_ratio})
        conventions["afe_length"] = rep.length_mode
    return [row], conventions


def cmd_moment(args) -> tuple[list[dict], dict]:
    est = zetasum.moment_integral(args.k, args.sigma, args.T, args.panels)
    return [{"k": est.k, "sigma": est.sigma, "T": est.T,
             "integral": est.integral, "normalized": est.normalized,
             "mu_slope": est.mu_slope}], {}


def cmd_report(args) -> tuple[list[dict], dict]:
    rows, _ = cmd_constants(args)
    for r in rows:
        r["section"] = "constants"
    for d in _delta_rows(2, [10.5, 100.5, 1000.5], args.precision_bits):
        d["section"] = "delta_k2"
        rows.append(d)
    return rows, {"abscissa_sampling": "half_odd"}


COMMANDS = {
    "constants": cmd_constants,
    "theta-opt": cmd_theta_opt,
    "bounds": cmd_bounds,
    "sieve": cmd_sieve,
    "delta": cmd_delta,
    "fit": cmd_fit,
    "signs": cmd_signs,
    "meansquare": cmd_meansquare,
    "expsum": cmd_expsum,
    "zeta": cmd_zeta,
    "moment": cmd_moment,
    "report": cmd_report,
}


# ------------------------------------------------------------- arg parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="divisorlab",
                                description=__doc__.splitlines()[0])
    p.add_argument("--config", help="key=value configuration file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", dest="output_format", choices=("csv", "json"),
                        default="csv")
        sp.add_argument("--output", dest="output_path", default=None)
        sp.add_argument("--precision-bits", dest="precision_bits", type=int,
                        default=192)

    sp = sub.add_parser("constants");  common(sp)
    sp.add_argument("--B", type=float, default=None)
    sp.add_argument("--B-richert", dest="B_richert", type=float, default=exponents.RICHERT_B)

    sp = sub.add_parser("theta-opt"); common(sp)
    sp.add_argument("--B", type=float, default=None)

    sp = sub.add_parser("bounds"); common(sp)
    sp.add_argument("--B", type=float, default=None)
    sp.add_argument("--theta", type=float, default=exponents.ExponentParams.theta)
    sp.add_argument("--eps0", type=float, default=exponents.ExponentParams.eps0)
    sp.add_argument("--k", type=int, default=30)
    sp.add_argument("--k-list", dest="k_list", default=None)
    sp.add_argument("--which", choices=("alpha", "beta", "both"), default="both")

    sp = sub.add_parser("sieve"); common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--x-list", dest="x_list", required=True)

    sp = sub.add_parser("delta"); common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--integer-x", dest="integer_x", action="store_true")
    sp.add_argument("--plot-dir", dest="plot_dir", default=None)

    sp = sub.add_parser("fit"); common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--integer-x", dest="integer_x", action="store_true")
    sp.add_argument("--drop-below", dest="drop_below", type=float, default=None)

    sp = sub.add_parser("signs"); common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--X0", type=float, required=True)
    sp.add_argument("--X1", type=float, required=True)
    sp.add_argument("--C", type=float, default=5.0)

    sp = sub.add_parser("meansquare"); common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--x", type=float, required=True)

    sp = sub.add_parser("expsum"); common(sp)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--N-prime", dest="N_prime", type=int, default=None)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--N-list", dest="N_list", default=None)
    sp.add_argument("--t-list", dest="t_list", default=None)
    sp.add_argument("--plot-dir", dest="plot_dir", default=None)

    sp = sub.add_parser("zeta"); common(sp)
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--chi", action="store_true")
    sp.add_argument("--afe", action="store_true")
    sp.add_argument("--afe-length", dest="afe_length",
                    choices=("sqrt_t_over_2pi", "sqrt_t"),
                    default="sqrt_t_over_2pi")

    sp = sub.add_parser("moment"); common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--panels", type=int, default=None)

    sp = sub.add_parser("report"); common(sp)
    sp.add_argument("--B", type=float, default=None)
    sp.add_argument("--B-richert", dest="B_richert", type=float, default=exponents.RICHERT_B)
    return p


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Translate config-file entries into leading CLI tokens (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError as e:
        raise ConfigError("--config needs a path") from e
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise ConfigError("config file requires a command on the CLI")
    command, after = rest[0], rest[1:]
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    tokens = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line is not key=value: {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        tokens.extend([flag, value])
    # config tokens first so explicit flags override them
    merged = [command] + tokens + after
    # reject unknown keys for this command
    probe = parser.parse_known_args(merged)
    if probe[1]:
        raise ConfigError(f"unknown configuration keys: {probe[1]}")
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0
        if args.precision_bits < zetasum.MIN_PRECISION_BITS:
            raise ConfigError(f"--precision-bits must be >= {zetasum.MIN_PRECISION_BITS} "
                              f"(float64), got {args.precision_bits}")
        # idle OpenBLAS workers spin: one thread, unless set; moment's GEMM gains from two
        if args.command != "moment":
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        rows, conventions = COMMANDS[args.command](args)
        emit(args, rows, conventions)
        return 0
    except PreconditionError as e:
        print(f"precondition violation: {e}", file=sys.stderr)
        return 2
    except SelfCheckError as e:
        print(f"numeric self-check failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

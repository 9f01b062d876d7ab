"""CLI tests: payload equivalence across formats, metadata conventions,
the ignored cache variable and removed flags, failed writes, exit codes.
"""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import divisorlab
from divisorlab import cli, exponents, remainder, sieve
from divisorlab import zetasum
from divisorlab.errors import QuadratureError

SRC = str(Path(divisorlab.__file__).resolve().parents[1])


def run(argv, tmp_path, name="out"):
    path = tmp_path / name
    code = cli.main(argv + ["--output", str(path)])
    return code, (path.read_text() if path.exists() else "")


def parse_csv(text):
    import csv as csvmod
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            k, v = line[2:].split("=", 1)
            meta[k] = v
        else:
            body.append(line)
    reader = list(csvmod.reader(body))
    header, data = reader[0], reader[1:]
    return meta, [dict(zip(header, row)) for row in data]


def test_constants_default_run(tmp_path):
    code, text = run(["constants"], tmp_path)
    assert code == 0
    assert "1.224" in text and "1.421" in text and "1.889" in text
    meta, rows = parse_csv(text)
    assert meta["convention.rho_orientation"] == "log_t_over_log_N"
    names = {r["name"] for r in rows}
    assert "theta_star" in names and "table:karatsuba-1972" in names


def test_constants_richert_B(tmp_path):
    code, text = run(["constants", "--B", "4.45"], tmp_path)
    assert code == 0
    assert "0.282" in text


def test_csv_json_payload_equivalence(tmp_path):
    code_c, text_c = run(["bounds", "--k", "30", "--which", "both"], tmp_path, "b.csv")
    code_j, text_j = run(["bounds", "--k", "30", "--which", "both",
                          "--format", "json"], tmp_path, "b.json")
    assert code_c == 0 and code_j == 0
    _, csv_rows = parse_csv(text_c)
    json_rows = json.loads(text_j)["rows"]
    assert len(csv_rows) == len(json_rows) == 2
    for rc, rj in zip(csv_rows, json_rows):
        for key, vj in rj.items():
            if isinstance(vj, float):
                assert float(rc[key]) == vj
            elif isinstance(vj, int):
                assert int(rc[key]) == vj


def test_delta_command_value(tmp_path):
    code, text = run(["delta", "--k", "2", "--x", "10.5"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert abs(float(rows[0]["delta"]) - 0.689) < 1e-3
    assert rows[0]["half_odd"] == "True"
    assert "conjecture" in rows[0]


def test_delta_integer_mode_metadata(tmp_path):
    code, text = run(["delta", "--k", "2", "--x", "100", "--integer-x"], tmp_path)
    assert code == 0
    meta, rows = parse_csv(text)
    assert meta["convention.abscissa_sampling"] == "integer"
    assert abs(float(rows[0]["delta"]) - 6.0398) < 1e-3


def test_signs_command(tmp_path):
    code, text = run(["signs", "--k", "2", "--X0", "1000", "--X1", "3000",
                      "--C", "5"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert rows and all(r["change_location"] != "" for r in rows)


def test_signs_refuses_a_window_count_over_the_budget(tmp_path):
    code, text = run(["signs", "--k", "1", "--X0", "2", "--X1", "1e9"], tmp_path)
    assert code == 2 and text == ""


def run_fresh(argv, cwd, **env):
    """Exit code and stdout of the CLI in a fresh interpreter, with ``env``
    added to an environment that has no DIVISORLAB_CACHE."""
    env = {**{k: v for k, v in os.environ.items() if k != "DIVISORLAB_CACHE"}, **env}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "divisorlab.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


# the commands that once read a Stieltjes cache, at small sizes
FORMER_CACHE_ARGV = [
    ["delta", "--k", "3", "--x", "1000.5"],
    ["fit", "--k", "2", "--grid", "1000:100000:8"],
    ["signs", "--k", "2", "--X0", "1000", "--X1", "3000"],
    ["meansquare", "--k", "2", "--x", "1000"],
    ["report"],
]


@pytest.mark.parametrize("argv", FORMER_CACHE_ARGV, ids=lambda a: a[0])
def test_old_cache_flags_change_nothing(argv, tmp_path):
    # DIVISORLAB_CACHE is ignored; the --cache-dir flag is gone (next test)
    code1, text1 = run_fresh(argv, tmp_path)
    code2, text2 = run_fresh(argv, tmp_path, DIVISORLAB_CACHE="e")
    assert code1 == code2 == 0
    assert text2 == text1
    assert list(tmp_path.iterdir()) == []


MOMENT_ARGV = ["moment", "--k", "1", "--sigma", "2", "--T", "100"]


@pytest.mark.parametrize("argv, flag, key, value", [
    (["sieve", "--k", "3", "--x-list", "10"], "--cache-dir", "cache_dir", "2"),
    (["meansquare", "--k", "1", "--x", "100"], "--panels", "panels", "2"),
    (["delta", "--k", "2", "--x", "10.5"], "--plot-dir", "plot_dir", "plots"),
    (["expsum", "--N", "16", "--t", "1e6"], "--plot-dir", "plot_dir", "plots"),
    (MOMENT_ARGV, "--panels", "panels", "2000"),
    (MOMENT_ARGV, "--panels", "panels", "0"),
    (MOMENT_ARGV, "--panels", "panels", "-3"),
], ids=["cache-dir", "panels", "delta-plot-dir", "expsum-plot-dir", "moment-panels",
        "moment-panels-0", "moment-panels-negative"])
def test_removed_flag_exits_2(argv, flag, key, value, tmp_path, monkeypatch, capsys):
    # an unknown option on the command line (argparse's usage error) and as a
    # config-file key (a precondition violation), given as --config PATH and
    # as --config=PATH; nothing is written
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, flag, value]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    for config in (["--config", str(cfgfile)], [f"--config={cfgfile}"]):
        assert cli.main([*config, *argv]) == 2
        assert capsys.readouterr().err.startswith(
            "precondition violation: unknown configuration keys")
    assert list(tmp_path.iterdir()) == [cfgfile]


@pytest.mark.parametrize("argv, target", [
    (["bounds", "--k", "30", "--output", "missing/x.csv"], "missing/x.csv"),
    (["bounds", "--k", "30", "--output", "file/x.csv"], "file/x.csv"),
    (["bounds", "--k", "30", "--output", "dir"], "dir"),
], ids=["missing-dir", "under-a-file", "onto-a-dir"])
def test_failed_write_exits_2_and_leaves_no_temp_file(argv, target, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("a regular file\n")
    (tmp_path / "dir").mkdir()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: ") and repr(target) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "a regular file\n"
    assert list((tmp_path / "dir").iterdir()) == []


def test_precision_error_names_the_given_bits(capsys):
    assert cli.main(["delta", "--k", "3", "--x", "100.5",
                     "--precision-bits", "4050"]) == 2
    assert capsys.readouterr().err.rstrip().endswith("got 4050")


SUBPARSERS = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command, dest, owner", [
    ("signs", "C", remainder.TONG_C),
    *[(c, "precision_bits", remainder.MAIN_BITS_DEFAULT) for c in SUBPARSERS],
    ("bounds", "k", exponents.ExponentParams.k),
])
def test_literal_default_equals_its_owner(command, dest, owner):
    # the parser writes these defaults as literals; each must stay the value
    # the library uses when the caller passes nothing
    assert SUBPARSERS[command].get_default(dest) == owner


def test_config_file_and_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k=2\nx=10.5\n")
    code, text = run(["--config", str(cfgfile), "delta"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert abs(float(rows[0]["delta"]) - 0.689) < 1e-3
    # flags win over config values
    code2, text2 = run(["--config", str(cfgfile), "delta", "--x", "100.5"],
                       tmp_path, "o2")
    _, rows2 = parse_csv(text2)
    assert rows2[0]["x"] == "100.5"
    # unknown keys rejected
    # --config=PATH reads the same file
    code3, text3 = run([f"--config={cfgfile}", "delta"], tmp_path, "o3")
    assert code3 == 0 and text3 == text
    cfgfile.write_text("B = 5.0\n")
    code4, text4 = run([f"--config={cfgfile}", "theta-opt"], tmp_path, "o4")
    assert code4 == 0 and parse_csv(text4)[1][0]["B"] == "5.0"
    bad = tmp_path / "bad.cfg"
    bad.write_text("k=2\nx=10.5\nwibble=1\n")
    assert cli.main(["--config", str(bad), "delta"]) == 2
    assert cli.main([f"--config={bad}", "delta"]) == 2
    assert cli.main(["--config=", "delta"]) == 2
    # an abbreviation of --config is refused, not ignored
    assert cli.main(["--conf", str(cfgfile), "theta-opt"]) == 2
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"k=2\n\xff\xfe=1\n")
    assert cli.main(["--config", str(binary), "delta"]) == 2


@pytest.mark.parametrize("argv, cfg, flags", [
    (["delta", "--k", "2", "--x", "7.5", "--grid", "100:200:2"], "", ("--x", "--grid")),
    (["delta", "--k", "2", "--grid", "100:200:2"], "x = 7.5\n", ("--x", "--grid")),
    (["expsum", "--N-list", "64", "--t-list", "1e6", "--N", "5", "--N-prime", "100",
      "--t", "3"], "", ("--N-list", "--N")),
    (["expsum", "--N", "64", "--t", "1e6", "--t-list", "1e8"], "", ("--t-list", "--t")),
    (["delta", "--k", "2", "--x", "10.5", "--integer-x"], "", ("--integer-x", "--x")),
], ids=["delta", "delta-config", "expsum", "expsum-t-list", "delta-integer-x"])
def test_mixed_input_forms_exit_2(argv, cfg, flags, tmp_path, capsys):
    # an answer from one form under a header that records the other's inputs
    # would misstate the run: a mix is refused, naming both forms
    if cfg:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(cfg)
        argv = ["--config", str(cfgfile), *argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(flag in captured.err for flag in flags)


def test_config_file_lines(tmp_path, capsys):
    # blank lines and comments are skipped; a line without "=" is refused
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# a comment\n\nk=2\n   \n  # indented\nx=10.5\n")
    code, text = run(["--config", str(cfgfile), "delta"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0]["D"] == "27"
    cfgfile.write_text("k=2\nx 10.5\n")
    assert cli.main(["--config", str(cfgfile), "delta"]) == 2
    err = capsys.readouterr().err
    assert err == "precondition violation: config line is not key=value: 'x 10.5'\n"
    # a value argparse refuses is a usage error with exit 2, as on the command line
    cfgfile.write_text("k = abc\n")
    assert cli.main(["--config", str(cfgfile), "delta"]) == 2
    assert "argument --k: invalid int value: 'abc'" in capsys.readouterr().err
    # a flag key takes true (set) or false (unset), printing what the flag form prints
    for config, argv in (
            ("k=2\nx=100\ninteger_x = true\n", ["delta", "--k", "2", "--x", "100", "--integer-x"]),
            ("k=2\nx=100\ninteger_x=false\n", ["delta", "--k", "2", "--x", "100"]),
            ("sigma=0.75\nt=1000\nchi = true\nafe=true\n",
             ["zeta", "--sigma", "0.75", "--t", "1000", "--chi", "--afe"]),
            ("sigma=0.75\nt=1000\nchi = false\nafe=true\n",
             ["zeta", "--sigma", "0.75", "--t", "1000", "--afe"])):
        cfgfile.write_text(config)
        assert cli.main(["--config", str(cfgfile), argv[0]]) == 0
        got = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert got == capsys.readouterr().out, config
    # any other value is refused, naming the key and the value
    for value in ("yes", "True", ""):
        cfgfile.write_text(f"sigma=0.75\nt=1000\nchi = {value}\n")
        assert cli.main(["--config", str(cfgfile), "zeta"]) == 2
        assert capsys.readouterr().err == (
            f"precondition violation: config key 'chi' is a flag: its value must be "
            f"true or false, got {value!r}\n")


def test_delta_integer_x_grid(capsys):
    assert cli.main(["delta", "--k", "2", "--grid", "10:1000:8", "--integer-x"]) == 0
    meta, rows = parse_csv(capsys.readouterr().out)
    assert meta["convention.abscissa_sampling"] == "integer"
    assert len(rows) == 8
    for row in rows:
        x = float(row["x"])
        assert x == math.floor(x) and row["half_odd"] == "False"
        assert int(row["D"]) == sieve.d2_summatory_hyperbola(int(x))


def test_zeta_command_with_chi_and_afe(tmp_path):
    code, text = run(["zeta", "--sigma", "0.75", "--t", "1000",
                      "--chi", "--afe"], tmp_path)
    assert code == 0
    meta, rows = parse_csv(text)
    assert meta["convention.afe_length"] == "sqrt_t_over_2pi"
    assert float(rows[0]["afe_residual"]) < 0.2


def test_expsum_command(tmp_path):
    code, text = run(["expsum", "--N", "16", "--t", "1000"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert abs(float(rows[0]["rho"]) - 2.4915) < 1e-3


def test_meansquare_command(tmp_path):
    code, text = run(["meansquare", "--k", "1", "--x", "500"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert abs(float(rows[0]["mean_square"]) - 3 ** -0.5) < 5e-3


def test_exit_code_precondition(tmp_path):
    assert cli.main(["bounds", "--k", "5", "--which", "alpha",
                     "--output", str(tmp_path / "x")]) == 2
    assert cli.main(["delta", "--k", "0", "--x", "10.5",
                     "--output", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("argv", [
    ["--config", "/nonexistent", "constants"],
    ["sieve", "--k", "2", "--x-list", "10,abc"],
    ["expsum", "--N", "10"],
    ["delta", "--k", "2", "--x", "1000.5", "--precision-bits", "-5"],
    ["expsum", "--N-list", "64", "--t-list", "1e6", "--N", "5"],
    ["expsum", "--N", "64", "--t", "1e6", "--t-list", "1e8"],
    ["moment", "--k", "1", "--sigma", "0.75", "--T", "8000"],
    ["delta", "--k", "2", "--x", "nan"],
    ["delta", "--k", "2", "--x", "inf"],
    ["delta", "--k", "2", "--grid", "10:inf:4"],
    ["sieve", "--k", "2", "--x-list", ","],
    ["fit", "--k", "2", "--grid", "10:20:20001"],
    ["theta-opt", "--B", "958462.87"],
    ["constants", "--B", "958462.87"],
    ["expsum", "--N", "10000000", "--t", "1e6"],
    ["expsum", "--N-list", "100000,100001", "--t-list", "1e12"],
    ["delta", "--k", "2", "--x", "1000000001"],
    ["delta", "--k", "2", "--x", "1e12"],
    ["constants", "--B-richert", "inf"],
    ["bounds", "--eps0", "nan"],
    ["delta", "--k", "2"],
    ["expsum", "--N-list", "64"],
    ["constants", "--config"],
    ["--config", "/nonexistent"],
    ["fit", "--k", "2", "--grid", "1000:100000:16", "--drop-below", "nan"],
    ["fit", "--k", "2", "--grid", "1000:100000:16", "--drop-below", "inf"],
])
def test_malformed_input_exits_2_with_message(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["sieve", "--k", "2", "--x-list", ","], "--x-list"),
    (["bounds", "--k-list", ","], "--k-list"),
    (["expsum", "--N-list", ",", "--t-list", "1e6"], "--N-list"),
    (["expsum", "--N-list", "16", "--t-list", ","], "--t-list"),
])
def test_empty_list_exits_2_naming_the_flag(argv, flag, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"{flag} needs at least one value" in captured.err
    assert captured.out == ""


def test_grid_size_cap(capsys):
    assert cli.main(["delta", "--k", "2", "--grid", "10:20:1000000000000"]) == 2
    assert f"cap of {cli.GRID_POINTS_CAP}" in capsys.readouterr().err
    # a grid at the cap runs; its 20000 points fall on three floors
    assert cli.main(["delta", "--k", "2", "--grid",
                     f"10:12:{cli.GRID_POINTS_CAP}", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 3


def test_delta_at_the_desk_cap(capsys):
    # D_2(999999999) from the floor values above y = isqrt(x), checked against
    # the hyperbola
    assert cli.main(["delta", "--k", "2", "--x", "999999999.5", "--format", "json"]) == 0
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert row["D"] == sieve.d2_summatory_hyperbola(999999999)


def test_grid_reaching_the_desk_cap(capsys):
    # the grid's last point 1e9 becomes x = 1e9 + 0.5, whose floor is the cap
    assert cli.main(["delta", "--k", "2", "--grid", "10:1000000000:4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[-1]["x"] == 1000000000.5
    assert rows[-1]["D"] == sieve.d2_summatory_hyperbola(10 ** 9)
    # floor(1000000001) is past the cap; the message states the range of x
    assert cli.main(["delta", "--k", "2", "--x", "1000000001"]) == 2
    assert "x must lie in (1, 1000000001), got 1000000001.0" in capsys.readouterr().err


# argv values: malformed, non-finite, out of range, and cheap in-range ones
BAD = ["nan", "inf", "-inf", "abc", ""]
NUMBER = st.one_of(
    st.sampled_from(["-5", "0", "0.5", "1", "1.5", "1e12", "1000000001"] + BAD),
    st.integers(-10, 10 ** 6).map(str), st.floats(1, 1e6).map(repr))
K = st.one_of(st.integers(-2, 32).map(str), st.sampled_from(["nan", "2.5", ""]))
SMALL = st.one_of(st.integers(-3, 64).map(str), st.sampled_from(["1e12", "2.5"] + BAD))
UNIT = st.one_of(st.floats(-0.5, 3.5).map(repr), st.sampled_from(["0", "1", "1e12"] + BAD))
CHEAP = st.one_of(st.floats(-100, 100).map(repr),
                  st.sampled_from(["-5", "0", "1", "50", "1e12"] + BAD))
# expsum sizes: small ones, and ones past the term cap, refused before any work
TERMS = st.one_of(SMALL, st.integers(zetasum.EXPSUM_TERMS_CAP + 1, 10 ** 12).map(str))
BITS = st.sampled_from(["-5", "52", "53", "64", "128", "2048", "abc"])
# grid sizes: small ones, and ones past the cap, refused before any work (a size
# just below the cap over a wide range would take seconds)
GRID = st.builds("{}:{}:{}".format, NUMBER, NUMBER, st.one_of(
    st.integers(-2, 6), st.integers(cli.GRID_POINTS_CAP + 1, 10 ** 12),
    st.sampled_from(["nan", ""])))


def command(name, required=(), optional=()):
    """argv of one command: required flags always, optional ones maybe."""
    req = [v.map(lambda x, f=f: [f, x]) for f, v in required]
    opt = [st.one_of(st.just([]), v.map(lambda x, f=f: [f, x])) for f, v in optional]
    return st.tuples(*req, *opt).map(lambda ps: [name] + [t for p in ps for t in p])


def switch(flag):
    return st.sampled_from([[], [flag]])


ARGV = st.one_of(
    st.builds(lambda k, xs: ["sieve", "--k", k, "--x-list", ",".join(xs)],
              K, st.lists(NUMBER, max_size=4)),
    st.builds(lambda k, x: ["delta", "--k", k, "--x", x], K, NUMBER),
    st.builds(lambda k, g: ["delta", "--k", k, "--grid", g], K, GRID),
    st.builds(lambda k, g: ["fit", "--k", k, "--grid", g], K, GRID),
    command("constants", optional=[("--B", NUMBER), ("--B-richert", NUMBER)]),
    command("theta-opt", optional=[("--B", NUMBER)]),
    command("bounds", optional=[
        ("--B", NUMBER), ("--theta", UNIT), ("--eps0", UNIT), ("--k", NUMBER),
        ("--k-list", st.lists(K, max_size=3).map(",".join)),
        ("--which", st.sampled_from(["alpha", "beta", "both", "none"]))]),
    command("signs", [("--k", K), ("--X0", NUMBER), ("--X1", NUMBER)],
            [("--C", NUMBER)]),
    command("meansquare", [("--k", K), ("--x", CHEAP)]),
    command("expsum", optional=[
        ("--N", TERMS), ("--N-prime", SMALL), ("--t", NUMBER),
        ("--N-list", st.lists(TERMS, max_size=3).map(",".join)),
        ("--t-list", st.lists(NUMBER, max_size=2).map(",".join)),
        ("--precision-bits", BITS)]),
    st.builds(lambda argv, chi, afe: argv + chi + afe,
              command("zeta", [("--sigma", UNIT), ("--t", CHEAP)], [
                  ("--afe-length", st.sampled_from(["sqrt_t", "sqrt_t_over_2pi", "x"])),
                  ("--precision-bits", BITS)]),
              switch("--chi"), switch("--afe")),
    command("moment", [("--k", K), ("--sigma", UNIT), ("--T", CHEAP)]),
    command("report", optional=[("--B", NUMBER), ("--B-richert", NUMBER)]))


@settings(max_examples=400, deadline=None)
@given(argv=ARGV)
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_precision_floor_is_float64(tmp_path):
    # at the 53-bit floor the main term is still resolved (delta = 2.782)
    code, text = run(["delta", "--k", "2", "--x", "1000.5",
                      "--precision-bits", "53"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert abs(float(rows[0]["delta"]) - 2.78217) < 1e-4
    assert cli.main(["delta", "--k", "2", "--x", "1000.5",
                     "--precision-bits", "52"]) == 2


def test_exit_code_selfcheck(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise QuadratureError("synthetic failure")
    monkeypatch.setattr(zetasum, "moment_integral", boom)
    assert cli.main(["moment", "--k", "1", "--sigma", "2", "--T", "100"]) == 3


def test_partial_sums_self_check_exits_3(monkeypatch):
    monkeypatch.setattr(sieve, "_floor_sums", lambda *a: ((10, 53), (20, 53)))
    assert cli.main(["sieve", "--k", "3", "--x-list", "10,20"]) == 3


def test_report_command(tmp_path):
    code, text = run(["report"], tmp_path)
    assert code == 0
    assert "1.224" in text and "delta_k2" in text


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["theta-opt"],
    ["bounds", "--k", "30"],
    ["sieve", "--k", "2", "--x-list", "10"],
    ["delta", "--k", "2", "--x", "10.5"],
    ["meansquare", "--k", "1", "--x", "100"],
    ["expsum", "--N", "16", "--t", "1000"],
])
def test_every_output_carries_conventions(argv, tmp_path):
    code, text = run(argv, tmp_path)
    assert code == 0
    meta, _ = parse_csv(text)
    assert meta["tool"] == "divisorlab"
    assert meta.get("convention.rho_orientation") == "log_t_over_log_N"
    assert meta.get("convention.rounding") == \
        "karatsuba_down_exponents_up_thresholds_up"

"""CLI tests: payload equivalence across formats, metadata conventions,
cache warm-run determinism and corruption recovery, exit codes.
"""

import json

import pytest

from divisorlab import cli
from divisorlab import zetasum
from divisorlab.errors import QuadratureError


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


def test_warm_cache_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    argv = ["delta", "--k", "2", "--grid", "100:2000:6",
            "--cache-dir", str(cache)]
    code1, text1 = run(argv, tmp_path, "r1")
    code2, text2 = run(argv, tmp_path, "r2")
    assert code1 == code2 == 0
    assert text1 == text2
    assert (cache / "stieltjes.csv").exists()
    assert any(p.name.startswith("sieve_k2_") and p.suffix == ".csv"
               for p in cache.iterdir())


def test_cache_corruption_triggers_recompute(tmp_path):
    cache = tmp_path / "cache"
    argv = ["sieve", "--k", "3", "--x-list", "10,100", "--cache-dir", str(cache)]
    code1, text1 = run(argv, tmp_path, "s1")
    assert code1 == 0
    target = next(p for p in cache.iterdir()
                  if p.name.startswith("sieve_k3_") and p.suffix == ".csv")
    target.write_text(target.read_text().replace("53", "54"))
    code2, text2 = run(argv, tmp_path, "s2")
    assert code2 == 0
    assert text1 == text2  # corrupted cache was not silently reused
    # and the cache has been healed
    code3, text3 = run(argv, tmp_path, "s3")
    assert text3 == text1


def test_cache_file_carries_its_checksums(tmp_path):
    cache = tmp_path / "cache"
    argv = ["sieve", "--k", "3", "--x-list", "10,100", "--cache-dir", str(cache)]
    code1, text1 = run(argv, tmp_path, "s1")
    assert code1 == 0
    files = list(cache.iterdir())
    # no checksum sidecar and no temp file left beside the cache file
    assert len(files) == 1 and files[0].suffix == ".csv"
    files[0].write_bytes(b"\xff\xfe not text")
    code2, text2 = run(argv, tmp_path, "s2")
    assert code2 == 0 and text2 == text1


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
    bad = tmp_path / "bad.cfg"
    bad.write_text("k=2\nx=10.5\nwibble=1\n")
    assert cli.main(["--config", str(bad), "delta"]) == 2
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"k=2\n\xff\xfe=1\n")
    assert cli.main(["--config", str(binary), "delta"]) == 2


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
    ["moment", "--k", "1", "--sigma", "2", "--T", "100", "--panels", "0"],
    ["moment", "--k", "1", "--sigma", "2", "--T", "100", "--panels", "-3"],
    ["moment", "--k", "1", "--sigma", "0.75", "--T", "8000"],
])
def test_malformed_input_exits_2_with_message(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: ")
    assert "Traceback" not in err


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


def test_plot_data_series(tmp_path):
    plots = tmp_path / "plots"
    code, _ = run(["delta", "--k", "2", "--grid", "100:5000:6",
                   "--plot-dir", str(plots)], tmp_path)
    assert code == 0
    series = (plots / "delta_k2.csv").read_text().splitlines()
    assert len(series) >= 5
    for line in series:
        x, y = line.split(",")
        float(x), float(y)  # bare numeric pairs, no header
    assert (plots / "conjecture_k2.csv").exists()
    assert (plots / "tong_window_k2.csv").exists()
    code2, _ = run(["expsum", "--N-list", "64,128", "--t-list", "1e6",
                    "--plot-dir", str(plots)], tmp_path, "e")
    assert code2 == 0
    rows = (plots / "rho_vs_refined_exp.csv").read_text().splitlines()
    assert len(rows) == 2

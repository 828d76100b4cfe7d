"""Command-line interface: output formats, manifests, determinism, errors."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from muxkit import __version__, analytics, gridmux, networks, patterns
from muxkit.cli import _parse_range, main


def _rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


def test_analyze_pmux_csv_and_manifest(tmp_path):
    out = tmp_path / "pmux.csv"
    assert main(["analyze", "--curve", "pmux", "--n-range", "64", "--p", "0.05", "--csv", str(out)]) == 0
    header, rows = _rows(out)
    assert header == ["n_sources", "p", "p_mux"]
    assert rows == [["64", "0.05", f"{analytics.p_mux_single(64, 0.05):.12g}"]]
    man = _manifest(out)
    assert man["version"] == __version__
    assert man["outputs"][str(out)] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert man["parameters"]["p"] == 0.05
    assert man["parameters"]["n_range"] == "64"


def test_analyze_range_grid(tmp_path, capsys):
    assert main(["analyze", "--curve", "bsg", "--n-range", "8:16:4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n_modes,p_success"
    assert [l.split(",")[0] for l in lines[1:]] == ["8", "12", "16"]
    assert float(lines[3].split(",")[1]) == pytest.approx(analytics.p_bsg(16), rel=1e-11)


def test_analyze_reduction_stdout(capsys):
    assert main(["analyze", "--curve", "reduction"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == f"{analytics.enlarged_gmzi_mux_reduction():.12g}"


def test_search_bsg8_reports_coverage(capsys):
    assert main(["search", "--circuit", "bsg8"]) == 0
    out = capsys.readouterr().out
    assert "66/70" in out
    assert "layers searched: 105" in out
    assert f"usable target patterns: {len(patterns.paired_usable_patterns(8))}" in out


def test_search_pairs_and_binning(capsys):
    assert main(["search", "--circuit", "pairs"]) == 0
    out = capsys.readouterr().out
    assert "45/64" in out and "33/35" in out
    assert main(["search", "--circuit", "binning", "--n", "4"]) == 0
    assert "3/32" in capsys.readouterr().out


def test_gridmux_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["gridmux", "--p-range", "0.1", "--trials", "200", "--seed", "5", "--csv"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_text() == b.read_text()
    header, rows = _rows(a)
    assert header == ["p", "yield", "stderr", "bound", "naive", "trials", "seed"]
    assert rows[0][5] == "200" and rows[0][6] == "5"
    assert 0.0 < float(rows[0][1]) <= 1.0


def test_gridmux_config_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert main(["gridmux", "--emit-config", str(cfg)]) == 0
    assert _manifest(cfg)["outputs"]
    assert main(["gridmux", "--p-range", "0.1", "--trials", "100", "--seed", "2"]) == 0
    default_out = capsys.readouterr().out
    assert main(["gridmux", "--p-range", "0.1", "--trials", "100", "--seed", "2", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == default_out


def test_temporal_sequence_emission(tmp_path):
    out = tmp_path / "seq.csv"
    assert main([
        "temporal", "--scheme", "debruijn", "--emit-sequence",
        "--modes", "2", "--word-length", "3", "--csv", str(out),
    ]) == 0
    header, rows = _rows(out)
    assert header == ["index", "delay"]
    assert [r[1] for r in rows] == ["0", "1", "0", "1", "1", "0", "0"]


def test_temporal_perm_table(capsys):
    assert main(["temporal", "--scheme", "perm", "--size", "3", "--perm", "2,0,1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "input_bin,target_slot,delay_line,output_port,output_bin"
    got = {int(l.split(",")[0]): int(l.split(",")[4]) for l in lines[1:]}
    assert got == {0: 4, 1: 2, 2: 3}  # output bin = R-1 + assigned slot


def test_temporal_raster_csv(tmp_path):
    out = tmp_path / "raster.csv"
    argv = [
        "temporal", "--scheme", "raster", "--strategy", "one-mux",
        "--n-range", "16", "--p", "0.1", "--trials", "300", "--seed", "1", "--csv", str(out),
    ]
    assert main(argv) == 0
    header, rows = _rows(out)
    closed = float(rows[0][header.index("closed_form_yield")])
    assert closed == pytest.approx(analytics.raster_yield("one-mux", 16, 0.1), rel=1e-11)
    sim = float(rows[0][header.index("yield")])
    err = float(rows[0][header.index("yield_stderr")])
    assert abs(sim - closed) < 5 * err + 1e-9


def test_temporal_raster_alias_csv_matches_strategy(tmp_path):
    texts = []
    for strategy in ("i", "one-mux"):
        out = tmp_path / f"raster-{strategy}.csv"
        argv = [
            "temporal", "--scheme", "raster", "--strategy", strategy,
            "--n-range", "8:16:8", "--p", "0.1", "--trials", "200", "--seed", "3", "--csv", str(out),
        ]
        assert main(argv) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_gmzi_classify_and_verify(capsys):
    assert main(["gmzi", "--size", "8", "--classify"]) == 0
    assert capsys.readouterr().out.strip().split("\n") == ["8", "4,2", "2,2,2"]
    assert main(["gmzi", "--size", "8", "--type", "2,2,2", "--verify"]) == 0
    assert "stage error" in capsys.readouterr().out


def test_gmzi_reports(tmp_path, capsys):
    out = tmp_path / "swings.csv"
    assert main(["gmzi", "--size", "8", "--report", "swings", "--csv", str(out)]) == 0
    header, rows = _rows(out)
    assert header == ["type", "swing", "stages", "crossings"]
    assert [r[0] for r in rows] == ["8", "4x2", "2x2x2"]
    assert all(r[2].isdigit() for r in rows)  # stage counts are plain ints
    assert main(["gmzi", "--size", "6", "--report", "vectors"]) == 0
    assert "orthonormal: True" in capsys.readouterr().out


def test_gmzi_device_json(tmp_path):
    out = tmp_path / "dev.json"
    assert main(["gmzi", "--size", "6", "--type", "3,2", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"] == [3, 2] and payload["N"] == 6
    assert _manifest(out)["outputs"][str(out)]


def test_net_metrics_line_and_json(tmp_path, capsys):
    assert main(["net", "--topology", "log-tree", "--size", "16"]) == 0
    met = networks.metrics(networks.build_log_tree(16, 2))
    line = capsys.readouterr().out.strip()
    assert f"inputs {met.n_inputs} " in line
    assert f"active {met.n_active} " in line
    assert f"depth {met.depth_min}..{met.depth_max}" in line
    out = tmp_path / "net.json"
    assert main(["net", "--topology", "spanke", "--size", "6", "--m", "3", "--optimized", "--out", str(out)]) == 0
    net = networks.network_from_json(out.read_text())
    assert networks.metrics(net) == networks.metrics(networks.build_spanke(6, 3, optimized=True))


def test_logic_wildcard_golden(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["logic", "--table", "wildcard", "--width", "3", "--photons", "2", "--csv", str(out)]) == 0
    assert out.read_text() == (
        "pattern,out0,out1,out2\n"
        "11*,0,0,1\n"
        "101,0,1,0\n"
        "011,1,0,0\n"
        "***,1,1,1\n"
    )


def test_logic_encoder_stdout(capsys):
    assert main(["logic", "--table", "encoder", "--width", "2"]) == 0
    assert capsys.readouterr().out == (
        "pattern,first_index\n"
        "00,none\n"
        "10,0\n"
        "01,1\n"
        "11,0\n"
    )


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["gmzi", "--size", "8", "--type", "3,3"], "order"),
        (["gmzi", "--size", "0"], "n_modes"),
        (["analyze", "--curve", "raster", "--n-range", "0:8:8", "--p", "0.1"], "n_sources"),
        (["analyze", "--curve", "crossover", "--p", "nan"], "probability"),
        (["analyze", "--curve", "ghz", "--n", "0"], "n_sources"),
        (["analyze", "--curve", "ghz", "--p", "0"], "p > 0"),
        (["analyze", "--curve", "yield", "--lam-range", "nan"], "lam"),
        (["analyze", "--curve", "yield", "--lam-range", "-1"], "lam"),
        (["temporal", "--scheme", "debruijn", "--modes", "12", "--bins", "2", "--tetris", "--p-range", "0.2"], "modes"),
        (["gridmux", "--p-range", "0.1", "--trials", "10", "--column-group-type=-4,-4"], "factor"),
        (["gridmux", "--p-range", "0.1", "--trials", "10", "--column-group-type=-1,-16"], "factor"),
        (["gridmux", "--trials", "1"], "trials"),
        (["search", "--circuit", "binning", "--n", "0"], "n must be"),
        (["net", "--topology", "spanke", "--size", "0", "--m", "1"], "size"),
        (["gmzi", "--size", "1000000"], "angle table"),
        (["gmzi", "--size", "1000000", "--verify"], "table"),
        (["analyze", "--curve", "footprint", "--n", "0"], "n_sources >= 1"),
        (["analyze", "--curve", "footprint", "--p", "0"], "needs p in"),
        (["analyze", "--curve", "footprint", "--yield", "0"], "yield in"),
        (["analyze", "--curve", "footprint", "--p-group", "0"], "p_group in"),
        (["analyze", "--curve", "footprint", "--p-out", "1"], "p_out in"),
        (["analyze", "--curve", "footprint", "--n", "100000"], "p_group / 4 < 1"),
        (["net", "--topology", "spanke", "--size", "100000", "--m", "1000"], "active elements"),
        (["search", "--circuit", "binning", "--n", "5000"], "1000 photons"),
        (["analyze", "--curve", "pmux", "--n-range", "8:16:nan"], "finite"),
        (["analyze", "--curve", "pmux", "--n-range", "nan:16:1"], "finite"),
        (["analyze", "--curve", "pmux", "--n-range=-inf:8:1"], "finite"),
        (["analyze", "--curve", "yield", "--lam-range", "1:inf:nan"], "finite"),
        (["gridmux", "--p-range", "0:1:nan", "--trials", "2"], "finite"),
        (["temporal", "--scheme", "debruijn", "--p-range", "0.1:inf:nan"], "finite"),
        (["analyze", "--curve", "pmux", "--n-range", "8:inf:8"], "finite"),
        (["analyze", "--curve", "pmux", "--n-range", "8:1000000000:1"], "65536 points"),
        (["analyze", "--curve", "pmux", "--n-range", "1e20:1e20:1"], "65536 points"),
        (["gridmux", "--p-range", "0:1:0.000000001", "--trials", "2"], "65536 points"),
        (["analyze", "--curve", "sources-ratio", "--m", "1000000000"], "10000000 sources"),
        (["analyze", "--curve", "ghz", "--p", "1e-300"], "underflow"),
        (["gmzi", "--size", "1000000000"], "1048576 modes"),
        (["logic", "--table", "wildcard", "--width", "1000000000", "--photons", "0"], "cells"),
    ],
)
def test_invalid_arguments_are_clean_errors(argv, fragment, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and fragment in captured.err
    assert "Traceback" not in captured.err


def test_range_points_are_bounded():
    assert _parse_range("1:65536:1", integer=True) == list(range(1, 65537))
    assert len(_parse_range(f"0:1:{1 / 65535!r}")) == 65536
    for spec in ("1:65537:1", "0:1:0.0000152587890625"):  # 65,537 points each
        with pytest.raises(ValueError, match="more than 65536 points"):
            _parse_range(spec)


def test_group_curve_beyond_float_binomial_coefficients(capsys):
    # math.comb(2000, k) overflows a float near k = 1000; P[Bin(2000, 1/2) >= 1001] = (1 - C(2000, 1000) / 2^2000) / 2
    assert main(["analyze", "--curve", "group", "--n-range", "2000:2000:1", "--p", "0.5", "--m", "1001"]) == 0
    exact = (1 - Fraction(math.comb(2000, 1000), 2 ** 2000)) / 2
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "n_sources,p,m,naive,optimal"
    assert row.split(",")[-1] == f"{float(exact):.12g}"


def test_missing_config_file_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["gridmux", "--p-range", "0.1", "--trials", "10", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.json" in err
    assert "Traceback" not in err


def test_malformed_config_file_is_a_clean_error(tmp_path, capsys):
    doc = json.loads(gridmux.config_to_json(gridmux.default_config()))
    doc["grid"] = 5
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(doc))
    assert main(["gridmux", "--p-range", "0.1", "--trials", "10", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["temporal", "--scheme", "gather", "--modes", "4", "--group-size", "6"],
        ["temporal", "--scheme", "raster", "--n-range", "0:8:8"],
        ["temporal", "--scheme", "debruijn", "--modes", "0", "--bins", "3", "--p-range", "0.1:0.2:0.1"],
        ["temporal", "--scheme", "debruijn", "--modes", "3", "--bins", "-2", "--p-range", "0.1:0.2:0.1"],
        ["temporal", "--scheme", "debruijn", "--emit-sequence", "--word-length", "0"],
        ["temporal", "--scheme", "debruijn", "--modes", "5", "--bins", "5", "--tetris", "--p-range", "0.2"],
        ["temporal", "--scheme", "perm", "--size", "100000000"],
        ["temporal", "--scheme", "gather", "--modes", "1000000000", "--trials", "2", "--bins", "1", "--p-range", "0.1"],
        ["temporal", "--scheme", "gather", "--modes", "4", "--group-size", "4", "--bins", "1000000000"],
    ],
)
def test_invalid_temporal_arguments_are_clean_errors(argv, capsys):
    assert main(argv + ["--trials", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["logic", "--table", "wildcard", "--width", "0", "--photons", "0"],
        ["logic", "--table", "wildcard", "--width", "-1", "--photons", "0"],
        ["logic", "--table", "wildcard", "--width", "64", "--photons", "32"],
        ["logic", "--table", "encoder", "--width", "0"],
        ["logic", "--table", "encoder", "--width", "-1"],
    ],
)
def test_invalid_logic_arguments_are_clean_errors(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "width" in captured.err
    assert "Traceback" not in captured.err


def test_verify_quick_json_is_byte_stable(tmp_path):
    # two fresh processes must agree byte-for-byte on the numeric report
    texts = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "muxkit.cli", "verify", "--quick", "--json", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "16/16 checks passed (quick mode)" in proc.stdout
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    assert payload["mode"] == "quick"
    assert len(payload["checks"]) == 16
    assert all(c["passed"] for c in payload["checks"])

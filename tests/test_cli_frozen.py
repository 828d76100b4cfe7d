"""Frozen CLI bytes: one small run of every subcommand path, its outputs pinned by sha256.

Each row runs in-process through `cli.main`.  The sha256 of its stdout, and
of the file it writes where it takes an output path, are frozen in
`cli_frozen.json` beside this file; manifests are left out, because they hold
paths, versions and timestamps.  After a deliberate output change, rewrite
the file with

    PYTHONPATH=src python tests/test_cli_frozen.py

which prints only the keys that moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from muxkit import cli

FROZEN = Path(__file__).with_name("cli_frozen.json")
OUT = "{out}"  # replaced by a fresh output path

ROWS = {
    "analyze-pmux": ["analyze", "--curve", "pmux", "--n-range", "8:32:8", "--p", "0.05"],
    "analyze-group": ["analyze", "--curve", "group", "--n-range", "8:32:8", "--p", "0.1", "--m", "2"],
    "analyze-sources-ratio": ["analyze", "--curve", "sources-ratio", "--p", "0.1", "--target", "0.9", "--m", "2"],
    "analyze-yield": ["analyze", "--curve", "yield", "--lam-range", "0.5:4:0.5", "--m", "3", "--g", "2"],
    "analyze-yield-max": ["analyze", "--curve", "yield-max", "--m", "2", "--g", "2", "--no-sharing"],
    "analyze-footprint": ["analyze", "--curve", "footprint"],
    "analyze-raster": ["analyze", "--curve", "raster", "--n-range", "8:24:8", "--p", "0.1", "--csv", OUT],
    "analyze-crossover": ["analyze", "--curve", "crossover", "--p", "0.1"],
    "analyze-ghz": ["analyze", "--curve", "ghz", "--n", "12", "--p", "0.2"],
    "analyze-bsg": ["analyze", "--curve", "bsg", "--n-range", "8:16:4"],
    "analyze-reduction": ["analyze", "--curve", "reduction"],
    "search-bsg8": ["search", "--circuit", "bsg8", "--csv", OUT],
    "search-pairs": ["search", "--circuit", "pairs"],
    "search-binning": ["search", "--circuit", "binning", "--n", "6", "--csv", OUT],
    "gridmux": ["gridmux", "--p-range", "0.05:0.15:0.05", "--trials", "200", "--seed", "3"],
    "gridmux-group-type": ["gridmux", "--p-range", "0.1", "--trials", "100", "--column-group-type", "2,8", "--csv", OUT],
    "gridmux-emit-config": ["gridmux", "--emit-config", OUT],
    "temporal-raster": [
        "temporal", "--scheme", "raster", "--strategy", "ii", "--n-range", "8:16:8", "--p", "0.1",
        "--enhanced", "--trials", "200", "--seed", "1",
    ],
    "temporal-debruijn-sequence": ["temporal", "--scheme", "debruijn", "--emit-sequence", "--modes", "3", "--word-length", "2"],
    "temporal-debruijn": ["temporal", "--scheme", "debruijn", "--modes", "3", "--bins", "3", "--p-range", "0.1:0.3:0.1"],
    "temporal-debruijn-tetris": [
        "temporal", "--scheme", "debruijn", "--modes", "3", "--bins", "2", "--tetris", "--p-range", "0.1:0.3:0.1", "--csv", OUT,
    ],
    "temporal-gather": [
        "temporal", "--scheme", "gather", "--modes", "4", "--group-size", "2", "--bins", "4",
        "--p-range", "0.2:0.4:0.2", "--trials", "200", "--seed", "2",
    ],
    "temporal-perm": ["temporal", "--scheme", "perm", "--size", "5", "--perm", "3,0,4,1,2"],
    "temporal-perm-sort-to-top": ["temporal", "--scheme", "perm", "--size", "4", "--variant", "sort-to-top", "--csv", OUT],
    "gmzi-classify": ["gmzi", "--size", "12", "--classify"],
    "gmzi-swings": ["gmzi", "--size", "8", "--report", "swings"],
    "gmzi-vectors": ["gmzi", "--report", "vectors"],
    "gmzi-verify": ["gmzi", "--size", "6", "--type", "3,2", "--verify"],
    "gmzi-device": ["gmzi", "--size", "6"],
    "gmzi-device-file": ["gmzi", "--size", "4", "--type", "2,2", "--json", OUT],
    "logic-wildcard": ["logic", "--table", "wildcard", "--width", "5", "--photons", "2"],
    "logic-encoder": ["logic", "--table", "encoder", "--width", "3", "--csv", OUT],
    "net-log-tree": ["net", "--topology", "log-tree", "--size", "5", "--out", OUT],
    "net-chain": ["net", "--topology", "chain", "--size", "5", "--n", "3", "--out", OUT],
    "net-delay-network": ["net", "--topology", "delay-network", "--size", "5", "--out", OUT],
    "net-storage-loop": ["net", "--topology", "storage-loop", "--size", "4", "--n", "3", "--out", OUT],
    "net-spanke": ["net", "--topology", "spanke", "--size", "5", "--m", "3", "--optimized", "--out", OUT],
    "net-concatenated-gmzi": ["net", "--topology", "concatenated-gmzi", "--size", "6", "--m", "3", "--out", OUT],
    "search-bsg12": ["search", "--circuit", "bsg12"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_row(argv: list[str], tmp: Path) -> dict:
    """Run one row through `cli.main`; the sha256 of its stdout and of its output file, if any."""
    out = tmp / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(out) if a == OUT else a for a in argv])
    if code != 0 or stderr.getvalue():
        raise AssertionError(f"{argv} exited {code}: {stderr.getvalue()}")
    digests = {"stdout": _sha(stdout.getvalue().encode())}
    if OUT in argv:
        digests["file"] = _sha(out.read_bytes())
    return digests


@pytest.mark.parametrize("key", list(ROWS))
def test_cli_output_is_frozen(key, tmp_path):
    assert run_row(ROWS[key], tmp_path) == json.loads(FROZEN.read_text())[key]


def _choices(command: str, flag: str) -> set[str]:
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(next(a for a in sub.choices[command]._actions if flag in a.option_strings).choices)


def test_every_cli_path_has_a_frozen_row():
    argvs = list(ROWS.values())

    def used(command: str, flag: str) -> set[str]:
        return {a[a.index(flag) + 1] for a in argvs if a[0] == command and flag in a}

    for command, flag in [
        ("analyze", "--curve"), ("search", "--circuit"), ("temporal", "--scheme"), ("logic", "--table"),
        ("net", "--topology"), ("gmzi", "--report"),
    ]:
        assert used(command, flag) == _choices(command, flag), (command, flag)
    gmzi = [a for a in argvs if a[0] == "gmzi"]
    for flag in ("--classify", "--verify", "--json"):
        assert any(flag in a for a in gmzi), flag
    assert any(not {"--classify", "--verify", "--json", "--report"} & set(a) for a in gmzi)  # device JSON on stdout
    assert all(OUT in a for a in argvs if a[0] == "net")  # every builder's JSON bytes are pinned
    assert sorted(json.loads(FROZEN.read_text())) == sorted(ROWS)


def refreeze() -> None:
    """Rewrite the frozen file from the current outputs, printing each key that moved."""
    old = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = {key: run_row(argv, Path(tmp)) for key, argv in ROWS.items()}
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"{key}: {old.get(key)} -> {new.get(key)}")
    FROZEN.write_text(json.dumps(new, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    refreeze()

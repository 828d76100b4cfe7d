"""The limits table: every bound admits its own value and refuses one more, and the README carries the table.

Running this file as a script (`PYTHONPATH=src python tests/test_limits.py`)
rewrites the README's table of bounds from `muxkit._limits.LIMITS`.
"""

import re
from pathlib import Path

import pytest

from muxkit import _limits, analytics, cli, gmzi, logic, networks, patterns, simkit, temporal
from muxkit._limits import LIMITS


class _Admitted(Exception):
    """Raised by the check_size spy once the real check let the count through, so nothing is computed."""


def _cli(argv):
    args = cli._build_parser().parse_args(argv)
    return args.func(args)


def _never(u):
    raise AssertionError("the trial was drawn")


# (entry, module whose check_size the site calls, call whose count is n at the bound)
_SITES = [
    ("range-points", cli, lambda n: cli._parse_range(f"1:{n}:1", integer=True)),
    ("encoder-width", cli, lambda n: _cli(["logic", "--table", "encoder", "--width", str(n)])),
    ("device-modes", gmzi, lambda n: gmzi.build_gmzi((n,))),
    ("table-modes", gmzi, lambda n: gmzi.routing_table(gmzi.build_gmzi((n,)))),
    ("table-modes", gmzi, lambda n: gmzi.all_setting_angles(gmzi.build_gmzi((n,)))),
    ("search-vectors", gmzi, lambda n: gmzi.search_orthogonal_phase_sets(1, [0.0] * n, 2)),
    ("sweep-width", logic, lambda n: logic.TruthTable(width=n, rows=(), default_outputs=()).match_counts()),
    ("wildcard-rows", logic, lambda n: logic.wildcard_reduce(n, 1)),
    ("wildcard-cells", logic, lambda n: logic.wildcard_reduce(n, 0)),
    ("active-elements", networks, lambda n: networks.build_log_tree(2, n)),
    ("active-elements", networks, lambda n: networks.build_chain(2, n)),
    ("active-elements", networks, lambda n: networks.build_delay_network(2, -(-n // 2))),
    ("active-elements", networks, lambda n: networks.build_storage_loop(1, n)),
    ("active-elements", networks, lambda n: networks.build_spanke(-(-n // 2), 1)),
    ("active-elements", networks, lambda n: networks.build_spanke(-(-n // 2), 1, optimized=True)),
    ("active-elements", networks, lambda n: networks.build_concatenated_gmzi(n, 1)),
    ("binning-n", patterns, lambda n: patterns.distinct_bin_fraction(n)),
    ("trial-uniforms", simkit, lambda n: simkit.run_trials(_never, (n,), 0.5, 2, 7)),
    ("debruijn-words", temporal, lambda n: temporal.de_bruijn(n, 1)),
    ("debruijn-words", temporal, lambda n: temporal.reduced_de_bruijn(n, 1)),
    ("perm-bins", temporal, lambda n: temporal.temporal_permutation(n, range(n))),
    ("tetris-cells", temporal, lambda n: temporal.tetris_success_probability(1, n, 0.5)),
    ("tetris-cells-wide", temporal, lambda n: temporal.tetris_success_probability(n, 1, 0.5)),
    ("scan-sources", analytics, lambda n: analytics.required_sources_ratio(0.5, 0.9, n)),
]


def test_every_entry_has_a_site():
    # index-entries raises nothing: test_logic.test_dense_index_at_its_bounds drives it
    assert {name for name, _, _ in _SITES} | {"index-entries"} == set(LIMITS)


@pytest.mark.parametrize("name, module, call", _SITES, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(_SITES)])
def test_each_bound_admits_its_value_and_refuses_one_more(name, module, call, monkeypatch):
    bound = LIMITS[name][0]
    counted = []

    def spy(key, value):
        _limits.check_size(key, value)
        if key == name:
            counted.append(value)
            raise _Admitted

    monkeypatch.setattr(module, "check_size", spy)
    with pytest.raises(_Admitted):
        call(bound)
    assert counted == [bound]
    with pytest.raises(ValueError, match=f"has more than {bound} "):
        call(bound + 1)


def test_check_size_message():
    with pytest.raises(ValueError, match=r"^a lo:hi:step range has more than 65536 points$"):
        _limits.check_size("range-points", 65537)
    _limits.check_size("range-points", 65536)


README = Path(__file__).resolve().parents[1] / "README.md"
_TABLE = re.compile(r"^\| name \| bound .*?\n(?!\|)", re.M | re.S)  # from the header row to the first non-row line


def bounds_table() -> str:
    """LIMITS as the README's markdown table."""
    lines = ["| name | bound | counts | of |", "| --- | ---: | --- | --- |"]
    lines += [f"| `{name}` | {bound:,} | {counted} | {holder} |" for name, (bound, counted, holder) in LIMITS.items()]
    return "\n".join(lines) + "\n"


def test_readme_carries_the_bounds_table():
    found = _TABLE.findall(README.read_text())
    assert found == [bounds_table()], "run this file as a script to rewrite the README table"


if __name__ == "__main__":
    README.write_text(_TABLE.sub(lambda _: bounds_table(), README.read_text(), count=1))

"""Feedforward logic: priority encoding and wildcard-reduced truth tables."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxkit import logic
from muxkit._limits import LIMITS
from muxkit.simkit import substream


def test_priority_encode():
    assert logic.priority_encode([]) is None
    assert logic.priority_encode([0, 0, 0]) is None
    assert logic.priority_encode([1, 0, 1]) == 0
    assert logic.priority_encode([0, 0, 1, 1, 0]) == 2
    assert logic.priority_encode([False, True]) == 1


def test_row_counts_are_binomial():
    for width in range(1, 11):
        for n in range(0, width + 1):
            table = logic.wildcard_reduce(width, n)
            assert len(table.rows) == math.comb(width, n), (width, n)
    assert len(logic.wildcard_reduce(12, 4).rows) == 495


def test_every_input_matches_at_most_one_row():
    table = logic.wildcard_reduce(8, 3)
    for bits in itertools.product((0, 1), repeat=8):
        hits = table.match_rows(bits)
        if sum(bits) >= 3:
            assert len(hits) == 1
        else:
            assert hits == []
            assert table.lookup(bits) == table.default_outputs


def test_matched_row_keeps_first_n_and_dumps_the_rest():
    table = logic.wildcard_reduce(8, 3)
    for bits in itertools.product((0, 1), repeat=8):
        if sum(bits) < 3:
            continue
        keep = [i for i, b in enumerate(bits) if b][:3]
        dump = table.lookup(bits)
        assert len(dump) == 8
        assert [i for i, d in enumerate(dump) if d == 0] == keep


def test_pattern_shape():
    for width, n in [(6, 2), (7, 4), (9, 3)]:
        table = logic.wildcard_reduce(width, n)
        for pattern, _ in table.rows:
            assert len(pattern) == width
            assert pattern.count("1") == n
            head = pattern.rstrip("*")
            assert set(pattern[len(head):]) <= {"*"}
            assert head.endswith("1") or n == 0
            assert "*" not in head  # wildcards only after the last firing port


def test_outputs_for_prepends_switch_settings():
    table = logic.wildcard_reduce(5, 2, outputs_for=lambda base: [logic.priority_encode(base)])
    out = table.lookup((0, 1, 0, 1, 1))
    assert out[0] == 1  # switch setting from the callback
    assert out[1:] == (1, 0, 1, 0, 1)  # dump everything but ports 1 and 3
    assert table.default_outputs == (0, 1, 1, 1, 1, 1)


def test_lookup_flags_conflicts():
    bad = logic.TruthTable(width=3, rows=(("1**", (1,)), ("*1*", (2,))), default_outputs=(0,))
    with pytest.raises(ValueError):
        bad.lookup((1, 1, 0))
    agree = logic.TruthTable(width=3, rows=(("1**", (1,)), ("*1*", (1,))), default_outputs=(0,))
    assert agree.lookup((1, 1, 0)) == (1,)
    with pytest.raises(ValueError):
        logic.TruthTable(width=3, rows=(("1*", (1,)),), default_outputs=(0,))
    with pytest.raises(ValueError):
        logic.TruthTable(width=3, rows=(("12*", (1,)),), default_outputs=(0,))


def test_zero_photon_table_matches_everything():
    table = logic.wildcard_reduce(4, 0)
    assert len(table.rows) == 1
    assert table.rows[0][0] == "****"
    for bits in itertools.product((0, 1), repeat=4):
        assert table.lookup(bits) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        logic.wildcard_reduce(4, 5)


def test_width_below_one_is_rejected():
    for width in (0, -1):
        with pytest.raises(ValueError, match="width"):
            logic.wildcard_reduce(width, 0)


def test_wildcard_table_size_is_bounded():
    # C(64, 32) ~ 1.8e18 rows: rejected before any row is built
    with pytest.raises(ValueError, match="rows"):
        logic.wildcard_reduce(64, 32)
    assert len(logic.wildcard_reduce(16, 8).rows) == math.comb(16, 8)
    # one row of 10^9 ports is refused by its cells, before the row is built
    with pytest.raises(ValueError, match="cells"):
        logic.wildcard_reduce(10**9, 0)
    # a row of n ones is built in O(width), not O(width * n)
    (pattern, outs), = logic.wildcard_reduce(1 << 16, 1 << 16).rows
    assert pattern == "1" * (1 << 16) and outs == (0,) * (1 << 16)


def test_csv_golden():
    table = logic.wildcard_reduce(3, 2)
    assert table.to_csv() == (
        "pattern,out0,out1,out2\n"
        "11*,0,0,1\n"
        "101,0,1,0\n"
        "011,1,0,0\n"
        "***,1,1,1\n"
    )


def test_lookup_agrees_with_direct_rule_on_random_inputs():
    table = logic.wildcard_reduce(12, 4)
    rng = substream(20260814, 3)
    for _ in range(300):
        bits = tuple(int(b) for b in rng.random(12) < 0.4)
        ones = [i for i, b in enumerate(bits) if b]
        if len(ones) >= 4:
            keep = set(ones[:4])
            assert table.lookup(bits) == tuple(0 if i in keep else 1 for i in range(12))
        else:
            assert table.lookup(bits) == (1,) * 12


def _string_match_rows(table, bits):
    """Row-by-row string match through ``TruthTable.matches``: the reference for ``match_rows``."""
    return [i for i, (pat, _) in enumerate(table.rows) if table.matches(pat, bits)]


@st.composite
def _tables_and_inputs(draw):
    """A {0, 1, *} table (random rows, or a wildcard-reduced one) with a few inputs of its width."""
    if draw(st.booleans()):
        width = draw(st.integers(0, 70))
        pattern = st.text(alphabet="01*", min_size=width, max_size=width)
        rows = tuple((pat, (i,)) for i, pat in enumerate(draw(st.lists(pattern, max_size=20))))
        table = logic.TruthTable(width=width, rows=rows, default_outputs=(-1,))
    else:
        width = draw(st.integers(1, 9))
        table = logic.wildcard_reduce(width, draw(st.integers(0, width)))
    # bits in the spellings callers use: bools, 0/1 ints and numpy bools
    bit = st.sampled_from([False, True, 0, 1, np.False_, np.True_])
    inputs = draw(st.lists(st.lists(bit, min_size=width, max_size=width), min_size=1, max_size=8))
    # inputs that hit a row: copy its fixed bits, draw the wildcards
    for pat, _ in draw(st.lists(st.sampled_from(table.rows), max_size=4)) if table.rows else ():
        inputs.append([c == "1" if c != "*" else draw(st.booleans()) for c in pat])
    return table, inputs


@settings(max_examples=300, deadline=None)
@given(_tables_and_inputs())
def test_match_rows_equals_the_string_oracle(case):
    table, inputs = case
    for bits in inputs:
        assert table.match_rows(bits) == _string_match_rows(table, bits)


def _all_inputs(width):
    return [[x >> i & 1 for i in range(width)] for x in range(1 << width)]


def test_dense_index_at_its_bounds():
    bound = LIMITS["index-entries"][0]
    # width 16: 2^16 slots, and one all-wildcard row matching each of them
    wild = logic.TruthTable(width=16, rows=(("*" * 16, (0,)),), default_outputs=(-1,))
    # one fully fixed row more puts the row entries one above the bound
    over = logic.TruthTable(width=16, rows=wild.rows + (("01" * 8, (1,)),), default_outputs=(-1,))
    # at width 12, bound / 4096 wildcard rows fill the bound, and one fixed row more overflows it
    rows = tuple(("*" * 12, (i,)) for i in range(bound >> 12))
    narrow = logic.TruthTable(width=12, rows=rows, default_outputs=(-1,))
    narrow_over = logic.TruthTable(width=12, rows=rows + (("1" * 11 + "*", (-1,)),), default_outputs=(-1,))
    for table, dense in ((wild, True), (over, False), (narrow, True), (narrow_over, False)):
        assert (table._index is not None) == dense
        for bits in _all_inputs(table.width):
            assert table.match_rows(bits) == _string_match_rows(table, bits)
    assert logic.TruthTable(width=17, rows=(("1" * 17, (0,)),), default_outputs=(0,))._index is None


def test_dense_index_of_width_zero():
    for rows in ((), (("", (1,)),), (("", (1,)), ("", (2,)))):
        table = logic.TruthTable(width=0, rows=rows, default_outputs=(0,))
        assert table._index is not None
        assert table.match_rows([]) == _string_match_rows(table, []) == list(range(len(rows)))


def test_match_rows_returns_a_fresh_list():
    wide = logic.TruthTable(width=20, rows=(("1" + "*" * 19, (1,)),), default_outputs=(0,))
    for table in (logic.wildcard_reduce(6, 2), wide):
        bits = [1] * table.width
        first = table.match_rows(bits)
        first.append(99)
        first.clear()
        assert table.match_rows(bits) == _string_match_rows(table, bits) != []


def test_inputs_of_the_wrong_width_are_rejected():
    table = logic.wildcard_reduce(12, 4)
    for bits in ([1, 1, 1, 1], [1] * 20, []):
        with pytest.raises(ValueError):
            table.match_rows(bits)
        with pytest.raises(ValueError):
            table.lookup(bits)
        with pytest.raises(ValueError):
            table.matches(table.rows[0][0], bits)
    small = logic.wildcard_reduce(4, 2)
    for pattern, bits in (("11**", [1]), ("1*", [1, 0, 0, 0]), ("1*", [1, 0])):
        with pytest.raises(ValueError):
            small.matches(pattern, bits)


def test_match_counts_agree_with_match_rows():
    tables = [logic.wildcard_reduce(w, n) for w in range(1, 11) for n in {0, w // 2, w}]
    tables.append(logic.TruthTable(width=0, rows=(("", (1,)),), default_outputs=(0,)))
    tables.append(logic.TruthTable(width=3, rows=(("1**", (1,)), ("*1*", (2,)), ("0*0", (3,))), default_outputs=(0,)))
    for table in tables:
        counts = table.match_counts()
        assert counts.shape == (1 << table.width,)
        for x in range(1 << table.width):
            assert counts[x] == len(table.match_rows([x >> i & 1 for i in range(table.width)]))
    with pytest.raises(ValueError):
        logic.TruthTable(width=25, rows=(), default_outputs=()).match_counts()

"""Feedforward routing logic: priority encoding and wildcard-reduced tables.

Heralding detectors feed a lookup table that picks switch settings and dumps
excess photons.  Listing every input pattern needs 2^B rows; since only the
first n heralds matter, all zeros after the final significant one can be
wildcarded, cutting the table to C(B, n) rows.

A table compiles each pattern once to a pair of integer masks (care,
value): bit i of care is set where port i is not a wildcard, bit i of value
where it must be 1.  An input packed into an integer x, port i in bit i,
matches a row exactly when x & care == value, at any width.  The pairs are
kept per row, and rows grouped by care mask and then by value, so a lookup
costs one dict probe per distinct care mask rather than one test per row.

A small table answers a lookup with one list index instead: at its first
match it builds a dense index from every packed input x = 0 .. 2^width - 1
to the ascending tuple of rows x matches.  The index is built only when both
its 2^width slots and its sum(len(rows) * 2^(width - popcount(care))) row
entries are within the `index-entries` bound of `muxkit._limits` (any table
of width <= 16 whose rows overlap little, such as every wildcard-reduced
one); a wider or heavily overlapping table keeps the per-care-mask probe.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Callable, Sequence

import numpy as np

from ._limits import LIMITS, check_size

__all__ = ["TruthTable", "priority_encode", "wildcard_reduce"]


def priority_encode(bits: Sequence[bool]) -> int | None:
    """Index of the first set bit (bit 0 = top port = highest priority)."""
    for i, b in enumerate(bits):
        if b:
            return i
    return None


@dataclass(frozen=True)
class TruthTable:
    """Immutable pattern table; patterns use {0, 1, *} with index 0 leftmost."""

    width: int
    rows: tuple[tuple[str, tuple[int, ...]], ...]
    default_outputs: tuple[int, ...]

    def __post_init__(self):
        masks: list[tuple[int, int]] = []
        groups: dict[int, dict[int, list[int]]] = {}
        for i, (pattern, _) in enumerate(self.rows):
            if len(pattern) != self.width or set(pattern) - {"0", "1", "*"}:
                raise ValueError(f"bad pattern {pattern!r}")
            rev = pattern[::-1]  # port i in bit i
            care = int("0" + rev.replace("0", "1").replace("*", "0"), 2)
            value = int("0" + rev.replace("*", "0"), 2)
            masks.append((care, value))
            groups.setdefault(care, {}).setdefault(value, []).append(i)
        object.__setattr__(self, "_masks", masks)  # (care, value) per row; not a field
        object.__setattr__(self, "_groups", groups)  # {care: {value: rows}}; not a field

    @functools.cached_property
    def _weights(self) -> list[int]:
        """1 << i for each port i.

        Built at the first match, not with the table: the list holds about
        width²/15 bytes, 67 GB for the one-row `wildcard_reduce(10**6, 0)`,
        which builds in under a second.
        """
        return [1 << i for i in range(self.width)]

    @functools.cached_property
    def _index(self) -> list[tuple[int, ...]] | None:
        """Ascending rows matched by each packed input x, or None when over the `index-entries` bound.

        Built at the first match.  Rows are taken in index order and row i
        is written into slot value | s for every submask s of its wildcard
        bits, so each (input, row) match is written once and every slot
        comes out ascending.
        """
        bound = LIMITS["index-entries"][0]  # on the 2^width slots and on the row entries
        if self.width >= bound.bit_length() or sum(1 << (self.width - care.bit_count()) for care, _ in self._masks) > bound:
            return None
        full = (1 << self.width) - 1
        slots: list[list[int]] = [[] for _ in range(full + 1)]
        for i, (care, value) in enumerate(self._masks):
            wild = s = full ^ care
            while True:
                slots[value | s].append(i)
                if not s:
                    break
                s = (s - 1) & wild
        return [tuple(slot) for slot in slots]

    def matches(self, pattern: str, bits: Sequence[bool]) -> bool:
        if not len(pattern) == len(bits) == self.width:
            raise ValueError(f"pattern has {len(pattern)} and input {len(bits)} symbols, table width is {self.width}")
        return all(c == "*" or bool(int(c)) == bool(b) for c, b in zip(pattern, bits))

    def match_rows(self, bits: Sequence[bool]) -> list[int]:
        """Indices of all rows matching the input (conflict checks), ascending, in a fresh list."""
        if len(bits) != self.width:
            raise ValueError(f"input has {len(bits)} bits, table width is {self.width}")
        x = sum(compress(self._weights, bits))
        index = self._index
        if index is not None:
            return list(index[x])
        hits = [i for care, by_value in self._groups.items() for i in by_value.get(x & care, ())]
        hits.sort()
        return hits

    def match_counts(self) -> np.ndarray:
        """Number of matching rows for every input x = 0 .. 2^width - 1, port i in bit i of x."""
        check_size("sweep-width", self.width)
        xs = np.arange(1 << self.width, dtype=np.int64)
        counts = np.zeros(len(xs), dtype=np.int64)
        for care, by_value in self._groups.items():
            masked = xs & care
            for value, rows in by_value.items():
                counts += len(rows) * (masked == value)
        return counts

    def lookup(self, bits: Sequence[bool]) -> tuple[int, ...]:
        hits = self.match_rows(bits)
        if not hits:
            return self.default_outputs
        if len(hits) > 1:
            outs = {self.rows[i][1] for i in hits}
            if len(outs) > 1:
                raise ValueError(f"conflicting rows {hits} for input {list(map(int, bits))}")
        return self.rows[hits[0]][1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        n_out = len(self.rows[0][1]) if self.rows else len(self.default_outputs)
        buf.write("pattern," + ",".join(f"out{j}" for j in range(n_out)) + "\n")
        for pattern, outs in self.rows:
            buf.write(pattern + "," + ",".join(str(o) for o in outs) + "\n")
        buf.write("*" * self.width + "," + ",".join(str(o) for o in self.default_outputs) + "\n")
        return buf.getvalue()


def wildcard_reduce(
    width: int,
    n_photons: int,
    outputs_for: Callable[[tuple[int, ...]], Sequence[int]] | None = None,
) -> TruthTable:
    """Table keyed on the first n set bits, one row per n-subset of ports.

    Each row is the exactly-n-ones pattern with every 0 after the final 1
    replaced by a wildcard, so any input with >= n ones matches exactly the
    row of its first n ones.  Appended to the outputs of outputs_for (default
    none) is one dump bit per port, set except on the n selected ports, so
    surplus photons on wildcard positions are discarded.  The width must be
    at least 1, and the rows and cells within the `wildcard-*` bounds.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= n_photons <= width:
        raise ValueError("need 0 <= n_photons <= width")
    n_rows = math.comb(width, min(n_photons, width - n_photons, 64))  # exact up to 64, over any bound past it
    check_size("wildcard-rows", n_rows)
    check_size("wildcard-cells", n_rows * width)
    rows = []
    for ones in combinations(range(width), n_photons):
        chosen = set(ones)
        base = tuple(1 if i in chosen else 0 for i in range(width))
        last = ones[-1] if ones else -1
        pattern = "".join(str(b) for b in base[: last + 1]) + "*" * (width - last - 1)
        outs = tuple(outputs_for(base)) if outputs_for is not None else ()
        dump = tuple(1 - b for b in base)
        rows.append((pattern, outs + dump))
    default = (0,) * (len(rows[0][1]) - width) + (1,) * width
    return TruthTable(width=width, rows=tuple(rows), default_outputs=default)

"""The sizes muxkit accepts, and the checks every entry point applies to its numbers.

An entry point that could be asked for more than it can compute (N x N tables,
2^width inputs, k^length words) counts the work in closed form and passes the
count to `check_size` before it allocates anything.  The README copies LIMITS.
"""

import math

import numpy as np

# name: (bound, what is counted, what holds it), each followed by the reason for its bound
LIMITS: dict[str, tuple[int, str, str]] = {
    "range-points": (1 << 16, "points", "a lo:hi:step range"),  # the largest range perfbench asks for has 64
    "device-modes": (1 << 20, "modes", "a gmzi device"),  # a device holds N doubles of setting phases, 8 MiB
    "table-modes": (1 << 12, "modes", "a gmzi angle table or routing table"),  # N^2 8-byte entries, 128 MiB
    "search-vectors": (200_000, "phase vectors", "an orthogonal-set search"),  # its graph holds a set per vector
    "sweep-width": (24, "ports (width)", "a match_counts sweep"),  # 2^width int64 counters, 128 MiB
    "wildcard-rows": (1 << 16, "rows C(width, n_photons)", "a wildcard table"),  # every width up to 18
    "wildcard-cells": (1 << 20, "cells (rows x width)", "a wildcard table"),  # every width up to 20 the rows allow
    "index-entries": (1 << 16, "slots or row entries", "a dense match index"),  # a larger table probes per mask
    "encoder-width": (16, "ports (width)", "an encoder enumeration"),  # one CSV line per input, 2^width
    "active-elements": (1 << 13, "active elements", "a switch network"),  # one 8,192-mode block: 122,927 components
    "binning-n": (1000, "photons (n)", "the distinct-bin fraction"),  # n!/n^n prints within 4,300 digits
    "trial-uniforms": (1 << 22, "uniforms", "one Monte-Carlo trial"),  # 32 MiB of doubles
    "debruijn-words": (10 ** 6, "words (k**length)", "a de Bruijn sequence"),  # one tuple entry per word
    "perm-bins": (1 << 16, "input bins (n_inputs)", "a temporal permutation"),  # one CSV line per bin
    "tetris-cells": (24, "cells (modes x bins)", "a per-bin-shift window of up to 7 modes"),  # the exact walk
    "tetris-cells-wide": (16, "cells (modes x bins)", "a per-bin-shift window of 8 modes or more"),  # ends in ~1 s
    "scan-sources": (10 ** 7, "sources", "a required-sources scan"),  # past it the target counts as unreachable
}


def check_size(name: str, value) -> None:
    """Raise ValueError when `value`, a count made by the caller, is over the bound of LIMITS[name]."""
    bound, counted, holder = LIMITS[name]
    if value > bound:
        raise ValueError(f"{holder} has more than {bound} {counted}")


def check_probability(p: float) -> None:
    """Raise ValueError unless 0 <= p <= 1 (NaN is rejected too)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of [0, 1]")


def check_finite(name: str, *values: float) -> None:
    """Raise ValueError unless every value is a finite number (NaN is rejected too)."""
    for value in values:
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, not {value!r}")


def check_int(name: str, *values) -> None:
    """Raise ValueError unless every value is a Python or numpy int; bools are refused."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, not {value!r}")

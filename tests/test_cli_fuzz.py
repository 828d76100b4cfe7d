"""CLI fuzz property: argv drawn from the parser itself ends in exit 0, 1 or 2, never in a traceback."""

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from muxkit import cli
from muxkit._limits import LIMITS

_SUBCOMMANDS = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
# verify takes no numeric flag and seconds a run; flags naming files are left out, so nothing is written
_COMMANDS = sorted(set(_SUBCOMMANDS) - {"verify"})
_PATH_FLAGS = {"csv", "json", "out", "config", "emit_config"}

_EDGE_INTS = sorted(
    {-1, 0, 1, 2, 3, 4, 7, 8, 12, 1 << 20, 10**9}
    | {bound for bound, _, _ in LIMITS.values()}
    | {bound + 1 for bound, _, _ in LIMITS.values()}
)
_EDGE_FLOATS = ["-1", "0", "1e-300", "0.5", "1", "1.5", "nan", "inf", "-inf"]
_RANGES = [
    "8:16:8", "0.1", "4", "-1", "nan", "1e-300", "0:1:0.5", "0.05:0.25:0.1", "1:4:1",
    "1:65537:1", "0:1:0.0000152587890625", "8:inf:8", "1000000000", "1048576:1048576:1",
]
_LISTS = ["2,0,1", "0", "3,3", "4,2", "-1,2", "1000000000", ""]

# --trials has no bound, so the property draws at most 20 of them, and always draws the
# flag: the default of 10,000 is a long run too
_MAX_TRIALS = 20


def _values(action: argparse.Action):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "trials":
        return st.sampled_from([str(v) for v in _EDGE_INTS if v <= _MAX_TRIALS])
    if action.type is int:
        return st.sampled_from([str(v) for v in _EDGE_INTS])
    if action.type is float:
        return st.sampled_from(_EDGE_FLOATS)
    if action.dest.endswith("range"):
        return st.sampled_from(_RANGES)
    return st.sampled_from(_LISTS)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest in _PATH_FLAGS or isinstance(action, argparse._HelpAction):
            continue
        if not (action.required or action.dest == "trials" or draw(st.booleans())):
            continue
        flag = draw(st.sampled_from(action.option_strings))
        if isinstance(action, argparse.BooleanOptionalAction) or action.nargs == 0:
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(_values(action))}")
    return argv


def _long(argv) -> bool:
    """True where argv asks for a valid run of more than about a second, which the property skips.

    Each case was found by running every flag at every edge value under a time limit.
    Values past a bound stay in: they must fail fast.
    """
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            a = cli._build_parser().parse_args(argv)
        except SystemExit:
            return False
    if a.command == "analyze":
        if a.curve in ("yield", "yield-max"):  # sums m x g Poisson terms
            return min(a.m, a.g) >= 1 and a.m * a.g > 4096
        if a.curve == "sources-ratio":  # one big-integer binomial term at a time
            return 16 < a.m <= LIMITS["scan-sources"][0]
        return a.curve == "group" and a.m > 16
    if a.command == "temporal":
        cells = a.modes * a.bins
        if a.scheme == "gather":  # draws trials x modes x bins uniforms
            return 4096 < cells <= LIMITS["trial-uniforms"][0]
        if a.scheme == "raster":  # one rastering run per source count, of trials x sources x steps uniforms
            return a.n_range in ("1000000000", "1048576:1048576:1")
        if a.scheme == "debruijn" and a.emit_sequence:  # prints one CSV line per word
            length = a.modes if a.word_length is None else a.word_length
            return a.modes > 1 and length > 0 and 10**5 < a.modes ** min(length, 64) <= LIMITS["debruijn-words"][0]
        return a.scheme == "debruijn" and a.tetris and a.modes > 6 and 12 < cells <= 24 and a.bins > 0
    if a.command == "gmzi":  # N^2 angles or routing entries per device
        return not a.classify and 64 < a.size <= LIMITS["table-modes"][0]
    # net builds switch blocks of up to the active-element bound of modes
    return a.command == "net" and any(64 < x <= LIMITS["active-elements"][0] for x in (a.size, a.n, a.m))


@settings(max_examples=200, deadline=None)
@given(_argv().filter(lambda argv: not _long(argv)))
def test_cli_never_prints_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()

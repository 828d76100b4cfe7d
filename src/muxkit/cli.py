"""Command-line surface: emits curve/table data as CSV or JSON, no plotting.

Every file written is paired with a `<file>.manifest.json` recording the
command, parameters, seed, tool version, timestamp and sha256 digests, so a
run can be reproduced and its outputs checked byte-for-byte (numeric columns
are deterministic functions of the manifest parameters).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import astuple
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, acceptance, analytics, gmzi, gridmux, logic, networks, patterns, temporal
from ._limits import check_finite, check_size

__all__ = ["main"]


# ---------------------------------------------------------------------------
# formatting and manifests


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer, np.bool_)):  # a bool prints as 0 or 1
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _write_output(args: argparse.Namespace, path: str, text: str) -> None:
    """Write `text` to `path` and `<path>.manifest.json` beside it."""
    Path(path).write_text(text, newline="\n")
    params = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {
        "command": "muxkit " + " ".join(sys.argv[1:]),
        "parameters": {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {path: hashlib.sha256(text.encode()).hexdigest()},
    }
    Path(path + ".manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", newline="\n")


def _emit(args: argparse.Namespace, text: str) -> None:
    """Print `text`, or write it to the --csv file with its manifest."""
    if not args.csv:
        sys.stdout.write(text)
    else:
        _write_output(args, args.csv, text)


def _emit_csv(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    _emit(args, "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]))


def _parse_range(spec: str, integer: bool = False) -> list:
    """lo:hi:step inclusive grid of at most the `range-points` bound of points, or a single value."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [int(parts[0]) if integer else float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"range must be 'lo:hi:step' or a single value, got {spec!r}")
    lo, hi, step = (float(x) for x in parts)
    check_finite(f"lo, hi and step of range {spec!r}", lo, hi, step)
    if step <= 0 or hi < lo:
        raise ValueError("range needs step > 0 and hi >= lo")
    end = hi + 1e-9 * max(1.0, abs(hi))
    # counted with the loop's own end, so a step too small to move x is refused too
    steps = (end - lo) / step  # inf when the span or the quotient overflows
    check_size("range-points", math.floor(steps) + 1 if steps < math.inf else steps)
    out = []
    x = lo
    while x <= end:
        out.append(int(round(x)) if integer else round(x, 12))
        x += step
    return out


def _parse_ints(spec: str) -> tuple[int, ...]:
    return tuple(int(x) for x in spec.replace(" ", "").split(",") if x != "")


# ---------------------------------------------------------------------------
# analyze


def _n_grid(args) -> list[int]:
    return _parse_range(args.n_range, integer=True)


# curve -> (CSV header, rows from the parsed arguments), in --curve's order
_CURVES = {
    "pmux": (
        ["n_sources", "p", "p_mux"],
        lambda a: [[n, a.p, analytics.p_mux_single(n, a.p)] for n in _n_grid(a)],
    ),
    "group": (
        ["n_sources", "p", "m", "naive", "optimal"],
        lambda a: [
            [n, a.p, a.m, analytics.naive_group_pmux(n, a.p, a.m), analytics.optimal_group_pmux(n, a.p, a.m)]
            for n in _n_grid(a)
        ],
    ),
    "sources-ratio": (
        ["p", "target", "m", "n_naive", "n_optimal", "ratio"],
        lambda a: [[a.p, a.target, a.m, *analytics.required_sources_ratio(a.p, a.target, a.m)]],
    ),
    "yield": (
        ["lam", "m", "g", "sharing", "yield"],
        lambda a: [
            [lam, a.m, a.g, int(a.sharing), analytics.yield_multi_generator(lam, a.m, a.g, a.sharing)]
            for lam in _parse_range(a.lam_range)
        ],
    ),
    "yield-max": (
        ["m", "g", "sharing", "lam_star", "yield_max"],
        lambda a: [[a.m, a.g, int(a.sharing), *analytics.max_yield(a.m, a.g, sharing=a.sharing)]],
    ),
    "footprint": (
        ["n_sources", "p", "yield", "p_group", "p_out", "copies", "sources", "sources_approx"],
        lambda a: [[
            a.n, a.p, a.yield_, a.p_group, a.p_out,
            *astuple(analytics.footprint(a.n, a.p, a.yield_, a.p_group, a.p_out)),
        ]],
    ),
    "raster": (
        ["n_sources", "p", *(s.replace("-", "_") for s in analytics.RASTER_STRATEGIES)],
        lambda a: [
            [n, a.p, *(analytics.raster_yield(s, n, a.p) for s in analytics.RASTER_STRATEGIES)]
            for n in _n_grid(a)
        ],
    ),
    "crossover": (["p", "crossover_sources"], lambda a: [[a.p, analytics.raster_crossover(a.p)]]),
    "ghz": (
        ["n_sources", "p", "scheme", "factor"],
        lambda a: [[a.n, a.p, k, v] for k, v in sorted(analytics.ghz_improvement_factors(a.n, a.p).items())],
    ),
    "bsg": (["n_modes", "p_success"], lambda a: [[n, analytics.p_bsg(n)] for n in _n_grid(a)]),
    "reduction": (["reduction_factor"], lambda a: [[analytics.enlarged_gmzi_mux_reduction()]]),
}


def _cmd_analyze(args) -> int:
    header, rows = _CURVES[args.curve]
    _emit_csv(args, header, rows(args))
    return 0


# ---------------------------------------------------------------------------
# search


def _cmd_search(args) -> int:
    rows = []
    if args.circuit in ("bsg8", "bsg12"):
        n = 8 if args.circuit == "bsg8" else 12
        res = patterns.search_optimal_coupler_layer(n)
        frac = Fraction(res.n_routable, res.n_patterns)
        print(f"modes: {n}")
        print("optimal coupler layer: " + " ".join(f"({a},{b})" for a, b in res.layer))
        print(f"routable patterns: {res.n_routable}/{res.n_patterns} (fraction {frac})")
        print(f"usable target patterns: {len(patterns.paired_usable_patterns(n))}")
        print(f"layers searched: {res.n_layers_searched}")
        rows = [[n, str(res.layer), res.n_routable, res.n_patterns, float(frac)]]
        header = ["n_modes", "layer", "n_routable", "n_patterns", "fraction"]
    elif args.circuit == "pairs":
        rails = patterns.rail_pairing_success_fraction()
        paired = patterns.paired_coupler_success_fraction()
        print(f"untyped coupler pairing success: {rails} = {float(rails)}")
        print(f"typed coupler pairing success: {paired} = {float(paired)}")
        rows = [["untyped", str(rails), float(rails)], ["typed", str(paired), float(paired)]]
        header = ["variant", "fraction", "value"]
    elif args.circuit == "binning":
        frac = patterns.distinct_bin_fraction(args.n)
        print(f"all-distinct-bin probability at n={args.n}: {frac} = {float(frac)}")
        rows = [[args.n, str(frac), float(frac)]]
        header = ["n", "fraction", "value"]
    if args.csv:  # without --csv the report above is the output
        _emit_csv(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# gridmux


def _cmd_gridmux(args) -> int:
    if args.emit_config:
        _write_output(args, args.emit_config, gridmux.config_to_json(gridmux.default_config()) + "\n")
        return 0
    if args.config:
        cfg = gridmux.config_from_json(Path(args.config).read_text())
    else:
        cfg = gridmux.default_config()
    group_type = _parse_ints(args.column_group_type) if args.column_group_type else None
    rows = []
    for i, p in enumerate(_parse_range(args.p_range)):
        pt = gridmux.simulate_grid_yield(cfg, p, trials=args.trials, seed=args.seed + i, column_group_type=group_type)
        rows.append([p, pt.estimate.mean, pt.estimate.stderr, pt.bound, pt.naive, pt.estimate.trials, pt.estimate.seed])
    header = ["p", "yield", "stderr", "bound", "naive", "trials", "seed"]
    _emit_csv(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# temporal


def _cmd_temporal(args) -> int:
    if args.scheme == "raster":
        rows = []
        for i, n in enumerate(_parse_range(args.n_range, integer=True)):
            res = temporal.raster_simulate(
                args.strategy, n, args.p, enhanced=args.enhanced, trials=args.trials, seed=args.seed + i
            )
            closed = analytics.raster_yield(args.strategy, n, args.p)
            rows.append(
                [
                    n,
                    args.p,
                    int(args.enhanced),
                    res.groups_per_period.mean,
                    res.groups_per_period.stderr,
                    res.yield_per_photon.mean,
                    res.yield_per_photon.stderr,
                    closed,
                    res.groups_per_period.seed,
                ]
            )
        header = ["n_sources", "p", "enhanced", "groups", "groups_stderr", "yield", "yield_stderr", "closed_form_yield", "seed"]
        _emit_csv(args, header, rows)
    elif args.scheme == "debruijn":
        if args.emit_sequence:
            seq = temporal.reduced_de_bruijn(args.modes, args.modes if args.word_length is None else args.word_length)
            rows = [[i, s] for i, s in enumerate(seq)]
            _emit_csv(args, ["index", "delay"], rows)
        else:
            rows = []
            for p in _parse_range(args.p_range):
                single = temporal.non_tetris_success_probability(args.modes, args.bins, p)
                row = [args.modes, args.bins, p, single]
                if args.tetris:
                    row.append(float(temporal.tetris_success_probability(args.modes, args.bins, p)))
                rows.append(row)
            header = ["modes", "bins", "p", "single_shift_prob"] + (["per_bin_shift_prob"] if args.tetris else [])
            _emit_csv(args, header, rows)
    elif args.scheme == "gather":
        rows = []
        for i, p in enumerate(_parse_range(args.p_range)):
            est = temporal.simulate_group_extraction(
                args.modes, args.group_size, args.bins, p, trials=args.trials, seed=args.seed + i
            )
            for k, e in est.items():
                rows.append([args.modes, args.group_size, args.bins, p, k, e.mean, e.stderr, e.seed])
        header = ["modes", "group_size", "bins", "p", "k_groups", "prob_at_least_k", "stderr", "seed"]
        _emit_csv(args, header, rows)
    elif args.scheme == "perm":
        perm = _parse_ints(args.perm) if args.perm else range(args.size)
        sched = temporal.temporal_permutation(args.size, perm, variant=args.variant)
        arrivals = temporal.replay_temporal_permutation(sched)
        rows = []
        for r, i in enumerate(sched.inputs):
            port, t = arrivals[i]
            rows.append([i, sched.targets[r], sched.first_shifts[i], port, t])
        header = ["input_bin", "target_slot", "delay_line", "output_port", "output_bin"]
        _emit_csv(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# gmzi


def _cmd_gmzi(args) -> int:
    if args.classify:
        for spec in gmzi.classify_gmzi_types(args.size):
            print(",".join(str(f) for f in spec))
        return 0
    if args.report == "swings":
        rows = []
        for spec in gmzi.classify_gmzi_types(args.size):
            dev = gmzi.build_gmzi(spec)
            dec = gmzi.decompose_stages(dev)
            rows.append(["x".join(str(f) for f in spec), gmzi.phase_swing(dev), dec.depth(), dec.total_crossings()])
        _emit_csv(args, ["type", "swing", "stages", "crossings"], rows)
        return 0
    if args.report == "vectors":
        rows_angles = gmzi.ternary_six_mode_mux_settings()
        rep = gmzi.check_mux_lemma(np.exp(1j * rows_angles).conj().T / np.sqrt(6), rows_angles)
        rows = [[i] + list(row) for i, row in enumerate(rows_angles)]
        _emit_csv(args, ["setting"] + [f"mode{m}" for m in range(6)], rows)
        print(f"orthonormal: {rep.orthonormal_ok} (max deviation {rep.max_gram_deviation:.3e})")
        return 0
    spec = gmzi.cyclic_spec(_parse_ints(args.type), order=args.size) if args.type else gmzi.prime_power_spec(args.size)
    dev = gmzi.build_gmzi(spec)
    if args.verify:
        ok, err = acceptance._check_device(dev)
        print(f"device {spec}: settings permute with Latin-square routing, stage error {err:.2e}")
        if not ok:
            print("verification FAILED", file=sys.stderr)
            return 1
        return 0
    text = gmzi.device_to_json(dev)
    if args.json:
        _write_output(args, args.json, text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# logic


def _cmd_logic(args) -> int:
    if args.table == "wildcard":
        table = logic.wildcard_reduce(args.width, args.photons)
        text = table.to_csv()
    elif args.table == "encoder":
        if args.width < 1:
            raise ValueError("encoder enumeration needs width >= 1")
        check_size("encoder-width", args.width)
        lines = ["pattern,first_index"]
        for x in range(1 << args.width):
            bits = [bool(x >> i & 1) for i in range(args.width)]
            idx = logic.priority_encode(bits)
            lines.append("".join("1" if b else "0" for b in bits) + "," + ("none" if idx is None else str(idx)))
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    return 0


# ---------------------------------------------------------------------------
# net


def _cmd_net(args) -> int:
    builder = networks.BUILDERS[args.topology]
    if args.topology == "spanke":
        net = builder(args.size, args.m, optimized=args.optimized)
    elif args.topology == "concatenated-gmzi":
        net = builder(args.size, args.m)
    else:
        net = builder(args.size, args.n)
    met = networks.metrics(net)
    delays = ",".join(_fmt(d) for d in met.delays) if met.delays else "-"
    print(
        f"{net.name}: inputs {met.n_inputs} outputs {met.n_outputs} "
        f"active {met.n_active} depth {met.depth_min}..{met.depth_max} "
        f"couplers {met.n_couplers} crossings {met.crossing_count} delays {delays}"
    )
    if args.out:
        _write_output(args, args.out, networks.network_to_json(net) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    results = acceptance.run_all(quick=args.quick, echo=print)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed" + (" (quick mode)" if args.quick else ""))
    if args.json:
        payload = {
            "mode": "quick" if args.quick else "full",
            "version": __version__,
            "checks": [
                {"index": r.index, "name": r.name, "passed": r.passed, "values": r.values}
                for r in results
            ],
        }
        _write_output(args, args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once per process: parse_args returns a fresh namespace and no default is mutable
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxkit",
        description="Switch-network design and yield data for multiplexed photon sources.",
    )
    parser.add_argument("--version", action="version", version=f"muxkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="closed-form curves and optima")
    pa.add_argument("--curve", required=True, choices=list(_CURVES))
    pa.add_argument("--n", type=int, default=48)
    pa.add_argument("--n-range", default="8:128:8")
    pa.add_argument("--p", type=float, default=0.05)
    pa.add_argument("--m", type=int, default=4)
    pa.add_argument("--g", type=int, default=1)
    pa.add_argument("--target", type=float, default=0.99)
    pa.add_argument("--lam-range", default="1:20:1")
    pa.add_argument("--sharing", action=argparse.BooleanOptionalAction, default=True)
    pa.add_argument("--yield", dest="yield_", type=float, default=0.8)
    pa.add_argument("--p-group", type=float, default=0.5)
    pa.add_argument("--p-out", type=float, default=0.99)
    pa.add_argument("--csv")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("search", help="pattern-coverage searches and fractions")
    ps.add_argument("--circuit", required=True, choices=["bsg8", "bsg12", "pairs", "binning"])
    ps.add_argument("--n", type=int, default=4)
    ps.add_argument("--csv")
    ps.set_defaults(func=_cmd_search)

    pg = sub.add_parser("gridmux", help="grid multiplexer yield simulation")
    pg.add_argument("--p-range", default="0.05:0.15:0.05")
    pg.add_argument("--trials", type=int, default=10_000)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--config", help="JSON layout (see --emit-config)")
    pg.add_argument("--emit-config", help="write the default layout JSON and exit")
    pg.add_argument("--column-group-type", help="comma list of cyclic factors per column switch")
    pg.add_argument("--csv")
    pg.set_defaults(func=_cmd_gridmux)

    pt = sub.add_parser("temporal", help="time-multiplexing schemes")
    pt.add_argument("--scheme", required=True, choices=["raster", "debruijn", "gather", "perm"])
    pt.add_argument("--strategy", default="one-mux", choices=[*temporal.RASTER_GROUP_STEPS, *analytics.RASTER_ALIASES])
    pt.add_argument("--n-range", default="8:128:8")
    pt.add_argument("--p", type=float, default=0.05)
    pt.add_argument("--p-range", default="0.05:0.25:0.05")
    pt.add_argument("--enhanced", action=argparse.BooleanOptionalAction, default=False)
    pt.add_argument("--trials", type=int, default=10_000)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--modes", type=int, default=4)
    pt.add_argument("--bins", type=int, default=4)
    pt.add_argument("--word-length", type=int)
    pt.add_argument("--tetris", action="store_true")
    pt.add_argument("--emit-sequence", action="store_true")
    pt.add_argument("--group-size", type=int, default=4)
    pt.add_argument("--size", type=int, default=4, help="permutation window size R")
    pt.add_argument("--perm", help="comma list, e.g. 2,0,1")
    pt.add_argument("--variant", default="arbitrary", choices=["arbitrary", "sort-to-top"])
    pt.add_argument("--csv")
    pt.set_defaults(func=_cmd_temporal)

    pz = sub.add_parser("gmzi", help="switch-device build, verify, reports")
    pz.add_argument("--size", type=int, default=8)
    pz.add_argument("--type", help="comma list of cyclic factors, e.g. 4,2")
    pz.add_argument("--classify", action="store_true")
    pz.add_argument("--verify", action="store_true")
    pz.add_argument("--report", choices=["swings", "vectors"])
    pz.add_argument("--json", help="serialize the device to this path")
    pz.add_argument("--csv")
    pz.set_defaults(func=_cmd_gmzi)

    pl = sub.add_parser("logic", help="feedforward truth tables")
    pl.add_argument("--table", required=True, choices=["wildcard", "encoder"])
    pl.add_argument("--width", type=int, required=True)
    pl.add_argument("--photons", type=int, default=4)
    pl.add_argument("--csv")
    pl.set_defaults(func=_cmd_logic)

    pn = sub.add_parser("net", help="build a switch network and report cost metrics")
    pn.add_argument("--topology", required=True, choices=sorted(networks.BUILDERS))
    pn.add_argument("--size", type=int, required=True, help="input count (time bins for the delay builders)")
    pn.add_argument("--n", type=int, default=2, help="switch block size / tree branching")
    pn.add_argument("--m", type=int, default=2, help="output count (spanke, concatenated-gmzi)")
    pn.add_argument("--optimized", action="store_true", help="trim unreachable fan arms (spanke)")
    pn.add_argument("--out", help="write the network JSON here")
    pn.set_defaults(func=_cmd_net)

    pv = sub.add_parser("verify", help="run the acceptance checks")
    pv.add_argument("--quick", action="store_true", help="reduced trial counts")
    pv.add_argument("--json", help="write the numeric report to this path")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

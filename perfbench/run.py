"""muxkit benchmark: one single-threaded, closed-loop runner over three workloads.

    python3 perfbench/run.py --workload mc-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a muxkit checkout; the library is imported from ``src/``.
A run builds its inputs from ``--seed``, times fresh-interpreter set-up, warms
up on a tiny pass, then repeats the workload's pass (see ``workloads.py``) in a
closed loop until ``--seconds`` have passed, checking every output.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.

A traced run spends half its time untraced and half traced (the difference is
``trace.overhead_s``), then takes any per-layer metric its own workload does
not exercise from one traced pass of the other workloads on the same seed.
Spans are kept in memory and written to ``.perfbench/`` at the end.
"""

import os

# single-threaded by construction: BLAS pools capped, and MUXKIT_THREADS left
# unset since the library ignores it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MUXKIT_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7

if not (SRC / "muxkit" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'muxkit'} not found; run from the root of a muxkit checkout")
sys.path.insert(0, str(SRC))
import muxkit  # noqa: E402

if Path(muxkit.__file__).resolve().parent != (SRC / "muxkit").resolve():
    sys.exit(f"perfbench: imported muxkit from {muxkit.__file__}, not from {SRC}")

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build, fingerprint, load_digests  # noqa: E402


@dataclass
class PassResult:
    wall: float  # seconds of the pass minus checks, replays and direct calls
    elapsed: float  # everything the pass took
    calls: list  # seconds of each top-level call
    trials: int
    attempted: int
    failed: int
    messages: list
    digests: dict
    tracer: object = None


def _traced_extras(op, out, ctx, tracer) -> str | None:
    """Counts, replay and direct call of a traced op, right after the op itself."""
    if op.tally:
        tracer.counts.update(op.tally(out))
    err = None
    if op.replay:
        span = tracer.begin(f"replay.{op.name}", "bench")
        err = op.replay(out, tracer)
        tracer.end(span)
    if op.direct:
        span = tracer.begin("cli.direct", "bench")
        op.direct(ctx)
        tracer.end(span)
    return err


def run_pass(ops, ctx, frozen, tracer=None) -> PassResult:
    """Call every op once, timing each call and checking its output."""
    start = perf_counter()
    hashers: dict = {}
    members = defaultdict(list)
    failed: dict[int, str] = {}
    calls = []
    trials = 0
    unmeasured = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            span = tracer.begin(op.name, op.layer)
        t0 = perf_counter()
        try:
            out, err = op.call(ctx), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, f"{op.name} raised {exc!r}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end(span)
        calls.append(t1 - t0)
        trials += op.trials
        hasher = hashers.setdefault(op.group, hashlib.sha256())
        members[op.group].append(i)
        if err is None:
            if op.store:
                ctx[op.store] = out
            try:
                err = op.check(out, ctx) if op.check else None
                hasher.update(fingerprint(out))
                if tracer is not None:
                    err = _traced_extras(op, out, ctx, tracer) or err
            except Exception as exc:
                err = f"checking {op.name} raised {exc!r}"
        else:
            hasher.update(b"raised")
        if err:
            failed[i] = err
        unmeasured += perf_counter() - t1
    digests = {group: h.hexdigest() for group, h in hashers.items()}
    for group, digest in digests.items():
        if group in frozen and frozen[group] != digest:
            for i in members[group]:
                failed.setdefault(i, f"digest of {group} differs from the frozen one")
    wall = perf_counter() - start - unmeasured
    return PassResult(
        wall=wall, elapsed=perf_counter() - start, calls=calls, trials=trials, attempted=len(ops),
        failed=len(failed), messages=list(failed.values()), digests=digests, tracer=tracer,
    )


def closed_loop(ops, ctx, frozen, budget: float, traced: bool) -> list:
    """Repeat the pass while another one fits in the budget (at least once)."""
    results = []
    start = perf_counter()
    while True:
        results.append(run_pass(ops, ctx, frozen, Tracer() if traced else None))
        typical = statistics.median(r.elapsed for r in results)
        if perf_counter() - start + typical > budget:
            return results


def setup(workload, seed, scale, tmp):
    """A workload's pass, its tiny warm-up pass and their shared context."""
    ops = build(workload, seed, scale)
    warm = build(workload, seed, "tiny")
    return ops, warm, {"tmp": str(tmp)}


def time_setup(args) -> list:
    """Seconds from a fresh interpreter to ready, SETUP_REPEATS times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            t1 = perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            sys.exit(f"perfbench: set-up child failed (exit {code}, said {line!r})")
        samples.append(t1 - t0)
    return samples


def quantile_ms(calls: list) -> tuple[float, float]:
    deciles = statistics.quantiles([1e3 * c for c in calls], n=10)
    return deciles[4], deciles[8]


def trace_run(args, ops, ctx, frozen) -> tuple[dict, list]:
    """Per-layer metrics: medians over traced passes, gaps filled from other workloads."""
    half = args.seconds / 2
    base = closed_loop(ops, ctx, frozen, half, traced=False)
    traced = closed_loop(ops, ctx, frozen, half, traced=True)
    per_pass = [layer_metrics(r.tracer, ops) for r in traced]
    metrics = {}
    for k, first in per_pass[0].items():
        values = [m[k] for m in per_pass]
        if isinstance(first, int) or k.endswith("_ratio"):
            if len(set(values)) != 1:
                sys.exit(f"perfbench: count {k} differs between passes: {values}")
            metrics[k] = first
        else:
            metrics[k] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in base)
    spans = {args.workload: [r.tracer.spans for r in traced]}
    results = base + traced
    for other in WORKLOADS:
        if other == args.workload:
            continue
        o_ops, o_warm, o_ctx = setup(other, args.seed, args.scale, ctx["tmp"])
        results.append(run_pass(o_warm, o_ctx, frozen))
        res = run_pass(o_ops, o_ctx, frozen, Tracer())
        results.append(res)
        spans[other] = [res.tracer.spans]
        for k, v in layer_metrics(res.tracer, o_ops).items():
            metrics.setdefault(k, v)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))
    return metrics, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json", help="frozen output digests")
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's digests for the default seed and seed-independent groups")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    frozen = {} if args.write_digests else load_digests(args.digests)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_child:
            ops, warm, ctx = setup(args.workload, args.seed, args.scale, tmp)
            run_pass(warm, ctx, frozen)
            print("ready", flush=True)
            return 0
        setup_samples = [] if args.trace else time_setup(args)
        ops, warm, ctx = setup(args.workload, args.seed, args.scale, tmp)
        results = [run_pass(warm, ctx, frozen)]
        if args.trace:
            metrics, more = trace_run(args, ops, ctx, frozen)
            results += more
            wanted = spec["per_layer"]
        else:
            timed = closed_loop(ops, ctx, frozen, args.seconds, traced=False)
            results += timed
            walls = [r.wall for r in timed]
            p50, p90 = quantile_ms([c for r in timed for c in r.calls])
            work = sum(r.trials or len(r.calls) for r in timed)
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(walls),
                "trials_per_s": work / sum(walls),
                "call_ms.p50": p50,
                "call_ms.p90": p90,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.write_digests:
        keep = {}
        for r in results:
            for group, digest in r.digests.items():
                if group.startswith("fixed/") or f"/s{DEFAULT_SEED}/" in group:
                    if keep.setdefault(group, digest) != digest:
                        sys.exit(f"perfbench: {group} is not reproducible within one run")
        digests = load_digests(args.digests)
        digests.update(keep)
        args.digests.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {', '.join(missing)}")
    failed = sum(r.failed for r in results)
    for message in [m for r in results for m in r.messages][:10]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

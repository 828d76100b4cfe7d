"""Paired benchmark runs of two revisions: medians, quartiles and a verdict per metric.

    python3 tools/perf_pairs.py --parent HEAD~1 --pairs 10

Each revision is extracted with ``git archive REV | tar -x`` into a temporary
directory, removed at exit, so nothing is written into the checkout.  For each
workload of BENCHMARK.json the two trees run the benchmark command (with
``--trace 0``, for BENCHMARK.json's run_seconds) alternately for N pairs: pair i
runs seed i (from 1) on both sides, and the side that runs first swaps from one
pair to the next.  For each
end-to-end metric the report gives the median and quartiles of each side, the
pairs the change won and a verdict (see ``verdict``), and for each workload
the failed and attempted operations of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[float, float] = (0.0, 0.0)) -> str:
    """Verdict on one metric from paired runs; parent[i] and change[i] are pair i.

    better is "lower" or "higher"; bound is the largest worsening of the
    median, as a fraction of the parent's median, that the benchmark allows;
    failed is the share of operations that failed on the parent and on the change.

    - "worse": the change's median is worse than the parent's by more than the bound.
    - "gain": the change won at least nine tenths of the pairs (ties count
      for neither), its median is better than the parent's by more than the
      parent's interquartile range, and it fails no larger share of operations.
    - "unresolved": either side's interquartile range is wider than the
      bound, unless every run of the change is better than every run of the
      parent.
    - "no regression": otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0  # after the sign flip, lower is better
    p, c = [sign * v for v in parent], [sign * v for v in change]
    p_med, c_med = statistics.median(p), statistics.median(c)
    allowed = bound * abs(p_med)
    if c_med - p_med > allowed:
        return "worse"
    wins = sum(ci < pi for pi, ci in zip(p, c))
    if wins >= 0.9 * len(p) and p_med - c_med > _iqr(p) and failed[1] <= failed[0]:
        return "gain"
    if max(_iqr(p), _iqr(c)) > allowed and max(c) >= min(p):
        return "unresolved"
    return "no regression"


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE, check=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"perf_pairs: {' '.join(argv)} in {tree.name} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def _report(workload: str, runs: dict[str, list[dict]], metrics: list[dict]) -> None:
    ops = {side: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for side, rs in runs.items()}
    print(f"{workload}: failed/attempted operations: parent {'/'.join(map(str, ops['parent']))}, "
          f"change {'/'.join(map(str, ops['change']))}")
    failed = tuple(f / a if a else 0.0 for f, a in (ops["parent"], ops["change"]))
    header = f"{'parent median [q1, q3]':<34}{'change median [q1, q3]':<34}{'change':>8}{'won':>7}"
    print(f"  {'metric':<14}{header}  verdict")
    for m in metrics:
        parent, change = ([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("parent", "change"))
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * c < sign * p for p, c in zip(parent, change))
        moved = statistics.median(change) / statistics.median(parent) - 1.0
        print(f"  {m['name']:<14}{_summary(parent):<34}{_summary(change):<34}{moved:>+8.1%}{won:>4}/{len(parent):<2}"
              f"  {verdict(parent, change, m['better'], m['bound'], failed)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        _extract(args.parent, trees["parent"])
        _extract(args.change, trees["change"])
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(_run(trees[side], spec["command"], workload, i + 1, spec["run_seconds"]))
                print(f"perf_pairs: {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            _report(workload, runs, spec["end_to_end"])
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

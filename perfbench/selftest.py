"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that a tiny run prints every metric of
BENCHMARK.json with its unit and no failed operation; that a corrupted
reference digest makes operations fail, so the gate bites; and that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark itself.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main() -> int:
    problems = []
    OUT.mkdir(exist_ok=True)
    frozen = json.loads((HERE / "digests.json").read_text())
    corrupt = OUT / "selftest-digests.json"
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(bench(workload, trace))
            if res is None:
                problems.append(f"{workload} --trace {trace}: no result")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} --trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if any(not math.isfinite(v["value"]) for v in res["metrics"].values()):
                problems.append(f"{workload} --trace {trace}: a metric is not a finite number")
            failed_frac = res["failed"] / res["attempted"]
            if failed_frac != 0 or not res["correct"]:
                problems.append(f"{workload} --trace {trace}: failed_frac {failed_frac}")
        bad = dict(frozen)
        group = next(g for g in sorted(bad) if g.startswith(f"{workload}/tiny/s0/"))
        bad[group] = "0" * 64
        corrupt.write_text(json.dumps(bad))
        res = result(bench(workload, 0, extra=("--digests", str(corrupt))))
        if res is None or res["failed"] == 0 or res["correct"]:
            problems.append(f"{workload}: a corrupted digest of {group} went unnoticed")
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("mc-bulk", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a directory without muxkit sources gave a result")
    shutil.rmtree(bare)
    corrupt.unlink(missing_ok=True)
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

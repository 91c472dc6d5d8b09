"""Steadiness report: run the benchmark in sets and compare the spreads with
the bounds in ``BENCHMARK.json``.

    python3 bench/steady.py --workload build [--first-seed 1]

It makes two sets of ten runs at ``run_seconds`` of ``BENCHMARK.json``, each
run with its own seed. For every end-to-end metric, ``setup_s`` included,
the report prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, over the median) against the metric's bound, and how much worse
the second set's median is than the first's. A spread counts as steady
below a third of its bound; the report fails when a spread or the drift
between the sets exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = []
    ok = True
    for s in range(SETS):
        results = []
        for r in range(RUNS):
            seed = args.first_seed + s * RUNS + r
            result = run_once(args.workload, seed, spec["run_seconds"])
            ok &= result["correct"] and result["failed"] == 0
            print(f"set {s} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
            results.append(result)
        sets.append(results)

    report = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            medians.append(median)
            steady = spread < bound / 3
            ok &= spread <= bound
            verdict = "steady" if steady else ("within bound" if spread <= bound else "OVER")
            print(f"{name:>14} set {s}: median {median:.6g} {metric['unit']}, "
                  f"q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f} "
                  f"(bound {bound}, {verdict})")
            report.setdefault(name, []).append(
                {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values})
        for k in range(1, len(medians)):
            drift = worse_by(medians[0], medians[k], metric["better"])
            ok &= drift <= bound
            print(f"{name:>14} set {k} vs set 0: worse by {drift:+.4f} (bound {bound})")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n",
                                                      encoding="utf-8")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

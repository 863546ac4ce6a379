"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

For each workload: one run per seed with --trace 0, then one run with
--trace 1 on the first seed.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread should stay below a third
of its bound.  --out writes all runs and the summary as JSON; a file
written from a commit is that commit's baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(argv)}\n{done.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(results: list) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": metric["bound"],
                               "unit": metric["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    args = ap.parse_args()

    doc = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        reports, results = [], []
        for seed in seed_range(args.seeds):
            report, result = run(workload, seed, 0)
            reports.append(report)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.4f}", flush=True)
        summary = summarise(results)
        traced_report, _ = run(workload, seed_range(args.seeds)[0], 1)
        doc["workloads"][workload] = {"summary": summary, "runs": reports,
                                      "traced_run": traced_report}
        print(f"\n{workload}: {len(results)} runs, "
              f"all correct: {all(r['correct'] for r in results)}")
        for name, s in summary.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {name:14s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}) {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

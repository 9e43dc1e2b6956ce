"""Run the benchmark over several seeds and summarise every metric.

    python3 benchmarks/sweep.py --seeds 1-10 [--workloads adaptive_u13,wide_u32]
                                [--trace 0|1] [--seconds N] [--out FILE]

Runs `benchmarks/run.py` once per (workload, seed), one run at a time, and
prints for each metric its median, quartiles and spread (q3 - q1) / median
next to the bound in BENCHMARK.json.  It exits 1 if a run fails, reports
incorrect output, or (for end-to-end metrics) spreads beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])["record"]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = ap.parse_args(argv)

    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    runs, summary, ok = {}, {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            ok &= res["correct"] and res["failed"] == 0
        summary[workload] = {}
        print(f"\n{workload}: {'metric':36s} {'unit':6s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
        for name, spec in specs.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec.get("bound")
            if bound is not None and name != "setup_s" and spread > bound:
                ok = False
            summary[workload][name] = {"unit": spec["unit"], "median": med, "q1": q1,
                                       "q3": q3, "spread": spread}
            print(f"{workload}: {name:36s} {spec['unit']:6s} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:7.3f} {'' if bound is None else bound:>6}")
        print()
    if args.out:
        args.out.write_text(json.dumps({"trace": args.trace, "seconds": args.seconds,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

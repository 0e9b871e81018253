"""Repeat the benchmark over seeds and report medians, quartiles and spread.

    python3 bench/steady.py --workloads oracle cli --seeds 1 2 3 4 5 [--trace 0]

Runs bench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json. For each metric it prints the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the
spread (q3 - q1) / median next to the metric's bound. Results are also
written to .bench_out/steady-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from metrics import ROOT, quartiles, spec


def main() -> int:
    declared = spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
                status = 1
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
            bound = bounds.get(name) if args.trace == 0 else None
            flag = "" if bound is None else (
                f"  bound {bound}" + ("  OVER BOUND" if spread > bound
                                      else "  over bound/3" if spread > bound / 3 else ""))
            print(f"  {workload:15s} {name:36s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}{flag}")
        out = ROOT / ".bench_out" / f"steady-{workload}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as handle:
            json.dump({"seeds": args.seeds, "metrics": summary,
                       "attempted": [r["attempted"] for r in runs]}, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())

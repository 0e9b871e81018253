"""One workload child: set up, run whole cycles for a time slice, verify.

Started by run.py, one at a time, with PYTHONPATH pointing at the
checkout's src/ and BLAS/OpenMP limited to one thread. Writes its report
as JSON to --report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time compares
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cycles(wl, seconds: float, tracer):
    """Run whole cycles; start another only if it should end within the slice.

    Operations with repeat=False run in the first cycle only (status and
    latency None afterwards), so the next cycle is projected from the
    repeated operations alone.
    """
    from workloads import is_known_defect

    results, statuses, latencies = [], [], []
    nops = len(wl.ops)
    begin = clock()
    while True:
        cycle_results, cycle_status, cycle_lat = [], [], []
        for i, op in enumerate(wl.ops):
            if results and not op.repeat:
                cycle_results.append(None)
                cycle_status.append(None)
                cycle_lat.append(None)
                continue
            if tracer is not None:
                tracer.op_id = len(results) * nops + i
            t0 = clock()
            try:
                out = op.run()
                lat = clock() - t0
            except Exception as exc:  # noqa: BLE001 - every failure is classified
                lat = clock() - t0
                cycle_results.append(None)
                if is_known_defect(op, exc):
                    cycle_status.append("defect")
                else:
                    cycle_status.append(f"raised {type(exc).__name__}: {exc}\n"
                                        + traceback.format_exc(limit=3))
            else:
                cycle_results.append(op.summarize(out))
                cycle_status.append("ok")
                del out
            cycle_lat.append(lat)
        results.append(cycle_results)
        statuses.append(cycle_status)
        latencies.append(cycle_lat)
        next_cycle = sum(lat for op, lat in zip(wl.ops, cycle_lat) if op.repeat)
        if clock() + next_cycle > begin + seconds:
            return results, statuses, latencies


def verify(wl, results, statuses):
    """Gate the first cycle against references, later cycles against the first."""
    from workloads import KnownDefect

    first = results[0]
    reasons = {}
    for i, op in enumerate(wl.ops):
        if statuses[0][i] == "ok":
            try:
                reason = op.check(first[i])
            except Exception as exc:  # noqa: BLE001 - a crashing check fails its op
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                reasons[i] = reason
    for i, reason in wl.group_check([r if s == "ok" else None
                                     for r, s in zip(first, statuses[0])]).items():
        reasons.setdefault(i, reason)
    for c, cycle in enumerate(statuses):
        for i, status in enumerate(cycle):
            if status != "ok":
                continue
            if i in reasons:
                known = isinstance(reasons[i], KnownDefect)
                cycle[i] = "defect" if known else reasons[i]
            elif c and results[c][i] != first[i]:
                cycle[i] = f"cycle {c} result differs from cycle 0"
    return statuses


def memory_probe(wl, tracer) -> dict:
    """tracemalloc peak inside sampling and statevector calls, heaviest op of each."""
    import tracemalloc

    heaviest = {}
    for i in range(len(tracer.name)):
        layer = tracer.layers[tracer.name[i]]
        if layer in ("sampling", "statevector"):
            op = tracer.op[i] % len(wl.ops)
            dur = tracer.end[i] - tracer.start[i]
            heaviest.setdefault(layer, {})
            heaviest[layer][op] = heaviest[layer].get(op, 0.0) + dur
    tracer.peak_probe = {"sampling": 0, "statevector": 0}
    tracemalloc.start()
    try:
        for layer, per_op in heaviest.items():
            op = wl.ops[max(per_op, key=per_op.get)]
            try:
                op.run()
            except Exception:  # noqa: BLE001 - the timed pass already classified it
                pass
    finally:
        tracemalloc.stop()
    return {f"{layer}.traced_peak_mb": peak / 2**20 for layer, peak in tracer.peak_probe.items()}


def accuracy_probe(seed: int) -> float:
    """Largest relative error of the herald law against mpmath at seeded points."""
    import random

    import dickelift as dl
    import reference

    rng = random.Random(f"accuracy:{seed}")
    worst = 0.0
    for n in (3, 12, 100):
        p00 = rng.uniform(0.01, 0.99)
        for k, value in enumerate(dl.distribution(n, p00).raw):
            err = reference.rel_err(float(value), n, k, p00)
            worst = max(worst, err or 0.0)
    for n in (5000, 10**5, 10**6):
        p00 = rng.uniform(0.01, 0.99)
        mode = round(n * (1 - p00))
        for k in range(mode - 5, mode + 6):
            err = reference.rel_err(dl.raw_outcome_prob(n, k, p00), n, k, p00)
            worst = max(worst, err or 0.0)
    return worst


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up call and report setup_s only")
    args = parser.parse_args()

    t0 = clock()
    import dickelift as dl
    import dickelift.cli  # noqa: F401 - part of the import time users pay
    import_s = clock() - t0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(dl.__file__).startswith(src + os.sep):
        sys.exit(f"dickelift was imported from {dl.__file__}, not from {src}")
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tiny, args.corrupt_reference, args.tmp)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install([m for name, m in sorted(sys.modules.items())
                        if name.startswith("dickelift.") and name != "dickelift.__main__"])
    wl.ops[wl.warmup].run()
    if tracer is not None:
        tracer.reset()
    start = clock()
    report = {"setup_s": start - args.spawn}
    if args.setup_only:
        with open(args.report, "w") as handle:
            json.dump(report, handle)
        return
    results, statuses, latencies = run_cycles(wl, args.seconds, tracer)
    if tracer is not None:
        layer = tracer.layer_metrics(lambda op_id: wl.ops[op_id % len(wl.ops)].argv)
        tracer.save(args.report[:-len(".json")] + "-spans.npz")
        layer.update(memory_probe(wl, tracer))
        tracer.uninstall()
        layer["cli.import_s"] = import_s
        layer["probabilities.max_rel_err"] = accuracy_probe(args.seed)
        report["layer"] = layer
    statuses = verify(wl, results, statuses)
    report["ops"] = [{"kind": op.kind, "repeat": op.repeat,
                      "status": [cycle[i] for cycle in statuses],
                      "latency": [cycle[i] for cycle in latencies]}
                     for i, op in enumerate(wl.ops)]
    with open(args.report, "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()

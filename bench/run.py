"""dickelift benchmark: one command for every workload and metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh child
processes, one at a time, against the checkout's src/. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. A full report with run metadata goes to
.bench_out/. See bench/README.md.

    python3 bench/run.py --selfcheck    # tiny sizes: names, units, gates
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import ROOT, median, percentile, spec, tagged, units

OUT = ROOT / ".bench_out"
# fresh children per untraced run that measure operations
CHILDREN = 4
# and, before each of them, children that stop after the warm-up call;
# setup_s is the median over all of them
SETUP_ONLY_PER_CHILD = 2
# every child is killed by then, so that a run ends within 180 s
RUN_LIMIT_S = 170


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], tmp: Path, log: str, deadline: float):
    """Run one child to completion: (exit code, ru_maxrss in MB).

    The child gets its start time as --spawn, for setup_s."""
    with open(tmp / f"{log}.out", "wb") as out, open(tmp / f"{log}.err", "wb") as err:
        t0 = clock()
        cmd = cmd + ["--spawn", repr(t0)]
        proc = subprocess.Popen(cmd, env=child_env(tmp), stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


class ChildFailed(RuntimeError):
    pass


def run_child(args, tmp: Path, index, seconds: float, trace: int,
              setup_only: bool = False) -> tuple[dict, float]:
    report = tmp / f"child{index}.json"
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--tmp", str(tmp),
           "--report", str(report)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    code, rss = spawn(cmd, tmp, f"child{index}", args.deadline)
    if code != 0:
        raise ChildFailed(f"child {index} exited {code}: "
                          + (tmp / f"child{index}.err").read_text()[-2000:])
    with open(report) as handle:
        return json.load(handle), rss


def op_records(reports) -> list[tuple]:
    """(op index in the cycle, kind, status, latency s, repeated) per attempt."""
    return [(i, op["kind"], status, lat, op["repeat"])
            for rep in reports for i, op in enumerate(rep["ops"])
            for status, lat in zip(op["status"], op["latency"]) if status is not None]


def best_pass(records) -> float:
    """One pass over the repeated operations, each at its best latency."""
    best: dict[int, float] = {}
    for i, _, _, lat, repeat in records:
        if repeat:
            best[i] = min(best.get(i, lat), lat)
    return sum(best.values())


def end_to_end(setups, records, rss) -> dict:
    """Times are best of the repeats. On a shared host CPU speed can drift by
    10-20 % over tens of seconds, which moves medians but hardly moves minima."""
    best: dict[int, float] = {}
    verified: dict[int, bool] = {}
    for i, _, status, lat, _ in records:
        verified[i] = verified.get(i, True) and status == "ok"
        if status == "ok":
            best[i] = min(best.get(i, lat), lat)
    best_ms = [lat * 1e3 for i, lat in best.items() if verified[i]]
    return {
        "setup_s": median(setups),
        "wall_s": best_pass(records),
        "op_p50_ms": percentile(best_ms, 50) if best_ms else 0.0,
        "op_p90_ms": percentile(best_ms, 90) if best_ms else 0.0,
        "peak_rss_mb": rss,
        "verified_frac": sum(verified.values()) / len(verified),
    }


def run_library(args, tmp: Path):
    """CHILDREN fresh children, each measuring its share of --seconds, with
    set-up-only children in between."""
    reports, rss, setups = [], [], []
    for i in range(CHILDREN):
        for j in range(SETUP_ONLY_PER_CHILD):
            report, _ = run_child(args, tmp, f"{i}s{j}", 0.0, 0, setup_only=True)
            setups.append(report["setup_s"])
        report, maxrss = run_child(args, tmp, i, args.seconds / CHILDREN, 0)
        reports.append(report)
        rss.append(maxrss)
        setups.append(report["setup_s"])
    records = op_records(reports)
    return end_to_end(setups, records, median(rss)), records


def run_traced(args, tmp: Path, spans: Path):
    """Untraced and traced in-process children; per-layer metrics from the traced one."""
    plain, _ = run_child(args, tmp, 0, args.seconds / 2, 0)
    traced, _ = run_child(args, tmp, 1, args.seconds / 2, 1)
    shutil.move(tmp / "child1-spans.npz", spans)
    layer = traced["layer"]
    plain_records, traced_records = op_records([plain]), op_records([traced])
    layer["trace.overhead_frac"] = best_pass(traced_records) / best_pass(plain_records) - 1.0
    return layer, plain_records + traced_records


def git_sha() -> str:
    """HEAD of the checkout; git does not look above the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, records) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    kinds: dict[str, int] = {}
    for _, kind, _, _, _ in records:
        kinds[kind] = kinds.get(kind, 0) + 1
    lines = {}
    for path in sorted(glob.glob(str(ROOT / "src" / "dickelift" / "*.py"))):
        with open(path, "rb") as handle:
            lines[os.path.basename(path)] = handle.read().count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **versions,
        "attempted_by_kind": kinds, "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def selfcheck(declared: dict) -> int:
    """Tiny runs: every metric BENCHMARK.json declares is emitted with its
    unit, and a corrupted reference is counted as a failed operation."""
    problems = []
    for workload in declared["workloads"]:
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            if corrupt:
                cmd.append("--corrupt-reference")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            tag = f"{workload} trace={trace}{' corrupt' if corrupt else ''}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-800:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            want = units(declared["per_layer" if trace else "end_to_end"])
            if emitted != want:
                problems.append(f"{tag}: metrics {sorted(emitted)} differ from {sorted(want)}")
            if corrupt and (result["correct"] or result["failed"] < 1):
                problems.append(f"{tag}: corrupted reference was not counted as failed")
            if not corrupt and (not result["correct"] or result["failed"]):
                problems.append(f"{tag}: {result['failed']} operations failed")
            print(f"selfcheck {tag}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    declared = spec()
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-check")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt the first operation's reference; it must fail")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    args.deadline = clock() + RUN_LIMIT_S
    if not (ROOT / "src" / "dickelift" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'dickelift'} not found; run from a dickelift checkout",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(dict(declared, workloads=workloads))
    if args.workload is None:
        parser.error("--workload is required")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, records = run_traced(args, tmp, OUT / f"{name}-spans.npz")
            declared_units = units(declared["per_layer"])
        else:
            values, records = run_library(args, tmp)
            declared_units = units(declared["end_to_end"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [(kind, status) for _, kind, status, _, _ in records
                if status not in ("ok", "defect")]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": tagged(values, declared_units),
    }
    meta = metadata(args, records)
    meta["known_defects"] = sum(1 for _, _, status, _, _ in records if status == "defect")
    meta["failures"] = failures[:20]
    with open(OUT / f"{name}.json", "w") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=1)
    for kind, status in failures[:5]:
        print(f"failed {kind}: {status}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

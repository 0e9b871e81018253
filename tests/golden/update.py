"""Golden outputs of the dickelift command line, and the script that rewrites them.

Each invocation in INVOCATIONS runs through `dickelift.cli.main` in one child
process, at the lowest CPU dispatch every x86-64 machine has: numpy's baseline
loops (NPY_DISABLE_CPU_FEATURES) and glibc's libm without its AVX2 and FMA
variants (GLIBC_TUNABLES). At native dispatch some doubles depend on the CPU,
so the corpus holds only on x86-64, where that setting exists, and only on
numpy 2.4 or later, the first to know the X86_V3 and X86_V4 groups: an older
numpy ignores them and keeps its AVX2 and AVX-512 loops. The child checks
that numpy dispatches to none of its optional targets and exits otherwise;
the glibc setting cannot be read back. The JSON timestamp is masked. An
output of more than MAX_ROWS rows is stored as the sha256 of its (masked)
text plus its first and last EDGE rows.

    python tests/golden/update.py

rewrites cli.json and prints each stored value that moved as old -> new with
its distance in ulps. The corpus records what the code prints, right or not:
the n = 2^53 rows are far from the true probabilities (ROADMAP item 2).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.json"
SRC = HERE.parent.parent / "src"

DISPATCH = {
    "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
    "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA",
}
MAX_ROWS = 40
EDGE = 20

ABOUT = ("Output of `dickelift ARGS` for each case, run by tests/golden/update.py at numpy's "
         "baseline dispatch and glibc's non-FMA libm; the test runs only on x86-64 with numpy "
         "2.4 or later. The JSON timestamp is masked. An output of more than 40 rows is stored "
         "as the sha256 of its masked text plus its first and last 20 rows. The n = 2^53 rows "
         "are what the code prints, not the true probabilities (ROADMAP item 2).")
N_2_53 = 2**53

INVOCATIONS = [
    # the six README commands
    "prob --n 3 --k 1 --A 0.5",
    "prob --n 7 --k 2 --sweep 0 1 1000",
    "bifurcation --k 1 --n 3 8",
    "decay --k 3 --n-max 40 --source optimal",
    "simulate --n 3 --A 0.5 --runs 1000000 --seed 7",
    "entanglement --n 100 --k 1 --measure tangle",
    # the rest of each subcommand's paths
    "prob --n 8 --k 4 --sweep 0.25 0.75 8 --format json",
    "prob --n 1000000 --k 3 --A 3e-06",
    f"prob --n {N_2_53} --k 1 --A 1.1102230246251565e-16",
    "bifurcation --k 3 --n 6 20",
    "bifurcation --k 2 --n 4 12 --format json",
    "bifurcation --k 5 --n 10 150",  # batched roots: closed form and bisection both
    "decay --k 3 --n-max 40 --source epr",
    "decay --k 1 --n-max 30 --source epr --format json",
    "decay --k 3 --n-max 200 --source optimal",  # batched roots: closed form and bisection both
    "simulate --n 12 --A 0.1 --runs 100000 --seed 7",
    "simulate --n 12 --A 0.1 --runs 5000 --seed 0xDEADBEEF --format csv",
    "simulate --n 800 --A 0.3 --runs 100000 --seed 11",
    "simulate --n 20000 --A 0.3 --runs 100000 --seed 5",  # the window is cut at both ends
    "simulate --n 3000 --A 0.001 --runs 100000 --seed 5",  # near the k = 3 optimum: cut at one
    "simulate --n 2 --A 1 --runs 10 --seed 0",
    "entanglement --n 20 --k 3 --measure entropy",
    "entanglement --n 2 --k 1 --measure entropy --format json",
    f"entanglement --n {N_2_53} --k 1 --measure entropy",
]

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _child() -> None:
    from numpy._core import _multiarray_umath as umath

    active = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if active:
        sys.exit(f"numpy still dispatches to {' '.join(active)} under NPY_DISABLE_CPU_FEATURES="
                 f"{os.environ.get('NPY_DISABLE_CPU_FEATURES')!r}; the corpus needs numpy 2.4 "
                 "or later, which can lower its dispatch to the X86_V2 baseline")
    from dickelift.cli import main

    results = []
    for args in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(args.split())
        results.append((status, out.getvalue(), err.getvalue()))
    json.dump(results, sys.stdout)


def _rows(text: str) -> list[str]:
    """The data rows as text: each JSON row on one line, CSV lines after the header."""
    if text.startswith("{"):
        return [json.dumps(row) for row in json.loads(text)["rows"]]
    return text.splitlines()[1:]


def _record(args: str, status: int, stdout: str, stderr: str) -> dict:
    text = _TIMESTAMP.sub('"timestamp": "<masked>"', stdout)
    record = {"args": args, "status": status, "stderr": stderr}
    rows = _rows(text)
    if len(rows) <= MAX_ROWS:
        record["stdout"] = text.splitlines()
    else:
        record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        record["rows"] = len(rows)
        record["head"], record["tail"] = rows[:EDGE], rows[-EDGE:]
    return record


def capture() -> list[dict]:
    """The record of every invocation, run in one child process at the lowest dispatch."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **DISPATCH, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"golden child exited {proc.returncode}:\n{proc.stderr}")
    return [_record(args, *result) for args, result in zip(INVOCATIONS, json.loads(proc.stdout))]


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())["cases"]


def _ordinal(x: float) -> int:
    """Doubles as integers in their order, so that adjacent doubles differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def _tokens(record: dict) -> list[str]:
    lines = record["stdout"] if "stdout" in record else record["head"] + record["tail"]
    return [t for line in lines for t in re.split(r"[\s,\[\]{}:\"]+", line) if t]


def _moves(old: dict, new: dict) -> list[str]:
    """Each stored value that differs, as old -> new with its ulp distance."""
    a, b = _tokens(old), _tokens(new)
    if len(a) != len(b):
        return [f"output changed shape: {len(a)} -> {len(b)} tokens"]
    moves = []
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            ulps = f"{abs(_ordinal(float(x)) - _ordinal(float(y)))} ulp"
        except ValueError:
            ulps = "not numbers"
        moves.append(f"{x} -> {y} ({ulps})")
    if not moves and old != new:
        moves.append("changed outside the stored rows (sha256, row count, status or stderr)")
    return moves


def main() -> int:
    old = {r["args"]: r for r in load()} if CORPUS.exists() else {}
    cases = capture()
    for record in cases:
        previous = old.get(record["args"])
        if previous != record:
            print(f"dickelift {record['args']}" + ("" if previous else " (new)"))
            for move in _moves(previous, record) if previous else ():
                print(f"    {move}")
    about = (f"{ABOUT} Recorded at numpy {importlib.metadata.version('numpy')}, "
             f"{' '.join(platform.libc_ver())}.")
    CORPUS.write_text(json.dumps({"about": about, "cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main())

"""Command-line emitter of machine-readable protocol data.

Every subcommand prints one tabular dataset (CSV by default, JSON
envelope with --format json; `simulate` defaults to JSON) to stdout or,
with --output, atomically to a file. Numbers are serialized in shortest
round-trip form, so parsing the output reproduces the exact doubles.
Exit codes: 0 success; 1 internal error; 2 usage error, which includes an
argument outside the library's range (named as the library names it, p00 for
--A) and an --output path that cannot take a file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from itertools import repeat, starmap

from . import __version__
from .entanglement import BipartiteMeasure, check_locc_bound, tangle_decay_bound
from .optimize import asymptotic_prob, bifurcation_diagram
from .probabilities import DickeSpec, _ArgumentError, _check_p00, _prob_cols
from .sampling import _streamed_report

__all__ = ["main"]

# About 11 s of sampling at n = 897 and 16 s at n = 40000 (11-16 ns per run),
# measured on a 2-vCPU x86 VM.
_MAX_RUNS = 10**9
# A sweep at the cap takes about 0.6 s at 73 MB (CSV) or 78 MB (JSON) peak RSS,
# on the same VM (a cold run, min of 5).
_MAX_SWEEP_STEPS = 10**5
# Values of n in one `bifurcation` or `decay` run. At the cap, with k = 3, `bifurcation`
# takes about 1.3 s at 122 MB peak RSS, `decay --source optimal` 0.8 s at 78 MB and
# `--source epr` 0.4 s at 59 MB, on the same VM (a cold run, min of 5).
_MAX_N_VALUES = 10**5


class UsageError(Exception):
    """Invalid arguments or argument combinations; exits with code 2."""


def _parse_seed(text: str) -> int:
    try:
        return int(text, 16 if text[:2] in ("0x", "0X") else 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal or 0x-prefixed seed: {text!r}")


def _envelope(command: str, parameters: dict, columns: list[str], rows: list[list],
              summary: dict | None = None) -> dict:
    env = {
        "command": command,
        "parameters": parameters,
        "columns": columns,
        "rows": rows,
    }
    if summary is not None:
        env["summary"] = summary
    env["metadata"] = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return env


_JSON_ROWS = json.JSONEncoder(separators=(",\n      ", ": "))


def _render(env: dict, fmt: str) -> str:
    """The envelope as CSV, or as JSON with indent=2; each row holds one scalar per column.

    A CSV cell is an int or float in shortest round-trip form, a str bare, or a bool as
    true/false as in JSON, one cell per column. The header and every row are joined from
    one format string. That relies on what the handlers emit: no str that is empty or
    holds a ',', '"', '\r' or '\n', and bools only in all-bool columns, found from the
    first row. An empty table is its header alone. JSON encodes all rows at once with
    separators that give indent=2 inside a row; strings escape newlines, so "],\n      ["
    occurs only between rows, where one replace puts in the row breaks. Each format takes
    one C-level pass: a 5001-row sweep takes about 13 ms as CSV or as JSON on a 2-vCPU x86
    VM, 10 ms of it in float repr.
    """
    rows = env["rows"]
    if fmt == "csv":
        line = ",".join(["{}"] * len(env["columns"])) + "\n"
        bools = {i for i, cell in enumerate(rows[0]) if isinstance(cell, bool)} if rows else ()
        if bools:
            rows = [[("true" if cell else "false") if i in bools else cell
                     for i, cell in enumerate(row)] for row in rows]
        return "".join(starmap(line.format, [env["columns"], *rows]))
    text = json.dumps({**env, "rows": []}, indent=2) + "\n"
    if not rows:
        return text
    head, tail = text.split('\n  "rows": []', 1)
    body = _JSON_ROWS.encode(rows)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
    return f'{head}\n  "rows": [\n    [\n      {body}\n    ]\n  ]{tail}'


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return

    def unusable(exc: OSError) -> UsageError:
        return UsageError(f"cannot write --output {output}: {exc.strerror}")

    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(output)),
                                        prefix=".dickelift-")
    except OSError as exc:
        raise unusable(exc) from None
    try:
        # mkstemp makes the file 0600; give it the mode open(output, "w") would
        os.umask(umask := os.umask(0o022))
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        try:
            os.replace(tmp_path, output)
        except OSError as exc:
            raise unusable(exc) from None
    except BaseException:
        os.unlink(tmp_path)
        raise


def _cmd_prob(args) -> dict:
    import numpy as np

    spec = DickeSpec(args.n, args.k)
    if args.sweep is not None:
        start, end, steps = args.sweep
        if not math.isfinite(steps) or steps != int(steps):
            raise UsageError("--sweep STEPS must be a finite integer")
        steps = int(steps)
        if steps > _MAX_SWEEP_STEPS:
            raise UsageError(f"--sweep STEPS must be at most {_MAX_SWEEP_STEPS}, got {steps}")
        if steps < 1 or not 0.0 <= start <= end <= 1.0:
            raise UsageError("--sweep needs 0 <= start <= end <= 1 and steps >= 1")
        # start + i * (end - start) / steps, each operation the same IEEE one as Python's
        weights = start + np.arange(steps + 1) * (end - start) / steps
        parameters = {"n": spec.n, "k": spec.k, "sweep": [start, end, steps]}
    else:
        weights = np.array([_check_p00(args.A)])
        parameters = {"n": spec.n, "k": spec.k, "A": args.A}
    n, k = spec.n, spec.k
    rows = list(zip(repeat(n), repeat(k), weights.tolist(), *_prob_cols(n, k, weights)))
    return _envelope("prob", parameters,
                     ["n", "k", "A", "P_folded", "P_raw_k", "P_raw_nk"], rows)


def _check_n_span(option: str, n_min: int, n_max: int) -> None:
    count = n_max - n_min + 1
    if count > _MAX_N_VALUES:
        raise UsageError(f"{option} must span at most {_MAX_N_VALUES} values of n, got {count}")


def _cmd_bifurcation(args) -> dict:
    n_min, n_max = args.n
    _check_n_span("--n", n_min, n_max)
    rows = []
    for point in bifurcation_diagram(args.k, n_min, n_max):
        for branch_index, (a_opt, p_opt) in enumerate(point.branches):
            rows.append([point.k, point.n, point.regime.value, branch_index, a_opt, p_opt])
    return _envelope("bifurcation", {"k": args.k, "n_min": n_min, "n_max": n_max},
                     ["k", "n", "regime", "branch", "A_opt", "P_opt"], rows)


def _cmd_decay(args) -> dict:
    import numpy as np

    DickeSpec(args.n_max, args.k)  # the library's range: 1 <= k <= n_max // 2
    k = args.k
    _check_n_span("--n-max", 2 * k, args.n_max)
    n = np.arange(2 * k, args.n_max + 1)
    if args.source == "epr":
        p = _prob_cols(n, k, np.full(n.size, 0.5))[0].tolist()
    else:
        p = [point.p_opt for point in bifurcation_diagram(k, 2 * k, args.n_max)]
    # asymptotic_expansion's expression, each operation the same IEEE one as Python's
    p_asymp = asymptotic_prob(k) * (1.0 + k / (2.0 * n))
    rows = list(zip(n.tolist(), p, p_asymp.tolist()))
    return _envelope("decay", {"k": k, "n_max": args.n_max, "source": args.source},
                     ["n", "P", "P_asymp"], rows)


def _cmd_simulate(args) -> dict:
    import numpy as np

    if args.runs > _MAX_RUNS:
        raise UsageError(f"--runs must be at most {_MAX_RUNS}, got {args.runs}")
    law, counts, report = _streamed_report(args.n, args.A, args.runs, args.seed)
    freq = counts / args.runs
    sigma = np.sqrt(law * (1.0 - law) / args.runs)
    z = np.divide(freq - law, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
    rows = list(zip(range(len(law)), counts.tolist(), freq.tolist(), law.tolist(), z.tolist()))
    summary = {
        "runs": report.runs,
        "pairs_consumed": report.pairs_consumed,
        "dicke_produced": {str(k): c for k, c in report.dicke_produced.items()},
        "failures": report.failures,
        "pairs_per_dicke": None if math.isinf(report.pairs_per_dicke)
        else report.pairs_per_dicke,
    }
    return _envelope(
        "simulate",
        {"n": args.n, "A": args.A, "runs": args.runs, "seed": args.seed},
        ["k", "count", "frequency", "p_closed_form", "z"], rows, summary=summary)


def _cmd_entanglement(args) -> dict:
    spec = DickeSpec(args.n, args.k)
    report = check_locc_bound(spec, BipartiteMeasure(args.measure))
    rows = [[spec.n, spec.k, args.measure, report.lhs, report.dicke_value, report.rhs,
             report.holds, tangle_decay_bound(spec)[0]]]
    return _envelope(
        "entanglement", {"n": spec.n, "k": spec.k, "measure": args.measure},
        ["n", "k", "measure", "source_E_at_Aopt", "dicke_E", "locc_rhs",
         "bound_holds", "tangle_bound"], rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickelift",
        description="Emit datasets for the pair-to-Dicke lifting protocol.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format):
        p.add_argument("--format", choices=["csv", "json"], default=default_format)
        p.add_argument("--output", metavar="PATH", default=None)

    p = sub.add_parser("prob", help="success probability at a weight or over a sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    weight = p.add_mutually_exclusive_group(required=True)
    weight.add_argument("--A", type=float, help="source weight |amp00|^2")
    weight.add_argument("--sweep", nargs=3, type=float, metavar=("START", "END", "STEPS"))
    add_common(p, "csv")
    p.set_defaults(handler=_cmd_prob)

    p = sub.add_parser("bifurcation", help="optimal-weight branches over a range of n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", nargs=2, type=int, metavar=("N_MIN", "N_MAX"), required=True)
    add_common(p, "csv")
    p.set_defaults(handler=_cmd_bifurcation)

    p = sub.add_parser("decay", help="success probability versus n for a fixed source rule")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--source", choices=["epr", "optimal"], required=True)
    add_common(p, "csv")
    p.set_defaults(handler=_cmd_decay)

    p = sub.add_parser("simulate", help="seeded Monte Carlo runs with yield accounting")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True,
                   help="decimal or 0x-prefixed 64-bit seed")
    add_common(p, "json")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("entanglement", help="source and Dicke-qubit entanglement report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--measure", choices=["entropy", "tangle"], required=True)
    add_common(p, "csv")
    p.set_defaults(handler=_cmd_entanglement)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        env = args.handler(args)
        _write(_render(env, args.format), args.output)
    except (UsageError, _ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and map to exit code 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

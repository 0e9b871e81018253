"""Outside-in spans around dickelift's public functions.

The modules import each other's functions by name, so a call made through
`dickelift.optimize.folded_prob` never passes `dickelift.probabilities.
folded_prob`. The tracer therefore replaces every binding of a public
function in every dickelift namespace that imports it, plus two bindings in
the defining module: all of `dickelift.optimize` (bifurcation_diagram
reaches optimize_source through its own module),
`dickelift.probabilities.distribution` (the CLI imports it at call time)
and `dickelift.cli.main` (the entry point the benchmark calls).
Other calls inside a defining module stay unwrapped, so folded_prob's own
calls to raw_outcome_prob count as part of one kernel call.

Spans are kept in memory as parallel lists and written out at the end.
"""

from __future__ import annotations

import inspect
import os
import sys
import tracemalloc
from time import perf_counter
from typing import Callable

from metrics import median

# scalar kernel entry points; the rest of probabilities is the vector kernel
_SCALAR = {"folded_prob", "log_folded_prob", "raw_outcome_prob", "log_raw_outcome_prob",
           "failure_prob"}
_STATEVECTOR_CHECKS = {"dicke_fidelity", "locc_fold", "reduced_single_qubit",
                       "dicke_state_amplitudes", "single_qubit_density"}
CLI_SUBCOMMANDS = ("prob", "bifurcation", "decay", "simulate", "entanglement")
_WRAP_OWN = {("dickelift.optimize", None), ("dickelift.probabilities", "distribution"),
             ("dickelift.cli", "main")}


def _layer(module: str, name: str) -> str:
    short = module.rsplit(".", 1)[1]
    if short == "probabilities":
        return "probabilities.scalar" if name in _SCALAR else "probabilities.distribution"
    return short


def _size(name: str, args, result) -> int:
    """Work count recorded with a span: elements, runs, amplitudes or bytes."""
    if name == "distribution":
        return int(args[0]) + 1
    if name == "sample_runs":
        return int(args[2]) if result is not None else 0
    if name == "build_state":
        return 1 << int(args[1])
    if name == "measure_fock":
        state = args[0]
        return (state.n + 1) * (1 << state.n) * 16
    if name == "optimize_source":
        return int(result is not None and result.regime.value == "supercritical")
    if name == "main":
        argv = args[0]
        if "--output" in argv:
            path = argv[argv.index("--output") + 1]
            return os.path.getsize(path) if os.path.exists(path) else 0
    return 0


class Tracer:
    """Span store plus the bindings it replaced, restored by uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()
        self.op_id = -1
        self.peak_probe: dict[str, int] | None = None

    def reset(self):
        self.name, self.parent, self.op = [], [], []
        self.start, self.end, self.size, self.failed = [], [], [], []
        self.current = -1

    def _wrap(self, fn, name_id: int, layer: str):
        tracer = self
        name = self.names[name_id]

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            parent = tracer.current
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.size.append(0)
            tracer.failed.append(True)
            tracer.current = idx
            probe = tracer.peak_probe
            if probe is not None and layer in probe:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                tracer.failed[idx] = False
                return result
            finally:
                tracer.end[idx] = perf_counter()
                tracer.start[idx] = t0
                tracer.current = parent
                tracer.size[idx] = _size(name, args, result)
                if probe is not None and layer in probe:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    probe[layer] = max(probe[layer], peak)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap each public function at every binding the docstring names."""
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name_id = len(self.names)
                self.names.append(attr)
                self.layers.append(_layer(mod.__name__, attr))
                wrapper = self._wrap(fn, name_id, self.layers[-1])
                for owner in modules + [sys.modules["dickelift"]]:
                    own = owner is mod
                    if own and (mod.__name__, None) not in _WRAP_OWN \
                            and (mod.__name__, attr) not in _WRAP_OWN:
                        continue
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, key, wrapper)
                            self._patched.append((owner, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def save(self, path: str):
        import numpy as np

        # parallel columns; names and layers indexed by the name column
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layers),
            name=np.array(self.name, dtype=np.int32), parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64), start=np.array(self.start),
            end=np.array(self.end), size=np.array(self.size, dtype=np.int64),
            failed=np.array(self.failed, dtype=bool))

    def layer_metrics(self, argv_of_op: Callable[[int], list[str]]) -> dict:
        """Per-layer counts and self times (span minus the spans nested in it)."""
        count = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        ids = {name: i for i, name in enumerate(self.names)}
        self_time = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(count):
            self_time[self.name[i]] += dur[i] - child[i]
            calls[self.name[i]] += 1

        def layer(which, per=self_time):
            return sum(v for v, lay in zip(per, self.layers) if lay == which)

        def own(name):
            return self_time[ids[name]] if name in ids else 0.0

        def spans(name):
            return [i for i in range(count) if self.names[self.name[i]] == name]

        scalar_calls = layer("probabilities.scalar", calls)
        scalar_self = layer("probabilities.scalar")
        dist = spans("distribution")
        solves = spans("optimize_source")
        super_solves = {i for i in solves if self.size[i] == 1}
        kernel_in_super = sum(
            1 for i in range(count)
            if self.parent[i] in super_solves
            and self.layers[self.name[i]] == "probabilities.scalar")
        runs = sum(self.size[i] for i in spans("sample_runs"))
        sample_self, report = own("sample_runs"), own("yield_report")
        mains = spans("main")
        out = {
            "probabilities.scalar_calls": scalar_calls,
            "probabilities.scalar_self_s": scalar_self,
            "probabilities.scalar_us_per_call":
                scalar_self / scalar_calls * 1e6 if scalar_calls else 0.0,
            "probabilities.distribution_calls": len(dist),
            "probabilities.distribution_elements": sum(self.size[i] for i in dist),
            "probabilities.distribution_self_s": own("distribution"),
            "probabilities.distribution_failed": sum(self.failed[i] for i in dist),
            "optimize.solves": len(solves),
            "optimize.self_s": layer("optimize"),
            "optimize.us_per_solve":
                sum(dur[i] for i in solves) / len(solves) * 1e6 if solves else 0.0,
            "optimize.kernel_calls_per_solve":
                kernel_in_super / len(super_solves) if super_solves else 0.0,
            "entanglement.calls": layer("entanglement", calls),
            "entanglement.self_s": layer("entanglement"),
            "sampling.runs_drawn": runs,
            "sampling.sample_self_s": sample_self,
            "sampling.ns_per_run": (sample_self + report) / runs * 1e9 if runs else 0.0,
            "sampling.report_s": report,
            "statevector.amplitudes_built": sum(self.size[i] for i in spans("build_state")),
            "statevector.build_s": own("build_state"),
            "statevector.measure_s": own("measure_fock"),
            "statevector.check_s": sum(own(name) for name in _STATEVECTOR_CHECKS),
            "statevector.measure_bytes_computed":
                sum(self.size[i] for i in spans("measure_fock")),
            "cli.self_s": own("main"),
            "cli.bytes_written": sum(self.size[i] for i in mains),
        }
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}_ms"] = median(
                [dur[i] * 1e3 for i in mains if argv_of_op(self.op[i])[0] == sub])
        return out

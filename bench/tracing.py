"""Layer tracing from outside the program.

The tracer wraps every public function and method of each layer module of
``group_pdo`` at every place it is bound: the defining module and each
``group_pdo`` module that imported the name.  A call records one span (name,
start, end, parent span, command index); a failed call also marks the span.
Counts are taken at the same boundaries from arguments and return values.
Spans stay in compact in-memory arrays until the run writes them to a
sidecar, whose header carries the run id all its spans share.  Per-element helpers (one dual index, one node, one matrix entry)
are left unwrapped: wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# layer -> modules whose public functions and classes belong to it
LAYERS = {
    "groups": ("group_pdo.groups", "group_pdo.groups.dual", "group_pdo.groups.su2",
               "group_pdo.groups.torus", "group_pdo.groups.wigner"),
    "fourier": ("group_pdo.fourier",),
    "symbols": ("group_pdo.symbols",),
    "diffops": ("group_pdo.diffops",),
    "seminorms": ("group_pdo.seminorms",),
    "quantize": ("group_pdo.quantize",),
    "bounds": ("group_pdo.bounds",),
    "cli": ("group_pdo.cli",),
}

PER_ELEMENT = {
    "dual_index", "sort_key", "rep_matrix", "distance", "m2_slot", "vector_field_symbol",
    "block", "has_label", "matrix", "op_norms", "at_identity", "values",
    "quat_multiply", "quat_inverse", "euler_to_quat", "quat_to_euler",
    "wigner_d_matrix", "wigner_d_sum", "angular_momentum_matrices",
}

# (unit, description) of every per-layer metric, in report order
COMPUTED = "computed from array sizes"
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "own time: spans minus child spans, plus the module import")
    METRICS[f"{_layer}.errors"] = ("count", "exceptions leaving a public call")
    if _layer != "cli":
        METRICS[f"{_layer}.calls"] = ("count", "public calls")
METRICS.update({
    "groups.duals": ("count", "dual indices enumerated"),
    "groups.nodes": ("count", "grid nodes built"),
    "groups.wigner_s": ("s", "Wigner-d table construction (first SU2Grid.d_tables per grid)"),
    "fourier.blocks": ("count", "coefficient blocks through forward/inverse"),
    "fourier.mean_call_us": ("us", "fourier self time per call"),
    "symbols.sup_op_norm_calls": ("count", "Symbol.sup_op_norm calls"),
    "diffops.transforms": ("count", "fourier calls made directly by diffops"),
    "seminorms.entries": ("count", "seminorm entries measured"),
    "quantize.dense_mb": ("MB", f"N^2 x 16 B per kernel or realize, {COMPUTED}"),
    "bounds.matvec_pairs": ("count", "power-iteration steps (len(LpLowerBound.history))"),
    "bounds.cap_hit_frac": ("ratio", "starts that hit the iteration cap / starts"),
    "bounds.restarts": ("count", "power-iteration restarts"),
    "bounds.matvec_gb": ("GB", f"2 x N^2 x 16 B per matvec pair, {COMPUTED}"),
    "cli.out_bytes": ("B", "bytes of result files written"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s"),
})


def _duals(counts, bound, out):
    counts["groups.duals"] += len(out)


def _nodes(counts, bound, out):
    counts["groups.nodes"] += out.node_count


def _blocks_out(counts, bound, out):
    counts["fourier.blocks"] += len(out.blocks)


def _blocks_in(counts, bound, out):
    counts["fourier.blocks"] += len(bound.arguments["a"].blocks)


def _entries(counts, bound, out):
    counts["seminorms.entries"] += len(out.entries)


def _dense(counts, bound, out):
    n = out.grid.node_count
    counts["quantize.dense_mb"] += n * n * 16 / 1e6


def _power_iteration(counts, bound, out):
    iterations = bound.arguments["iterations"]
    n = bound.arguments["op"].matrix.shape[0]
    steps = Counter(label for label, _, _ in out.history)
    counts["bounds.matvec_pairs"] += len(out.history)
    counts["bounds.starts"] += len(steps)
    counts["bounds.capped"] += sum(1 for v in steps.values() if v >= iterations)
    counts["bounds.restarts"] += out.restarts
    counts["bounds.matvec_gb"] += len(out.history) * 2 * n * n * 16 / 1e9


# span name -> counter(counts, bound arguments, return value)
COUNTERS = {
    "groups.Torus.enumerate_dual": _duals,
    "groups.SU2.enumerate_dual": _duals,
    "groups.Torus.haar_grid": _nodes,
    "groups.SU2.haar_grid": _nodes,
    "fourier.forward": _blocks_out,
    "fourier.inverse": _blocks_in,
    "seminorms.seminorm": _entries,
    "quantize.kernel": _dense,
    "quantize.realize": _dense,
    "bounds.lp_lower_bound": _power_iteration,
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.command: array = array("i")
        self.error: array = array("b")
        self.counts: Counter = Counter()
        self.current_command = -1
        self._stack = [-1]
        self._restore: list = []

    def _intern(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def record(self, name: str, layer: str, start: float, end: float):
        """Add a finished span measured elsewhere (a module import)."""
        self.name_id.append(self._intern(name, layer))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.command.append(-1)
        self.error.append(0)

    def _wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.command.append(self.current_command)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound, out)
            return out

        return traced

    def install(self):
        """Wrap every layer's public callables wherever group_pdo binds them."""
        replaced = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = sys.modules[modname]
                for attr, obj in vars(module).items():
                    if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj) and attr not in PER_ELEMENT:
                        replaced[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                    elif inspect.isclass(obj):
                        self._wrap_methods(obj, layer)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "group_pdo":
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
                    self._restore.append((module, attr, obj))

    def _wrap_methods(self, cls, layer: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or attr in PER_ELEMENT or not inspect.isfunction(obj):
                continue
            setattr(cls, attr, self._wrap(obj, f"{layer}.{cls.__name__}.{attr}", layer))
            self._restore.append((cls, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self, out_bytes: int, overhead_s: float) -> dict:
        """Every per-layer metric as {name: value}, from the spans and counts."""
        layer_names = list(LAYERS)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        names = np.array(self.names, dtype=object)[name_id]
        layer = np.array([layer_names.index(l) for l in self.layer_of])[name_id]
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        parent_layer = np.full(dur.size, -1)
        parent_layer[nested] = layer[parent[nested]]
        is_call = np.frombuffer(self.command, dtype=np.int32) >= 0
        errors = np.frombuffer(self.error, dtype=np.int8) != 0
        out = {}
        for i, name in enumerate(layer_names):
            mine = layer == i
            out[f"{name}.self_s"] = float(self_time[mine].sum())
            out[f"{name}.errors"] = int(errors[mine].sum())
            if name != "cli":
                out[f"{name}.calls"] = int((mine & is_call).sum())
        fourier, diffops = layer_names.index("fourier"), layer_names.index("diffops")
        c = self.counts
        calls = out["fourier.calls"]
        out.update({
            "groups.duals": int(c["groups.duals"]),
            "groups.nodes": int(c["groups.nodes"]),
            "groups.wigner_s": float(dur[names == "groups.wigner_d_tables"].sum()),
            "fourier.blocks": int(c["fourier.blocks"]),
            "fourier.mean_call_us": out["fourier.self_s"] / calls * 1e6 if calls else 0.0,
            "symbols.sup_op_norm_calls": int((names == "symbols.Symbol.sup_op_norm").sum()),
            "diffops.transforms": int(((layer == fourier) & (parent_layer == diffops)).sum()),
            "seminorms.entries": int(c["seminorms.entries"]),
            "quantize.dense_mb": float(c["quantize.dense_mb"]),
            "bounds.matvec_pairs": int(c["bounds.matvec_pairs"]),
            "bounds.cap_hit_frac": c["bounds.capped"] / c["bounds.starts"] if c["bounds.starts"] else 0.0,
            "bounds.restarts": int(c["bounds.restarts"]),
            "bounds.matvec_gb": float(c["bounds.matvec_gb"]),
            "cli.out_bytes": int(out_bytes),
            "trace.overhead_s": float(overhead_s),
        })
        return {k: out[k] for k in METRICS}

    def write_sidecar(self, path: str, meta: dict):
        payload = {
            "run_id": self.run_id,
            **meta,
            "span_names": self.names,
            "span_layers": self.layer_of,
            "spans": {
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "command": self.command.tolist(),
                "error": self.error.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))

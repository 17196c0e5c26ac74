"""Spans around decatkit's public functions, recorded from benchmark code.

decatkit itself knows nothing of this: `Tracer.install` replaces each target
function or method, wherever a decatkit module or class holds it (several are
imported by name, e.g. `verma.matrix_rank` or `cohomology.simple_quotient`),
with a wrapper that opens a span, and `uninstall` puts every original back.

A span has a name, a start, an end, a parent span and the id of the
benchmark operation it ran under. Self time is a span's duration minus the
durations of its child spans. Every span is added to per-name totals; the
first KEEP_PER_NAME spans of each name are also kept as records and written
out by `write_spans`, which bounds memory on names called millions of times.
`LaurentPoly` arithmetic is only counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

KEEP_PER_NAME = 1000
# (module, class or None, attribute, span name). The span name of
# matrix_rank gets the field appended: exactlin.matrix_rank.Q or .Fp.
SPAN_TARGETS = [
    ("exactlin", None, "matrix_rank", "exactlin.matrix_rank"),
    ("exactlin", None, "nullspace", "exactlin.nullspace"),
    ("exactlin", "FiniteComplex", "homology_dims", "exactlin.FiniteComplex.homology_dims"),
    ("exactlin", "SparseMatrix", "__matmul__", "exactlin.SparseMatrix.matmul"),
    ("exactlin", "SparseMatrix", "kron", "exactlin.SparseMatrix.kron"),
    ("verma", "TruncatedVerma", "__init__", "verma.TruncatedVerma.init"),
    ("verma", "TruncatedVerma", "action", "verma.TruncatedVerma.action"),
    ("verma", None, "simple_quotient", "verma.simple_quotient"),
    ("cohomology", None, "ce_slice", "cohomology.ce_slice"),
    ("cohomology", None, "cohomology_table", "cohomology.cohomology_table"),
    ("cohomology", None, "blocks_sweep", "cohomology.blocks_sweep"),
    ("liealg", "RelationAlgebra", "bracket", "liealg.RelationAlgebra.bracket"),
    ("functors", None, "move_matrix", "functors.move_matrix"),
    ("functors", None, "evaluate", "functors.evaluate"),
    ("functors", None, "verify_relation", "functors.verify_relation"),
    ("cube", None, "build_cube", "cube.build_cube"),
    ("cube", None, "khovanov_homology_k2", "cube.khovanov_homology_k2"),
    ("cube", None, "oracle_euler_k2", "cube.oracle_euler_k2"),
    ("cube", None, "parse_slice_word", "cube.parse_slice_word"),
    ("operads", None, "run_operad_checks", "operads.run_operad_checks"),
    ("cli", None, "run", "cli.run"),
]
# Every public function of the weights module is also a span, "weights.<name>".
# Counted only. __rmul__ is the same function as __mul__, so the alias scan
# in Tracer._replace wraps it too.
COUNT_TARGETS = [
    ("exactlin", "LaurentPoly", "__mul__", "exactlin.LaurentPoly.mul"),
    ("exactlin", "LaurentPoly", "__add__", "exactlin.LaurentPoly.add"),
]

# Per-layer metrics of a traced pass: (name, unit, better). BENCHMARK.json
# lists the same names, plus trace_overhead, which the runner adds.
LAYER_METRICS = [
    ("exactlin.matrix_rank.Q.self_s", "s", "lower"),
    ("exactlin.matrix_rank.Q.calls", "count", "lower"),
    ("exactlin.matrix_rank.Q.nnz_in", "count", "lower"),
    ("exactlin.matrix_rank.Fp.self_s", "s", "lower"),
    ("exactlin.matrix_rank.Fp.calls", "count", "lower"),
    ("exactlin.matrix_rank.Fp.nnz_in", "count", "lower"),
    ("exactlin.nullspace.self_s", "s", "lower"),
    ("exactlin.nullspace.calls", "count", "lower"),
    ("exactlin.nullspace.dense_cells", "count", "lower"),
    ("exactlin.FiniteComplex.homology_dims.self_s", "s", "lower"),
    ("exactlin.SparseMatrix.matmul.self_s", "s", "lower"),
    ("exactlin.SparseMatrix.matmul.calls", "count", "lower"),
    ("exactlin.SparseMatrix.matmul.nnz_out", "count", "lower"),
    ("exactlin.SparseMatrix.kron.self_s", "s", "lower"),
    ("exactlin.SparseMatrix.kron.calls", "count", "lower"),
    ("exactlin.SparseMatrix.kron.nnz_out", "count", "lower"),
    ("exactlin.LaurentPoly.mul.calls", "count", "lower"),
    ("exactlin.LaurentPoly.add.calls", "count", "lower"),
    ("verma.TruncatedVerma.init.self_s", "s", "lower"),
    ("verma.TruncatedVerma.basis_dim", "count", "lower"),
    ("verma.TruncatedVerma.action.self_s", "s", "lower"),
    ("verma.TruncatedVerma.action.calls", "count", "lower"),
    ("verma.TruncatedVerma.action.cache_hit_ratio", "ratio", "higher"),
    ("verma.truncation_losses", "count", "lower"),
    ("verma.simple_quotient.self_s", "s", "lower"),
    ("cohomology.ce_slice.self_s", "s", "lower"),
    ("cohomology.ce_slice.calls", "count", "lower"),
    ("cohomology.ce_slice.cochain_dim", "count", "lower"),
    ("cohomology.ce_slice.nnz", "count", "lower"),
    ("cohomology.cohomology_table.self_s", "s", "lower"),
    ("cohomology.blocks_sweep.self_s", "s", "lower"),
    ("liealg.RelationAlgebra.bracket.self_s", "s", "lower"),
    ("liealg.RelationAlgebra.bracket.calls", "count", "lower"),
    ("weights.self_s", "s", "lower"),
    ("weights.root_height.calls", "count", "lower"),
    ("functors.move_matrix.self_s", "s", "lower"),
    ("functors.move_matrix.calls", "count", "lower"),
    ("functors.evaluate.self_s", "s", "lower"),
    ("functors.evaluate.calls", "count", "lower"),
    ("functors.verify_relation.self_s", "s", "lower"),
    ("functors.verify_relation.calls", "count", "lower"),
    ("cube.build_cube.self_s", "s", "lower"),
    ("cube.build_cube.vertices", "count", "lower"),
    ("cube.khovanov_homology_k2.self_s", "s", "lower"),
    ("cube.khovanov_homology_k2.chain_dim", "count", "lower"),
    ("cube.khovanov_homology_k2.nnz", "count", "lower"),
    ("cube.oracle_euler_k2.self_s", "s", "lower"),
    ("cube.parse_slice_word.self_s", "s", "lower"),
    ("operads.run_operad_checks.self_s", "s", "lower"),
    ("operads.run_operad_checks.trials", "count", "higher"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
]


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self):
        self.origin = perf_counter()
        self.op = None  # id of the benchmark operation now running
        self.stack: list[list] = []  # open spans: [name, id, child seconds, start]
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds, kept]
        self.counts: dict[str, float] = {}  # counted calls and span attributes
        self.spans: list[tuple] = []
        self._ids = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans

    def open(self, name: str) -> list:
        self._ids += 1
        frame = [name, self._ids, 0.0, perf_counter()]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        while stack.pop() is not frame:
            pass
        name, span_id, child, start = frame
        duration = end - start
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][1]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if total[3] < KEEP_PER_NAME:
            total[3] += 1
            self.spans.append((span_id, parent, self.op, name, start - self.origin, end - self.origin))

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def run_op(self, op_id: int, name: str, fn):
        """Run one benchmark operation under a root span; its spans share op_id."""
        self.op = op_id
        frame = self.open(f"bench.op {name}")
        try:
            return fn()
        finally:
            self.close(frame)
            self.op = None

    # -- wrapping

    def install(self) -> None:
        """Wrap every target, in each decatkit module and class that holds it."""
        modules = {name: sys.modules[f"decatkit.{name}"] for name in
                   ("exactlin", "verma", "cohomology", "liealg", "weights", "functors", "cube", "operads", "cli")}
        field_type = modules["exactlin"].PrimeField
        hooks = _hooks(self, field_type)
        try:
            for mod, cls, attr, span in SPAN_TARGETS:
                owner = getattr(modules[mod], cls) if cls else modules[mod]
                self._replace(modules, owner, attr, self._span_wrapper, span, *hooks.get(span, (None, None)))
            weights = modules["weights"]
            for attr, fn in list(vars(weights).items()):
                if inspect.isfunction(fn) and fn.__module__ == weights.__name__ and not attr.startswith("_"):
                    self._replace(modules, weights, attr, self._span_wrapper, f"weights.{attr}")
            for mod, cls, attr, key in COUNT_TARGETS:
                self._replace(modules, getattr(modules[mod], cls), attr, self._count_wrapper, key)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _replace(self, modules, owner, attr, make_wrapper, *wrapper_args) -> None:
        original = vars(owner)[attr]
        wrapper = make_wrapper(original, *wrapper_args)
        for holder in [owner] + [m for m in modules.values() if m is not owner]:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def _span_wrapper(self, fn, name, before=None, after=None):
        if before is None and after is None:
            def wrapper(*args, **kwargs):
                frame = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(frame)
        else:
            def wrapper(*args, **kwargs):
                span, state = before(args, kwargs) if before else (name, None)
                frame = self.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(frame)
                if after:
                    after(span, state, args, result)
                return result
        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- results

    def layer_metrics(self) -> dict[str, float]:
        """The LAYER_METRICS values; a layer this pass never entered reads 0."""
        out = {}
        for name, _unit, _better in LAYER_METRICS:
            head, _, field = name.rpartition(".")
            if name == "weights.self_s":
                # The weights layer is every weights.* span together.
                out[name] = sum(t[2] for n, t in self.totals.items() if n.startswith("weights."))
            elif name == "verma.TruncatedVerma.action.cache_hit_ratio":
                calls = self.totals.get(head, [0])[0]
                out[name] = self.counts.get(f"{head}.cache_hits", 0) / calls if calls else 0.0
            elif field == "self_s":
                out[name] = self.totals.get(head, [0, 0.0, 0.0])[2]
            elif field == "calls" and head in self.totals:
                out[name] = self.totals[head][0]
            else:
                out[name] = self.counts.get(head if field == "calls" else name, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": round(start, 9), "end": round(end, 9)}) + "\n")


def _hooks(tracer: Tracer, field_type) -> dict:
    """Span name choice before a call and attribute counts after it, per span."""
    add = tracer.add

    def rank_before(args, kwargs):
        m, field = args[0], args[1] if len(args) > 1 else kwargs["field"]
        span = "exactlin.matrix_rank." + ("Fp" if isinstance(field, field_type) else "Q")
        add(f"{span}.nnz_in", len(m.entries))
        return span, None

    def nullspace_after(span, _state, args, _result):
        add(f"{span}.dense_cells", args[0].nrows * args[0].ncols)

    def homology_after(_span, _state, args, _result):
        # The complex khovanov_homology_k2 builds is only visible here.
        if tracer.stack and tracer.stack[-1][0] == "cube.khovanov_homology_k2":
            cx = args[0]
            add("cube.khovanov_homology_k2.chain_dim", sum(cx.dims))
            add("cube.khovanov_homology_k2.nnz", sum(len(m.entries) for m in cx.maps))

    def nnz_out_after(span, _state, _args, result):
        add(f"{span}.nnz_out", len(result.entries))

    def verma_init_after(span, _state, args, _result):
        add("verma.TruncatedVerma.basis_dim", args[0].dim)

    def action_before(args, kwargs):
        module, pair = args[0], args[1] if len(args) > 1 else kwargs["pair"]
        return "verma.TruncatedVerma.action", (pair in module._action_cache, len(module.truncation_losses))

    def action_after(span, state, args, _result):
        hit, losses = state
        add(f"{span}.cache_hits", int(hit))
        add("verma.truncation_losses", len(args[0].truncation_losses) - losses)

    def ce_slice_after(span, _state, _args, result):
        add(f"{span}.cochain_dim", sum(result.complex.dims))
        add(f"{span}.nnz", sum(len(m.entries) for m in result.complex.maps))

    def cube_after(span, _state, _args, result):
        add(f"{span}.vertices", len(result.values))

    def operads_after(span, _state, _args, result):
        add(f"{span}.trials", result.total_trials)

    return {
        "exactlin.matrix_rank": (rank_before, None),
        "exactlin.nullspace": (None, nullspace_after),
        "exactlin.FiniteComplex.homology_dims": (None, homology_after),
        "exactlin.SparseMatrix.matmul": (None, nnz_out_after),
        "exactlin.SparseMatrix.kron": (None, nnz_out_after),
        "verma.TruncatedVerma.init": (None, verma_init_after),
        "verma.TruncatedVerma.action": (action_before, action_after),
        "cohomology.ce_slice": (None, ce_slice_after),
        "cube.build_cube": (None, cube_after),
        "operads.run_operad_checks": (None, operads_after),
    }

"""Outside-in tracer for the finalg benchmark.

The tracer wraps the public entry points of each finalg module from the
benchmark's side; no source under ``src/finalg`` changes.  A wrapper is
installed at every module attribute that holds the entry point, because the
modules import by name: ``kernel_from_constraints`` is wrapped at
``finalg.maps``, ``finalg.structure``, ``finalg.algebras`` and
``finalg.linalg`` alike.

Spans are kept in memory: name, job id, parent, start, end and self time
(duration minus the time covered by child spans).  Row iterators handed to
``kernel_from_constraints`` are passed through lazily, so a solver that stops
consuming early is measured as stopping early; the time spent inside them is
one ``<caller>.rowgen`` span per call, whose duration is the summed time of
its pulls, not its wall interval.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# group -> (module, attribute) entry points whose spans add to "<group>_s".
FUNCTIONS = {
    "document.parse": [("document", "parse_document"), ("document", "parse_map_file"),
                       ("document", "parse_cayley_table")],
    "document.serialize": [("document", "serialize_document")],
    "structure.commutator": [("structure", "commutator_subspace")],
    "structure.simplicity": [("structure", "is_commutator_simple"),
                             ("structure", "largest_ideal_within")],
    "structure.radical": [("structure", "radical"), ("structure", "is_semiprime")],
    "structure.trace": [("structure", name) for name in (
        "product_span", "trace_functional_space", "has_nondegenerate_trace",
        "is_nondegenerate_trace", "gram_matrix", "_common_gram_radical")],
    "maps.derivation": [("maps", "derivation_space")],
    "maps.jordan": [("maps", "jordan_derivation_space")],
    "maps.criterion": [("maps", "derivation_criterion_space")],
    "maps.inner": [("maps", "inner_derivation_space")],
    "maps.verify": [("maps", "verify_derivation_criterion"), ("maps", "verify_jordan_criterion")],
    "maps.check": [("maps", "cubic_condition_check"), ("maps", "multiplicativity_check"),
                   ("maps", "jordan_homomorphism_check")],
    "maps.local": [("maps", "local_derivation_test"), ("maps", "local_inner_automorphism_test")],
    "linalg.kernel": [("linalg", "kernel_from_constraints")],
    "report.emit": [("report", "emit_report")],
}
# group -> (module, class, method)
METHODS = {
    "linalg.rref": [("linalg", "Mat", "rref")],
    "algebras.validate": [("algebras", "FinAlgebra", "__init__")],
}
SPACE_GROUPS = ("maps.derivation", "maps.jordan", "maps.criterion", "maps.inner")

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER = {
    "linalg.kernel_s": "s", "linalg.kernel_calls": "count", "linalg.kernel_rows": "count",
    "linalg.kernel_rank": "count", "linalg.kernel_useful_frac": "ratio",
    "linalg.kernel_unknowns": "count", "linalg.kernel_max_bits": "bits",
    "linalg.kernel_peak_cells": "count",
    "maps.rowgen_s": "s", "maps.derivation_s": "s", "maps.jordan_s": "s",
    "maps.criterion_s": "s", "maps.inner_s": "s", "maps.space_calls": "count",
    "maps.verify_s": "s", "maps.check_s": "s", "maps.local_s": "s",
    "maps.local_points": "count", "maps.local_inconclusive_frac": "ratio",
    "linalg.rref_s": "s", "linalg.rref_calls": "count", "linalg.rref_cells": "count",
    "structure.commutator_s": "s", "structure.commutator_calls": "count",
    "structure.simplicity_s": "s", "structure.radical_s": "s", "structure.trace_s": "s",
    "structure.rowgen_s": "s",
    "document.parse_s": "s", "document.bytes_in": "bytes", "document.serialize_s": "s",
    "algebras.validate_s": "s", "algebras.validate_triples": "count",
    "report.emit_s": "s", "report.bytes_out": "bytes", "cli.self_s": "s",
    "trace.batch_s": "s", "trace.solver_share": "ratio",
}


class _Frame:
    __slots__ = ("sid", "name", "group", "parent", "start", "child")

    def __init__(self, sid, name, group, parent, start):
        self.sid, self.name, self.group = sid, name, group
        self.parent, self.start, self.child = parent, start, 0.0


class Tracer:
    """Collects spans and per-pass counters while installed."""

    def __init__(self):
        self.job = None
        self.spans = []          # (sid, name, job, parent, start, end, self_s)
        self.kernel_calls = []   # (job, caller group, unknowns, rows, rank)
        self.missing = []        # entry points not found in this version of finalg
        self._stack = []
        self._next_sid = 0
        self._undo = []
        self._reset_pass()

    def _reset_pass(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.peak_cells = 0

    # -- spans ---------------------------------------------------------------

    def _new_sid(self):
        self._next_sid += 1
        return self._next_sid

    def open(self, name, group):
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(self._new_sid(), name, group, parent, time.perf_counter())
        self._stack.append(frame)
        self.counts[group + "_calls"] += 1
        return frame

    def close(self, frame, end=None):
        end = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        self._finish(frame, frame.start, end, duration)
        if frame.parent is not None:
            frame.parent.child += duration

    def _finish(self, frame, start, end, duration):
        self_s = duration - frame.child
        self.self_s[frame.group] += self_s
        parent = frame.parent.sid if frame.parent is not None else None
        self.spans.append((frame.sid, frame.name, self.job, parent, start, end, self_s))

    def exclude(self, seconds):
        """Charge time spent on the benchmark's own work to no layer."""
        if self._stack:
            self._stack[-1].child += seconds

    # -- installation ---------------------------------------------------------------

    def install(self):
        import finalg

        modules = [m for name, m in sys.modules.items()
                   if name == "finalg" or name.startswith("finalg.")]
        for group, entries in FUNCTIONS.items():
            for mod_name, attr in entries:
                original = getattr(getattr(finalg, mod_name), attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if group == "linalg.kernel":
                    wrapper = self._wrap_kernel(original)
                else:
                    wrapper = self._wrap(original, f"{mod_name}.{attr}", group)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, name, original))
                            setattr(module, name, wrapper)
        for group, entries in METHODS.items():
            for mod_name, cls_name, attr in entries:
                cls = getattr(getattr(finalg, mod_name), cls_name)
                original = cls.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                    continue
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, f"{mod_name}.{cls_name}.{attr}", group))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, name, group):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            started = time.perf_counter()
            tracer._count(group, args, result)
            tracer.exclude(time.perf_counter() - started)
            return result

        return wrapper

    def _count(self, group, args, result):
        counts = self.counts
        if group == "document.parse":
            counts["document.bytes_in"] += len(args[0].encode("utf-8"))
        elif group == "algebras.validate":
            counts["algebras.validate_triples"] += args[0].dim ** 3
        elif group == "linalg.rref":
            counts["linalg.rref_cells"] += args[0].rows * args[0].cols
        elif group == "report.emit":
            counts["report.bytes_out"] += len(result.encode("utf-8"))
        elif group == "maps.local":
            if hasattr(result, "points_tested"):
                counts["maps.local_points"] += result.points_tested
            else:
                counts["maps.local_points"] += len(result)
                counts["maps.inner_auto_points"] += len(result)
                counts["maps.inconclusive_points"] += sum(
                    1 for sample in result if sample.status == "inconclusive")

    def _wrap_kernel(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(n, rows):
            frame = tracer.open("linalg.kernel_from_constraints", "linalg.kernel")
            parent_group = frame.parent.group if frame.parent is not None else "bench"
            caller = parent_group.split(".")[0]
            pull = _Frame(tracer._new_sid(), f"{caller}.rowgen", f"{caller}.rowgen", frame, None)
            pulled = [0, 0.0, None, None]  # rows, busy seconds, first pull, last pull

            def lazy():
                it = iter(rows)
                stack = tracer._stack
                while True:
                    t0 = time.perf_counter()
                    stack.append(pull)
                    try:
                        row = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        t1 = time.perf_counter()
                        pulled[1] += t1 - t0
                        if pulled[2] is None:
                            pulled[2] = t0
                        pulled[3] = t1
                    pulled[0] += 1
                    yield row

            try:
                result = fn(n, lazy())
            finally:
                end = time.perf_counter()
                frame.child += pulled[1]
                tracer._finish(pull, pulled[2] or frame.start, pulled[3] or frame.start, pulled[1])
                tracer.close(frame, end)
            started = time.perf_counter()
            rank = n - result.dim
            bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                        for row in result.basis for x in row), default=0)
            counts = tracer.counts
            counts["linalg.kernel_rows"] += pulled[0]
            counts["linalg.kernel_rank"] += rank
            counts["linalg.kernel_unknowns"] += n
            tracer.max_bits = max(tracer.max_bits, bits)
            tracer.peak_cells = max(tracer.peak_cells, n * n)
            tracer.kernel_calls.append((tracer.job, parent_group, n, pulled[0], rank))
            tracer.exclude(time.perf_counter() - started)
            return result

        return wrapper

    # -- reduction -------------------------------------------------------------------

    def take_pass(self, batch_wall_s):
        """Per-layer metrics of the pass that just ended, given the wall time
        of its jobs; resets the counters."""
        s, c = self.self_s, self.counts
        rows = c["linalg.kernel_rows"]
        inner_auto = c["maps.inner_auto_points"]
        values = {
            "linalg.kernel_s": s["linalg.kernel"],
            "linalg.kernel_calls": c["linalg.kernel_calls"],
            "linalg.kernel_rows": rows,
            "linalg.kernel_rank": c["linalg.kernel_rank"],
            "linalg.kernel_useful_frac": c["linalg.kernel_rank"] / rows if rows else 0.0,
            "linalg.kernel_unknowns": c["linalg.kernel_unknowns"],
            "linalg.kernel_max_bits": self.max_bits,
            "linalg.kernel_peak_cells": self.peak_cells,
            "maps.rowgen_s": s["maps.rowgen"],
            "maps.derivation_s": s["maps.derivation"],
            "maps.jordan_s": s["maps.jordan"],
            "maps.criterion_s": s["maps.criterion"],
            "maps.inner_s": s["maps.inner"],
            "maps.space_calls": sum(c[g + "_calls"] for g in SPACE_GROUPS),
            "maps.verify_s": s["maps.verify"],
            "maps.check_s": s["maps.check"],
            "maps.local_s": s["maps.local"],
            "maps.local_points": c["maps.local_points"],
            "maps.local_inconclusive_frac":
                c["maps.inconclusive_points"] / inner_auto if inner_auto else 0.0,
            "linalg.rref_s": s["linalg.rref"],
            "linalg.rref_calls": c["linalg.rref_calls"],
            "linalg.rref_cells": c["linalg.rref_cells"],
            "structure.commutator_s": s["structure.commutator"],
            "structure.commutator_calls": c["structure.commutator_calls"],
            "structure.simplicity_s": s["structure.simplicity"],
            "structure.radical_s": s["structure.radical"],
            "structure.trace_s": s["structure.trace"],
            "structure.rowgen_s": s["structure.rowgen"],
            "document.parse_s": s["document.parse"],
            "document.bytes_in": c["document.bytes_in"],
            "document.serialize_s": s["document.serialize"],
            "algebras.validate_s": s["algebras.validate"],
            "algebras.validate_triples": c["algebras.validate_triples"],
            "report.emit_s": s["report.emit"],
            "report.bytes_out": c["report.bytes_out"],
            "cli.self_s": s["cli.main"],
            "trace.batch_s": batch_wall_s,
            "trace.solver_share": (s["linalg.kernel"] + s["maps.rowgen"]) / batch_wall_s,
        }
        self._reset_pass()
        return values

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["sid", "name", "job", "parent", "start", "end", "self_s"],
                                  "missing_entry_points": self.missing}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def median_metrics(passes):
    """Median of each per-layer metric over the passes of one run."""
    return {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}

"""Spans around the calls into termsep's modules, recorded from benchmark code.

Each traced function is rebound, in every termsep module that holds it, to
a wrapper that appends (name, start, end, parent, op) to an in-memory list.
Counts are taken at the same boundaries.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from collections import Counter

# span name: "<module>.<function>" under termsep
FUNCTIONS = (
    "terms.parse_term",
    "terms.occurrences",
    "unify.unify",
    "unify.decide_abstract_separability",
    "synth.decide_finite_separability",
    "synth.find_cover_pair",
    "synth.find_cycle",
    "synth.search_separator",
    "synth.build_k_antiassociative",
    "vecops.compile_opsum",
    "vecops.term_affine_form",
    "vecops.direct_sum",
    "vecops.to_cayley",
    "gf2.rref",
    "gf2.solve",
    "gf2.nullspace",
    "gf2.min_weight_solution",
    "verify.affine_separation_decision",
    "verify.check_parity_functional",
    "cayley.separates_exhaustive",
    "census.census",
    "cli._emit",
)
METHODS = {"vecops.to_json": ("vecops", "VecGroupoid", "to_json")}
# the span the benchmark opens around each operation
OWN_SPANS = ("bench.op",)
SPANS = FUNCTIONS + tuple(METHODS) + OWN_SPANS

CONSTRUCTIONS = ("unifier", "cover", "cycle", "search", "unknown")
GF2_CELLS = ("gf2.rref", "gf2.solve", "gf2.nullspace", "gf2.min_weight_solution")
COUNTS = (
    "unify.unify.trace_steps",
    "unify.unify.binding_nodes",
    "synth.search_separator.candidates",
    "synth.search_separator.hits",
    *(f"synth.construction.{c}" for c in CONSTRUCTIONS),
    *(f"{name}.cells" for name in GF2_CELLS),
    "cayley.separates_exhaustive.assignments",
)


def tree_size(term, memo=None) -> int:
    """Nodes of a termsep term read as a tree; shared subterms count each time."""
    memo = {} if memo is None else memo
    size = memo.get(id(term))
    if size is None:
        if hasattr(term, "name"):
            size = 1
        else:
            size = 1 + tree_size(term.left, memo) + tree_size(term.right, memo)
        memo[id(term)] = size
    return size


def _variable_count(*terms) -> int:
    names, stack = set(), list(terms)
    while stack:
        node = stack.pop()
        if hasattr(node, "name"):
            names.add(node.name)
        else:
            stack += (node.left, node.right)
    return len(names)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Holds the spans and counts of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.open: list[tuple[int, str]] = []  # (span index, name), innermost last
        self.op = -1
        self.counts: Counter = Counter()
        self.width_max = 0
        self.census_arrivals: list[list[float]] = []
        self._restore: list = []

    # --- recording -----------------------------------------------------

    def wrap(self, name: str, fn):
        """fn, recording a span per call; the method _after_<name with '_'
        for '.'>, if there is one, then takes the counts from the result."""
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.open[-1][0] if self.open else -1
            self.open.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.open.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def census_progress(self, done, total, count):
        """The census progress callback: records when each prefix arrives."""
        if done == 1:
            self.census_arrivals.append([])
        self.census_arrivals[-1].append(time.perf_counter())

    def _within(self, name: str) -> bool:
        return any(open_name == name for _, open_name in self.open)

    def _after_unify_unify(self, outcome, *args, **kwargs):
        self.counts["unify.unify.trace_steps"] += len(outcome.trace)
        if outcome.substitution is not None:
            memo = {}
            self.counts["unify.unify.binding_nodes"] += sum(
                tree_size(t, memo) for t in outcome.substitution.values()
            )

    def _after_synth_decide_finite_separability(self, result, *args, **kwargs):
        self.counts[f"synth.construction.{result.construction or 'unknown'}"] += 1

    def _after_verify_affine_separation_decision(self, decision, *args, **kwargs):
        if self._within("synth.search_separator"):
            self.counts["synth.search_separator.candidates"] += 1
            self.counts["synth.search_separator.hits"] += bool(decision.separated)

    def _after_vecops_term_affine_form(self, form, G, *args, **kwargs):
        self.width_max = max(self.width_max, G.width)

    def _after_cayley_separates_exhaustive(self, verdict, G, s, t, *args, **kwargs):
        self.counts["cayley.separates_exhaustive.assignments"] += G.n ** _variable_count(s, t)

    def _count_cells(self, name, mat):
        rows, cols = getattr(mat, "shape", (0, 0))
        self.counts[f"{name}.cells"] += rows * cols

    def _after_gf2_rref(self, result, mat, *args, **kwargs):
        self._count_cells("gf2.rref", mat)

    def _after_gf2_solve(self, result, mat, *args, **kwargs):
        self._count_cells("gf2.solve", mat)

    def _after_gf2_nullspace(self, result, mat, *args, **kwargs):
        self._count_cells("gf2.nullspace", mat)

    def _after_gf2_min_weight_solution(self, result, mat, *args, **kwargs):
        self._count_cells("gf2.min_weight_solution", mat)

    # --- installation --------------------------------------------------

    def install(self):
        """Rebind every traced function wherever a termsep module holds it."""
        for name in FUNCTIONS:
            importlib.import_module("termsep." + name.split(".")[0])
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "termsep"]
        for name in FUNCTIONS:
            module, attr = name.split(".")
            fn = getattr(sys.modules[f"termsep.{module}"], attr)
            wrapper = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[f"termsep.{module}"], cls_name)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # --- results -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_ms per span name, plus the counts."""
        selfs = self_times(self.spans)
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_ms"] = 0.0
        for span, own in zip(self.spans, selfs):
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.self_ms"] += own * 1e3
        for name in COUNTS:
            out[name] = self.counts[name]
        candidates = self.counts["synth.search_separator.candidates"]
        hits = self.counts["synth.search_separator.hits"]
        out["synth.search_separator.hit_ratio"] = hits / candidates if candidates else 0.0
        out["vecops.term_affine_form.width_max"] = self.width_max
        out.update(self._census_prefixes())
        return out

    def _census_prefixes(self) -> dict[str, float]:
        """Intervals between progress callbacks, each census from its start.

        With two workers the results arrive in prefix order, so an interval
        is the wait for the next prefix, not one prefix's own time.
        """
        starts = [s[1] for s in self.spans if s[0] == "census.census"]
        intervals = []
        for start, arrivals in zip(starts, self.census_arrivals):
            prev = start
            for t in arrivals:
                intervals.append((t - prev) * 1e3)
                prev = t
        return {
            "census.census.prefixes": len(intervals),
            "census.census.prefix_p50_ms": statistics.median(intervals) if intervals else 0.0,
            "census.census.prefix_max_ms": max(intervals, default=0.0),
        }

    def write(self, path):
        """Spans as gzipped JSON lines: [name, start, end, parent, op]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def dumps(obj) -> str:
    """The JSON text the CLI prints, without its trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True)

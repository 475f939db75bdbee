"""Per-layer spans, recorded from outside the package.

The recorder replaces public functions of the package's modules with
wrappers that time each call, note its parent span and read sizes from
its arguments and return value.  Several functions are bound into other
modules by ``from ... import``, so each is patched at the name its
callers look up.  Spans stay in memory until the run ends.

With ``track_alloc`` the wrappers also read ``tracemalloc`` peaks; the
caller starts and stops ``tracemalloc`` around that pass only, because it
slows every allocation.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0
    sizes: dict = field(default_factory=dict)
    alloc_base: int = 0  # traced bytes at entry
    alloc_peak: int = 0  # bytes above alloc_base
    error: str = ""


def _states(result) -> dict:
    return {"states": len(result.states), "transitions": len(result.transitions)}


def _matrix(args, kwargs, result) -> dict:
    return {"cells": result.dim * result.dim, "nnz": int(np.count_nonzero(result.entries))}


def _spectral(args, kwargs, result) -> dict:
    dim = args[0].dim
    return {"sweeps": result.iterations, "cell_sweeps": dim * dim * result.iterations,
            "not_converged": int(not result.converged)}


def _dp(args, kwargs, result) -> dict:
    max_n = args[2] if len(args) > 2 else kwargs["max_n"]
    return {"dp_steps": len(args[0].states) * max_n}


# (module, attribute, span name, sizes(args, kwargs, result) or None)
PATCHES = [
    ("gurevich.cli", "load_automaton", "documents.load", None),
    ("gurevich.cli", "load_pair_cost", "documents.load", None),
    ("gurevich.cli", "load_linlen_spec", "documents.load", None),
    ("gurevich.cli", "save_document", "documents.save", None),
    ("gurevich.cli", "free_energy", "energy.free_energy", lambda a, k, r: {"components": len(r.per_component)}),
    ("gurevich.energy", "free_energy", "energy.free_energy", lambda a, k, r: {"components": len(r.per_component)}),
    ("gurevich.linlen", "free_energy", "energy.free_energy", lambda a, k, r: {"components": len(r.per_component)}),
    ("gurevich.energy", "gurevich_matrix_compact", "energy.build", _matrix),
    ("gurevich.energy", "gurevich_matrix_bipartite", "energy.build", _matrix),
    ("gurevich.energy", "spectral_radius", "spectral.solve", _spectral),
    ("gurevich.automata", "trim", "automata.trim", None),
    ("gurevich.automata", "scc", "automata.scc", None),
    ("gurevich.automata", "induced", "automata.induced", None),
    ("gurevich.automata", "product", "automata.product", lambda a, k, r: _states(r)),
    ("gurevich.automata", "determinize", "automata.determinize", lambda a, k, r: _states(r)),
    ("gurevich.cli", "similarity", "similarity.similarity", None),
    ("gurevich.cli", "implement_construction", "langcost.implement", lambda a, k, r: _states(r)),
    ("gurevich.nondet", "lambda_plus", "nondet.lambda_plus", None),
    ("gurevich.nondet", "lambda_exact", "nondet.lambda_exact", None),
    ("gurevich.oracle", "run_partition_series", "oracle.run_series", _dp),
    ("gurevich.oracle", "word_partition_series", "oracle.word_series", _dp),
    ("gurevich.linlen", "block_automaton", "linlen.block_automaton", lambda a, k, r: _states(r)),
    ("gurevich.linlen", "linlen_word_oracle", "linlen.word_oracle", None),
]

ROOT = "cli.main"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.track_alloc = False

    def open(self, name: str) -> int:
        if self.track_alloc and self.stack:
            parent = self.spans[self.stack[-1]]
            parent.alloc_peak = max(parent.alloc_peak, tracemalloc.get_traced_memory()[1])
        span = Span(name, 0.0, parent=self.stack[-1] if self.stack else -1)
        if self.track_alloc:
            tracemalloc.reset_peak()
            span.alloc_base = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return self.stack[-1]

    def close(self, index: int) -> Span:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        self.stack.pop()
        if self.track_alloc:
            peak = max(span.alloc_peak, tracemalloc.get_traced_memory()[1])
            span.alloc_peak = peak - span.alloc_base
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent.alloc_peak = max(parent.alloc_peak, peak)
            tracemalloc.reset_peak()
        if span.parent >= 0:
            self.spans[span.parent].child_time += end - span.start
        return span

    def wrap(self, name: str, fn, sizes):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.spans[index].error = type(e).__name__
                raise
            finally:
                span = self.close(index)
            if sizes is not None:
                span.sizes.update(sizes(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCHES name for the duration of the block."""
        saved = []
        try:
            for module, attr, name, sizes in PATCHES:
                mod = sys.modules[module]  # gurevich.similarity would give the function
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, sizes))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def pass_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one pass: times in seconds, sizes summed."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names: str) -> float:
        return sum(s.end - s.start - s.child_time for n in names for s in by_name[n])

    def total_s(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def size(name: str, key: str) -> int:
        return sum(s.sizes.get(key, 0) for s in by_name[name])

    return {
        "documents.load_s": self_s("documents.load"),
        "documents.load_calls": len(by_name["documents.load"]),
        "documents.save_s": self_s("documents.save"),
        "automata.trim_s": self_s("automata.trim"),
        "automata.scc_s": self_s("automata.scc"),
        "automata.scc_calls": len(by_name["automata.scc"]),
        "automata.induced_s": self_s("automata.induced"),
        "automata.induced_calls": len(by_name["automata.induced"]),
        "automata.product_s": self_s("automata.product"),
        "automata.product_states": size("automata.product", "states"),
        "automata.product_transitions": size("automata.product", "transitions"),
        "automata.determinize_s": self_s("automata.determinize"),
        "automata.determinize_states": size("automata.determinize", "states"),
        "energy.free_energy_self_s": self_s("energy.free_energy"),
        "energy.build_s": self_s("energy.build"),
        "energy.matrix_cells": size("energy.build", "cells"),
        "energy.matrix_nnz": size("energy.build", "nnz"),
        "energy.components": size("energy.free_energy", "components"),
        "spectral.solve_s": self_s("spectral.solve"),
        "spectral.calls": len(by_name["spectral.solve"]),
        "spectral.sweeps": size("spectral.solve", "sweeps"),
        "spectral.cell_sweeps": size("spectral.solve", "cell_sweeps"),
        "spectral.not_converged": size("spectral.solve", "not_converged"),
        "oracle.run_series_s": self_s("oracle.run_series"),
        "oracle.word_series_s": self_s("oracle.word_series"),
        "oracle.dp_steps": size("oracle.run_series", "dp_steps") + size("oracle.word_series", "dp_steps"),
        "linlen.block_automaton_s": self_s("linlen.block_automaton"),
        "linlen.block_states": size("linlen.block_automaton", "states"),
        "linlen.word_oracle_s": self_s("linlen.word_oracle"),
        "langcost.implement_s": self_s("langcost.implement"),
        "langcost.implement_states": size("langcost.implement", "states"),
        "nondet.lambda_plus_s": total_s("nondet.lambda_plus"),
        "nondet.lambda_exact_s": total_s("nondet.lambda_exact"),
        "similarity.similarity_s": total_s("similarity.similarity"),
        "cli.main_self_s": self_s(ROOT),
    }


def alloc_peaks(spans: list[Span]) -> dict[str, float]:
    """Largest tracemalloc peak per layer, in MiB, from a tracked pass."""

    def peak(*names: str) -> float:
        return max((s.alloc_peak for s in spans if s.name in names), default=0) / 2**20

    return {
        "automata.alloc_peak_mb": peak("automata.product", "automata.determinize"),
        "energy.alloc_peak_mb": peak("energy.free_energy"),
        "linlen.alloc_peak_mb": peak("linlen.block_automaton", "linlen.word_oracle"),
    }


def median_totals(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; counts repeat exactly, so they keep their value."""
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out


def write_spans(path: str, spans: list[Span]) -> None:
    """One JSON line per span, parents by index, times relative to the first."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({
                "id": i, "parent": s.parent, "name": s.name,
                "start": s.start - t0, "end": s.end - t0,
                "self": s.end - s.start - s.child_time,
                "sizes": s.sizes, "alloc_peak": s.alloc_peak, "error": s.error,
            }) + "\n")

"""Spans recorded by the benchmark around calls into planchain's layers.

The package itself records nothing.  ``Tracer.instrument`` swaps timing
wrappers in for the layer functions that ``solve_chaining`` looks up in
its own module (variant generation, network build, min-cost flow) and
restores the originals on exit, so the solver runs unchanged with spans
around each call.  Spans stay in memory and are written out once, when
the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import planchain.chainsolve as chainsolve


class Tracer:
    """In-memory spans: name, start, end, parent span, pass index, counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._rooted: set[int] = set()  # spans that already made their root relaxation
        self.pass_index: int | None = None

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pass": self.pass_index,
            "name": name,
            "counts": dict(counts),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record["counts"].update(count(result))
                return result

        return wrapper

    def _wrap_mcf(self, fn):
        """The first relaxation inside each solve is the root; later ones are B&B."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            root = parent is not None and parent not in self._rooted
            if root:
                self._rooted.add(parent)
            with self.span("flownet.root_mcf" if root else "flownet.mcf") as record:
                assignment = fn(*args, **kwargs)
                record["counts"]["bound"] = assignment.total_cost
                return assignment

        return wrapper

    @contextmanager
    def instrument(self):
        """Record layer spans inside ``solve_chaining`` while the block runs."""
        generation = lambda gen: {"variants": len(gen.variants), "connections": len(gen.connections)}
        originals = {
            "generate": chainsolve.generate,
            "generate_exhaustive": chainsolve.generate_exhaustive,
            "build_network": chainsolve.build_network,
            "solve_mcf": chainsolve.solve_mcf,
        }
        chainsolve.generate = self._wrap("variantgen.generate", originals["generate"], generation)
        chainsolve.generate_exhaustive = self._wrap(
            "variantgen.exhaustive", originals["generate_exhaustive"], generation
        )
        chainsolve.build_network = self._wrap(
            "flownet.build", originals["build_network"], lambda net: {"edges": len(net.edges)}
        )
        chainsolve.solve_mcf = self._wrap_mcf(originals["solve_mcf"])
        try:
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(chainsolve, attr, fn)

    def durations(self, name: str, pass_index: int | None) -> list[float]:
        """Span lengths in seconds; pass ``None`` selects the set-up spans."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["pass"] == pass_index]

    def counts(self, name: str, key: str, pass_index: int | None) -> list[int]:
        return [s["counts"].get(key, 0) for s in self.spans if s["name"] == name and s["pass"] == pass_index]

    def write(self, path: Path, environment: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"environment": environment, "spans": self.spans}, indent=1) + "\n")


class NullTracer:
    """Stands in for ``Tracer`` where nothing may be recorded."""

    def span(self, name: str, **counts):
        return nullcontext({"counts": dict(counts)})

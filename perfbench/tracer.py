"""Spans and counters recorded around fieldlens's public entry points.

The tracer measures each layer from outside the program.  While a ``Tracer``
is active it replaces the module attributes that callers look up at call
time (the names ``fieldlens.pipeline`` calls, plus ``vm.run`` and the trace
writer and reader) with timing wrappers, and restores them on exit.  Spans
are kept in memory; the alignment scorers run hundreds of thousands of times
per pass, so they are counted and timed as aggregates instead of spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A span nested in a span of the same name
# (``load_corpus`` calling ``load_corpus_stream``) is not counted twice.
SPANS = (
    ("fieldlens.pipeline", "run_pipeline", "pipeline.run"),
    ("fieldlens.pipeline", "load_corpus", "traceio.load"),
    ("fieldlens.pipeline", "extract_format", "extraction.extract"),
    ("fieldlens.pipeline", "annotate_format", "detectors.annotate"),
    ("fieldlens.pipeline", "explore_optimal", "refinement.cluster_search"),
    ("fieldlens.pipeline", "entropy_refine", "refinement.entropy"),
    ("fieldlens.pipeline", "constraint_refine", "refinement.constraint"),
    ("fieldlens.pipeline", "load_ground_truth", "evaluation.load_truth"),
    ("fieldlens.pipeline", "score_corpus", "evaluation.score"),
    ("fieldlens.pipeline", "export_fuzz_template", "fuzz_template.export"),
    ("fieldlens.vm", "run", "vm.run"),
    ("fieldlens.traceio", "serialize_corpus", "traceio.serialize"),
    ("fieldlens.traceio", "load_corpus_stream", "traceio.load"),
)

# (module, attribute, aggregate name): where extraction and refinement look
# up the alignment scorers.
AGGREGATES = (
    ("fieldlens.extraction", "semantic_similar", "alignment"),
    ("fieldlens.refinement", "nw_format_score", "alignment"),
)


class Tracer:
    """Context manager that records spans and aggregates while active."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1), in start order
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, self._span_wrapper(name))
        for module_name, attr, name in AGGREGATES:
            self._patch(module_name, attr, self._aggregate_wrapper(name))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _span_wrapper(self, name: str):
        def make(fn):
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append((name, 0.0, 0.0, parent))
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent)

            return traced

        return make

    def _aggregate_wrapper(self, name: str):
        def make(fn):
            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - start
                    self.calls[name] += 1

            return counted

        return make

    def totals(self) -> dict[str, float]:
        """Seconds inside each span name, nested same-name spans counted once."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Each span name's time minus the time its child spans cover."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

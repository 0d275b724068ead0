"""Scoring of inferred formats and semantics against ground truth.

``MetricsReport.add_message`` scores one message straight into the corpus
tallies, counted ``weight`` times: ``pipeline.score_corpus`` scores each
distinct row of messages (format fields, annotation labels, truth) once,
weighted by the number of messages that share it.  Boundary scoring
classifies every inter-byte position of a message as TP/FP/FN/TN; a true
field is *perfect* when it was inferred exactly, as one field with its start
and its end, so a true field that is over-segmented is not perfect.
Semantic labels count as correct only on exactly matched fields.
Segmentation-error counting mirrors the boundary FP/FN split but excludes
positions inside true fields that the server never accessed.

A message's ground truth is its true fields, ``FieldAnnotation``s without
evidence in offset order.  ``traceio`` parses them; ``load_ground_truth``
only groups them by message, and the scorers take them as checked where
they were read (``reports.annotated_formats`` and ``reports.check_covers``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterable, Sequence

from .detectors import FieldAnnotation, SemanticFunction, SemanticType
from .model import FormatResult
from .traceio import serialize_ground_truth  # noqa: F401 (perfbench imports it from here)


def load_ground_truth(
    truth: Iterable[tuple[str, FieldAnnotation]]
) -> dict[str, tuple[FieldAnnotation, ...]]:
    """Each message's true fields in offset order, from the ``(message id,
    true field)`` pairs of one interchange read (``traceio.Corpus.truth``),
    where every ``gt`` line was parsed and checked.  Whether the fields
    partition their message is checked where the file is read
    (``reports.annotated_formats``)."""
    per_msg: dict[str, list[FieldAnnotation]] = {}
    for mid, ann in truth:
        per_msg.setdefault(mid, []).append(ann)
    return {mid: tuple(sorted(anns, key=_start)) for mid, anns in per_msg.items()}


def _start(ann: FieldAnnotation) -> int:
    return ann.field.start


@dataclass
class LabelCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        if self.tp + self.fp == 0:
            return 1.0 if self.fn == 0 else 0.0
        return self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        if self.tp + self.fn == 0:
            return 1.0 if self.fp == 0 else 0.0
        return self.tp / (self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def summary(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass
class FormatScore(LabelCounts):
    """Boundary-position counts (``tp, fp, fn, tn``) plus perfect fields."""

    tn: int = 0
    perfect_fields: int = 0
    true_fields: int = 0

    @property
    def positions(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.positions if self.positions else 1.0

    @property
    def perfection(self) -> float:
        return self.perfect_fields / self.true_fields if self.true_fields else 1.0

    def count(
        self, inferred: FormatResult, truth: Sequence[FieldAnnotation], weight: int = 1
    ) -> None:
        """Classify every inter-byte position of one message and count the
        true fields that were inferred exactly, ``weight`` times over.

        Only boundaries and fields are visited, so the cost does not grow
        with the length of a field: every other position is a true negative."""
        inf = set(inferred.boundaries)
        tru = {a.field.start for a in truth if a.field.start > 0}
        tp, fp, fn = len(inf & tru), len(inf - tru), len(tru - inf)
        self.tp += weight * tp
        self.fp += weight * fp
        self.fn += weight * fn
        self.tn += weight * (inferred.length - 1 - tp - fp - fn)
        self.true_fields += weight * len(truth)
        ranges = {(f.start, f.end) for f in inferred.fields}
        self.perfect_fields += weight * sum(
            (a.field.start, a.field.end) in ranges for a in truth
        )


def count_segmentation_errors(
    inferred: FormatResult, truth: Sequence[FieldAnnotation]
) -> tuple[int, int]:
    """(over_seg, under_seg) boundary errors, skipping unaccessed true fields.

    An inferred boundary is skipped when it falls after the first byte of an
    unaccessed true field; the true fields partition the message in offset
    order, so the one holding a boundary is found by bisection."""
    starts = [a.field.start for a in truth]

    def counted(pos: int) -> bool:
        f = truth[bisect_right(starts, pos) - 1].field
        return f.accessed or f.start == pos

    inf = {pos for pos in inferred.boundaries if counted(pos)}
    tru = {pos for pos in starts if pos > 0}
    return len(inf - tru), len(tru - inf)


#: each function's place in the order ``SemanticFunction`` declares them
_declaration_index = {fn: i for i, fn in enumerate(SemanticFunction)}.get


@dataclass
class LabelTally(LabelCounts):
    """One label kind's counts, each outcome kept three ways: the inherited
    ``tp/fp/fn`` over every true field, ``accessed`` over the true fields the
    server touched (a false alarm counts there on any field), and
    ``per_label`` by label name, in first-seen order, the order ``macro_f1``
    sums in; a set's functions are met in declaration order, not in the
    set's, which follows object addresses.  Each outcome is counted ``n``
    times, one per message of a row."""

    accessed: LabelCounts = dc_field(default_factory=LabelCounts)
    per_label: dict[str, LabelCounts] = dc_field(default_factory=dict)

    def hit(self, name: str, accessed: bool, n: int) -> None:
        self.tp += n
        self.per_label.setdefault(name, LabelCounts()).tp += n
        if accessed:
            self.accessed.tp += n

    def miss(self, name: str, accessed: bool, n: int) -> None:
        self.fn += n
        self.per_label.setdefault(name, LabelCounts()).fn += n
        if accessed:
            self.accessed.fn += n

    def false_alarm(self, name: str, n: int) -> None:
        self.fp += n
        self.per_label.setdefault(name, LabelCounts()).fp += n
        self.accessed.fp += n

    def to_dict(self) -> dict:
        """This label kind's block of ``metrics.json``."""
        table = self.per_label
        return {
            **self.summary(),
            "recall_accessed_only": self.accessed.recall,
            "macro_f1": sum(c.f1 for c in table.values()) / len(table) if table else 1.0,
            "per_label": {name: c.summary() for name, c in sorted(table.items())},
        }


@dataclass
class MetricsReport:
    """Corpus-level report: boundary metrics, semantics, segmentation errors."""

    format: FormatScore = dc_field(default_factory=FormatScore)
    types: LabelTally = dc_field(default_factory=LabelTally)
    functions: LabelTally = dc_field(default_factory=LabelTally)
    over_seg: int = 0
    under_seg: int = 0
    messages: int = 0

    def add_message(
        self,
        inferred: FormatResult,
        annotations: Sequence[FieldAnnotation],
        truth: Sequence[FieldAnnotation],
        weight: int = 1,
    ) -> None:
        """Score one message into the corpus tallies, as if ``weight``
        messages with the same fields, labels and truth had been scored."""
        self.format.count(inferred, truth, weight)
        self._match_labels(annotations, truth, weight)
        over, under = count_segmentation_errors(inferred, truth)
        self.over_seg += weight * over
        self.under_seg += weight * under
        self.messages += weight

    def _match_labels(
        self,
        annotations: Sequence[FieldAnnotation],
        truth: Sequence[FieldAnnotation],
        n: int,
    ) -> None:
        """Exact-boundary label matching: a prediction counts only on a field
        whose boundaries coincide with a true field's.  Every outcome counts
        ``n`` times, and a set's functions count in declaration order."""
        types, functions = self.types, self.functions
        by_range = {(a.field.start, a.field.end): a for a in annotations}
        matched: set[tuple[int, int]] = set()

        for t in truth:
            rng = (t.field.start, t.field.end)
            accessed = t.field.accessed
            ann = by_range.get(rng)
            if ann is not None:
                matched.add(rng)
            pred_type = ann.inferred_type if ann is not None else SemanticType.UNKNOWN
            if pred_type is not SemanticType.UNKNOWN and pred_type is t.inferred_type:
                types.hit(t.inferred_type.name, accessed, n)
            else:
                types.miss(t.inferred_type.name, accessed, n)
                if pred_type is not SemanticType.UNKNOWN:
                    types.false_alarm(pred_type.name, n)

            pred_funcs = ann.inferred_functions if ann is not None else frozenset()
            for fn in sorted(t.inferred_functions & pred_funcs, key=_declaration_index):
                functions.hit(fn.name, accessed, n)
            for fn in sorted(t.inferred_functions - pred_funcs, key=_declaration_index):
                functions.miss(fn.name, accessed, n)
            for fn in sorted(pred_funcs - t.inferred_functions, key=_declaration_index):
                functions.false_alarm(fn.name, n)

        for rng, ann in by_range.items():
            if rng in matched:
                continue
            if ann.inferred_type is not SemanticType.UNKNOWN:
                types.false_alarm(ann.inferred_type.name, n)
            for fn in sorted(ann.inferred_functions, key=_declaration_index):
                functions.false_alarm(fn.name, n)

    def to_dict(self) -> dict:
        fmt = self.format
        return {
            "messages": self.messages,
            "format": {
                **asdict(fmt),
                **fmt.summary(),
                "accuracy": fmt.accuracy,
                "perfection": fmt.perfection,
            },
            "segmentation_errors": {
                "over": self.over_seg,
                "under": self.under_seg,
                "total": self.over_seg + self.under_seg,
            },
            "semantics": {
                "type": self.types.to_dict(),
                "function": self.functions.to_dict(),
            },
        }

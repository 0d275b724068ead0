"""Scoring of inferred formats and semantics against ground truth.

Boundary scoring classifies every inter-byte position of a message as
TP/FP/FN/TN; a true field is *perfect* when it was inferred exactly, as one
field with its start and its end, so a true field that is over-segmented is
not perfect.  Semantic labels count as correct only on exactly matched
fields.  Segmentation-error counting mirrors the boundary FP/FN split but
excludes positions inside true fields that the server never accessed.

A message's ground truth is its true fields, ``FieldAnnotation``s without
evidence in offset order.  ``traceio`` parses them; ``load_ground_truth``
only groups them by message, and the scorers take them as checked where
they were read (``reports.annotated_formats`` and ``reports.check_covers``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterable, Sequence

from .detectors import FieldAnnotation, SemanticType
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

    def add(self, other: "LabelCounts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn


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

    def add(self, other: "FormatScore") -> None:
        super().add(other)
        self.tn += other.tn
        self.perfect_fields += other.perfect_fields
        self.true_fields += other.true_fields


def score_format(
    inferred: FormatResult, truth: Sequence[FieldAnnotation]
) -> FormatScore:
    """Classify every inter-byte position and count the true fields that
    were inferred exactly.

    Only boundaries and fields are visited, so the cost does not grow with
    the length of a field: every other position is a true negative."""
    inf = set(inferred.boundaries)
    tru = {a.field.start for a in truth if a.field.start > 0}
    score = FormatScore(tp=len(inf & tru), fp=len(inf - tru), fn=len(tru - inf))
    score.tn = inferred.length - 1 - score.tp - score.fp - score.fn
    score.true_fields = len(truth)
    ranges = {(f.start, f.end) for f in inferred.fields}
    score.perfect_fields = sum((a.field.start, a.field.end) in ranges for a in truth)
    return score


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


@dataclass
class LabelTally(LabelCounts):
    """One label kind's counts, each outcome kept three ways: the inherited
    ``tp/fp/fn`` over every true field, ``accessed`` over the true fields the
    server touched (a false alarm counts there on any field), and
    ``per_label`` by label name, in first-seen order, the order ``macro_f1``
    sums in."""

    accessed: LabelCounts = dc_field(default_factory=LabelCounts)
    per_label: dict[str, LabelCounts] = dc_field(default_factory=dict)

    def hit(self, name: str, accessed: bool) -> None:
        self.tp += 1
        self.per_label.setdefault(name, LabelCounts()).tp += 1
        if accessed:
            self.accessed.tp += 1

    def miss(self, name: str, accessed: bool) -> None:
        self.fn += 1
        self.per_label.setdefault(name, LabelCounts()).fn += 1
        if accessed:
            self.accessed.fn += 1

    def false_alarm(self, name: str) -> None:
        self.fp += 1
        self.per_label.setdefault(name, LabelCounts()).fp += 1
        self.accessed.fp += 1

    def add(self, other: "LabelTally") -> None:
        super().add(other)
        self.accessed.add(other.accessed)
        for name, counts in other.per_label.items():
            self.per_label.setdefault(name, LabelCounts()).add(counts)

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
class SemanticScore:
    """The type and function tallies of one message or of a corpus."""

    types: LabelTally = dc_field(default_factory=LabelTally)
    functions: LabelTally = dc_field(default_factory=LabelTally)

    def add(self, other: "SemanticScore") -> None:
        self.types.add(other.types)
        self.functions.add(other.functions)


def score_semantics(
    annotations: Sequence[FieldAnnotation], truth: Sequence[FieldAnnotation]
) -> SemanticScore:
    """Exact-boundary label matching: a prediction counts only on a field
    whose boundaries coincide with a true field's."""
    score = SemanticScore()
    types, functions = score.types, score.functions
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
            types.hit(t.inferred_type.name, accessed)
        else:
            types.miss(t.inferred_type.name, accessed)
            if pred_type is not SemanticType.UNKNOWN:
                types.false_alarm(pred_type.name)

        pred_funcs = ann.inferred_functions if ann is not None else frozenset()
        for fn in t.inferred_functions & pred_funcs:
            functions.hit(fn.name, accessed)
        for fn in t.inferred_functions - pred_funcs:
            functions.miss(fn.name, accessed)
        for fn in pred_funcs - t.inferred_functions:
            functions.false_alarm(fn.name)

    for rng, ann in by_range.items():
        if rng in matched:
            continue
        if ann.inferred_type is not SemanticType.UNKNOWN:
            types.false_alarm(ann.inferred_type.name)
        for fn in ann.inferred_functions:
            functions.false_alarm(fn.name)
    return score


@dataclass
class MetricsReport:
    """Corpus-level report: boundary metrics, semantics, segmentation errors."""

    format: FormatScore = dc_field(default_factory=FormatScore)
    semantics: SemanticScore = dc_field(default_factory=SemanticScore)
    over_seg: int = 0
    under_seg: int = 0
    messages: int = 0

    def add_message(
        self, fmt_score: FormatScore, sem_score: SemanticScore, seg: tuple[int, int]
    ) -> None:
        self.format.add(fmt_score)
        self.semantics.add(sem_score)
        self.over_seg += seg[0]
        self.under_seg += seg[1]
        self.messages += 1

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
                "type": self.semantics.types.to_dict(),
                "function": self.semantics.functions.to_dict(),
            },
        }

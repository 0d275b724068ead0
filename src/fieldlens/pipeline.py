"""Pipeline orchestration: trace ingestion through scoring, with ablations.

``run_pipeline`` wires the stages together and hands their results to
``reports``, which owns every JSON document.  Every stage can be toggled
independently (baseline extraction, no clustering, no entropy refinement, no
constraint refinement) to reproduce the ablation configurations.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from .detectors import FieldAnnotation, FieldMemo, annotate_format
from .evaluation import MetricsReport, load_ground_truth
from .extraction import MergeMemo, extract_format, extract_format_baseline
from .fuzz_template import export_fuzz_template
from .model import ExecutionTrace, FormatResult, Message, Shape, traces_by_id
from .refinement import (
    Clustering,
    RefinementEvent,
    constraint_refine,
    entropy_refine,
    explore_optimal,
    single_cluster,
)
from .reports import (
    annotations_to_doc,
    audit_to_doc,
    check_covers,
    clustering_to_dict,
    formats_to_doc,
    write_json,
)
from .traceio import IntegrityError, ParseError, load_corpus


@dataclass(frozen=True)
class PipelineConfig:
    traces: Path
    out_dir: Path
    ground_truth: Optional[Path] = None
    baseline: bool = False
    clustering_enabled: bool = True
    entropy_enabled: bool = True
    constraints_enabled: bool = True
    disabled_rules: frozenset[str] = frozenset()


@dataclass
class PipelineResult:
    messages: dict[str, Message]
    traces: dict[str, ExecutionTrace]
    formats: dict[str, FormatResult]
    annotations: dict[str, tuple[FieldAnnotation, ...]]
    clustering: Optional[Clustering]
    audit: list[RefinementEvent]
    metrics: Optional[MetricsReport]


def infer_corpus(
    shapes: Sequence[Shape],
    baseline: bool = False,
    disabled_rules: frozenset[str] = frozenset(),
) -> tuple[dict[str, FormatResult], dict[str, tuple[FieldAnnotation, ...]]]:
    """Each message's format and detector annotations, by message id.

    The messages of one shape were handled by the same instructions, so
    its format is extracted once, from its first message, and every one of
    its messages gets those fields.  Each (shape, field) is looked up and
    run through every rule's trace part once, in one detector memo per
    shape.  The byte parts that the trace leaves open (delim's edge bytes,
    filename's field bytes) run once per distinct bytes they read, and a
    field with none open gets one annotation for all its messages
    (``detectors.Structure``).  Each distinct operator-sequence pair is
    aligned once.  All of these memos live for this call only.
    """
    formats: dict[str, FormatResult] = {}
    annotations: dict[str, tuple[FieldAnnotation, ...]] = {}
    merges: MergeMemo = {}
    for trace, messages in shapes:
        if baseline:
            fields = extract_format_baseline(messages[0], trace).fields
        else:
            fields = extract_format(messages[0], trace, memo=merges).fields
        memo: FieldMemo = {}
        for msg in messages:
            fmt = formats[msg.id] = FormatResult(msg.id, len(msg), fields)
            annotations[msg.id] = annotate_format(fmt, trace, msg, disabled_rules, memo=memo)
    return formats, annotations


def refine_corpus(
    messages: Sequence[Message],
    formats: Mapping[str, FormatResult],
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    clustering_enabled: bool = True,
    entropy_enabled: bool = True,
    constraints_enabled: bool = True,
) -> tuple[Clustering, dict[str, tuple[FieldAnnotation, ...]], list[RefinementEvent]]:
    if clustering_enabled:
        clustering = explore_optimal(messages, formats)
    else:
        clustering = single_cluster(messages)
    refined = {mid: tuple(anns) for mid, anns in annotations.items()}
    events: list[RefinementEvent] = []
    msg_map = {m.id: m for m in messages}
    if entropy_enabled:
        refined, ev = entropy_refine(refined, clustering, msg_map)
        events.extend(ev)
    if constraints_enabled:
        refined, ev = constraint_refine(refined, clustering)
        events.extend(ev)
    return clustering, refined, events


def score_corpus(
    formats: Mapping[str, FormatResult],
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    truths: Mapping[str, Sequence[FieldAnnotation]],
) -> MetricsReport:
    """Metrics of every message in ``formats``; ``truths`` was checked where
    it was read.

    Scoring reads a message's format fields, each annotation's field, type
    and functions (not its evidence) and its truth, so messages equal in all
    of these are one row.  Each row is scored once, weighted by its number of
    messages, in the id order of its first message: the label tallies then
    meet their labels in the order that scoring message by message would,
    and ``macro_f1`` sums in that order.  Row keys hash and compare in C,
    and the rows live for this call only.
    """
    rows: dict[tuple, list] = {}  # key -> [format, annotations, truth, messages]
    for mid in sorted(formats):
        fmt, anns, truth = formats[mid], annotations[mid], tuple(truths[mid])
        labels = tuple((a.field, a.inferred_type, a.inferred_functions) for a in anns)
        row = rows.get((fmt.fields, labels, truth))
        if row is None:
            row = rows[fmt.fields, labels, truth] = [fmt, anns, truth, 0]
        row[3] += 1
    report = MetricsReport()
    for fmt, anns, truth, weight in rows.values():
        report.add_message(fmt, anns, truth, weight)
    return report


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Prefix a parse or integrity error raised inside with ``path``."""
    try:
        yield
    except (ParseError, IntegrityError) as exc:
        raise IntegrityError(None, f"{path}: {exc}") from None


def read_ground_truth(path: Path) -> dict[str, tuple[FieldAnnotation, ...]]:
    """The true fields of ``path`` by message id, not yet checked against
    any messages.  Unlike a traces file, a ground-truth file may hold ``gt``
    lines alone."""
    with _naming(path):
        return load_ground_truth(load_corpus(path).truth)


def read_inputs(
    traces: Path, ground_truth: Optional[Path] = None
) -> tuple[list[Message], list[Shape], Optional[dict[str, tuple[FieldAnnotation, ...]]]]:
    """The messages of ``traces`` in file order, its shapes (each distinct
    message length and trace, with the messages that carry it) and, given
    a ``ground_truth`` file, its true fields by message id.

    This and ``read_ground_truth`` are where every command reads its
    interchange files, so they are where a parse or integrity error in one
    of them is prefixed with the file's name.  A traces file without a
    ``msg`` line is an error, and so is ground truth whose fields do not
    partition each message of ``traces`` and no other.  When
    ``ground_truth`` is ``traces``, both come from one read."""
    truths = None
    with _naming(traces):
        messages, shapes, true_fields = load_corpus(traces)
        if not messages:
            raise IntegrityError(None, "no msg line, so there are no messages to analyse")
        if ground_truth == traces:
            truths = load_ground_truth(true_fields)
    if ground_truth is not None:
        if ground_truth != traces:
            truths = read_ground_truth(ground_truth)
        check_covers({m.id: len(m) for m in messages}, str(ground_truth), truths)
    return messages, shapes, truths


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute ingest -> extract -> infer -> refine -> score and write reports.

    Ground truth is read and checked before extraction."""
    messages, shapes, truths = read_inputs(config.traces, config.ground_truth)
    formats, annotations = infer_corpus(shapes, config.baseline, config.disabled_rules)
    clustering, refined, events = refine_corpus(
        messages,
        formats,
        annotations,
        config.clustering_enabled,
        config.entropy_enabled,
        config.constraints_enabled,
    )

    metrics: Optional[MetricsReport] = None
    if truths is not None:
        metrics = score_corpus(formats, refined, truths)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "formats.json", formats_to_doc(messages, formats))
    write_json(out / "annotations.json", annotations_to_doc(refined))
    write_json(out / "clustering.json", clustering_to_dict(clustering))
    write_json(out / "refinement_audit.json", audit_to_doc(events))
    if metrics is not None:
        write_json(out / "metrics.json", metrics.to_dict())
    msg_map = {m.id: m for m in messages}
    traces = traces_by_id(shapes)
    export_fuzz_template(refined, msg_map, traces, out / "template.json")

    return PipelineResult(
        messages=msg_map,
        traces=traces,
        formats=formats,
        annotations=refined,
        clustering=clustering,
        audit=events,
        metrics=metrics,
    )

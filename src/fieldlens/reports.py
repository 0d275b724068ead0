"""The JSON documents the stages pass to each other, and the checks between them.

``write_json`` writes every document (sorted keys, two-space indent, final
newline); ``read_json`` reads every stage input, and a file that is not JSON
or not of the expected shape, down to the type of each scalar, is an
``IntegrityError`` naming the file.

- ``formats.json``: a list in corpus order of ``{message_id, length, fields,
  boundaries}``, each field ``{start, end, accessed}`` (``formats_to_doc``,
  ``formats_from_doc``).
- ``annotations.json``: message id -> fields in offset order, each ``{start,
  end, accessed, type, functions, evidence}`` (``annotations_to_doc``,
  ``annotations_from_doc``).
- ``clustering.json``: the command-position search (``clustering_to_dict``).
- ``refinement_audit.json``: the refinement events in order (``audit_to_doc``).
- ``metrics.json`` and ``template.json``: built by ``MetricsReport.to_dict``
  and ``fuzz_template.build_template``; nothing reads them back.

At each hand-off, ``check_covers`` requires a document's message ids and
lengths to be the corpus's, and ``check_partitions`` requires each message's
annotated fields to be exactly its format's fields.  Ground truth is checked
as annotations: ``annotated_formats`` requires its fields to partition each
message, and ``check_covers`` its ids and lengths.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .detectors import Evidence, FieldAnnotation, SemanticFunction, SemanticType
from .model import Field, FormatResult, Message, ModelError
from .refinement import Clustering, RefinementEvent
from .traceio import IntegrityError


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON with sorted keys, two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, convert):
    """``convert`` of the JSON document in ``path``; a document that is not
    JSON or not of the shape ``convert`` expects is an IntegrityError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(
            None, f"{path}: malformed document ({type(exc).__name__}: {exc})"
        ) from None


def format_to_dict(fmt: FormatResult) -> dict:
    return {
        "message_id": fmt.message_id,
        "length": fmt.length,
        "fields": [
            {"start": f.start, "end": f.end, "accessed": f.accessed}
            for f in fmt.fields
        ],
        "boundaries": list(fmt.boundaries),
    }


def _typed(value, *kinds: type):
    """``value`` if its type is exactly one of ``kinds`` (``1.0`` and ``True``
    equal ``1``, but neither is an offset), else a TypeError."""
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def _field_from_dict(doc: dict) -> Field:
    return Field(
        _typed(doc["start"], int), _typed(doc["end"], int), _typed(doc["accessed"], bool)
    )


def format_from_dict(doc: dict) -> FormatResult:
    return FormatResult(
        _typed(doc["message_id"], str),
        _typed(doc["length"], int),
        tuple(_field_from_dict(f) for f in doc["fields"]),
    )


def formats_to_doc(
    messages: Sequence[Message], formats: Mapping[str, FormatResult]
) -> list[dict]:
    return [format_to_dict(formats[m.id]) for m in messages]


def formats_from_doc(doc: list) -> dict[str, FormatResult]:
    return {d["message_id"]: format_from_dict(d) for d in doc}


def annotation_to_dict(ann: FieldAnnotation) -> dict:
    return {
        "start": ann.field.start,
        "end": ann.field.end,
        "accessed": ann.field.accessed,
        "type": ann.inferred_type.name,
        "functions": sorted(fn.name for fn in ann.inferred_functions),
        "evidence": [
            {"rule": e.rule, "seq": e.seq, "note": e.note} for e in ann.evidence
        ],
    }


def annotation_from_dict(doc: dict) -> FieldAnnotation:
    return FieldAnnotation(
        _field_from_dict(doc),
        SemanticType[doc["type"]],
        frozenset(SemanticFunction[name] for name in doc["functions"]),
        tuple(
            Evidence(_typed(e["rule"], str), _typed(e["seq"], int, type(None)),
                     _typed(e["note"], str))
            for e in doc["evidence"]
        ),
    )


def annotations_to_doc(
    annotations: Mapping[str, Sequence[FieldAnnotation]]
) -> dict:
    return {
        mid: [annotation_to_dict(a) for a in anns]
        for mid, anns in sorted(annotations.items())
    }


def annotations_from_doc(doc: dict) -> dict[str, tuple[FieldAnnotation, ...]]:
    return {
        mid: tuple(annotation_from_dict(a) for a in anns)
        for mid, anns in doc.items()
    }


def clustering_to_dict(clustering: Clustering) -> dict:
    return {
        "command_pos": list(clustering.command_pos)
        if clustering.command_pos
        else None,
        "align_score": clustering.align_score,
        "degenerate": clustering.degenerate,
        "clusters": [
            {"value": value.hex(), "messages": list(ids)}
            for value, ids in clustering.clusters
        ],
    }


def audit_to_doc(events: Sequence[RefinementEvent]) -> list[dict]:
    return [
        {
            "message_id": e.message_id,
            "field": list(e.field),
            "action": e.action,
            "label": e.label,
            "reason": e.reason,
            "entropy": e.entropy,
            "median": e.median,
        }
        for e in events
    ]


def _check_match(what: str, expected: Mapping, found: Mapping, facts: str) -> None:
    bad = sorted(
        mid
        for mid in expected.keys() | found.keys()
        if expected.get(mid) != found.get(mid)
    )
    if bad:
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise IntegrityError(
            None, f"{what} does not match {facts}: {', '.join(bad[:5])}{more}"
        )


def check_covers(
    lengths: Mapping[str, int], what: str, formats: Mapping[str, FormatResult]
) -> None:
    """Raise IntegrityError unless ``formats`` (read from ``what``) has
    exactly the message ids of ``lengths``, each of its length."""
    _check_match(
        what,
        lengths,
        {mid: f.length for mid, f in formats.items()},
        "the corpus's message ids and lengths",
    )


def annotated_formats(
    what: str, annotations: Mapping[str, Sequence[FieldAnnotation]]
) -> dict[str, FormatResult]:
    """The format each message's annotated fields make, read from ``what``;
    an IntegrityError unless they partition [0, end of the last field)."""
    try:
        return {
            mid: FormatResult(
                mid,
                anns[-1].field.end + 1 if anns else 0,
                tuple(a.field for a in anns),
            )
            for mid, anns in annotations.items()
        }
    except ModelError as exc:
        raise IntegrityError(None, f"{what}: {exc}") from None


def check_partitions(
    formats: Mapping[str, FormatResult],
    what: str,
    annotations: Mapping[str, Sequence[FieldAnnotation]],
) -> None:
    """Raise IntegrityError unless the fields annotated in ``what`` are, for
    every message and only those, exactly the fields of ``formats``."""
    _check_match(
        what,
        formats,
        annotated_formats(what, annotations),
        "the formats' message ids and field ranges",
    )

"""The JSON documents the stages write, and the checks on those they read.

``write_json`` writes every document (sorted keys, two-space indent, final
newline); ``read_json`` reads every stage input, and a file that is not JSON
or not of the expected shape, down to the type of each scalar, is an
``IntegrityError`` naming the file.

- ``annotations.json``: message id -> fields in offset order, each ``{start,
  end, accessed, type, functions, evidence}`` (``annotations_to_doc``,
  ``annotations_from_doc``).  It is the one document a later stage reads.
- ``formats.json``: a list in corpus order of ``{message_id, length, fields,
  boundaries}``, each field ``{start, end, accessed}`` (``formats_to_doc``).
- ``clustering.json``: the command-position search (``clustering_to_dict``).
- ``refinement_audit.json``: the refinement events in order (``audit_to_doc``).
- ``metrics.json`` and ``template.json``: built by ``MetricsReport.to_dict``
  and ``fuzz_template.build_template``.

Only ``annotations.json`` is read back.  A stage that reads it gets each
message's format through ``annotated_formats``, which requires the fields to
partition the message, and ``check_covers`` requires the message ids and
lengths to be the corpus's.  Ground truth is checked in the same way.
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
    JSON, nests too deeply to parse or is not of the shape ``convert``
    expects is an IntegrityError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
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


def formats_to_doc(
    messages: Sequence[Message], formats: Mapping[str, FormatResult]
) -> list[dict]:
    return [format_to_dict(formats[m.id]) for m in messages]


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


def check_covers(
    lengths: Mapping[str, int],
    what: str,
    annotations: Mapping[str, Sequence[FieldAnnotation]],
) -> dict[str, FormatResult]:
    """The ``annotated_formats`` of ``annotations`` (read from ``what``); an
    IntegrityError unless they have exactly the message ids of ``lengths``,
    each of its length."""
    formats = annotated_formats(what, annotations)
    found = {mid: f.length for mid, f in formats.items()}
    bad = sorted(
        mid for mid in lengths.keys() | found.keys() if lengths.get(mid) != found.get(mid)
    )
    if bad:
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise IntegrityError(
            None,
            f"{what} does not match the corpus's message ids and lengths: "
            f"{', '.join(bad[:5])}{more}",
        )
    return formats

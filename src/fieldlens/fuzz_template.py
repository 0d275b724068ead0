"""Export final annotations as a generic generation-fuzzer template.

The template is plain JSON: one entry per field with its byte range, the
inferred type and functions, and a ``kind`` a template-driven fuzzer can map
onto its primitives.  Fields we could not classify become ``random`` entries
that keep their boundaries.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .detectors import FieldAnnotation, SemanticFunction, SemanticType
from .model import Message
from .reports import write_json

_TYPE_KINDS = {
    SemanticType.STATIC: "static",
    SemanticType.INTEGER: "integer",
    SemanticType.GROUP: "group",
    SemanticType.BYTES: "bytes",
    SemanticType.STRING: "string",
    SemanticType.UNKNOWN: "random",
}


def _entry(
    ann: FieldAnnotation,
    message: Message,
    group_values: Mapping[tuple[int, int], list[str]],
) -> dict:
    f = ann.field
    rng = (f.start, f.end)
    value = message.data[f.start : f.end + 1]
    funcs = sorted(fn.name for fn in ann.inferred_functions)
    entry: dict = {
        "start": f.start,
        "end": f.end,
        "type": ann.inferred_type.name,
        "functions": funcs,
    }
    if SemanticFunction.LENGTH in ann.inferred_functions:
        entry["kind"] = "size-of"
        entry["of"] = {"start": f.end + 1, "end": len(message) - 1}
    elif SemanticFunction.CHECKSUM in ann.inferred_functions:
        entry["kind"] = "checksum"
    elif SemanticFunction.FILENAME in ann.inferred_functions:
        entry["kind"] = "filename"
    elif SemanticFunction.DELIM in ann.inferred_functions:
        entry["kind"] = "delim"
        entry["value"] = value.hex()
    else:
        entry["kind"] = _TYPE_KINDS[ann.inferred_type]
    if entry["kind"] == "static":
        entry["value"] = value.hex()
    elif entry["kind"] == "group":
        entry["values"] = group_values.get(rng, [value.hex()])
    return entry


def build_template(
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    messages: Mapping[str, Message],
) -> dict:
    """Template document for every annotated message."""
    # group fields enumerate the distinct values observed across the corpus
    observed: dict[tuple[int, int], set[bytes]] = {}
    for mid, anns in annotations.items():
        data = messages[mid].data
        for ann in anns:
            if ann.inferred_type is SemanticType.GROUP:
                f = ann.field
                observed.setdefault((f.start, f.end), set()).add(data[f.start : f.end + 1])
    group_values = {rng: sorted(v.hex() for v in values) for rng, values in observed.items()}

    # with group_values complete, an entry depends only on its annotation,
    # its bytes and the message length, so equal ones are one shared dict
    entries: dict[tuple[FieldAnnotation, bytes, int], dict] = {}

    def entry(ann: FieldAnnotation, msg: Message) -> dict:
        key = (ann, msg.data[ann.field.start : ann.field.end + 1], len(msg))
        if key not in entries:
            entries[key] = _entry(ann, msg, group_values)
        return entries[key]

    docs = []
    for mid in sorted(annotations):
        msg = messages[mid]
        docs.append(
            {
                "id": mid,
                "length": len(msg),
                "fields": [entry(ann, msg) for ann in annotations[mid]],
            }
        )
    return {"format": "fieldlens-fuzz-template", "version": 1, "messages": docs}


def export_fuzz_template(
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    messages: Mapping[str, Message],
    path,
) -> None:
    write_json(path, build_template(annotations, messages))

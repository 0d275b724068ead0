"""Export final annotations as a generic generation-fuzzer template.

The template is plain JSON, version 2::

    {"format": "fieldlens-fuzz-template", "version": 2,
     "formats": [{"length": N, "fields": [entry, ...], "messages": [id, ...]}]}

A format is one distinct list of field entries with the sorted ids of the
messages it describes.  Every message id is in exactly one format, formats
are ordered by their first id, and a format's ``length`` is its last
field's ``end + 1``.  An entry holds a field's byte range, its inferred
type and functions, and a ``kind`` a template-driven fuzzer can map onto
its primitives:

- ``static`` and ``delim`` carry the field's bytes in hex as ``value``;
- ``group`` carries ``values``, the sorted hex of every value the corpus
  holds at that byte range;
- ``size-of`` carries ``of``, the range it counts: from the byte after the
  field to the end of the message;
- ``checksum`` carries ``of``, the range of the bytes its compared value
  was accumulated from.  That is the side of the compare record named by
  the ``func.checksum`` evidence whose lineage does not touch the field.
  A lineage of several runs is written as one range from its first offset
  to its last.  ``of`` is left out when the message's trace has no such
  record;
- ``filename``, ``integer``, ``bytes``, ``string`` and ``random`` (a field
  no rule classified) carry nothing more.

Two messages share a format when their entries are equal, so an entry is
keyed by what it writes and nothing more: the range, type and functions,
plus the bytes for ``static`` and ``delim``, the message length for
``size-of`` and the covered range for ``checksum``.  Equal keys share one
entry dict, and messages with equal keys share one format.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Mapping, Optional, Sequence

from .detectors import LIBRARY, FieldAnnotation, SemanticFunction, SemanticType, accumulated_side
from .model import ExecutionTrace, Message
from .reports import write_json

_TYPE_KINDS = {
    SemanticType.STATIC: "static",
    SemanticType.INTEGER: "integer",
    SemanticType.GROUP: "group",
    SemanticType.BYTES: "bytes",
    SemanticType.STRING: "string",
    SemanticType.UNKNOWN: "random",
}

_CHECKSUM_RULE = next(r.id for r in LIBRARY if r.label is SemanticFunction.CHECKSUM)
_seq = attrgetter("seq")


def _kind(ann: FieldAnnotation) -> str:
    funcs = ann.inferred_functions
    if SemanticFunction.LENGTH in funcs:
        return "size-of"
    if SemanticFunction.CHECKSUM in funcs:
        return "checksum"
    if SemanticFunction.FILENAME in funcs:
        return "filename"
    if SemanticFunction.DELIM in funcs:
        return "delim"
    return _TYPE_KINDS[ann.inferred_type]


def _checksum_range(
    ann: FieldAnnotation, trace: Optional[ExecutionTrace]
) -> Optional[tuple[int, int]]:
    """The first and last offset of the lineage that the checksum field
    ``ann`` was compared against, or None when ``trace`` has no compare
    record with a lineage at the seq that its checksum evidence names."""
    seqs = [e.seq for e in ann.evidence if e.rule == _CHECKSUM_RULE and e.seq is not None]
    if trace is None or not seqs:
        return None
    records = trace.records
    i = bisect_left(records, seqs[0], key=_seq)
    if i == len(records) or records[i].seq != seqs[0] or records[i].operand_lineage is None:
        return None
    other = accumulated_side(records[i].operand_lineage, ann.field)
    return (other[0][0], other[-1][1]) if other else None


def _entry(ann: FieldAnnotation, kind: str, written, group_values) -> dict:
    """The entry of ``ann``, whose kind-specific part is ``written``."""
    f = ann.field
    entry: dict = {
        "start": f.start,
        "end": f.end,
        "type": ann.inferred_type.name,
        "functions": sorted(fn.name for fn in ann.inferred_functions),
        "kind": kind,
    }
    if kind in ("static", "delim"):
        entry["value"] = written.hex()
    elif kind == "group":
        entry["values"] = group_values.setdefault((f.start, f.end), [])
    elif kind == "size-of":
        entry["of"] = {"start": f.end + 1, "end": written - 1}
    elif kind == "checksum" and written is not None:
        entry["of"] = {"start": written[0], "end": written[1]}
    return entry


def build_template(
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    messages: Mapping[str, Message],
    traces: Mapping[str, ExecutionTrace],
) -> dict:
    """Template document for every annotated message; a message without a
    trace in ``traces`` gets no checksum ``of``."""
    # A group entry's ``values`` is one list per byte range, shared by every
    # entry of that range and filled after the walk from ``observed``, the
    # values that every GROUP-typed field of that range holds in the corpus.
    observed: dict[tuple[int, int], set[bytes]] = {}
    group_values: dict[tuple[int, int], list[str]] = {}

    # An entry is numbered by its key: the number of its range, type and
    # functions, and what its kind writes from the message.  A format is
    # keyed by its length and its entries' numbers.
    kinds: dict[FieldAnnotation, tuple[str, int]] = {}
    shared: dict[tuple, int] = {}
    numbers: dict[tuple, int] = {}
    entries: list[dict] = []
    formats: dict[tuple[int, ...], dict] = {}
    for mid in sorted(annotations):
        msg = messages[mid]
        key = [len(msg)]
        for ann in annotations[mid]:
            f = ann.field
            if ann.inferred_type is SemanticType.GROUP:
                observed.setdefault((f.start, f.end), set()).add(msg.data[f.start : f.end + 1])
            got = kinds.get(ann)
            if got is None:
                ranged = (f.start, f.end, ann.inferred_type, ann.inferred_functions)
                got = kinds[ann] = (_kind(ann), shared.setdefault(ranged, len(shared)))
            kind, number = got
            if kind in ("static", "delim"):
                written = msg.data[f.start : f.end + 1]
            elif kind == "size-of":
                written = len(msg)
            elif kind == "checksum":
                written = _checksum_range(ann, traces.get(mid))
            else:
                written = None
            n = numbers.setdefault((number, written), len(entries))
            if n == len(entries):
                entries.append(_entry(ann, kind, written, group_values))
            key.append(n)
        fmt = formats.get(key := tuple(key))
        if fmt is None:
            fields = [entries[n] for n in key[1:]]
            fmt = formats[key] = {"length": len(msg), "fields": fields, "messages": []}
        fmt["messages"].append(mid)
    for rng, values in group_values.items():
        values.extend(sorted(v.hex() for v in observed[rng]))
    return {"format": "fieldlens-fuzz-template", "version": 2, "formats": list(formats.values())}


def export_fuzz_template(
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    messages: Mapping[str, Message],
    traces: Mapping[str, ExecutionTrace],
    path,
) -> None:
    write_json(path, build_template(annotations, messages, traces))

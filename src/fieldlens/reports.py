"""The JSON documents the stages write, and the checks on those they read.

``write_text`` is the one function that writes a file, and ``write_json``
writes every document through it: ``encode`` gives the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, and a final newline follows.
``encode`` builds the whole text before the file is opened, so a document
that cannot be encoded leaves the file untouched.  An existing file is
rewritten in place and then trimmed to the new length, never truncated
first: on ext4 (unless mounted ``noauto_da_alloc``) truncating a file and
rewriting it starts writeback of the new data, and the next run's truncate
of that file waits for that I/O, so back-to-back runs into one directory
stalled on each other.  A reader mid-write can briefly see new bytes
followed by old ones, as it could see a short file before.
``encode`` writes each container at the depth where it sits, already
indented, and encodes a container object at most twice per depth, however
often the document holds it, so the converters below share one object per
distinct model value: one annotation dict per distinct ``FieldAnnotation``
and one list per distinct annotation tuple.  ``formats_to_doc`` and
``fuzz_template`` write one entry per distinct format, and the template one
entry dict per distinct field entry.  Every such memo is keyed by value:
equal model values give equal reports, because ``Field`` equality includes
``accessed``, and fields, formats, annotations and evidence are tuples that
hash and compare in C.  Only ``encode``, whose dicts and lists cannot be
hashed, keys by ``id()``.  A shared object is never changed after it is
handed out.
``read_json`` reads every stage input, and a file that is not JSON or not of
the expected shape, down to the type of each scalar, is an
``IntegrityError`` naming the file.

- ``annotations.json``: message id -> fields in offset order, each ``{start,
  end, accessed, type, functions, evidence}`` (``annotations_to_doc``,
  ``annotations_from_doc``).  It is the one document a later stage reads.
- ``formats.json``: version 2, ``{format, version, formats}``, one entry per
  distinct format, each ``{length, fields, boundaries, messages}`` with each
  field ``{start, end, accessed}`` and the sorted ids of the format's
  messages; entries are ordered by their first id (``formats_to_doc``).
- ``clustering.json``: the command-position search (``clustering_to_dict``).
- ``refinement_audit.json``: version 2, ``{format, version, decisions}``, one
  decision per distinct refinement event, each ``{field, action, label,
  reason, entropy, median, messages}`` with the sorted ids of the messages it
  applies to (``audit_to_doc``).
- ``metrics.json``: built by ``MetricsReport.to_dict``.
- ``template.json``: version 2, one entry per format with the ids of the
  messages it covers (``fuzz_template.build_template``).

Only ``annotations.json`` is read back.  A stage that reads it gets each
message's format through ``annotated_formats``, which requires the fields to
partition the message, and ``check_covers`` requires the message ids and
lengths to be the corpus's.  Ground truth is checked in the same way.
"""

from __future__ import annotations

import json
import os
import stat
from typing import Mapping, Sequence

from .detectors import Evidence, FieldAnnotation, SemanticFunction, SemanticType
from .model import Field, FormatResult, ModelError
from .refinement import Clustering, RefinementEvent
from .traceio import IntegrityError


_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(o: float) -> str:
    text = float.__repr__(o)
    return _NON_FINITE.get(text, text)


#: The text of a scalar of exactly one of these types
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    float: _float,
    bool: ("false", "true").__getitem__,
    type(None): lambda o: "null",
}


def _subclass(o) -> str:
    """The text of a ``str``, ``int`` or ``float`` subclass, as ``json.dumps``
    writes it; any other non-container value is a TypeError."""
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def encode(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, encoding a ``dict``,
    ``list`` or ``tuple`` object at most twice per depth however often
    ``doc`` holds it.

    Each container is encoded once at the depth where it sits, so its text
    is indented as it will be written and never copied to indent it again.
    The second time a container is met at one depth, its text goes into
    that depth's memo, keyed by ``id()`` for this call only, and later
    meetings there reuse it; the text of a container met once is not kept
    past its parent's.  An id names one object only while that object is
    alive, and every container stays reachable from ``doc`` until the call
    returns, so no id is reused within it.  A scalar of exactly ``str``,
    ``int``, ``float``, ``bool`` or ``None`` type is written by one lookup
    on its type; a subclass of one of those or of a container takes the
    ``isinstance`` path and is written as ``json.dumps`` writes it.  A key
    that is not a ``str``, or a value that is not a JSON value (``bytes``,
    say), is a TypeError.
    """
    memos: list[dict[int, str]] = []  # memos[depth]: id -> text at that depth
    seens: list[set[int]] = []
    indents = ["\n"]  # indents[depth]: a newline and that depth's indent
    scalar = _SCALARS.get

    def enc(o, depth: int) -> str:
        if not isinstance(o, (dict, list, tuple)):
            return _subclass(o)
        if depth == len(memos):
            memos.append({})
            seens.append(set())
            indents.append(indents[-1] + "  ")
        memo = memos[depth]
        text = memo.get(id(o))
        if text is not None:
            return text
        inner = depth + 1
        if isinstance(o, dict):
            # a key that is not a str fails to sort or to escape
            parts = [
                _escape(k) + ": " + (f(v) if (f := scalar(type(v))) else enc(v, inner))
                for k in sorted(o)
                for v in (o[k],)
            ]
            opening, closing = "{", "}"
        else:
            parts = [f(v) if (f := scalar(type(v))) else enc(v, inner) for v in o]
            opening, closing = "[", "]"
        if parts:
            sep = indents[inner]
            text = opening + sep + ("," + sep).join(parts) + indents[depth] + closing
        else:
            text = opening + closing
        seen = seens[depth]
        if id(o) in seen:
            memo[id(o)] = text
        else:
            seen.add(id(o))
        return text

    f = scalar(type(doc))
    return f(doc) if f else enc(doc, 0)


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, creating it if it is missing.

    The text is encoded before the file is opened, so a text that cannot be
    encoded leaves ``path`` untouched.  An existing file is opened without
    ``O_TRUNC``, rewritten in place and then, if it is a regular file,
    trimmed to the written length: truncating first would make the next
    rewrite wait for the writeback that ext4 starts on a truncated and
    rewritten file.  The file keeps its inode, so a symlink, hard link or
    file mode stays as it was, and ``/dev/stdout`` or ``os.devnull`` can be
    written.  A reader mid-write can briefly see new bytes followed by old
    ones, as it could see a short file before.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_json(path, doc) -> None:
    """``write_text`` of ``encode(doc)`` and a final newline.  The whole text
    is encoded before the file is opened, so a ``doc`` that cannot be encoded
    is a TypeError that leaves ``path`` untouched."""
    write_text(path, encode(doc) + "\n")


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


def formats_to_doc(formats: Mapping[str, FormatResult]) -> dict:
    """Version 2: one entry per distinct format, with the sorted ids of its
    messages, entries ordered by their first id."""
    entries: dict[FormatResult, dict] = {}
    for mid in sorted(formats):
        fmt = formats[mid]
        entry = entries.get(fmt)
        if entry is None:
            entry = entries[fmt] = {
                "length": fmt.length,
                "fields": [f._asdict() for f in fmt.fields],
                "boundaries": list(fmt.boundaries),
                "messages": [],
            }
        entry["messages"].append(mid)
    return {"format": "fieldlens-formats", "version": 2, "formats": list(entries.values())}


def annotation_from_dict(doc: dict) -> FieldAnnotation:
    return FieldAnnotation(
        _field_from_dict(doc),
        SemanticType[doc["type"]],
        frozenset(SemanticFunction[name] for name in _typed(doc["functions"], list)),
        tuple(
            Evidence(_typed(e["rule"], str), _typed(e["seq"], int, type(None)),
                     _typed(e["note"], str))
            for e in _typed(doc["evidence"], list)
        ),
    )


def annotations_to_doc(
    annotations: Mapping[str, Sequence[FieldAnnotation]]
) -> dict:
    """Message id -> its annotations.  Equal annotations share one dict,
    messages with equal annotations one list, equal evidence one dict and
    equal function sets one list, so ``encode`` reuses the text of each."""
    dicts: dict[FieldAnnotation, dict] = {}
    lists: dict[tuple[FieldAnnotation, ...], list] = {}
    evidence: dict[Evidence, dict] = {}
    functions: dict[frozenset[SemanticFunction], list] = {}

    def entry(ann: FieldAnnotation) -> dict:
        d = dicts.get(ann)
        if d is None:
            fns = ann.inferred_functions
            if fns not in functions:
                functions[fns] = sorted(fn.name for fn in fns)
            for e in ann.evidence:
                if e not in evidence:
                    evidence[e] = e._asdict()
            d = dicts[ann] = {
                **ann.field._asdict(),
                "type": ann.inferred_type.name,
                "functions": functions[fns],
                "evidence": [evidence[e] for e in ann.evidence],
            }
        return d

    def entries(anns: tuple[FieldAnnotation, ...]) -> list:
        found = lists.get(anns)
        if found is None:
            found = lists[anns] = [entry(a) for a in anns]
        return found

    return {mid: entries(tuple(anns)) for mid, anns in sorted(annotations.items())}


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


def audit_to_doc(events: Sequence[RefinementEvent]) -> dict:
    """Version 2 of the audit: the decisions in order, each with the ids of
    the messages it applies to."""
    return {
        "format": "fieldlens-refinement-audit",
        "version": 2,
        "decisions": [
            {
                "field": list(e.field),
                "action": e.action,
                "label": e.label,
                "reason": e.reason,
                "entropy": e.entropy,
                "median": e.median,
                "messages": list(e.messages),
            }
            for e in events
        ],
    }


def annotated_formats(
    what: str, annotations: Mapping[str, Sequence[FieldAnnotation]]
) -> dict[str, FormatResult]:
    """The format each message's annotated fields make, read from ``what``;
    an IntegrityError naming the message unless they partition [0, end of
    the last field).  Messages with equal fields share one format."""
    built: dict[tuple[Field, ...], FormatResult] = {}
    formats = {}
    for mid, anns in annotations.items():
        fields = tuple(a.field for a in anns)
        fmt = built.get(fields)
        if fmt is None:
            try:
                fmt = built[fields] = FormatResult(fields[-1].end + 1 if fields else 0, fields)
            except ModelError as exc:
                raise IntegrityError(None, f"{what}: message {mid!r}: {exc}") from None
        formats[mid] = fmt
    return formats


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

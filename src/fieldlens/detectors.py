"""Atomic semantic detectors: classify fields into types and functions.

The detector library is one ordered table, ``LIBRARY``: each entry holds a
rule id, the semantic type or function the rule assigns, the summary that
``list-rules`` prints, and the rule itself.  A rule is a small predicate over
``I(f)`` (the instruction records whose accessed offsets intersect the
field), the trace's loops that cover the field, and ``V(f)`` (the field's
bytes in the message); it returns the ``(seq, note)`` of each piece of
evidence when it fires.  A record's offsets are runs, and a rule reads the
field's share of them with ``model.clip``.

``annotate`` looks up ``I(f)`` and the covering loops once per field and
walks the table in order.  Type rules come first, most specific first --
string, bytes, group, integer, static -- and the first one that fires
assigns the field's one type.  Every function rule then runs, and all that
fire stack; conflicts are left to the refinement stage.  A disabled rule is
skipped as if it were not in the table.

Every rule has a trace part (``Rule.fires``), given ``I(f)`` and the loops
but no message.  Two rules also read ``V(f)``, through a byte part
(``Rule.on_bytes``) that declares the slices of a message it reads
(``BytePart.reads``) and is handed only those bytes.  Their trace part keeps
what the byte part needs, or rules the rule out from the trace alone:
``func.delim`` keeps the ``(const byte, seq)`` of each loop-terminating
one-byte compare in ``I(f)`` and its byte part reads the four edge bytes
(the byte before the field, its first and last, the byte after);
``func.filename`` needs a field of three bytes or more and its byte part
reads the field.  A ruled-out rule is a trace verdict like the other nine.

So the messages of one shape (``model.Shape``: one length, equal traces)
share each field's ``I(f)``, loops and trace verdicts: ``annotate_format``
keeps them, with the byte parts left open, in the memo that
``pipeline.infer_corpus`` makes for each shape it iterates.  That memo also
keeps each field's annotation by the bytes that its open byte parts read,
one byte string per declared slice: no bytes when both are ruled out, so
every message gets one annotation, else the edges, the field, or both.  The byte parts run once per distinct such
bytes, not per message.  Fields, annotations and evidence are tuples, so
these memos hash and compare their keys in C.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .model import (
    ArgRole,
    ExecutionTrace,
    Field,
    FormatResult,
    InstructionRecord,
    LabelEnum,
    LoopRole,
    Message,
    Offsets,
    OpClass,
    clip,
    instructions_for,
    runs,
)


class SemanticType(LabelEnum):
    STATIC = "STATIC"
    INTEGER = "INTEGER"
    GROUP = "GROUP"
    BYTES = "BYTES"
    STRING = "STRING"
    UNKNOWN = "UNKNOWN"


class SemanticFunction(LabelEnum):
    COMMAND = "COMMAND"
    LENGTH = "LENGTH"
    DELIM = "DELIM"
    CHECKSUM = "CHECKSUM"
    FILENAME = "FILENAME"
    ALIGNED = "ALIGNED"


class Evidence(NamedTuple):
    """Why a rule fired: the rule id plus the record seq (or a value note)."""

    rule: str
    seq: Optional[int] = None
    note: str = ""


class FieldAnnotation(NamedTuple):
    """A field with its semantic type, functions and the evidence for them.
    A true annotation (a message's ground truth) carries no evidence.  Like
    a ``Field``, it is a tuple, so it hashes and compares in C."""

    field: Field
    inferred_type: SemanticType
    inferred_functions: frozenset[SemanticFunction]
    evidence: tuple[Evidence, ...]


Records = Sequence[InstructionRecord]
#: (loop id, every record of that loop) for each loop that covers a field
Loops = list[tuple[str, tuple[InstructionRecord, ...]]]
#: what a rule returns when it fires: the (seq, note) of each piece of evidence
Found = Optional[list[tuple[Optional[int], str]]]

# printable ASCII path: optional '/'- or '\'-separated segments and a final
# name with a 1..5 character extension (a bytes pattern's \w is ASCII)
_FILENAME_RE = re.compile(rb"(?:[\w\- .]*[/\\])*[\w\- ]+\.[A-Za-z0-9]{1,5}\Z")


def _const_value(const: bytes) -> int:
    return int.from_bytes(const, "little")


def _const_compares(records: Records) -> list[InstructionRecord]:
    return [
        r
        for r in records
        if r.op_class is OpClass.COMPARE and r.compared_const is not None
    ]


def _is_functional(rec: InstructionRecord) -> bool:
    """Functional operations are everything outside the mov series."""
    return rec.op_class is not OpClass.MOV_SERIES


def _covering_loops(trace: ExecutionTrace, field: Field) -> Loops:
    """Loops that touch every byte of the field with identical operator sets
    (each with all of its records, trace-wide, not just I(f)), in the order
    of ``trace.loops``.

    Each byte's records come from ``trace.by_offset``, grouped by loop, so
    every record of the field's bytes is visited once."""
    index, records = trace.by_offset, trace.records
    common: Optional[dict[str, set[str]]] = None
    for b in field.offsets:
        ops: dict[str, set[str]] = {}
        for pos in index.get(b, ()):
            rec = records[pos]
            if rec.loop_id is not None:
                ops.setdefault(rec.loop_id, set()).add(rec.operator)
        if common is not None:
            ops = {loop_id: seen for loop_id, seen in common.items() if ops.get(loop_id) == seen}
        if not ops:
            return []
        common = ops
    return [(loop_id, recs) for loop_id, recs in trace.loops.items() if loop_id in common]


def _string_rule(field: Field, records: Records, loops: Loops) -> Found:
    if not loops:
        return None
    # per-byte single-target constant comparisons
    by_byte: dict[int, dict[int, int]] = {}
    for rec in _const_compares(records):
        hit = clip(rec.accessed_offsets, field.start, field.end)
        if len(hit) == 1 and hit[0][0] == hit[0][1]:
            by_byte.setdefault(hit[0][0], {})[_const_value(rec.compared_const)] = rec.seq
    for b in range(field.start, field.end):
        shared = set(by_byte.get(b, {})) & set(by_byte.get(b + 1, {}))
        if shared:
            c = min(shared)
            return [(by_byte[b][c], ""), (by_byte[b + 1][c], "")]
    return None


def _bytes_rule(field: Field, records: Records, loops: Loops) -> Found:
    for loop_id, recs in loops:
        if runs(run for rec in recs for run in rec.reads) == ((field.start, field.end),):
            seqs = sorted(r.seq for r in recs if clip(r.accessed_offsets, field.start, field.end))
            return [(s, f"loop {loop_id}") for s in seqs[:2]]
    return None


def _group_rule(field: Field, records: Records, loops: Loops) -> Found:
    # the alternatives must target the same byte span: two fixed-value checks
    # against different bytes of a merged field are not a value group
    by_span: dict[Offsets, dict[int, int]] = {}
    for rec in _const_compares(records):
        key = clip(rec.accessed_offsets, field.start, field.end)
        by_span.setdefault(key, {}).setdefault(
            _const_value(rec.compared_const), rec.seq
        )
    for consts in by_span.values():
        if len(consts) >= 2:
            return [(seq, "") for _, seq in sorted(consts.items())[:2]]
    return None


def _integer_rule(field: Field, records: Records, loops: Loops) -> Found:
    arith = [r for r in records if r.op_class is OpClass.ARITH_BITWISE]
    if arith:
        return [(r.seq, "") for r in arith[:2]]
    consts: dict[int, int] = {}
    for rec in _const_compares(records):
        consts.setdefault(_const_value(rec.compared_const), rec.seq)
    for value, seq in consts.items():
        if value + 1 in consts:
            return [(seq, ""), (consts[value + 1], "")]
    return None


def _static_rule(field: Field, records: Records, loops: Loops) -> Found:
    anchors = [r.seq for r in _const_compares(records) if r.cmp_result is True]
    skip = set(anchors)
    if not anchors or any(_is_functional(r) for r in records if r.seq not in skip):
        return None
    return [(anchors[0], "")]


def _command_rule(field: Field, records: Records, loops: Loops) -> Found:
    for rec in _const_compares(records):
        if rec.cmp_result is True and rec.triggered_jump:
            return [(rec.seq, "")]
    return None


def _length_rule(field: Field, records: Records, loops: Loops) -> Found:
    for rec in records:
        if rec.loop_role is LoopRole.TERMINATION:
            return [(rec.seq, "loop bound")]
        if rec.api_call is not None and rec.api_call.tainted_arg_role is ArgRole.LENGTH_ARG:
            return [(rec.seq, rec.api_call.name)]
        if rec.pointer_arith is not None:
            return [(rec.seq, rec.pointer_arith.name)]
    return None


def _delim_rule(field: Field, records: Records, loops: Loops) -> list[tuple[int, int]]:
    """The ``(const byte, seq)`` of each loop-terminating one-byte compare in
    I(f), in record order: the delimiters that an edge byte may match."""
    return [
        (rec.compared_const[0], rec.seq)
        for rec in records
        if rec.loop_role is LoopRole.TERMINATION
        and rec.op_class is OpClass.COMPARE
        and rec.compared_const is not None
        and len(rec.compared_const) == 1
    ]


def _edges(field: Field) -> tuple[slice, ...]:
    """The byte before the field, its first and last bytes, and the byte
    after it, where the message has them."""
    return slice(max(0, field.start - 1), field.start + 1), slice(field.end, field.end + 2)


def _delim_on_edges(delimiters: list[tuple[int, int]], edges: bytes) -> Found:
    for const, seq in delimiters:
        if const in edges:
            return [(seq, "")]
    return None


def accumulated_side(lineage: tuple, field: Field) -> Optional[Offsets]:
    """The side of a compare's ``lineage`` that ``field`` does not touch, when
    the other side does (at most one side can): the runs that a checksum at
    ``field`` was accumulated from.  None if neither side qualifies."""
    span = field.start, field.end
    own, other = lineage if clip(lineage[0], *span) else lineage[::-1]
    return other if clip(own, *span) and not clip(other, *span) else None


def _checksum_rule(field: Field, records: Records, loops: Loops) -> Found:
    for rec in records:
        if rec.op_class is not OpClass.COMPARE or rec.operand_lineage is None:
            continue
        other = accumulated_side(rec.operand_lineage, field)
        if other and any(hi - lo >= 1 for lo, hi in other):
            return [(rec.seq, "")]
    return None


def _filename_rule(field: Field, records: Records, loops: Loops) -> bool:
    """A file name takes three bytes or more."""
    return field.end - field.start + 1 >= 3


def _span(field: Field) -> tuple[slice, ...]:
    return (slice(field.start, field.end + 1),)


def _filename_on_field(_: bool, raw: bytes) -> Found:
    return [(None, raw.decode("ascii"))] if _FILENAME_RE.match(raw) else None


def _aligned_rule(field: Field, records: Records, loops: Loops) -> Found:
    if any(_is_functional(r) for r in records):
        return None
    return [(None, "no functional operations")]


@dataclass(frozen=True)
class BytePart:
    """The part of a rule that reads a message: ``reads`` gives the slices
    of a message that it reads for a field, and ``fires`` is handed what
    the rule's trace part kept and those bytes, joined."""

    reads: Callable[[Field], tuple[slice, ...]]
    fires: Callable[[Any, bytes], Found]


@dataclass(frozen=True)
class Rule:
    id: str
    label: Union[SemanticType, SemanticFunction]
    #: the trace part, given no message: what the rule finds, or for a rule
    #: with a byte part what that part needs, falsy when the trace alone
    #: rules the rule out
    fires: Callable[[Field, Records, Loops], Any]
    summary: str
    on_bytes: Optional[BytePart] = None


#: The detector library, in the order ``annotate`` runs it.
LIBRARY: tuple[Rule, ...] = (
    Rule("type.string", SemanticType.STRING, _string_rule,
         "consecutive field bytes compared to one constant inside a scan loop"),
    Rule("type.bytes", SemanticType.BYTES, _bytes_rule,
         "all field bytes share identical operations within one loop whose reads cover exactly the field"),
    Rule("type.group", SemanticType.GROUP, _group_rule,
         "field compared against two or more distinct constants"),
    Rule("type.integer", SemanticType.INTEGER, _integer_rule,
         "arithmetic/bit-wise operations, or comparisons against consecutive constants"),
    Rule("type.static", SemanticType.STATIC, _static_rule,
         "a fixed-value comparison yields true and nothing but mov-series ops touch the field"),
    Rule("func.command", SemanticFunction.COMMAND, _command_rule,
         "a true fixed-value comparison immediately triggers a jump"),
    Rule("func.length", SemanticFunction.LENGTH, _length_rule,
         "field terminates a loop, is a length argument to a library call, or drives pointer/counter stepping"),
    Rule("func.delim", SemanticFunction.DELIM, _delim_rule,
         "a loop-terminating comparison against a constant that sits at the field's edge",
         BytePart(_edges, _delim_on_edges)),
    Rule("func.checksum", SemanticFunction.CHECKSUM, _checksum_rule,
         "field compared against a value accumulated from two or more consecutive message bytes"),
    Rule("func.filename", SemanticFunction.FILENAME, _filename_rule,
         "field value follows a file naming convention", BytePart(_span, _filename_on_field)),
    Rule("func.aligned", SemanticFunction.ALIGNED, _aligned_rule,
         "no functional operations touch the field"),
)

#: (id, summary) of each rule, in table order (CLI `list-rules` prints this).
RULES: tuple[tuple[str, str], ...] = tuple((r.id, r.summary) for r in LIBRARY)
RULE_IDS: tuple[str, ...] = tuple(r.id for r in LIBRARY)


@dataclass
class Structure:
    """One field's verdicts in traces of one shape, and the annotations
    already built for it."""

    field: Field
    #: each enabled rule that can still matter, in table order, with its
    #: evidence, or ``None`` while its byte part is open
    steps: tuple[tuple[Rule, Optional[tuple[Evidence, ...]]], ...]
    #: each open byte part, in table order, with what its trace part kept
    #: and the slices of a message that it reads
    open: tuple[tuple[BytePart, Any, tuple[slice, ...]], ...]
    #: a message's bytes -> one byte string per slice that an open part
    #: reads; ``None`` when no part is open
    key: Optional[Callable[[bytes], Any]]
    #: that key -> the field's annotation
    by_bytes: dict[Any, FieldAnnotation] = dc_field(default_factory=dict)
    #: the open parts' findings -> the field's annotation
    built: dict[tuple, FieldAnnotation] = dc_field(default_factory=dict)


#: field -> its structure, for the traces of one shape
FieldMemo = dict[Field, Structure]


def _evidence(rule: Rule, found: Found) -> tuple[Evidence, ...]:
    return tuple(Evidence(rule.id, seq, note) for seq, note in found or ())


def _structure(field: Field, trace: ExecutionTrace, disabled: frozenset[str]) -> Structure:
    """Run every rule's trace part.  A byte part stays open unless its trace
    part rules the rule out.  Type rules after the first of them that fires
    are dropped: they can never run."""
    records = instructions_for(trace, field)
    loops = _covering_loops(trace, field)
    steps, open_parts = [], []
    typed = False
    for rule in LIBRARY:
        is_type = isinstance(rule.label, SemanticType)
        if rule.id in disabled or (is_type and typed):
            continue
        found = rule.fires(field, records, loops)
        if rule.on_bytes is not None and found:
            steps.append((rule, None))
            open_parts.append((rule.on_bytes, found, rule.on_bytes.reads(field)))
            continue
        evidence = _evidence(rule, found)  # a ruled-out byte rule found nothing
        steps.append((rule, evidence))
        typed = typed or (is_type and bool(evidence))
    slices = [sl for *_, reads in open_parts for sl in reads]
    key = itemgetter(*slices) if slices else None
    return Structure(field, tuple(steps), tuple(open_parts), key)


def _finish(message: Message, s: Structure) -> FieldAnnotation:
    """The field's annotation in ``message``.  Messages that agree on the
    bytes the open byte parts read get one annotation, so those parts run
    once per distinct such bytes; with no part open, every message gets
    the same one."""
    key = s.key(message.data) if s.key else None
    ann = s.by_bytes.get(key)
    if ann is None:
        ann = s.by_bytes[key] = _build(message.data, s)
    return ann


def _build(data: bytes, s: Structure) -> FieldAnnotation:
    """Run the open byte parts on ``data``, then apply the table order: the
    first type rule that fires sets the type, function rules stack.
    Messages whose byte parts find the same share one annotation."""
    found = tuple(
        tuple(part.fires(kept, b"".join([data[sl] for sl in reads])) or ())
        for part, kept, reads in s.open
    )
    ann = s.built.get(found)
    if ann is not None:
        return ann
    per_message = iter(found)
    sem_type = SemanticType.UNKNOWN
    functions: set[SemanticFunction] = set()
    evidence: list[Evidence] = []
    for rule, ev in s.steps:
        if ev is None:
            ev = _evidence(rule, next(per_message))
        is_type = isinstance(rule.label, SemanticType)
        if not ev or (is_type and sem_type is not SemanticType.UNKNOWN):
            continue
        if is_type:
            sem_type = rule.label
        else:
            functions.add(rule.label)
        evidence += ev
    ann = s.built[found] = FieldAnnotation(
        s.field, sem_type, frozenset(functions), tuple(evidence)
    )
    return ann


def annotate(
    field: Field,
    trace: ExecutionTrace,
    message: Message,
    disabled_rules: Iterable[str] = (),
) -> FieldAnnotation:
    """Run the library over one field: the first type rule that fires sets
    the type, every function rule that fires adds its function."""
    return _finish(message, _structure(field, trace, frozenset(disabled_rules)))


def annotate_format(
    fmt: FormatResult,
    trace: ExecutionTrace,
    message: Message,
    disabled_rules: Iterable[str] = (),
    *,
    memo: Optional[FieldMemo] = None,
) -> tuple[FieldAnnotation, ...]:
    """``annotate`` over every field of ``fmt``.

    ``memo`` holds the structures already found for traces of the same shape
    as ``trace`` under the same ``disabled_rules``; it defaults to a fresh
    one."""
    disabled = frozenset(disabled_rules)
    memo = {} if memo is None else memo
    out = []
    for f in fmt.fields:
        structure = memo.get(f)
        if structure is None:
            structure = memo[f] = _structure(f, trace, disabled)
        out.append(_finish(message, structure))
    return tuple(out)

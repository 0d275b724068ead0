"""Core data model: messages, taint-annotated instruction traces, and field partitions.

Everything here is immutable after construction and safe to share between
threads; ``ExecutionTrace.loops`` is a view derived from the records on
first use.  Records, fields and formats are checked tuples and the label
enums hash by identity, so memo keys hash in C.  No trace or format names a
message, so equal ones compare and hash alike.  Messages of one length with
equal traces were handled by the same instructions: they form one ``Shape``,
whose messages share one format.  Offsets are byte-granular; bit-level
fields are out of scope.  A record holds each offset set as ``Offsets``,
the runs that the trace text spells, never expanded; ``runs`` makes them
and ``clip`` cuts a field's share.  ``instructions_for``, the one I(f)
lookup, takes sorted, disjoint fields and finds all their records in one
pass over the runs, so it costs the runs and the fields they hit, never
the width of a run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

#: sorted, disjoint, non-adjacent inclusive (lo, hi) runs of message offsets
Offsets = Tuple[Tuple[int, int], ...]


class ModelError(ValueError):
    """An invariant of the trace data model was violated."""


class LabelEnum(Enum):
    """An enum whose members hash by identity, in C, as they compare."""

    __hash__ = object.__hash__


class OpClass(LabelEnum):
    MOV_SERIES = "MOV_SERIES"
    COMPARE = "COMPARE"
    ARITH_BITWISE = "ARITH_BITWISE"
    JUMP = "JUMP"
    CALL = "CALL"
    OTHER = "OTHER"


class LoopRole(LabelEnum):
    BODY = "BODY"
    TERMINATION = "TERMINATION"


class ArgRole(LabelEnum):
    LENGTH_ARG = "LENGTH_ARG"
    BUFFER_ARG = "BUFFER_ARG"
    OTHER = "OTHER"


class PointerArith(LabelEnum):
    POINTER_INCREMENT = "POINTER_INCREMENT"
    COUNTER_DECREMENT = "COUNTER_DECREMENT"


@dataclass(frozen=True)
class ApiCall:
    """A pseudo-library call observed during parsing (e.g. a recv-with-length)."""

    name: str
    tainted_arg_role: ArgRole


@dataclass(frozen=True)
class Message:
    """A raw protocol message: an opaque id plus its byte content."""

    id: str
    data: bytes

    def __post_init__(self) -> None:
        if not self.data:
            raise ModelError(f"message {self.id!r} has no bytes")

    def __len__(self) -> int:
        return len(self.data)


class _RecordFields(NamedTuple):
    seq: int
    operator: str
    op_class: OpClass
    accessed_offsets: Offsets
    reads: Offsets = ()
    compared_const: Optional[bytes] = None
    cmp_result: Optional[bool] = None
    triggered_jump: bool = False
    loop_id: Optional[str] = None
    loop_role: Optional[LoopRole] = None
    api_call: Optional[ApiCall] = None
    pointer_arith: Optional[PointerArith] = None
    operand_lineage: Optional[Tuple[Offsets, Offsets]] = None


class InstructionRecord(_RecordFields):
    """One executed instruction together with the message bytes it touched.

    ``accessed_offsets`` is the union of the taint labels of the instruction's
    operands.  ``reads`` is the subset of offsets the instruction loaded
    directly from the message buffer; it drives field-candidate extraction,
    while ``accessed_offsets`` drives per-field instruction association.
    ``operand_lineage`` is only populated for comparisons: it tags each side
    with every message offset that ever flowed into the compared value, even
    through value transformations that drop plain taint (table lookups).

    A record is a tuple of the fields above, so it hashes and compares in C.
    ``InstructionRecord(...)``, positional or keyword, is the one way to
    build one: ``__new__`` checks the record invariants, and ``_make``, and
    so ``_replace``, go through it.  ``__new__`` spells out the fields and
    their defaults, so that building a record is one Python call.
    """

    __slots__ = ()

    def __new__(
        cls, seq, operator, op_class, accessed_offsets, reads=(),
        compared_const=None, cmp_result=None, triggered_jump=False, loop_id=None,
        loop_role=None, api_call=None, pointer_arith=None, operand_lineage=None,
    ):
        if cmp_result is not None and op_class is not OpClass.COMPARE:
            raise ModelError(f"record seq={seq}: cmp_result requires op_class=COMPARE")
        if (loop_role is None) != (loop_id is None):
            raise ModelError(f"record seq={seq}: loop_role and loop_id must be set together")
        if operand_lineage is not None and op_class is not OpClass.COMPARE:
            raise ModelError(f"record seq={seq}: operand_lineage requires op_class=COMPARE")
        # reads lie inside accessed_offsets when joining them adds no offset
        if reads and reads != accessed_offsets != runs(reads + accessed_offsets):
            raise ModelError(f"record seq={seq}: reads must be a subset of accessed_offsets")
        return tuple.__new__(cls, (
            seq, operator, op_class, accessed_offsets, reads, compared_const, cmp_result,
            triggered_jump, loop_id, loop_role, api_call, pointer_arith, operand_lineage,
        ))

    @classmethod
    def _make(cls, iterable: Iterable) -> InstructionRecord:
        return cls(*iterable)


@dataclass(frozen=True)
class ExecutionTrace:
    """The ordered instruction records emitted while one message was parsed."""

    records: Tuple[InstructionRecord, ...]

    def __post_init__(self) -> None:
        prev = None
        for rec in self.records:
            seq = rec.seq
            if prev is not None and seq <= prev:
                raise ModelError(
                    f"record seq values must be strictly increasing ({seq} after {prev})"
                )
            prev = seq

    @cached_property
    def loops(self) -> dict[str, tuple[InstructionRecord, ...]]:
        """Each loop id's records in seq order, grouped once per trace."""
        return group_loops(self.records)


class Shape(NamedTuple):
    """A trace and the messages of one length that carry it, in file order."""

    trace: ExecutionTrace
    messages: Tuple[Message, ...]


def traces_by_id(shapes: Iterable[Shape]) -> dict[str, ExecutionTrace]:
    """Each message id of ``shapes`` -> its shape's trace."""
    return {m.id: trace for trace, messages in shapes for m in messages}


def group_loops(
    records: Iterable[InstructionRecord],
) -> dict[str, tuple[InstructionRecord, ...]]:
    """Records by loop id, in the order of each loop's first record."""
    loops: dict[str, list[InstructionRecord]] = {}
    for rec in records:
        if rec.loop_id is not None:
            loops.setdefault(rec.loop_id, []).append(rec)
    return {loop_id: tuple(recs) for loop_id, recs in loops.items()}


class _FieldValues(NamedTuple):
    start: int
    end: int
    accessed: bool = True


class Field(_FieldValues):
    """A contiguous byte range [start, end] of a message (both ends inclusive).

    ``accessed`` is False for ranges no instruction ever touched.  It takes
    part in equality, so equal fields are exactly those that give equal
    reports, and a memo can key on a field's value.  Like a record, it is a
    checked tuple whose ``_make`` and ``_replace`` go through ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, start, end, accessed=True):
        if start < 0 or end < start:
            raise ModelError(f"invalid field range ({start}, {end})")
        return tuple.__new__(cls, (start, end, accessed))

    @classmethod
    def _make(cls, iterable: Iterable) -> Field:
        return cls(*iterable)


class _FormatValues(NamedTuple):
    length: int
    fields: Tuple[Field, ...]


class FormatResult(_FormatValues):
    """An inferred partition of a message of ``length`` bytes into fields.

    ``fields`` must cover [0, length) without gaps or overlaps; ``boundaries``
    is the derived set of offsets at which a new field starts (offset 0
    excluded).  A format names no message, so a caller that checks a
    message's fields names the message in its error.  Like a ``Field``, it
    is a checked tuple whose ``_make`` and ``_replace`` go through ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, length, fields):
        if not fields:
            raise ModelError("format has no fields")
        expected = 0
        for f in fields:
            if f.start != expected:
                raise ModelError(
                    f"format does not partition the message: field starts at "
                    f"{f.start}, expected {expected}"
                )
            expected = f.end + 1
        if expected != length:
            raise ModelError(
                f"format covers [0, {expected}) but the message has {length} bytes"
            )
        return tuple.__new__(cls, (length, fields))

    @classmethod
    def _make(cls, iterable: Iterable) -> FormatResult:
        return cls(*iterable)

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return tuple(f.start for f in self.fields if f.start > 0)


def instructions_for(
    trace: ExecutionTrace, fields: Sequence[Field]
) -> list[list[InstructionRecord]]:
    """I(f) of each of ``fields``, which must be sorted and disjoint: the
    records whose accessed offsets intersect the field, in seq order.  One
    pass over the trace finds them: the fields that a run hits are those
    from the first that ends at or after its start to the last that starts
    at or before its end, found by bisection."""
    starts = [f.start for f in fields]
    ends = [f.end for f in fields]
    out: list[list[InstructionRecord]] = [[] for _ in fields]
    for rec in trace.records:
        for lo, hi in rec.accessed_offsets:
            for k in range(bisect_left(ends, lo), bisect_right(starts, hi)):
                hits = out[k]
                if not hits or hits[-1] is not rec:
                    hits.append(rec)
    return out


def runs(pairs: Iterable[tuple[int, int]]) -> Offsets:
    """The canonical runs of the offsets that inclusive ``(lo, hi)`` pairs
    cover, whatever their order, overlaps or adjacency."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return tuple(out)


def clip(offsets: Offsets, start: int, end: int) -> Offsets:
    """The runs of ``offsets`` inside [start, end]: a field's share of them."""
    return tuple((max(lo, start), min(hi, end)) for lo, hi in offsets if lo <= end and hi >= start)

"""Core data model: messages, taint-annotated instruction traces, and field partitions.

Everything here is immutable after construction and safe to share between
threads; ``ExecutionTrace.loops`` and ``ExecutionTrace.by_offset`` are views
derived from the records on first use.  Records and fields are checked tuples
and the label enums hash by identity, so memo keys hash in C.  ``by_offset``
maps each accessed offset to the positions of the records that touch it, so
``instructions_for``, the one I(f) lookup, visits only the records of the
field's own bytes.  A trace names no message, so equal traces compare and
hash alike.  Messages of one length with equal traces were handled by the
same instructions: they form one ``Shape``, and the reader hands on each
shape once.  Offsets are byte-granular; bit-level fields are out of scope.
A record holds each offset set as ``Offsets``, the runs that the trace text
spells, never expanded; ``runs`` makes them and ``clip`` cuts a field's share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Tuple

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

    @cached_property
    def by_offset(self) -> dict[int, list[int]]:
        """Each accessed offset -> the positions in ``records`` of the records
        whose accessed offsets hold it, in seq order; built once per trace."""
        index: dict[int, list[int]] = {}
        for pos, rec in enumerate(self.records):
            for lo, hi in rec.accessed_offsets:
                for offset in range(lo, hi + 1):
                    index.setdefault(offset, []).append(pos)
        return index


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

    @property
    def offsets(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True)
class FormatResult:
    """An inferred partition of one message into fields.

    ``fields`` must cover [0, length) without gaps or overlaps; ``boundaries``
    is the derived set of offsets at which a new field starts (offset 0
    excluded).
    """

    message_id: str
    length: int
    fields: Tuple[Field, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ModelError(f"format for {self.message_id!r} has no fields")
        expected = 0
        for f in self.fields:
            if f.start != expected:
                raise ModelError(
                    f"format for {self.message_id!r} does not partition the "
                    f"message: field starts at {f.start}, expected {expected}"
                )
            expected = f.end + 1
        if expected != self.length:
            raise ModelError(
                f"format for {self.message_id!r} covers [0, {expected}) but the "
                f"message has {self.length} bytes"
            )

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return tuple(f.start for f in self.fields if f.start > 0)


def instructions_for(trace: ExecutionTrace, field: Field) -> list[InstructionRecord]:
    """I(f): all records whose accessed offsets intersect ``field``, in seq
    order.  They are read from ``trace.by_offset``, so a lookup visits the
    records of the field's bytes, not the whole trace; a one-byte field's
    records are its offset's list as it stands."""
    index, records = trace.by_offset, trace.records
    if field.start == field.end:
        return [records[pos] for pos in index.get(field.start, ())]
    positions = set().union(*(index.get(offset, ()) for offset in field.offsets))
    return [records[pos] for pos in sorted(positions)]


def operator_sequence(trace: ExecutionTrace, field: Field) -> tuple[str, ...]:
    """Operator mnemonics of the instructions accessing ``field``, in seq order."""
    return tuple(rec.operator for rec in instructions_for(trace, field))


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

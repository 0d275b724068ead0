"""Atomic semantic detectors: classify fields into types and functions.

Each detector is a small rule over ``I(f)`` (the instruction records whose
accessed offsets intersect the field) and ``V(f)`` (the field's bytes).  Type
rules are tried most-specific first -- string, bytes, group, integer, static
-- and exactly one type is assigned; function rules fire independently and
may stack, with conflicts left to the refinement stage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .model import (
    ArgRole,
    ExecutionTrace,
    Field,
    FormatResult,
    InstructionRecord,
    LoopRole,
    Message,
    OpClass,
    consecutive_runs,
    instructions_for,
)


class SemanticType(Enum):
    STATIC = "STATIC"
    INTEGER = "INTEGER"
    GROUP = "GROUP"
    BYTES = "BYTES"
    STRING = "STRING"
    UNKNOWN = "UNKNOWN"


class SemanticFunction(Enum):
    COMMAND = "COMMAND"
    LENGTH = "LENGTH"
    DELIM = "DELIM"
    CHECKSUM = "CHECKSUM"
    FILENAME = "FILENAME"
    ALIGNED = "ALIGNED"


@dataclass(frozen=True)
class Evidence:
    """Why a rule fired: the rule id plus the record seq (or a value note)."""

    rule: str
    seq: Optional[int] = None
    note: str = ""


@dataclass(frozen=True)
class FieldAnnotation:
    field: Field
    inferred_type: SemanticType
    inferred_functions: frozenset[SemanticFunction]
    evidence: tuple[Evidence, ...]

    def evidence_for(self, rule_prefix: str) -> tuple[Evidence, ...]:
        return tuple(e for e in self.evidence if e.rule.startswith(rule_prefix))


#: Enumerable rule library (CLI `list-rules` prints this).
RULES: tuple[tuple[str, str], ...] = (
    ("type.string", "consecutive field bytes compared to one constant inside a scan loop"),
    ("type.bytes", "all field bytes share identical operations within one loop whose reads cover exactly the field"),
    ("type.group", "field compared against two or more distinct constants"),
    ("type.integer", "arithmetic/bit-wise operations, or comparisons against consecutive constants"),
    ("type.static", "a fixed-value comparison yields true and nothing but mov-series ops touch the field"),
    ("func.command", "a true fixed-value comparison immediately triggers a jump"),
    ("func.length", "field terminates a loop, is a length argument to a library call, or drives pointer/counter stepping"),
    ("func.delim", "a loop-terminating comparison against a constant that sits at the field's edge"),
    ("func.checksum", "field compared against a value accumulated from two or more consecutive message bytes"),
    ("func.filename", "field value follows a file naming convention"),
    ("func.aligned", "no functional operations touch the field"),
)

RULE_IDS = tuple(rule_id for rule_id, _ in RULES)

# printable ASCII path: optional '/'- or '\'-separated segments and a final
# name with a 1..5 character extension
_FILENAME_RE = re.compile(r"^(?:[\w\- .]*[/\\])*[\w\- ]+\.[A-Za-z0-9]{1,5}$")


def _const_value(const: bytes) -> int:
    return int.from_bytes(const, "little")


def _const_compares(records: Sequence[InstructionRecord]) -> list[InstructionRecord]:
    return [
        r
        for r in records
        if r.op_class is OpClass.COMPARE and r.compared_const is not None
    ]


def _is_functional(rec: InstructionRecord) -> bool:
    """Functional operations are everything outside the mov series."""
    return rec.op_class is not OpClass.MOV_SERIES


def _loop_views(trace: ExecutionTrace) -> dict[str, list[InstructionRecord]]:
    """All loop records grouped by loop id (trace-wide, not just I(f))."""
    loops: dict[str, list[InstructionRecord]] = {}
    for rec in trace.records:
        if rec.loop_id is not None:
            loops.setdefault(rec.loop_id, []).append(rec)
    return loops


def _covering_loops(
    trace: ExecutionTrace, field: Field
) -> list[tuple[str, list[InstructionRecord]]]:
    """Loops that touch every byte of the field with identical operator sets."""
    out = []
    for loop_id, recs in _loop_views(trace).items():
        per_byte: list[frozenset[str]] = []
        ok = True
        for b in field.offsets:
            ops = frozenset(r.operator for r in recs if b in r.accessed_offsets)
            if not ops:
                ok = False
                break
            per_byte.append(ops)
        if ok and len(set(per_byte)) == 1:
            out.append((loop_id, recs))
    return out


def _string_rule(
    field: Field, trace: ExecutionTrace, records: Sequence[InstructionRecord]
) -> Optional[list[Evidence]]:
    # per-byte single-target constant comparisons
    by_byte: dict[int, dict[int, int]] = {}
    for rec in _const_compares(records):
        hit = rec.accessed_offsets & frozenset(field.offsets)
        if len(hit) == 1:
            (b,) = hit
            by_byte.setdefault(b, {})[_const_value(rec.compared_const)] = rec.seq
    if not _covering_loops(trace, field):
        return None
    for b in range(field.start, field.end):
        shared = set(by_byte.get(b, {})) & set(by_byte.get(b + 1, {}))
        if shared:
            c = min(shared)
            return [
                Evidence("type.string", by_byte[b][c]),
                Evidence("type.string", by_byte[b + 1][c]),
            ]
    return None


def _bytes_rule(
    field: Field, trace: ExecutionTrace
) -> Optional[list[Evidence]]:
    for loop_id, recs in _covering_loops(trace, field):
        footprint: set[int] = set()
        for rec in recs:
            footprint.update(rec.reads)
        if footprint == set(field.offsets):
            seqs = sorted(r.seq for r in recs if r.accessed_offsets & footprint)
            return [Evidence("type.bytes", s, note=f"loop {loop_id}") for s in seqs[:2]]
    return None


def _group_rule(
    field: Field, records: Sequence[InstructionRecord]
) -> Optional[list[Evidence]]:
    # the alternatives must target the same byte span: two fixed-value checks
    # against different bytes of a merged field are not a value group
    span = frozenset(field.offsets)
    by_span: dict[frozenset[int], dict[int, int]] = {}
    for rec in _const_compares(records):
        key = rec.accessed_offsets & span
        by_span.setdefault(key, {}).setdefault(
            _const_value(rec.compared_const), rec.seq
        )
    for consts in by_span.values():
        if len(consts) >= 2:
            return [
                Evidence("type.group", seq) for _, seq in sorted(consts.items())[:2]
            ]
    return None


def _integer_rule(records: Sequence[InstructionRecord]) -> Optional[list[Evidence]]:
    arith = [r for r in records if r.op_class is OpClass.ARITH_BITWISE]
    if arith:
        return [Evidence("type.integer", r.seq) for r in arith[:2]]
    consts: dict[int, int] = {}
    for rec in _const_compares(records):
        consts.setdefault(_const_value(rec.compared_const), rec.seq)
    for value, seq in consts.items():
        if value + 1 in consts:
            return [
                Evidence("type.integer", seq),
                Evidence("type.integer", consts[value + 1]),
            ]
    return None


def _static_rule(records: Sequence[InstructionRecord]) -> Optional[list[Evidence]]:
    anchors = [
        r for r in _const_compares(records) if r.cmp_result is True
    ]
    if not anchors:
        return None
    anchor_seqs = {r.seq for r in anchors}
    for rec in records:
        if rec.seq in anchor_seqs:
            continue
        if _is_functional(rec):
            return None
    return [Evidence("type.static", anchors[0].seq)]


def detect_type(
    field: Field,
    trace: ExecutionTrace,
    message: Message,
    disabled_rules: Iterable[str] = (),
) -> tuple[SemanticType, list[Evidence]]:
    """Assign exactly one semantic type, most-specific rule first."""
    disabled = set(disabled_rules)
    records = instructions_for(trace, field)
    if "type.string" not in disabled:
        ev = _string_rule(field, trace, records)
        if ev:
            return SemanticType.STRING, ev
    if "type.bytes" not in disabled:
        ev = _bytes_rule(field, trace)
        if ev:
            return SemanticType.BYTES, ev
    if "type.group" not in disabled:
        ev = _group_rule(field, records)
        if ev:
            return SemanticType.GROUP, ev
    if "type.integer" not in disabled:
        ev = _integer_rule(records)
        if ev:
            return SemanticType.INTEGER, ev
    if "type.static" not in disabled:
        ev = _static_rule(records)
        if ev:
            return SemanticType.STATIC, ev
    return SemanticType.UNKNOWN, []


def _delim_rule(
    field: Field, message: Message, records: Sequence[InstructionRecord]
) -> Optional[list[Evidence]]:
    data = message.data
    edge_values = set()
    for pos in (field.start - 1, field.start, field.end, field.end + 1):
        if 0 <= pos < len(data):
            edge_values.add(data[pos])
    for rec in records:
        if (
            rec.loop_role is LoopRole.TERMINATION
            and rec.op_class is OpClass.COMPARE
            and rec.compared_const is not None
            and len(rec.compared_const) == 1
            and rec.compared_const[0] in edge_values
        ):
            return [Evidence("func.delim", rec.seq)]
    return None


def _checksum_rule(
    field: Field, records: Sequence[InstructionRecord]
) -> Optional[list[Evidence]]:
    span = frozenset(field.offsets)
    for rec in records:
        if rec.op_class is not OpClass.COMPARE or rec.operand_lineage is None:
            continue
        for own, other in (rec.operand_lineage, rec.operand_lineage[::-1]):
            if not (own & span) or (other & span):
                continue
            if any(hi - lo >= 1 for lo, hi in consecutive_runs(other)):
                return [Evidence("func.checksum", rec.seq)]
    return None


def _filename_rule(field: Field, message: Message) -> Optional[list[Evidence]]:
    raw = message.data[field.start : field.end + 1]
    if len(raw) < 3 or not all(0x20 <= b <= 0x7E for b in raw):
        return None
    text = raw.decode("ascii")
    if _FILENAME_RE.match(text):
        return [Evidence("func.filename", None, note=text)]
    return None


def detect_functions(
    field: Field,
    trace: ExecutionTrace,
    message: Message,
    disabled_rules: Iterable[str] = (),
) -> tuple[set[SemanticFunction], list[Evidence]]:
    """Collect every semantic function whose rule fires; conflicts survive
    until refinement."""
    disabled = set(disabled_rules)
    records = instructions_for(trace, field)
    functions: set[SemanticFunction] = set()
    evidence: list[Evidence] = []

    if "func.command" not in disabled:
        for rec in _const_compares(records):
            if rec.cmp_result is True and rec.triggered_jump:
                functions.add(SemanticFunction.COMMAND)
                evidence.append(Evidence("func.command", rec.seq))
                break

    if "func.length" not in disabled:
        for rec in records:
            if rec.loop_role is LoopRole.TERMINATION:
                functions.add(SemanticFunction.LENGTH)
                evidence.append(Evidence("func.length", rec.seq, note="loop bound"))
                break
            if rec.api_call is not None and rec.api_call.tainted_arg_role is ArgRole.LENGTH_ARG:
                functions.add(SemanticFunction.LENGTH)
                evidence.append(Evidence("func.length", rec.seq, note=rec.api_call.name))
                break
            if rec.pointer_arith is not None:
                functions.add(SemanticFunction.LENGTH)
                evidence.append(
                    Evidence("func.length", rec.seq, note=rec.pointer_arith.name)
                )
                break

    if "func.delim" not in disabled:
        ev = _delim_rule(field, message, records)
        if ev:
            functions.add(SemanticFunction.DELIM)
            evidence.extend(ev)

    if "func.checksum" not in disabled:
        ev = _checksum_rule(field, records)
        if ev:
            functions.add(SemanticFunction.CHECKSUM)
            evidence.extend(ev)

    if "func.filename" not in disabled:
        ev = _filename_rule(field, message)
        if ev:
            functions.add(SemanticFunction.FILENAME)
            evidence.extend(ev)

    if "func.aligned" not in disabled:
        if not any(_is_functional(r) for r in records):
            functions.add(SemanticFunction.ALIGNED)
            evidence.append(
                Evidence("func.aligned", None, note="no functional operations")
            )

    return functions, evidence


def annotate(
    field: Field,
    trace: ExecutionTrace,
    message: Message,
    disabled_rules: Iterable[str] = (),
) -> FieldAnnotation:
    sem_type, type_ev = detect_type(field, trace, message, disabled_rules)
    functions, func_ev = detect_functions(field, trace, message, disabled_rules)
    return FieldAnnotation(
        field, sem_type, frozenset(functions), tuple(type_ev + func_ev)
    )


def annotate_format(
    fmt: FormatResult,
    trace: ExecutionTrace,
    message: Message,
    disabled_rules: Iterable[str] = (),
) -> tuple[FieldAnnotation, ...]:
    return tuple(annotate(f, trace, message, disabled_rules) for f in fmt.fields)

"""Execution engine: runs a parser script over a message, emitting taint records.

Taint model
-----------
Every register carries a value, a taint label set, and a lineage label set.
Buffer loads taint the destination with the offsets read.  Moves, arithmetic,
and comparisons propagate taint as plain label-set union.  Table lookups
(``tbl``) return untainted data -- the loaded value comes from parser-constant
memory -- but lineage survives them, so a checksum accumulator that has been
laundered through a lookup table still remembers which message bytes fed it.
Comparisons record both sides' lineage for the checksum detector.

An instruction emits a record exactly when the union of its operands' taint
labels is non-empty; the record's ``accessed_offsets`` is that union and
``reads`` is the subset fetched directly from the message buffer.  Records
keep no register values, only a comparison's immediate constant and
outcome, so messages whose bytes steer the script alike get equal traces.  A
comparison whose outcome is true and that is immediately followed by a
conditional jump gets ``triggered_jump`` (the compiled ``if`` idiom, whether
the branch is taken or falls through).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    InstructionRecord,
    LoopRole,
    Message,
    OpClass,
    PointerArith,
)
from .ops import ARITH, CONDITIONAL_JUMPS, BufRef, Imm, Instr, ParserScript, Reg

_MASK = (1 << 64) - 1

DEFAULT_STEP_BUDGET = 1_000_000


def _make_table() -> tuple[int, ...]:
    # fixed congruential sequence; shared with the message generators so that
    # generated checksums verify inside the VM
    out = []
    x = 0x29A
    for _ in range(256):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(x & 0xFFFF)
    return tuple(out)


TABLE: tuple[int, ...] = _make_table()


def table_mix(acc: int, byte: int) -> int:
    """One accumulator step of the table checksum the bundled parsers use."""
    return acc ^ TABLE[(byte ^ acc) & 0xFF]


class TermReason(enum.Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"
    STEP_LIMIT = "STEP_LIMIT"


@dataclass(frozen=True)
class VmRunReport:
    trace: ExecutionTrace
    terminated: TermReason


class _RegFile:
    __slots__ = ("value", "taint", "lineage")

    def __init__(self) -> None:
        self.value = {f"r{i}": 0 for i in range(16)}
        self.taint = {f"r{i}": frozenset() for i in range(16)}
        self.lineage = {f"r{i}": frozenset() for i in range(16)}


_API_ROLES = {
    "length": ArgRole.LENGTH_ARG,
    "buffer": ArgRole.BUFFER_ARG,
    "other": ArgRole.OTHER,
}


def run(
    script: ParserScript,
    message: Message,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> VmRunReport:
    """Execute ``script`` over ``message`` deterministically."""
    regs = _RegFile()
    data = message.data
    n = len(data)
    code = script.instructions
    pc = 0
    steps = 0
    records: list[InstructionRecord] = []
    # index into records of a compare emitted by the immediately previous step
    pending_cmp: Optional[int] = None
    flag_vals: tuple[int, int] = (0, 0)
    reason = TermReason.ACCEPT

    def read_src(op: Union[Reg, Imm]) -> tuple[int, frozenset, frozenset]:
        if isinstance(op, Reg):
            return regs.value[op.name], regs.taint[op.name], regs.lineage[op.name]
        return op.value, frozenset(), frozenset()

    def emit(ins: Instr, **kw) -> int:
        role = None
        if ins.loop_id is not None:
            role = LoopRole.TERMINATION if ins.is_termination_cmp else LoopRole.BODY
        records.append(InstructionRecord(
            seq=len(records) + 1, loop_id=ins.loop_id, loop_role=role, **kw
        ))
        return len(records) - 1

    while True:
        if pc >= len(code):
            reason = TermReason.ACCEPT
            break
        if steps >= step_budget:
            reason = TermReason.STEP_LIMIT
            break
        steps += 1
        ins = code[pc]
        mnem = ins.mnemonic
        next_pc = pc + 1
        this_cmp: Optional[int] = None

        if mnem in ("movzx", "movzx16"):
            dst = ins.operands[0]
            ref = ins.operands[1]
            assert isinstance(dst, Reg) and isinstance(ref, BufRef)
            addr, idx_taint, idx_lineage = read_src(ref.index)
            width = 2 if mnem == "movzx16" else 1
            if addr < 0 or addr + width > n:
                reason = TermReason.REJECT
                break
            offsets = frozenset(range(addr, addr + width))
            regs.value[dst.name] = int.from_bytes(data[addr : addr + width], "little")
            regs.taint[dst.name] = offsets | idx_taint
            regs.lineage[dst.name] = offsets | idx_lineage
            emit(
                ins,
                operator="movzx",
                op_class=OpClass.MOV_SERIES,
                accessed_offsets=offsets | idx_taint,
                reads=offsets,
            )
        elif mnem == "mov":
            dst, src = ins.operands
            assert isinstance(dst, Reg)
            value, taint, lineage = read_src(src)
            regs.value[dst.name] = value
            regs.taint[dst.name] = taint
            regs.lineage[dst.name] = lineage
            if taint:
                emit(
                    ins,
                    operator="mov",
                    op_class=OpClass.MOV_SERIES,
                    accessed_offsets=taint,
                )
        elif mnem == "tbl":
            dst, src = ins.operands
            assert isinstance(dst, Reg)
            value, taint, lineage = read_src(src)
            regs.value[dst.name] = TABLE[value & 0xFF]
            regs.taint[dst.name] = frozenset()
            regs.lineage[dst.name] = lineage | taint
            if taint:
                emit(
                    ins,
                    operator="mov",
                    op_class=OpClass.MOV_SERIES,
                    accessed_offsets=taint,
                )
        elif mnem in ARITH:
            dst, src = ins.operands
            assert isinstance(dst, Reg)
            va, ta, la = read_src(dst)
            vb, tb, lb = read_src(src)
            base = mnem.split(".")[0]
            if base == "add":
                value = (va + vb) & _MASK
            elif base == "sub":
                value = (va - vb) & _MASK
            elif base == "xor":
                value = va ^ vb
            elif base == "or":
                value = va | vb
            elif base == "and":
                value = va & vb
            elif base == "shl":
                value = (va << (vb & 63)) & _MASK
            else:  # shr
                value = va >> (vb & 63)
            taint = ta | tb
            regs.value[dst.name] = value
            regs.taint[dst.name] = taint
            regs.lineage[dst.name] = la | lb | taint
            if taint:
                pointer = None
                if mnem == "add.ptr":
                    pointer = PointerArith.POINTER_INCREMENT
                elif mnem == "sub.ctr":
                    pointer = PointerArith.COUNTER_DECREMENT
                emit(
                    ins,
                    operator=base,
                    op_class=OpClass.ARITH_BITWISE,
                    accessed_offsets=taint,
                    pointer_arith=pointer,
                )
        elif mnem == "cmp":
            a, b = ins.operands
            va, ta, la = read_src(a)
            vb, tb, lb = read_src(b)
            flag_vals = (va, vb)
            if ta or tb:
                imm = a if isinstance(a, Imm) else b if isinstance(b, Imm) else None
                const = None
                if imm is not None:  # its shortest little-endian bytes
                    width = max(1, (imm.value.bit_length() + 7) // 8)
                    const = imm.value.to_bytes(width, "little")
                this_cmp = emit(
                    ins,
                    operator="cmp",
                    op_class=OpClass.COMPARE,
                    accessed_offsets=ta | tb,
                    compared_const=const,
                    cmp_result=(va == vb),
                    operand_lineage=(la | ta, lb | tb),
                )
        elif mnem == "jmp":
            next_pc = ins.operands[0].value
        elif mnem in CONDITIONAL_JUMPS:
            va, vb = flag_vals
            taken = {
                "je": va == vb,
                "jne": va != vb,
                "jlt": va < vb,
                "jle": va <= vb,
                "jgt": va > vb,
                "jge": va >= vb,
            }[mnem]
            if pending_cmp is not None and records[pending_cmp].cmp_result:
                records[pending_cmp] = replace(records[pending_cmp], triggered_jump=True)
            if taken:
                next_pc = ins.operands[0].value
        elif mnem == "api":
            name, src, role = ins.operands
            _, taint, _ = read_src(src)
            role_key = str(role).lower()  # validated at parse time
            if taint:
                emit(
                    ins,
                    operator="call",
                    op_class=OpClass.CALL,
                    accessed_offsets=taint,
                    api_call=ApiCall(str(name), _API_ROLES[role_key]),
                )
        elif mnem in ("loop", "endloop"):
            pass
        elif mnem == "accept":
            reason = TermReason.ACCEPT
            break
        elif mnem == "reject":
            reason = TermReason.REJECT
            break
        else:  # pragma: no cover
            raise AssertionError(f"unhandled mnemonic {mnem}")

        pending_cmp = this_cmp
        pc = next_pc

    return VmRunReport(ExecutionTrace(message.id, tuple(records)), reason)

"""Execution engine: runs a parser script over a message, emitting taint records.

Taint model
-----------
Every register carries a value and its taint and lineage labels, as
``model.Offsets`` runs.  Buffer loads taint the destination with the run
read; moves, arithmetic and comparisons propagate taint by the union of
runs, which is one operand itself when the other is empty or equal.  Table
lookups (``tbl``) return untainted data -- the loaded value comes from
parser-constant memory -- but lineage survives them, so a checksum
accumulator laundered through a lookup table still remembers which bytes fed
it.  Comparisons record both sides' lineage for the checksum detector.

An instruction emits a record exactly when the union of its operands' taint
labels is non-empty; the record's ``accessed_offsets`` is that union and
``reads`` is the subset fetched directly from the message buffer.  Records
keep no register values, only a comparison's immediate constant and
outcome, so messages whose bytes steer the script alike get equal traces.  A
comparison whose outcome is true and whose next step runs a conditional jump
gets ``triggered_jump`` (the compiled ``if`` idiom, whether the branch is
taken or falls through).

``run`` steps over the decoded form ``ops`` made once, when the script was
parsed (``ParserScript.code``), with registers as slots 0 .. 15 of a list of
``(value, taint, lineage)`` and the script's immediates in slots after them,
so a value operand is one list index.  It builds each record with one
positional ``InstructionRecord(...)`` call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..model import ExecutionTrace, InstructionRecord, Message, Offsets, OpClass, runs
from .ops import (
    API_STEP, ARITH_STEP, CMP_STEP, JUMP_STEP, LOAD_STEP, MOV_STEP, STOP_STEP, TBL_STEP,
    ParserScript,
)

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


_EMPTY: Offsets = ()
_MOV, _ARITH, _COMPARE = OpClass.MOV_SERIES, OpClass.ARITH_BITWISE, OpClass.COMPARE


def _union(a: Offsets, b: Offsets) -> Offsets:
    return a if not b or a == b else runs(a + b) if a else b


def run(
    script: ParserScript,
    message: Message,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> VmRunReport:
    """Execute ``script`` over ``message`` deterministically."""
    regs = list(script.slots)  # (value, taint, lineage) of r0..r15, then immediates
    data = message.data
    size = len(data)
    code = script.code
    records: list[InstructionRecord] = []
    append = records.append
    fa = fb = 0  # the last compare's two values
    pc = 0
    reason = TermReason.ACCEPT
    for steps in range(1, step_budget + 1):
        op = code[pc]
        kind = op[0]
        pc += 1
        if kind == ARITH_STEP:
            _, dst, src, fn, name, ptr, loop_id, role = op
            va, ta, la = regs[dst]
            vb, tb, lb = regs[src]
            taint = _union(ta, tb)
            regs[dst] = (fn(va, vb), taint, _union(_union(la, lb), taint))
            if taint:
                append(InstructionRecord(len(records) + 1, name, _ARITH, taint, _EMPTY,
                                         None, None, False, loop_id, role, None, ptr, None))
        elif kind == JUMP_STEP:
            _, target, test = op
            if test is None or test(fa, fb):
                pc = target
        elif kind == CMP_STEP:
            _, a, b, const, before_jump, loop_id, role = op
            fa, ta, la = regs[a]
            fb, tb, lb = regs[b]
            if ta or tb:
                equal = fa == fb
                triggered = equal and before_jump and steps < step_budget
                append(InstructionRecord(len(records) + 1, "cmp", _COMPARE, _union(ta, tb),
                                         _EMPTY, const, equal, triggered, loop_id, role, None,
                                         None, (_union(la, ta), _union(lb, tb))))
        elif kind == LOAD_STEP:
            _, dst, src, width, loop_id, role = op
            addr, it, il = regs[src]
            if addr + width > size:  # values are never negative
                reason = TermReason.REJECT
                break
            offsets = ((addr, addr + width - 1),)
            value = data[addr] if width == 1 else data[addr] | data[addr + 1] << 8
            taint = _union(offsets, it)
            regs[dst] = (value, taint, _union(offsets, il))
            append(InstructionRecord(len(records) + 1, "movzx", _MOV, taint, offsets, None,
                                     None, False, loop_id, role, None, None, None))
        elif kind == TBL_STEP or kind == MOV_STEP:
            _, dst, src, loop_id, role = op
            value, taint, lineage = regs[src]
            if kind == MOV_STEP:
                regs[dst] = regs[src]
            else:
                regs[dst] = (TABLE[value & 0xFF], _EMPTY, _union(lineage, taint))
            if taint:
                append(InstructionRecord(len(records) + 1, "mov", _MOV, taint, _EMPTY, None,
                                         None, False, loop_id, role, None, None, None))
        elif kind == API_STEP:
            _, src, call, loop_id, role = op
            taint = regs[src][1]
            if taint:
                append(InstructionRecord(len(records) + 1, "call", OpClass.CALL, taint, _EMPTY,
                                         None, None, False, loop_id, role, call, None, None))
        elif kind == STOP_STEP:
            reason = TermReason(op[1])
            break
    else:  # the budget ran out, unless the last step ran off the end
        if pc < len(code) - 1:
            reason = TermReason.STEP_LIMIT

    return VmRunReport(ExecutionTrace(tuple(records)), reason)

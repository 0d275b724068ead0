"""The reference interpreter: ``fieldlens.vm.run`` as it stood before scripts
were decoded at parse time.

It steps over ``ParserScript.instructions`` (mnemonic strings and
``Reg``/``Imm``/``BufRef`` operands) with registers keyed by name, and builds
each record through ``InstructionRecord``'s keyword ``__init__``.  The tests
run it beside ``vm.run`` and require equal ``VmRunReport``s: every record
field and the termination reason.

Its taint and lineage are ``frozenset``s of offsets joined by set union, not
the VM's runs, so the two taint models stay independent: ``as_runs``, which
does not use ``fieldlens.model``, is the one place that turns its sets into
the runs a record holds.
"""

from __future__ import annotations

import operator
from typing import Iterable, Union

from fieldlens.model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    InstructionRecord,
    LoopRole,
    Message,
    OpClass,
    PointerArith,
)
from fieldlens.vm.machine import DEFAULT_STEP_BUDGET, TABLE, TermReason, VmRunReport
from fieldlens.vm.ops import ARITH, CONDITIONAL_JUMPS, Imm, Instr, ParserScript, Reg

_MASK = (1 << 64) - 1
_EMPTY: frozenset[int] = frozenset()
_ZERO = (0, _EMPTY, _EMPTY)

_ARITH_FNS = {
    "add": lambda a, b: (a + b) & _MASK,
    "sub": lambda a, b: (a - b) & _MASK,
    "xor": operator.xor,
    "or": operator.or_,
    "and": operator.and_,
    "shl": lambda a, b: (a << (b & 63)) & _MASK,
    "shr": lambda a, b: a >> (b & 63),
}
_POINTER_ARITH = {
    "add.ptr": PointerArith.POINTER_INCREMENT,
    "sub.ctr": PointerArith.COUNTER_DECREMENT,
}
_JUMP_TESTS = {
    "jmp": lambda a, b: True,
    "je": operator.eq,
    "jne": operator.ne,
    "jlt": operator.lt,
    "jle": operator.le,
    "jgt": operator.gt,
    "jge": operator.ge,
}
_API_ROLES = {"length": ArgRole.LENGTH_ARG, "buffer": ArgRole.BUFFER_ARG, "other": ArgRole.OTHER}


def as_runs(offsets: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The maximal runs of consecutive ``offsets``, as inclusive ``(lo, hi)``
    pairs in order: the runs that a record holds for that set."""
    out: list[tuple[int, int]] = []
    for o in sorted(set(offsets)):
        if out and o == out[-1][1] + 1:
            out[-1] = (out[-1][0], o)
        else:
            out.append((o, o))
    return tuple(out)


def reference_run(
    script: ParserScript,
    message: Message,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> VmRunReport:
    """Execute ``script`` over ``message`` one mnemonic at a time."""
    regs = {f"r{i}": _ZERO for i in range(16)}
    data = message.data
    code = script.instructions
    records: list[InstructionRecord] = []
    flags = (0, 0)
    pc = steps = 0
    reason = TermReason.ACCEPT

    def read(op: Union[Reg, Imm]) -> tuple[int, frozenset[int], frozenset[int]]:
        return regs[op.name] if isinstance(op, Reg) else (op.value, _EMPTY, _EMPTY)

    def emit(ins: Instr, name: str, op_class: OpClass, accessed: frozenset[int],
             reads: frozenset[int] = _EMPTY, lineage=None, **kw) -> None:
        role = None
        if ins.loop_id is not None:
            role = LoopRole.TERMINATION if ins.is_termination_cmp else LoopRole.BODY
        if lineage is not None:
            lineage = (as_runs(lineage[0]), as_runs(lineage[1]))
        records.append(InstructionRecord(
            len(records) + 1, name, op_class, as_runs(accessed), as_runs(reads),
            loop_id=ins.loop_id, loop_role=role, operand_lineage=lineage, **kw,
        ))

    while pc < len(code):
        if steps >= step_budget:
            reason = TermReason.STEP_LIMIT
            break
        steps += 1
        ins = code[pc]
        mnem, ops = ins.mnemonic, ins.operands
        pc += 1

        if mnem in ("movzx", "movzx16"):
            width = 2 if mnem == "movzx16" else 1
            addr, idx_taint, idx_lineage = read(ops[1].index)
            if addr < 0 or addr + width > len(data):
                reason = TermReason.REJECT
                break
            offsets = frozenset(range(addr, addr + width))
            value = int.from_bytes(data[addr : addr + width], "little")
            regs[ops[0].name] = (value, offsets | idx_taint, offsets | idx_lineage)
            emit(ins, "movzx", OpClass.MOV_SERIES, offsets | idx_taint, reads=offsets)
        elif mnem in ("mov", "tbl"):
            value, taint, lineage = read(ops[1])
            if mnem == "mov":
                regs[ops[0].name] = (value, taint, lineage)
            else:
                regs[ops[0].name] = (TABLE[value & 0xFF], _EMPTY, lineage | taint)
            if taint:
                emit(ins, "mov", OpClass.MOV_SERIES, taint)
        elif mnem in ARITH:
            (va, ta, la), (vb, tb, lb) = read(ops[0]), read(ops[1])
            base = mnem.split(".")[0]
            taint = ta | tb
            regs[ops[0].name] = (_ARITH_FNS[base](va, vb), taint, la | lb | taint)
            if taint:
                emit(ins, base, OpClass.ARITH_BITWISE, taint,
                     pointer_arith=_POINTER_ARITH.get(mnem))
        elif mnem == "cmp":
            (va, ta, la), (vb, tb, lb) = read(ops[0]), read(ops[1])
            flags = (va, vb)
            if ta or tb:
                const = None
                imm = next((op for op in ops if isinstance(op, Imm)), None)
                if imm is not None:  # its shortest little-endian bytes
                    width = max(1, (imm.value.bit_length() + 7) // 8)
                    const = imm.value.to_bytes(width, "little")
                triggered = (va == vb and steps < step_budget and pc < len(code)
                             and code[pc].mnemonic in CONDITIONAL_JUMPS)
                emit(ins, "cmp", OpClass.COMPARE, ta | tb, compared_const=const,
                     cmp_result=va == vb, triggered_jump=triggered,
                     lineage=(la | ta, lb | tb))
        elif mnem in _JUMP_TESTS:
            if _JUMP_TESTS[mnem](*flags):
                pc = ops[0].value
        elif mnem == "api":
            taint = read(ops[1])[1]
            if taint:
                emit(ins, "call", OpClass.CALL, taint,
                     api_call=ApiCall(ops[0], _API_ROLES[ops[2].lower()]))
        elif mnem in ("accept", "reject"):
            reason = TermReason(mnem.upper())
            break
        elif mnem not in ("loop", "endloop"):
            raise AssertionError(f"unhandled mnemonic {mnem}")

    return VmRunReport(ExecutionTrace(tuple(records)), reason)

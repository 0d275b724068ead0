"""Parser-script instruction set and the assembly-like text syntax.

A script is a sequence of lines, each ``mnemonic operand, operand`` with
optional leading ``label:`` definitions, ``;`` comments, and a ``name``
directive.  Operands are registers (``r0`` .. ``r15``, ASCII, no leading
zero), integer immediates (ASCII decimal or ``0x`` hex, 0 .. 2**64-1), buffer
references ``buf[imm]`` / ``buf[reg]``, or names (letters, digits and ``_``,
as labels are spelled): jump targets, loop ids, api names and roles.  Loops
are bracketed explicitly with ``loop ID`` / ``endloop ID`` marker
pseudo-instructions, so loop membership needs no control-flow heuristics.

Instruction summary (dst is always written, srcs are read):

=============  =======================================================
``movzx  r, buf[x]``   zero-extended 1-byte load, taints r with the offset
``movzx16 r, buf[x]``  2-byte little-endian load, taints r with both offsets
``mov    r, src``      register/immediate move
``tbl    r, src``      lookup in a fixed 16-bit table; drops taint, keeps
                       provenance (models a parser's constant tables)
``add sub xor or and shl shr  r, src``  arithmetic / bitwise
``add.ptr r, src``     add, annotated as pointer increment
``sub.ctr r, src``     sub, annotated as counter decrement
``cmp    a, b``        compare; sets the flag consumed by jumps
``jmp je jne jlt jle jgt jge  label``   (conditional) jumps
``api    name, src, role``  pseudo library call (role: length|buffer|other)
``loop ID`` / ``endloop ID``  loop extent markers
``accept`` / ``reject``       terminate the run
=============  =======================================================

A script is decoded once, when it is parsed, into ``ParserScript.code``:
one tuple per instruction, led by its ``*_STEP`` kind (see ``_decode``),
then an ``accept`` step where running off the end lands.  Every value
operand is a slot of the register file: ``r0`` .. ``r15`` are slots 0 .. 15
and each distinct immediate has a read-only slot after them, whose initial
contents ``ParserScript.slots`` holds.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..model import ApiCall, ArgRole, LoopRole, Offsets, PointerArith

CONDITIONAL_JUMPS = {"je", "jne", "jlt", "jle", "jgt", "jge"}
JUMPS = CONDITIONAL_JUMPS | {"jmp"}
ARITH = {"add", "sub", "xor", "or", "and", "shl", "shr", "add.ptr", "sub.ctr"}


class ScriptError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Reg:
    name: str


@dataclass(frozen=True)
class Imm:
    value: int


@dataclass(frozen=True)
class BufRef:
    index: Union[Reg, Imm]


Operand = Union[Reg, Imm, BufRef, str]


@dataclass(frozen=True)
class Instr:
    mnemonic: str
    operands: tuple[Operand, ...]
    line_no: int
    # filled in by static analysis:
    loop_id: Optional[str] = None
    is_termination_cmp: bool = False


@dataclass(frozen=True)
class ParserScript:
    name: str
    instructions: tuple[Instr, ...]
    code: tuple[tuple, ...] = field(repr=False)  # decoded from instructions
    slots: tuple[tuple[int, Offsets, Offsets], ...] = field(repr=False)


_MASK = (1 << 64) - 1
#: decoded step kinds, in the order ``machine.run`` tests them
(ARITH_STEP, JUMP_STEP, CMP_STEP, LOAD_STEP, TBL_STEP, MOV_STEP, API_STEP, STOP_STEP,
 NOP_STEP) = range(9)
#: value function of each arithmetic base operator (``add.ptr`` is ``add``)
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
    "add.ptr": PointerArith.POINTER_INCREMENT, "sub.ctr": PointerArith.COUNTER_DECREMENT,
}
#: whether each conditional jump is taken, given the last compare's two values
_JUMP_TESTS = dict(je=operator.eq, jne=operator.ne, jlt=operator.lt, jle=operator.le,
                   jgt=operator.gt, jge=operator.ge)
_API_ROLES = {"length": ArgRole.LENGTH_ARG, "buffer": ArgRole.BUFFER_ARG, "other": ArgRole.OTHER}


def _parse_operand(tok: str, line_no: int) -> Operand:
    if not tok:
        raise ScriptError(line_no, "empty operand")
    if tok.startswith("buf[") and tok.endswith("]"):
        inner = tok[4:-1].strip()
        index = _reg_or_imm(inner, line_no)
        if index is None:
            raise ScriptError(line_no, f"expected register or immediate, got {inner!r}")
        return BufRef(index)
    return _reg_or_imm(tok, line_no) or tok  # else a name, if _is_name holds


_REGISTER = re.compile(r"r(?:1[0-5]|[0-9])")  # r0..r15, ASCII, no leading zero
_INTEGER = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


def _reg_or_imm(tok: str, line_no: int) -> Optional[Union[Reg, Imm]]:
    """The register or immediate ``tok`` spells, or None; an immediate
    outside 0..2**64-1 is a ScriptError."""
    if _REGISTER.fullmatch(tok):
        return Reg(tok)
    if not _INTEGER.fullmatch(tok):
        return None
    base = 16 if tok[:2] in ("0x", "0X") else 10
    # 2**64-1 has 16 hex or 20 decimal digits; int() refuses thousands
    digits = tok[2 if base == 16 else 0:].lstrip("0") or "0"
    if len(digits) <= (16 if base == 16 else 20):
        value = int(digits, base)
        if value <= _MASK:
            return Imm(value)
    raise ScriptError(line_no, f"immediate {tok[:40]} is outside 0..2**64-1")


def _is_name(tok: str) -> bool:
    """The label rule: letters, digits and underscores."""
    return tok.replace("_", "").isalnum()


_REG, _VALUE, _BUF, _NAME = "register", "register or immediate", "buffer reference", "name"
_KINDS: dict[str, Callable[[Operand], bool]] = {
    _REG: lambda op: isinstance(op, Reg),
    _VALUE: lambda op: isinstance(op, (Reg, Imm)),
    _BUF: lambda op: isinstance(op, BufRef),
    _NAME: lambda op: isinstance(op, str) and _is_name(op),
}

#: operand kinds of every mnemonic; a mnemonic not listed here is unknown.
#: Loop ids, api names and roles, and jump targets are names; ``_analyze``
#: checks api roles and that jump targets are defined labels.
SIGNATURES: dict[str, tuple[str, ...]] = {
    "movzx": (_REG, _BUF),
    "movzx16": (_REG, _BUF),
    "mov": (_REG, _VALUE),
    "tbl": (_REG, _VALUE),
    "cmp": (_VALUE, _VALUE),
    "api": (_NAME, _VALUE, _NAME),
    "loop": (_NAME,),
    "endloop": (_NAME,),
    "accept": (),
    "reject": (),
    **dict.fromkeys(ARITH, (_REG, _VALUE)),
    **dict.fromkeys(JUMPS, (_NAME,)),
}


def parse_script(text: str, default_name: str = "script") -> ParserScript:
    """Parse the assembly-like syntax; validates structure eagerly."""
    name = default_name
    raw: list[Instr] = []
    labels: dict[str, int] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name "):
            name = line.split(None, 1)[1].strip()
            continue
        while line and ":" in line.split()[0]:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _is_name(label):
                raise ScriptError(line_no, f"bad label {label!r}")
            if label in labels:
                raise ScriptError(line_no, f"duplicate label {label!r}")
            labels[label] = len(raw)
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnem = parts[0]
        if mnem not in SIGNATURES:
            raise ScriptError(line_no, f"unknown mnemonic {mnem!r}")
        kinds = SIGNATURES[mnem]
        tokens = [tok.strip() for tok in parts[1].split(",")] if len(parts) > 1 else []
        operands = tuple(_parse_operand(tok, line_no) for tok in tokens)
        if len(operands) != len(kinds):
            raise ScriptError(
                line_no, f"{mnem} expects {len(kinds)} operand(s), got {len(operands)}"
            )
        for pos, (tok, op, kind) in enumerate(zip(tokens, operands, kinds), start=1):
            if not _KINDS[kind](op):
                raise ScriptError(line_no, f"{mnem} operand {pos} must be a {kind}, got {tok!r}")
        raw.append(Instr(mnem, operands, line_no))

    return _analyze(name, raw, labels)


def _analyze(name: str, raw: list[Instr], labels: dict[str, int]) -> ParserScript:
    """Resolve jump targets, check loop nesting, assign loop ids and roles."""
    # loop spans keyed by id; loops nest, so the innermost loop around an
    # instruction is the top of the open-loop stack
    spans: dict[str, tuple[int, int]] = {}
    stack: list[tuple[str, int]] = []
    innermost: list[Optional[str]] = []
    for idx, ins in enumerate(raw):
        if ins.mnemonic == "endloop":
            loop_id = ins.operands[0]
            if not stack or stack[-1][0] != loop_id:
                raise ScriptError(
                    ins.line_no, f"endloop {loop_id!r} does not close the open loop"
                )
            _, start = stack.pop()
            spans[loop_id] = (start, idx)
        innermost.append(stack[-1][0] if stack else None)
        if ins.mnemonic == "loop":
            loop_id = ins.operands[0]
            if loop_id in spans or any(l == loop_id for l, _ in stack):
                raise ScriptError(ins.line_no, f"duplicate loop id {loop_id!r}")
            stack.append((loop_id, idx))
    if stack:
        raise ScriptError(raw[stack[-1][1]].line_no, f"loop {stack[-1][0]!r} never closed")

    resolved: list[Instr] = []
    code: list[tuple] = []
    # register name or immediate value -> its slot in the register file
    slots: dict[Union[str, int], int] = {f"r{i}": i for i in range(16)}

    def slot(op: Union[Reg, Imm]) -> int:
        return slots.setdefault(op.name if isinstance(op, Reg) else op.value, len(slots))

    for idx, ins in enumerate(raw):
        operands = ins.operands
        if ins.mnemonic == "api":
            role = operands[2]
            if role.lower() not in ("length", "buffer", "other"):
                raise ScriptError(
                    ins.line_no, f"api role must be length/buffer/other, got {role!r}"
                )
        if ins.mnemonic in JUMPS:
            target = operands[0]
            if target not in labels:
                raise ScriptError(ins.line_no, f"unknown jump target {target!r}")
            operands = (Imm(labels[target]),)
        loop_id = innermost[idx]
        before_jump = idx + 1 < len(raw) and raw[idx + 1].mnemonic in CONDITIONAL_JUMPS
        term = False
        if ins.mnemonic == "cmp" and loop_id is not None and before_jump:
            tgt = labels.get(raw[idx + 1].operands[0])
            lo, hi = spans[loop_id]
            term = tgt is not None and not (lo < tgt <= hi)
        resolved.append(
            Instr(ins.mnemonic, operands, ins.line_no, loop_id, term)
        )
        role = None if loop_id is None else LoopRole.TERMINATION if term else LoopRole.BODY
        code.append(_decode(ins.mnemonic, operands, slot, loop_id, role, before_jump))
    code.append((STOP_STEP, "ACCEPT"))
    contents = tuple((0 if isinstance(k, str) else k, (), ()) for k in slots)
    return ParserScript(name, tuple(resolved), tuple(code), contents)


def _decode(mnem, ops, slot, loop_id, role, before_jump) -> tuple:
    """The step ``machine.run`` takes for one instruction, jump target
    resolved: its kind, register file slots, and what its records carry."""
    if mnem in ARITH:
        base = mnem.split(".")[0]
        return (ARITH_STEP, slot(ops[0]), slot(ops[1]), _ARITH_FNS[base], base,
                _POINTER_ARITH.get(mnem), loop_id, role)
    if mnem in JUMPS:
        return (JUMP_STEP, ops[0].value, _JUMP_TESTS.get(mnem))  # jmp: no test
    if mnem == "cmp":
        imm = next((op.value for op in ops if isinstance(op, Imm)), None)
        const = None  # else the immediate's shortest little-endian bytes
        if imm is not None:
            const = imm.to_bytes(max(1, (imm.bit_length() + 7) // 8), "little")
        return (CMP_STEP, slot(ops[0]), slot(ops[1]), const, before_jump, loop_id, role)
    if mnem in ("movzx", "movzx16"):
        width = 2 if mnem == "movzx16" else 1
        return (LOAD_STEP, slot(ops[0]), slot(ops[1].index), width, loop_id, role)
    if mnem in ("tbl", "mov"):
        return (TBL_STEP if mnem == "tbl" else MOV_STEP, slot(ops[0]), slot(ops[1]), loop_id, role)
    if mnem == "api":
        return (API_STEP, slot(ops[1]), ApiCall(ops[0], _API_ROLES[ops[2].lower()]), loop_id, role)
    if mnem in ("accept", "reject"):
        return (STOP_STEP, mnem.upper())
    return (NOP_STEP,)  # loop and endloop markers

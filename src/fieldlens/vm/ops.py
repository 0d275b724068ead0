"""Parser-script instruction set and the assembly-like text syntax.

A script is a sequence of lines, each ``mnemonic operand, operand`` with
optional leading ``label:`` definitions, ``;`` comments, and a ``name``
directive.  Operands are registers (``r0`` .. ``r15``), integer immediates
(decimal or ``0x`` hex), buffer references ``buf[imm]`` / ``buf[reg]``, or
names (letters, digits and ``_``, as labels are spelled): jump targets,
loop ids, api names and roles.  Loops are bracketed explicitly with
``loop ID`` / ``endloop ID`` marker pseudo-instructions, so loop membership
needs no control-flow heuristics.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

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


def _parse_operand(tok: str, line_no: int) -> Operand:
    if not tok:
        raise ScriptError(line_no, "empty operand")
    if tok.startswith("buf[") and tok.endswith("]"):
        inner = tok[4:-1].strip()
        return BufRef(_parse_reg_or_imm(inner, line_no))
    if _is_reg(tok):
        return Reg(tok)
    if _is_int(tok):
        return Imm(_to_int(tok))
    return tok  # a name, if _is_name holds


def _parse_reg_or_imm(tok: str, line_no: int) -> Union[Reg, Imm]:
    if _is_reg(tok):
        return Reg(tok)
    if _is_int(tok):
        return Imm(_to_int(tok))
    raise ScriptError(line_no, f"expected register or immediate, got {tok!r}")


def _is_reg(tok: str) -> bool:
    return (
        len(tok) >= 2
        and tok[0] == "r"
        and tok[1:].isdigit()
        and 0 <= int(tok[1:]) <= 15
    )


def _is_int(tok: str) -> bool:
    try:
        _to_int(tok)
        return True
    except ValueError:
        return False


def _to_int(tok: str) -> int:
    return int(tok, 16) if tok.lower().startswith("0x") else int(tok)


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
        term = False
        if ins.mnemonic == "cmp" and loop_id is not None and idx + 1 < len(raw):
            nxt = raw[idx + 1]
            if nxt.mnemonic in CONDITIONAL_JUMPS:
                tgt = labels.get(nxt.operands[0])
                lo, hi = spans[loop_id]
                if tgt is not None and not (lo < tgt <= hi):
                    term = True
        resolved.append(
            Instr(ins.mnemonic, operands, ins.line_no, loop_id, term)
        )
    return ParserScript(name, tuple(resolved))

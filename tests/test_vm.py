import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens.model import ArgRole, LoopRole, Message, OpClass, PointerArith
from fieldlens.traceio import serialize_corpus, serialize_ground_truth
from fieldlens.vm import TermReason, bundled_parsers, parse_script, run
from fieldlens.vm import machine
from fieldlens.vm.machine import TABLE
from fieldlens.vm.ops import ARITH, JUMPS, SIGNATURES, Reg, ScriptError
from reference_vm import as_runs, reference_run


def script(text):
    return parse_script(text)


# --- script parsing ---------------------------------------------------------


def test_unknown_mnemonic_rejected():
    with pytest.raises(ScriptError):
        script("frobnicate r0, r1")


def test_unknown_jump_target_rejected():
    with pytest.raises(ScriptError):
        script("jmp nowhere")


def test_bad_loop_nesting_rejected():
    with pytest.raises(ScriptError):
        script("loop a\nloop b\nendloop a\nendloop b")
    with pytest.raises(ScriptError):
        script("loop a\naccept")


def test_syntax_accepts_labels_comments_and_immediates():
    s = script(
        """
        ; leading comment
        start: movzx r0, buf[0]     ; trailing comment
        cmp r0, 0x10
        jlt start
        cmp r0, 16
        accept
        """
    )
    assert [i.mnemonic for i in s.instructions] == [
        "movzx", "cmp", "jlt", "cmp", "accept",
    ]
    # hex and decimal immediates parse to the same value
    assert s.instructions[1].operands[1] == s.instructions[3].operands[1]


def test_duplicate_label_rejected():
    with pytest.raises(ScriptError):
        script("a:\naccept\na:\nreject")


def test_name_directive():
    assert script("name demo-parser\naccept").name == "demo-parser"


def test_termination_compare_detected_statically():
    s = script(
        """
        mov r1, 0
        loop l
    top:
        cmp r1, 3
        jge out
        add r1, 1
        jmp top
        endloop l
    out:
        accept
        """
    )
    cmps = [i for i in s.instructions if i.mnemonic == "cmp"]
    assert cmps[0].loop_id == "l" and cmps[0].is_termination_cmp


# --- execution semantics ----------------------------------------------------


def test_empty_script_accepts_with_empty_trace():
    report = run(script(""), Message("m", b"\x01"))
    assert report.terminated is TermReason.ACCEPT
    assert report.trace.records == ()


def test_start_byte_compares_emit_compare_records():
    s = script(
        """
        movzx r0, buf[0]
        cmp r0, 0x05
        jne bad
        movzx r1, buf[1]
        cmp r1, 0x64
        jne bad
        accept
    bad:
        reject
        """
    )
    report = run(s, Message("m", b"\x05\x64\x00"))
    cmps = [r for r in report.trace.records if r.op_class is OpClass.COMPARE]
    assert [r.accessed_offsets for r in cmps] == [((0, 0),), ((1, 1),)]
    assert all(r.cmp_result for r in cmps)
    assert all(r.compared_const is not None for r in cmps)
    assert report.terminated is TermReason.ACCEPT


def test_loop_emits_identical_record_groups_per_byte():
    s = script(
        """
        mov r1, 10
        mov r2, 0
        loop body
    top:
        cmp r1, 21
        jge done
        movzx r3, buf[r1]
        xor r3, r2
        add r1, 1
        jmp top
        endloop body
    done:
        accept
        """
    )
    msg = Message("m", bytes(range(30)))
    report = run(s, msg)
    per_byte = {}
    for r in report.trace.records:
        if r.loop_id == "body":
            for lo, hi in r.accessed_offsets:
                for off in range(lo, hi + 1):
                    per_byte.setdefault(off, []).append(r.operator)
    assert set(per_byte) == set(range(10, 21))
    groups = {tuple(ops) for ops in per_byte.values()}
    assert len(groups) == 1  # identical operator sequence per byte


def test_out_of_bounds_read_rejects():
    report = run(script("movzx r0, buf[9]\naccept"), Message("m", b"\x00"))
    assert report.terminated is TermReason.REJECT


def test_step_budget_exhaustion():
    s = script("top:\njmp top")
    report = run(s, Message("m", b"\x00"), step_budget=25)
    assert report.terminated is TermReason.STEP_LIMIT


def test_determinism():
    parser = bundled_parsers()[0]
    msgs, _ = parser.generate(5, seed=11)
    for msg in msgs:
        first = run(parser.script, msg)
        second = run(parser.script, msg)
        assert first == second


def test_taint_union_through_arithmetic():
    s = script(
        """
        movzx r0, buf[0]
        movzx r1, buf[3]
        add r0, r1
        accept
        """
    )
    report = run(s, Message("m", b"\x01\x02\x03\x04"))
    add = report.trace.records[-1]
    assert add.operator == "add"
    assert add.accessed_offsets == ((0, 0), (3, 3))


def test_table_lookup_drops_taint_but_keeps_lineage():
    s = script(
        f"""
        movzx r0, buf[0]
        tbl r1, r0
        mov r2, r1
        movzx r3, buf[2]
        cmp r1, r3
        cmp r1, {TABLE[0x07]:#x}
        jne bad
        accept
        bad:
        reject
        """
    )
    report = run(s, Message("m", b"\x07\x00\x09"))
    # the script accepts only if the lookup loaded TABLE[0x07]
    assert report.terminated is TermReason.ACCEPT
    assert run(s, Message("m", b"\x08\x00\x09")).terminated is TermReason.REJECT
    ops = [r.operator for r in report.trace.records]
    # the mov and the compare of the laundered value are silent (untainted)
    assert ops == ["movzx", "mov", "movzx", "cmp"]
    cmp_rec = report.trace.records[-1]
    assert cmp_rec.accessed_offsets == ((2, 2),)
    assert cmp_rec.operand_lineage == (((0, 0),), ((2, 2),))


_taint = st.frozensets(st.integers(0, 20), max_size=8)


@given(_taint, _taint)
@settings(max_examples=300, deadline=None)
def test_the_taint_union_of_runs_is_set_union(a, b):
    ra, rb = as_runs(a), as_runs(b)
    got = machine._union(ra, rb)
    assert got == as_runs(a | b)
    if not b or a == b:
        assert got is ra
    elif not a:
        assert got is rb


def test_pointer_arith_annotations():
    s = script(
        """
        movzx r0, buf[0]
        mov r1, 4
        add.ptr r1, r0
        sub.ctr r0, 1
        accept
        """
    )
    report = run(s, Message("m", b"\x02\x00\x00\x00"))
    kinds = [r.pointer_arith for r in report.trace.records if r.pointer_arith]
    assert kinds == [
        PointerArith.POINTER_INCREMENT,
        PointerArith.COUNTER_DECREMENT,
    ]


def test_api_call_record():
    s = script(
        """
        movzx r0, buf[1]
        api recv_len, r0, length
        accept
        """
    )
    report = run(s, Message("m", b"\x00\x08"))
    call = report.trace.records[-1]
    assert call.op_class is OpClass.CALL
    assert call.api_call.name == "recv_len"
    assert call.api_call.tainted_arg_role is ArgRole.LENGTH_ARG
    assert call.accessed_offsets == ((1, 1),)


def test_triggered_jump_marks_true_compare_followed_by_branch():
    s = script(
        """
        movzx r0, buf[0]
        cmp r0, 0x05
        je yes
        reject
    yes:
        accept
        """
    )
    report = run(s, Message("m", b"\x05"))
    assert report.trace.records[-1].triggered_jump
    report = run(s, Message("m", b"\x06"))
    assert not report.trace.records[-1].triggered_jump


def test_triggered_jump_needs_the_jump_to_run_within_the_step_budget():
    s = script("movzx r0, buf[0]\ncmp r0, 1\nje x\nx: accept")
    for budget, triggered in ((2, False), (3, True)):
        cmp = run(s, Message("m", b"\x01"), budget).trace.records[1]
        assert cmp.operator == "cmp" and cmp.cmp_result
        assert cmp.triggered_jump is triggered


@pytest.mark.parametrize("last", ["accept", "reject"])
def test_every_mnemonic_of_the_signature_table_runs(last):
    body = [
        "loop l", "movzx r0, buf[0]", "movzx16 r1, buf[0]", "mov r2, r0", "tbl r3, r0",
        *(f"{m} r0, r1" for m in sorted(ARITH)),
        "cmp r0, r1",
        *(f"{j} next_{j}\nnext_{j}:" for j in sorted(JUMPS)),
        "api f, r0, length", "endloop l",
    ]
    s = script("\n".join([*body, last]))
    assert {i.mnemonic for i in s.instructions} | {"accept", "reject"} == set(SIGNATURES)
    # straight-line code: every instruction runs once, the last one included
    assert run(s, Message("m", b"\x01\x02")).terminated is TermReason(last.upper())


#: sha256 of ``serialize_corpus`` over 200 messages of a bundled generator and
#: their traces: any change to a trace the VM emits for them shows here
CORPUS_DIGESTS = {
    ("binary-frame", 0): "e1fbf444e32880dcea457d1c6a74778855066a15b1e28f479ba3384af2fe49ac",
    ("binary-frame", 1): "df8f115af4e9508972b934daefa6edbef980c7bda7151e0cf41646714f8524cb",
    ("text-command", 0): "c7a2a8a1075b90578e902f1750afffb26d19e1496f500890e25ff0a1aff62ee8",
    ("text-command", 1): "09778923b50710a5dba621dbf9120e3d04c741b6830a7a21cec96b49dff8e3e0",
}


@pytest.mark.parametrize("name, seed", sorted(CORPUS_DIGESTS))
def test_bundled_corpora_keep_their_recorded_bytes(name, seed):
    (parser,) = [p for p in bundled_parsers() if p.name == name]
    messages, _ = parser.generate(200, seed)
    traces = [run(parser.script, m).trace for m in messages]
    text = serialize_corpus(messages, traces)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGESTS[name, seed]


#: sha256 of ``serialize_ground_truth`` over the true fields of the same
#: corpora: any change to a ``gt`` line the writer emits for them shows here
GROUND_TRUTH_DIGESTS = {
    ("binary-frame", 0): "9f6eab7dea619c48d3def4484db6b0d6a03510381179d4c090cbc6b93ca31897",
    ("binary-frame", 1): "63e71ee0b961a79d9c152774c038af2aaddbe03084d44fbcfe6867b706052ee5",
    ("text-command", 0): "65cba00d063218c5d9a390bcecff51e86b337f306a121df192d037d853f84608",
    ("text-command", 1): "d9d8fb72a6774cb4588d7aa29402534ae6f9b991962ef9db1c72c653749f48be",
}


@pytest.mark.parametrize("name, seed", sorted(GROUND_TRUTH_DIGESTS))
def test_bundled_ground_truth_keeps_its_recorded_bytes(name, seed):
    (parser,) = [p for p in bundled_parsers() if p.name == name]
    _, truths = parser.generate(200, seed)
    text = serialize_ground_truth(truths)
    assert hashlib.sha256(text.encode()).hexdigest() == GROUND_TRUTH_DIGESTS[name, seed]


def test_loop_roles_assigned():
    parser = bundled_parsers()[0]
    msgs, _ = parser.generate(1, seed=2)
    report = run(parser.script, msgs[0])
    roles = {
        (r.loop_id, r.loop_role)
        for r in report.trace.records
        if r.loop_id is not None
    }
    assert ("P", LoopRole.TERMINATION) in roles
    assert ("P", LoopRole.BODY) in roles


def test_generator_with_count_zero_yields_empty_corpus():
    for parser in bundled_parsers():
        messages, truths = parser.generate(0, seed=0)
        assert messages == [] and truths == []


def test_bundled_ground_truth_matches_required_binary_shape():
    parser = bundled_parsers()[0]
    messages, truths = parser.generate(40, seed=0)
    chunk_truth = next(
        t for m, (_, t) in zip(messages, truths) if m.data[3] == 0x01
    )
    ranges = [(a.field.start, a.field.end) for a in chunk_truth]
    assert ranges == [(0, 1), (2, 2), (3, 3), (4, 5), (6, 7), (8, 9), (10, 17), (18, 19)]


def test_every_read_byte_appears_in_some_record():
    for parser in bundled_parsers():
        msgs, _ = parser.generate(10, seed=5)
        for msg in msgs:
            report = run(parser.script, msg)
            assert report.terminated is TermReason.ACCEPT
            touched = set()
            for rec in report.trace.records:
                touched.update(o for lo, hi in rec.accessed_offsets for o in range(lo, hi + 1))
            assert touched == set(range(len(msg)))


# --- independent taint oracle ----------------------------------------------
#
# A second interpreter that keeps the reference semantics: registers map to
# (value, labels) pairs with no lineage, and it builds no records, only the
# (operator, accessed offsets) event stream, its offsets as sets turned into
# runs by ``as_runs``.  The VM's records must match it exactly, so no record
# can ever contain an offset the dataflow could not reach.


def oracle_events(s, message, budget=100_000):
    data = message.data
    regs = {f"r{i}": (0, frozenset()) for i in range(16)}

    def val(op):
        return regs[op.name] if isinstance(op, Reg) else (op.value, frozenset())

    events = []
    flags = (0, 0)
    pc = 0
    code = s.instructions
    while pc < len(code) and budget > 0:
        budget -= 1
        ins = code[pc]
        m = ins.mnemonic
        pc += 1
        if m in ("movzx", "movzx16"):
            width = 2 if m == "movzx16" else 1
            base, itaint = val(ins.operands[1].index)
            if base < 0 or base + width > len(data):
                break
            labels = frozenset(range(base, base + width)) | itaint
            regs[ins.operands[0].name] = (
                int.from_bytes(data[base : base + width], "little"),
                labels,
            )
            events.append(("movzx", labels))
        elif m == "mov":
            v, t = val(ins.operands[1])
            regs[ins.operands[0].name] = (v, t)
            if t:
                events.append(("mov", t))
        elif m == "tbl":
            v, t = val(ins.operands[1])
            regs[ins.operands[0].name] = (TABLE[v & 0xFF], frozenset())
            if t:
                events.append(("mov", t))
        elif m in ARITH:
            va, ta = val(ins.operands[0])
            vb, tb = val(ins.operands[1])
            fn = {
                "add": lambda x, y: x + y,
                "sub": lambda x, y: x - y,
                "xor": lambda x, y: x ^ y,
                "or": lambda x, y: x | y,
                "and": lambda x, y: x & y,
                "shl": lambda x, y: x << (y & 63),
                "shr": lambda x, y: x >> (y & 63),
            }[m.split(".")[0]]
            regs[ins.operands[0].name] = (fn(va, vb) & ((1 << 64) - 1), ta | tb)
            if ta | tb:
                events.append((m.split(".")[0], ta | tb))
        elif m == "cmp":
            va, ta = val(ins.operands[0])
            vb, tb = val(ins.operands[1])
            flags = (va, vb)
            if ta | tb:
                events.append(("cmp", ta | tb))
        elif m == "jmp":
            pc = ins.operands[0].value
        elif m in ("je", "jne", "jlt", "jle", "jgt", "jge"):
            va, vb = flags
            if {
                "je": va == vb,
                "jne": va != vb,
                "jlt": va < vb,
                "jle": va <= vb,
                "jgt": va > vb,
                "jge": va >= vb,
            }[m]:
                pc = ins.operands[0].value
        elif m == "api":
            _, t = val(ins.operands[1])
            if t:
                events.append(("call", t))
        elif m in ("loop", "endloop"):
            pass
        elif m in ("accept", "reject"):
            break
    return events


def random_straightline_script(rng):
    lines = []
    for _ in range(rng.randint(1, 50)):
        choice = rng.randrange(6)
        rd = f"r{rng.randrange(6)}"
        rs = f"r{rng.randrange(6)}"
        if choice == 0:
            lines.append(f"movzx {rd}, buf[{rng.randrange(8)}]")
        elif choice == 1:
            lines.append(f"mov {rd}, {rs}")
        elif choice == 2:
            op = rng.choice(["add", "sub", "xor", "or", "and"])
            lines.append(f"{op} {rd}, {rs}")
        elif choice == 3:
            lines.append(f"cmp {rd}, {rng.randrange(256)}")
        elif choice == 4:
            lines.append(f"tbl {rd}, {rs}")
        else:
            lines.append(f"api probe, {rd}, other")
    lines.append("accept")
    return parse_script("\n".join(lines))


def test_vm_records_match_taint_oracle_on_random_scripts():
    rng = random.Random(2024)
    for _ in range(60):
        s = random_straightline_script(rng)
        msg = Message("m", bytes(rng.randrange(256) for _ in range(8)))
        got = [
            (r.operator, r.accessed_offsets) for r in run(s, msg).trace.records
        ]
        assert got == [(op, as_runs(labels)) for op, labels in oracle_events(s, msg)]


def test_vm_records_match_taint_oracle_on_bundled_parsers():
    for parser in bundled_parsers():
        msgs, _ = parser.generate(6, seed=3)
        for msg in msgs:
            got = [
                (r.operator, r.accessed_offsets)
                for r in run(parser.script, msg).trace.records
            ]
            assert got == [
                (op, as_runs(labels)) for op, labels in oracle_events(parser.script, msg)
            ]


# --- the reference interpreter ---------------------------------------------
#
# ``reference_vm.reference_run`` steps over the parsed instructions one
# mnemonic at a time, as ``vm.run`` did before scripts were decoded.  Whole
# reports must match: every record field (seq, loop role, compared constant,
# triggered jump, lineage, api call, pointer tag) and the termination reason.

_VALUE_OPS = sorted(ARITH)


def _value(rng, regs):
    """A register, or an immediate spelled in decimal or hex."""
    if rng.random() < 0.6:
        return rng.choice(regs)
    value = rng.choice([0, 1, 2, 3, rng.randrange(256), rng.randrange(1 << 16), (1 << 64) - 1])
    return hex(value) if rng.random() < 0.5 else str(value)


def _random_step(rng, regs, labels_ahead):
    """One instruction that writes only ``regs``; jumps go to ``labels_ahead``."""
    dst = rng.choice(regs)
    choice = rng.randrange(12)
    if choice <= 1:
        index = rng.choice(regs) if rng.random() < 0.3 else str(rng.randrange(8))
        return f"{rng.choice(['movzx', 'movzx16'])} {dst}, buf[{index}]"
    if choice <= 3:
        return f"{['mov', 'tbl'][choice - 2]} {dst}, {rng.choice(regs)}"
    if choice <= 5:
        return f"{rng.choice(_VALUE_OPS)} {dst}, {_value(rng, regs)}"
    if choice <= 7:
        return f"cmp {_value(rng, regs)}, {_value(rng, regs)}"
    if choice == 8 and labels_ahead:
        return f"{rng.choice(sorted(JUMPS))} {rng.choice(labels_ahead)}"
    if choice == 9:
        role = rng.choice(["length", "buffer", "other"])
        return f"api f{rng.randrange(3)}, {_value(rng, regs)}, {role}"
    if choice == 10:  # a table lookup's result moved, then compared or passed on
        other = rng.choice(regs)
        use = rng.choice([f"cmp {other}, {rng.choice(regs)}", f"api g, {other}, other"])
        return f"tbl {dst}, {rng.choice(regs)}\nmov {other}, {dst}\n{use}"
    target = rng.choice(labels_ahead) if labels_ahead else "end"
    jump = rng.choice(sorted(JUMPS - {"jmp"}))
    return f"cmp {rng.choice(regs)}, {rng.randrange(4)}\n{jump} {target}"


def random_control_flow_script(rng):
    """Straight-line runs with forward jumps, and up to two bounded loops,
    one possibly inside the other.  A loop's counter (r14, r15) and bound
    (r12, r13) are written only by its own set-up and ``add``, so it counts
    up to its bound."""
    regs = [f"r{i}" for i in range(5)]
    lines = []
    n_labels = 0

    def straight(count, ahead):
        nonlocal n_labels
        for _ in range(count):
            if rng.random() < 0.2:
                lines.append(f"f{n_labels}:")
                n_labels += 1
            # mostly the next label, a few instructions on
            targets = [f"f{n_labels}"] * 4 + [f"f{n_labels + 1}", f"f{n_labels + 2}", *ahead]
            lines.append(_random_step(rng, regs, targets))

    def loop(depth, ahead):
        counter, bound, tag = f"r{15 - depth}", f"r{13 - depth}", f"L{depth}"
        # the bound is 1..4, or a register's value masked to 0..3, so the
        # termination compare may read message bytes
        if rng.random() < 0.5:
            lines.extend([f"mov {bound}, {rng.randrange(1, 5)}"])
        else:
            lines.extend([f"mov {bound}, {rng.choice(regs)}", f"and {bound}, 3"])
        lines.extend([f"mov {counter}, 0", f"loop {tag}", f"top{depth}:",
                      f"cmp {counter}, {bound}", f"jge out{depth}"])
        straight(rng.randrange(1, 6), [f"out{depth}", *ahead])
        if depth == 0 and rng.random() < 0.4:
            loop(1, [f"out0", *ahead])
        straight(rng.randrange(0, 3), [f"out{depth}", *ahead])
        lines.extend([f"add{rng.choice(['', '.ptr'])} {counter}, 1", f"jmp top{depth}",
                      f"endloop {tag}", f"out{depth}:"])

    straight(rng.randrange(0, 8), ["end"])
    if rng.random() < 0.8:
        loop(0, ["end"])
    straight(rng.randrange(0, 8), ["end"])
    if rng.random() < 0.5:
        lines.append(rng.choice(["accept", "reject", "sub.ctr r0, r1"]))
    # every forward label that some jump may name, defined at the end
    lines += [f"f{i}:" for i in range(n_labels, n_labels + 3)]
    lines += ["end:", rng.choice(["accept", "reject", ""])]
    return parse_script("\n".join(lines))


def test_vm_matches_the_reference_interpreter_on_random_control_flow():
    rng = random.Random(31)
    reasons = set()
    for _ in range(400):
        s = random_control_flow_script(rng)
        for _ in range(3):
            alphabet = rng.choice([range(4), range(256)])
            size = rng.choice([rng.randrange(1, 8), rng.randrange(8, 24), rng.randrange(8, 24)])
            msg = Message("m", bytes(rng.choice(alphabet) for _ in range(size)))
            budget = rng.choice([0, 1, rng.randrange(2, 40), *[rng.randrange(40, 400)] * 3, 100_000])
            report = run(s, msg, budget)
            assert report == reference_run(s, msg, budget)
            reasons.add(report.terminated)
    assert reasons == set(TermReason)


@pytest.mark.parametrize("text", [
    "movzx r0, buf[0]\ncmp r0, 1\nje x\nmov r1, r0\nx:",
    "movzx r0, buf[0]\ncmp r0, 1\nje x\nmov r1, r0\nx: accept",
    "top: movzx r0, buf[0]\ncmp r0, 1\njne top",
])
def test_the_last_step_of_the_budget_ends_the_run_as_the_reference_does(text):
    """Running off the end on the budget's last step accepts; a budget that
    runs out before then is a step limit."""
    s = script(text)
    for data in (b"\x01", b"\x02"):
        reasons = []
        for budget in range(7):
            report = run(s, Message("m", data), budget)
            assert report == reference_run(s, Message("m", data), budget)
            reasons.append(report.terminated)
        assert TermReason.STEP_LIMIT in reasons


@pytest.mark.parametrize("budget", [None, 1, 7, 60, 61, 200])
def test_vm_matches_the_reference_interpreter_on_bundled_parsers(budget):
    kw = {} if budget is None else {"step_budget": budget}
    for parser in bundled_parsers():
        msgs, _ = parser.generate(8, seed=4)
        for msg in msgs:
            assert run(parser.script, msg, **kw) == reference_run(parser.script, msg, **kw)


# --- register and immediate spelling ----------------------------------------


@pytest.mark.parametrize("line", [
    "add r2, r01", "mov r01, 5", "mov r16, 1", "mov r١, 1", "mov R1, 2",
    "cmp r0, -1", "cmp r0, +1", "mov r0, 1_0", "mov r0, ١", "mov r0, 0x", "mov r0, 0b1",
    "movzx r0, buf[-1]", "movzx r0, buf[r01]",
])
def test_a_misspelt_register_or_immediate_is_a_script_error(line):
    with pytest.raises(ScriptError, match="line 1: "):
        script(f"{line}\naccept")


def test_an_immediate_outside_64_bits_is_a_script_error():
    top = (1 << 64) - 1
    s = script(f"mov r0, {top}\nmov r1, {top:#x}\nmov r2, 0X1f")
    assert [i.operands[1].value for i in s.instructions] == [top, top, 31]
    for text in (str(top + 1), hex(top + 1)):
        with pytest.raises(ScriptError, match=f"line 2: immediate {text} is outside 0..2\\*\\*64-1"):
            script(f"accept\ncmp r0, {text}")
    # past int()'s limit on decimal digits, and leading zeros that stay inside it
    with pytest.raises(ScriptError, match="line 1: immediate 9{40} is outside"):
        script("mov r0, " + "9" * 5000)
    assert script("mov r0, " + "0" * 5000 + "7").instructions[0].operands[1].value == 7


def test_each_register_and_immediate_has_its_own_slot():
    lines = [f"mov r{i}, {i + 100}" for i in range(16)]
    lines += ["movzx r0, buf[0]", *(f"add r{i}, r0" for i in range(1, 16))]
    lines += [f"cmp r{i}, {i + 101}" for i in range(1, 16)]  # the byte is 1
    s = script("\n".join(lines))
    report = run(s, Message("m", b"\x01"))
    assert [r.cmp_result for r in report.trace.records if r.operator == "cmp"] == [True] * 15
    assert report == reference_run(s, Message("m", b"\x01"))

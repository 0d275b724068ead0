import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

import fieldlens.detectors as detectors
import fieldlens.model as model
from fieldlens.detectors import (
    LIBRARY,
    RULE_IDS,
    RULES,
    FieldAnnotation,
    SemanticFunction,
    SemanticType,
    annotate,
    annotate_format,
)
from fieldlens.extraction import extract_format
from fieldlens.model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    Field,
    InstructionRecord,
    LoopRole,
    Message,
    OpClass,
    PointerArith,
)
from fieldlens.pipeline import infer_corpus
from fieldlens.vm import bundled_parsers, run as vm_run

from conftest import evidence_for
from corpora import shapes_of
from reference_vm import as_runs


def rec(seq, op, klass, offsets, reads=None, **kw):
    """A record that accesses, and reads, the sets given, spelt as runs."""
    if reads is None:
        reads = offsets if klass is OpClass.MOV_SERIES else ()
    return InstructionRecord(
        seq=seq, operator=op, op_class=klass,
        accessed_offsets=as_runs(offsets), reads=as_runs(reads), **kw,
    )


def mov(seq, offsets, **kw):
    return rec(seq, "movzx", OpClass.MOV_SERIES, offsets, **kw)


def cmp(seq, offsets, const=None, result=None, **kw):
    return rec(
        seq, "cmp", OpClass.COMPARE, offsets,
        compared_const=const, cmp_result=result, **kw,
    )


def trace(*records):
    return ExecutionTrace(tuple(records))


MSG = Message("m", bytes(range(16)))


def detect_type(field, t, message, disabled_rules=()):
    ann = annotate(field, t, message, disabled_rules)
    return ann.inferred_type, evidence_for(ann, "type.")


def detect_functions(field, t, message, disabled_rules=()):
    ann = annotate(field, t, message, disabled_rules)
    return set(ann.inferred_functions), evidence_for(ann, "func.")


def test_static_fires_on_true_comparison_with_only_moves():
    t = trace(mov(1, {0}), cmp(2, {0}, b"\x05", True))
    sem, ev = detect_type(Field(0, 0), t, MSG)
    assert sem is SemanticType.STATIC
    assert ev[0].seq == 2


def test_static_blocked_by_functional_operation():
    t = trace(
        mov(1, {0}),
        cmp(2, {0}, b"\x05", True),
        rec(3, "xor", OpClass.ARITH_BITWISE, {0}),
    )
    sem, _ = detect_type(Field(0, 0), t, MSG)
    assert sem is not SemanticType.STATIC


def test_static_blocked_by_false_comparison():
    t = trace(mov(1, {0}), cmp(2, {0}, b"\x05", False))
    sem, _ = detect_type(Field(0, 0), t, MSG)
    assert sem is SemanticType.UNKNOWN


def test_integer_fires_on_bitwise_ops(example3):
    message, t = example3
    fmt = extract_format(message, t)
    checksum_field = [f for f in fmt.fields if (f.start, f.end) == (21, 22)][0]
    sem, ev = detect_type(checksum_field, t, message)
    assert sem is SemanticType.INTEGER
    assert {e.seq for e in ev} == {5, 6}  # the shl and or records


def test_consecutive_constants_prefer_group_then_integer():
    # two distinct constants satisfy the group rule first; the consecutive
    # pair feeds the integer rule once group is out of the picture
    t = trace(
        mov(1, {3}),
        cmp(2, {3}, b"\x04", False),
        cmp(3, {3}, b"\x05", True),
    )
    sem, _ = detect_type(Field(3, 3), t, MSG)
    assert sem is SemanticType.GROUP
    sem, _ = detect_type(Field(3, 3), t, MSG, disabled_rules={"type.group"})
    assert sem is SemanticType.INTEGER


def test_non_consecutive_constants_are_not_integer_evidence():
    t = trace(
        mov(1, {3}),
        cmp(2, {3}, b"\x01", False),
        cmp(3, {3}, b"\x07", True),
    )
    sem, _ = detect_type(Field(3, 3), t, MSG, disabled_rules={"type.group"})
    assert sem is SemanticType.UNKNOWN


def test_group_fires_on_distinct_constants_same_span():
    t = trace(
        mov(1, {3}),
        cmp(2, {3}, b"\x01", False),
        cmp(3, {3}, b"\x07", True),
    )
    sem, _ = detect_type(Field(3, 3), t, MSG)
    assert sem is SemanticType.GROUP


def test_group_not_fired_by_constants_on_different_bytes():
    # two merged start bytes each checked against their own constant
    t = trace(
        mov(1, {0}), cmp(2, {0}, b"\x05", True),
        mov(3, {1}), cmp(4, {1}, b"\x64", True),
    )
    sem, _ = detect_type(Field(0, 1), t, MSG)
    assert sem is SemanticType.STATIC


def test_bytes_fires_on_loop_covering_exactly_the_field():
    t = trace(
        mov(1, {4}, loop_id="c", loop_role=LoopRole.BODY),
        rec(2, "xor", OpClass.ARITH_BITWISE, {4}, loop_id="c", loop_role=LoopRole.BODY),
        mov(3, {5}, loop_id="c", loop_role=LoopRole.BODY),
        rec(4, "xor", OpClass.ARITH_BITWISE, {5}, loop_id="c", loop_role=LoopRole.BODY),
    )
    sem, _ = detect_type(Field(4, 5), t, MSG)
    assert sem is SemanticType.BYTES


def test_bytes_requires_loop_footprint_to_match_field():
    # the loop also reads bytes outside the field: the field is only a part
    # of what the loop consumes, so it is not a chunk of its own
    t = trace(
        mov(1, {4}, loop_id="c", loop_role=LoopRole.BODY),
        rec(2, "xor", OpClass.ARITH_BITWISE, {4}, loop_id="c", loop_role=LoopRole.BODY),
        mov(3, {5}, loop_id="c", loop_role=LoopRole.BODY),
        rec(4, "xor", OpClass.ARITH_BITWISE, {5}, loop_id="c", loop_role=LoopRole.BODY),
        mov(5, {6}, loop_id="c", loop_role=LoopRole.BODY),
        rec(6, "xor", OpClass.ARITH_BITWISE, {6}, loop_id="c", loop_role=LoopRole.BODY),
    )
    sem, _ = detect_type(Field(4, 5), t, MSG)
    assert sem is not SemanticType.BYTES


def test_string_beats_bytes_on_consecutive_same_constant_compares():
    records = []
    seq = 1
    for off in (4, 5, 6):
        records.append(mov(seq, {off}, loop_id="s", loop_role=LoopRole.BODY))
        seq += 1
        records.append(
            cmp(seq, {off}, b"\x2e", False, loop_id="s", loop_role=LoopRole.BODY)
        )
        seq += 1
    t = trace(*records)
    sem, ev = detect_type(Field(4, 6), t, MSG)
    assert sem is SemanticType.STRING
    assert all(e.rule == "type.string" for e in ev)


def test_untouched_field_is_unknown_and_aligned():
    t = trace(mov(1, {0}))
    field = Field(5, 6, accessed=False)
    sem, type_ev = detect_type(field, t, MSG)
    funcs, _ = detect_functions(field, t, MSG)
    assert sem is SemanticType.UNKNOWN and type_ev == []
    assert funcs == {SemanticFunction.ALIGNED}


def test_command_requires_true_compare_and_jump():
    t = trace(mov(1, {3}), cmp(2, {3}, b"\x01", True, triggered_jump=True))
    funcs, _ = detect_functions(Field(3, 3), t, MSG)
    assert SemanticFunction.COMMAND in funcs
    t = trace(mov(1, {3}), cmp(2, {3}, b"\x01", True))
    funcs, _ = detect_functions(Field(3, 3), t, MSG)
    assert SemanticFunction.COMMAND not in funcs


def test_length_via_loop_termination():
    t = trace(
        mov(1, {2}),
        cmp(2, {2}, loop_id="p", loop_role=LoopRole.TERMINATION),
    )
    funcs, _ = detect_functions(Field(2, 2), t, MSG)
    assert SemanticFunction.LENGTH in funcs


def test_length_via_api_call():
    t = trace(
        mov(1, {2}),
        rec(
            2, "call", OpClass.CALL, {2},
            api_call=ApiCall("recv", ArgRole.LENGTH_ARG),
        ),
    )
    funcs, ev = detect_functions(Field(2, 2), t, MSG)
    assert SemanticFunction.LENGTH in funcs
    assert any(e.note == "recv" for e in ev)


def test_length_via_pointer_arithmetic():
    t = trace(
        mov(1, {2}),
        rec(
            2, "add", OpClass.ARITH_BITWISE, {2},
            pointer_arith=PointerArith.POINTER_INCREMENT,
        ),
    )
    funcs, _ = detect_functions(Field(2, 2), t, MSG)
    assert SemanticFunction.LENGTH in funcs


def test_buffer_arg_api_does_not_imply_length():
    t = trace(
        mov(1, {2}),
        rec(
            2, "call", OpClass.CALL, {2},
            api_call=ApiCall("write", ArgRole.BUFFER_ARG),
        ),
    )
    funcs, _ = detect_functions(Field(2, 2), t, MSG)
    assert SemanticFunction.LENGTH not in funcs


def test_delim_requires_termination_and_edge_constant():
    msg = Message("m", b"ab\rcd")
    term = cmp(2, {2}, b"\x0d", True, loop_id="g", loop_role=LoopRole.TERMINATION)
    t = trace(mov(1, {2}), term)
    funcs, _ = detect_functions(Field(2, 2), t, msg)
    assert SemanticFunction.DELIM in funcs
    # same compare but the constant appears nowhere near the field
    t = trace(
        mov(1, {4}),
        cmp(2, {4}, b"\x7f", False, loop_id="g", loop_role=LoopRole.TERMINATION),
    )
    funcs, _ = detect_functions(Field(4, 4), t, msg)
    assert SemanticFunction.DELIM not in funcs


def test_checksum_requires_consecutive_lineage(example3):
    message, t = example3
    funcs, ev = detect_functions(Field(21, 22), t, message)
    assert SemanticFunction.CHECKSUM in funcs
    assert any(e.rule == "func.checksum" and e.seq == 16 for e in ev)
    # a field the comparison never touches cannot carry it
    funcs, _ = detect_functions(Field(2, 2), t, message)
    assert SemanticFunction.CHECKSUM not in funcs


def test_checksum_needs_two_consecutive_offsets():
    t = trace(
        mov(1, {8, 9}),
        cmp(
            2, {1, 4, 8, 9},
            operand_lineage=(((1, 1), (4, 4)), ((8, 9),)),
        ),
    )
    funcs, _ = detect_functions(Field(8, 9), t, MSG)
    assert SemanticFunction.CHECKSUM not in funcs


@pytest.mark.parametrize(
    "lineage, side",
    [
        ((((8, 9),), ((1, 2),)), ((1, 2),)),
        ((((1, 2),), ((8, 9),)), ((1, 2),)),
        ((((8, 9),), ((1, 1), (8, 8))), None),  # both sides touch the field
        ((((1, 1),), ((2, 2),)), None),  # neither does
        ((((8, 8),), ()), ()),
    ],
)
def test_accumulated_side_is_the_side_the_field_does_not_touch(lineage, side):
    assert detectors.accumulated_side(lineage, Field(8, 9)) == side


@pytest.mark.parametrize(
    "value,expected",
    [
        (b"/etc/config.ini", True),
        (b"ab.txt", True),
        (b"readme.markdown", False),  # extension longer than five characters
        (b"no extension", False),
        (b"\x01\x02.txt", False),  # not printable
        (b"dir/sub/name.log", True),
        (b"a.b", True),
    ],
)
def test_filename_convention(value, expected):
    msg = Message("m", value)
    t = trace()
    funcs, _ = detect_functions(Field(0, len(value) - 1), t, msg)
    assert (SemanticFunction.FILENAME in funcs) is expected


def test_aligned_only_without_functional_operations():
    t = trace(mov(1, {0}), mov(2, {0}))
    funcs, _ = detect_functions(Field(0, 0), t, MSG)
    assert SemanticFunction.ALIGNED in funcs
    t = trace(mov(1, {0}), rec(2, "xor", OpClass.ARITH_BITWISE, {0}))
    funcs, _ = detect_functions(Field(0, 0), t, MSG)
    assert SemanticFunction.ALIGNED not in funcs


def test_type_detection_is_total_and_deterministic(example2, example3):
    for message, t in (example2, example3):
        fmt = extract_format(message, t)
        for field in fmt.fields:
            first = detect_type(field, t, message)
            second = detect_type(field, t, message)
            assert first == second
            assert isinstance(first[0], SemanticType)


def test_evidence_seqs_index_real_records(example3):
    message, t = example3
    valid_seqs = {r.seq for r in t.records}
    fmt = extract_format(message, t)
    for ann in annotate_format(fmt, t, message):
        for ev in ann.evidence:
            if ev.seq is not None:
                assert ev.seq in valid_seqs


def test_disabled_rules_are_skipped():
    t = trace(mov(1, {0}), cmp(2, {0}, b"\x05", True))
    sem, _ = detect_type(Field(0, 0), t, MSG, disabled_rules={"type.static"})
    assert sem is SemanticType.UNKNOWN


def test_rule_registry_covers_all_rules():
    assert len(RULES) == 11
    assert len(set(RULE_IDS)) == 11
    assert all(r.startswith(("type.", "func.")) for r in RULE_IDS)


def test_one_instruction_lookup_per_field(example3, monkeypatch):
    message, t = example3
    fmt = extract_format(message, t)
    lookup = detectors.instructions_for
    calls = []

    def counting(trace, fields):
        calls.extend(fields)
        return lookup(trace, fields)

    monkeypatch.setattr(detectors, "instructions_for", counting)
    memo = {}
    annotate_format(fmt, t, message, memo=memo)
    assert calls == list(fmt.fields)
    annotate_format(fmt, t, message, memo=memo)
    assert calls == list(fmt.fields)  # every field is in the memo: no lookup


def per_byte_covering_loops(t, field):
    """The loops that cover ``field``, by their definition, byte by byte:
    each byte's records grouped by loop id, and a loop kept while its
    operator set at every byte equals the one at the first byte."""
    common = None
    for b in range(field.start, field.end + 1):
        ops = {}
        for r in t.records:
            if r.loop_id is not None and any(lo <= b <= hi for lo, hi in r.accessed_offsets):
                ops.setdefault(r.loop_id, set()).add(r.operator)
        if common is not None:
            ops = {loop_id: seen for loop_id, seen in common.items() if ops.get(loop_id) == seen}
        if not ops:
            return []
        common = ops
    return [(loop_id, recs) for loop_id, recs in t.loops.items() if loop_id in common]


_spans = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
    lambda ab: frozenset(range(min(ab), max(ab) + 1))
)
_loop_records = st.lists(
    st.tuples(
        st.sampled_from(["add", "xor"]),
        _spans | st.frozensets(st.integers(0, 7), max_size=4),
        st.sampled_from([None, "a", "b"]),
    ),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(_loop_records, st.integers(0, 7), st.integers(0, 7))
def test_covering_loops_is_the_per_byte_definition(specs, a, b):
    t = trace(*(
        rec(seq, op, OpClass.OTHER, offsets, loop_id=loop_id,
            loop_role=loop_id and LoopRole.BODY)
        for seq, (op, offsets, loop_id) in enumerate(specs, 1)
    ))
    field = Field(min(a, b), max(a, b))
    (records,) = model.instructions_for(t, [field])
    assert detectors._covering_loops(t, field, records) == per_byte_covering_loops(t, field)


def test_loop_records_grouped_once_per_message(example2, monkeypatch):
    group = model.group_loops
    calls = []

    def counting(records):
        calls.append(records)
        return group(records)

    monkeypatch.setattr(model, "group_loops", counting)
    message, t = example2
    t = ExecutionTrace(t.records)  # the fixture's may be cached
    fmt = extract_format(message, t)
    annotate_format(fmt, t, message)
    annotate_format(fmt, t, message)
    assert len(fmt.fields) > 1 and len(calls) == 1
    assert t.loops and all(
        recs == tuple(r for r in t.records if r.loop_id == loop_id)
        for loop_id, recs in t.loops.items()
    )


def _bundled_fields():
    for parser in bundled_parsers():
        for message in parser.generate(6, seed=0)[0]:
            yield message, vm_run(parser.script, message).trace


def test_table_order_first_type_wins_functions_stack(example2, example3):
    """All rules on equals the first type rule (in table order) that fires
    alone, plus every function rule that fires alone, evidence in order."""
    type_ids = [r for r in RULE_IDS if r.startswith("type.")]
    func_ids = [r for r in RULE_IDS if r.startswith("func.")]
    for message, t in (example2, example3, *_bundled_fields()):
        for field in extract_format(message, t).fields:

            def solo(rule_id):
                others = set(RULE_IDS) - {rule_id}
                return annotate(field, t, message, disabled_rules=others)

            typed = [solo(r) for r in type_ids]
            first = [
                a for a in typed if a.inferred_type is not SemanticType.UNKNOWN
            ][:1]
            funcs = [solo(r) for r in func_ids]
            assert annotate(field, t, message) == FieldAnnotation(
                field,
                first[0].inferred_type if first else SemanticType.UNKNOWN,
                frozenset().union(*(a.inferred_functions for a in funcs)),
                tuple(e for a in first + funcs for e in a.evidence),
            )


def test_byte_reading_rules_run_per_message_of_one_shape():
    """Messages of one trace shape share each field's structural verdicts,
    but FILENAME and DELIM are decided on each message's own bytes."""
    parser = next(p for p in bundled_parsers() if p.name == "text-command")
    (message,), _ = parser.generate(1, seed=0)
    t = vm_run(parser.script, message).trace
    name = next(
        a.field
        for a in annotate_format(extract_format(message, t), t, message)
        if {SemanticFunction.FILENAME, SemanticFunction.DELIM} <= a.inferred_functions
    )

    def twin(mid, pos, byte):
        data = bytearray(message.data)
        data[pos] = byte
        return Message(mid, bytes(data))

    no_name = twin("no-name", message.data.index(b"."), ord("_"))
    no_delim = twin("no-delim", name.end + 1, ord("x"))  # the '\r' after the name
    messages = [message, no_name, no_delim]
    formats, annotations = infer_corpus(
        shapes_of(messages, {m.id: ExecutionTrace(t.records) for m in messages})
    )
    assert formats[no_name.id].fields is formats[message.id].fields
    funcs = {
        mid: next(a.inferred_functions for a in anns if a.field == name)
        for mid, anns in annotations.items()
    }
    assert funcs[message.id] >= {SemanticFunction.FILENAME, SemanticFunction.DELIM}
    assert funcs[no_name.id] == funcs[message.id] - {SemanticFunction.FILENAME}
    assert funcs[no_delim.id] == funcs[message.id] - {SemanticFunction.DELIM}


#: delimiter, file-name and filler bytes, few enough that edges often match
_EDGE_BYTES = st.sampled_from(b"\r\n./a")


@st.composite
def _two_messages(draw):
    """A field of two messages of one length, and compares against its
    bytes: one-byte or two-byte constants, loop bounds or not."""
    n = draw(st.integers(1, 10))
    data, other = (bytes(draw(st.lists(_EDGE_BYTES, min_size=n, max_size=n))) for _ in "ab")
    start = draw(st.integers(0, n - 1))
    field = Field(start, draw(st.integers(start, n - 1)))
    records = []
    for seq in range(1, draw(st.integers(0, 3)) + 1):
        const = bytes(draw(st.lists(_EDGE_BYTES, min_size=1, max_size=2)))
        bound = draw(st.booleans())
        at = draw(st.integers(field.start, field.end))
        records.append(cmp(seq, {at}, const, True,
                           loop_id="g" if bound else None,
                           loop_role=LoopRole.TERMINATION if bound else None))
    return field, tuple(records), data, other


def _by_definition(rule, field, records, data):
    """What ``rule`` finds on the whole message, as its summary defines it."""
    if rule.label is SemanticFunction.DELIM:
        edges = {data[p] for p in (field.start - 1, field.start, field.end, field.end + 1)
                 if 0 <= p < len(data)}
        return next(
            ((rule.id, r.seq, "") for r in records
             if r.loop_role is LoopRole.TERMINATION and len(r.compared_const) == 1
             and r.compared_const[0] in edges),
            None,
        )
    raw = data[field.start : field.end + 1]
    text = raw.decode("ascii")
    if len(raw) >= 3 and text.isprintable() and re.fullmatch(
        r"(?:[\w\- .]*[/\\])*[\w\- ]+\.[A-Za-z0-9]{1,5}", text
    ):
        return rule.id, None, text
    return None


@settings(max_examples=300, deadline=None)
@given(_two_messages())
def test_each_byte_part_reads_only_its_declared_bytes(case):
    """A field's annotation is kept by the bytes that its open byte parts
    declare (``BytePart.reads``), so each byte part must find the same on
    two messages that agree on those bytes, whatever their other bytes; and
    what it finds there is what its rule finds on the whole message."""
    field, records, data, other = case
    byte_rules = [rule for rule in LIBRARY if rule.on_bytes is not None]
    assert byte_rules
    for rule in byte_rules:
        declared = {p for sl in rule.on_bytes.reads(field) for p in range(len(data))[sl]}
        spliced = bytes(data[p] if p in declared else other[p] for p in range(len(data)))
        alone = set(RULE_IDS) - {rule.id}
        found = [
            annotate(field, trace(*records), Message("m", raw), alone).evidence
            for raw in (data, spliced)
        ]
        assert found[0] == found[1], rule.id
        expected = _by_definition(rule, field, records, data)
        assert [(e.rule, e.seq, e.note) for e in found[0]] == ([expected] if expected else [])


def test_delim_reads_no_byte_of_a_field_without_a_one_byte_loop_bound(monkeypatch):
    """DELIM's trace part keeps the one-byte constants of the field's
    loop-terminating compares; with none, the rule is decided by the trace
    and its byte part never runs, however the field's edges read."""
    runs = []

    def counted(rule):
        part = rule.on_bytes
        return dataclasses.replace(rule, on_bytes=dataclasses.replace(
            part, fires=lambda kept, raw: runs.append(raw) or part.fires(kept, raw)))

    monkeypatch.setattr(detectors, "LIBRARY", tuple(
        counted(r) if r.label is SemanticFunction.DELIM else r for r in LIBRARY))
    field = Field(2, 4)
    unbound = trace(
        cmp(1, {2}, b"\r", True),  # bounds no loop
        cmp(2, {3}, b"\r\n", True, loop_id="g", loop_role=LoopRole.TERMINATION),  # two bytes
        mov(3, {4}, loop_id="g", loop_role=LoopRole.TERMINATION),  # compares nothing
    )
    bound = trace(cmp(1, {4}, b"\r", True, loop_id="g", loop_role=LoopRole.TERMINATION))
    messages = [Message("m", raw) for raw in (b"ab\r\r\r\r", b"\r\nabc\r", b"xxxxxx")]
    for message in messages:
        assert SemanticFunction.DELIM not in annotate(field, unbound, message).inferred_functions
    assert runs == []
    found = [SemanticFunction.DELIM in annotate(field, bound, m).inferred_functions for m in messages]
    assert found == [True, True, False] and runs == [b"b\r\r\r", b"\nac\r", b"xxxx"]

import functools
import io
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens import traceio
from fieldlens.detectors import FieldAnnotation, SemanticType
from fieldlens.evaluation import load_ground_truth
from fieldlens.model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    Field,
    InstructionRecord,
    LoopRole,
    Message,
    ModelError,
    OpClass,
    PointerArith,
    Shape,
)
from fieldlens.traceio import (
    IntegrityError,
    ParseError,
    format_offsets,
    load_corpus,
    load_corpus_stream,
    parse_offsets,
    read_interchange,
    serialize_corpus,
    serialize_ground_truth,
)
from fieldlens.pipeline import infer_corpus
from fieldlens.vm import bundled_parsers, run as vm_run

from corpora import shapes_of
from reference_vm import as_runs


def load_text(text):
    return load_corpus_stream(io.StringIO(text))


def test_offsets_round_trip():
    for offsets in ((), ((0, 0),), ((1, 3), (7, 7))):
        assert parse_offsets(format_offsets(offsets), 1, 8) == offsets
    assert format_offsets(((10, 12), (20, 20))) == "10-12,20"


@st.composite
def _spellings(draw):
    """A set of offsets and one ``off=`` text of it: each of its runs whole
    or cut in two overlapping or adjacent parts, offsets inside it spelt
    again, some parts repeated, and all of them shuffled."""
    offsets = draw(st.frozensets(st.integers(0, 30), max_size=12))
    parts = []
    for lo, hi in as_runs(offsets):
        cut = draw(st.integers(lo, hi))
        if cut < hi and draw(st.booleans()):
            parts += [(lo, cut), (cut + draw(st.integers(0, 1)), hi)]
        else:
            parts.append((lo, hi))
        parts += [(o, o) for o in draw(st.lists(st.integers(lo, hi), max_size=2))]
    parts = draw(st.permutations(parts + parts[:draw(st.integers(0, len(parts)))]))
    text = ",".join(str(lo) if lo == hi and draw(st.booleans()) else f"{lo}-{hi}"
                    for lo, hi in parts)
    return offsets, text or "-"


@given(_spellings())
@settings(max_examples=300, deadline=None)
def test_any_spelling_of_a_set_parses_to_its_runs_and_is_written_canonically(spelling):
    offsets, text = spelling
    parsed = parse_offsets(text, 1, 31)
    assert parsed == as_runs(offsets)
    canonical = ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in as_runs(offsets))
    assert format_offsets(parsed) == (canonical or "-")


def test_one_set_spelt_three_ways_gives_equal_records_and_one_shape():
    text = "".join(
        f"msg {mid} bytes=0x0102030405\nrec {mid} seq=1 op=movzx class=MOV_SERIES off={off}\n"
        for mid, off in (("a", "1,2,3"), ("b", "3,1-2"), ("c", "1-3"))
    )
    corpus = read_interchange(io.StringIO(text))
    ((trace, held),) = corpus.shapes
    assert [m.id for m in held] == ["a", "b", "c"]
    (rec,) = trace.records
    assert rec.accessed_offsets == rec.reads == ((1, 3),)


def test_reads_outside_off_are_an_integrity_error_on_their_line():
    text = (
        "msg a bytes=0x010203\n"
        "rec a seq=1 op=movzx class=MOV_SERIES off=0-1\n"
        "rec a seq=2 op=movzx class=MOV_SERIES off=0,2 reads=0-2\n"
    )
    with pytest.raises(IntegrityError, match="reads must be a subset") as err:
        load_text(text)
    assert err.value.line_no == 3


@pytest.mark.parametrize("lines", [10, 40, 400])
def test_reading_wide_runs_takes_memory_by_the_input(lines):
    """Each line names a distinct run up to the end of one 20,000-byte
    message; no run is expanded, from the read through extraction and the
    detectors, so the peak of the read, and that of inference on what it
    read, is a small multiple of the text."""
    text = "msg a bytes=0x" + "00" * 20_000 + "\n" + "".join(
        f"rec a seq={i + 1} op=movzx class=MOV_SERIES off={i}-19999 reads={i}-19999\n"
        for i in range(lines)
    )
    tracemalloc.start()
    try:
        corpus = read_interchange(io.StringIO(text))
        _, read_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        formats, _ = infer_corpus(corpus.shapes)
        _, infer_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus.shapes[0].trace.records) == lines
    assert formats["a"].fields == (Field(0, 19_999),)
    assert read_peak <= 32 * len(text.encode())
    assert infer_peak <= 32 * len(text.encode())


def _canonical_inside(offsets, length):
    """Whether ``offsets`` are sorted, disjoint, non-adjacent runs in [0, length)."""
    members = [o for lo, hi in offsets for o in range(lo, hi + 1)]
    return offsets == as_runs(members) and all(0 <= o < length for o in members)


def test_every_record_of_the_bundled_corpora_holds_canonical_runs_inside_its_message():
    for parser in bundled_parsers():
        msgs, truths = parser.generate(10, seed=3)
        traces = [vm_run(parser.script, m).trace for m in msgs]
        corpus = read_interchange(io.StringIO(
            serialize_corpus(msgs, traces) + serialize_ground_truth(truths)
        ))
        for trace, held in [*zip(traces, ((m,) for m in msgs)), *corpus.shapes]:
            for r in trace.records:
                for offsets in (r.accessed_offsets, r.reads, *(r.operand_lineage or ())):
                    assert type(offsets) is tuple
                    assert all(_canonical_inside(offsets, len(m)) for m in held), r


def test_message_without_records_gets_empty_trace():
    messages, traces = load_text("msg a bytes=0x0102\n")
    assert len(messages) == 1 and len(traces) == 1
    assert traces[0].records == ()


def test_example3_fixture_shape(example3):
    _, trace = example3
    assert len(trace.records) == 16
    assert {r.operator for r in trace.records} == {
        "mov", "movzx", "shl", "or", "cmp", "xor",
    }


def test_cmp_result_on_mov_record_is_integrity_error():
    text = (
        "msg a bytes=0x01\n"
        "rec a seq=1 op=mov class=MOV_SERIES off=0 result=true\n"
    )
    with pytest.raises(IntegrityError):
        load_text(text)


def test_unknown_message_reference():
    with pytest.raises(IntegrityError):
        load_text("rec ghost seq=1 op=mov class=MOV_SERIES off=-\n")
    # a message is declared by its msg line, which must come first
    with pytest.raises(IntegrityError) as err:
        load_text("rec a seq=1 op=mov class=MOV_SERIES off=0\nmsg a bytes=0x01\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize(
    "keys",
    [
        "class=MOV_SERIES off=0-100000",
        "class=MOV_SERIES off=0-1 reads=0-100000",
        "class=COMPARE off=0 lineage=0/0-100000",
    ],
)
def test_huge_offset_run_is_rejected_before_it_is_built(keys):
    text = f"msg a bytes=0x0102\nrec a seq=1 op=cmp {keys}\n"
    tracemalloc.start()
    try:
        with pytest.raises(IntegrityError) as err:
            load_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.line_no == 2
    assert "0-100000" in str(err.value) and len(str(err.value)) < 200
    assert peak < 1 << 20


def test_parse_error_carries_line_number():
    text = "msg a bytes=0x01\nrec a seq=1 op=mov class=NOPE off=0\n"
    with pytest.raises(ParseError) as err:
        load_text(text)
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "line, key",
    [
        pytest.param("msg b bytes=0x01 colour=red", "colour", id="msg"),
        pytest.param("rec a seq=1 op=cmp class=COMPARE off=0 cosnt=0x05", "cosnt", id="rec"),
        pytest.param("gt a field=0-1 type=STATIC func=COMMAND", "func", id="gt"),
    ],
)
def test_a_key_that_the_line_kind_does_not_define_is_a_parse_error(line, key):
    with pytest.raises(ParseError) as err:
        read_interchange(io.StringIO(f"msg a bytes=0x0102\n{line}\n"))
    assert err.value.line_no == 2 and repr(key) in str(err.value)


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("rec a seq=2 op=mov class=NOPE off=0", ParseError, "unknown op class 'NOPE'"),
        ("rec a seq=2 op=mov class=MOV_SERIES off=a", ParseError, "bad offset set 'a'"),
        ("rec a seq=2 op=add class=ARITH_BITWISE off=0 loop=l1 role=X", ParseError,
         "unknown loop role 'X'"),
        ("rec a seq=2 op=call class=CALL off=0 api=recv", ParseError,
         "api must be name:ROLE, got 'recv'"),
        ("rec a seq=2 op=call class=CALL off=0 api=recv:X", ParseError,
         "unknown api role 'X'"),
        ("rec a seq=2 op=add class=ARITH_BITWISE off=0 ptr=X", ParseError,
         "unknown ptr kind 'X'"),
        ("rec a seq=2 op=cmp class=COMPARE off=0 lineage=0", ParseError,
         "lineage must hold two offset sets: a/b"),
        ("rec a seq=2 op=mov class=MOV_SERIES off=0 lineage=0/1", IntegrityError,
         "record seq=2: operand_lineage requires op_class=COMPARE"),
        ("gt a field=0-1 type=NOPE funcs=-", ParseError, "unknown type 'NOPE'"),
        ("gt a field=0-1 type=STATIC funcs=NOPE", ParseError, "unknown function 'NOPE'"),
        ("gt a field=0-1 type=INTEGER funcs=LENGTH|-", ParseError, "unknown function '-'"),
        ("rec a seq=2 op=mov class=MOV_SERIES off=1_0", ParseError, "bad offset set '1_0'"),
        ("rec a seq=2 op=mov class=MOV_SERIES off=+2", ParseError, "bad offset set '+2'"),
        ("rec a seq=\u0661 op=mov class=MOV_SERIES off=1", ParseError, "bad seq '\u0661'"),
        ("rec a op=mov class=MOV_SERIES off=1", ParseError, "missing required key 'seq'"),
        ("gt a field=0-\u0663 type=STATIC funcs=-", ParseError, "bad field range '0-\u0663'"),
        ("gt a field=+0-3 type=STATIC funcs=-", ParseError, "bad field range '+0-3'"),
    ],
)
def test_each_malformed_value_is_an_error_on_its_line(line, error, message):
    text = f"msg a bytes=0x0102\nrec a seq=1 op=mov class=MOV_SERIES off=0\n{line}\n"
    with pytest.raises(error) as err:
        read_interchange(io.StringIO(text))
    assert type(err.value) is error
    assert err.value.line_no == 3 and str(err.value) == f"line 3: {message}"


def test_duplicate_message_id_rejected():
    with pytest.raises(IntegrityError):
        load_text("msg a bytes=0x01\nmsg a bytes=0x02\n")


def test_offsets_outside_message_rejected():
    text = "msg a bytes=0x01\nrec a seq=1 op=mov class=MOV_SERIES off=5\n"
    with pytest.raises(IntegrityError):
        load_text(text)


def test_reads_default_follows_op_class():
    text = (
        "msg a bytes=0x010203\n"
        "rec a seq=1 op=movzx class=MOV_SERIES off=0-1\n"
        "rec a seq=2 op=cmp class=COMPARE off=0-1\n"
    )
    _, traces = load_text(text)
    mov, cmp_rec = traces[0].records
    assert mov.reads == ((0, 1),)
    assert cmp_rec.reads == ()


def test_fixture_files_round_trip(example1, example2, example3):
    for message, trace in (example1, example2, example3):
        text = serialize_corpus([message], [trace])
        messages2, traces2 = load_text(text)
        assert messages2 == [message]
        assert traces2 == [trace]


_operators = st.sampled_from(["mov", "movzx", "cmp", "xor", "add", "call"])
_offsets = st.frozensets(st.integers(min_value=0, max_value=15), max_size=5).map(as_runs)


@st.composite
def records(draw, msg_len=16):
    seq = draw(st.integers(min_value=1, max_value=10_000))
    op_class = draw(st.sampled_from(list(OpClass)))
    accessed = draw(_offsets)
    members = sorted(o for lo, hi in accessed for o in range(lo, hi + 1))
    reads = as_runs(draw(st.sets(st.sampled_from(members), max_size=len(members)))) if members else ()
    kw = {}
    if op_class is OpClass.COMPARE:
        kw["cmp_result"] = draw(st.booleans())
        if draw(st.booleans()):
            kw["compared_const"] = draw(st.binary(min_size=1, max_size=2))
        if draw(st.booleans()):
            kw["operand_lineage"] = (draw(_offsets), draw(_offsets))
    if draw(st.booleans()):
        kw["loop_id"] = draw(st.sampled_from(["l1", "l2"]))
        kw["loop_role"] = draw(st.sampled_from(list(LoopRole)))
    if draw(st.booleans()):
        kw["api_call"] = ApiCall("recv", draw(st.sampled_from(list(ArgRole))))
    if draw(st.booleans()):
        kw["pointer_arith"] = draw(st.sampled_from(list(PointerArith)))
    return InstructionRecord(
        seq=seq,
        operator=draw(_operators),
        op_class=op_class,
        accessed_offsets=accessed,
        reads=reads,
        triggered_jump=draw(st.booleans()),
        **kw,
    )


@given(st.lists(records(), max_size=8), st.binary(min_size=16, max_size=16))
@settings(max_examples=80, deadline=None)
def test_serialize_parse_round_trip(recs, payload):
    recs = sorted(recs, key=lambda r: r.seq)
    seqs = {r.seq for r in recs}
    if len(seqs) != len(recs):
        recs = [
            InstructionRecord(
                seq=i + 1,
                operator=r.operator,
                op_class=r.op_class,
                accessed_offsets=r.accessed_offsets,
                reads=r.reads,
                compared_const=r.compared_const,
                cmp_result=r.cmp_result,
                triggered_jump=r.triggered_jump,
                loop_id=r.loop_id,
                loop_role=r.loop_role,
                api_call=r.api_call,
                pointer_arith=r.pointer_arith,
                operand_lineage=r.operand_lineage,
            )
            for i, r in enumerate(recs)
        ]
    message = Message("m", payload)
    trace = ExecutionTrace(tuple(recs))
    text = serialize_corpus([message], [trace])
    messages2, traces2 = load_text(text)
    assert messages2 == [message]
    assert traces2 == [trace]


def test_equal_records_under_two_ids_are_written_with_each_lines_own_id():
    """The writer reuses a record's text for an equal record, but every line
    keeps the prefix of its own message, and so does every ``gt`` line."""
    cmp = InstructionRecord(1, "cmp", OpClass.COMPARE, ((0, 0),), compared_const=b"\x05",
                            cmp_result=True, operand_lineage=(((0, 0),), ()))
    load = InstructionRecord(2, "movzx", OpClass.MOV_SERIES, ((1, 1),), reads=((1, 1),))
    messages = [Message("a", b"\x05\x01"), Message("b", b"\x05\x02"), Message("c", b"\x06\x03")]
    traces = [ExecutionTrace((cmp, load)), ExecutionTrace((cmp, load)), ExecutionTrace((load,))]
    truth = FieldAnnotation(Field(0, 1), SemanticType.BYTES, frozenset(), ())
    text = serialize_corpus(messages, traces)
    text += serialize_ground_truth([("a", (truth,)), ("c", (truth,))])
    lines = text.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["msg", "a"], ["rec", "a"], ["rec", "a"],
        ["msg", "b"], ["rec", "b"], ["rec", "b"],
        ["msg", "c"], ["rec", "c"],
        ["gt", "a"], ["gt", "c"],
    ]
    assert lines[1][len("rec a"):] == lines[4][len("rec b"):]
    assert lines[2][len("rec a"):] == lines[5][len("rec b"):] == lines[7][len("rec c"):]
    assert lines[8][len("gt a"):] == lines[9][len("gt c"):]
    corpus = read_interchange(io.StringIO(text))
    assert corpus.messages == messages
    a, b, c = messages
    assert corpus.shapes == [Shape(traces[0], (a, b)), Shape(traces[2], (c,))]
    assert corpus.truth == [("a", truth), ("c", truth)]


def _offset_sets(traces):
    for trace in traces:
        for r in trace.records:
            yield r.accessed_offsets
            yield r.reads
            yield from r.operand_lineage or ()


def test_equal_offset_texts_share_one_set_per_message_length():
    text = (
        "msg a bytes=0x01020304\n"
        "rec a seq=1 op=movzx class=MOV_SERIES off=0-1 reads=0-1\n"
        "msg b bytes=0x05060708\n"
        "rec b seq=1 op=movzx class=MOV_SERIES off=0-1\n"
        "rec b seq=2 op=cmp class=COMPARE off=0-3 lineage=0-1/0-3\n"
        "rec b seq=3 op=add class=ARITH_BITWISE off=0-3 reads=0-1\n"
    )
    _, traces = load_text(text)
    (a1,), (b1, b2, b3) = traces[0].records, traces[1].records
    shared = a1.accessed_offsets
    assert shared == ((0, 1),)
    assert all(s is shared for s in (a1.reads, b1.accessed_offsets, b1.reads,
                                     b2.operand_lineage[0], b3.reads))
    assert b2.accessed_offsets is b2.operand_lineage[1] is b3.accessed_offsets


def test_offset_text_is_checked_against_each_message_length():
    text = (
        "msg a bytes=0x00000000000000000000\n"
        "rec a seq=1 op=movzx class=MOV_SERIES off=0-7\n"
        "msg b bytes=0x01020304\n"
        "rec b seq=1 op=movzx class=MOV_SERIES off=0-7\n"
    )
    with pytest.raises(IntegrityError) as err:
        load_text(text)
    assert err.value.line_no == 4 and "length 4" in str(err.value)


def test_separate_loads_share_no_offset_sets(example3):
    text = serialize_corpus([example3[0]], [example3[1]])
    first, second = load_text(text)[1], load_text(text)[1]  # both kept alive
    ids = [{id(s) for s in _offset_sets(traces) if s} for traces in (first, second)]
    assert ids[0] and not ids[0] & ids[1]


def test_equal_record_lines_share_one_record_across_message_lengths():
    line = "seq=1 op=movzx class=MOV_SERIES off=0-1"
    _, traces = load_text(
        f"msg a bytes=0x01020304\nrec a {line}\n"
        f"msg b bytes=0x05060708\nrec b {line}\n"
        f"msg c bytes=0x050607\nrec c {line}\n"
    )
    (a,), (b,), (c,) = (t.records for t in traces)
    assert a is b and c is a


@pytest.mark.parametrize("line", [
    "seq=1 op=movzx class=MOV_SERIES off=0-5",
    "seq=1 op=cmp class=COMPARE off=0 lineage=0/5",
    "seq=1 op=cmp class=COMPARE off=0 lineage=4-5/-",
])
def test_a_cached_record_is_checked_against_a_shorter_message(line):
    """A cached text whose ``off``, or whose ``lineage`` alone, reaches past
    a later, shorter message fails on that later line."""
    text = (
        f"msg a bytes=0x0102030405060708\nrec a {line}\n"
        f"msg b bytes=0x0102030405060708\nrec b {line}\n"
        f"msg c bytes=0x01020304\nrec c {line}\n"
    )
    with pytest.raises(IntegrityError) as err:
        load_text(text)
    assert err.value.line_no == 6 and "outside message of length 4" in str(err.value)


def test_a_read_parses_each_distinct_text_once(monkeypatch):
    """Whatever the message lengths, each distinct ``rec`` text is tokenized
    once and each distinct offset text is parsed once."""
    calls = []

    def counted(name):
        original = getattr(traceio, name)

        def wrapper(*args):
            calls.append((name, args[0] if name == "parse_offsets" else args[1]))
            return original(*args)
        monkeypatch.setattr(traceio, name, wrapper)

    counted("_split_fields")
    counted("parse_offsets")
    lines = [
        "seq=1 op=movzx class=MOV_SERIES off=0-1",
        "seq=2 op=cmp class=COMPARE off=0-3 lineage=0-1/2-3 result=true",
        "seq=3 op=add class=ARITH_BITWISE off=2-3 reads=2-3",
    ]
    text = "".join(
        f"msg m{k}{n} bytes=0x{'00' * n}\n"
        + "".join(f"rec m{k}{n} {line}\n" for line in lines[k:])
        for k in range(3)
        for n in (4, 5, 6, 9)
    )
    load_text(text)
    recs = [rest for name, rest in calls if name == "_split_fields" and rest.startswith("seq=")]
    offsets = [t for name, t in calls if name == "parse_offsets"]
    assert sorted(recs) == sorted(lines)
    assert sorted(offsets) == ["0-1", "0-3", "2-3"]


def test_messages_whose_blocks_repeat_hold_one_trace(monkeypatch):
    """A trace is built once per carved block, and every message whose
    block repeats joins that block's shape, so holds its one trace.  A
    message in two parts is joined at the end, as is one without records:
    each costs one more trace, and here each is a shape of its own."""
    built = []

    def counted(records):
        built.append(records)
        return ExecutionTrace(records)
    monkeypatch.setattr(traceio, "ExecutionTrace", counted)
    messages, traces = [], []
    for parser in bundled_parsers():
        generated, _ = parser.generate(6, seed=2)
        messages += generated
        traces += [vm_run(parser.script, m).trace for m in generated]
    line = "op=mov class=MOV_SERIES off=0"
    text = serialize_corpus(messages, traces) + (
        f"msg split bytes=0x0102\nrec split seq=1 {line}\n"
        f"# a comment ends the block\nrec split seq=2 {line}\n"
        "msg bare bytes=0x01\n"
    )
    loaded, shapes, _ = read_interchange(io.StringIO(text))
    assert loaded[:-2] == messages
    generated = shapes_of(messages, {m.id: t for m, t in zip(messages, traces)})
    assert shapes[:-2] == generated and len(generated) < len(messages)
    assert len(built) == len(generated) + 2 + 2  # the split's two blocks, its join, bare
    split, bare = shapes[-2:]
    assert (len(split.trace.records), split.messages) == (2, (loaded[-2],))
    assert (len(bare.trace.records), bare.messages) == (0, (loaded[-1],))


def test_serializing_lists_of_two_lengths_is_a_value_error():
    messages = [Message("a", b"\x01"), Message("b", b"\x02")]
    trace = ExecutionTrace(())
    for traces in ([trace], [trace] * 3):
        with pytest.raises(ValueError):
            serialize_corpus(messages, traces)


def test_a_value_snapshot_is_checked_and_dropped():
    line = "rec a seq=1 op=movzx class=MOV_SERIES off=0-1"
    _, (bare,) = load_text(f"msg a bytes=0x0102\n{line}\n")
    _, (valued,) = load_text(f"msg a bytes=0x0102\n{line} value=0x0102\n")
    assert valued.records == bare.records
    _, traces = load_text(
        f"msg a bytes=0x0102\n{line} value=0x0102\n"
        f"msg b bytes=0x0304\n{line.replace(' a ', ' b ')} value=0x0304\n"
    )
    (a,), (b,) = (t.records for t in traces)
    assert a == b
    with pytest.raises(ParseError) as err:
        load_text(f"msg a bytes=0x0102\n{line} value=0xq\n")
    assert err.value.line_no == 2


def test_separate_loads_share_no_records(example3):
    text = serialize_corpus([example3[0]], [example3[1]])
    first, second = load_text(text)[1], load_text(text)[1]  # both kept alive
    ids = [{id(r) for t in traces for r in t.records} for traces in (first, second)]
    assert ids[0] and not ids[0] & ids[1]


def test_a_second_load_shares_nothing_with_the_first(tmp_path, example3):
    path = tmp_path / "c.fl"
    path.write_text(
        serialize_corpus([example3[0]], [example3[1]])
        + f"gt {example3[0].id} field=0-{len(example3[0]) - 1} type=BYTES funcs=-\n"
    )
    loads = [load_corpus(path), load_corpus(path)]  # both kept alive
    truths = [load_ground_truth(corpus.truth) for corpus in loads]

    def objects(corpus, truth):
        for trace, _ in corpus.shapes:
            yield trace
            yield trace.records
            yield from trace.records
            yield from (s for s in _offset_sets([trace]) if s)
        yield from (ann for _, ann in corpus.truth)
        for anns in truth.values():
            yield anns
            yield from anns

    first, second = ({id(o) for o in objects(*pair)} for pair in zip(loads, truths))
    assert first and not first & second


def test_ground_truth_lines_come_from_the_same_read():
    corpus = read_interchange(io.StringIO(
        "msg a bytes=0x0102\n"
        "gt a field=0-1 type=STATIC funcs=-\n"
        "rec a seq=1 op=movzx class=MOV_SERIES off=0-1\n"
    ))
    assert corpus.truth == [
        ("a", FieldAnnotation(Field(0, 1), SemanticType.STATIC, frozenset(), ()))
    ]
    assert len(corpus.shapes[0].trace.records) == 1


# Whole lines in an order that can make a valid corpus.
_LINES = (
    "msg a bytes=0x0102030405",
    "msg b bytes=0x0102",
    "rec a seq=1 op=movzx class=MOV_SERIES off=0-1",
    "rec a seq=2 op=cmp class=COMPARE off=0-1 const=0x01 result=true jump=true lineage=0-1/2-3",
    "rec a seq=3 op=add class=ARITH_BITWISE off=2-4 loop=l1 role=BODY",
    "rec b seq=1 op=movzx class=MOV_SERIES off=0-1 reads=0",
    "gt a field=0-1 type=STATIC funcs=COMMAND",
    "gt a field=2-4 type=INTEGER funcs=LENGTH accessed=false",
    "gt b field=0-1 type=BYTES funcs=-",
    "# comment",
    "",
)
# Lines that no value choice can mend.
_BROKEN = ("rec", "msg a", "rec a novalue", "gt b field=0-1 =", "nope a x=1")
# Each kind's keys, each with valid and broken values.
_VALUES = {
    "msg": {"bytes": ("0x0102030405", "0x01", "0x", "0xzz", "12")},
    "rec": {
        "seq": ("1", "2", "4", "x"),
        "op": ("mov", "cmp"),
        "class": ("MOV_SERIES", "COMPARE", "ARITH_BITWISE", "NOPE"),
        "off": ("0", "0-3", "2-1", "0-9", "-", "1,3", "a", ""),
        "reads": ("0", "1-2", "5"),
        "const": ("0x01", "0x", "01"),
        "result": ("true", "ture"),
        "jump": ("true",),
        "loop": ("l1",),
        "role": ("BODY", "TERMINATION", "X"),
        "api": ("recv:LENGTH_ARG", "recv", "recv:X"),
        "ptr": ("POINTER_INCREMENT", "X"),
        "value": ("0x0102", "0xq"),
        "lineage": ("0/1-2", "0", "-/-"),
    },
    "gt": {
        "field": ("0-1", "2-4", "4-2", "0", "x-y"),
        "type": ("STATIC", "INTEGER", "NOPE"),
        "funcs": ("-", "LENGTH|COMMAND", "NOPE"),
        "accessed": ("true", "false", "ture"),
    },
}


@st.composite
def built_lines(draw):
    """A line of one kind whose keys are each left out or given a value."""
    kind = draw(st.sampled_from(sorted(_VALUES)))
    tokens = [kind, draw(st.sampled_from(["a", "b", "c"]))]
    for key, values in _VALUES[kind].items():
        value = draw(st.one_of(st.none(), st.sampled_from(values)))
        if value is not None:
            tokens.append(f"{key}={value}")
    return " ".join(tokens)


@st.composite
def interchange_texts(draw):
    """Some of ``_LINES`` in their order, with up to three built or broken
    lines put in anywhere."""
    chosen = draw(st.sets(st.sampled_from(range(len(_LINES))), max_size=len(_LINES)))
    lines = [_LINES[i] for i in sorted(chosen)]
    for line in draw(st.lists(st.one_of(built_lines(), st.sampled_from(_BROKEN)), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@given(interchange_texts())
@settings(max_examples=300, deadline=None)
def test_any_interchange_text_gives_a_corpus_or_a_parse_error(text):
    tracemalloc.start()
    try:
        try:
            load_ground_truth(read_interchange(io.StringIO(text)).truth)
        except (ParseError, IntegrityError):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * len(text) + (16 << 10), (peak, len(text))


# The per-line reader that block interning replaced, kept as an oracle.  Its
# record caches are left out: they spared a second parse of a text that had
# parsed without error, and changed no result.
def _oracle_split_fields(kind, rest, line_no):
    keys = traceio._LINE_KEYS.get(kind)
    if keys is None:
        raise ParseError(line_no, f"unknown record kind {kind!r}")
    kv = {}
    for tok in rest.split():
        if "=" not in tok:
            raise ParseError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in keys:
            raise ParseError(line_no, f"unknown key {key!r} on a {kind} line")
        if key in kv:
            raise ParseError(line_no, f"duplicate key {key!r}")
        kv[key] = value
    return kv


def _oracle_lines(stream):
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise ParseError(line_no, f"truncated line {line!r}")
        yield line_no, parts[0], parts[1], parts[2] if len(parts) == 3 else ""


def _oracle_read(stream):
    """A line-at-a-time reader: no caches; a seq that does not increase is
    named on its own line."""
    messages, by_id, records, rec_lines, truth = [], {}, {}, {}, []
    for line_no, kind, subject, rest in _oracle_lines(stream):
        kv = _oracle_split_fields(kind, rest, line_no)
        if kind == "rec":
            msg = by_id.get(subject)
            if msg is None:
                raise IntegrityError(line_no, f"record for undeclared message id {subject!r}")
            records[subject].append(traceio._record_from_kv(kv, line_no, len(msg), {})[0])
            rec_lines[subject].append(line_no)
        elif kind == "msg":
            if subject in by_id:
                raise IntegrityError(line_no, f"duplicate message id {subject!r}")
            data = traceio._parse_hex(traceio._require(kv, "bytes", line_no), line_no)
            try:
                msg = Message(subject, data)
            except ModelError as exc:
                raise IntegrityError(line_no, str(exc)) from None
            by_id[subject] = msg
            messages.append(msg)
            records.setdefault(subject, [])
            rec_lines.setdefault(subject, [])
        else:
            truth.append((subject, traceio._true_field(kv, line_no)))
    traces = {}
    for msg_id, recs in records.items():
        try:
            traces[msg_id] = ExecutionTrace(tuple(recs))
        except ModelError as exc:
            unordered = next(i for i in range(1, len(recs)) if recs[i].seq <= recs[i - 1].seq)
            raise IntegrityError(
                rec_lines[msg_id][unordered], f"trace {msg_id!r}: {exc}"
            ) from None
    return traceio.Corpus(messages, shapes_of(messages, traces), truth)


@functools.cache
def _generated_lines(seed):
    """The lines of a 4-message-per-parser corpus with its ``gt`` lines at
    the end; every seed used here repeats some trace."""
    messages, traces, truths = [], [], []
    for parser in bundled_parsers():
        generated, gts = parser.generate(4, seed)
        messages += generated
        traces += [vm_run(parser.script, m).trace for m in generated]
        truths += gts
    text = serialize_corpus(messages, traces) + serialize_ground_truth(truths)
    return tuple(text.splitlines())


def _blocks(lines):
    """(msg line index, rec line indices) of each message, in file order."""
    out = []
    for i, line in enumerate(lines):
        if line.startswith("msg "):
            out.append((i, []))
        elif line.startswith("rec "):
            out[-1][1].append(i)
    return out


_CORRUPTIONS = (
    lambda line: line.replace(" off=", " off=999,", 1),  # outside the message
    lambda line: line.replace(" seq=", " seq=x", 1),
    lambda line: line + " bogus",
    lambda line: line.replace(" class=", " class=NOPE", 1),
    lambda line: line.replace("seq=", "seq=1 seq=", 1),
    lambda line: re.sub(r"seq=\d+", "seq=0", line, count=1),  # out of seq order
)
_PADDING = ("", "   ", "# a comment", "; another", "\t")


@st.composite
def edited_corpora(draw):
    """A generated corpus with some of these edits: blank and comment
    lines, extra whitespace, another message's ``rec`` lines, ``gt`` lines
    among the records, one corrupted ``rec`` line in a later message of a
    repeated trace, and CRLF line endings."""
    lines = list(_generated_lines(draw(st.sampled_from([0, 1, 2, 3]))))
    blocks = _blocks(lines)
    if draw(st.booleans()):
        seen, repeats = set(), []
        for msg_i, recs in blocks:
            # a msg line's length stands for its message's: the ids are alike
            key = (len(lines[msg_i]), tuple(lines[i].split(None, 2)[2] for i in recs))
            if key in seen:
                repeats.append(recs)
            seen.add(key)
        recs = draw(st.sampled_from(repeats))
        i = draw(st.sampled_from(recs))
        lines[i] = draw(st.sampled_from(_CORRUPTIONS))(lines[i])
    if draw(st.booleans()):  # a rec line that names an earlier message
        (_, earlier), (later, _) = sorted(draw(st.lists(
            st.sampled_from(blocks), min_size=2, max_size=2, unique_by=lambda b: b[0])))
        moved = lines[draw(st.sampled_from(earlier))]
        lines.insert(draw(st.integers(later + 1, later + 4)), moved)
    gt = [i for i, line in enumerate(lines) if line.startswith("gt ")]
    chosen = sorted(draw(st.lists(st.sampled_from(gt), max_size=4, unique=True)), reverse=True)
    for line in [lines.pop(i) for i in chosen]:
        lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_PADDING)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        pad = draw(st.sampled_from([" ", "  ", "\t"]))
        lines[i] = draw(st.sampled_from([
            pad + lines[i], lines[i] + pad, lines[i].replace(" ", " " + pad, 2),
        ]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(read, text, newline):
    try:
        corpus = read(io.StringIO(text, newline=newline))
    except (ParseError, IntegrityError) as exc:
        return type(exc), str(exc)
    return corpus.messages, corpus.shapes, corpus.truth


@given(edited_corpora(), st.sampled_from([None, "", "\n"]))
@settings(max_examples=150, deadline=None)
def test_the_block_reader_matches_the_per_line_oracle(text, newline):
    assert _outcome(read_interchange, text, newline) == _outcome(_oracle_read, text, newline)


_BLOCK = (
    "seq=1 op=movzx class=MOV_SERIES off=0-1",
    "seq=2 op=cmp class=COMPARE off=0-1 const=0x01 result=true",
)


def _message(mid, lines):
    return f"msg {mid} bytes=0x0102\n" + "".join(f"rec {mid} {line}\n" for line in lines)


@pytest.mark.parametrize("later", [
    pytest.param(_message("b", _BLOCK), id="repeat"),
    pytest.param(_message("b", _BLOCK + ("seq=3 op=add class=ARITH_BITWISE off=1",)),
                 id="one-more-line"),
    pytest.param(_message("b", _BLOCK + (_BLOCK[1],)), id="one-more-line-out-of-order"),
    pytest.param(_message("b", _BLOCK[:1]), id="shorter"),
    pytest.param(_message("b", (_BLOCK[0], _BLOCK[1].replace("0x01", "0x02"))),
                 id="later-line-differs"),
    pytest.param(_message("b", _BLOCK)[:-1], id="repeat-without-final-newline"),
    pytest.param(_message("b", _BLOCK) + _message("c", _BLOCK[:1]) + _message("d", _BLOCK),
                 id="repeat-after-another-block"),
    pytest.param(_message("b", _BLOCK[:1] * 2) + _message("c", _BLOCK[:1] * 2),
                 id="out-of-order-repeat"),
    pytest.param(_message("b", _BLOCK[:1] * 2) + _message("c", (_BLOCK[0] + " bogus",)),
                 id="out-of-order-then-bad-line"),
    pytest.param(_message("b", _BLOCK) + _message("c", _BLOCK[:1]) + f"rec b {_BLOCK[0]}\n",
                 id="stray-line-out-of-order"),
])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("newline", [None, "", "\n"])
def test_a_block_like_one_read_before_matches_the_per_line_oracle(later, end, newline):
    """A block with the first line and message length of one read before is
    taken from it only when it repeats all of it, and nothing more."""
    text = (_message("a", _BLOCK) + later).replace("\n", end)
    assert _outcome(read_interchange, text, newline) == _outcome(_oracle_read, text, newline)


def test_a_block_that_begins_with_one_read_before_is_read_whole():
    """Repeats of a longer block share its one records tuple, although a
    block read before is the same up to its last line."""
    longer = _BLOCK + ("seq=3 op=add class=ARITH_BITWISE off=1",)
    _, traces = load_text(
        _message("a", _BLOCK) + _message("b", longer) + _message("c", longer)
    )
    assert traces[1].records is traces[2].records
    assert traces[0].records == traces[1].records[:2]


def test_blocks_that_alternate_at_one_first_line_give_one_shape_per_trace(monkeypatch):
    """Each of these blocks differs from the last block read at its message
    length and first line, so each is carved; its trace is then interned by
    value, and equal blocks still make one shape."""
    carved = []
    real = traceio._carve
    monkeypatch.setattr(traceio, "_carve", lambda *args: carved.append(args) or real(*args))
    other = "seq=2 op=add class=ARITH_BITWISE off=1"
    text = "".join(
        _message(mid, (_BLOCK[0], last)) for mid, last in zip("abcd", [_BLOCK[1], other] * 2)
    )
    (a, b, c, d), shapes, _ = read_interchange(io.StringIO(text))
    assert len(carved) == 4
    assert [held for _, held in shapes] == [(a, c), (b, d)]


@pytest.mark.parametrize("later", [
    pytest.param(_message("b", _BLOCK[:1]) + f"# ends the block\nrec b {_BLOCK[1]}\n",
                 id="two-parts"),
    pytest.param(_message("b", ()) + _message("c", _BLOCK)
                 + "".join(f"rec b {line}\n" for line in _BLOCK), id="stray-lines"),
])
def test_a_message_joined_at_the_end_joins_an_equal_blocks_shape(later):
    """A message whose records are not one block is joined and checked at
    the end of the read; an equal trace read as a block makes them one
    shape, with the trace read first."""
    text = _message("a", _BLOCK) + later + _message("d", _BLOCK)
    messages, shapes, _ = read_interchange(io.StringIO(text))
    assert shapes == [Shape(load_text(_message("a", _BLOCK))[1][0], tuple(messages))]


def test_a_seq_out_of_order_is_named_on_its_line_in_any_part():
    line = "op=mov class=MOV_SERIES off=0"
    text = (
        f"msg a bytes=0x0102\nrec a seq=1 {line}\n"
        f"# a comment ends the block\nrec a seq=2 {line}\nrec a seq=3 {line}\n"
        f"rec a seq=3 {line}\n"
    )
    with pytest.raises(IntegrityError) as err:
        load_text(text)
    assert err.value.line_no == 6 and "(3 after 3)" in str(err.value)


def test_a_block_is_reused_only_for_a_message_of_the_same_length():
    block = "seq=1 op=movzx class=MOV_SERIES off=0-3\n"
    text = (
        f"msg a bytes=0x0102030405\nrec a {block}"
        f"msg b bytes=0x0102030405\nrec b {block}"
        f"msg c bytes=0x010203\nrec c {block}"
    )
    with pytest.raises(IntegrityError) as err:
        load_text(text)
    assert err.value.line_no == 6 and "length 3" in str(err.value)


def test_reading_is_linear_in_the_lines_however_blocks_alternate(monkeypatch):
    """Blocks of one first line and message length that alternate between
    2,000 lines, each with its own last line, and one line: each line is
    carved or compared a bounded number of times, because a block is
    compared only with the last block read at its (length, first line)."""
    work = {"_carve": 0, "_repeat_end": 0}

    def counted(name, lines_of):
        original = getattr(traceio, name)

        def wrapper(*args):
            result = original(*args)
            work[name] += len(lines_of(args, result))
            return result
        monkeypatch.setattr(traceio, name, wrapper)

    counted("_carve", lambda args, result: result[0])  # lines carved
    counted("_repeat_end", lambda args, result: args[3])  # lines compared
    first = "seq=1 op=mov class=MOV_SERIES off=0"
    middle = [f"seq={i} op=mov class=MOV_SERIES off=0" for i in range(2, 2000)]
    blocks = []
    for k in range(16):
        blocks.append((f"l{k}", [first, *middle, f"seq=2000 op=x{k} class=MOV_SERIES off=0"]))
        blocks.append((f"s{k}", [first]))
    text = "".join(_message(mid, lines) for mid, lines in blocks)
    _, traces = load_text(text)
    assert [len(t.records) for t in traces] == [len(lines) for _, lines in blocks]
    assert len({id(t.records) for t in traces[1::2]}) == 1
    assert sum(work.values()) <= 3 * text.count("\n")


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_a_file_with_crlf_or_lone_cr_line_ends_loads_as_with_lf(tmp_path, end):
    """Files are opened in universal-newlines mode, so the stream turns
    each line end into an LF before the reader sees the text."""
    text = "\n".join(_generated_lines(0)) + "\n"
    lf, other = tmp_path / "lf.fl", tmp_path / "other.fl"
    lf.write_text(text, encoding="utf-8", newline="\n")
    other.write_text(text, encoding="utf-8", newline=end)
    assert other.read_bytes() != lf.read_bytes()
    assert load_corpus(other) == load_corpus(lf)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("filler", [0, 4000])
def test_a_file_that_is_not_utf8_is_named_on_its_first_bad_line(tmp_path, filler, end):
    """The whole text is decoded before any line is parsed, so a bad first
    line never hides an undecodable byte however far on it stands."""
    lines = [b"nope a x=1", *[b"# filler"] * filler, b"# caf\xff", b"# \xfe"]
    path = tmp_path / "bad.fl"
    path.write_bytes(end.encode().join(lines) + end.encode())
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert err.value.line_no == filler + 2
    assert str(err.value) == f"line {filler + 2}: not UTF-8 text (invalid start byte)"

import json

from hypothesis import given, settings, strategies as st

from fieldlens.detectors import (
    LIBRARY,
    Evidence,
    FieldAnnotation,
    SemanticFunction,
    SemanticType,
)
from fieldlens.fuzz_template import build_template, export_fuzz_template
from fieldlens.model import ExecutionTrace, Field, InstructionRecord, Message, OpClass

from reference_vm import as_runs

T = SemanticType
F = SemanticFunction
CHECKSUM_RULE = next(r.id for r in LIBRARY if r.label is F.CHECKSUM)


def ann(start, end, sem_type, funcs=(), evidence=(Evidence("t", 1),)):
    return FieldAnnotation(Field(start, end), sem_type, frozenset(funcs), evidence)


def fields_of(doc, mid):
    (fields,) = [fmt["fields"] for fmt in doc["formats"] if mid in fmt["messages"]]
    return fields


def test_length_field_becomes_size_of_entry():
    msg = Message("m", bytes(8))
    doc = build_template(
        {"m": [ann(0, 0, T.INTEGER, [F.LENGTH]), ann(1, 7, T.BYTES)]}, {"m": msg}, {}
    )
    entry = fields_of(doc, "m")[0]
    assert entry["kind"] == "size-of"
    assert entry["of"] == {"start": 1, "end": 7}


def test_unknown_field_becomes_random_with_boundaries():
    msg = Message("m", bytes(4))
    doc = build_template({"m": [ann(0, 1, T.UNKNOWN), ann(2, 3, T.INTEGER)]}, {"m": msg}, {})
    entry = fields_of(doc, "m")[0]
    assert entry["kind"] == "random"
    assert (entry["start"], entry["end"]) == (0, 1)


def test_empty_annotations_emit_header_only(tmp_path):
    path = tmp_path / "template.json"
    export_fuzz_template({}, {}, {}, path)
    doc = json.loads(path.read_text())
    assert doc == {"format": "fieldlens-fuzz-template", "version": 2, "formats": []}


def test_static_and_delim_carry_values():
    msg = Message("m", b"\x05\x64\r\n")
    doc = build_template(
        {"m": [ann(0, 1, T.STATIC), ann(2, 3, T.STATIC, [F.DELIM])]}, {"m": msg}, {}
    )
    first, second = fields_of(doc, "m")
    assert first["kind"] == "static" and first["value"] == "0564"
    assert second["kind"] == "delim" and second["value"] == "0d0a"


def test_group_collects_values_across_corpus():
    msgs = {
        "a": Message("a", b"\x01\x00"),
        "b": Message("b", b"\x02\x00"),
        "c": Message("c", b"\x01\x00"),
    }
    annotations = {
        mid: [ann(0, 0, T.GROUP, [F.COMMAND]), ann(1, 1, T.STATIC)]
        for mid in msgs
    }
    doc = build_template(annotations, msgs, {})
    (fmt,) = doc["formats"]
    assert fmt["messages"] == ["a", "b", "c"]
    entry = fmt["fields"][0]
    assert entry["kind"] == "group"
    assert entry["values"] == ["01", "02"]


def _compare(seq, lineage):
    return InstructionRecord(
        seq=seq,
        operator="cmp",
        op_class=OpClass.COMPARE,
        accessed_offsets=as_runs(set().union(*lineage)),
        operand_lineage=tuple(as_runs(side) for side in lineage),
    )


def test_checksum_and_filename_kinds():
    msg = Message("m", b"ab.txt\x10\x20")
    annotations = {
        "m": [
            ann(0, 5, T.STRING, [F.FILENAME]),
            ann(6, 7, T.INTEGER, [F.CHECKSUM], (Evidence(CHECKSUM_RULE, 4),)),
        ]
    }
    doc = build_template(annotations, {"m": msg}, {})
    kinds = [f["kind"] for f in fields_of(doc, "m")]
    assert kinds == ["filename", "checksum"]
    assert "of" not in fields_of(doc, "m")[1]  # no trace, so no record


def test_a_checksum_covers_the_lineage_its_evidence_names():
    msg = Message("m", bytes(10))
    checksum = ann(8, 9, T.INTEGER, [F.CHECKSUM], (Evidence(CHECKSUM_RULE, 4),))
    annotations = {"m": [ann(0, 1, T.INTEGER), ann(2, 7, T.BYTES), checksum]}
    records = (
        _compare(2, ({0, 1}, set())),
        _compare(4, ({8, 9}, {2, 3, 4, 6, 7})),  # the field's side first
        _compare(6, ({2, 3}, {8, 9})),
    )
    for trace, of in [
        (ExecutionTrace(records), {"start": 2, "end": 7}),  # runs spanned
        (ExecutionTrace(records[:1] + records[2:]), None),  # seq 4 is missing
    ]:
        entry = fields_of(build_template(annotations, {"m": msg}, {"m": trace}), "m")[2]
        assert entry["kind"] == "checksum"
        assert entry.get("of") == of


def test_messages_that_differ_in_an_integer_share_one_format():
    fields = [ann(0, 0, T.STATIC), ann(1, 2, T.INTEGER)]
    msgs = {"b": Message("b", b"\x07\x00\x01"), "a": Message("a", b"\x07\x09\x09")}
    doc = build_template({"b": fields, "a": fields}, msgs, {})
    assert [fmt["messages"] for fmt in doc["formats"]] == [["a", "b"]]
    # a static field writes its bytes, so other bytes make another format
    msgs["c"] = Message("c", b"\x08\x00\x01")
    doc = build_template({"b": fields, "a": fields, "c": fields}, msgs, {})
    assert [fmt["messages"] for fmt in doc["formats"]] == [["a", "b"], ["c"]]


def test_evidence_alone_does_not_split_a_format():
    msgs = {mid: Message(mid, bytes(2)) for mid in "ab"}
    annotations = {
        mid: [ann(0, 1, T.INTEGER, evidence=(Evidence("t", seq),))]
        for mid, seq in zip("ab", (1, 2))
    }
    assert len(build_template(annotations, msgs, {})["formats"]) == 1


def test_a_size_of_field_at_two_lengths_gives_two_formats():
    msgs = {"a": Message("a", bytes(4)), "b": Message("b", bytes(6))}
    annotations = {
        mid: [ann(0, 0, T.INTEGER, [F.LENGTH]), ann(1, len(m) - 1, T.BYTES)]
        for mid, m in msgs.items()
    }
    doc = build_template(annotations, msgs, {})
    assert [(fmt["length"], fmt["messages"]) for fmt in doc["formats"]] == [
        (4, ["a"]),
        (6, ["b"]),
    ]
    assert [fmt["fields"][0]["of"] for fmt in doc["formats"]] == [
        {"start": 1, "end": 3},
        {"start": 1, "end": 5},
    ]


_labels = st.tuples(
    st.sampled_from(list(T)),
    st.frozensets(st.sampled_from([F.LENGTH, F.DELIM, F.COMMAND, F.FILENAME]), max_size=2),
)


@st.composite
def _corpora(draw):
    messages, annotations = {}, {}
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        mid = f"m{draw(st.integers(min_value=0, max_value=99)):02d}"
        data = draw(st.binary(min_size=1, max_size=6))
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=len(data) - 1)))
                      if len(data) > 1 else set())
        bounds = [0, *cuts, len(data)]
        messages[mid] = Message(mid, data)
        annotations[mid] = [
            FieldAnnotation(Field(lo, hi - 1), *draw(_labels), ())
            for lo, hi in zip(bounds, bounds[1:])
        ]
    return messages, annotations


@given(_corpora())
@settings(max_examples=150, deadline=None)
def test_every_message_is_in_exactly_one_format(corpus):
    messages, annotations = corpus
    doc = build_template(annotations, messages, {})
    ids = [mid for fmt in doc["formats"] for mid in fmt["messages"]]
    assert sorted(ids) == sorted(messages)
    assert len(set(ids)) == len(ids)
    firsts = [fmt["messages"][0] for fmt in doc["formats"]]
    assert firsts == sorted(firsts)
    for fmt in doc["formats"]:
        assert fmt["messages"] == sorted(fmt["messages"])
        assert fmt["length"] == fmt["fields"][-1]["end"] + 1
        for mid in fmt["messages"]:
            alone = build_template({mid: annotations[mid]}, messages, {})["formats"][0]
            # a message's own entries, but for group values seen elsewhere
            for mine, shared in zip(alone["fields"], fmt["fields"]):
                assert {**mine, "values": None} == {**shared, "values": None}

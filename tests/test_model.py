import functools
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens.detectors import Evidence, FieldAnnotation, SemanticFunction, SemanticType
from fieldlens.model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    Field,
    FormatResult,
    InstructionRecord,
    Message,
    ModelError,
    OpClass,
    LoopRole,
    PointerArith,
    clip,
    instructions_for,
    runs,
)
from reference_vm import as_runs


def rec(seq, op="movzx", klass=OpClass.MOV_SERIES, offsets=(), **kw):
    """A record that accesses the set ``offsets``, spelt as its runs."""
    accessed = as_runs(offsets)
    return InstructionRecord(
        seq=seq,
        operator=op,
        op_class=klass,
        accessed_offsets=accessed,
        reads=kw.pop("reads", accessed if klass is OpClass.MOV_SERIES else ()),
        **kw,
    )


def test_message_requires_bytes():
    with pytest.raises(ModelError):
        Message("empty", b"")


def test_cmp_result_requires_compare_class():
    with pytest.raises(ModelError):
        rec(1, "mov", OpClass.MOV_SERIES, {0}, cmp_result=True)


def test_loop_role_and_id_must_travel_together():
    with pytest.raises(ModelError):
        rec(1, "xor", OpClass.ARITH_BITWISE, {0}, loop_id="a")
    with pytest.raises(ModelError):
        rec(1, "xor", OpClass.ARITH_BITWISE, {0}, loop_role=LoopRole.BODY)
    ok = rec(1, "xor", OpClass.ARITH_BITWISE, {0}, loop_id="a", loop_role=LoopRole.BODY)
    assert ok.loop_id == "a"


def test_reads_must_be_subset_of_accessed():
    with pytest.raises(ModelError):
        rec(1, "movzx", OpClass.MOV_SERIES, {0}, reads=((0, 1),))


def test_trace_seq_strictly_increasing():
    with pytest.raises(ModelError):
        ExecutionTrace((rec(2, offsets={0}), rec(2, offsets={1})))
    trace = ExecutionTrace((rec(1, offsets={0}), rec(5, offsets={1})))
    assert len(trace.records) == 2


def test_field_ordering_and_bounds():
    with pytest.raises(ModelError):
        Field(3, 2)
    with pytest.raises(ModelError):
        Field(-1, 0)
    assert Field(2, 5) == (2, 5, True) != Field(2, 5, accessed=False)


def test_format_result_partition_checks():
    with pytest.raises(ModelError):
        FormatResult(4, (Field(0, 1), Field(3, 3)))  # gap at 2
    with pytest.raises(ModelError):
        FormatResult(4, (Field(0, 1), Field(1, 3)))  # overlap
    with pytest.raises(ModelError):
        FormatResult(5, (Field(0, 1), Field(2, 3)))  # short
    fmt = FormatResult(5, (Field(0, 1), Field(2, 2), Field(3, 4)))
    assert fmt.boundaries == (2, 3)
    assert fmt == (5, fmt.fields) and hash(fmt) == hash(FormatResult(*fmt))
    with pytest.raises(ModelError):
        fmt._replace(length=6)  # _make and _replace go through the check


def test_instructions_for_empty_range():
    trace = ExecutionTrace((rec(1, offsets={0}),))
    assert instructions_for(trace, [Field(5, 6)]) == [[]]


def test_instructions_for_matches_brute_force_union():
    records = (
        rec(1, offsets={0, 1}),
        rec(2, offsets={1, 2}),
        rec(3, offsets={4}),
        rec(4, offsets=()),
    )
    trace = ExecutionTrace(records)
    field = Field(0, 2)  # spans the ranges of the first two records
    (got,) = instructions_for(trace, [field])
    expected = [
        r
        for r in records
        if any(lo <= field.end and field.start <= hi for lo, hi in r.accessed_offsets)
    ]
    assert got == expected
    assert [r.seq for r in got] == [1, 2]  # deduplicated by construction


def test_whole_message_field_returns_touching_records():
    records = (rec(1, offsets={0}), rec(2, offsets=()), rec(3, offsets={7}))
    trace = ExecutionTrace(records)
    (got,) = instructions_for(trace, [Field(0, 7)])
    assert [r.seq for r in got] == [1, 3]


def test_disjoint_fields_union_covers_span():
    records = (rec(1, offsets={0}), rec(2, offsets={3}), rec(3, offsets={5}))
    trace = ExecutionTrace(records)
    left, right = instructions_for(trace, [Field(0, 2), Field(3, 5)])
    (covering,) = instructions_for(trace, [Field(0, 5)])
    assert {r.seq for r in left} | {r.seq for r in right} == {
        r.seq for r in covering
    }


_small_sets = st.frozensets(st.integers(0, 7), max_size=4)
_small_runs = _small_sets.map(as_runs)


@st.composite
def _sorted_disjoint_fields(draw):
    """Fields in offset order, each after a gap of zero to two bytes."""
    fields, start = [], 0
    for gap, width in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=5)):
        start += gap
        fields.append(Field(start, start + width))
        start += width + 1
    return fields


@given(st.lists(_small_sets, max_size=12), _sorted_disjoint_fields())
@settings(max_examples=200, deadline=None)
def test_instructions_for_is_the_scan_it_replaces(offset_sets, fields):
    records = tuple(rec(i + 1, offsets=offsets) for i, offsets in enumerate(offset_sets))
    got = instructions_for(ExecutionTrace(records), fields)
    assert len(got) == len(fields)
    for field, records_of_field in zip(fields, got):
        span = range(field.start, field.end + 1)
        expected = [r for r, offsets in zip(records, offset_sets) if not offsets.isdisjoint(span)]
        assert records_of_field == expected
        assert all(g is e for g, e in zip(records_of_field, expected))


def _optional(strategy):
    return st.none() | strategy


# Any combination of field values, valid or not: each invariant of a record
# can be broken.
_record_values = st.tuples(
    st.integers(0, 5),
    st.sampled_from(["mov", "cmp", "add"]),
    st.sampled_from(list(OpClass)),
    _small_runs,
    _small_runs,
    _optional(st.binary(min_size=1, max_size=2)),
    _optional(st.booleans()),
    st.booleans(),
    _optional(st.sampled_from(["l1", "l2"])),
    _optional(st.sampled_from(list(LoopRole))),
    _optional(st.builds(ApiCall, st.just("recv"), st.sampled_from(list(ArgRole)))),
    _optional(st.sampled_from(list(PointerArith))),
    _optional(st.tuples(_small_runs, _small_runs)),
)


def _outcome(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ModelError as exc:
        return str(exc)


_BASE = InstructionRecord(0, "mov", OpClass.OTHER, ())


@given(_record_values)
@settings(max_examples=300, deadline=None)
def test_positional_keyword_and_replace_build_the_same_record(values):
    named = dict(zip(InstructionRecord._fields, values))
    positional = _outcome(InstructionRecord, *values)
    assert _outcome(InstructionRecord, **named) == positional
    assert _outcome(_BASE._replace, **named) == positional
    if isinstance(positional, InstructionRecord):
        assert tuple(positional) == values
        assert positional._replace(seq=9) == InstructionRecord(9, *values[1:])


def test_replace_and_make_check_the_record():
    good = InstructionRecord(1, "cmp", OpClass.COMPARE, ((0, 0),), cmp_result=True)
    with pytest.raises(ModelError, match="cmp_result requires op_class=COMPARE"):
        good._replace(op_class=OpClass.MOV_SERIES)
    with pytest.raises(ModelError, match="reads must be a subset of accessed_offsets"):
        InstructionRecord._make((1, "mov", OpClass.MOV_SERIES, (), ((0, 0),)))


@given(st.integers(-3, 6), st.integers(-3, 6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_make_and_replace_check_the_field_range(start, end, accessed):
    outcomes = [
        _outcome(Field, start, end, accessed),
        _outcome(Field._make, (start, end, accessed)),
        _outcome(Field(0, 0)._replace, start=start, end=end, accessed=accessed),
    ]
    if start < 0 or end < start:
        assert outcomes == [f"invalid field range ({start}, {end})"] * 3
    else:
        assert outcomes == [(start, end, accessed)] * 3
        assert all(type(f) is Field for f in outcomes)


def test_memo_keys_hash_and_compare_in_c():
    """The values that memos key on take ``tuple``'s hash and equality, and
    the label enums hash by identity, so no hash is a Python call."""
    for cls in (Field, FieldAnnotation, Evidence, InstructionRecord):
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__, cls
    for cls in (OpClass, LoopRole, ArgRole, PointerArith, SemanticType, SemanticFunction):
        assert cls.__hash__ is object.__hash__, cls


def test_the_constructor_takes_the_declared_fields_and_defaults():
    params = inspect.signature(InstructionRecord).parameters
    assert tuple(params) == InstructionRecord._fields
    assert {
        name: p.default for name, p in params.items() if p.default is not p.empty
    } == InstructionRecord._field_defaults


def test_runs_are_canonical():
    assert runs([]) == ()
    assert runs([(4, 5)]) == ((4, 5),)
    assert runs([(9, 9), (3, 4), (1, 1), (5, 5)]) == ((1, 1), (3, 5), (9, 9))
    assert runs([(2, 3), (2, 2), (0, 6), (8, 8)]) == ((0, 6), (8, 8))


def _members(offsets):
    return {o for lo, hi in offsets for o in range(lo, hi + 1)}


_pairs = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 6)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=8,
)


@given(_pairs)
@settings(max_examples=300, deadline=None)
def test_runs_give_the_set_that_the_pairs_cover(pairs):
    got = runs(pairs)
    assert got == as_runs(_members(pairs))
    assert runs(got) == got


@given(_small_sets, st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_clip_is_intersection_with_a_field(offsets, a, b):
    field = Field(min(a, b), max(a, b))
    inside = offsets & set(range(field.start, field.end + 1))
    assert clip(as_runs(offsets), field.start, field.end) == as_runs(inside)


@given(_small_sets, _small_sets)
@settings(max_examples=300, deadline=None)
def test_a_record_takes_reads_exactly_when_they_are_a_subset(accessed, reads):
    make = functools.partial(InstructionRecord, 1, "mov", OpClass.MOV_SERIES)
    outcome = _outcome(make, as_runs(accessed), as_runs(reads))
    if reads <= accessed:
        assert outcome.reads == as_runs(reads)
    else:
        assert outcome == "record seq=1: reads must be a subset of accessed_offsets"


def test_checksum_word_sees_combine_and_final_compare(example3):
    _, trace = example3
    (records,) = instructions_for(trace, [Field(21, 22)])
    seqs = [r.seq for r in records]
    assert 6 in seqs  # the or that combines the two checksum bytes
    assert 16 in seqs  # the final compare against the accumulator
    ops = {trace.records[s - 1].operator for s in seqs}
    assert {"or", "cmp"} <= ops

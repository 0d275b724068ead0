"""Randomized invariants over the extraction stage, the scoring fold,
refinement's audit log, field and annotation equality, and the report
encoder."""

import enum
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens.evaluation import MetricsReport
from fieldlens.detectors import Evidence, FieldAnnotation, SemanticFunction, SemanticType
from fieldlens.extraction import (
    extract_format,
    extract_format_baseline,
    intra_instruction_candidates,
    resolve_overlaps,
)
from fieldlens.model import (
    ExecutionTrace,
    Field,
    FormatResult,
    InstructionRecord,
    Message,
    OpClass,
    instructions_for,
)
from fieldlens.pipeline import refine_corpus, score_corpus
from fieldlens.reports import encode
from fieldlens.vm import bundled_parsers, run as vm_run

from conftest import per_message

MSG_LEN = 12

_ops = st.sampled_from(
    [
        ("movzx", OpClass.MOV_SERIES),
        ("mov", OpClass.MOV_SERIES),
        ("cmp", OpClass.COMPARE),
        ("xor", OpClass.ARITH_BITWISE),
        ("add", OpClass.ARITH_BITWISE),
    ]
)


@st.composite
def random_traces(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    records = []
    for seq in range(1, n + 1):
        op, klass = draw(_ops)
        lo = draw(st.integers(min_value=0, max_value=MSG_LEN - 1))
        hi = draw(st.integers(min_value=lo, max_value=min(lo + 3, MSG_LEN - 1)))
        offsets = ((lo, hi),)
        reads = offsets if klass is OpClass.MOV_SERIES else ()
        records.append(
            InstructionRecord(
                seq=seq,
                operator=op,
                op_class=klass,
                accessed_offsets=offsets,
                reads=reads,
                cmp_result=draw(st.booleans()) if klass is OpClass.COMPARE else None,
            )
        )
    return ExecutionTrace(tuple(records))


@given(random_traces(), st.binary(min_size=MSG_LEN, max_size=MSG_LEN))
@settings(max_examples=150, deadline=None)
def test_extraction_always_partitions_the_message(trace, payload):
    message = Message("m", payload)
    for fmt in (
        extract_format(message, trace),
        extract_format_baseline(message, trace),
    ):
        assert fmt.fields[0].start == 0
        assert fmt.fields[-1].end == MSG_LEN - 1
        for left, right in zip(fmt.fields, fmt.fields[1:]):
            assert right.start == left.end + 1


@given(random_traces(), st.binary(min_size=MSG_LEN, max_size=MSG_LEN))
@settings(max_examples=150, deadline=None)
def test_merging_only_removes_boundaries(trace, payload):
    message = Message("m", payload)
    merged = set(extract_format(message, trace).boundaries)
    baseline = set(extract_format_baseline(message, trace).boundaries)
    assert merged <= baseline


@given(random_traces(), st.binary(min_size=MSG_LEN, max_size=MSG_LEN))
@settings(max_examples=100, deadline=None)
def test_extraction_deterministic(trace, payload):
    message = Message("m", payload)
    assert extract_format(message, trace) == extract_format(message, trace)


@given(st.sampled_from(bundled_parsers()), st.integers(0, 1 << 16))
@settings(max_examples=30, deadline=None)
def test_a_candidate_is_accessed_exactly_when_it_has_operators(parser, seed):
    """Merging compares operator sequences only of two accessed candidates,
    and on a generated trace neither sequence is ever empty."""
    messages, _ = parser.generate(3, seed)
    for msg in messages:
        trace = vm_run(parser.script, msg).trace
        candidates = resolve_overlaps(intra_instruction_candidates(msg, trace))
        for c, records in zip(candidates, instructions_for(trace, candidates)):
            assert c.accessed == bool(records)


@given(random_traces(), st.binary(min_size=MSG_LEN, max_size=MSG_LEN))
@settings(max_examples=150, deadline=None)
def test_a_byte_that_no_read_covers_is_accessed_exactly_when_it_has_operators(trace, payload):
    """Bytes that no record read from the buffer become one-byte candidates,
    accessed exactly when some record touched them.  Random traces leave
    such bytes often, the bundled parsers' traces seldom."""
    message = Message("m", payload)
    candidates = resolve_overlaps(intra_instruction_candidates(message, trace))
    for c, records in zip(candidates, instructions_for(trace, candidates)):
        assert c.accessed == bool(records)


@st.composite
def partitions(draw):
    bounds = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=MSG_LEN - 1), max_size=6))
    )
    edges = [0, *bounds, MSG_LEN]
    return [(a, b - 1) for a, b in zip(edges, edges[1:])]


def scored(inferred, truth):
    """The report of one message, scored without annotations."""
    report = MetricsReport()
    report.add_message(inferred, (), truth)
    return report


@given(partitions(), partitions())
@settings(max_examples=150, deadline=None)
def test_boundary_counts_are_consistent(true_fields, inferred_fields):
    truth = tuple(
        FieldAnnotation(Field(a, b), SemanticType.BYTES, frozenset(), ())
        for a, b in true_fields
    )
    inferred = FormatResult(MSG_LEN, tuple(Field(a, b) for a, b in inferred_fields))
    report = scored(inferred, truth)
    score = report.format
    # every inter-byte position lands in exactly one bucket
    assert score.positions == MSG_LEN - 1
    # without unaccessed exclusions, segmentation errors equal FP/FN
    assert report.over_seg == score.fp and report.under_seg == score.fn
    # scoring a partition against itself is perfect
    self_truth = tuple(
        FieldAnnotation(f, SemanticType.BYTES, frozenset(), ()) for f in inferred.fields
    )
    self_score = scored(inferred, self_truth).format
    assert self_score.f1 == 1.0 and self_score.perfection == 1.0


@given(partitions(), st.data())
@settings(max_examples=150, deadline=None)
def test_splitting_one_true_field_costs_exactly_one_perfect_field(true_fields, data):
    truth = tuple(
        FieldAnnotation(Field(a, b), SemanticType.BYTES, frozenset(), ())
        for a, b in true_fields
    )
    exact = FormatResult(MSG_LEN, tuple(a.field for a in truth))
    assert scored(exact, truth).format.perfect_fields == len(truth)
    # both ends of the split field stay inferred boundaries, yet it is not exact
    start, end = data.draw(st.sampled_from([(a, b) for a, b in true_fields if b > a]))
    cut = data.draw(st.integers(min_value=start + 1, max_value=end))
    split = sorted({*exact.fields, Field(start, cut - 1), Field(cut, end)} - {Field(start, end)})
    score = scored(FormatResult(MSG_LEN, tuple(split)), truth).format
    assert score.perfect_fields == len(truth) - 1


@st.composite
def scored_corpora(draw):
    """Formats, annotations over their fields, and labelled true fields with
    random ``accessed`` flags, by message id."""
    types = st.sampled_from(list(SemanticType))
    funcs = st.frozensets(st.sampled_from(list(SemanticFunction)), max_size=3)
    formats, annotations, truths = {}, {}, {}
    for i in range(draw(st.integers(1, 5))):
        mid = f"m{i}"
        fields = tuple(Field(a, b) for a, b in draw(partitions()))
        formats[mid] = FormatResult(MSG_LEN, fields)
        annotations[mid] = tuple(
            FieldAnnotation(f, draw(types), draw(funcs), ()) for f in fields
        )
        truths[mid] = tuple(
            FieldAnnotation(Field(a, b, draw(st.booleans())), draw(types), draw(funcs), ())
            for a, b in draw(partitions())
        )
    return formats, annotations, truths


@given(scored_corpora())
@settings(max_examples=150, deadline=None)
def test_a_repeated_message_adds_its_counts_again_and_changes_no_ratio(corpus):
    """Scoring every message twice, the copy under a new id, doubles each
    count of ``metrics.json`` and leaves each ratio bit-identical."""

    def doubled(by_id):
        return {**by_id, **{f"{mid}-copy": value for mid, value in by_id.items()}}

    once = score_corpus(*corpus).to_dict()
    twice = score_corpus(*map(doubled, corpus)).to_dict()

    def check(one, two):
        if isinstance(one, dict):
            assert one.keys() == two.keys()
            for key in one:
                check(one[key], two[key])
        elif type(one) is int:
            assert two == 2 * one
        else:
            assert type(one) is float and one.hex() == two.hex()

    check(once, twice)


def _flipped(field):
    return Field(field.start, field.end, not field.accessed)


@st.composite
def repeated_rows(draw):
    """A scored corpus plus copies of its messages under ids that sort among
    theirs.  A copy repeats its message's row, or differs from it only in
    its annotations' evidence, or only in ``accessed``: of one true field, or
    of every inferred field."""
    formats, annotations, truths = draw(scored_corpora())
    originals = sorted(formats)
    for i in range(draw(st.integers(1, 12))):
        src = draw(st.sampled_from(originals))
        fields, anns, truth = formats[src].fields, annotations[src], truths[src]
        change = draw(st.sampled_from(["none", "evidence", "true field", "fields"]))
        if change == "evidence":
            anns = tuple(
                a._replace(evidence=(Evidence("type.static", i, "n"),))
                for a in anns
            )
        elif change == "true field":
            k = draw(st.integers(0, len(truth) - 1))
            flipped = truth[k]._replace(field=_flipped(truth[k].field))
            truth = truth[:k] + (flipped,) + truth[k + 1 :]
        elif change == "fields":
            fields = tuple(map(_flipped, fields))
            anns = tuple(a._replace(field=_flipped(a.field)) for a in anns)
        mid = f"{src}-{i}" if draw(st.booleans()) else f"l{i}"
        formats[mid] = FormatResult(MSG_LEN, fields)
        annotations[mid], truths[mid] = anns, truth
    return formats, annotations, truths


def scored_one_by_one(formats, annotations, truths):
    """The reference: every message scored on its own, in id order."""
    report = MetricsReport()
    for mid in sorted(formats):
        report.add_message(formats[mid], annotations[mid], truths[mid])
    return report


@given(repeated_rows())
@settings(max_examples=150, deadline=None)
def test_scoring_by_row_gives_the_bytes_of_scoring_by_message(corpus):
    """``score_corpus`` scores each distinct row once, weighted by its
    messages; ``metrics.json`` must keep the bytes of scoring each message."""
    assert encode(score_corpus(*corpus).to_dict()) == encode(
        scored_one_by_one(*corpus).to_dict()
    )


_fields = st.builds(
    lambda start, size, accessed: Field(start, start + size, accessed),
    st.integers(0, MSG_LEN), st.integers(0, 3), st.booleans(),
)
_annotations = st.builds(
    FieldAnnotation,
    _fields,
    st.sampled_from(list(SemanticType)),
    st.frozensets(st.sampled_from(list(SemanticFunction)), max_size=3),
    st.lists(
        st.builds(Evidence, st.sampled_from(["a", "b"]), st.none() | st.integers(1, 3),
                  st.sampled_from(["", "n"])),
        max_size=2,
    ).map(tuple),
)


def _rebuilt(value):
    """An equal field or annotation, built afresh as another object."""
    if isinstance(value, Field):
        return Field(value.start, value.end, value.accessed)
    return FieldAnnotation(
        _rebuilt(value.field), value.inferred_type, value.inferred_functions, value.evidence
    )


@given(st.one_of(_fields, _annotations), st.one_of(_fields, _annotations))
@settings(max_examples=300, deadline=None)
def test_equal_fields_and_annotations_hash_equal(value, other):
    fresh = _rebuilt(value)
    assert fresh == value
    first = hash(value)
    assert hash(fresh) == first == hash(value)
    if other == value:
        assert hash(other) == first


@given(_annotations, _annotations)
@settings(max_examples=300, deadline=None)
def test_a_replaced_value_hashes_like_a_fresh_one(ann, other):
    hash(ann)  # hashing first must not change what a replaced value hashes to
    changed = ann._replace(inferred_type=other.inferred_type, evidence=other.evidence)
    fresh = FieldAnnotation(ann.field, other.inferred_type, ann.inferred_functions, other.evidence)
    assert changed == fresh and hash(changed) == hash(fresh)
    f = ann.field
    flipped = f._replace(accessed=not f.accessed)
    assert flipped == Field(f.start, f.end, not f.accessed)
    assert hash(flipped) == hash(Field(f.start, f.end, not f.accessed))
    assert Field(f.start, f.end, True) != Field(f.start, f.end, False)
    assert ann._replace(field=flipped) != ann


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\n\t\"\\/", "\u00e9\u2028\uffff", "\U0001f600\U0010ffff"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=25,
)


@given(_json_values, _json_values)
@settings(max_examples=200, deadline=None)
def test_encode_is_the_stdlib_indented_sorted_form(value, shared):
    # ``shared`` appears at three depths, so its memoized text is re-indented
    doc = {"value": value, "a": shared, "b": [shared, {"c": shared}]}
    assert encode(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert encode(value) == json.dumps(value, indent=2, sort_keys=True)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


@given(_json_values)
@settings(max_examples=100, deadline=None)
def test_encode_writes_subclasses_as_the_stdlib_does(value):
    doc = _Dict(
        {
            _Str("s"): _Str("caf\u00e9"),
            "i": _Int(-3),
            "f": [_Float(0.5), _Float("nan"), _Float("-inf")],
            "e": _List([_Level.LOW, _Level.HIGH, {"k": _Level.HIGH}]),
            "value": _List([value, _Dict(), _List()]),
        }
    )
    assert encode(doc) == json.dumps(doc, indent=2, sort_keys=True)
    for scalar in (_Str("x"), _Int(7), _Float(2.25), _Level.LOW):
        assert encode(scalar) == json.dumps(scalar, indent=2, sort_keys=True)


@st.composite
def labelled_corpora(draw):
    """Messages of ``MSG_LEN`` bytes over a three-byte alphabet, so that
    clusters repeat values; each holds one of a few randomly partitioned and
    randomly labelled rows, so that messages share annotations."""
    labelled = partitions().flatmap(
        lambda fields: st.tuples(
            *(
                st.builds(
                    FieldAnnotation,
                    st.just(Field(a, b)),
                    st.sampled_from(list(SemanticType)),
                    st.frozensets(st.sampled_from(list(SemanticFunction)), max_size=3),
                    st.just(()),
                )
                for a, b in fields
            )
        )
    )
    rows = draw(st.lists(labelled, min_size=1, max_size=3))
    data = st.lists(st.integers(0, 2), min_size=MSG_LEN, max_size=MSG_LEN).map(bytes)
    messages, formats, annotations = [], {}, {}
    for i in range(draw(st.integers(1, 8))):
        mid = f"m{i}"
        row = draw(st.sampled_from(rows))
        messages.append(Message(mid, draw(data)))
        formats[mid] = FormatResult(MSG_LEN, tuple(ann.field for ann in row))
        annotations[mid] = row
    return messages, formats, annotations


@pytest.mark.parametrize(
    "toggles",
    list(itertools.product((True, False), repeat=3)),
    ids=lambda t: "+".join(s for s, on in zip(("clustering", "entropy", "constraints"), t) if on)
    or "none",
)
@given(corpus=labelled_corpora())
@settings(max_examples=25, deadline=None)
def test_every_refinement_is_audited(toggles, corpus):
    """Each changed annotation has an event at its message and range, and
    its final type is the one its last type event implies."""
    messages, formats, annotations = corpus
    _, refined, events = refine_corpus(messages, formats, annotations, *toggles)
    expanded = per_message(events)
    for mid, anns in annotations.items():
        for before, after in zip(anns, refined[mid], strict=True):
            rng = (before.field.start, before.field.end)
            here = [e for e in expanded.get(mid, ()) if e.field == rng]
            if after != before:
                assert here
            implied = before.inferred_type
            for e in here:
                if e.action == "revoke-type":
                    implied = SemanticType.UNKNOWN
                elif e.action == "assign-type":
                    implied = SemanticType[e.label]
            assert after.inferred_type is implied

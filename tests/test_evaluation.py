import io
import tracemalloc
from dataclasses import dataclass, field as dc_field

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens.detectors import Evidence, FieldAnnotation, SemanticFunction, SemanticType
from fieldlens.evaluation import (
    FormatScore,
    LabelCounts,
    MetricsReport,
    count_segmentation_errors,
    load_ground_truth,
)
from fieldlens.model import Field, FormatResult
from fieldlens.reports import annotated_formats, check_covers
from fieldlens.traceio import (
    IntegrityError,
    ParseError,
    load_corpus,
    read_interchange,
    serialize_ground_truth,
)

T = SemanticType
F = SemanticFunction


def gt(*fields):
    """A message's ground truth: its true fields in offset order."""
    return fields


def gtf(start, end, sem_type=T.BYTES, funcs=(), accessed=True):
    return FieldAnnotation(Field(start, end, accessed), sem_type, frozenset(funcs), ())


def fmt(mid, length, *bounds):
    edges = [0, *bounds, length]
    return FormatResult(
        mid, length, tuple(Field(a, b - 1) for a, b in zip(edges, edges[1:]))
    )


def ann(start, end, sem_type, funcs=()):
    return FieldAnnotation(
        Field(start, end), sem_type, frozenset(funcs), (Evidence("t", 1),)
    )


def format_score(inferred, truth):
    """One message's boundary counts."""
    score = FormatScore()
    score.count(inferred, truth)
    return score


def as_inferred(truth):
    """A format whose fields are the true fields ``truth``."""
    fields = tuple(t.field for t in truth)
    return FormatResult("m", fields[-1].end + 1, fields)


def scored(annotations, truth):
    """The report of one message inferred as its true fields."""
    report = MetricsReport()
    report.add_message(as_inferred(truth), annotations, truth)
    return report


def test_equal_truths_are_one_tuple_of_shared_fields():
    text = "".join(f"msg {m} bytes=0x0102\n" for m in "abcd") + (
        "gt a field=0-0 type=STATIC funcs=- accessed=true\n"
        "gt a field=1-1 type=BYTES funcs=-\n"
        "gt b field=1-1 type=BYTES funcs=-\n"
        "gt b field=0-0 type=STATIC funcs=-\n"
        "gt c field=0-0 type=STATIC funcs=-\n"
        "gt c field=1-1 type=BYTES funcs=-\n"
        "gt d field=0-0 type=STATIC funcs=- accessed=false\n"
        "gt d field=1-1 type=BYTES funcs=-\n"
    )
    truths = load_ground_truth(read_interchange(io.StringIO(text)).truth)
    assert truths["a"] == truths["b"] == truths["c"]
    # ``Field`` equality includes ``accessed``
    assert truths["d"] != truths["a"]
    assert truths["a"][0].field.accessed and not truths["d"][0].field.accessed
    # equal gt texts are parsed once, into one object
    assert truths["d"][1] is truths["a"][1] is truths["c"][1]


def test_hand_enumerated_boundary_case():
    # 8-byte message, true boundaries {2,5}, inferred {2,4}
    truth = gt(gtf(0, 1), gtf(2, 4), gtf(5, 7))
    inferred = fmt("m", 8, 2, 4)
    score = format_score(inferred, truth)
    assert (score.tp, score.fp, score.fn, score.tn) == (1, 1, 1, 4)
    assert score.precision == 0.5
    assert score.recall == 0.5
    assert score.f1 == 0.5
    assert score.perfect_fields == 1 and score.true_fields == 3
    assert score.perfection == pytest.approx(1 / 3)
    assert score.positions == 7  # inter-byte positions of an 8-byte message


def test_perfect_match_scores_ones():
    truth = gt(gtf(0, 2), gtf(3, 5))
    inferred = fmt("m", 6, 3)
    score = format_score(inferred, truth)
    assert score.precision == score.recall == score.f1 == 1.0
    assert score.perfection == 1.0


def test_empty_prediction_convention():
    truth = gt(gtf(0, 2), gtf(3, 5))
    inferred = fmt("m", 6)  # one field, no boundaries
    score = format_score(inferred, truth)
    assert score.precision == 0.0
    assert score.recall == 0.0
    assert score.f1 == 0.0


def test_self_scoring_any_partition_is_perfect():
    for bounds in ((), (1,), (2, 5), (1, 2, 3)):
        inferred = fmt("m", 6, *bounds)
        truth = gt(*(gtf(f.start, f.end) for f in inferred.fields))
        score = format_score(inferred, truth)
        assert score.f1 == 1.0 and score.perfection == 1.0
        assert score.fp == score.fn == 0


def test_length_mismatch_is_integrity_error():
    truth = gt(gtf(0, 7))
    inferred = fmt("m", 6)
    with pytest.raises(IntegrityError):
        check_covers({inferred.message_id: inferred.length}, "truth.fl", {"m": truth})


def test_metrics_invariant_under_id_renaming():
    truth_a = gt(gtf(0, 1), gtf(2, 4), gtf(5, 7))
    truth_b = gt(gtf(0, 1), gtf(2, 4), gtf(5, 7))
    score_a = format_score(fmt("a", 8, 2, 4), truth_a)
    score_b = format_score(fmt("b", 8, 2, 4), truth_b)
    assert (score_a.tp, score_a.fp, score_a.fn, score_a.tn) == (
        score_b.tp, score_b.fp, score_b.fn, score_b.tn,
    )


# --- segmentation errors -----------------------------------------------------


def test_segmentation_error_counts():
    truth = gt(gtf(0, 1), gtf(2, 4), gtf(5, 7))
    over, under = count_segmentation_errors(fmt("m", 8, 1, 2, 5), truth)
    assert (over, under) == (1, 0)  # spurious split inside the first field
    over, under = count_segmentation_errors(fmt("m", 8, 2), truth)
    assert (over, under) == (0, 1)
    over, under = count_segmentation_errors(fmt("m", 8, 2, 5), truth)
    assert (over, under) == (0, 0)


def test_segmentation_errors_exclude_unaccessed_fields():
    truth = gt(gtf(0, 1), gtf(2, 5, accessed=False), gtf(6, 7))
    # boundaries 3,4,5 fall inside the unaccessed field: not counted
    over, under = count_segmentation_errors(fmt("m", 8, 2, 4, 6), truth)
    assert (over, under) == (0, 0)
    # a split inside an accessed field still counts
    over, under = count_segmentation_errors(fmt("m", 8, 1, 2, 6), truth)
    assert (over, under) == (1, 0)


def test_scoring_a_long_unaccessed_field_allocates_little():
    # both lengths come from untrusted files, so the scorers must not
    # allocate per byte of a field
    length = 10**6
    truth = gt(gtf(0, length - 1, accessed=False))
    inferred = fmt("m", length)
    report = MetricsReport()
    tracemalloc.start()
    try:
        report.add_message(inferred, truth, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    score = report.format
    assert (score.tp, score.fp, score.fn, score.tn) == (0, 0, 0, length - 1)
    assert (report.over_seg, report.under_seg) == (0, 0)
    assert peak < 1 << 20


def test_seg_errors_equal_fp_fn_without_exclusions():
    truth = gt(gtf(0, 3), gtf(4, 6), gtf(7, 9))
    inferred = fmt("m", 10, 2, 4, 8)
    score = format_score(inferred, truth)
    over, under = count_segmentation_errors(inferred, truth)
    assert over == score.fp and under == score.fn


# --- semantics ---------------------------------------------------------------


def test_type_scoring_exact_match():
    truth = gt(gtf(0, 1, T.INTEGER), gtf(2, 3, T.BYTES))
    annotations = [ann(0, 1, T.INTEGER), ann(2, 3, T.BYTES)]
    score = scored(annotations, truth)
    assert score.types.precision == 1.0 and score.types.recall == 1.0


def test_label_on_missegmented_field_counts_false_positive():
    truth = gt(gtf(0, 1, T.INTEGER, [F.CHECKSUM]), gtf(2, 3, T.BYTES))
    # inferred merged the whole message into one field
    annotations = [ann(0, 3, T.INTEGER, [F.CHECKSUM])]
    score = scored(annotations, truth)
    assert score.functions.per_label["CHECKSUM"].fp == 1
    assert score.functions.per_label["CHECKSUM"].tp == 0
    assert score.functions.recall == 0.0


def test_function_recall_zero_when_nothing_predicted():
    truth = gt(gtf(0, 1, T.INTEGER, [F.LENGTH, F.CHECKSUM]), gtf(2, 3, T.BYTES))
    annotations = [ann(0, 1, T.INTEGER), ann(2, 3, T.BYTES)]
    score = scored(annotations, truth)
    assert score.functions.recall == 0.0
    assert score.functions.fn == 2


def test_unknown_predictions_are_not_counted_as_inferred():
    truth = gt(gtf(0, 1, T.INTEGER), gtf(2, 3, T.BYTES))
    annotations = [ann(0, 1, T.UNKNOWN), ann(2, 3, T.BYTES)]
    score = scored(annotations, truth)
    assert score.types.fp == 0
    assert score.types.tp == 1 and score.types.fn == 1


def test_recall_reported_for_all_and_accessed_only():
    truth = gt(
        gtf(0, 1, T.INTEGER),
        gtf(2, 3, T.BYTES, accessed=False),
        gtf(4, 5, T.STATIC),
    )
    annotations = [ann(0, 1, T.INTEGER), ann(2, 3, T.UNKNOWN), ann(4, 5, T.STATIC)]
    score = scored(annotations, truth)
    assert score.types.recall == pytest.approx(2 / 3)
    assert score.types.accessed.recall == 1.0


@dataclass
class OracleSemanticScore:
    """Reference scorer: six parallel count tables, as semantic scoring kept
    them before one ``LabelTally`` per label kind replaced them."""

    types: LabelCounts = dc_field(default_factory=LabelCounts)
    functions: LabelCounts = dc_field(default_factory=LabelCounts)
    per_type: dict[str, LabelCounts] = dc_field(default_factory=dict)
    per_function: dict[str, LabelCounts] = dc_field(default_factory=dict)
    types_accessed: LabelCounts = dc_field(default_factory=LabelCounts)
    functions_accessed: LabelCounts = dc_field(default_factory=LabelCounts)

    def _label(self, table, name):
        return table.setdefault(name, LabelCounts())

    def macro_f1(self, table):
        if not table:
            return 1.0
        return sum(c.f1 for c in table.values()) / len(table)

    def to_dict(self):
        def labels(counts, accessed, table):
            return {
                **counts.summary(),
                "recall_accessed_only": accessed.recall,
                "macro_f1": self.macro_f1(table),
                "per_label": {name: c.summary() for name, c in sorted(table.items())},
            }

        return {
            "type": labels(self.types, self.types_accessed, self.per_type),
            "function": labels(self.functions, self.functions_accessed, self.per_function),
        }


def in_declared_order(functions):
    """A set's functions as the scorer meets them: in declaration order, so
    that the first-seen order that ``macro_f1`` sums in never follows a
    set's iteration order."""
    return [fn for fn in F if fn in functions]


def oracle_score_semantics(score, annotations, truth):
    by_range = {(a.field.start, a.field.end): a for a in annotations}
    matched = set()

    for t in truth:
        f = t.field
        rng = (f.start, f.end)
        ann = by_range.get(rng)
        if ann is not None:
            matched.add(rng)
        pred_type = ann.inferred_type if ann is not None else T.UNKNOWN
        if pred_type is not T.UNKNOWN and pred_type is t.inferred_type:
            score.types.tp += 1
            score._label(score.per_type, t.inferred_type.name).tp += 1
            if f.accessed:
                score.types_accessed.tp += 1
        else:
            score.types.fn += 1
            score._label(score.per_type, t.inferred_type.name).fn += 1
            if f.accessed:
                score.types_accessed.fn += 1
            if pred_type is not T.UNKNOWN:
                score.types.fp += 1
                score.types_accessed.fp += 1
                score._label(score.per_type, pred_type.name).fp += 1

        pred_funcs = ann.inferred_functions if ann is not None else frozenset()
        for fn in in_declared_order(t.inferred_functions & pred_funcs):
            score.functions.tp += 1
            score._label(score.per_function, fn.name).tp += 1
            if f.accessed:
                score.functions_accessed.tp += 1
        for fn in in_declared_order(t.inferred_functions - pred_funcs):
            score.functions.fn += 1
            score._label(score.per_function, fn.name).fn += 1
            if f.accessed:
                score.functions_accessed.fn += 1
        for fn in in_declared_order(pred_funcs - t.inferred_functions):
            score.functions.fp += 1
            score.functions_accessed.fp += 1
            score._label(score.per_function, fn.name).fp += 1

    for rng, ann in by_range.items():
        if rng in matched:
            continue
        if ann.inferred_type is not T.UNKNOWN:
            score.types.fp += 1
            score.types_accessed.fp += 1
            score._label(score.per_type, ann.inferred_type.name).fp += 1
        for fn in in_declared_order(ann.inferred_functions):
            score.functions.fp += 1
            score.functions_accessed.fp += 1
            score._label(score.per_function, fn.name).fp += 1


def semantics_doc(pairs):
    """``metrics.json``'s semantics block for (annotations, truth) pairs."""
    report = MetricsReport()
    for annotations, truth in pairs:
        report.add_message(as_inferred(truth), annotations, truth)
    return report.to_dict()["semantics"]


def oracle_semantics_doc(pairs):
    oracle = OracleSemanticScore()
    for annotations, truth in pairs:
        oracle_score_semantics(oracle, annotations, truth)
    return oracle.to_dict()


def test_mislabelled_unaccessed_field_counts_only_its_false_alarm_as_accessed():
    truth = gt(gtf(0, 1, T.INTEGER, [F.LENGTH], accessed=False), gtf(2, 3, T.BYTES))
    annotations = [ann(0, 1, T.STATIC, [F.CHECKSUM]), ann(2, 3, T.BYTES)]
    score = scored(annotations, truth)
    for tally in (score.types, score.functions):
        assert (tally.accessed.fp, tally.accessed.fn) == (1, 0)
        assert (tally.fp, tally.fn) == (1, 1)
    assert semantics_doc([(annotations, truth)]) == oracle_semantics_doc(
        [(annotations, truth)]
    )


@st.composite
def partitions(draw, length):
    cuts = sorted(draw(st.sets(st.integers(1, length - 1))) if length > 1 else ())
    edges = [0, *cuts, length]
    return list(zip(edges, [e - 1 for e in edges[1:]]))


def true_fields(draw, length):
    """A random partition of ``length`` bytes with random labels and ``accessed`` flags."""
    funcs = st.frozensets(st.sampled_from(list(F)), max_size=3)
    return gt(
        *(
            gtf(a, b, draw(st.sampled_from(list(T))), draw(funcs), draw(st.booleans()))
            for a, b in draw(partitions(length))
        )
    )


@st.composite
def scored_messages(draw):
    """A true partition with random labels and ``accessed`` flags, and
    annotations over a partition drawn apart from it."""
    length = draw(st.integers(1, 8))
    funcs = st.frozensets(st.sampled_from(list(F)), max_size=3)
    truth = true_fields(draw, length)
    annotations = [
        FieldAnnotation(Field(a, b), draw(st.sampled_from(list(T))), draw(funcs), ())
        for a, b in draw(partitions(length))
    ]
    return annotations, truth


@given(st.lists(scored_messages(), max_size=6))
@settings(max_examples=300, deadline=None)
def test_semantic_tallies_match_the_six_table_oracle(pairs):
    assert semantics_doc(pairs) == oracle_semantics_doc(pairs)


def test_a_set_of_functions_is_tallied_in_declaration_order():
    """``macro_f1`` sums the per-label F1 in first-seen order, and a float
    sum rounds by its order, so the functions of one set are met in the
    order ``SemanticFunction`` declares them, whatever order the set
    iterates in.  Both sets below are built in two insertion orders."""
    true_set, found_set = {F.FILENAME, F.DELIM, F.LENGTH}, {F.DELIM, F.LENGTH, F.COMMAND, F.CHECKSUM}
    labels = [F.FILENAME, F.CHECKSUM, F.DELIM, F.COMMAND, F.LENGTH]
    docs = []
    for order in (labels, labels[::-1]):
        truth = gt(gtf(0, 1, T.STATIC, [fn for fn in order if fn in true_set]), gtf(2, 3))
        found = FieldAnnotation(
            Field(0, 1), T.STATIC, frozenset(fn for fn in order if fn in found_set), ()
        )
        report = MetricsReport()
        report.add_message(as_inferred(truth), (found,), truth)
        # hits, then misses, then false alarms, each in declaration order
        assert list(report.functions.per_label) == [
            "LENGTH", "DELIM", "FILENAME", "COMMAND", "CHECKSUM"
        ]
        docs.append(report.to_dict())
    assert docs[0] == docs[1]


# --- ground truth io ---------------------------------------------------------


def test_ground_truth_round_trip(tmp_path):
    truth = gt(
        gtf(0, 1, T.STATIC, [F.COMMAND]),
        gtf(2, 3, T.INTEGER, [F.LENGTH, F.CHECKSUM]),
        gtf(4, 5, T.BYTES, accessed=False),
    )
    path = tmp_path / "truth.fl"
    path.write_text(serialize_ground_truth([("m", truth)]))
    loaded = load_ground_truth(load_corpus(path).truth)
    assert loaded == {"m": truth}  # ``accessed`` included


def _truth_of(text):
    return load_ground_truth(read_interchange(io.StringIO(text)).truth)


@st.composite
def drawn_truths(draw):
    lengths = draw(st.lists(st.integers(1, 8), max_size=5))
    return {f"m{i}": true_fields(draw, n) for i, n in enumerate(lengths)}


@given(drawn_truths(), st.data())
@settings(max_examples=200, deadline=None)
def test_ground_truth_round_trips_and_must_partition(truths, data):
    text = serialize_ground_truth(truths.items())
    loaded = _truth_of(text)
    assert loaded == truths
    lengths = {mid: t[-1].field.end + 1 for mid, t in truths.items()}
    check_covers(lengths, "truth.fl", loaded)

    split = [mid for mid, t in truths.items() if len(t) > 1]
    if split:
        # dropping any field but the last leaves a gap or a late first start
        mid = data.draw(st.sampled_from(split))
        gone = data.draw(st.integers(0, len(truths[mid]) - 2))
        broken = {**truths, mid: truths[mid][:gone] + truths[mid][gone + 1:]}
        with pytest.raises(IntegrityError, match="does not partition"):
            annotated_formats("truth.fl", _truth_of(serialize_ground_truth(broken.items())))


def test_reversed_field_range_is_parse_error():
    with pytest.raises(ParseError) as err:
        _truth_of("gt m field=0-1 type=STATIC funcs=-\ngt m field=4-2 type=STATIC funcs=-\n")
    assert err.value.line_no == 2 and "'4-2'" in str(err.value)


def test_misspelt_accessed_flag_is_parse_error():
    with pytest.raises(ParseError) as err:
        _truth_of("gt m field=0-1 type=STATIC funcs=-\n"
                  "gt m field=2-3 type=BYTES funcs=- accessed=ture\n")
    assert err.value.line_no == 2 and "'ture'" in str(err.value)


def test_ground_truth_must_partition():
    with pytest.raises(IntegrityError):
        annotated_formats("truth.fl", {"m": gt(gtf(0, 1), gtf(3, 5))})


def test_report_aggregation():
    report = MetricsReport()
    truth = gt(gtf(0, 1, T.INTEGER), gtf(2, 7, T.BYTES))
    inferred = fmt("m", 8, 2)
    report.add_message(inferred, [ann(0, 1, T.INTEGER), ann(2, 7, T.BYTES)], truth)
    doc = report.to_dict()
    assert doc["messages"] == 1
    assert doc["format"]["perfection"] == 1.0
    assert doc["semantics"]["type"]["f1"] == 1.0
    assert doc["segmentation_errors"]["total"] == 0

"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here, not configurable."""

import random
import time

import pytest

from fieldlens.alignment import nw_format_score, nw_score, semantic_similar
from fieldlens.detectors import (
    SemanticFunction,
    SemanticType,
    annotate_format,
)
from fieldlens.evaluation import FormatScore, MetricsReport
from fieldlens.extraction import extract_format, extract_format_baseline
from fieldlens.model import Field, instructions_for
from fieldlens.refinement import (
    CONSTRAINT_TABLE,
    constraint_refine,
    entropy_refine,
    explore_optimal,
    shannon_entropy,
    single_cluster,
)
from fieldlens.vm import TermReason, bundled_parsers, run

from conftest import evidence_for, per_message
from test_alignment import brute_force_score

T = SemanticType
F = SemanticFunction


def _report(name, ok=True):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_criterion_start_bytes_merge(example1):
    """Over-segmented start bytes merge into one field at similarity 1.0;
    the baseline keeps them split; runtime under a second."""
    message, trace = example1
    began = time.perf_counter()
    merged = extract_format(message, trace)
    baseline = extract_format_baseline(message, trace)
    elapsed = time.perf_counter() - began

    assert merged.fields[0] == Field(0, 1)
    first, second = instructions_for(trace, [Field(0, 0), Field(1, 1)])
    sim = semantic_similar(
        tuple(r.operator for r in first),
        tuple(r.operator for r in second),
    )
    assert sim.similarity == 1.0 and sim.merge
    assert baseline.fields[0] == Field(0, 0) and baseline.fields[1] == Field(1, 1)
    assert elapsed < 1.0
    _report("example-1: start bytes merged at similarity exactly 1.0, baseline split")


def test_criterion_chunk_and_checksum_split(example2):
    """The looped data chunk merges to one field; the checksum word stays
    separate; runtime under a second."""
    message, trace = example2
    began = time.perf_counter()
    fmt = extract_format(message, trace)
    elapsed = time.perf_counter() - began
    accessed = [f for f in fmt.fields if f.accessed]
    assert Field(10, 20) in accessed
    assert Field(21, 22) in accessed
    assert elapsed < 1.0
    _report("example-2: bytes 10..20 merged, 21..22 kept separate")


def test_criterion_checksum_semantics(example3):
    """The checksum word types as integer with a checksum function, citing
    the bit-twiddling loads and the final compare."""
    message, trace = example3
    fmt = extract_format(message, trace)
    anns = annotate_format(fmt, trace, message)
    target = [a for a in anns if (a.field.start, a.field.end) == (21, 22)]
    assert target, "field (21,22) missing from extraction"
    ann = target[0]
    assert ann.inferred_type is T.INTEGER
    assert F.CHECKSUM in ann.inferred_functions
    type_seqs = {e.seq for e in evidence_for(ann, "type.integer")}
    func_seqs = {e.seq for e in evidence_for(ann, "func.checksum")}
    assert type_seqs == {5, 6}  # the shl and or records
    assert func_seqs == {16}  # the final compare
    _report("example-3: (21,22) integer + checksum, evidence cites shl/or and final cmp")


def test_criterion_cluster_refinement(refine_corpus):
    """Five-message corpus: clustering basis at the byte-7 field; bytes and
    delimiter labels revoked on (4,5); constraint table holds everywhere."""
    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    annotations = {
        m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
    }
    assert any(
        a.inferred_type is T.BYTES and F.DELIM in a.inferred_functions
        for a in annotations["r1"]
        if (a.field.start, a.field.end) == (4, 5)
    )
    clustering = explore_optimal(messages, formats)
    assert clustering.command_pos == (7, 7)
    msg_map = {m.id: m for m in messages}
    refined, _ = entropy_refine(annotations, clustering, msg_map)
    final, _ = constraint_refine(refined, clustering)
    for mid in msg_map:
        f45 = [a for a in final[mid] if (a.field.start, a.field.end) == (4, 5)][0]
        assert f45.inferred_type is not T.BYTES
        assert F.DELIM not in f45.inferred_functions
    # exhaustive constraint check over every field of every message
    for anns in final.values():
        for ann in anns:
            for fn in ann.inferred_functions:
                assert ann.inferred_type in CONSTRAINT_TABLE[fn]
    _report("example-4: basis at byte 7, bytes/delim revoked on (4,5), table clean")


def test_criterion_alignment_oracle_equivalence():
    """Both alignment scorers agree with brute-force enumeration on 1,000
    random pairs of length <= 6, exact integer equality."""
    rng = random.Random(0xA11C)
    ops = ["mov", "movzx", "cmp", "xor", "add", "shl"]
    for _ in range(1000):
        a = [rng.choice(ops) for _ in range(rng.randint(0, 6))]
        b = [rng.choice(ops) for _ in range(rng.randint(0, 6))]
        assert nw_score(a, b) == brute_force_score(a, b)
    for _ in range(1000):
        a = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        assert nw_format_score(a, b) == brute_force_score(a, b)
    _report("alignment scorers match brute-force enumeration on 1,000 pairs each")


def _run_corpus(parser, count=50, seed=0, merged=True, clustering_on=True):
    messages, truths = parser.generate(count, seed)
    traces = {}
    for msg in messages:
        report = run(parser.script, msg)
        assert report.terminated is TermReason.ACCEPT
        traces[msg.id] = report.trace
    if merged:
        formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    else:
        formats = {m.id: extract_format_baseline(m, traces[m.id]) for m in messages}
    annotations = {
        m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
    }
    clustering = (
        explore_optimal(messages, formats) if clustering_on else single_cluster(messages)
    )
    msg_map = {m.id: m for m in messages}
    refined, _ = entropy_refine(annotations, clustering, msg_map)
    final, _ = constraint_refine(refined, clustering if clustering_on else None)
    report = MetricsReport()
    truth_map = dict(truths)
    for m in messages:
        report.add_message(formats[m.id], final[m.id], truth_map[m.id])
    return report, final


def test_criterion_end_to_end_benchmark():
    """Fifty generated messages per bundled parser: perfection >= 0.95,
    type and function F1 exactly 1.0, full pipeline under two minutes."""
    began = time.perf_counter()
    for parser in bundled_parsers():
        report, _ = _run_corpus(parser, count=50, seed=0)
        doc = report.to_dict()
        assert doc["format"]["perfection"] >= 0.95, parser.name
        assert doc["semantics"]["type"]["f1"] == 1.0, parser.name
        assert doc["semantics"]["function"]["f1"] == 1.0, parser.name
    elapsed = time.perf_counter() - began
    assert elapsed < 120.0
    _report(
        f"end-to-end: perfection >= 0.95 and semantic F1 = 1.0 on both corpora "
        f"({elapsed:.1f}s)"
    )


def test_criterion_segmentation_error_reduction():
    """On the binary corpus the classic per-instruction strategy makes at
    least 60% more segmentation errors than similarity-guided extraction."""
    parser = bundled_parsers()[0]
    assert parser.name == "binary-frame"
    merged_report, _ = _run_corpus(parser, count=50, seed=0, merged=True)
    baseline_report, _ = _run_corpus(parser, count=50, seed=0, merged=False)
    merged_total = merged_report.over_seg + merged_report.under_seg
    baseline_total = baseline_report.over_seg + baseline_report.under_seg
    assert baseline_total > 0
    reduction = (baseline_total - merged_total) / baseline_total
    assert reduction >= 0.60
    _report(
        f"segmentation errors: baseline {baseline_total} vs merged {merged_total} "
        f"({reduction:.0%} fewer)"
    )


def test_criterion_metric_unit_case():
    """Hand-enumerated oracle: truth {2,5}, inferred {2,4}, 8 bytes."""
    from fieldlens.detectors import FieldAnnotation
    from fieldlens.model import FormatResult

    truth = tuple(
        FieldAnnotation(Field(a, b), T.BYTES, frozenset(), ())
        for a, b in ((0, 1), (2, 4), (5, 7))
    )
    inferred = FormatResult(8, (Field(0, 1), Field(2, 3), Field(4, 7)))
    score = FormatScore()
    score.count(inferred, truth)
    assert (score.tp, score.fp, score.fn, score.tn) == (1, 1, 1, 4)
    assert score.f1 == 0.5
    assert score.perfection == pytest.approx(1 / 3)
    _report("metric unit case: TP=1 FP=1 FN=1 TN=4, F1=0.5, perfection=1/3")


def test_criterion_entropy_invariants(refine_corpus):
    """Constant fields have zero entropy, uniform n-symbol fields log2 n,
    and median-based revocations ignore message order."""
    assert shannon_entropy([b"\x07"] * 12) == 0.0
    for n, expected in ((2, 1.0), (4, 2.0), (8, 3.0)):
        values = [bytes([v]) for v in range(n)] * 3
        assert shannon_entropy(values) == expected

    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    annotations = {
        m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
    }
    msg_map = {m.id: m for m in messages}
    reference = None
    rng = random.Random(3)
    for _ in range(5):
        order = messages[:]
        rng.shuffle(order)
        clustering = explore_optimal(order, formats)
        _, events = entropy_refine(annotations, clustering, msg_map)
        revocations = {
            (mid, e.field, e.label)
            for mid, evs in per_message(events).items()
            for e in evs
            if e.action == "revoke-type"
        }
        if reference is None:
            reference = revocations
        assert revocations == reference
    _report("entropy: H=0 constants, log2(n) uniform, permutation-invariant revocations")


def test_criterion_ablation_monotonicity(count_violations):
    """Constraint refinement leaves zero table violations; clustering never
    lowers the command-field F1 against the detector-only setup."""
    for parser in bundled_parsers():
        messages, truths = parser.generate(50, seed=0)
        traces = {m.id: run(parser.script, m).trace for m in messages}
        formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
        annotations = {
            m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
        }
        clustering = explore_optimal(messages, formats)
        msg_map = {m.id: m for m in messages}
        refined, _ = entropy_refine(annotations, clustering, msg_map)
        with_constraints, _ = constraint_refine(refined, clustering)
        assert count_violations(with_constraints) == 0
        assert count_violations(with_constraints) <= count_violations(refined)

        truth_map = dict(truths)

        def command_f1(final):
            report = MetricsReport()
            for m in messages:
                report.add_message(formats[m.id], final[m.id], truth_map[m.id])
            counts = report.functions.per_label.get("COMMAND")
            return counts.f1 if counts else 1.0

        detector_only, _ = constraint_refine(refined, None)
        assert command_f1(with_constraints) >= command_f1(detector_only)
    _report("ablations: zero violations after constraints, clustering keeps command F1")

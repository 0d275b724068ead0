import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import fieldlens.refinement as refinement
from fieldlens import pipeline
from fieldlens.alignment import nw_format_score
from fieldlens.detectors import (
    Evidence,
    FieldAnnotation,
    SemanticFunction,
    SemanticType,
    annotate_format,
)
from fieldlens.extraction import extract_format
from fieldlens.model import Field, FormatResult, Message
from fieldlens.refinement import (
    CONSTRAINT_TABLE,
    Clustering,
    cluster_entropy_profile,
    constraint_refine,
    entropy_refine,
    explore_optimal,
    shannon_entropy,
)

from conftest import per_message

T = SemanticType
F = SemanticFunction


def ann(start, end, sem_type, funcs=(), accessed=True):
    return FieldAnnotation(
        Field(start, end, accessed),
        sem_type,
        frozenset(funcs),
        (Evidence("test", 1),),
    )


def fmt(mid, length, *bounds):
    edges = [0, *bounds, length]
    fields = tuple(Field(a, b - 1) for a, b in zip(edges, edges[1:]))
    return FormatResult(mid, length, fields)


def test_constraint_table_contents():
    assert CONSTRAINT_TABLE[F.COMMAND] == {T.GROUP}
    assert CONSTRAINT_TABLE[F.LENGTH] == {T.INTEGER}
    assert CONSTRAINT_TABLE[F.DELIM] == {T.STATIC, T.GROUP}
    assert CONSTRAINT_TABLE[F.ALIGNED] == {T.GROUP, T.BYTES}
    assert CONSTRAINT_TABLE[F.CHECKSUM] == {T.INTEGER}
    assert CONSTRAINT_TABLE[F.FILENAME] == {T.STRING}
    assert set(CONSTRAINT_TABLE) == set(F)


# --- shannon entropy ---------------------------------------------------------


def test_entropy_constant_is_zero():
    assert shannon_entropy([b"\x05"] * 9) == 0.0


def test_entropy_uniform_two_symbols_is_one_bit():
    assert shannon_entropy([b"\x00", b"\x01"] * 6) == 1.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_entropy_uniform_n_symbols(n):
    values = [bytes([i]) for i in range(n)] * 5
    assert shannon_entropy(values) == pytest.approx(math.log2(n))


def test_entropy_of_empty_collection_is_zero():
    assert shannon_entropy([]) == 0.0


def test_entropy_of_one_value_is_positive_zero():
    assert math.copysign(1.0, shannon_entropy([b"x"])) == 1.0


# --- explore_optimal ---------------------------------------------------------


def test_fig7_corpus_clusters_on_command_byte(refine_corpus):
    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    clustering = explore_optimal(messages, formats)
    assert clustering.command_pos == (7, 7)
    assert clustering.align_score == pytest.approx(5.25)
    by_value = {value: ids for value, ids in clustering.clusters}
    assert by_value[b"\x01"] == ("r1", "r2", "r3")
    assert by_value[b"\x02"] == ("r4", "r5")


def test_single_message_corpus_is_degenerate():
    msg = Message("only", b"\x01\x02")
    clustering = explore_optimal([msg], {"only": fmt("only", 2, 1)})
    assert clustering.degenerate
    assert clustering.clusters[0][1] == ("only",)


def test_disjoint_formats_give_zero_score_singletons():
    m1 = Message("a", b"\x01\x02\x03")
    m2 = Message("b", b"\x04\x05\x06")
    formats = {"a": fmt("a", 3, 1), "b": fmt("b", 3, 2)}
    clustering = explore_optimal([m1, m2], formats)
    # every candidate clusters the two distinct-valued messages apart
    assert clustering.degenerate
    assert clustering.align_score == 0.0


def test_tie_breaks_to_smallest_start_then_end():
    # identical formats and two constant byte columns: every candidate
    # produces the same single cluster and the same score
    messages = [Message(f"m{i}", bytes([0xAA, i, 0xBB, 0xCC])) for i in range(4)]
    formats = {m.id: fmt(m.id, 4, 1, 2, 3) for m in messages}
    clustering = explore_optimal(messages, formats)
    assert clustering.command_pos == (0, 0)


def test_clustering_is_permutation_invariant(refine_corpus):
    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    base = explore_optimal(messages, formats)
    rng = random.Random(5)
    for _ in range(4):
        shuffled = messages[:]
        rng.shuffle(shuffled)
        again = explore_optimal(shuffled, formats)
        assert again.command_pos == base.command_pos
        assert again.align_score == base.align_score
        assert dict(again.clusters).keys() == dict(base.clusters).keys()
        for value, ids in again.clusters:
            assert sorted(ids) == sorted(dict(base.clusters)[value])


def brute_force_explore(messages, formats):
    """Reference search: align every within-cluster message pair."""
    if len(messages) < 2:
        return Clustering(None, ((b"", tuple(m.id for m in messages)),), 0.0)
    candidates = sorted(
        {(f.start, f.end) for m in messages for f in formats[m.id].fields}
    )

    def group(rng):
        groups = {}
        for m in messages:
            groups.setdefault(m.data[rng[0] : rng[1] + 1], []).append(m.id)
        return groups

    best_score, best_pos = 0.0, None
    for rng in candidates:
        total, pairs = 0.0, 0
        for ids in group(rng).values():
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    total += nw_format_score(
                        formats[ids[i]].boundaries, formats[ids[j]].boundaries
                    )
                    pairs += 1
        score = total / pairs if pairs else 0.0
        if score > best_score:
            best_score, best_pos = score, rng
    if best_pos is None:
        return Clustering(None, ((b"", tuple(m.id for m in messages)),), 0.0)
    clusters = tuple(
        (value, tuple(ids)) for value, ids in sorted(group(best_pos).items())
    )
    return Clustering(best_pos, clusters, best_score)


@st.composite
def prototype_corpora(draw):
    """Messages drawn from a few prototypes, so boundary tuples repeat and
    value groups mix messages of different formats."""
    prototypes = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        length = draw(st.integers(min_value=2, max_value=7))
        inner = draw(st.sets(st.integers(min_value=1, max_value=length - 1)))
        prototypes.append((length, sorted(inner)))
    messages, formats = [], {}
    for i in range(draw(st.integers(min_value=0, max_value=14))):
        length, inner = draw(st.sampled_from(prototypes))
        data = bytes(
            draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
        )
        mid = f"m{i:02d}"
        messages.append(Message(mid, data))
        formats[mid] = fmt(mid, length, *inner)
    return messages, formats


@given(prototype_corpora())
@settings(max_examples=150, deadline=None)
def test_explore_optimal_matches_all_pairs_search(corpus):
    messages, formats = corpus
    # Clustering equality compares align_score with ==: the score is exact
    assert explore_optimal(messages, formats) == brute_force_explore(messages, formats)


def test_each_distinct_boundary_pair_is_aligned_at_most_once(monkeypatch):
    rng = random.Random(11)
    shapes = [(6, (1, 3)), (6, (2, 4)), (5, (1,)), (7, (1, 2, 5))]
    messages, formats = [], {}
    for i in range(60):
        length, inner = rng.choice(shapes)
        mid = f"m{i:02d}"
        messages.append(Message(mid, bytes(rng.randrange(3) for _ in range(length))))
        formats[mid] = fmt(mid, length, *inner)
    k = len({formats[m.id].boundaries for m in messages})
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return nw_format_score(a, b)

    monkeypatch.setattr(refinement, "nw_format_score", counting)
    clustering = explore_optimal(messages, formats)
    assert 0 < len(calls) <= k * (k + 1) // 2
    assert len(set(calls)) == len(calls)
    assert clustering == brute_force_explore(messages, formats)


# --- entropy refinement ------------------------------------------------------


def _mk_corpus():
    # four messages, one cluster; three fields:
    #   (0,0) constant        -> entropy 0
    #   (1,1) two values      -> entropy 1
    #   (2,3) all distinct    -> entropy 2
    messages = {
        f"m{i}": Message(f"m{i}", bytes([0x42, i % 2, i, 0x10 + i]))
        for i in range(4)
    }
    clustering = Clustering(None, ((b"", tuple(messages)),), 0.0)
    return messages, clustering


def test_static_survives_below_median_and_bytes_above():
    messages, clustering = _mk_corpus()
    annotations = {
        mid: (ann(0, 0, T.STATIC), ann(1, 1, T.INTEGER), ann(2, 3, T.BYTES))
        for mid in messages
    }
    refined, events = entropy_refine(annotations, clustering, messages)
    for mid in messages:
        assert refined[mid][0].inferred_type is T.STATIC
        assert refined[mid][2].inferred_type is T.BYTES
    assert not [e for e in events if e.action == "revoke-type"]


def test_static_at_or_above_median_is_revoked_and_redonated():
    messages, clustering = _mk_corpus()
    # claim the high-entropy field is STATIC: must be revoked
    annotations = {
        mid: (ann(0, 0, T.INTEGER), ann(1, 1, T.INTEGER), ann(2, 3, T.STATIC))
        for mid in messages
    }
    refined, events = entropy_refine(annotations, clustering, messages)
    revoked = [e for e in events if e.action == "revoke-type"]
    assert {e.label for e in revoked} == {"STATIC"}
    # fallback donates the nearest-entropy donor type (the 1-bit integer)
    for mid in messages:
        assert refined[mid][2].inferred_type is T.INTEGER


def test_bytes_at_or_below_median_is_revoked():
    messages, clustering = _mk_corpus()
    annotations = {
        mid: (ann(0, 0, T.BYTES), ann(1, 1, T.INTEGER), ann(2, 3, T.BYTES))
        for mid in messages
    }
    refined, events = entropy_refine(annotations, clustering, messages)
    for mid in messages:
        assert refined[mid][0].inferred_type is not T.BYTES
        assert refined[mid][2].inferred_type is T.BYTES
    assert any(e.label == "BYTES" and e.field == (0, 0) for e in events)


def test_exact_median_field_is_revoked():
    # three fields with entropies 0, H, H; median is H, so a BYTES label on
    # an H-entropy field does not survive the strict comparison
    messages = {
        f"m{i}": Message(f"m{i}", bytes([7, i % 2, i % 2])) for i in range(4)
    }
    clustering = Clustering(None, ((b"", tuple(messages)),), 0.0)
    annotations = {
        mid: (ann(0, 0, T.STATIC), ann(1, 1, T.BYTES), ann(2, 2, T.INTEGER))
        for mid in messages
    }
    refined, events = entropy_refine(annotations, clustering, messages)
    assert all(refined[mid][1].inferred_type is T.INTEGER for mid in messages)


def test_fallback_tie_breaks_to_smaller_start():
    # unknown field has entropy 0; two donors both at distance 0 (donor types
    # chosen so the median rule cannot revoke them first)
    messages = {
        f"m{i}": Message(f"m{i}", bytes([1, 2, 3, i, 16 + i])) for i in range(4)
    }
    clustering = Clustering(None, ((b"", tuple(messages)),), 0.0)
    annotations = {
        mid: (
            ann(0, 0, T.GROUP),
            ann(1, 1, T.STRING),
            ann(2, 2, T.UNKNOWN),
            ann(3, 4, T.INTEGER),
        )
        for mid in messages
    }
    refined, _ = entropy_refine(annotations, clustering, messages)
    # donors at ΔH = 0: (0,0) GROUP and (1,1) STRING; smaller start wins
    assert all(refined[mid][2].inferred_type is T.GROUP for mid in messages)


def test_all_constant_cluster_revokes_every_static():
    # every field constant: the median is zero, and the strict comparison
    # (entropy strictly below the median) revokes the static labels
    messages = {f"m{i}": Message(f"m{i}", b"\x01\x02\x03") for i in range(3)}
    clustering = Clustering(None, ((b"", tuple(messages)),), 0.0)
    annotations = {
        mid: (ann(0, 0, T.STATIC), ann(1, 1, T.STATIC), ann(2, 2, T.GROUP))
        for mid in messages
    }
    refined, events = entropy_refine(annotations, clustering, messages)
    revoked = [
        e for evs in per_message(events).values() for e in evs if e.action == "revoke-type"
    ]
    assert len(revoked) == 6  # two statics per message
    assert all(e.median == 0.0 and e.entropy == 0.0 for e in revoked)
    # the fallback then re-types them from the only surviving donor
    assert all(refined[mid][0].inferred_type is T.GROUP for mid in messages)


def test_singleton_cluster_is_skipped():
    messages = {"a": Message("a", b"\x01\x02")}
    clustering = Clustering(None, ((b"", ("a",)),), 0.0)
    annotations = {"a": (ann(0, 0, T.STATIC), ann(1, 1, T.BYTES))}
    refined, events = entropy_refine(annotations, clustering, messages)
    assert refined["a"][0].inferred_type is T.STATIC
    assert refined["a"][1].inferred_type is T.BYTES
    assert [e.action for e in events] == ["skip"]


def test_revocations_never_invent_labels():
    messages, clustering = _mk_corpus()
    annotations = {
        mid: (ann(0, 0, T.INTEGER), ann(1, 1, T.GROUP), ann(2, 3, T.STRING))
        for mid in messages
    }
    refined, events = entropy_refine(annotations, clustering, messages)
    assert refined == {mid: tuple(annotations[mid]) for mid in annotations}
    assert events == []


def test_entropy_refinement_permutation_invariant(refine_corpus):
    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    annotations = {
        m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
    }
    clustering = explore_optimal(messages, formats)
    msg_map = {m.id: m for m in messages}
    base, base_events = entropy_refine(annotations, clustering, msg_map)
    rng = random.Random(17)
    for _ in range(3):
        shuffled = messages[:]
        rng.shuffle(shuffled)
        clustering2 = explore_optimal(shuffled, formats)
        again, events = entropy_refine(annotations, clustering2, msg_map)
        assert again == base
        assert _logged(events) == _logged(base_events)


def _logged(events):
    """(message id, field, action, label) of each event the audit expands to."""
    return {
        (mid, e.field, e.action, e.label)
        for mid, evs in per_message(events).items()
        for e in evs
    }


def test_entropy_profile_reports_median():
    messages, clustering = _mk_corpus()
    annotations = {
        mid: (ann(0, 0, T.STATIC), ann(1, 1, T.INTEGER), ann(2, 3, T.BYTES))
        for mid in messages
    }
    entropies, median = cluster_entropy_profile(list(messages.values()), annotations)
    assert entropies[(0, 0)] == 0.0
    assert entropies[(1, 1)] == 1.0
    assert median == 1.0


# --- constraint refinement ---------------------------------------------------


def test_length_dropped_from_static_field():
    annotations = {"m": (ann(0, 0, T.STATIC, [F.LENGTH]),)}
    refined, events = constraint_refine(annotations)
    assert refined["m"][0].inferred_functions == frozenset()
    assert events[0].action == "drop-function" and events[0].label == "LENGTH"


def test_delim_dropped_when_type_not_static_or_group():
    annotations = {"m": (ann(4, 5, T.INTEGER, [F.DELIM]),)}
    refined, _ = constraint_refine(annotations)
    assert F.DELIM not in refined["m"][0].inferred_functions


def test_checksum_kept_on_integer_field():
    annotations = {"m": (ann(0, 1, T.INTEGER, [F.CHECKSUM]),)}
    refined, events = constraint_refine(annotations)
    assert refined["m"][0].inferred_functions == {F.CHECKSUM}
    assert events == []


def _counting_replace(monkeypatch):
    """The annotations ``FieldAnnotation._replace`` is called on."""
    calls = []
    real = FieldAnnotation._replace

    def counting(ann, **changes):
        calls.append(ann)
        return real(ann, **changes)

    monkeypatch.setattr(FieldAnnotation, "_replace", counting)
    return calls


def test_a_shared_annotation_is_refined_once_and_logged_per_message(monkeypatch):
    calls = _counting_replace(monkeypatch)
    shared = ann(0, 0, T.STATIC, [F.LENGTH])
    refined, events = constraint_refine({"a": (shared,), "b": (shared,)})
    assert refined["a"][0] is refined["b"][0]
    assert refined["a"][0].inferred_functions == frozenset()
    assert [(e.messages, e.label) for e in events] == [(("a", "b"), "LENGTH")]
    assert {mid: [e.label for e in evs] for mid, evs in per_message(events).items()} == {
        "a": ["LENGTH"],
        "b": ["LENGTH"],
    }
    assert len(calls) == 1


def test_entropy_revocation_runs_once_per_distinct_annotation_in_a_cluster(monkeypatch):
    calls = _counting_replace(monkeypatch)
    messages, clustering = _mk_corpus()
    row = (ann(0, 0, T.INTEGER), ann(1, 1, T.INTEGER), ann(2, 3, T.STATIC))
    refined, events = entropy_refine({mid: row for mid in messages}, clustering, messages)
    # one revocation for the four messages; the fallback runs per message
    assert [a.inferred_type for a in calls] == [T.STATIC, *[T.UNKNOWN] * len(messages)]
    assert len(set(refined.values())) == 1
    assert [(e.action, e.messages) for e in events] == [
        ("revoke-type", tuple(messages)),
        ("assign-type", tuple(messages)),
    ]
    assert {mid: [e.action for e in evs] for mid, evs in per_message(events).items()} == {
        mid: ["revoke-type", "assign-type"] for mid in messages
    }


def test_command_position_gains_command_and_group():
    clustering = Clustering((2, 2), ((b"\x01", ("m",)),), 1.0)
    annotations = {
        "m": (ann(0, 1, T.INTEGER), ann(2, 2, T.UNKNOWN), ann(3, 3, T.STATIC))
    }
    refined, events = constraint_refine(annotations, clustering)
    target = refined["m"][1]
    assert F.COMMAND in target.inferred_functions
    assert target.inferred_type is T.GROUP
    actions = {(e.action, e.label) for e in events}
    assert ("add-function", "COMMAND") in actions
    assert ("assign-type", "GROUP") in actions


def test_command_added_to_typed_field_still_obeys_table(count_violations):
    # the basis field is INTEGER: COMMAND is added then swept away
    clustering = Clustering((0, 0), ((b"\x01", ("m",)),), 1.0)
    annotations = {"m": (ann(0, 0, T.INTEGER, [F.LENGTH]),)}
    refined, _ = constraint_refine(annotations, clustering)
    assert refined["m"][0].inferred_functions == {F.LENGTH}
    assert count_violations(refined) == 0


def test_final_annotations_never_violate_table(refine_corpus, count_violations):
    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    annotations = {
        m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
    }
    clustering = explore_optimal(messages, formats)
    msg_map = {m.id: m for m in messages}
    refined, _ = entropy_refine(annotations, clustering, msg_map)
    final, _ = constraint_refine(refined, clustering)
    assert count_violations(final) == 0


def test_fig7_refinement_story(refine_corpus):
    messages, traces = refine_corpus
    formats = {m.id: extract_format(m, traces[m.id]) for m in messages}
    annotations = {
        m.id: annotate_format(formats[m.id], traces[m.id], m) for m in messages
    }
    pre = annotations["r1"][2]
    assert (pre.field.start, pre.field.end) == (4, 5)
    assert pre.inferred_type is T.BYTES
    assert F.DELIM in pre.inferred_functions

    clustering = explore_optimal(messages, formats)
    msg_map = {m.id: m for m in messages}
    refined, events = entropy_refine(annotations, clustering, msg_map)
    final, _ = constraint_refine(refined, clustering)

    revoked = {
        (mid, label) for mid, _, action, label in _logged(events) if action == "revoke-type"
    }
    assert ("r1", "BYTES") in revoked
    for mid in ("r1", "r2", "r3"):
        f45 = [a for a in final[mid] if (a.field.start, a.field.end) == (4, 5)][0]
        assert f45.inferred_type is not T.BYTES
        assert F.DELIM not in f45.inferred_functions


# --- the decision log --------------------------------------------------------


def test_an_empty_cluster_logs_no_decision():
    empty = Clustering(None, ((b"", ()),), 0.0)
    assert entropy_refine({}, empty, {}) == ({}, [])
    assert pipeline.refine_corpus([], {}, {}) == (empty, {}, [])


def brute_force_refine(messages, annotations, clustering, entropy=True, constraints=True):
    """Reference refinement: each message refined on its own, with no memo,
    logging its own events (narrowed to it) in the order it meets them."""
    refined = {mid: list(anns) for mid, anns in annotations.items()}
    log = {}

    def event(mid, *entry):
        log.setdefault(mid, []).append(refinement.RefinementEvent((mid,), *entry))

    skip = "single-message cluster: entropy refinement skipped"
    for _, ids in clustering.clusters if entropy else ():
        if len(ids) == 1:
            event(ids[0], (-1, -1), "skip", "-", skip)
        if len(ids) < 2:
            continue
        h_of, med = cluster_entropy_profile([messages[mid] for mid in ids], annotations)
        for mid in ids:
            anns = refined[mid]
            for i, a in enumerate(anns):
                rng = (a.field.start, a.field.end)
                h = h_of[rng]
                if a.inferred_type is T.STATIC and not h < med:
                    reason = "entropy not below cluster median"
                elif a.inferred_type is T.BYTES and not h > med:
                    reason = "entropy not above cluster median"
                else:
                    continue
                event(mid, rng, "revoke-type", a.inferred_type.name, reason, h, med)
                anns[i] = a._replace(inferred_type=T.UNKNOWN)
            donors = [a for a in anns if a.inferred_type is not T.UNKNOWN]
            for i, a in enumerate(anns):
                if not donors or a.inferred_type is not T.UNKNOWN:
                    continue
                rng = (a.field.start, a.field.end)
                h = h_of[rng]
                d = min(
                    donors,
                    key=lambda d: (abs(h_of[(d.field.start, d.field.end)] - h), d.field.start),
                )
                span = f"{d.field.start}-{d.field.end}"
                reason = f"closest-entropy donor {span}"
                event(mid, rng, "assign-type", d.inferred_type.name, reason, h, med)
                note = Evidence("refine.entropy-fallback", None, note=f"donor field {span}")
                anns[i] = a._replace(inferred_type=d.inferred_type, evidence=a.evidence + (note,))

    for mid, anns in refined.items() if constraints else ():
        for i, a in enumerate(anns):
            rng = (a.field.start, a.field.end)
            if rng != clustering.command_pos:
                continue
            if F.COMMAND not in a.inferred_functions:
                event(mid, rng, "add-function", "COMMAND", "field is the clustering basis")
                a = a._replace(
                    inferred_functions=a.inferred_functions | {F.COMMAND},
                    evidence=a.evidence + (Evidence("refine.cluster-command", None),),
                )
            if a.inferred_type is T.UNKNOWN:
                event(mid, rng, "assign-type", "GROUP", "untyped clustering basis")
                a = a._replace(inferred_type=T.GROUP)
            anns[i] = a
        for i, a in enumerate(anns):
            bad = sorted(
                (fn for fn in a.inferred_functions if a.inferred_type not in CONSTRAINT_TABLE[fn]),
                key=lambda fn: fn.name,
            )
            for fn in bad:
                allowed = "/".join(sorted(t.name for t in CONSTRAINT_TABLE[fn]))
                reason = f"requires {allowed}, field is {a.inferred_type.name}"
                event(mid, (a.field.start, a.field.end), "drop-function", fn.name, reason)
            if bad:
                anns[i] = a._replace(inferred_functions=a.inferred_functions - set(bad))
    return {mid: tuple(anns) for mid, anns in refined.items()}, log


@st.composite
def labelled_prototype_corpora(draw):
    """``prototype_corpora`` with random labels: each format gets one or two
    label rows, so messages share annotations and values repeat."""
    messages, formats = draw(prototype_corpora())
    label = st.tuples(st.sampled_from(list(T)), st.frozensets(st.sampled_from(list(F)), max_size=3))
    rows, annotations = {}, {}
    for m in messages:
        fields = formats[m.id].fields
        if fields not in rows:
            rows[fields] = draw(
                st.lists(st.tuples(*(label for _ in fields)), min_size=1, max_size=2)
            )
        row = draw(st.sampled_from(rows[fields]))
        annotations[m.id] = tuple(
            FieldAnnotation(f, t, fns, ()) for f, (t, fns) in zip(fields, row, strict=True)
        )
    return messages, formats, annotations


@given(labelled_prototype_corpora(), st.tuples(st.booleans(), st.booleans(), st.booleans()))
@settings(max_examples=150, deadline=None)
def test_the_decisions_expand_to_each_messages_own_events(corpus, toggles):
    messages, formats, annotations = corpus
    clustering, refined, events = pipeline.refine_corpus(messages, formats, annotations, *toggles)
    expected, log = brute_force_refine(
        {m.id: m for m in messages}, annotations, clustering, *toggles[1:]
    )
    assert refined == expected
    assert per_message(events) == log
    assert len(set(events)) == len(events)  # one event per distinct decision
    assert all(e.messages and list(e.messages) == sorted(set(e.messages)) for e in events)


@given(labelled_prototype_corpora().filter(lambda c: len(c[0]) > 1), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_duplicating_every_message_doubles_each_decisions_ids(corpus, entropy, constraints):
    messages, formats, annotations = corpus
    twins = [Message("t" + m.id, m.data) for m in messages]
    doubled = (
        messages + twins,
        formats | {t.id: FormatResult(t.id, len(t), formats[t.id[1:]].fields) for t in twins},
        annotations | {t.id: annotations[t.id[1:]] for t in twins},
    )
    _, refined, events = pipeline.refine_corpus(*corpus, False, entropy, constraints)
    _, refined2, events2 = pipeline.refine_corpus(*doubled, False, entropy, constraints)
    assert {mid: refined2["t" + mid] for mid in refined} == refined
    assert [dataclasses.replace(e, messages=()) for e in events2] == [
        dataclasses.replace(e, messages=()) for e in events
    ]
    assert [e.messages for e in events2] == [
        tuple(sorted(e.messages + tuple("t" + mid for mid in e.messages))) for e in events
    ]

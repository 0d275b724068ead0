import builtins
import copy
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens import detectors, evaluation, extraction, pipeline, refinement, reports, traceio
from fieldlens.detectors import RULE_IDS, FieldAnnotation, SemanticType, annotate_format
from fieldlens.evaluation import load_ground_truth
from fieldlens.extraction import extract_format, extract_format_baseline
from fieldlens.model import (
    ExecutionTrace,
    Field,
    FormatResult,
    Message,
    ModelError,
    instructions_for,
)
from fieldlens.pipeline import (
    PipelineConfig,
    infer_corpus,
    read_inputs,
    refine_corpus,
    run_pipeline,
    score_corpus,
)
from fieldlens.reports import (
    annotation_from_dict,
    annotations_from_doc,
    annotations_to_doc,
    check_covers,
    formats_to_doc,
    write_json,
)
from fieldlens.traceio import (
    IntegrityError,
    load_corpus,
    read_interchange,
    serialize_corpus,
    serialize_ground_truth,
)
from fieldlens.vm import bundled_parsers, run as vm_run

from corpora import shapes_of, text_names


def dump_corpus(path, messages, traces):
    path.write_text(serialize_corpus(messages, traces), encoding="utf-8")


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    parser = bundled_parsers()[1]  # text-command
    messages, truths = parser.generate(8, seed=4)
    traces = [vm_run(parser.script, m).trace for m in messages]
    path = tmp / "text.fl"
    dump_corpus(path, messages, traces)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(serialize_ground_truth(truths))
    return path, messages, traces, truths


def test_run_pipeline_end_to_end(tmp_path, small_corpus):
    path, messages, _, _ = small_corpus
    config = PipelineConfig(traces=path, out_dir=tmp_path / "out", ground_truth=path)
    result = run_pipeline(config)
    assert result.metrics is not None
    assert result.metrics.to_dict()["semantics"]["function"]["f1"] == 1.0
    assert set(result.annotations) == {m.id for m in messages}
    assert (tmp_path / "out" / "refinement_audit.json").exists()


def test_pipeline_without_ground_truth_skips_metrics(tmp_path, small_corpus):
    path, *_ = small_corpus
    config = PipelineConfig(traces=path, out_dir=tmp_path / "out")
    result = run_pipeline(config)
    assert result.metrics is None
    assert not (tmp_path / "out" / "metrics.json").exists()
    assert (tmp_path / "out" / "template.json").exists()


def test_traces_file_holding_ground_truth_is_read_once(tmp_path, small_corpus, monkeypatch):
    path, *_ = small_corpus
    real_open = builtins.open
    opened = []

    def counting(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    config = PipelineConfig(traces=path, out_dir=tmp_path / "out", ground_truth=path)
    assert run_pipeline(config).metrics is not None
    assert len(opened) == 1


def test_separate_ground_truth_file_scores_the_same(tmp_path, small_corpus):
    path, messages, traces, truths = small_corpus
    traces_only, truth_only = tmp_path / "traces.fl", tmp_path / "truth.fl"
    dump_corpus(traces_only, messages, traces)
    truth_only.write_text(serialize_ground_truth(truths), encoding="utf-8")
    for traces_path, truth_path, out in (
        (path, path, "joint"), (traces_only, truth_only, "split"),
    ):
        run_pipeline(PipelineConfig(
            traces=traces_path, out_dir=tmp_path / out, ground_truth=truth_path
        ))
    for name in ("metrics.json", "annotations.json"):
        assert (tmp_path / "split" / name).read_bytes() == (
            tmp_path / "joint" / name
        ).read_bytes()


def _check_truth(messages, what, truths):
    """The ground-truth check of ``run`` and ``score``: ``score_corpus``
    itself takes its ground truth as checked."""
    check_covers({m.id: len(m) for m in messages}, what, truths)


def test_score_corpus_reports_missing_ground_truth_ids(small_corpus):
    path, messages, _, _ = small_corpus
    truths = load_ground_truth(load_corpus(path).truth)
    del truths[messages[0].id]
    with pytest.raises(IntegrityError) as err:
        _check_truth(messages, str(path), truths)
    assert messages[0].id in str(err.value)


def test_score_corpus_rejects_ground_truth_for_unknown_ids(tmp_path, small_corpus):
    path, messages, _, _ = small_corpus
    extra = tmp_path / "extra.fl"
    extra.write_text(path.read_text() + "gt zz9 field=0-1 type=STATIC funcs=-\n")
    truths = load_ground_truth(load_corpus(extra).truth)
    with pytest.raises(IntegrityError) as err:
        _check_truth(messages, str(extra), truths)
    assert "zz9" in str(err.value)


def test_truths_that_differ_only_in_accessed_are_scored_apart():
    """Equal fields and annotations, and truths that differ only in whether
    the server read the second true field: the over-segmentation inside it
    and the accessed-only recall are counted per truth."""
    fields = (Field(0, 0), Field(1, 1), Field(2, 3))
    formats = {mid: FormatResult(4, fields) for mid in "ab"}
    anns = tuple(FieldAnnotation(f, SemanticType.STATIC, frozenset(), ()) for f in fields)
    annotations = {"a": anns, "b": anns}
    truths = {
        mid: (
            FieldAnnotation(Field(0, 0), SemanticType.STATIC, frozenset(), ()),
            FieldAnnotation(Field(1, 3, accessed), SemanticType.BYTES, frozenset(), ()),
        )
        for mid, accessed in (("a", True), ("b", False))
    }

    def report(mid):
        return score_corpus({mid: formats[mid]}, annotations, truths).to_dict()

    a, b = report("a"), report("b")
    assert a["segmentation_errors"] != b["segmentation_errors"]
    recall = "recall_accessed_only"
    assert a["semantics"]["type"][recall] != b["semantics"]["type"][recall]


def _generated(*specs):
    """Messages and VM traces, ``(count, seed)`` per bundled parser in order."""
    messages, traces = [], {}
    for parser, (count, seed) in zip(bundled_parsers(), specs):
        generated, _ = parser.generate(count, seed=seed)
        messages += generated
        traces.update((m.id, vm_run(parser.script, m).trace) for m in generated)
    return messages, traces


def _per_message(messages, traces, baseline=False, disabled=frozenset()):
    """What ``infer_corpus`` gives, inferred one message at a time, no memo."""
    formats, annotations = {}, {}
    for m in messages:
        t = traces[m.id]
        fmt = extract_format_baseline(m, t) if baseline else extract_format(m, t)
        formats[m.id] = fmt
        annotations[m.id] = annotate_format(fmt, t, m, disabled)
    return formats, annotations


def _docs(inferred):
    """The formats and annotations documents of ``infer_corpus``'s result."""
    formats, annotations = inferred
    return formats_to_doc(formats), annotations_to_doc(annotations)


def _shape(message, trace):
    return len(message), trace.records


def _counting(monkeypatch, module, name, key):
    """Replace ``module.name`` with a wrapper that logs ``key(*args)``."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_infer_corpus_infers_each_shape_once(monkeypatch):
    messages, traces = _generated((6, 2), (6, 2))
    shapes = {m.id: _shape(m, traces[m.id]) for m in messages}
    by_trace = {id(traces[m.id]): shapes[m.id] for m in messages}  # one trace per message
    extracted = _counting(monkeypatch, pipeline, "extract_format", lambda m, *_: m.id)
    lookups = _counting(
        monkeypatch, detectors, "instructions_for", lambda t, fs: [(by_trace[id(t)], f) for f in fs]
    )
    formats, _ = infer_corpus(shapes_of(messages, traces))
    looked_up = [pair for pairs in lookups for pair in pairs]
    assert len(extracted) == len(set(shapes.values())) < len(messages)
    assert {shapes[mid] for mid in extracted} == set(shapes.values())
    pairs = {(shapes[mid], f) for mid, fmt in formats.items() for f in fmt.fields}
    assert len(looked_up) == len(set(looked_up)) == len(pairs)


def test_a_trace_is_hashed_once_per_carved_block_or_joined_message(monkeypatch):
    """The reader interns by value the trace of each block it carves and of
    each message it joins at the end: one hash each.  A message that repeats
    the last block read at its length and first line joins that block's
    shape unhashed, and ``infer_corpus`` iterates the shapes, so it hashes
    no trace.  The corpus is seed-0 corpus-mixed-400, then a message in two
    parts, one of a stray line and one without records."""
    messages, traces = _generated((200, 0), (200, 0))
    line = "op=mov class=MOV_SERIES off=0"
    text = serialize_corpus(messages, [traces[m.id] for m in messages]) + (
        f"msg split bytes=0x0102\nrec split seq=1 {line}\n"
        f"# a comment ends the block\nrec split seq=2 {line}\n"
        f"msg stray bytes=0x01\nmsg bare bytes=0x01\nrec stray seq=1 {line}\n"
    )
    carved = _counting(monkeypatch, traceio, "_carve", lambda *args: None)
    hashed = _counting(monkeypatch, ExecutionTrace, "__hash__", lambda trace: None)
    corpus = read_interchange(io.StringIO(text))
    assert len(corpus.messages) == 403 and len(corpus.shapes) == 6 + 3
    assert 0 < len(hashed) <= len(carved) + 3
    hashed.clear()
    infer_corpus(corpus.shapes)
    assert hashed == []


class _CountedRecords(tuple):
    """A records tuple that counts every record it hands out."""

    visits = 0

    def __iter__(self):
        for rec in super().__iter__():
            self.visits += 1
            yield rec

    def __getitem__(self, index):
        self.visits += 1
        return super().__getitem__(index)


def test_inferring_a_shape_visits_records_linearly():
    """Extraction and the detectors look up I(f) and the covering loops for
    every candidate and field, yet a shape's records are visited a bounded
    number of times per record and per accessed offset, not once per lookup
    or once per byte.  The records of the trace and of each of its loops are
    counted.  A long file name gives a long trace, a long loop and many
    candidates."""
    (msg,), (trace,), _ = text_names(1, seed=0, lo=150, hi=200)
    counted = ExecutionTrace(_CountedRecords(trace.records))
    loops = {loop_id: _CountedRecords(recs) for loop_id, recs in trace.loops.items()}
    vars(counted)["loops"] = loops  # what the ``loops`` property caches
    formats, _ = infer_corpus(shapes_of([msg], {msg.id: counted}))
    assert len(formats[msg.id].fields) > 1
    size = len(trace.records) + sum(
        hi - lo + 1 for r in trace.records for lo, hi in r.accessed_offsets
    )
    visits = counted.records.visits + sum(recs.visits for recs in loops.values())
    assert 0 < visits <= 8 * size


@settings(max_examples=20, deadline=None)
@given(
    specs=st.tuples(*[st.tuples(st.integers(1, 4), st.integers(0, 999))] * 2),
    disabled=st.frozensets(st.sampled_from(RULE_IDS)),
    baseline=st.booleans(),
)
def test_infer_corpus_equals_per_message_inference(specs, disabled, baseline):
    messages, traces = _generated(*specs)
    inferred = infer_corpus(shapes_of(messages, traces), baseline, disabled)
    alone = _per_message(messages, traces, baseline, disabled)
    assert inferred == alone
    assert _docs(inferred) == _docs(alone)


def test_infer_corpus_gives_every_message_of_a_shape_one_format_object():
    messages, traces = _generated((6, 2), (6, 2))
    shapes = shapes_of(messages, traces)
    formats, _ = infer_corpus(shapes)
    assert len(shapes) < len(messages)
    for _, held in shapes:
        assert all(formats[m.id] is formats[held[0].id] for m in held)


@settings(max_examples=20, deadline=None)
@given(
    specs=st.tuples(*[st.tuples(st.integers(1, 4), st.integers(0, 999))] * 2),
    baseline=st.booleans(),
    data=st.data(),
)
def test_the_formats_document_lists_each_distinct_format_once(specs, baseline, data):
    """``formats.json`` v2 holds one entry per distinct format, with the
    sorted ids of its messages, ordered by first id, whatever the order of
    the formats it is given; each entry rebuilds its messages' formats."""
    messages, traces = _generated(*specs)
    inferred, _ = infer_corpus(shapes_of(messages, traces), baseline)
    formats = {mid: inferred[mid] for mid in data.draw(st.permutations(list(inferred)))}
    doc = json.loads(json.dumps(formats_to_doc(formats)))
    assert doc["format"] == "fieldlens-formats" and doc["version"] == 2
    entries = doc["formats"]
    assert len(entries) == len(set(formats.values()))
    ids = [mid for e in entries for mid in e["messages"]]
    assert sorted(ids) == sorted(formats) and len(ids) == len(set(ids))
    assert all(e["messages"] == sorted(e["messages"]) for e in entries)
    firsts = [e["messages"][0] for e in entries]
    assert firsts == sorted(firsts)
    rebuilt = {}
    for e in entries:
        fields = tuple(Field(f["start"], f["end"], f["accessed"]) for f in e["fields"])
        starts = [f.start for f in fields]
        assert starts[0] == 0 and [f.end + 1 for f in fields] == starts[1:] + [e["length"]]
        assert e["boundaries"] == starts[1:]
        rebuilt.update((mid, FormatResult(e["length"], fields)) for mid in e["messages"])
    assert rebuilt == inferred


def _declared(field, trace):
    """The offsets that the field's open byte parts read (``BytePart.reads``)."""
    (records,) = instructions_for(trace, [field])
    structure = detectors._structure(field, trace, records, frozenset())
    return {p for _, _, reads in structure.open for sl in reads for p in range(sl.start, sl.stop)}


@settings(max_examples=20, deadline=None)
@given(seeds=st.tuples(st.integers(0, 999), st.integers(0, 999)), data=st.data())
def test_messages_that_differ_inside_one_window_are_inferred_as_alone(seeds, data):
    """Each twin has its message's trace, so its shape, and new bytes inside
    the byte window of one of its fields (the field and one byte on each
    side); that window also overlaps each neighbour's.  Every field of every
    message must still get what inference one message at a time gives.  A
    quiet twin changes only window bytes that the field's open byte parts
    do not read, so that field's annotation is the message's own object."""
    messages, traces = _generated((2, seeds[0]), (2, seeds[1]))
    twins, quiet = [], []

    def window(f, m):
        return range(max(0, f.start - 1), min(f.end + 2, len(m)))

    for m in messages:
        fields = extract_format(m, traces[m.id]).fields
        unread = [sorted(set(window(f, m)) - _declared(f, traces[m.id])) for f in fields]
        for k in range(3):
            raw = bytearray(m.data)
            if k < 2:
                for pos in window(data.draw(st.sampled_from(fields)), m):
                    raw[pos] = data.draw(st.sampled_from(m.data[pos : pos + 1] + b"\r\n./a"))
            else:
                idx = data.draw(st.sampled_from([i for i, u in enumerate(unread) if u] or [None]))
                if idx is None:
                    continue
                for pos in unread[idx]:
                    raw[pos] = data.draw(st.sampled_from([b for b in b"\r\n./a" if b != raw[pos]]))
                quiet.append((m.id, f"{m.id}-{k}", idx))
            twin = Message(f"{m.id}-{k}", bytes(raw))
            twins.append(twin)
            traces[twin.id] = ExecutionTrace(traces[m.id].records)
    corpus = messages + twins
    inferred = infer_corpus(shapes_of(corpus, traces))
    assert inferred == _per_message(corpus, traces)
    annotations = inferred[1]
    for mid, twin_id, idx in quiet:
        assert annotations[twin_id][idx] is annotations[mid][idx]




#: attribute -> a different value for it (or the same, to skip the record)
_CHANGES = {
    "reads": lambda rec: () if rec.reads else rec.accessed_offsets,
    "seq": lambda rec: rec.seq + 1000,
    "cmp_result": lambda rec: None if rec.cmp_result is None else not rec.cmp_result,
    "compared_const": lambda rec: rec.compared_const
    and bytes([rec.compared_const[0] ^ 0xFF]) + rec.compared_const[1:],
}


def _mutations(messages, traces, attr):
    """(message, its trace with one record's ``attr`` changed), for messages
    whose shape another message shares."""
    shapes = [_shape(m, traces[m.id]) for m in messages]
    for m, shape in zip(messages, shapes):
        if shapes.count(shape) < 2:
            continue
        records = traces[m.id].records
        for i, rec in enumerate(records):
            new = _CHANGES[attr](rec)
            if new == getattr(rec, attr):
                continue
            try:
                changed = rec._replace(**{attr: new})
                yield m, ExecutionTrace(records[:i] + (changed,) + records[i + 1:])
            except ModelError:
                continue


@pytest.mark.parametrize("attr", ["reads", "seq", "cmp_result", "compared_const"])
def test_a_record_that_differs_in_an_analysed_attribute_is_its_own_shape(attr):
    messages, traces = _generated((4, 2), (4, 2))
    before = _per_message(messages, traces)
    for victim, mutated in _mutations(messages, traces, attr):
        changed = {**traces, victim.id: mutated}
        after = _per_message(messages, changed)
        if (after[0][victim.id], after[1][victim.id]) != (
            before[0][victim.id], before[1][victim.id]
        ):
            break
    else:
        pytest.fail(f"no change of one record's {attr} changes a result")
    inferred = infer_corpus(shapes_of(messages, changed))
    assert inferred == after
    assert _docs(inferred) == _docs(after)


def test_audit_prints_no_negative_zero(tmp_path):
    messages, traces = _generated((5, 0), (5, 0))
    path = tmp_path / "mixed.fl"
    dump_corpus(path, messages, [traces[m.id] for m in messages])
    run_pipeline(PipelineConfig(traces=path, out_dir=tmp_path / "out"))
    audit = (tmp_path / "out" / "refinement_audit.json").read_text()
    assert '"entropy": 0.0' in audit and "-0.0" not in audit


def test_infer_corpus_aligns_each_distinct_operator_pair_once(monkeypatch):
    messages, traces = _generated((6, 2), (6, 2))
    calls = []
    real = extraction.semantic_similar

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(extraction, "semantic_similar", counting)
    formats, _ = infer_corpus(shapes_of(messages, traces))
    first = list(calls)
    assert first and len(first) == len(set(first))

    calls.clear()
    alone = {m.id: extract_format(m, traces[m.id]) for m in messages}
    assert alone == formats
    assert len(calls) > len(first)  # the corpus repeats pairs across messages

    calls.clear()
    assert infer_corpus(shapes_of(messages, traces))[0] == formats
    assert calls == first  # nothing is remembered between calls


def test_refine_corpus_toggles(small_corpus):
    path, messages, traces, _ = small_corpus
    traces_map = {m.id: t for m, t in zip(messages, traces)}
    formats, annotations = infer_corpus(shapes_of(messages, traces_map))
    clustering, _, _ = refine_corpus(
        messages, formats, annotations, clustering_enabled=False
    )
    assert clustering.degenerate
    clustering, _, _ = refine_corpus(
        messages, formats, annotations, clustering_enabled=True
    )
    assert clustering.command_pos == (0, 0)


def test_annotation_documents_round_trip(small_corpus):
    path, messages, traces, _ = small_corpus
    traces_map = {m.id: t for m, t in zip(messages, traces)}
    _, annotations = infer_corpus(shapes_of(messages, traces_map))
    annotations["x"] = tuple(
        FieldAnnotation(f, SemanticType.BYTES, frozenset(), ())
        for f in (Field(0, 1), Field(2, 3, accessed=False))
    )
    doc = json.loads(json.dumps(annotations_to_doc(annotations)))
    assert annotations_from_doc(doc) == annotations  # ``accessed`` included


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("mixed") / "mixed.fl"
    messages, traces, truths = [], [], []
    for parser in bundled_parsers():
        generated, gts = parser.generate(12, seed=7)
        messages += generated
        traces += [vm_run(parser.script, m).trace for m in generated]
        truths += gts
    dump_corpus(path, messages, traces)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(serialize_ground_truth(truths))
    return path


def test_equal_refined_annotations_are_one_object(mixed_corpus):
    messages, shapes, _ = read_inputs(mixed_corpus)
    formats, annotations = infer_corpus(shapes)
    _, refined, _ = refine_corpus(messages, formats, annotations)
    anns = [a for row in refined.values() for a in row]
    assert len({id(a) for a in anns}) == len(set(anns)) < len(anns)
    assert len(set(refined.values())) < len(refined)


def test_constraint_verdicts_are_decided_once_per_label(mixed_corpus, monkeypatch):
    """The constraint sweep drops what the field's type rules out of its
    functions, so it decides once per distinct ``(type, functions)``."""
    messages, shapes, _ = read_inputs(mixed_corpus)
    formats, annotations = infer_corpus(shapes)
    clustering, refined, _ = refine_corpus(messages, formats, annotations, constraints_enabled=False)
    decided = _counting(monkeypatch, refinement, "_constraint_verdict", lambda *label: label)
    refinement.constraint_refine(refined, clustering)
    assert len(decided) == len(set(decided)) < len({a for anns in refined.values() for a in anns})


def test_byte_parts_run_once_per_distinct_read(mixed_corpus, monkeypatch):
    """The open byte parts of a (shape, field) run once per distinct bytes
    they read: 63 times for the 144 fields of this corpus, where keying by
    each field's byte window (the field and one byte on each side) ran them
    90 times."""
    messages, shapes, _ = read_inputs(mixed_corpus)
    formats, _ = infer_corpus(shapes)
    windows = {
        (len(m), trace.records, f, m.data[max(0, f.start - 1) : f.end + 2])
        for trace, held in shapes
        for m in held
        for f in formats[m.id].fields
    }
    runs = _counting(monkeypatch, detectors, "_build", lambda *args: None)
    infer_corpus(shapes)
    assert len(runs) == 63 and len(windows) == 90


def test_scoring_matches_labels_once_per_distinct_row(mixed_corpus, monkeypatch):
    """A row is what scoring reads of a message: its format fields, each
    annotation's field, type and functions, and its truth.  Evidence is not
    part of it, so messages whose annotations differ only there share one."""
    messages, shapes, truths = read_inputs(mixed_corpus, mixed_corpus)
    formats, annotations = infer_corpus(shapes)
    matched = _counting(
        monkeypatch, evaluation.MetricsReport, "_match_labels", lambda *args: None
    )
    report = score_corpus(formats, annotations, truths)

    def row(mid, evidence):
        labels = tuple(
            (a.field, a.inferred_type, a.inferred_functions, a.evidence if evidence else ())
            for a in annotations[mid]
        )
        return formats[mid].fields, labels, truths[mid]

    rows = {row(mid, False) for mid in formats}
    assert len(matched) == len(rows) < len({row(mid, True) for mid in formats})
    assert report.messages == len(messages)


_CONFIGS = {"default": {}, "baseline": {"baseline": True},
            "no-clustering": {"clustering_enabled": False},
            "no-entropy": {"entropy_enabled": False},
            "no-constraints": {"constraints_enabled": False}}


@pytest.mark.parametrize("config", list(_CONFIGS))
def test_every_report_is_the_stdlib_indented_sorted_form(tmp_path, mixed_corpus, config):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(mixed_corpus, out, mixed_corpus, **_CONFIGS[config]))
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(
        ["formats.json", "annotations.json", "clustering.json",
         "refinement_audit.json", "metrics.json", "template.json"]
    )
    for name in written:
        text = (out / name).read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text, name


#: sha256 of each report of ``run_pipeline`` on ``mixed_corpus``, by
#: configuration.  The reports are meant to keep their bytes through any
#: simplification; a change that alters one on purpose records its new digest.
REPORT_DIGESTS = {
    "default": {
        "annotations.json": "f80c50560d275a63f2db4c07bd0a5e63324a14a82067e9b73503443065579d53",
        "clustering.json": "d3e47407d9a08f525275c3f296054bffea4fceeac099a7b608a6be43bacb8543",
        "formats.json": "9f97d14f50480f116f7961b9cc54b8927a2c42a9c6c6b12f530b9b32a66c98b3",
        "metrics.json": "73f66635b352ce8bccd08ed0f8075decbad2ab80f18dec98556bfb237428f9c6",
        "refinement_audit.json": "ee369233eaaf9904b8d2e86b5dabccf6dad687e4951256328e1b657767a08a58",
        "template.json": "d0912fbc970f44b5946150622067a7f4a7ab9778fc7de99e8f561ccd41b7bcd2",
    },
    "baseline": {
        "annotations.json": "bba06f5369591007ddd0e055b15fd6b480eceb8bce8d7fd78d542575ede9a366",
        "clustering.json": "8aaa4cbb319b3bdd4c6d1090a55213b93b0ac8eed01b69f2230ba421c6907713",
        "formats.json": "d86f1e4cc471333dff81deca831fa025d5787f014cc8268be0ce108734f6b682",
        "metrics.json": "4adcf3c2a0e3b1b5c9df030c9e7f66d38ca65125fa0b6256e71c96dc3d3b4965",
        "refinement_audit.json": "d9409b91e3ee8fd6eefdf7419b3acea502cad83bf109a4404474a2495f810693",
        "template.json": "23a13ff4562124303857a9b043b420adb4f6bb63761343cf0368c1d1cf3b2845",
    },
    "no-clustering": {
        "annotations.json": "ab947e1034eb537adb0add49334bdd0c95a3cf4679499d3d590551c0dcbedb69",
        "clustering.json": "eb5af48c575e595d5410a02052394353ae0ff3d4f87d681007f1197145389349",
        "formats.json": "9f97d14f50480f116f7961b9cc54b8927a2c42a9c6c6b12f530b9b32a66c98b3",
        "metrics.json": "e3b0bd6841b926c21ac3df5759f7111284e0c8414f0e403ecbd96ad858230767",
        "refinement_audit.json": "9d86799330a053037289e1bd3d4c86b01dcffe78b4d52041e4ad029b6d286ce9",
        "template.json": "ac7f1bec1ebd1d3b77124c0ff762912ffd23c9f5dcce3d5d2e5bac4b9244c4cf",
    },
    "no-entropy": {
        "annotations.json": "f80c50560d275a63f2db4c07bd0a5e63324a14a82067e9b73503443065579d53",
        "clustering.json": "d3e47407d9a08f525275c3f296054bffea4fceeac099a7b608a6be43bacb8543",
        "formats.json": "9f97d14f50480f116f7961b9cc54b8927a2c42a9c6c6b12f530b9b32a66c98b3",
        "metrics.json": "73f66635b352ce8bccd08ed0f8075decbad2ab80f18dec98556bfb237428f9c6",
        "refinement_audit.json": "a05d6aa593c24e9ad0bc889804a9876043c2beda23183202a3d1015055164ded",
        "template.json": "d0912fbc970f44b5946150622067a7f4a7ab9778fc7de99e8f561ccd41b7bcd2",
    },
    "no-constraints": {
        "annotations.json": "1a85ad16ac571a65f4c948f7d9dd275430686330379d175d3539547247bfc570",
        "clustering.json": "d3e47407d9a08f525275c3f296054bffea4fceeac099a7b608a6be43bacb8543",
        "formats.json": "9f97d14f50480f116f7961b9cc54b8927a2c42a9c6c6b12f530b9b32a66c98b3",
        "metrics.json": "0925f7034784ebcfcc5cb69cb4daec8a59b84655e56c3bb611312d7bd43a342c",
        "refinement_audit.json": "a86170c9385a7c3978cb68646d516d5697e4a7dfa569040e064051fe77bf6047",
        "template.json": "6cc50fb3aa625a24afa50fbb1be48e8ab4a537dd548b96341b5927d968317e44",
    },
}

@pytest.mark.parametrize("config", list(_CONFIGS))
def test_reports_keep_their_recorded_bytes(tmp_path, mixed_corpus, config):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(mixed_corpus, out, mixed_corpus, **_CONFIGS[config]))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == REPORT_DIGESTS[config]


def test_equal_annotations_share_one_dict(small_corpus):
    _, messages, traces, _ = small_corpus
    traces_map = {m.id: t for m, t in zip(messages, traces)}
    _, annotations = infer_corpus(shapes_of(messages, traces_map))
    ranged = Field(0, 1), Field(0, 1, accessed=False)
    annotations["x"] = tuple(FieldAnnotation(f, SemanticType.BYTES, frozenset(), ()) for f in ranged)
    doc = annotations_to_doc(annotations)
    dicts = [d for entries in doc.values() for d in entries]
    distinct = {a for anns in annotations.values() for a in anns}
    assert len({id(d) for d in dicts}) == len(distinct) < len(dicts)
    assert [d["accessed"] for d in doc["x"]] == [True, False]
    evidence = [e for d in dicts for e in d["evidence"]]
    shared = {e for a in distinct for e in a.evidence}
    assert len({id(e) for e in evidence}) == len(shared) < sum(len(a.evidence) for a in distinct)
    functions = [d["functions"] for d in dicts]
    assert len({id(f) for f in functions}) == len({a.inferred_functions for a in distinct})


@pytest.mark.parametrize(
    "doc",
    [{"bytes": b"\x00"}, {1: "int key"}, [{"nested": {(0, 1): "tuple key"}}]],
    ids=["bytes-value", "int-key", "tuple-key"],
)
def test_a_document_that_cannot_be_encoded_leaves_the_target_untouched(tmp_path, doc):
    missing, existing = tmp_path / "missing.json", tmp_path / "existing.json"
    existing.write_bytes(b"old bytes")
    for target in (missing, existing):
        with pytest.raises(TypeError):
            write_json(target, doc)
    assert not missing.exists()
    assert existing.read_bytes() == b"old bytes"


@pytest.mark.parametrize("old", [b"x" * 4096, b"{}"], ids=["longer", "shorter"])
def test_a_report_is_rewritten_in_place(tmp_path, old):
    target = tmp_path / "report.json"
    target.write_bytes(old)
    inode = target.stat().st_ino
    doc = {"fields": [{"start": 0, "end": 1}], "note": "new"}
    write_json(target, doc)
    assert target.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert target.stat().st_ino == inode


def test_a_report_path_that_is_a_symlink_keeps_the_link(tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_bytes(b"old bytes and then some")
    link.symlink_to(real)
    write_json(link, [1])
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_bytes() == b"[\n  1\n]\n"


def test_a_report_can_be_written_to_the_null_device():
    write_json(os.devnull, {"a": 1})


def test_no_report_is_truncated_before_it_is_written(tmp_path, monkeypatch):
    """Truncating a file that was just rewritten waits for its writeback on
    ext4; tier-1 cannot time the filesystem, so this pins the flags."""
    flags = []
    real_open = reports.os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(reports.os, "open", spy)
    target = tmp_path / "report.json"
    for doc in ({"a": [1, 2, 3]}, {"a": []}):
        write_json(target, doc)
    assert len(flags) == 2
    assert not any(f & os.O_TRUNC for f in flags)
    assert target.read_bytes() == b'{\n  "a": []\n}\n'


_ANNOTATION = {
    "start": 0,
    "end": 1,
    "accessed": True,
    "type": "BYTES",
    "functions": [],
    "evidence": [{"rule": "r", "seq": None, "note": ""}],
}


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("end",), 1.0, id="end-float"),
        pytest.param(("start",), False, id="start-bool"),
        pytest.param(("accessed",), 1, id="accessed-int"),
        pytest.param(("evidence", 0, "rule"), 7, id="rule-int"),
        pytest.param(("evidence", 0, "seq"), "3", id="seq-str"),
        pytest.param(("evidence", 0, "note"), None, id="note-null"),
        pytest.param(("functions",), "", id="functions-str"),
        pytest.param(("functions",), {"COMMAND": 1}, id="functions-object"),
        pytest.param(("evidence",), {}, id="evidence-object"),
    ],
)
def test_stage_document_scalars_are_type_checked(path, value):
    annotation_from_dict(_ANNOTATION)
    bad = copy.deepcopy(_ANNOTATION)
    *parents, key = path
    target = bad
    for k in parents:
        target = target[k]
    target[key] = value
    with pytest.raises(TypeError):
        annotation_from_dict(bad)


def test_disabled_rules_flow_through_pipeline(tmp_path, small_corpus):
    path, *_ = small_corpus
    config = PipelineConfig(
        traces=path,
        out_dir=tmp_path / "out",
        disabled_rules=frozenset({"func.filename"}),
    )
    result = run_pipeline(config)
    for anns in result.annotations.values():
        for ann in anns:
            assert all(e.rule != "func.filename" for e in ann.evidence)

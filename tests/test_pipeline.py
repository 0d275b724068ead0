import builtins
import json

import pytest

from fieldlens import extraction
from fieldlens.alignment import AlignmentParams
from fieldlens.evaluation import load_ground_truth, serialize_ground_truth
from fieldlens.extraction import extract_format
from fieldlens.pipeline import (
    PipelineConfig,
    infer_corpus,
    refine_corpus,
    run_pipeline,
    score_corpus,
)
from fieldlens.reports import (
    annotations_from_doc,
    annotations_to_doc,
    format_from_dict,
    format_to_dict,
)
from fieldlens.traceio import IntegrityError, dump_corpus, load_corpus
from fieldlens.vm import bundled_parsers, run as vm_run


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


def test_score_corpus_reports_missing_ground_truth_ids(small_corpus):
    path, messages, traces, _ = small_corpus
    traces_map = {t.message_id: t for t in traces}
    formats, annotations = infer_corpus(messages, traces_map, AlignmentParams())
    truths = load_ground_truth(load_corpus(path).truth)
    del truths[messages[0].id]
    with pytest.raises(IntegrityError) as err:
        score_corpus(formats, annotations, truths)
    assert messages[0].id in str(err.value)


def test_score_corpus_rejects_ground_truth_for_unknown_ids(tmp_path, small_corpus):
    path, messages, traces, _ = small_corpus
    traces_map = {t.message_id: t for t in traces}
    formats, annotations = infer_corpus(messages, traces_map, AlignmentParams())
    extra = tmp_path / "extra.fl"
    extra.write_text(path.read_text() + "gt zz9 field=0-1 type=STATIC funcs=-\n")
    truths = load_ground_truth(load_corpus(extra).truth)
    with pytest.raises(IntegrityError) as err:
        score_corpus(formats, annotations, truths)
    assert "zz9" in str(err.value)


def test_infer_corpus_aligns_each_distinct_operator_pair_once(monkeypatch):
    messages, traces = [], {}
    for parser in bundled_parsers():
        generated, _ = parser.generate(6, seed=2)
        messages += generated
        traces.update((m.id, vm_run(parser.script, m).trace) for m in generated)
    calls = []
    real = extraction.semantic_similar

    def counting(a, b, params=None):
        calls.append((a, b))
        return real(a, b, params)

    monkeypatch.setattr(extraction, "semantic_similar", counting)
    params = AlignmentParams()
    formats, _ = infer_corpus(messages, traces, params)
    first = list(calls)
    assert first and len(first) == len(set(first))

    calls.clear()
    alone = {m.id: extract_format(m, traces[m.id], params) for m in messages}
    assert alone == formats
    assert len(calls) > len(first)  # the corpus repeats pairs across messages

    calls.clear()
    assert infer_corpus(messages, traces, params)[0] == formats
    assert calls == first  # nothing is remembered between calls


def test_refine_corpus_toggles(small_corpus):
    path, messages, traces, _ = small_corpus
    traces_map = {t.message_id: t for t in traces}
    formats, annotations = infer_corpus(messages, traces_map, AlignmentParams())
    clustering, _, _ = refine_corpus(
        messages, formats, annotations, AlignmentParams(), clustering_enabled=False
    )
    assert clustering.degenerate
    clustering, _, _ = refine_corpus(
        messages, formats, annotations, AlignmentParams(), clustering_enabled=True
    )
    assert clustering.command_pos == (0, 0)


def test_annotation_documents_round_trip(small_corpus):
    path, messages, traces, _ = small_corpus
    traces_map = {t.message_id: t for t in traces}
    formats, annotations = infer_corpus(messages, traces_map, AlignmentParams())
    doc = json.loads(json.dumps(annotations_to_doc(annotations)))
    assert annotations_from_doc(doc) == annotations
    for fmt in formats.values():
        assert format_from_dict(json.loads(json.dumps(format_to_dict(fmt)))) == fmt


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

"""Quality table over the test-only corpora of ``tests/corpora.py`` and
small ``generate-traces`` corpora that show a known defect.

Each row is a (corpus, configuration) pair run as ``fieldlens run`` runs it,
and records exact perfection, format F1, type F1, function F1 and the
cluster count as measured when the row landed.  A change that moves a cell
records the new value and says so in CHANGES.md; a cell that records a known
defect names, in a comment, the ROADMAP item that should fix it.  The seed
census at the end pins, over 540 seeded corpora of the bundled generators,
which seeds fall below 1.0, so a change that moves one label shows there."""

import functools
import io

import pytest

from corpora import text_names
from fieldlens.cli import main
from fieldlens.evaluation import load_ground_truth
from fieldlens.pipeline import (
    PipelineConfig,
    infer_corpus,
    refine_corpus,
    run_pipeline,
    score_corpus,
)
from fieldlens.traceio import read_interchange, serialize_corpus, serialize_ground_truth
from fieldlens.vm import bundled_parsers, run as vm_run


@pytest.fixture(scope="module")
def names_1_60(tmp_path_factory):
    """Seed 0, 200 messages, file names of 1-60 letters."""
    messages, traces, truths = text_names(200, seed=0, lo=1, hi=60)
    path = tmp_path_factory.mktemp("quality") / "names-1-60.fl"
    path.write_text(serialize_corpus(messages, traces) + serialize_ground_truth(truths))
    return path


# The boundaries are exact, yet refinement loses labels: entropy is pooled by
# absolute byte range, so one range is the CRLF delimiter in one message and
# part of a file name in the next (ROADMAP item 9 should bring the type and
# function F1 to the no-entropy row's).  The command position (13, 14) lies
# inside most messages' file names and cuts them into 168 clusters (ROADMAP
# item 1).
ROWS = [
    pytest.param({}, (1.0, 1.0, 0.98125, 0.9843, 168), id="default"),
    pytest.param({"entropy_enabled": False}, (1.0, 1.0, 1.0, 1.0, 168), id="no-entropy"),
    pytest.param({"clustering_enabled": False}, (1.0, 1.0, 0.89, 0.9127, 1), id="no-clustering"),
    pytest.param({"baseline": True}, (0.5, 0.13947, 0.21834, 0.52289, 168), id="baseline"),
]


def _quality(corpus, out, **config):
    result = run_pipeline(PipelineConfig(corpus, out, ground_truth=corpus, **config))
    doc = result.metrics.to_dict()
    return (
        doc["format"]["perfection"],
        doc["format"]["f1"],
        doc["semantics"]["type"]["f1"],
        doc["semantics"]["function"]["f1"],
        len(result.clustering.clusters),
    )


@pytest.mark.parametrize("config, row", ROWS)
def test_names_1_60_quality(tmp_path, names_1_60, config, row):
    assert _quality(names_1_60, tmp_path / "out", **config) == pytest.approx(row, abs=5e-5)


@pytest.fixture(scope="module")
def names_1_200(tmp_path_factory):
    """Seed 0, 100 messages, file names of 1-200 letters: 91 shapes."""
    messages, traces, truths = text_names(100, seed=0, lo=1, hi=200)
    path = tmp_path_factory.mktemp("quality") / "names-1-200.fl"
    path.write_text(serialize_corpus(messages, traces) + serialize_ground_truth(truths))
    return path


# As in the 1-60 rows, entropy pooled by absolute byte range costs labels
# that the no-entropy row keeps (ROADMAP item 9).  Almost every message is a
# shape of its own, so this is also inference's near-worst case for shapes.
ROWS_1_200 = [
    pytest.param({}, (1.0, 1.0, 0.9925, 0.99502, 95), id="default"),
    pytest.param({"entropy_enabled": False}, (1.0, 1.0, 1.0, 1.0, 95), id="no-entropy"),
    pytest.param({"clustering_enabled": False}, (1.0, 1.0, 0.89, 0.91429, 1), id="no-clustering"),
]


@pytest.mark.parametrize("config, row", ROWS_1_200)
def test_names_1_200_quality(tmp_path, names_1_200, config, row):
    assert _quality(names_1_200, tmp_path / "out", **config) == pytest.approx(row, abs=5e-5)


@pytest.fixture(scope="module")
def names_2_6(tmp_path_factory):
    """Seed 0, 400 messages, file names of 2-6 letters."""
    messages, traces, truths = text_names(400, seed=0, lo=2, hi=6)
    path = tmp_path_factory.mktemp("quality") / "names-2-6.fl"
    path.write_text(serialize_corpus(messages, traces) + serialize_ground_truth(truths))
    return path


# The command position (5, 11) lies inside the file names, so the search cuts
# the 400 messages into 396 clusters, 392 of them of one message (ROADMAP
# item 1).  In some of the four pairs the CRLF delimiter's entropy, 0, is not
# below the cluster median, 0, so its STATIC label is revoked (ROADMAP item 2).
# It is also the search's worst case for one-message value groups.
ROWS_2_6 = [
    pytest.param({}, (1.0, 1.0, 0.9975, 0.99834, 396), id="default"),
    pytest.param({"entropy_enabled": False}, (1.0, 1.0, 1.0, 1.0, 396), id="no-entropy"),
    pytest.param({"clustering_enabled": False}, (1.0, 1.0, 1.0, 1.0, 1), id="no-clustering"),
]


@pytest.mark.parametrize("config, row", ROWS_2_6)
def test_names_2_6_quality(tmp_path, names_2_6, config, row):
    assert _quality(names_2_6, tmp_path / "out", **config) == pytest.approx(row, abs=5e-5)


# The binary-frame halves of three batches-20 corpora.  Each holds a
# two-message cluster whose median entropy is 0.0, so STATIC at (0,1), with
# entropy 0, is not strictly below it: entropy refinement revokes it and the
# fallback gives INTEGER (ROADMAP item 2 should bring type F1 to 1.0).
@pytest.mark.parametrize("seed", [1739178872, 1248794762, 559260700])
def test_binary_frame_10_quality(tmp_path, seed):
    corpus = tmp_path / "bf.fl"
    assert main([
        "generate-traces", "--parser", "binary-frame", "--count", "10", "--seed", str(seed),
        "--with-ground-truth", "--out", str(corpus),
    ]) == 0
    assert _quality(corpus, tmp_path / "out") == pytest.approx((1.0, 1.0, 0.975, 1.0, 3), abs=5e-5)


# ROADMAP item 19's seed census: the bundled generators at seeds 0-59, at 5,
# 10 and 30 messages per protocol, for each protocol and for ``all`` (540
# corpora, laid out as ``generate-traces --with-ground-truth`` writes them).
# Each corpus is read, inferred, refined and scored as ``run`` does, without
# writing reports.  (corpus, messages per protocol) -> the number of seeds
# whose perfection or format, type or function F1 is below 1.0, and those
# seeds, as measured.
CENSUS = {
    # A two-message cluster whose median entropy is 0.0 revokes STATIC at
    # entropy 0 (ROADMAP item 2).
    ("binary-frame", 5): (13, [3, 6, 7, 8, 10, 13, 19, 25, 33, 42, 49, 55, 57]),
    ("binary-frame", 10): (11, [1, 5, 8, 12, 16, 18, 38, 40, 42, 49, 50]),
    ("binary-frame", 30): (0, []),
    ("text-command", 5): (0, []),
    ("text-command", 10): (0, []),
    ("text-command", 30): (0, []),
    # The binary-frame seeds above, and seed 0: each is item 2's.
    ("all", 5): (14, [0, 3, 6, 7, 8, 10, 13, 19, 25, 33, 42, 49, 55, 57]),
    ("all", 10): (12, [0, 1, 5, 8, 12, 16, 18, 38, 40, 42, 49, 50]),
    # Seed 0 is item 2's.  At seeds 3 and 40 the command position is the
    # digits (1, 4) (ROADMAP item 1), and the CRLF range (14, 15) reads 1.0
    # bit in a mixed-length cluster (ROADMAP item 9).
    ("all", 30): (3, [0, 3, 40]),
}
_PARSERS = {p.name: p for p in bundled_parsers()}


@functools.cache
def _census_lines(name, count, seed):
    """The trace and ``gt`` lines of one parser's messages, shared by the
    corpus of that parser and by ``all``."""
    parser = _PARSERS[name]
    messages, truths = parser.generate(count, seed)
    traces = [vm_run(parser.script, m).trace for m in messages]
    return serialize_corpus(messages, traces), serialize_ground_truth(truths)


def _census_quality(names, count, seed):
    parts = [_census_lines(name, count, seed) for name in names]
    text = "".join(t for t, _ in parts) + "".join(gt for _, gt in parts)
    corpus = read_interchange(io.StringIO(text))
    formats, annotations = infer_corpus(corpus.shapes)
    _, refined, _ = refine_corpus(corpus.messages, formats, annotations)
    doc = score_corpus(formats, refined, load_ground_truth(corpus.truth)).to_dict()
    fmt, sem = doc["format"], doc["semantics"]
    return fmt["perfection"], fmt["f1"], sem["type"]["f1"], sem["function"]["f1"]


@pytest.mark.parametrize("kind", ["binary-frame", "text-command", "all"])
def test_seed_census(kind):
    names = list(_PARSERS) if kind == "all" else [kind]
    for count in (5, 10, 30):
        below = [s for s in range(60) if min(_census_quality(names, count, s)) < 1.0]
        assert (len(below), below) == CENSUS[kind, count], count

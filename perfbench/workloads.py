"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every input is made from the workload seed with the bundled message
generators and the micro-VM, exactly as ``fieldlens generate-traces`` makes
it.  A pass is one invocation of the code under test: ``run_pipeline`` on a
corpus, or, for trace generation, one generate -> serialize -> reload cycle.
Modules are looked up at call time (``vm.run``, ``traceio.serialize_corpus``,
``pipeline.run_pipeline``) so the tracer can wrap them.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from fieldlens import pipeline, traceio, vm
from fieldlens.evaluation import serialize_ground_truth
from fieldlens.vm import TermReason, bundled_parsers

REPORTS = (
    "formats.json",
    "annotations.json",
    "clustering.json",
    "refinement_audit.json",
    "metrics.json",
    "template.json",
)


class PassFailed(Exception):
    """An invocation whose outputs are wrong."""


@dataclass
class PassOutput:
    seconds: float
    messages: int
    records: int  # records in the pass's corpus
    emitted: int  # records the VM emitted during the pass
    reports: dict[str, bytes]
    result: Optional[pipeline.PipelineResult]


def generate(parsers, count: int, seed: int):
    """Messages, VM traces and ground truth for ``count`` messages per parser."""
    messages, traces, truths = [], [], []
    for parser in parsers:
        msgs, gts = parser.generate(count, seed)
        for msg in msgs:
            report = vm.run(parser.script, msg)
            if report.terminated is not TermReason.ACCEPT:
                raise PassFailed(f"{msg.id}: VM ended {report.terminated.name}")
            traces.append(report.trace)
        messages.extend(msgs)
        truths.extend(gts)
    return messages, traces, truths


def run_reports(corpus: Path, truth: Path, out: Path) -> PassOutput:
    """One timed ``run_pipeline`` invocation, with its report files read back."""
    config = pipeline.PipelineConfig(traces=corpus, out_dir=out, ground_truth=truth)
    start = time.perf_counter()
    result = pipeline.run_pipeline(config)
    seconds = time.perf_counter() - start
    reports = {name: (out / name).read_bytes() for name in REPORTS}
    records = sum(len(t.records) for t in result.traces.values())
    return PassOutput(seconds, len(result.messages), records, 0, reports, result)


def quality(reports: dict[str, bytes]) -> dict[str, float]:
    doc = json.loads(reports["metrics.json"])
    return {
        "boundary_perfection": doc["format"]["perfection"],
        "format_f1": doc["format"]["f1"],
        "type_f1": doc["semantics"]["type"]["f1"],
        "function_f1": doc["semantics"]["function"]["f1"],
    }


class CorpusWorkload:
    """``run_pipeline`` over prebuilt mixed corpora, one corpus per pass.

    Set-up writes one corpus per seed (traces and ground truth in one file,
    as the README workflow does); passes cycle through them, so pass ``k``
    is compared with the first pass on the same corpus.
    """

    def __init__(self, count: int, seeds: list[int]) -> None:
        self.count = count
        self.seeds = seeds

    def key(self, k: int) -> int:
        return k % len(self.seeds)

    def build(self, work: Path) -> dict[str, int]:
        records = 0
        for i, seed in enumerate(self.seeds):
            messages, traces, truths = generate(bundled_parsers(), self.count, seed)
            records += sum(len(t.records) for t in traces)
            text = traceio.serialize_corpus(messages, traces)
            (work / f"corpus{i}.fl").write_text(
                text + serialize_ground_truth(truths), encoding="utf-8"
            )
        return {"vm.records_emitted": records}

    def run_pass(self, work: Path, k: int) -> PassOutput:
        corpus = work / f"corpus{self.key(k)}.fl"
        return run_reports(corpus, corpus, work / f"reports{self.key(k)}")

    def pipeline_pass(self, work: Path, k: int, out: PassOutput) -> PassOutput:
        return out


class TracegenWorkload:
    """One parser's traces generated, serialized and read back per pass.

    The round trip must reproduce the messages and records.  Quality is
    scored by ``run_pipeline``, outside the timed pass, on a corpus of the
    first ``slice_count`` messages that set-up writes.
    """

    def __init__(self, count: int, seed: int, slice_count: int) -> None:
        self.parser = next(p for p in bundled_parsers() if p.name == "binary-frame")
        self.count = count
        self.seed = seed
        self.slice_count = slice_count

    def key(self, k: int) -> int:
        return 0

    def build(self, work: Path) -> dict[str, int]:
        # the generator is sequential, so these are the pass's first messages
        messages, traces, truths = generate([self.parser], self.slice_count, self.seed)
        text = traceio.serialize_corpus(messages, traces)
        (work / "slice.fl").write_text(
            text + serialize_ground_truth(truths), encoding="utf-8"
        )
        return {"vm.records_emitted": sum(len(t.records) for t in traces)}

    def run_pass(self, work: Path, k: int) -> PassOutput:
        path = work / "traces.fl"
        start = time.perf_counter()
        messages, traces, _ = generate([self.parser], self.count, self.seed)
        path.write_text(traceio.serialize_corpus(messages, traces), encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            loaded = traceio.load_corpus_stream(fh)
        seconds = time.perf_counter() - start
        if loaded != (messages, traces):
            raise PassFailed("trace round trip changed the messages or records")
        records = sum(len(t.records) for t in traces)
        reports = {"traces.fl": path.read_bytes()}
        return PassOutput(seconds, len(messages), records, records, reports, None)

    def pipeline_pass(self, work: Path, k: int, out: PassOutput) -> PassOutput:
        corpus = work / "slice.fl"
        return run_reports(corpus, corpus, work / "slice_reports")


@dataclass(frozen=True)
class Sizes:
    mixed_count: int  # messages per parser in corpus-mixed-400
    batch_count: int  # messages per parser in one batches-20 corpus
    batch_corpora: int
    tracegen_count: int
    tracegen_slice: int


FULL = Sizes(200, 10, 8, 1600, 100)
SMOKE = Sizes(8, 4, 2, 40, 12)


def make(name: str, seed: int, sizes: Sizes, divisor: int = 1):
    """The workload ``name`` at ``1/divisor`` of its size (4 gives the quarter)."""
    if name == "corpus-mixed-400":
        return CorpusWorkload(max(1, sizes.mixed_count // divisor), [seed])
    if name == "batches-20":
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(sizes.batch_corpora)]
        return CorpusWorkload(max(1, sizes.batch_count // divisor), seeds)
    if name == "tracegen-binary-1600":
        return TracegenWorkload(
            max(1, sizes.tracegen_count // divisor),
            seed,
            max(2, sizes.tracegen_slice // divisor),
        )
    raise KeyError(name)


WORKLOADS = ("corpus-mixed-400", "batches-20", "tracegen-binary-1600")

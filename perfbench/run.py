#!/usr/bin/env python3
"""fieldlens pipeline benchmark: end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-mixed-400 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload batches-20 --seed 0 --seconds 50 --trace 1
    python3 perfbench/run.py --workload tracegen-binary-1600 --smoke --trace 0

Inputs are generated from ``--seed`` with the bundled generators and the
micro-VM.  Load is a closed loop from this one process: the next pass starts
when the previous one returns.  ``--trace 0`` times untraced passes for
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes (plus traced passes at a
quarter of the size) and reports the per-layer metrics.  ``--smoke`` shrinks
every input to a few messages.  Each metric is printed on its own line with
its unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``perfbench/layers.json`` maps each per-layer
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 7
KERNEL_PAIRS = 5000
QUALITY_FLOOR = 0.95
CHILD_TIMEOUT_S = 150
# Passes shorter than this fit inside the shared host's fast periods.
SHORT_PASS_S = 1.0

# stage name -> per-layer metric stem; each also gets a ``<stage>.growth``
STAGES = {
    "traceio.load": "traceio.load_s",
    "traceio.serialize": "traceio.serialize_s",
    "vm.run": "vm.run_s",
    "extraction.extract": "extraction.extract_s",
    "alignment": "alignment.s",
    "detectors.annotate": "detectors.annotate_s",
    "refinement.cluster_search": "refinement.cluster_search_s",
    "refinement.entropy": "refinement.entropy_s",
    "refinement.constraint": "refinement.constraint_s",
    "evaluation.load_truth": "evaluation.load_truth_s",
    "evaluation.score": "evaluation.score_s",
    "fuzz_template.export": "fuzz_template.export_s",
    "pipeline.self": "pipeline.self_s",
}


def import_program():
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not (SRC / "fieldlens" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fieldlens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fieldlens

    if Path(fieldlens.__file__).resolve().parent != SRC / "fieldlens":
        sys.exit(f"perfbench: imported fieldlens from {fieldlens.__file__}, not {SRC}")


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def dir_digest(path: Path) -> str:
    return digest({p.name: p.read_bytes() for p in path.iterdir() if p.is_file()})


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """Attempted and failed invocations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def invoke(self, fn, *args):
        """Call one invocation; a raise counts as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failing invocation is measured, not fatal
            self.failed += 1
            log("invocation failed:\n" + traceback.format_exc())
            return None

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")
        return ok


def child(args, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and that percentile.

    With fewer than eleven values no such percentile exists; the maximum
    (percentile 100) stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, weighted by the Beta((n+1)/2,
    (n+1)/2) density over each one's share of [0, 1].  With the few passes a
    run has of a long pass, the sample median jumps from one pass to the
    next as their order changes; the Harrell-Davis median moves smoothly.
    """
    xs = sorted(values)
    n, steps = len(xs), 16
    e = (n - 1) / 2  # both exponents of the Beta density
    weights = []
    for i in range(n):  # midpoint rule, log density relative to its peak
        weights.append(sum(
            math.exp(e * (math.log(2 * t) + math.log(2 - 2 * t)))
            for t in ((i + (j + 0.5) / steps) / n for j in range(steps))
        ))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def corpus_seconds(times: list[float]) -> float:
    """One corpus's pass time from its repeats in the run.

    A shared host runs in short fast periods between longer slow ones.  A
    short pass can run wholly inside a fast period, so its best repeat is a
    steady measure of it; a long pass always straddles both, and its best
    repeat depends on how long the fast periods of that run happened to
    last, so its median is the steadier measure.
    """
    if statistics.median(times) < SHORT_PASS_S:
        return min(times)
    return hd_median(times)


class Setups:
    """Fresh-process set-ups of the workload's inputs, spread over the run.

    Machine speed on a shared host drifts over seconds, so set-ups taken
    back to back all land in one speed regime; spreading them evenly over
    the measurement window and taking their median averages over it.
    """

    def __init__(self, args, work: Path, run: Run) -> None:
        self.args, self.work, self.run = args, work, run
        self.times: list[float] = []
        self.digests: set[str] = set()

    def once(self) -> Path:
        target = self.work / f"setup{len(self.times)}"
        target.mkdir()
        start = time.perf_counter()
        proc = child(self.args, "--child", "setup", "--dir", str(target))
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed\n{proc.stderr}")
        self.digests.add(dir_digest(target))
        if len(self.digests) != 1:
            self.run.correct = False
            log("set-up is not deterministic")
        if len(self.times) > 1:
            shutil.rmtree(target)
        return target

    def due(self, start: float) -> bool:
        """Whether the next set-up's evenly spaced slot in the window has come."""
        slot = start + len(self.times) * self.args.seconds / SETUP_REPEATS
        return len(self.times) < SETUP_REPEATS and time.perf_counter() >= slot


def end_to_end(args, workloads, sizes, work: Path, run: Run) -> dict[str, float]:
    setups = Setups(args, work, run)
    start = time.perf_counter()
    inputs = setups.once()

    wl = workloads.make(args.workload, args.seed, sizes)
    refs: dict[int, str] = {}  # report digest of the first pass on each corpus
    scored: dict[int, dict[str, bytes]] = {}
    samples: defaultdict[int, list[float]] = defaultdict(list)  # per corpus
    messages: dict[int, int] = {}  # messages in one pass, per corpus
    rss_mb = 0.0
    deadline = start + args.seconds
    # Pass 0 runs in a fresh process, as `fieldlens run` does; it gives peak RSS.
    proc = child(args, "--child", "pass", "--dir", str(inputs))
    run.attempted += 1
    if run.expect(proc.returncode == 0, f"fresh-process pass failed\n{proc.stderr}"):
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        rss_mb = doc["maxrss_kb"] / 1024
        refs[wl.key(0)] = doc["digest"]
        samples[wl.key(0)].append(doc["seconds"])
        messages[wl.key(0)] = doc["messages"]
    k = 1
    while k == 1 or time.perf_counter() < deadline:
        if setups.due(start):
            setups.once()
        gc.collect()  # each pass starts from the same collector state
        out = run.invoke(wl.run_pass, inputs, k)
        if out is not None:
            got = digest(out.reports)
            if run.expect(refs.setdefault(wl.key(k), got) == got,
                          f"pass {k} reports differ from the first pass on its corpus"):
                samples[wl.key(k)].append(out.seconds)
                messages[wl.key(k)] = out.messages
                scored.setdefault(wl.key(k), out.reports)
        k += 1
    if not scored:
        sys.exit("perfbench: every in-process pass failed")
    while len(setups.times) < SETUP_REPEATS:
        setups.once()

    if isinstance(wl, workloads.TracegenWorkload):
        out = run.invoke(wl.pipeline_pass, inputs, 0, None)
        reports = [out.reports] if out is not None else []
    else:
        reports = list(scored.values())
    qualities = [workloads.quality(r) for r in reports]
    quality = {
        name: statistics.fmean(q[name] for q in qualities) for name in qualities[0]
    } if qualities else {}
    for name, value in quality.items():
        if value < QUALITY_FLOOR:
            run.correct = False
            log(f"{name} = {value} is below {QUALITY_FLOOR}")

    # The tail of the raw passes is dominated by the machine's slow periods,
    # so it is printed but not reported as a metric.
    per_corpus = {key: corpus_seconds(times) for key, times in samples.items()}
    passes = [t for times in samples.values() for t in times]
    tail_s, tail_pct = tail(passes)
    print(f"# {len(passes)} passes over {len(samples)} corpora, "
          f"min {min(passes):.4f} s, median {statistics.median(passes):.4f} s, "
          f"max {max(passes):.4f} s")
    print(f"# {len(setups.times)} set-ups, min {min(setups.times):.4f} s, "
          f"median {statistics.median(setups.times):.4f} s, max {max(setups.times):.4f} s")
    print(f"{args.workload:22} {'run_tail_s':38} {tail_s:.6g} s "
          f"(p{tail_pct:.1f} of {len(passes)} passes)")
    print(f"{args.workload:22} {'error_rate':38} {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} invocations failed)")
    return {
        # one pass over every corpus of the workload
        "msgs_per_s": sum(messages[key] for key in per_corpus) / sum(per_corpus.values()),
        "run_p50_s": statistics.median(per_corpus.values()),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups.times),
        **quality,
    }


def base_counters(result) -> dict[str, float]:
    """Counters derived from a run's data with public functions.

    They do not depend on how the stages are implemented, so ratios built
    on them stay comparable across versions of the algorithms.
    """
    from fieldlens.extraction import intra_instruction_candidates, resolve_overlaps

    messages = list(result.messages.values())
    formats = result.formats
    candidates = sum(
        len(resolve_overlaps(intra_instruction_candidates(m, result.traces[m.id])))
        for m in messages
    )
    fields = sum(len(formats[m.id].fields) for m in messages)
    ranges = sorted({(f.start, f.end) for fmt in formats.values() for f in fmt.fields})
    requested, distinct = 0, set()
    for start, end in ranges:
        groups = defaultdict(Counter)
        for m in messages:
            groups[m.data[start:end + 1]][formats[m.id].boundaries] += 1
        for tuples in groups.values():
            size = sum(tuples.values())
            requested += size * (size - 1) // 2
            keys = sorted(tuples)
            for i, a in enumerate(keys):
                distinct.update((a, b) for b in keys[i:] if a != b or tuples[a] > 1)
    clusters = result.clustering.clusters
    return {
        "extraction.candidates": candidates,
        "extraction.fields": fields,
        "extraction.merges": candidates - fields,
        "detectors.fields": sum(len(a) for a in result.annotations.values()),
        "refinement.candidate_ranges": len(ranges),
        "refinement.pairs_requested": requested,
        "refinement.pairs_distinct": len(distinct),
        "refinement.clusters": len(clusters),
        "refinement.singleton_clusters": sum(1 for _, ids in clusters if len(ids) == 1),
        "refinement.audit_events": len(result.audit),
    }


def kernel_cells_per_s(seed: int, pairs: int) -> float:
    """DP cells per second of the active kernel on ``bench_alignment``'s pairs."""
    spec = importlib.util.spec_from_file_location(
        "bench_alignment", ROOT / "benchmarks" / "bench_alignment.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    kernel = (bench._nwkernel or bench._nwpure).align_score
    data = bench.make_pairs(pairs, 24, 8, random.Random(seed))
    seconds, _ = bench.bench(kernel, data)
    return sum(len(a) * len(b) for a, b in data) / seconds


def traced_pass(wl, work: Path, k: int):
    """One pass plus, where the pass is not a pipeline run, the scoring run."""
    out = wl.run_pass(work, k)
    return out, wl.pipeline_pass(work, k, out)


def pair_seconds(pair) -> float:
    out, scored = pair
    return out.seconds + (scored.seconds if scored is not out else 0.0)


def pair_digest(pair) -> str:
    out, scored = pair
    return digest({**out.reports, **scored.reports})


def stage_seconds(setup_tracer, tracer) -> dict[str, float]:
    totals = Counter(setup_tracer.totals()) + Counter(tracer.totals())
    seconds = {stage: totals.get(stage, 0.0) for stage in STAGES}
    seconds["alignment"] = tracer.seconds["alignment"]
    seconds["pipeline.self"] = tracer.self_times().get("pipeline.run", 0.0)
    return seconds


def per_layer(args, workloads, sizes, work: Path, run: Run) -> dict[str, float]:
    full_wl = workloads.make(args.workload, args.seed, sizes)
    quarter_wl = workloads.make(args.workload, args.seed, sizes, divisor=4)
    full, quarter = work / "full", work / "quarter"
    full.mkdir()
    quarter.mkdir()
    with Tracer() as setup_tracer:
        setup_counts = full_wl.build(full)
    with Tracer() as quarter_setup_tracer:
        quarter_wl.build(quarter)

    untraced_s, traced_s, full_stages, quarter_stages = [], [], [], []
    shares, first = [], None
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        plain = run.invoke(traced_pass, full_wl, full, k)
        with Tracer() as tracer:
            traced = run.invoke(traced_pass, full_wl, full, k)
        with Tracer() as quarter_tracer:
            run.invoke(traced_pass, quarter_wl, quarter, k)
        k += 1
        if plain is None or traced is None:
            continue
        if not run.expect(pair_digest(traced) == pair_digest(plain),
                          f"traced pass {k - 1} reports differ from untraced"):
            continue
        untraced_s.append(pair_seconds(plain))
        traced_s.append(pair_seconds(traced))
        full_stages.append(stage_seconds(setup_tracer, tracer))
        quarter_stages.append(stage_seconds(quarter_setup_tracer, quarter_tracer))
        totals = tracer.totals()
        shares.append(totals["refinement.cluster_search"] / totals["pipeline.run"])
        if first is None:
            first = (traced, tracer)
            print(f"# report digest untraced={pair_digest(plain)} "
                  f"traced={pair_digest(traced)}")
    if first is None:
        sys.exit("perfbench: every traced pass failed")

    (out, scored), tracer = first
    metrics: dict[str, float] = {}
    ratio = full_wl.count / quarter_wl.count
    for stage, name in STAGES.items():
        full_t = statistics.median(s[stage] for s in full_stages)
        quarter_t = statistics.median(s[stage] for s in quarter_stages)
        metrics[name] = full_t
        metrics[f"{stage}.growth"] = math.log(full_t / quarter_t) / math.log(ratio)
    counters = base_counters(scored.result)
    metrics.update(counters)
    metrics["traceio.records"] = out.records
    metrics["vm.records_emitted"] = setup_counts["vm.records_emitted"] + out.emitted
    metrics["alignment.calls"] = tracer.calls["alignment"]
    metrics["alignment.calls_per_pair_requested"] = (
        tracer.calls["alignment"] / counters["refinement.pairs_requested"]
    )
    metrics["alignment.kernel_cells_per_s"] = kernel_cells_per_s(
        args.seed, 50 if args.smoke else KERNEL_PAIRS
    )
    metrics["refinement.cluster_search_share"] = statistics.median(shares)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)

    self_times = tracer.self_times()
    top = max(self_times, key=self_times.get)
    print(f"# {len(traced_s)} traced passes; largest self time: {top} "
          f"{self_times[top]:.4f} s; cluster search is "
          f"{metrics['refinement.cluster_search_share']:.1%} of the traced pipeline run; "
          f"error_rate {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    return metrics


def run_child(args, workloads, sizes) -> None:
    wl = workloads.make(args.workload, args.seed, sizes)
    work = Path(args.dir)
    if args.child == "setup":
        wl.build(work)
        return
    out = wl.run_pass(work, 0)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "digest": digest(out.reports),
                      "seconds": out.seconds, "messages": out.messages}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    ap.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.child:
        run_child(args, workloads, sizes)
        return 0

    declared = spec["per_layer" if args.trace else "end_to_end"]
    run = Run()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(args, workloads, sizes, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:22} {m['name']:38} {value:.6g} {m['unit']}")
    correct = run.correct and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``generate-traces``, ``extract``, ``infer``, ``refine``,
``score``, ``run`` (full pipeline), ``export-template``, ``list-rules``.
Reports are machine-readable JSON; ``score`` and ``run`` also print a short
summary table.  The exit status is nonzero only for integrity or usage
errors, never for metric values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .detectors import RULE_IDS, RULES
from .fuzz_template import export_fuzz_template
from .model import ModelError, traces_by_id
from .pipeline import (
    PipelineConfig,
    infer_corpus,
    read_ground_truth,
    read_inputs,
    refine_corpus,
    run_pipeline,
    score_corpus,
)
from .reports import (
    annotated_formats,
    annotations_from_doc,
    annotations_to_doc,
    audit_to_doc,
    check_covers,
    clustering_to_dict,
    formats_to_doc,
    read_json,
    write_json,
    write_text,
)
from .traceio import IntegrityError, ParseError, serialize_corpus, serialize_ground_truth
from .vm import ScriptError, TermReason, bundled_parsers, parse_script, run as vm_run
from .vm.machine import DEFAULT_STEP_BUDGET


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return value


def _add_refine_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("refinement toggles")
    g.add_argument("--no-clustering", action="store_true",
                   help="skip format-based clustering (command search)")
    g.add_argument("--no-entropy", action="store_true",
                   help="skip entropy-based type refinement")
    g.add_argument("--no-constraints", action="store_true",
                   help="skip type/function constraint refinement")


def _ran_out(msg_id: str, budget: int) -> int:
    print(f"error: {msg_id} ran out of its step budget (--step-budget {budget})",
          file=sys.stderr)
    return 2


def _cmd_generate(args) -> int:
    out = Path(args.out)
    if args.script:
        if not args.corpus:
            print("error: --script requires --corpus", file=sys.stderr)
            return 2
        path = Path(args.script)
        raw = path.read_bytes()
        try:
            script = parse_script(raw.decode("utf-8"), path.stem)
        except UnicodeDecodeError as exc:
            line_no = raw.count(b"\n", 0, exc.start) + 1
            print(f"error: {path}: line {line_no}: not UTF-8 text ({exc.reason})",
                  file=sys.stderr)
            return 2
        except ScriptError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        corpus = Path(args.corpus)
        messages, _, truths = read_inputs(corpus, corpus if args.with_ground_truth else None)
        pairs = [(script, msg) for msg in messages]
        all_truths = [] if truths is None else [(m.id, truths[m.id]) for m in messages]
    else:
        chosen = [
            p for p in bundled_parsers() if args.parser in ("all", p.name)
        ]
        if not chosen:
            names = ", ".join(p.name for p in bundled_parsers())
            print(f"error: unknown parser {args.parser!r}; bundled: {names}", file=sys.stderr)
            return 2
        pairs, all_truths = [], []
        for parser in chosen:
            messages, truths = parser.generate(args.count, args.seed)
            pairs.extend((parser.script, msg) for msg in messages)
            all_truths.extend(truths)
    all_messages, all_traces = [], []
    for script, msg in pairs:
        report = vm_run(script, msg, args.step_budget)
        if report.terminated is TermReason.STEP_LIMIT:
            return _ran_out(msg.id, args.step_budget)
        if report.terminated is not TermReason.ACCEPT:
            if not args.script:
                print(f"generator bug: {msg.id} -> {report.terminated.name}", file=sys.stderr)
                return 2
            print(f"{msg.id}: {report.terminated.name}", file=sys.stderr)
        all_messages.append(msg)
        all_traces.append(report.trace)
    text = serialize_corpus(all_messages, all_traces)
    if args.with_ground_truth:
        text += serialize_ground_truth(all_truths)
    write_text(out, text)
    print(f"wrote {len(all_messages)} messages and traces to {out}")
    return 0


def _cmd_extract(args) -> int:
    messages, shapes, _ = read_inputs(Path(args.traces))
    formats, _ = infer_corpus(shapes, args.baseline)
    write_json(Path(args.out), formats_to_doc(messages, formats))
    print(f"extracted {len(messages)} formats -> {args.out}")
    return 0


def _cmd_infer(args) -> int:
    messages, shapes, _ = read_inputs(Path(args.traces))
    disabled = frozenset(args.disable_rule or ())
    _, annotations = infer_corpus(shapes, args.baseline, disabled)
    write_json(Path(args.out), annotations_to_doc(annotations))
    print(f"annotated {len(messages)} messages -> {args.out}")
    return 0


def _cmd_refine(args) -> int:
    messages, _, _ = read_inputs(Path(args.traces))
    annotations = read_json(Path(args.annotations), annotations_from_doc)
    formats = check_covers({m.id: len(m) for m in messages}, args.annotations, annotations)
    clustering, refined, events = refine_corpus(
        messages,
        formats,
        annotations,
        not args.no_clustering,
        not args.no_entropy,
        not args.no_constraints,
    )
    write_json(Path(args.out), annotations_to_doc(refined))
    write_json(Path(args.audit), audit_to_doc(events))
    write_json(Path(args.clusters), clustering_to_dict(clustering))
    covered = sum(len(e.messages) for e in events)
    print(
        f"refined {len(messages)} messages -> {args.out} "
        f"({len(events)} audit decisions covering {covered} per-message events)"
    )
    return 0


def _summary_table(doc: dict) -> str:
    fmt = doc["format"]
    sem = doc["semantics"]
    lines = [
        f"{'':14}{'Acc.':>8}{'F1':>8}{'Perf.':>8}",
        f"{'format':14}{fmt['accuracy']:>8.2f}{fmt['f1']:>8.2f}{fmt['perfection']:>8.2f}",
        "",
        f"{'':14}{'Pre.':>8}{'Rec.':>8}{'F1':>8}",
        f"{'types':14}{sem['type']['precision']:>8.2f}{sem['type']['recall']:>8.2f}{sem['type']['f1']:>8.2f}",
        f"{'functions':14}{sem['function']['precision']:>8.2f}{sem['function']['recall']:>8.2f}{sem['function']['f1']:>8.2f}",
        "",
        f"segmentation errors: over={doc['segmentation_errors']['over']} "
        f"under={doc['segmentation_errors']['under']}",
    ]
    return "\n".join(lines)


def _cmd_score(args) -> int:
    annotations = read_json(Path(args.annotations), annotations_from_doc)
    formats = annotated_formats(args.annotations, annotations)
    truths = read_ground_truth(Path(args.ground_truth))
    check_covers({mid: f.length for mid, f in formats.items()}, args.ground_truth, truths)
    report = score_corpus(formats, annotations, truths)
    doc = report.to_dict()
    write_json(Path(args.out), doc)
    print(_summary_table(doc))
    return 0


def _cmd_run(args) -> int:
    config = PipelineConfig(
        traces=Path(args.traces),
        out_dir=Path(args.out_dir),
        ground_truth=Path(args.ground_truth) if args.ground_truth else None,
        baseline=args.baseline,
        clustering_enabled=not args.no_clustering,
        entropy_enabled=not args.no_entropy,
        constraints_enabled=not args.no_constraints,
        disabled_rules=frozenset(args.disable_rule or ()),
    )
    result = run_pipeline(config)
    print(f"pipeline reports written to {args.out_dir}")
    if result.metrics is not None:
        print(_summary_table(result.metrics.to_dict()))
    return 0


def _cmd_export_template(args) -> int:
    messages, shapes, _ = read_inputs(Path(args.traces))
    annotations = read_json(Path(args.annotations), annotations_from_doc)
    check_covers({m.id: len(m) for m in messages}, args.annotations, annotations)
    traces = traces_by_id(shapes)
    export_fuzz_template(annotations, {m.id: m for m in messages}, traces, Path(args.out))
    print(f"template -> {args.out}")
    return 0


def _cmd_list_rules(args) -> int:
    width = max(len(rule_id) for rule_id, _ in RULES)
    for rule_id, summary in RULES:
        print(f"{rule_id:<{width}}  {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fieldlens",
        description="Field format and semantics inference from taint traces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-traces", help="run a parser over messages, emit a trace file")
    p.add_argument("--parser", default="all", help="bundled parser name or 'all'")
    p.add_argument("--count", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--script", help="custom parser script to run instead")
    p.add_argument("--corpus", help="existing corpus file (with --script)")
    p.add_argument("--with-ground-truth", action="store_true")
    p.add_argument("--step-budget", type=_count, default=DEFAULT_STEP_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("extract", help="extract field formats from traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--baseline", action="store_true",
                   help="per-instruction candidates only, no similarity merging")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("infer", help="extract formats and run semantic detectors")
    p.add_argument("--traces", required=True)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--disable-rule", action="append", choices=RULE_IDS,
                   metavar="RULE_ID", help="a rule id that list-rules prints")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("refine", help="cluster and refine annotations")
    p.add_argument("--traces", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--audit", default="refinement_audit.json")
    p.add_argument("--clusters", default="clustering.json")
    _add_refine_flags(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("score", help="score annotations against ground truth")
    p.add_argument("--annotations", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("run", help="full pipeline: extract, infer, refine, score")
    p.add_argument("--traces", required=True)
    p.add_argument("--ground-truth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--disable-rule", action="append", choices=RULE_IDS,
                   metavar="RULE_ID", help="a rule id that list-rules prints")
    _add_refine_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("export-template", help="write a fuzzer template from annotations")
    p.add_argument("--traces", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_template)

    p = sub.add_parser("list-rules", help="enumerate the semantic detector rules")
    p.set_defaults(func=_cmd_list_rules)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, IntegrityError, ModelError, ScriptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

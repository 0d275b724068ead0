"""Field boundary extraction from taint traces.

Two extractors share the candidate stage:

* ``extract_format`` merges adjacent candidates whose operator sequences are
  similar under global alignment (the similarity-guided extractor).
* ``extract_format_baseline`` keeps the raw per-instruction candidates, i.e.
  the classic one-instruction-one-field strategy, for comparison runs.

A corpus holds few distinct operator sequences, so merge verdicts are kept
in a memo keyed by the pair of sequences.  ``pipeline.infer_corpus``
extracts once per shape and shares one memo across the shapes of one call,
so each distinct pair is aligned once per call; ``extract_format`` called on
its own uses a fresh memo.  Nothing is kept between calls.
"""

from __future__ import annotations

from .alignment import semantic_similar
from .model import (
    ExecutionTrace,
    Field,
    FormatResult,
    Message,
    operator_sequence,
)


def intra_instruction_candidates(
    message: Message, trace: ExecutionTrace
) -> list[Field]:
    """Per-instruction field candidates, deduplicated and sorted by offset.

    Each run of offsets an instruction read directly from the message buffer
    (``rec.reads``) becomes a candidate.  Register-only taint (an
    accumulator that has absorbed many byte labels, or the union across the
    two sides of a comparison) deliberately does not spawn candidates: such
    unions span unrelated fields.  Bytes covered by no candidate become
    single-byte candidates, flagged unaccessed when no instruction touched
    them at all.
    """
    reads = dict.fromkeys(run for rec in trace.records for run in rec.reads)
    candidates = [Field(start, end) for start, end in reads]

    covered = [False] * len(message)
    for f in candidates:
        for o in f.offsets:
            covered[o] = True
    for o in range(len(message)):
        if not covered[o]:
            candidates.append(Field(o, o, accessed=o in trace.by_offset))

    candidates.sort(key=lambda f: (f.start, f.end))
    return candidates


def resolve_overlaps(candidates: list[Field]) -> list[Field]:
    """Merge any candidates whose byte ranges overlap into their union.

    The similarity pass assumes disjoint sorted candidates; overlapping reads
    (a word load over bytes a two-byte field shares with per-byte loads) are
    collapsed first.
    """
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda f: (f.start, f.end))
    merged: list[Field] = [ordered[0]]
    for nxt in ordered[1:]:
        cur = merged[-1]
        if nxt.start <= cur.end:
            merged[-1] = Field(
                cur.start, max(cur.end, nxt.end), accessed=cur.accessed or nxt.accessed
            )
        else:
            merged.append(nxt)
    return merged


#: (ops_left, ops_right) -> merge verdict
MergeMemo = dict[tuple[tuple[str, ...], tuple[str, ...]], bool]


def _mergeable(
    left: Field,
    right: Field,
    ops_left: tuple[str, ...],
    ops_right: tuple[str, ...],
    memo: MergeMemo,
) -> bool:
    # Unaccessed ranges coalesce with each other but never with parsed data.
    # An accessed range has operators: some record touched it.
    if not left.accessed and not right.accessed:
        return True
    if left.accessed != right.accessed:
        return False
    key = (ops_left, ops_right)
    merge = memo.get(key)
    if merge is None:
        merge = memo[key] = semantic_similar(ops_left, ops_right).merge
    return merge


def _coalesce(
    trace: ExecutionTrace,
    candidates: list[Field],
    memo: MergeMemo,
) -> list[Field]:
    """Single left-to-right pass: group adjacent similar candidates."""
    ops = [operator_sequence(trace, c) for c in candidates]
    groups: list[list[Field]] = [[candidates[0]]]
    for i, nxt in enumerate(candidates[1:], 1):
        if _mergeable(candidates[i - 1], nxt, ops[i - 1], ops[i], memo):
            groups[-1].append(nxt)
        else:
            groups.append([nxt])
    return [
        Field(g[0].start, g[-1].end, accessed=any(f.accessed for f in g))
        for g in groups
    ]


def extract_format(
    message: Message,
    trace: ExecutionTrace,
    *,
    memo: MergeMemo | None = None,
) -> FormatResult:
    """Similarity-guided format extraction: candidates, then adjacent merging.

    ``memo`` holds merge verdicts already decided; it defaults to a fresh
    one."""
    candidates = resolve_overlaps(intra_instruction_candidates(message, trace))
    fields = _coalesce(trace, candidates, {} if memo is None else memo)
    return FormatResult(message.id, len(message), tuple(fields))


def extract_format_baseline(message: Message, trace: ExecutionTrace) -> FormatResult:
    """Classic strategy: the per-instruction candidates become the fields."""
    candidates = resolve_overlaps(intra_instruction_candidates(message, trace))
    return FormatResult(message.id, len(message), tuple(candidates))

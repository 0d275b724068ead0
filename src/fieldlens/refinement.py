"""Cluster-and-refine stage: command-position search, entropy checks, constraints.

Messages are clustered by the value of a candidate command field; the
candidate whose clusters have the most internally similar formats (average
boundary-alignment score over within-cluster message pairs, weighted by pair
count) wins.  Candidates are scored over distinct boundary-tuple pairs: each
is aligned once per search and weighted by how many message pairs it stands
for, which gives the same score as aligning every message pair; a
one-message value group holds no pair, so it is skipped.  Within each
cluster, Shannon entropy of the values seen at each field range validates or
revokes the extreme-entropy types (static, bytes) and donates types to
unknown fields.  Finally, function labels that contradict the field's final
type are dropped.

Messages of one format hold equal annotations, so the revocation, command
and constraint steps run through one per-annotation walk, ``_refine_each``:
it builds each distinct annotation's result once (keyed by value; for
revocation, per cluster; the command and constraint steps in one walk) and
every message that holds an equal annotation gets that one result.  Equal
annotations give equal reports, since ``Field`` equality includes
``accessed``, and an annotation is a tuple, so the memo hashes it in C.
The entropy fallback depends on the message's other fields, so it runs per
message.  The memo lives for one call.

The audit logs each decision once, with the sorted ids of the messages it
applies to: each step maps a logged ``(field, action, label, reason[,
entropy, median])`` tuple to its ids, and ``_decisions`` turns that map into
events.  Events come by step (skip and revocation, entropy fallback,
command position, constraint sweep) and within a step by ``(field, action,
label)``; a message logs at most one event per ``(field, action, label)``
in a step, so the events that name a message, in order, are the ones it
would log alone, in field order.
"""

from __future__ import annotations

import math
import operator
import statistics
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Mapping, Optional, Sequence

from .alignment import nw_format_score
from .detectors import Evidence, FieldAnnotation, SemanticFunction, SemanticType
from .model import FormatResult, Message

#: Allowed field types per semantic function.
CONSTRAINT_TABLE: dict[SemanticFunction, frozenset[SemanticType]] = {
    SemanticFunction.COMMAND: frozenset({SemanticType.GROUP}),
    SemanticFunction.LENGTH: frozenset({SemanticType.INTEGER}),
    SemanticFunction.DELIM: frozenset({SemanticType.STATIC, SemanticType.GROUP}),
    SemanticFunction.ALIGNED: frozenset({SemanticType.GROUP, SemanticType.BYTES}),
    SemanticFunction.CHECKSUM: frozenset({SemanticType.INTEGER}),
    SemanticFunction.FILENAME: frozenset({SemanticType.STRING}),
}

#: entropy refinement keeps a label only when ``keeps(entropy, median)``
REVOCATIONS: dict[SemanticType, tuple[Callable[[float, float], bool], str]] = {
    SemanticType.STATIC: (operator.lt, "entropy not below cluster median"),
    SemanticType.BYTES: (operator.gt, "entropy not above cluster median"),
}

#: the event every single-message cluster logs in entropy refinement
SKIP = ((-1, -1), "skip", "-", "single-message cluster: entropy refinement skipped")

Range = tuple[int, int]
Boundaries = tuple[int, ...]


@dataclass(frozen=True)
class Clustering:
    """Result of the command-position search.

    ``command_pos`` is None for degenerate corpora (fewer than two messages,
    or no candidate achieved a positive alignment score); then all messages
    sit in one cluster.
    """

    command_pos: Optional[Range]
    clusters: tuple[tuple[bytes, tuple[str, ...]], ...]
    align_score: float

    @property
    def degenerate(self) -> bool:
        return self.command_pos is None


@dataclass(frozen=True)
class RefinementEvent:
    """One audit decision: a label added, revoked, dropped or assigned, or a
    cluster skipped, and the sorted ids of the messages it applies to."""

    messages: tuple[str, ...]
    field: Range
    action: str  # revoke-type | assign-type | add-function | drop-function | skip
    label: str
    reason: str
    entropy: Optional[float] = None
    median: Optional[float] = None


def shannon_entropy(values: Sequence[bytes]) -> float:
    """Shannon entropy in bits of the value multiset, frequencies as P(v)."""
    if not values:
        return 0.0
    counts = Counter(values)
    total = len(values)
    # 0.0 - sum, not -sum: a single value has entropy 0.0, not -0.0
    return 0.0 - sum((c / total) * math.log2(c / total) for c in counts.values())


def _align_score(
    groups: Mapping[bytes, list[str]],
    boundaries: Mapping[str, Boundaries],
    memo: dict[tuple[Boundaries, Boundaries], int],
) -> float:
    # Messages with equal boundary tuples score alike, so each distinct
    # (a <= b) tuple pair is aligned once and weighted by how many message
    # pairs it stands for.  The NW score is symmetric and integral, so the
    # weighted sum equals the all-pairs sum exactly.
    total = 0
    pairs = 0
    for ids in groups.values():
        if len(ids) < 2:
            continue  # no pair to score
        counts = Counter(boundaries[mid] for mid in ids)
        for a, b in combinations_with_replacement(sorted(counts), 2):
            if a == b:
                weight = counts[a] * (counts[a] - 1) // 2
            else:
                weight = counts[a] * counts[b]
            if weight:
                if (a, b) not in memo:
                    memo[(a, b)] = nw_format_score(a, b)
                total += weight * memo[(a, b)]
        pairs += len(ids) * (len(ids) - 1) // 2
    return total / pairs if pairs else 0.0


def single_cluster(messages: Sequence[Message]) -> Clustering:
    """All messages in one cluster: the degenerate search result, and the
    clustering used when the clustering stage is disabled."""
    return Clustering(None, ((b"", tuple(m.id for m in messages)),), 0.0)


def explore_optimal(
    messages: Sequence[Message],
    formats: Mapping[str, FormatResult],
) -> Clustering:
    """Search every boundary-delimited range for the best clustering basis,
    taking candidate ranges and boundary tuples once per distinct format."""
    distinct: dict[FormatResult, Boundaries] = {}
    boundaries = {}
    for m in messages:
        fmt = formats[m.id]
        if (found := distinct.get(fmt)) is None:
            found = distinct[fmt] = fmt.boundaries
        boundaries[m.id] = found
    candidates = sorted({(f.start, f.end) for fmt in distinct for f in fmt.fields})

    best_score = 0.0
    best_pos: Optional[Range] = None
    best_groups: dict[bytes, list[str]] = {}
    memo: dict[tuple[Boundaries, Boundaries], int] = {}
    for rng in candidates:
        groups: dict[bytes, list[str]] = {}
        for msg in messages:
            # messages shorter than the range contribute their truncated bytes
            groups.setdefault(msg.data[rng[0] : rng[1] + 1], []).append(msg.id)
        score = _align_score(groups, boundaries, memo)
        if score > best_score:
            best_score, best_pos, best_groups = score, rng, groups

    if best_pos is None:
        return single_cluster(messages)
    clusters = tuple(
        (value, tuple(ids)) for value, ids in sorted(best_groups.items())
    )
    return Clustering(best_pos, clusters, best_score)


def cluster_entropy_profile(
    cluster_messages: Sequence[Message],
    annotations: Mapping[str, Sequence[FieldAnnotation]],
) -> tuple[dict[Range, float], float]:
    """Each field range's entropy within one cluster (bits, base 2) and
    their median."""
    ranges = sorted(
        {
            (ann.field.start, ann.field.end)
            for msg in cluster_messages
            for ann in annotations[msg.id]
        }
    )
    entropies = {
        rng: shannon_entropy(
            [m.data[rng[0] : rng[1] + 1] for m in cluster_messages if len(m.data) > rng[1]]
        )
        for rng in ranges
    }
    med = statistics.median(entropies.values()) if entropies else 0.0
    return entropies, med


def entropy_refine(
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    clustering: Clustering,
    messages: Mapping[str, Message],
) -> tuple[dict[str, tuple[FieldAnnotation, ...]], list[RefinementEvent]]:
    """Validate static/bytes labels against within-cluster value entropy.

    Static survives only strictly below the cluster median, bytes only
    strictly above (``REVOCATIONS``); fields at the median lose the label.
    Each cluster's revocations run through ``_refine_each`` over that
    cluster's messages, once per distinct annotation.  Then, message by
    message, revoked or initially unknown fields take the type of the
    same-message field with the closest entropy (ties to the smaller start
    offset).  Single-message clusters are skipped, with one ``skip`` event
    for all of them; an empty cluster logs nothing.
    """
    refined = {mid: list(anns) for mid, anns in annotations.items()}
    revoked: Log = {}  # skips and revocations
    donated: Log = {}

    for _, ids in clustering.clusters:
        if len(ids) < 2:
            for mid in ids:
                revoked.setdefault(SKIP, []).append(mid)
            continue
        cluster_msgs = [messages[mid] for mid in ids]
        h_of, med = cluster_entropy_profile(cluster_msgs, annotations)

        def revoke(ann: FieldAnnotation) -> Outcome:
            rule = REVOCATIONS.get(ann.inferred_type)
            rng = (ann.field.start, ann.field.end)
            if rule is None or rule[0](h_of[rng], med):
                return ann, ()
            logged = (rng, "revoke-type", ann.inferred_type.name, rule[1], h_of[rng], med)
            return ann._replace(inferred_type=SemanticType.UNKNOWN), (logged,)

        _refine_each({mid: refined[mid] for mid in ids}, [(revoke, revoked)])

        # entropy fallback for unknown fields, donors are typed fields
        for mid in ids:
            anns = refined[mid]
            donors = [
                (ann, h_of[(ann.field.start, ann.field.end)])
                for ann in anns
                if ann.inferred_type is not SemanticType.UNKNOWN
            ]
            if not donors:
                continue
            for idx, ann in enumerate(anns):
                if ann.inferred_type is not SemanticType.UNKNOWN:
                    continue
                rng = (ann.field.start, ann.field.end)
                h = h_of[rng]
                donor, _ = min(donors, key=lambda d: (abs(d[1] - h), d[0].field.start))
                f = donor.field
                note = f"donor field {f.start}-{f.end}"
                fallback = Evidence("refine.entropy-fallback", None, note=note)
                anns[idx] = ann._replace(
                    inferred_type=donor.inferred_type, evidence=ann.evidence + (fallback,)
                )
                logged = (
                    rng, "assign-type", donor.inferred_type.name,
                    f"closest-entropy donor {f.start}-{f.end}", h, med,
                )
                donated.setdefault(logged, []).append(mid)

    events = _decisions(revoked) + _decisions(donated)
    return {mid: tuple(anns) for mid, anns in refined.items()}, events


def constraint_refine(
    annotations: Mapping[str, Sequence[FieldAnnotation]],
    clustering: Optional[Clustering] = None,
) -> tuple[dict[str, tuple[FieldAnnotation, ...]], list[RefinementEvent]]:
    """Drop functions whose allowed-type set (``CONSTRAINT_TABLE``) excludes
    the field's final type.

    The winning command position (when clustering ran) first gains the
    COMMAND label, and GROUP when the field is still untyped; the constraint
    sweep then runs over the result.  Both steps run in one walk that
    refines each distinct annotation once, and every message that holds it
    gets the one result and is named in its events.  The sweep's verdict
    depends on the type and functions alone, so it is decided once per
    distinct such label.
    """
    refined = {mid: list(anns) for mid, anns in annotations.items()}
    commanded: Log = {}
    constrained: Log = {}
    steps: list[Step] = []

    if clustering is not None and clustering.command_pos is not None:
        pos = clustering.command_pos

        def command(ann: FieldAnnotation) -> Outcome:
            if (ann.field.start, ann.field.end) != pos:
                return ann, ()
            logged = []
            if SemanticFunction.COMMAND not in ann.inferred_functions:
                ann = ann._replace(
                    inferred_functions=ann.inferred_functions | {SemanticFunction.COMMAND},
                    evidence=ann.evidence + (Evidence("refine.cluster-command", None),),
                )
                logged.append((pos, "add-function", "COMMAND", "field is the clustering basis"))
            if ann.inferred_type is SemanticType.UNKNOWN:
                ann = ann._replace(inferred_type=SemanticType.GROUP)
                logged.append((pos, "assign-type", "GROUP", "untyped clustering basis"))
            return ann, tuple(logged)

        steps.append((command, commanded))

    verdicts: dict[tuple[SemanticType, frozenset[SemanticFunction]], Verdict] = {}

    def constrain(ann: FieldAnnotation) -> Outcome:
        label = ann.inferred_type, ann.inferred_functions
        verdict = verdicts.get(label)
        if verdict is None:
            verdict = verdicts[label] = _constraint_verdict(*label)
        bad, drops = verdict
        if not bad:
            return ann, ()
        rng = (ann.field.start, ann.field.end)
        return ann._replace(inferred_functions=ann.inferred_functions - bad), tuple(
            (rng, "drop-function", name, reason) for name, reason in drops
        )

    steps.append((constrain, constrained))
    _refine_each(refined, steps)
    events = _decisions(commanded) + _decisions(constrained)
    return {mid: tuple(anns) for mid, anns in refined.items()}, events


#: one annotation's refinement: the result, and each event it logs as
#: ``(field, action, label, reason)``, optionally followed by the field's
#: entropy and the cluster median, without the message ids
Outcome = tuple[FieldAnnotation, tuple[tuple, ...]]

#: one step's audit: each logged tuple -> the ids of the messages that log it
Log = dict[tuple, list[str]]

#: one step of ``_refine_each``: its refinement and the audit it logs to
Step = tuple[Callable[[FieldAnnotation], Outcome], Log]


#: what the constraint sweep decides for a ``(type, functions)`` label: the
#: functions it drops, and each one's name and reason, by name
Verdict = tuple[frozenset[SemanticFunction], tuple[tuple[str, str], ...]]


def _constraint_verdict(
    sem_type: SemanticType, functions: frozenset[SemanticFunction]
) -> Verdict:
    bad = frozenset(fn for fn in functions if sem_type not in CONSTRAINT_TABLE[fn])
    drops = []
    for fn in sorted(bad, key=lambda f: f.name):
        allowed = "/".join(sorted(t.name for t in CONSTRAINT_TABLE[fn]))
        drops.append((fn.name, f"requires {allowed}, field is {sem_type.name}"))
    return bad, tuple(drops)


def _refine_each(refined: dict[str, list[FieldAnnotation]], steps: Sequence[Step]) -> None:
    """Replace each annotation in ``refined`` with what ``steps`` make of
    it, each step refining the one before's result, and add the message to
    each step's log under each event that step logs.  The steps run once
    per distinct annotation, all in one walk."""
    memo: dict[FieldAnnotation, tuple[FieldAnnotation, tuple[tuple[Log, tuple], ...]]] = {}
    for mid, anns in refined.items():
        for idx, ann in enumerate(anns):
            hit = memo.get(ann)
            if hit is None:
                result, logged = ann, []
                for refine, log in steps:
                    result, entries = refine(result)
                    logged += [(log, entry) for entry in entries]
                hit = memo[ann] = result, tuple(logged)
            anns[idx], logged = hit
            for log, entry in logged:
                log.setdefault(entry, []).append(mid)


def _decisions(log: Log) -> list[RefinementEvent]:
    """One event per logged tuple, by ``(field, action, label)``, naming
    its messages in sorted order."""
    return [
        RefinementEvent(tuple(sorted(ids)), *entry)
        for entry, ids in sorted(log.items(), key=lambda item: item[0][:3])
    ]

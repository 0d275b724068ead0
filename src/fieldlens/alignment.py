"""Global sequence alignment over operator sequences and boundary sequences.

The Needleman-Wunsch score is the merge criterion for adjacent field
candidates and the format-similarity measure for message clustering.  Both
encode their tokens as integers and run the one dynamic program in
``_nwpure.align_score``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

from . import _nwpure


@dataclass(frozen=True)
class AlignmentParams:
    """Scoring constants for the alignment recurrence.

    Defaults: gap -2, match +1, mismatch -1, similarity threshold 0.8.
    """

    gap_score: int = -2
    match_score: int = 1
    mismatch_score: int = -1
    similarity_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.match_score <= self.mismatch_score:
            raise ValueError("match_score must exceed mismatch_score")
        if self.gap_score >= 0:
            raise ValueError("gap_score must be negative")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must lie in [0, 1]")


class SimilarityResult(NamedTuple):
    merge: bool
    similarity: float
    score: int


def _encode(a: Sequence[Hashable], b: Sequence[Hashable]) -> tuple[list[int], list[int]]:
    ids: dict[Hashable, int] = {}
    enc_a = [ids.setdefault(tok, len(ids)) for tok in a]
    enc_b = [ids.setdefault(tok, len(ids)) for tok in b]
    return enc_a, enc_b


def nw_score(
    a: Sequence[Hashable], b: Sequence[Hashable], params: AlignmentParams = AlignmentParams()
) -> int:
    """Global-alignment score between two token sequences."""
    enc_a, enc_b = _encode(a, b)
    return _nwpure.align_score(
        enc_a, enc_b, params.gap_score, params.match_score, params.mismatch_score
    )


def semantic_similar(
    a: Sequence[Hashable], b: Sequence[Hashable], params: AlignmentParams = AlignmentParams()
) -> SimilarityResult:
    """Decide whether two operator sequences are similar enough to merge.

    similarity = score / max(len(a), len(b)); merge iff it strictly exceeds
    the threshold.  At least one sequence must be non-empty.
    """
    if not a and not b:
        raise ValueError("similarity of two empty sequences is undefined")
    score = nw_score(a, b, params)
    similarity = score / max(len(a), len(b))
    return SimilarityResult(similarity > params.similarity_threshold, similarity, score)


def nw_format_score(
    a: Sequence[int], b: Sequence[int], params: AlignmentParams = AlignmentParams()
) -> int:
    """Alignment score between two formats' boundary-offset sequences.

    Two boundary positions match when their byte offsets are equal; gap and
    mismatch penalties are shared with the operator alignment.
    """
    return nw_score(a, b, params)

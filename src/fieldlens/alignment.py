"""Global sequence alignment over operator sequences and boundary sequences.

The Needleman-Wunsch score is the merge criterion for adjacent field
candidates and the format-similarity measure for message clustering.  Both
encode their tokens as integers and run the one dynamic program in
``_nwpure.align_score`` with the fixed constants below: ``GAP`` -2,
``MATCH`` +1, ``MISMATCH`` -1, and a merge when the similarity strictly
exceeds ``SIMILARITY_THRESHOLD`` 0.8.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Sequence

from . import _nwpure

GAP, MATCH, MISMATCH = -2, 1, -1
SIMILARITY_THRESHOLD = 0.8


class SimilarityResult(NamedTuple):
    merge: bool
    similarity: float
    score: int


def _encode(a: Sequence[Hashable], b: Sequence[Hashable]) -> tuple[list[int], list[int]]:
    ids: dict[Hashable, int] = {}
    enc_a = [ids.setdefault(tok, len(ids)) for tok in a]
    enc_b = [ids.setdefault(tok, len(ids)) for tok in b]
    return enc_a, enc_b


def nw_score(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Global-alignment score between two token sequences."""
    enc_a, enc_b = _encode(a, b)
    return _nwpure.align_score(enc_a, enc_b, GAP, MATCH, MISMATCH)


def semantic_similar(a: Sequence[Hashable], b: Sequence[Hashable]) -> SimilarityResult:
    """Decide whether two operator sequences are similar enough to merge.

    similarity = score / max(len(a), len(b)); merge iff it strictly exceeds
    the threshold.  At least one sequence must be non-empty.
    """
    if not a and not b:
        raise ValueError("similarity of two empty sequences is undefined")
    score = nw_score(a, b)
    similarity = score / max(len(a), len(b))
    return SimilarityResult(similarity > SIMILARITY_THRESHOLD, similarity, score)


def nw_format_score(a: Sequence[int], b: Sequence[int]) -> int:
    """Alignment score between two formats' boundary-offset sequences.

    Two boundary positions match when their byte offsets are equal; gap and
    mismatch penalties are shared with the operator alignment.
    """
    return nw_score(a, b)

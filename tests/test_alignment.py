import random

import pytest
from hypothesis import given, settings, strategies as st

from fieldlens import _nwpure
from fieldlens.alignment import (
    GAP,
    MATCH,
    MISMATCH,
    SIMILARITY_THRESHOLD,
    nw_format_score,
    nw_score,
    semantic_similar,
)


def brute_force_score(a, b, gap=-2, match=1, mismatch=-1):
    """Enumerate every monotone alignment recursively; no DP table."""

    def go(i, j):
        if i == len(a) and j == len(b):
            return 0
        best = None
        if i < len(a) and j < len(b):
            sub = (match if a[i] == b[j] else mismatch) + go(i + 1, j + 1)
            best = sub if best is None else max(best, sub)
        if i < len(a):
            sub = gap + go(i + 1, j)
            best = sub if best is None else max(best, sub)
        if j < len(b):
            sub = gap + go(i, j + 1)
            best = sub if best is None else max(best, sub)
        return best

    return go(0, 0)


def test_alignment_constants():
    assert (GAP, MATCH, MISMATCH) == (-2, 1, -1)
    assert SIMILARITY_THRESHOLD == 0.8


def test_identical_pair_scores_two_matches():
    assert nw_score(["movzx", "cmp"], ["movzx", "cmp"]) == 2


def test_empty_versus_two_tokens_is_two_gaps():
    assert nw_score([], ["cmp", "cmp"]) == -4


def test_mixed_pair_scores_minus_six():
    assert nw_score(["movzx", "cmp"], ["cmp", "movzx", "xor", "mov", "movzx"]) == -6


def test_similarity_identical_sequences():
    result = semantic_similar(["movzx", "cmp"], ["movzx", "cmp"])
    assert result.merge and result.similarity == 1.0


def test_similarity_single_identical_token():
    result = semantic_similar(["cmp"], ["cmp"])
    assert result.merge and result.similarity == 1.0


def test_similarity_dissimilar_sequences():
    result = semantic_similar(
        ["movzx", "cmp"], ["cmp", "movzx", "xor", "mov", "movzx"]
    )
    assert not result.merge
    assert result.similarity == pytest.approx(-1.2)


def test_similarity_rejects_two_empty_sequences():
    with pytest.raises(ValueError):
        semantic_similar([], [])


def test_strict_threshold_comparison():
    # nine matches and one mismatch score 8: similarity exactly 0.8 must not merge
    a = ["mov"] * 10
    result = semantic_similar(a, a[:-1] + ["cmp"])
    assert result.score == 8 and result.similarity == SIMILARITY_THRESHOLD
    assert not result.merge


def test_format_score_examples():
    assert nw_format_score([1, 2, 3, 4], [1, 2, 3, 4]) == 4
    assert nw_format_score([2, 4], [2, 5]) == 0
    assert nw_format_score([], [1, 2, 3]) == -6


@given(
    st.lists(st.sampled_from("abcd"), max_size=8),
    st.lists(st.sampled_from("abcd"), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_score_is_symmetric(a, b):
    assert nw_score(a, b) == nw_score(b, a)


def test_matches_brute_force_on_random_pairs():
    rng = random.Random(1234)
    for _ in range(300):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        assert nw_score(a, b) == brute_force_score(a, b)


def test_pure_python_kernel_matches_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        a = [rng.randint(0, 3) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(0, 3) for _ in range(rng.randint(0, 6))]
        assert _nwpure.align_score(a, b, -2, 1, -1) == brute_force_score(a, b)


"""The global-alignment (Needleman-Wunsch) scoring kernel, in pure Python."""

from __future__ import annotations

from typing import Sequence


def align_score(
    a: Sequence[int], b: Sequence[int], gap: int, match: int, mismatch: int
) -> int:
    """Best global-alignment score between integer token sequences.

    Row 0 and column 0 of the table are cumulative gap penalties; each inner
    cell takes the max of diagonal + match/mismatch, up + gap, left + gap.
    """
    m, n = len(a), len(b)
    prev = [j * gap for j in range(n + 1)]
    cur = [0] * (n + 1)
    for i in range(1, m + 1):
        cur[0] = i * gap
        ai = a[i - 1]
        for j in range(1, n + 1):
            diag = prev[j - 1] + (match if ai == b[j - 1] else mismatch)
            up = prev[j] + gap
            left = cur[j - 1] + gap
            best = diag if diag >= up else up
            if left > best:
                best = left
            cur[j] = best
        prev, cur = cur, prev
    return prev[n]

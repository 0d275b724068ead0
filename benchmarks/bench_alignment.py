#!/usr/bin/env python3
"""Time the alignment kernel alone, on random integer token sequences.

One layer of a pipeline run, and a small one: about 0.08 s of a 2.3 s pass
over 400 mixed messages.  ``perfbench/`` times the whole pipeline.

Usage: python benchmarks/bench_alignment.py [--pairs N] [--max-len N]
"""

import argparse
import random
import statistics
import time

from fieldlens import _nwpure

# perfbench/run.py reads this name; there is no second kernel to offer.
_nwkernel = None


def make_pairs(count, max_len, alphabet, rng):
    pairs = []
    for _ in range(count):
        a = [rng.randrange(alphabet) for _ in range(rng.randint(1, max_len))]
        b = [rng.randrange(alphabet) for _ in range(rng.randint(1, max_len))]
        pairs.append((a, b))
    return pairs


def bench(fn, pairs, repeats=3):
    times = []
    result = 0
    for _ in range(repeats):
        began = time.perf_counter()
        for a, b in pairs:
            result += fn(a, b, -2, 1, -1)
        times.append(time.perf_counter() - began)
    return min(times), result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=20_000)
    ap.add_argument("--max-len", type=int, default=24)
    ap.add_argument("--alphabet", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    pairs = make_pairs(args.pairs, args.max_len, args.alphabet, rng)
    lengths = [len(a) * len(b) for a, b in pairs]
    print(
        f"{args.pairs} pairs, max length {args.max_len}, "
        f"mean DP cells {statistics.mean(lengths):.0f}"
    )
    seconds, _ = bench(_nwpure.align_score, pairs)
    print(f"kernel: {seconds:8.3f}s")


if __name__ == "__main__":
    main()

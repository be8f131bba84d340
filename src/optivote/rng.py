"""Deterministic stream derivation from a master seed, and row-blocked draws.

Every stochastic component receives its own ``numpy.random.Generator``
derived from (master seed, purpose tag, round, node).  Streams are
therefore independent of evaluation order and of any parallel schedule.
A large draw is split into row blocks whose layout is set by the draw's
shape alone, run on any number of threads with at most 2 x workers in flight.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Purpose tags keep streams for different subsystems disjoint.
TAG_DATA = 1
TAG_SELECT = 2
TAG_GRADIENT = 3
TAG_CHANNEL = 4
TAG_NOISE = 5
TAG_MC = 6


def derive(seed: int, *keys: int) -> np.random.Generator:
    """Return a Generator keyed by the master seed plus integer keys."""
    return np.random.default_rng([int(seed), *[int(k) for k in keys]])


def _row_blocks(n: int, rows: int) -> list[tuple[int, int]]:
    """(start, stop) of ceil(n / rows) near-equal blocks covering range(n)."""
    k = -(-n // rows)
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def _map_blocks(fn, blocks: list, threads: int):
    """``fn(*block)`` of each block, in block order, on ``min(threads, len(blocks))``
    workers (inline at one), at most 2 x workers submitted and not yet yielded."""
    if (workers := min(threads, len(blocks))) < 2:
        yield from (fn(*b) for b in blocks)
        return
    with ThreadPoolExecutor(workers) as pool:
        window = deque(pool.submit(fn, *b) for b in blocks[:2 * workers])
        for b in blocks[2 * workers:]:
            yield window.popleft().result()
            window.append(pool.submit(fn, *b))
        yield from (f.result() for f in window)

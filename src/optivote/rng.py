"""Deterministic stream derivation from a master seed, and row-blocked draws.

Every stochastic component receives its own ``numpy.random.Generator``
derived from (master seed, purpose tag, round, node).  Streams are
therefore independent of evaluation order and of any parallel schedule.
A large draw is split into row blocks whose layout is set by the draw's
shape alone, and the blocks may run on any number of threads.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

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
    """``fn(*block)`` of each block, in block order, on
    ``min(threads, len(blocks))`` worker threads, or inline at one."""
    workers = min(threads, len(blocks))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        yield from (pool.map if pool else map)(lambda b: fn(*b), blocks)

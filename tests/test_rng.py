import threading
import time

import pytest

from optivote import rng

ROWS = 7


@pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 10 * ROWS + 3])
def test_row_blocks_cover_the_range_in_near_equal_blocks(n):
    blocks = rng._row_blocks(n, ROWS)
    assert len(blocks) == -(-n // ROWS)
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
    heights = [hi - lo for lo, hi in blocks]
    assert max(heights) <= ROWS
    assert max(heights) - min(heights) <= 1


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_blocks_returns_results_in_block_order(threads):
    blocks = rng._row_blocks(10 * ROWS + 3, ROWS)
    callers = set()

    def fn(lo, hi):
        callers.add(threading.get_ident())
        time.sleep(0.01 if lo == 0 else 0.0)  # the first block finishes last
        return lo, hi

    assert list(rng._map_blocks(fn, blocks, threads)) == blocks
    if threads == 1:
        assert callers == {threading.get_ident()}


@pytest.mark.parametrize("threads", [2, 3])
def test_map_blocks_keeps_at_most_two_blocks_per_worker_in_flight(threads):
    # Blocks started but not yet yielded, counted as each block starts: with
    # a consumer slower than the workers, the window holds them back.
    blocks = rng._row_blocks(40 * ROWS, ROWS)
    lock = threading.Lock()
    count = {"started": 0, "yielded": 0, "peak": 0}

    def fn(lo, hi):
        with lock:
            count["started"] += 1
            count["peak"] = max(count["peak"], count["started"] - count["yielded"])
        return lo, hi

    for _ in rng._map_blocks(fn, blocks, threads):
        with lock:
            count["yielded"] += 1
        time.sleep(0.002)
    assert count["started"] == count["yielded"] == len(blocks)
    assert count["peak"] <= 2 * threads


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_blocks_ends_at_the_block_that_raises(threads):
    blocks = rng._row_blocks(10 * ROWS, ROWS)

    def fn(lo, hi):
        if lo == blocks[3][0]:
            raise ValueError(f"block at {lo}")
        return lo, hi

    got = []
    with pytest.raises(ValueError, match=f"block at {blocks[3][0]}$"):
        for item in rng._map_blocks(fn, blocks, threads):
            got.append(item)
    assert got == blocks[:3]


def test_map_blocks_closed_early_leaves_no_worker_thread():
    before = threading.active_count()

    def fn(lo, hi):
        time.sleep(0.01)
        return lo, hi

    gen = rng._map_blocks(fn, rng._row_blocks(20 * ROWS, ROWS), 3)
    assert [next(gen), next(gen)] == [(0, ROWS), (ROWS, 2 * ROWS)]
    gen.close()
    deadline = time.monotonic() + 5.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before

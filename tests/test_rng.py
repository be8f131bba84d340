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

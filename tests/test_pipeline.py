import os
from functools import partial

import pytest

from rankflow.errors import RankflowError
from rankflow.pipeline import parallel_map


def _square_or_fail(x, failing=()):
    if x in failing:
        raise RankflowError(f"item: {x} failed")
    return x * x, os.getpid()


class TestParallelMap:
    # 37 items on 2 workers go out in chunks of ceil(37 / 16) = 3: twelve
    # whole chunks and one of a single item.  They are out of order, so
    # sorted rows are not input-ordered rows.
    ITEMS = [(7 * i) % 37 for i in range(37)]

    def test_rows_keep_input_order_across_chunks(self):
        serial = parallel_map(_square_or_fail, self.ITEMS, jobs=1)
        pooled = parallel_map(_square_or_fail, self.ITEMS, jobs=2)
        assert [row for row, _ in pooled] == [row for row, _ in serial] == [x * x for x in self.ITEMS]
        pids = [pid for _, pid in pooled]
        assert os.getpid() not in pids
        for start in range(0, len(pids), 3):  # each chunk runs in one worker
            assert len(set(pids[start : start + 3])) == 1

    def test_first_failing_item_raises(self):
        # The fifth item is the middle of the second chunk; the 31st fails in a later one.
        fn = partial(_square_or_fail, failing={self.ITEMS[4], self.ITEMS[30]})
        errors = []
        for jobs in (1, 2):
            with pytest.raises(RankflowError, match="item: .* failed") as info:
                parallel_map(fn, self.ITEMS, jobs=jobs)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][1] == f"item: {self.ITEMS[4]} failed"

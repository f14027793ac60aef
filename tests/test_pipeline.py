import os
from functools import partial

import numpy as np
import pytest

from conftest import make_scene
from rankflow.domain import Ranking
from rankflow.errors import RankflowError
from rankflow.ingest import read_json
from rankflow.pipeline import build_training_set, parallel_map, preprocess_one
from rankflow.preprocess import FilterConfig


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


def test_a_padded_id_that_the_gt_ranks_is_labelled_non_salient(tmp_path):
    """Raw ids 0..3, where NMS drops id 0, the most salient in the raw GT.
    At W = 5 the windows pad ids 0 and -1 below the lowest kept id, 1, so a
    pad carries id 0; it is labelled 0 all the same, as it was when
    preprocess padded below the raw ids."""
    boxes = [(0, 0, 10, 10), (0, 0, 10, 11), (20, 20, 30, 30), (40, 40, 50, 50)]
    raw = make_scene(boxes, confidences=[0.5, 0.9, 0.8, 0.7])
    for sub in ("scenes", "features"):
        (tmp_path / sub).mkdir()
    preprocess_one(raw, tmp_path, FilterConfig())
    kept = [q["id"] for q in read_json(tmp_path / "scenes" / "s.json")["proposals"]]
    assert kept == [1, 2, 3]
    gt = Ranking({0: 1, 1: 2, 2: 3, 3: 0})
    samples = build_training_set(tmp_path, {"s": gt}, 5)
    # Positions 0..4 hold ids 1, 2, 3 and the pads 0, -1; window i starts at position i.
    assert [labels for _, labels, _ in samples] == [tuple(np.roll([1, 2, 0, 0, 0], -i)) for i in range(5)]
    assert [mask for _, _, mask in samples] == [list(np.roll([False] * 3 + [True] * 2, -i)) for i in range(5)]

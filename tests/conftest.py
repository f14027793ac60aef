import numpy as np
import pytest

from rankflow.domain import BBox, GrayMap, Proposal, Scene


def make_scene(
    boxes,
    fixations=(),
    width=100,
    height=100,
    scene_id="s",
    map_values=None,
    confidences=None,
):
    proposals = tuple(
        Proposal(
            id=i,
            box=BBox(*b),
            detector_confidence=confidences[i] if confidences else 1.0,
        )
        for i, b in enumerate(boxes)
    )
    fixation_map = None
    if map_values is not None:
        arr = np.asarray(map_values, dtype=np.uint8)
        fixation_map = GrayMap(arr.shape[1], arr.shape[0], arr.tobytes())
    return Scene(
        scene_id=scene_id,
        width=width,
        height=height,
        proposals=proposals,
        fixations=[(u, v, 0) for u, v in fixations],
        fixation_map=fixation_map,
    )


@pytest.fixture
def uniform_map_scene():
    return make_scene(
        boxes=[(10, 10, 30, 30), (50, 50, 90, 90)],
        map_values=np.full((100, 100), 100),
    )

import numpy as np
import pytest

from rankflow.domain import BBox, Proposal, Scene


def scene_to_dict(scene, fixation_map_path=None) -> dict:
    """The document ``ingest.write_scene`` writes as sorted-key JSON, built
    the plain way: the reference its fast formatting is checked against."""
    doc = {
        "scene_id": scene.scene_id,
        "width": scene.width,
        "height": scene.height,
        "proposals": [
            {"id": p.id, "is_dummy": True}
            if p.is_dummy
            else {"id": p.id, "box": [p.box.x1, p.box.y1, p.box.x2, p.box.y2], "confidence": p.detector_confidence}
            for p in scene.proposals
        ],
        "fixations": [{"u": u, "v": v, "observer_id": o} for u, v, o in scene.fixations.tolist()],
    }
    if fixation_map_path is not None:
        doc["fixation_map_path"] = str(fixation_map_path)
    return doc


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
    return Scene(
        scene_id=scene_id,
        width=width,
        height=height,
        proposals=proposals,
        fixations=[(u, v, 0) for u, v in fixations],
        fixation_map=None if map_values is None else np.asarray(map_values, dtype=np.uint8),
    )


@pytest.fixture
def uniform_map_scene():
    return make_scene(
        boxes=[(10, 10, 30, 30), (50, 50, 90, 90)],
        map_values=np.full((100, 100), 100),
    )

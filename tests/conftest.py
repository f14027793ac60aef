from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

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


def tree(root) -> dict:
    """Every path under ``root``, relative: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


# Up to three edits of a binary file: cut it short, overwrite bytes or insert
# them, at an offset that is as often in a header as anywhere.
BYTE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["cut", "put", "insert"]),
        st.integers(0, 24) | st.integers(0, 10_000),
        st.binary(min_size=1, max_size=8) | st.sampled_from([b"\xff" * 4, b"\x00" * 4, b"\x7f\xf8" * 4]),
    ),
    min_size=1,
    max_size=3,
)


def edit_bytes(data: bytes, edits) -> bytes:
    """``data`` with ``(op, offset, chunk)`` edits as ``BYTE_EDITS`` draws
    them applied in turn, each offset folded into the file."""
    data = bytearray(data)
    for op, at, chunk in edits:
        at %= len(data) + 1
        if op == "cut":
            del data[at:]
        elif op == "put":
            data[at : at + len(chunk)] = chunk
        else:
            data[at:at] = chunk
    return bytes(data)


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


def listing_dummies(scene: Scene, count: int) -> Scene:
    """``scene`` with dummies after its proposals up to ``count``, ids below
    its lowest: the scene an older ``preprocess`` wrote with that minimum."""
    low = min((q.id for q in scene.proposals), default=0)
    pad = tuple(Proposal(low - 1 - k, None, is_dummy=True) for k in range(count - len(scene.proposals)))
    return replace(scene, proposals=scene.proposals + pad)


@pytest.fixture
def uniform_map_scene():
    return make_scene(
        boxes=[(10, 10, 30, 30), (50, 50, 90, 90)],
        map_values=np.full((100, 100), 100),
    )

"""Output checks for the benchmark, computed apart from the program.

Everything here reads the files rankflow writes with plain ``json``/``csv``/
numpy and recomputes what the method defines (the rasrgt score, the
threshold-discrepancy totals, the map-rank threshold, the proposal features,
SRCC via ``scipy.stats.spearmanr``).  Nothing imports ``rankflow``, so a fault
in a shared helper cannot hide itself.  Every check returns a list of problem
strings; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

# Method constants the outputs are checked against (rankflow's documented defaults).
GAMMA = 0.2
BETA = 0.5
LAMBDA = 0.5
WINDOW = 5
NMS_IOU = 0.7
MIN_AREA_PX = 20.0
MAX_AREA_FRAC = 0.6
FEATURE_DIM = 14
FEATURE_TOL = 1e-9
EVAL_TOL = 1e-9
GAMMA_GRID = [round(0.1 * k, 10) for k in range(1, 11)]  # the CLI's default 0.1:1.0:0.1
MODEL_BYTES = 16 + (18 * 32 + 32 + 32 * 6 + 6) * 8  # magic + dims + 18->32->6 float64 params


@dataclass
class SceneDoc:
    scene_id: str
    width: int
    height: int
    ids: list  # real proposal ids, file order
    boxes: list  # (x1, y1, x2, y2) per real proposal
    n_proposals: int  # real + dummy
    fix: np.ndarray  # m x 2 int (u, v)
    map_path: Path | None


def load_scene(path) -> SceneDoc:
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    real = [p for p in doc["proposals"] if not p.get("is_dummy", False)]
    fix = np.array([(f["u"], f["v"]) for f in doc.get("fixations", [])], dtype=np.int64)
    map_rel = doc.get("fixation_map_path")
    return SceneDoc(
        scene_id=doc["scene_id"],
        width=int(doc["width"]),
        height=int(doc["height"]),
        ids=[int(p["id"]) for p in real],
        boxes=[tuple(float(x) for x in p["box"]) for p in real],
        n_proposals=len(doc["proposals"]),
        fix=fix.reshape(-1, 2),
        map_path=(path.parent / map_rel) if map_rel else None,
    )


def load_scenes(scene_dir) -> dict[str, SceneDoc]:
    out = {}
    for p in sorted(Path(scene_dir).glob("*.json")):
        if p.name not in ("manifest.json", "provenance.json"):
            sc = load_scene(p)
            out[sc.scene_id] = sc
    return out


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(g) for g in m.groups())
    raster = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=m.end())
    return raster.reshape(h, w)


def read_rankings(path) -> dict[str, dict[int, int]]:
    """scene_id -> {proposal_id: order}; raises ValueError on a malformed file."""
    out: dict[str, dict[int, int]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["scene_id", "proposal_id", "order"]:
            raise ValueError(f"{path}: bad header")
        for row in reader:
            sid, pid, order = row[0], int(row[1]), int(row[2])
            if pid in out.setdefault(sid, {}):
                raise ValueError(f"{path}: duplicate row {row}")
            out[sid][pid] = order
    return out


# --- the method, recomputed -------------------------------------------------


def fixation_counts(boxes, fix: np.ndarray) -> np.ndarray:
    """Fixations per box under the half-open rule [x1,x2) x [y1,y2)."""
    if not boxes:
        return np.zeros(0, dtype=np.int64)
    b = np.asarray(boxes, dtype=float)
    u = fix[:, 0][None, :]
    v = fix[:, 1][None, :]
    inside = (u >= b[:, 0:1]) & (u < b[:, 2:3]) & (v >= b[:, 1:2]) & (v < b[:, 3:4])
    return inside.sum(axis=1)


def orders_from_scores(ids, scores) -> dict[int, int]:
    """Descending score -> 1..k, zero score -> 0, ties by ascending id."""
    score_of = dict(zip(ids, scores))
    salient = sorted((i for i in ids if score_of[i] > 0), key=lambda i: (-score_of[i], i))
    labels = {i: 0 for i in ids}
    for order, i in enumerate(salient, start=1):
        labels[i] = order
    return labels


def rasrgt_scores(sc: SceneDoc, counts, gamma: float = GAMMA, beta: float = BETA) -> list[float]:
    """fixation share + gamma * e^(beta * sqrt(area) / sqrt(W*H)); no fixation -> 0."""
    total = len(sc.fix)
    image_sqrt = math.sqrt(sc.width * sc.height)
    scores = []
    for (x1, y1, x2, y2), n_i in zip(sc.boxes, counts):
        if n_i == 0:
            scores.append(0.0)
            continue
        ratio = math.sqrt((x2 - x1) * (y2 - y1)) / image_sqrt
        scores.append(int(n_i) / total + gamma * math.exp(beta * ratio))
    return scores


def rasrgt_orders(sc: SceneDoc, gamma: float = GAMMA, beta: float = BETA) -> dict[int, int]:
    return orders_from_scores(sc.ids, rasrgt_scores(sc, fixation_counts(sc.boxes, sc.fix), gamma, beta))


def discrepancy_rows(scenes, grid=GAMMA_GRID) -> list[tuple[float, int]]:
    """Brute-force sum of |order_t - order_t_prev| over every proposal, per grid step."""
    per_gamma = []
    for g in grid:
        per_gamma.append({sid: rasrgt_orders(sc, gamma=g) for sid, sc in scenes.items()})
    rows = []
    for k in range(1, len(grid)):
        prev, cur = per_gamma[k - 1], per_gamma[k]
        total = sum(abs(cur[sid][i] - prev[sid][i]) for sid in cur for i in cur[sid])
        rows.append((grid[k], total))
    return rows


def _box_pixels(width, height, box):
    x1, y1, x2, y2 = box
    return (
        max(0, math.ceil(x1)),
        min(width, math.ceil(x2)),
        max(0, math.ceil(y1)),
        min(height, math.ceil(y2)),
    )


def map_rank_orders(sc: SceneDoc, grid: np.ndarray, lam: float = LAMBDA) -> dict[int, int]:
    """Binarize at T = sum_i(sum box_i / sqrt(area_i)) / (n * lam); rank by white pixels."""
    total = 0.0
    for box in sc.boxes:
        u0, u1, v0, v1 = _box_pixels(sc.width, sc.height, box)
        total += float(grid[v0:v1, u0:u1].sum()) / math.sqrt((box[2] - box[0]) * (box[3] - box[1]))
    threshold = total / (len(sc.boxes) * lam)
    white = grid > threshold
    scores = []
    for box in sc.boxes:
        u0, u1, v0, v1 = _box_pixels(sc.width, sc.height, box)
        scores.append(float(white[v0:v1, u0:u1].sum()))
    return orders_from_scores(sc.ids, scores)


def features(sc: SceneDoc, grid: np.ndarray | None) -> np.ndarray:
    """The 14 per-proposal features of the real proposals, in file order."""
    total = len(sc.fix)
    image_area = sc.width * sc.height

    def region(box):
        share = int(fixation_counts([box], sc.fix)[0]) / total if total else 0.0
        if grid is None:
            return share, 0.0, 0.0
        u0, u1, v0, v1 = _box_pixels(sc.width, sc.height, box)
        vals = grid[v0:v1, u0:u1]
        if not vals.size:
            return share, 0.0, 0.0
        return share, float(vals.mean()) / 255.0, float(vals.max()) / 255.0

    rows = []
    for x1, y1, x2, y2 in sc.boxes:
        area = (x2 - x1) * (y2 - y1)
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        hw, hh = (x2 - x1) * 1.5 / 2, (y2 - y1) * 1.5 / 2
        gbox = (max(0.0, cx - hw), max(0.0, cy - hh), min(float(sc.width), cx + hw), min(float(sc.height), cy + hh))
        share, mean_l, max_l = region((x1, y1, x2, y2))
        gshare, mean_g, max_g = region(gbox)
        density = total / image_area
        rel = (share * total / area) / density if density > 0 else 0.0
        rows.append(
            [
                share, rel / (1.0 + rel), mean_l, max_l,
                gshare, mean_g, max_g,
                math.sqrt(area) / math.sqrt(image_area),
                cx / sc.width, cy / sc.height,
                x1 / sc.width, y1 / sc.height, x2 / sc.width, y2 / sc.height,
            ]
        )
    return np.array(rows).reshape(-1, FEATURE_DIM)


def iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


# --- ranking quality ----------------------------------------------------------


def ranking_problems(labels: dict, real_ids, where: str) -> list[str]:
    """A valid ranking covers exactly the real ids with orders {0} u {1..k}."""
    if set(labels) != set(real_ids):
        return [f"{where}: ranked ids {sorted(labels)} != real proposal ids {sorted(real_ids)}"]
    nonzero = sorted(o for o in labels.values() if o != 0)
    if any(o < 0 for o in labels.values()) or nonzero != list(range(1, len(nonzero) + 1)):
        return [f"{where}: orders {sorted(labels.values())} are not 0 or a permutation of 1..k"]
    return []


def scipy_srcc(pred: dict, gt: dict) -> float | None:
    """Tie-corrected Spearman over ids in sorted order; None where undefined."""
    ids = sorted(gt)
    a = [pred[i] for i in ids]
    b = [gt[i] for i in ids]
    if len(ids) < 2 or len(set(a)) < 2 or len(set(b)) < 2:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.spearmanr(a, b).statistic)


def set_f1(pred: dict, gt: dict) -> float:
    p = {i for i, o in pred.items() if o > 0}
    g = {i for i, o in gt.items() if o > 0}
    if not p and not g:
        return 1.0
    tp = len(p & g)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(p), tp / len(g)
    return 2 * precision * recall / (precision + recall)


@dataclass
class Quality:
    srcc_mean: float
    f1_mean: float
    exact_rankings: int


def quality(preds: dict, gts: dict) -> Quality:
    rhos = [r for sid in gts if (r := scipy_srcc(preds[sid], gts[sid])) is not None]
    f1s = [set_f1(preds[sid], gts[sid]) for sid in gts]
    exact = sum(preds[sid] == gts[sid] for sid in gts)
    return Quality(float(np.mean(rhos)) if rhos else 0.0, float(np.mean(f1s)), int(exact))


# --- per-output checks for the CLI flow ---------------------------------------


def check_gt(raw: dict[str, SceneDoc], gt_file) -> list[str]:
    gt = read_rankings(gt_file)
    problems = []
    if set(gt) != set(raw):
        problems.append(f"gt-gen: scenes {sorted(set(gt) ^ set(raw))[:5]} missing or extra")
    for sid, sc in raw.items():
        want = rasrgt_orders(sc)
        if gt.get(sid) != want:
            problems.append(f"gt-gen: {sid} orders {gt.get(sid)} != recomputed rasrgt {want}")
    return problems


def check_discrepancy(raw: dict[str, SceneDoc], disc_file) -> list[str]:
    with open(disc_file, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["threshold", "t_offset"]]:
        return [f"gt-discrepancy: bad header {rows[:1]}"]
    got = [(float(t), int(o)) for t, o in rows[1:]]
    want = discrepancy_rows(raw)
    if len(got) != len(want) or any(
        abs(gt_ - wt) > 1e-9 or go != wo for (gt_, go), (wt, wo) in zip(got, want)
    ):
        return [f"gt-discrepancy: rows {got} != brute-force {want}"]
    return []


def check_map_rank(raw: dict[str, SceneDoc], map_file) -> list[str]:
    got = read_rankings(map_file)
    problems = []
    if set(got) != set(raw):
        problems.append(f"map-rank: scenes {sorted(set(got) ^ set(raw))[:5]} missing or extra")
    for sid, sc in raw.items():
        want = map_rank_orders(sc, read_pgm(sc.map_path))
        if got.get(sid) != want:
            problems.append(f"map-rank: {sid} orders {got.get(sid)} != recomputed {want}")
    return problems


def check_preprocessed(raw: dict[str, SceneDoc], pre_dir) -> list[str]:
    pre_dir = Path(pre_dir)
    pre = load_scenes(pre_dir / "scenes")
    problems = []
    if set(pre) != set(raw):
        problems.append(f"preprocess: scenes {sorted(set(pre) ^ set(raw))[:5]} missing or extra")
    for sid, sc in pre.items():
        src = raw.get(sid)
        if src is None:
            continue
        src_boxes = dict(zip(src.ids, src.boxes))
        if any(src_boxes.get(i) != b for i, b in zip(sc.ids, sc.boxes)):
            problems.append(f"preprocess: {sid} keeps a proposal not in the input")
        image_area = sc.width * sc.height
        for i, b in zip(sc.ids, sc.boxes):
            area = (b[2] - b[0]) * (b[3] - b[1])
            if not MIN_AREA_PX <= area <= MAX_AREA_FRAC * image_area:
                problems.append(f"preprocess: {sid} proposal {i} area {area} outside bounds")
        for (i, a), (j, b) in itertools.combinations(zip(sc.ids, sc.boxes), 2):
            if iou(a, b) > NMS_IOU:
                problems.append(f"preprocess: {sid} proposals {i},{j} IoU {iou(a, b):.3f} > {NMS_IOU}")
        if sc.n_proposals < WINDOW:
            problems.append(f"preprocess: {sid} has {sc.n_proposals} < {WINDOW} proposals")
        problems += check_feature_file(pre_dir / "features" / f"{sid}.feat", sc, src)
    return problems


def check_feature_file(path, sc: SceneDoc, src: SceneDoc) -> list[str]:
    """Row count, size, zero dummy rows and every real row recomputed."""
    data = Path(path).read_bytes()
    (count,) = struct.unpack("<I", data[:4])
    if count != sc.n_proposals or len(data) != 4 + count * FEATURE_DIM * 8:
        return [f"features: {path.name} has {count} rows / {len(data)} bytes for {sc.n_proposals} proposals"]
    got = np.frombuffer(data[4:], dtype="<f8").reshape(count, FEATURE_DIM)
    grid = read_pgm(src.map_path) if src.map_path else None
    want = features(sc, grid)
    real_rows, dummy_rows = got[: len(sc.ids)], got[len(sc.ids):]
    problems = []
    if np.any(dummy_rows != 0):
        problems.append(f"features: {path.name} dummy rows are not zero")
    bad = np.argwhere(np.abs(real_rows - want) > FEATURE_TOL)
    if len(bad):
        r, c = bad[0]
        problems.append(f"features: {path.name} row {r} col {c} = {real_rows[r, c]!r}, recomputed {want[r, c]!r}")
    return problems


def check_rank(pre: dict[str, SceneDoc], pred_file) -> list[str]:
    pred = read_rankings(pred_file)
    problems = []
    if set(pred) != set(pre):
        problems.append(f"rank: scenes {sorted(set(pred) ^ set(pre))[:5]} missing or extra")
    for sid, sc in pre.items():
        problems += ranking_problems(pred.get(sid, {}), sc.ids, f"rank: {sid}")
    return problems


def check_eval(pred_file, gt_file, report_file) -> list[str]:
    pred, gt = read_rankings(pred_file), read_rankings(gt_file)
    report = json.loads(Path(report_file).read_text(encoding="utf-8"))
    problems = []
    rhos, f1s, skipped = [], [], 0
    entries = {e["id"]: e for e in report["scenes"]}
    if set(entries) != set(gt):
        return [f"eval: report covers {len(entries)} scenes, GT has {len(gt)}"]
    for sid in sorted(gt):
        rho, f1 = scipy_srcc(pred[sid], gt[sid]), set_f1(pred[sid], gt[sid])
        if rho is None:
            skipped += 1
        else:
            rhos.append(rho)
        f1s.append(f1)
        e = entries[sid]
        if (rho is None) != (e["srcc"] is None) or (rho is not None and abs(rho - e["srcc"]) > EVAL_TOL):
            problems.append(f"eval: {sid} srcc {e['srcc']} != scipy {rho}")
        if abs(f1 - e["f1"]) > EVAL_TOL:
            problems.append(f"eval: {sid} f1 {e['f1']} != {f1}")
    if abs(float(np.mean(rhos)) - report["mean_srcc"]) > EVAL_TOL:
        problems.append(f"eval: mean_srcc {report['mean_srcc']} != scipy {np.mean(rhos)}")
    if abs(float(np.mean(f1s)) - report["mean_f1"]) > EVAL_TOL:
        problems.append(f"eval: mean_f1 {report['mean_f1']} != {np.mean(f1s)}")
    if skipped != report["skipped"]:
        problems.append(f"eval: skipped {report['skipped']} != {skipped}")
    return problems


def check_model(model_file) -> list[str]:
    data = Path(model_file).read_bytes()
    if data[:4] != b"RFM1" or len(data) != MODEL_BYTES:
        return [f"train: model file has magic {data[:4]!r} and {len(data)} bytes, want RFM1 and {MODEL_BYTES}"]
    if not np.all(np.isfinite(np.frombuffer(data[16:], dtype="<f8"))):
        return ["train: model parameters are not finite"]
    return []


def check_cli_flow(work) -> tuple[list[str], Quality | None]:
    """Every output of the synth -> eval flow in ``work``, plus the flow's quality."""
    work = Path(work)
    raw = load_scenes(work / "raw" / "scenes")
    problems = check_gt(raw, work / "gt.csv")
    problems += check_discrepancy(raw, work / "disc.csv")
    problems += check_map_rank(raw, work / "map.csv")
    problems += check_preprocessed(raw, work / "pre")
    problems += check_model(work / "model.bin")
    pre = load_scenes(work / "pre" / "scenes")
    problems += check_rank(pre, work / "pred.csv")
    problems += check_eval(work / "pred.csv", work / "gt.csv", work / "report.json")
    if problems:
        return problems, None
    return problems, quality(read_rankings(work / "pred.csv"), read_rankings(work / "gt.csv"))

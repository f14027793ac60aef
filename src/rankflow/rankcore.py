"""Inference engine: circular window scheduling, exclusive per-window rank
assignment (softmax + Hungarian), and cross-window vote aggregation.

Aggregation orders salient proposals primarily by a transitive dominance count
derived from pairwise within-window comparisons.  A plain sum of in-window
ranks is kept as tie-break: summed ranks alone can invert the global order
when proposals meet different window neighborhoods, while the dominance count
recovers the exact order whenever every pair of indices shares a window
(n <= 2*W - 1).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .domain import Proposal, Ranking, Scene
from .errors import CoverageViolation, InvalidWindow, ShapeMismatch

DEFAULT_WINDOW = 5
MAX_WINDOW = 7  # 5,040 permutations per assignment
_DUMMY_COST = 1.0e6


@dataclass(frozen=True)
class Window:
    index: int
    member_ids: tuple[int, ...]  # proposal positions in the scene's order


@dataclass(frozen=True)
class WindowAssignment:
    labels: tuple[int, ...]  # per member: 0 = non-salient, else within-window rank

    def __post_init__(self):
        nonzero = [l for l in self.labels if l > 0]
        if len(set(nonzero)) != len(nonzero):
            raise InvalidWindow(f"duplicate non-zero labels {self.labels}")


@dataclass
class VoteState:
    rank_sum: int = 0
    zero_votes: int = 0
    salient_prob_sum: float = 0.0
    appearances: int = 0


def acb_sequences(n: int, window_size: int = DEFAULT_WINDOW) -> list[Window]:
    """n circular windows; window i holds indices (i, i+1, ..., i+W-1) mod n."""
    if not 1 <= window_size <= MAX_WINDOW:
        raise InvalidWindow(f"window size must lie in 1..{MAX_WINDOW}, got {window_size}")
    if n < window_size:
        raise InvalidWindow(f"need at least {window_size} proposals, got {n}")
    return [
        Window(i, tuple((i + k) % n for k in range(window_size))) for i in range(n)
    ]


@functools.cache
def _permutations(k: int) -> np.ndarray:
    """All permutations of range(k) as rows, in lexicographic order (read-only:
    every call shares the cached table)."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp).reshape(-1, k)
    perms.flags.writeable = False
    return perms


def hungarian(cost) -> list[int]:
    """Minimum-cost permutation by a scan over every permutation.

    Returns the lexicographically first permutation whose total lies within a
    relative 1e-9 of the minimum, so near-ties (float rounding, or a 1e6
    dummy row) resolve to the same answer every time.
    """
    k = len(cost)
    try:
        cost = np.array(cost, dtype=float)
    except ValueError as e:
        raise ShapeMismatch("cost matrix must be square") from e
    if k and cost.shape != (k, k):
        raise ShapeMismatch("cost matrix must be square")
    if not np.isfinite(cost).all():
        raise ShapeMismatch("cost matrix entries must be finite")
    if k > MAX_WINDOW:
        raise InvalidWindow(f"assignment size {k} exceeds {MAX_WINDOW}")
    if k == 0:
        return []
    perms = _permutations(k)
    totals = cost[np.arange(k), perms].sum(axis=1)
    best = totals.min()
    return perms[np.argmax(totals <= best + 1e-9 * max(1.0, abs(best)))].tolist()


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def exclusive_classify(scores: np.ndarray, dummy_mask) -> WindowAssignment:
    """Assign distinct within-window ranks via Hungarian matching on -log p.

    Rank columns are classes 1..W; class 0 overrides a row's assigned rank
    when the row prefers non-salient.  Dummy rows get a flat large cost so
    they never displace real rows, and are forced to label 0.
    """
    scores = np.asarray(scores, dtype=float)
    w, c = scores.shape
    if c != w + 1:
        raise ShapeMismatch(f"expected {w}x{w + 1} score matrix, got {w}x{c}")
    p = softmax(scores)
    neglog = -np.log(np.maximum(p, 1e-300))
    cost = np.empty((w, w))
    for r in range(w):
        cost[r] = _DUMMY_COST if dummy_mask[r] else neglog[r, 1:]
    perm = hungarian(cost)
    labels = []
    for r in range(w):
        if dummy_mask[r]:
            labels.append(0)
            continue
        rank = perm[r] + 1
        labels.append(0 if p[r, 0] > p[r, rank] else rank)
    return WindowAssignment(tuple(labels))


def _dominance_counts(net: np.ndarray) -> np.ndarray:
    """Strict-dominance counts from a pairwise net-vote matrix.

    beats = transitive closure of {net > 0}; mutual reachability (a cycle of
    inconsistent votes) cancels out, leaving those pairs to the tie-breaks.
    """
    beats = net > 0
    k = beats.shape[0]
    for m in range(k):
        beats |= beats[:, m : m + 1] & beats[m : m + 1, :]
    strict = beats & ~beats.T
    return strict.sum(axis=0)


def aggregate_votes(
    results, proposals: tuple[Proposal, ...], window_size: int = DEFAULT_WINDOW
) -> Ranking:
    """Combine per-window assignments into one Ranking over real proposals.

    results: iterable of (Window, WindowAssignment, probabilities) triples,
    probabilities being the W x C softmax matrix of the window's scores.
    """
    n = len(proposals)
    w = window_size
    votes = [VoteState() for _ in range(n)]
    net = np.zeros((n, n), dtype=int)
    for window, assignment, probs in results:
        members = window.member_ids
        for k, idx in enumerate(members):
            label = assignment.labels[k]
            st = votes[idx]
            st.appearances += 1
            if label == 0:
                st.zero_votes += 1
            else:
                st.rank_sum += label
            st.salient_prob_sum += 1.0 - float(probs[k][0])
        for a in range(w):
            for b in range(a + 1, w):
                la, lb = assignment.labels[a], assignment.labels[b]
                if la > 0 and lb > 0 and la != lb:
                    ia, ib = members[a], members[b]
                    if la < lb:
                        net[ia, ib] += 1
                        net[ib, ia] -= 1
                    else:
                        net[ib, ia] += 1
                        net[ia, ib] -= 1

    for idx, p in enumerate(proposals):
        if not p.is_dummy and n >= w and votes[idx].appearances != w:
            raise CoverageViolation(
                f"proposal {p.id} appeared in {votes[idx].appearances} windows, expected {w}"
            )

    alive = [
        idx
        for idx, p in enumerate(proposals)
        if not p.is_dummy and votes[idx].zero_votes <= w / 2
    ]
    dom = _dominance_counts(net[np.ix_(alive, alive)]) if alive else np.zeros(0, int)
    order_key = {
        idx: (
            int(dom[pos]),
            votes[idx].rank_sum + votes[idx].zero_votes * (w + 1),
            -votes[idx].salient_prob_sum,
            proposals[idx].id,
        )
        for pos, idx in enumerate(alive)
    }
    alive.sort(key=order_key.__getitem__)

    labels = {p.id: 0 for p in proposals if not p.is_dummy}
    for order, idx in enumerate(alive, start=1):
        labels[proposals[idx].id] = order
    return Ranking(labels)


def window_inputs(
    features: np.ndarray, member_ids: tuple[int, ...]
) -> np.ndarray:
    """Per-row scorer input: own 14 features plus 4 window-context entries
    (mean and max of the members' fixation share and map max)."""
    rows = features[list(member_ids)]
    fs = rows[:, 0]
    mm = rows[:, 3]
    ctx = np.array([fs.mean(), fs.max(), mm.mean(), mm.max()])
    return np.hstack([rows, np.tile(ctx, (rows.shape[0], 1))])


def rank_scene(
    scene: Scene,
    features: np.ndarray,
    scorer,
    window_size: int = DEFAULT_WINDOW,
) -> Ranking:
    """Full inference for one preprocessed scene.

    scorer: callable (member_proposal_ids, inputs W x 18) -> logits W x (W+1).
    Deterministic given scene, features and scorer parameters.
    """
    n = len(scene.proposals)
    if features.shape[0] != n:
        raise ShapeMismatch(f"features rows {features.shape[0]} != proposals {n}")
    windows = acb_sequences(n, window_size)
    results = []
    for window in windows:
        ids = tuple(scene.proposals[i].id for i in window.member_ids)
        x = window_inputs(features, window.member_ids)
        logits = np.asarray(scorer(ids, x), dtype=float)
        dummy_mask = [scene.proposals[i].is_dummy for i in window.member_ids]
        assignment = exclusive_classify(logits, dummy_mask)
        results.append((window, assignment, softmax(logits)))
    return aggregate_votes(results, scene.proposals, window_size)

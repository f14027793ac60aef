"""Inference engine: circular window scheduling, exclusive per-window rank
assignment (softmax + Hungarian), and cross-window vote aggregation.

Aggregation marks non-salient every proposal labelled 0 in more than W/2 of
its windows and orders the others by: how many proposals beat it transitively
in within-window comparisons (its dominance count), fewest first; then its
summed in-window ranks, each zero vote counted as W+1; then its summed salient
probability, descending; then its id, ascending.  Summed ranks alone can
invert the global order when proposals meet different window neighborhoods,
while the dominance count recovers the exact order whenever every pair of
indices shares a window (n <= 2*W - 1).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .domain import Ranking, Scene, check_integer
from .errors import RankflowError

DEFAULT_WINDOW = 5
MAX_WINDOW = 7  # 5,040 permutations per assignment


@dataclass(frozen=True)
class Window:
    member_ids: tuple[int, ...]  # proposal positions in the scene's order


def _acb_schedule(n: int, window_size: int) -> np.ndarray:
    """The ACB schedule: n circular windows as an (n, W) intp array, row i being window i."""
    check_integer(window_size, "window size", 1, MAX_WINDOW)
    if n < window_size:
        raise RankflowError(f"need at least {window_size} proposals, got {n}")
    return (np.arange(n, dtype=np.intp)[:, None] + np.arange(window_size, dtype=np.intp)) % n


def acb_sequences(n: int, window_size: int = DEFAULT_WINDOW) -> list[Window]:
    """n circular windows; window i holds indices (i, i+1, ..., i+W-1) mod n."""
    return [Window(tuple(row)) for row in _acb_schedule(n, window_size).tolist()]


@functools.cache
def _permutations(k: int) -> np.ndarray:
    """All permutations of range(k) as rows, in lexicographic order (read-only:
    every call shares the cached table)."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp).reshape(-1, k)
    perms.flags.writeable = False
    return perms


def hungarian(cost) -> np.ndarray:
    """Minimum-cost permutation of a k x k matrix, or of each matrix in a
    (..., k, k) stack, by a scan over every permutation.

    Per matrix, returns the lexicographically first permutation whose total
    lies within a relative 1e-9 of the minimum, so near-ties from float
    rounding resolve to the same answer every time.  The tolerance scales
    with the minimum total, so a large flat row (say 1e6 in every column)
    widens it to ~1e-3; exclusive_classify's dummy rows cost 0 and do not.
    The result is a new (..., k) intp array: each row's column, per matrix.
    """
    try:
        cost = np.array(cost, dtype=float)
    except ValueError as e:
        raise RankflowError("cost matrix must be square") from e
    if cost.ndim < 2 or cost.shape[-1] != cost.shape[-2]:
        raise RankflowError("cost matrix must be square")
    if not np.isfinite(cost).all():
        raise RankflowError("cost matrix entries must be finite")
    k = cost.shape[-1]
    if not 1 <= k <= MAX_WINDOW:
        raise RankflowError(f"assignment size {k} outside 1..{MAX_WINDOW}")
    perms = _permutations(k)
    totals = cost[..., np.arange(k), perms].sum(axis=-1)
    best = totals.min(axis=-1, keepdims=True)
    within = totals <= best + 1e-9 * np.maximum(1.0, np.abs(best))
    return perms.take(np.argmax(within, axis=-1), axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    # A max is exact in any order, and a reduce down the columns of the
    # transpose runs faster than one along each short row.
    peak = np.maximum.reduce(np.ascontiguousarray(z.reshape(-1, z.shape[-1]).T), axis=0)
    e = np.subtract(z, peak.reshape(z.shape[:-1] + (1,)))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def exclusive_classify(p: np.ndarray, dummy_mask) -> np.ndarray:
    """Assign distinct within-window ranks via Hungarian matching on -log p.

    p: the class probabilities (the softmax of the scorer's logits) of one
    window, W x (W+1), or of a (..., W, W+1) stack of windows, with a dummy
    mask of the same leading shape; returns int labels of that shape.  A
    row's rank is its column in ``hungarian``'s index array plus 1 (rank
    columns are classes 1..W); class 0 overrides it when the row prefers
    non-salient.  Dummy rows cost 0 in every column: a flat row adds the
    same to every permutation, so it never displaces real rows nor widens
    the assignment's tie tolerance.  Dummy rows are forced to label 0.
    """
    p = np.asarray(p, dtype=float)
    w, c = p.shape[-2:]
    if c != w + 1:
        raise RankflowError(f"expected {w}x{w + 1} score matrix, got {w}x{c}")
    dummy = np.asarray(dummy_mask, dtype=bool)
    if dummy.shape != p.shape[:-1]:
        raise RankflowError(f"dummy mask shape {dummy.shape} != score rows {p.shape[:-1]}")
    neglog = -np.log(np.maximum(p, 1e-300))
    cost = np.where(dummy[..., None], 0.0, neglog[..., 1:])
    rank = hungarian(cost) + 1
    p_rank = np.take_along_axis(p, rank[..., None], axis=-1)[..., 0]
    return np.where(dummy | (p[..., 0] > p_rank), 0, rank)


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


def aggregate_votes(members, labels, probs, ids, dummy) -> Ranking:
    """Combine every window's assignment into one Ranking over real proposals.

    members, labels, ids, dummy: (n, W) arrays of the windows' positions, as
    ``window_batch`` builds them (window i starts at position i), and their
    in-window labels, proposal ids and dummy flags; probs: the (n, W, W+1)
    softmax of the windows' scores.
    """
    n, w = members.shape
    flat, lab = members.ravel(), labels.ravel()
    appearances = np.bincount(flat, minlength=n)
    zero_votes = np.bincount(flat[lab == 0], minlength=n)
    rank_sum = np.bincount(flat, weights=lab, minlength=n)
    # bincount adds in input order, so each sum runs window by window.
    salient_prob_sum = np.bincount(flat, weights=1.0 - probs[..., 0].ravel(), minlength=n)

    # Within a window, the lower of two distinct non-zero labels wins the pair.
    a, b = np.triu_indices(w, 1)
    la, lb = labels[:, a], labels[:, b]
    voted = (la > 0) & (lb > 0) & (la != lb)
    winners = np.where(la < lb, members[:, a], members[:, b])[voted]
    losers = np.where(la < lb, members[:, b], members[:, a])[voted]
    wins = np.bincount(winners * n + losers, minlength=n * n).reshape(n, n)
    net = wins - wins.T

    ids, real = ids[:, 0], ~dummy[:, 0]
    short = np.flatnonzero(real & (appearances != w))
    if short.size:
        i = short[0]
        raise RankflowError(f"proposal {ids[i]} appeared in {appearances[i]} windows, expected {w}")

    alive = np.flatnonzero(real & (zero_votes <= w / 2))
    dom = _dominance_counts(net[np.ix_(alive, alive)])
    rank_key = rank_sum + zero_votes * (w + 1)
    alive = alive[np.lexsort((ids[alive], -salient_prob_sum[alive], rank_key[alive], dom))]
    order = np.zeros(n, dtype=int)
    order[alive] = np.arange(1, alive.size + 1)
    return Ranking(dict(zip(ids[real].tolist(), order[real].tolist())))


def window_inputs(features: np.ndarray, member_ids) -> np.ndarray:
    """Per-row scorer input: own 14 features plus 4 window-context entries
    (mean and max of the members' fixation share and map max, columns 0 and 3).

    member_ids: one window's W positions (W x 18 result) or an (n, W) array
    of windows (n x W x 18 result).
    """
    ids = np.asarray(member_ids, dtype=np.intp)
    w, f = ids.shape[-1], features.shape[-1]
    out = np.empty(ids.shape + (f + 4,))
    out[..., :f] = features[ids]
    fs, mm = out[..., 0], out[..., 3]
    # add.reduce / W is how mean computes it; each result fills its column.
    out[..., f] = np.add.reduce(fs, axis=-1, keepdims=True) / w
    out[..., f + 1] = np.maximum.reduce(fs, axis=-1, keepdims=True)
    out[..., f + 2] = np.add.reduce(mm, axis=-1, keepdims=True) / w
    out[..., f + 3] = np.maximum.reduce(mm, axis=-1, keepdims=True)
    return out


def window_batch(scene: Scene, features: np.ndarray, window_size: int = DEFAULT_WINDOW):
    """Every circular window of a scene at once, row i being window i:
    member positions (the intp ACB schedule), proposal ids and dummy flags,
    each (n, W), and the scorer inputs, (n, W, 18).  A scene of fewer than
    W proposals is first padded to W with dummies: zero features and ids
    counting down from its lowest id (from 0 when it has none)."""
    n = len(scene.proposals)
    if features.shape[0] != n:
        raise RankflowError(f"features rows {features.shape[0]} != proposals {n}")
    pad = max(0, check_integer(window_size, "window size", 1, MAX_WINDOW) - n)
    ids = [p.id for p in scene.proposals]
    low = min(ids, default=0)
    ids += range(low - 1, low - 1 - pad, -1)
    dummy = [p.is_dummy for p in scene.proposals] + [True] * pad
    features = np.concatenate([features, np.zeros((pad, features.shape[1]))])
    members = _acb_schedule(len(ids), window_size)
    return members, np.array(ids)[members], np.array(dummy)[members], window_inputs(features, members)


def rank_scene(
    scene: Scene,
    features: np.ndarray,
    scorer,
    window_size: int = DEFAULT_WINDOW,
) -> Ranking:
    """Full inference for one preprocessed scene.

    scorer: callable (ids, inputs) -> logits, called once with every window
    of the scene: ids (n, W) proposal ids, inputs (n, W, 18), logits
    (n, W, W+1), row i being window i.
    Deterministic given scene, features and scorer parameters.
    """
    members, ids, dummy, inputs = window_batch(scene, features, window_size)
    p = softmax(scorer(ids, inputs))
    return aggregate_votes(members, exclusive_classify(p, dummy), p, ids, dummy)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankflow.domain import BBox, Proposal
from rankflow.errors import InvalidWindow, ShapeMismatch
from rankflow.rankcore import (
    WindowAssignment,
    acb_sequences,
    aggregate_votes,
    exclusive_classify,
    hungarian,
    rank_scene,
    softmax,
    window_inputs,
)


def first_within_tolerance(cost):
    """Lexicographically first permutation within a relative 1e-9 of the optimum."""
    k = len(cost)
    perms = list(itertools.permutations(range(k)))
    totals = [sum(cost[i][perm[i]] for i in range(k)) for perm in perms]
    best = min(totals)
    return next(list(p) for p, t in zip(perms, totals) if t <= best + 1e-9 * max(1.0, abs(best)))


def brute_force_assignment(cost):
    k = len(cost)
    best_perm, best_total = None, None
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i][perm[i]] for i in range(k))
        if best_total is None or total < best_total - 1e-12 or (
            abs(total - best_total) <= 1e-12 and list(perm) < best_perm
        ):
            best_perm, best_total = list(perm), total
    return best_perm, best_total


class TestAcbSequences:
    def test_example_n6(self):
        windows = acb_sequences(6, 5)
        assert windows[0].member_ids == (0, 1, 2, 3, 4)
        assert windows[5].member_ids == (5, 0, 1, 2, 3)
        assert len(windows) == 6

    def test_too_few(self):
        with pytest.raises(InvalidWindow):
            acb_sequences(4, 5)

    @pytest.mark.parametrize("w", [-1, 0, 8])
    def test_window_bounds(self, w):
        with pytest.raises(InvalidWindow, match="window size"):
            acb_sequences(10, w)

    @given(st.integers(5, 40))
    def test_uniform_coverage(self, n):
        counts = [0] * n
        for w in acb_sequences(n, 5):
            assert len(set(w.member_ids)) == 5
            for idx in w.member_ids:
                counts[idx] += 1
        assert counts == [5] * n


class TestHungarian:
    def test_hand_example(self):
        perm = hungarian([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
        assert perm == [2, 1, 0]
        cost = [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
        assert sum(cost[i][perm[i]] for i in range(3)) == 10

    def test_all_zero_lexicographic(self):
        assert hungarian([[0.0] * 4 for _ in range(4)]) == [0, 1, 2, 3]

    def test_identity_on_diagonal(self):
        cost = [[0 if i == j else 5 for j in range(5)] for i in range(5)]
        assert hungarian(cost) == [0, 1, 2, 3, 4]

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            hungarian([[1, 2], [3, 4], [5, 6]])

    def test_rejects_nan(self):
        with pytest.raises(ShapeMismatch):
            hungarian([[float("nan"), 1], [1, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(ShapeMismatch):
            hungarian([[1, 2], [3]])

    def test_rejects_more_than_seven(self):
        with pytest.raises(InvalidWindow):
            hungarian(np.zeros((8, 8)))

    def test_dummy_row_tolerance(self):
        # The dummy row makes the tolerance 1e-9 * 1e6 = 1e-3, so the total
        # 5e-4 above the optimum at [1, 0, 2, 3, 4] still counts as optimal and
        # the lexicographically first permutation wins; a plain argmin would
        # return [1, 0, 2, 3, 4].
        cost = [
            [1e6] * 5,
            [0, 0.0005, 5, 5, 5],
            [5, 5, 0, 5, 5],
            [5, 5, 5, 0, 5],
            [5, 5, 5, 5, 0],
        ]
        assert hungarian(cost) == [0, 1, 2, 3, 4]

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_tolerance_oracle(self, k, data):
        # Multiples of 2**-12 keep every total exact, so both sides compare the
        # same numbers; the steps are fine enough to fall inside a dummy row's
        # 1e-3 tolerance.
        step = st.integers(0, 64).map(lambda x: x / 4096)
        cost = [data.draw(st.lists(step, min_size=k, max_size=k)) for _ in range(k)]
        for r in data.draw(st.lists(st.integers(0, k - 1), max_size=k - 1, unique=True)):
            cost[r] = [1e6] * k
        assert hungarian(cost) == first_within_tolerance(cost)

    @given(
        st.integers(2, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120)
    def test_matches_brute_force(self, k, rnd):
        cost = [[rnd.randint(0, 6) * 0.5 for _ in range(k)] for _ in range(k)]
        perm = hungarian(cost)
        oracle_perm, oracle_total = brute_force_assignment(cost)
        assert perm == oracle_perm
        assert sum(cost[i][perm[i]] for i in range(k)) == pytest.approx(oracle_total)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        p = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1000.0]]))
        assert np.allclose(p.sum(axis=1), 1.0)
        assert p[1, 2] == pytest.approx(1.0)

    def test_shift_invariant(self):
        z = np.array([0.3, -1.2, 2.0])
        assert np.allclose(softmax(z), softmax(z + 100.0))


class TestExclusiveClassify:
    def test_clean_diagonal(self):
        # row r strongly prefers rank r+1
        logits = np.full((5, 6), -5.0)
        for r in range(5):
            logits[r, r + 1] = 5.0
        out = exclusive_classify(logits, [False] * 5)
        assert out.labels == (1, 2, 3, 4, 5)

    def test_conflicting_rows_stay_exclusive(self):
        # both rows want rank 1; exclusivity must hold
        logits = np.full((5, 6), 0.0)
        logits[0, 1] = 4.0
        logits[1, 1] = 3.0
        out = exclusive_classify(logits, [False] * 5)
        nonzero = [l for l in out.labels if l > 0]
        assert len(set(nonzero)) == len(nonzero)
        assert out.labels[0] == 1

    def test_class_zero_override(self):
        logits = np.full((5, 6), 0.0)
        logits[2, 0] = 6.0  # row 2 is confident non-salient
        out = exclusive_classify(logits, [False] * 5)
        assert out.labels[2] == 0

    def test_dummy_rows_forced_zero(self):
        logits = np.zeros((5, 6))
        logits[3, 1] = 9.0
        out = exclusive_classify(logits, [False, False, False, True, True])
        assert out.labels[3] == 0 and out.labels[4] == 0

    def test_shape_check(self):
        with pytest.raises(ShapeMismatch):
            exclusive_classify(np.zeros((5, 5)), [False] * 5)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_random_exclusivity(self, rnd):
        logits = np.array(
            [[rnd.uniform(-4, 4) for _ in range(6)] for _ in range(5)]
        )
        dummy = [rnd.random() < 0.2 for _ in range(5)]
        out = exclusive_classify(logits, dummy)
        nonzero = [l for l in out.labels if l > 0]
        assert len(set(nonzero)) == len(nonzero)
        assert all(1 <= l <= 5 for l in nonzero)
        for r, d in enumerate(dummy):
            if d:
                assert out.labels[r] == 0


def _proposals(n):
    return tuple(
        Proposal(id=i, box=BBox(i * 10, 0, i * 10 + 5, 5), detector_confidence=1.0)
        for i in range(n)
    )


class TestWindowAssignment:
    def test_rejects_duplicate_nonzero(self):
        with pytest.raises(InvalidWindow):
            WindowAssignment((1, 1, 0, 2, 3))


class TestAggregateVotes:
    def _uniform_probs(self):
        return np.full((5, 6), 1.0 / 6)

    def test_consistent_windows(self):
        # ground truth order = proposal index order
        n = 6
        proposals = _proposals(n)
        windows = acb_sequences(n, 5)
        results = []
        for w in windows:
            order = sorted(w.member_ids)
            labels = tuple(order.index(m) + 1 for m in w.member_ids)
            results.append((w, WindowAssignment(labels), self._uniform_probs()))
        ranking = aggregate_votes(results, proposals, 5)
        assert ranking.labels == {i: i + 1 for i in range(n)}

    def test_zero_majority_drops_proposal(self):
        n = 5
        proposals = _proposals(n)
        windows = acb_sequences(n, 5)
        results = []
        for w in windows:
            labels = []
            rank = 1
            for m in w.member_ids:
                if m == 4:
                    labels.append(0)
                else:
                    order = sorted(x for x in w.member_ids if x != 4)
                    labels.append(order.index(m) + 1)
            results.append((w, WindowAssignment(tuple(labels)), self._uniform_probs()))
        ranking = aggregate_votes(results, proposals, 5)
        assert ranking.labels[4] == 0
        assert ranking.labels[0] == 1


class TestWindowInputs:
    def test_context_columns(self):
        feats = np.zeros((6, 14))
        feats[:, 0] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.9]
        feats[:, 3] = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        x = window_inputs(feats, (0, 1, 2, 3, 4))
        assert x.shape == (5, 18)
        assert x[0, 14] == pytest.approx(0.3)  # mean fixation share
        assert x[0, 15] == pytest.approx(0.5)  # max fixation share
        assert x[0, 16] == pytest.approx(0.2)  # mean map max
        assert x[0, 17] == pytest.approx(1.0)  # max map max
        assert np.array_equal(x[2, :14], feats[2])


class TestRankSceneOracle:
    def test_oracle_recovers_gt(self):
        from conftest import make_scene
        from rankflow.scorer import oracle_scorer
        from rankflow.domain import Ranking

        n = 7
        boxes = [(i * 12, 0, i * 12 + 10, 10) for i in range(n)]
        scene = make_scene(boxes, width=200, height=50)
        gt = Ranking({i: (i + 1 if i < 4 else 0) for i in range(n)})
        feats = np.zeros((n, 14))
        pred = rank_scene(scene, feats, oracle_scorer(gt), 5)
        assert pred.labels == gt.labels

    def test_shape_mismatch(self):
        from conftest import make_scene
        from rankflow.scorer import oracle_scorer
        from rankflow.domain import Ranking

        scene = make_scene([(0, 0, 10, 10)] )
        with pytest.raises(ShapeMismatch):
            rank_scene(scene, np.zeros((3, 14)), oracle_scorer(Ranking({0: 1})), 5)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import listing_dummies
from rankflow.domain import BBox, Proposal, Ranking, Scene
from rankflow.errors import RankflowError
from rankflow.rankcore import (
    _acb_schedule,
    _dominance_counts,
    acb_sequences,
    aggregate_votes,
    exclusive_classify,
    hungarian,
    rank_scene,
    softmax,
    window_batch,
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
        with pytest.raises(RankflowError, match="need at least 5 proposals, got 4"):
            acb_sequences(4, 5)

    @pytest.mark.parametrize("w", [-1, 0, 8])
    def test_window_bounds(self, w):
        with pytest.raises(RankflowError, match="window size"):
            acb_sequences(10, w)

    @given(st.integers(5, 40))
    def test_uniform_coverage(self, n):
        counts = [0] * n
        for w in acb_sequences(n, 5):
            assert len(set(w.member_ids)) == 5
            for idx in w.member_ids:
                counts[idx] += 1
        assert counts == [5] * n

    @pytest.mark.parametrize("w", range(1, 8))
    def test_schedule_rows_are_the_windows(self, w):
        """The ACB schedule, its Window view and window_batch's members hold
        the same rows, for a scene shorter than W too (padded to W)."""
        for n in range(21):
            m = max(n, w)  # positions after padding
            want = [tuple((i + k) % m for k in range(w)) for i in range(m)]
            scene = Scene("s", 10, 10, tuple(Proposal(i, BBox(0, 0, 1, 1)) for i in range(n)), [], None)
            members = window_batch(scene, np.zeros((n, 14)), w)[0]
            assert members.dtype == np.intp and list(map(tuple, members.tolist())) == want
            if n >= w:
                schedule = _acb_schedule(n, w)
                assert schedule.dtype == np.intp and list(map(tuple, schedule.tolist())) == want
                assert [win.member_ids for win in acb_sequences(n, w)] == want


class TestHungarian:
    def test_hand_example(self):
        perm = hungarian([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
        assert perm.dtype == np.intp and perm.flags.writeable  # a copy, not the cached table's row
        assert perm.tolist() == [2, 1, 0]
        cost = [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
        assert sum(cost[i][perm[i]] for i in range(3)) == 10

    def test_all_zero_lexicographic(self):
        assert hungarian([[0.0] * 4 for _ in range(4)]).tolist() == [0, 1, 2, 3]

    def test_identity_on_diagonal(self):
        cost = [[0 if i == j else 5 for j in range(5)] for i in range(5)]
        assert hungarian(cost).tolist() == [0, 1, 2, 3, 4]

    def test_rejects_non_square(self):
        with pytest.raises(RankflowError, match="cost matrix must be square"):
            hungarian([[1, 2], [3, 4], [5, 6]])

    def test_rejects_nan(self):
        with pytest.raises(RankflowError, match="cost matrix entries must be finite"):
            hungarian([[float("nan"), 1], [1, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(RankflowError, match="cost matrix must be square"):
            hungarian([[1, 2], [3]])

    def test_rejects_more_than_seven(self):
        with pytest.raises(RankflowError, match=r"assignment size 8 outside 1\.\.7"):
            hungarian(np.zeros((8, 8)))

    def test_dummy_row_tolerance(self):
        # A large flat row (1e6 in every column; exclusive_classify's dummy
        # rows now cost 0) makes the tolerance 1e-9 * 1e6 = 1e-3, so the total
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
        assert hungarian(cost).tolist() == [0, 1, 2, 3, 4]

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_tolerance_oracle(self, k, data):
        # Multiples of 2**-12 keep every total exact, so both sides compare the
        # same numbers; the steps are fine enough to fall inside the 1e-3
        # tolerance that a large flat 1e6 row gives.
        step = st.integers(0, 64).map(lambda x: x / 4096)
        cost = [data.draw(st.lists(step, min_size=k, max_size=k)) for _ in range(k)]
        for r in data.draw(st.lists(st.integers(0, k - 1), max_size=k - 1, unique=True)):
            cost[r] = [1e6] * k
        assert hungarian(cost).tolist() == first_within_tolerance(cost)

    @given(
        st.integers(2, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120)
    def test_matches_brute_force(self, k, rnd):
        cost = [[rnd.randint(0, 6) * 0.5 for _ in range(k)] for _ in range(k)]
        perm = hungarian(cost)
        oracle_perm, oracle_total = brute_force_assignment(cost)
        assert perm.tolist() == oracle_perm
        assert sum(cost[i][perm[i]] for i in range(k)) == pytest.approx(oracle_total)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_stack_matches_per_matrix(self, k):
        # Tie-heavy entries and large flat 1e6 rows, which widen the tolerance
        # (exclusive_classify's dummy rows cost 0 and build no such rows).
        rng = np.random.default_rng(k)
        stack = rng.integers(0, 4, size=(40, k, k)) / 2.0
        stack[rng.random((40, k)) < 0.3] = 1e6
        perms = hungarian(stack)
        assert perms.dtype == np.intp and perms.shape == (40, k)
        assert perms.tolist() == [hungarian(cost).tolist() for cost in stack]

    def test_stack_checks_every_matrix(self):
        stack = np.zeros((3, 4, 4))
        stack[2, 1, 1] = np.inf
        with pytest.raises(RankflowError, match="cost matrix entries must be finite"):
            hungarian(stack)
        with pytest.raises(RankflowError, match="cost matrix must be square"):
            hungarian(np.zeros((3, 4, 5)))
        with pytest.raises(RankflowError, match=r"assignment size 8 outside 1\.\.7"):
            hungarian(np.zeros((2, 8, 8)))


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
        out = exclusive_classify(softmax(logits), [False] * 5)
        assert out.tolist() == [1, 2, 3, 4, 5]

    def test_conflicting_rows_stay_exclusive(self):
        # both rows want rank 1; exclusivity must hold
        logits = np.full((5, 6), 0.0)
        logits[0, 1] = 4.0
        logits[1, 1] = 3.0
        out = exclusive_classify(softmax(logits), [False] * 5)
        nonzero = [l for l in out if l > 0]
        assert len(set(nonzero)) == len(nonzero)
        assert out[0] == 1

    def test_class_zero_override(self):
        logits = np.full((5, 6), 0.0)
        logits[2, 0] = 6.0  # row 2 is confident non-salient
        out = exclusive_classify(softmax(logits), [False] * 5)
        assert out[2] == 0

    def test_dummy_rows_forced_zero(self):
        logits = np.zeros((5, 6))
        logits[3, 1] = 9.0
        out = exclusive_classify(softmax(logits), [False, False, False, True, True])
        assert out[3] == 0 and out[4] == 0

    def test_dummy_row_leaves_the_real_rows_optimal(self):
        # The real rows' optimum gives row 1 rank 1 and is 5e-4 below the
        # lexicographically first permutation, which gives it rank 2; a dummy
        # row must not widen the tie tolerance enough to take the latter.
        cost = np.full((5, 5), 5.0)
        cost[1, :2] = [0.0, 0.0005]
        cost[2, 2] = cost[3, 3] = cost[4, 4] = 0.0
        logits = np.column_stack([np.full(5, -20.0), -cost])
        out = exclusive_classify(softmax(logits), [True, False, False, False, False])
        assert out.tolist() == [0, 1, 3, 4, 5]

    def test_shape_check(self):
        with pytest.raises(RankflowError, match="expected 5x6 score matrix, got 5x5"):
            exclusive_classify(np.zeros((5, 5)), [False] * 5)

    def test_mask_shape_check(self):
        with pytest.raises(RankflowError, match=r"dummy mask shape \(5,\) != score rows \(3, 5\)"):
            exclusive_classify(np.zeros((3, 5, 6)), [False] * 5)

    def test_stack_matches_per_window(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(scale=3.0, size=(300, 5, 6))
        logits[::3] = np.round(logits[::3])  # exact ties
        dummy = rng.random((300, 5)) < 0.2
        labels = exclusive_classify(softmax(logits), dummy)
        assert labels.shape == (300, 5)
        assert labels.dtype.kind == "i"
        for x, mask, row in zip(logits, dummy, labels):
            assert np.array_equal(exclusive_classify(softmax(x), mask), row)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_random_exclusivity(self, rnd):
        logits = np.array(
            [[rnd.uniform(-4, 4) for _ in range(6)] for _ in range(5)]
        )
        dummy = [rnd.random() < 0.2 for _ in range(5)]
        out = exclusive_classify(softmax(logits), dummy)
        nonzero = [l for l in out if l > 0]
        assert len(set(nonzero)) == len(nonzero)
        assert all(1 <= l <= 5 for l in nonzero)
        for r, d in enumerate(dummy):
            if d:
                assert out[r] == 0


def _proposals(n):
    return tuple(
        Proposal(id=i, box=BBox(i * 10, 0, i * 10 + 5, 5), detector_confidence=1.0)
        for i in range(n)
    )


def _per_member(members, proposals):
    """The (n, W) proposal ids and dummy flags of each window member."""
    return np.array([p.id for p in proposals])[members], np.array([p.is_dummy for p in proposals])[members]


def reference_aggregate(members, labels, probs, ids, dummy):
    """aggregate_votes in its per-proposal loop form: vote counts as in the
    array form, pairwise wins counted pair by pair in each window, then a
    coverage loop, an ``alive`` list, an ``order_key`` dict sort and a loop
    that fills the ranks."""
    proposals = [
        Proposal(id=int(pid), box=None, is_dummy=True) if d else Proposal(id=int(pid), box=BBox(0, 0, 1, 1))
        for pid, d in zip(ids[:, 0], dummy[:, 0])
    ]
    n = len(proposals)
    w = members.shape[-1]
    flat, lab = members.ravel(), labels.ravel()
    appearances = np.bincount(flat, minlength=n)
    zero_votes = np.bincount(flat[lab == 0], minlength=n)
    rank_sum = np.bincount(flat, weights=lab, minlength=n)
    salient_prob_sum = np.bincount(flat, weights=1.0 - probs[..., 0].ravel(), minlength=n)
    wins = np.zeros((n, n), dtype=int)
    for row, row_labels in zip(members.tolist(), labels.tolist()):
        for (i, li), (j, lj) in itertools.combinations(zip(row, row_labels), 2):
            if li > 0 and lj > 0 and li != lj:  # the lower label wins the pair
                winner, loser = (i, j) if li < lj else (j, i)
                wins[winner, loser] += 1
    net = wins - wins.T

    for idx, p in enumerate(proposals):
        if not p.is_dummy and n >= w and appearances[idx] != w:
            raise RankflowError(
                f"proposal {p.id} appeared in {appearances[idx]} windows, expected {w}"
            )

    alive = [
        idx
        for idx, p in enumerate(proposals)
        if not p.is_dummy and zero_votes[idx] <= w / 2
    ]
    dom = _dominance_counts(net[np.ix_(alive, alive)]) if alive else np.zeros(0, int)
    order_key = {
        idx: (
            int(dom[pos]),
            rank_sum[idx] + zero_votes[idx] * (w + 1),
            -salient_prob_sum[idx],
            proposals[idx].id,
        )
        for pos, idx in enumerate(alive)
    }
    alive.sort(key=order_key.__getitem__)

    ranks = {p.id: 0 for p in proposals if not p.is_dummy}
    for order, idx in enumerate(alive, start=1):
        ranks[proposals[idx].id] = order
    return Ranking(ranks)


@st.composite
def vote_cases(draw):
    """Circular windows over n = W..2W+5 positions, some of them dummies,
    with free (non-exclusive) labels: equal labels, zero-vote majorities and
    vote cycles all occur.  Probabilities take one, two or five levels, so
    the probability-sum and id tie-breaks decide some orders."""
    w = draw(st.integers(1, 7))
    n = draw(st.integers(w, 2 * w + 5))
    members = np.array([win.member_ids for win in acb_sequences(n, w)])
    zero_weight = draw(st.integers(0, 3))
    label = st.integers(-zero_weight, w).map(lambda x: max(x, 0))
    labels = np.array(draw(st.lists(label, min_size=n * w, max_size=n * w))).reshape(n, w)
    levels = draw(st.sampled_from([[0.5], [0.0, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]]))
    p0 = draw(st.lists(st.sampled_from(levels), min_size=n * w, max_size=n * w))
    probs = np.zeros((n, w, w + 1))
    probs[..., 0] = np.reshape(p0, (n, w))
    ids = draw(st.permutations(range(100, 100 + n)))
    dummies = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    proposals = tuple(
        Proposal(id=pid, box=None, is_dummy=True) if d else Proposal(id=pid, box=BBox(0, 0, 1, 1))
        for pid, d in zip(ids, dummies)
    )
    return members, labels, probs, *_per_member(members, proposals)


class TestAggregateVotes:
    def _uniform_probs(self, n):
        return np.full((n, 5, 6), 1.0 / 6)

    def test_consistent_windows(self):
        # ground truth order = proposal index order
        n = 6
        proposals = _proposals(n)
        windows = acb_sequences(n, 5)
        members, labels = [], []
        for w in windows:
            order = sorted(w.member_ids)
            members.append(w.member_ids)
            labels.append([order.index(m) + 1 for m in w.member_ids])
        members = np.array(members)
        ranking = aggregate_votes(members, np.array(labels), self._uniform_probs(n), *_per_member(members, proposals))
        assert ranking.labels == {i: i + 1 for i in range(n)}

    def test_zero_majority_drops_proposal(self):
        n = 5
        proposals = _proposals(n)
        windows = acb_sequences(n, 5)
        members, all_labels = [], []
        for w in windows:
            labels = []
            rank = 1
            for m in w.member_ids:
                if m == 4:
                    labels.append(0)
                else:
                    order = sorted(x for x in w.member_ids if x != 4)
                    labels.append(order.index(m) + 1)
            members.append(w.member_ids)
            all_labels.append(labels)
        members = np.array(members)
        probs = self._uniform_probs(n)
        ranking = aggregate_votes(members, np.array(all_labels), probs, *_per_member(members, proposals))
        assert ranking.labels[4] == 0
        assert ranking.labels[0] == 1


    @given(vote_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_reference(self, case):
        assert aggregate_votes(*case).labels == reference_aggregate(*case).labels

    def test_short_coverage_names_the_proposal(self):
        # In window 0 the dummy at position 1 takes the place of proposal 13
        # (position 3), so 13 appears W-1 = 4 times.  The dummy's sixth
        # appearance is allowed, though its position comes first.
        n = 6
        proposals = tuple(
            Proposal(id=10 + i, box=None, is_dummy=True) if i == 1 else Proposal(id=10 + i, box=BBox(0, 0, 1, 1))
            for i in range(n)
        )
        members = np.array([win.member_ids for win in acb_sequences(n, 5)])
        members[0, 3] = 1
        labels = np.tile(np.arange(1, 6), (n, 1))
        with pytest.raises(RankflowError, match=r"^proposal 13 appeared in 4 windows, expected 5$"):
            aggregate_votes(members, labels, self._uniform_probs(n), *_per_member(members, proposals))


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

    @pytest.mark.parametrize("w", [3, 5, 7])
    def test_stack_matches_per_window(self, w):
        feats = np.random.default_rng(w).random((11, 14))
        windows = acb_sequences(11, w)
        stacked = window_inputs(feats, np.array([win.member_ids for win in windows]))
        assert stacked.shape == (11, w, 18)
        for win, x in zip(windows, stacked):
            assert np.array_equal(window_inputs(feats, win.member_ids), x)


    @pytest.mark.parametrize("w", range(1, 8))
    def test_bytes_match_stack_formula(self, w):
        # Reference: the stack/concatenate formula, whose bytes window_inputs keeps.
        def reference(features, member_ids):
            rows = features[np.asarray(member_ids, dtype=np.intp)]
            fs, mm = rows[..., 0], rows[..., 3]
            ctx = np.stack([fs.mean(axis=-1), fs.max(axis=-1), mm.mean(axis=-1), mm.max(axis=-1)], axis=-1)
            return np.concatenate([rows, np.broadcast_to(ctx[..., None, :], (*rows.shape[:-1], 4))], axis=-1)

        feats = np.random.default_rng(w).random((9, 14)) * [1e3] + np.arange(14) * 1e-7
        members = np.array([win.member_ids for win in acb_sequences(9, w)])
        for ids in (members[0], tuple(members[4]), members):
            got, want = window_inputs(feats, ids), reference(feats, ids)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


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
        with pytest.raises(RankflowError, match="features rows 3 != proposals"):
            rank_scene(scene, np.zeros((3, 14)), oracle_scorer(Ranking({0: 1})), 5)


class TestRankSceneBatch:
    def test_one_scorer_call_per_scene(self):
        from conftest import make_scene
        from rankflow.domain import Ranking
        from rankflow.scorer import oracle_scorer

        n = 7
        scene = make_scene([(i * 12, 0, i * 12 + 10, 10) for i in range(n)], width=200, height=50)
        feats = np.random.default_rng(0).random((n, 14))
        gt = Ranking({i: (i + 1 if i < 4 else 0) for i in range(n)})
        oracle = oracle_scorer(gt)
        calls = []

        def scorer(ids, inputs):
            calls.append((np.array(ids), np.array(inputs)))
            return oracle(ids, inputs)

        assert rank_scene(scene, feats, scorer, 5).labels == gt.labels
        assert len(calls) == 1
        ids, inputs = calls[0]
        windows = acb_sequences(n, 5)
        assert ids.tolist() == [list(w.member_ids) for w in windows]
        assert inputs.shape == (n, 5, 18)
        for w, x in zip(windows, inputs):
            assert np.array_equal(window_inputs(feats, w.member_ids), x)

    def test_batch_rows_follow_windows(self):
        from conftest import make_scene

        scene = listing_dummies(make_scene([(0, 0, 10, 10), (20, 0, 30, 10)]), 5)
        members, ids, dummy, inputs = window_batch(scene, np.zeros((5, 14)), 3)
        assert members.tolist() == [list(w.member_ids) for w in acb_sequences(5, 3)]
        assert ids.tolist() == [[scene.proposals[i].id for i in row] for row in members.tolist()]
        assert dummy.tolist() == [[scene.proposals[i].is_dummy for i in row] for row in members.tolist()]
        assert inputs.shape == (5, 3, 18)

    def test_per_window_logits_rejected(self):
        from conftest import make_scene

        scene = make_scene([(i * 12, 0, i * 12 + 10, 10) for i in range(6)], width=200, height=50)
        with pytest.raises(RankflowError, match=r"dummy mask shape \(6, 5\) != score rows \(5,\)"):
            rank_scene(scene, np.zeros((6, 14)), lambda ids, inputs: np.zeros((5, 6)), 5)


def reference_window_batch(scene: Scene, features, window_size: int):
    """``window_batch`` as it was before it padded: a scene of at least W
    proposals only."""
    members = np.array([w.member_ids for w in acb_sequences(len(scene.proposals), window_size)], dtype=np.intp)
    ids = np.array([q.id for q in scene.proposals])[members]
    dummy = np.array([q.is_dummy for q in scene.proposals])[members]
    return members, ids, dummy, window_inputs(features, members)


@st.composite
def window_scenes(draw, short: bool):
    """A window size W, a scene of distinct ids (some of them dummies) with
    fewer than W entries when ``short``, else W..2W+3, and its features."""
    w = draw(st.integers(1, 7))
    n = draw(st.integers(0, w - 1) if short else st.integers(w, 2 * w + 3))
    ids = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    dummies = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    proposals = tuple(
        Proposal(pid, None, is_dummy=True) if d else Proposal(pid, BBox(0, 0, 1, 1)) for pid, d in zip(ids, dummies)
    )
    feats = np.array(draw(st.lists(st.floats(0, 1), min_size=n * 14, max_size=n * 14))).reshape(n, 14)
    feats[np.array(dummies, dtype=bool)] = 0.0
    return w, Scene("s", 10, 10, proposals, [], None), feats


class TestWindowPadding:
    @given(window_scenes(short=True))
    @settings(max_examples=150, deadline=None)
    def test_short_scene_is_padded_to_the_window(self, case):
        w, scene, feats = case
        n = len(scene.proposals)
        members, ids, dummy, inputs = window_batch(scene, feats, w)
        assert members.shape == ids.shape == dummy.shape == (w, w)
        assert members.min() >= 0 and members.max() <= w - 1
        low = min((q.id for q in scene.proposals), default=0)
        by_position = dict(zip(members.ravel().tolist(), zip(ids.ravel().tolist(), dummy.ravel().tolist())))
        assert [by_position[i] for i in range(w)] == (
            [(q.id, q.is_dummy) for q in scene.proposals] + [(low - 1 - k, True) for k in range(w - n)]
        )
        assert not inputs[members >= n][:, :14].any()  # a pad's own features are zero
        # The windows of the scene as an older preprocess padded it to W.
        padded = reference_window_batch(listing_dummies(scene, w), np.vstack([feats, np.zeros((w - n, 14))]), w)
        for got, want in zip((members, ids, dummy, inputs), padded):
            assert np.array_equal(got, want)

    @given(window_scenes(short=False))
    @settings(max_examples=60, deadline=None)
    def test_scene_of_the_window_or_more_is_not_padded(self, case):
        w, scene, feats = case
        for got, want in zip(window_batch(scene, feats, w), reference_window_batch(scene, feats, w)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.integers(0, 4), st.integers(5, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_listed_dummies_rank_as_padding(self, n, w, seed):
        """A scene that lists dummies, as an older preprocess wrote them at
        its minimum of 5, ranks as that scene without them, at every window
        size that older code accepted."""
        from rankflow.scorer import init_model, make_scorer, oracle_scorer

        rng = np.random.default_rng(seed)
        scene = Scene("s", 100, 100, tuple(Proposal(10 + 3 * i, BBox(i, 0, i + 1, 1)) for i in range(n)), [], None)
        feats = rng.random((n, 14))
        listed = listing_dummies(scene, 5)
        listed_feats = np.vstack([feats, np.zeros((5 - n, 14))])
        gt = Ranking({q.id: int(o) for q, o in zip(scene.proposals, rng.permutation(n))})
        model = init_model(n_classes=w + 1, seed=seed % 1000)
        for scorer in (make_scorer(model), oracle_scorer(gt)):
            assert rank_scene(listed, listed_feats, scorer, w) == rank_scene(scene, feats, scorer, w)

    def test_window_size_is_checked_before_padding(self):
        scene = Scene("s", 10, 10, (), [], None)
        with pytest.raises(RankflowError, match="window size must be at most 7, got 10000000000"):
            window_batch(scene, np.zeros((0, 14)), 10**10)

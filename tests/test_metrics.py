import numpy as np
import pytest

from oracles import brute_force_matching_accuracy, direct_ari, direct_nmi
from otsc.metrics import evaluate

PINNED_TRUE = np.array([0, 0, 1, 1])
PINNED_PRED = np.array([0, 1, 1, 1])
# frozen from the direct-formula oracles on the 2x2 contingency [[1,1],[0,2]]
PINNED_NMI = 0.3437110184854507
PINNED_ARI = 0.0


class TestEvaluate:
    def test_perfect_agreement(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        rep = evaluate(y, y)
        assert rep.nmi == 1.0
        assert rep.acc == 1.0
        assert rep.ari == 1.0

    def test_label_permutation_invariance(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        relabeled = np.array([2, 2, 0, 0, 1, 1])
        rep = evaluate(y, relabeled)
        assert rep.nmi == pytest.approx(1.0)
        assert rep.acc == 1.0
        assert rep.ari == pytest.approx(1.0)

    def test_pinned_hand_example(self):
        rep = evaluate(PINNED_TRUE, PINNED_PRED)
        assert rep.acc == 0.75
        assert np.array_equal(rep.contingency, [[1, 1], [0, 2]])
        assert rep.nmi == pytest.approx(PINNED_NMI, abs=1e-12)
        assert rep.ari == pytest.approx(PINNED_ARI, abs=1e-12)

    def test_pinned_values_match_direct_oracles(self):
        assert direct_nmi(PINNED_TRUE, PINNED_PRED) == pytest.approx(PINNED_NMI, abs=1e-12)
        assert direct_ari(PINNED_TRUE, PINNED_PRED) == pytest.approx(PINNED_ARI, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 3, size=30)
            r1 = evaluate(a, b)
            r2 = evaluate(b, a)
            assert r1.nmi == pytest.approx(r2.nmi, abs=1e-12)
            assert r1.ari == pytest.approx(r2.ari, abs=1e-12)

    def test_matching_maps_predicted_to_true(self):
        rep = evaluate(PINNED_TRUE, PINNED_PRED)
        assert rep.matching == {0: 0, 1: 1}
        matched = sum(
            int(np.sum((PINNED_PRED == p) & (PINNED_TRUE == t)))
            for p, t in rep.matching.items()
        )
        assert matched / 4 == rep.acc

    def test_single_cluster_conventions(self):
        ones = np.zeros(5, dtype=int)
        rep = evaluate(ones, ones)
        assert rep.nmi == 1.0
        assert rep.ari == 1.0
        assert rep.acc == 1.0
        mixed = evaluate(ones, np.array([0, 1, 0, 1, 0]))
        assert mixed.nmi == 0.0

    def test_a_single_sample_agrees_with_itself(self):
        # one sample has no pair, so the ARI's pair counts are all 0
        rep = evaluate([3], [7])
        assert (rep.nmi, rep.acc, rep.ari) == (1.0, 1.0, 1.0)
        assert rep.matching == {7: 3}

    def test_contingency_sums_to_n(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, size=40)
        b = rng.integers(0, 7, size=40)
        assert evaluate(a, b).contingency.sum() == 40

    def test_errors(self):
        with pytest.raises(ValueError):
            evaluate([0, 1], [0])
        with pytest.raises(ValueError):
            evaluate([], [])


class TestHungarianAgainstBruteForce:
    def test_matches_exhaustive_matching(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k_true = int(rng.integers(2, 7))
            k_pred = int(rng.integers(2, 7))
            n = int(rng.integers(8, 30))
            y_true = rng.integers(0, k_true, size=n)
            y_pred = rng.integers(0, k_pred, size=n)
            rep = evaluate(y_true, y_pred)
            assert rep.acc == pytest.approx(
                brute_force_matching_accuracy(y_true, y_pred), abs=1e-12
            )

    def test_at_least_greedy_one_to_one(self):
        # the optimal matching can never lose to the greedy one-to-one
        # matching that repeatedly takes the largest remaining cell
        rng = np.random.default_rng(3)
        for _ in range(30):
            y_true = rng.integers(0, 4, size=50)
            y_pred = rng.integers(0, 4, size=50)
            rep = evaluate(y_true, y_pred)
            table = rep.contingency.astype(float).copy()
            greedy = 0.0
            for _ in range(min(table.shape)):
                i, j = np.unravel_index(np.argmax(table), table.shape)
                greedy += table[i, j]
                table[i, :] = -1.0
                table[:, j] = -1.0
            assert rep.acc >= greedy / 50 - 1e-12

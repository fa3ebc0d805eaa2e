"""Kernel contracts, and agreement with the brute-force loop oracles."""

import numpy as np
import pytest

import reference_kernels
from venuerec import _kernels
from venuerec.ltr.mart import fit_tree


def leaf_tree_arrays():
    return (np.array([-1], dtype=np.int64), np.zeros(1),
            np.array([-1], dtype=np.int64), np.array([-1], dtype=np.int64),
            np.array([3.5]))


def stump_arrays():
    # split on column 0 at 0.5; leaves hold 1.0 (left) and 2.0 (right)
    return (np.array([0, -1, -1], dtype=np.int64),
            np.array([0.5, 0.0, 0.0]),
            np.array([1, -1, -1], dtype=np.int64),
            np.array([2, -1, -1], dtype=np.int64),
            np.array([0.0, 1.0, 2.0]))


class TestCosineScores:

    def test_matches_hand_cosines(self):
        matrix = np.array([[3.0, 4.0], [1.0, 0.0]])
        norms = np.array([5.0, 1.0])
        got = _kernels.cosine_scores(matrix, norms, np.array([0.0, 2.0]))
        assert got == pytest.approx([0.8, 0.0], abs=1e-15)

    def test_zero_query_scores_zero(self):
        matrix = np.array([[1.0, 1.0]])
        got = _kernels.cosine_scores(matrix, np.array([np.sqrt(2.0)]),
                                     np.zeros(2))
        assert got.tolist() == [0.0]

    def test_zero_norm_row_scores_zero(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        got = _kernels.cosine_scores(matrix, np.array([0.0, 1.0]),
                                     np.array([1.0, 0.0]))
        assert got.tolist() == [0.0, 1.0]

    def test_scores_clamp_to_unit_range(self):
        # norms come from the caller, so a ratio can overshoot [-1, 1]
        matrix = np.array([[1.0, 0.0], [-1.0, 0.0]])
        norms = np.array([0.5, 0.5])
        got = _kernels.cosine_scores(matrix, norms, np.array([2.0, 0.0]))
        assert got.tolist() == [1.0, -1.0]


class TestBestSplit:

    def test_clean_two_block_column(self):
        values = np.array([0.0, 0.0, 1.0, 1.0])
        targets = np.array([1.0, 1.0, 5.0, 5.0])
        # 2/2 split: 4/2 + 100/2 - 144/4
        assert _kernels.best_split(values, targets, 1) == (16.0, 2)

    def test_equal_adjacent_values_are_not_cut_points(self):
        values = np.zeros(6)
        targets = np.arange(6.0)
        assert _kernels.best_split(values, targets, 1) == (0.0, 0)

    def test_constant_targets_gain_nothing(self):
        values = np.arange(5.0)
        targets = np.full(5, 0.7)
        gain, pos = _kernels.best_split(values, targets, 1)
        assert pos == 0
        assert gain == 0.0

    def test_too_few_rows_for_min_leaf(self):
        values = np.array([0.0, 1.0, 2.0])
        targets = np.array([0.0, 1.0, 2.0])
        assert _kernels.best_split(values, targets, 2) == (0.0, 0)

    def test_min_leaf_narrows_the_cut_range(self):
        values = np.arange(4.0)
        targets = np.array([9.0, 0.0, 0.0, 0.0])
        # best cut (pos 1) is forbidden; 2/2 is the only legal one
        gain, pos = _kernels.best_split(values, targets, 2)
        assert pos == 2
        assert gain == pytest.approx(81.0 / 2 - 81.0 / 4)

    def test_equal_gains_take_the_lowest_cut(self):
        values = np.arange(4.0)
        targets = np.array([1.0, 0.0, 0.0, 1.0])
        gain, pos = _kernels.best_split(values, targets, 1)
        assert pos == 1
        assert gain == pytest.approx(1.0 / 3.0)


class TestApplyTree:

    def test_single_leaf_broadcasts(self):
        X = np.random.default_rng(0).random((5, 3))
        out = _kernels.apply_tree(*leaf_tree_arrays(), X)
        assert out.tolist() == [3.5] * 5

    def test_stump_routes_boundary_left(self):
        X = np.array([[0.4], [0.5], [0.6]])
        out = _kernels.apply_tree(*stump_arrays(), X)
        assert out.tolist() == [1.0, 1.0, 2.0]

    def test_depth_two_routing(self):
        # root on col 0, right child splits on col 1
        arrays = (np.array([0, -1, 1, -1, -1], dtype=np.int64),
                  np.array([0.0, 0.0, 10.0, 0.0, 0.0]),
                  np.array([1, -1, 3, -1, -1], dtype=np.int64),
                  np.array([2, -1, 4, -1, -1], dtype=np.int64),
                  np.array([0.0, -1.0, 0.0, 5.0, 6.0]))
        X = np.array([[-1.0, 0.0], [1.0, 10.0], [1.0, 10.5]])
        out = _kernels.apply_tree(*arrays, X)
        assert out.tolist() == [-1.0, 5.0, 6.0]


class TestReferenceAgreement:
    """The numpy kernels match the element-by-element loops."""

    def test_cosine_scores_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            matrix = rng.normal(size=(40, 8))
            matrix[rng.integers(40)] = 0.0
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            query = rng.normal(size=8)
            a = _kernels.cosine_scores(matrix, norms, query)
            b = reference_kernels.cosine_scores(matrix, norms, query)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_best_split_agrees_exactly_on_integer_targets(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            values = np.sort(rng.integers(0, 6, size=n).astype(np.float64))
            targets = rng.integers(-3, 4, size=n).astype(np.float64)
            min_leaf = int(rng.integers(1, 4))
            a = _kernels.best_split(values, targets, min_leaf)
            b = reference_kernels.best_split(values, targets, min_leaf)
            assert a == b

    def test_best_split_gains_agree_on_float_targets(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            values = np.sort(rng.normal(size=n))
            targets = rng.normal(size=n)
            ga, _pa = _kernels.best_split(values, targets, 1)
            gb, _pb = reference_kernels.best_split(values, targets, 1)
            assert ga == pytest.approx(gb, rel=1e-9, abs=1e-12)

    def test_apply_tree_is_bit_exact(self):
        # routing only compares and gathers, so the loop cannot drift
        rng = np.random.default_rng(14)
        for _ in range(10):
            X = rng.normal(size=(60, 5))
            resid = rng.normal(size=60)
            tree = fit_tree(X, resid, max_leaves=6, min_leaf=2)
            arrays = tree.arrays()
            a = _kernels.apply_tree(*arrays, X)
            b = reference_kernels.apply_tree(*arrays, X)
            np.testing.assert_array_equal(a, b)

    def test_kernels_are_deterministic(self):
        rng = np.random.default_rng(15)
        matrix = rng.normal(size=(25, 6))
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        query = rng.normal(size=6)
        first = _kernels.cosine_scores(matrix, norms, query)
        again = _kernels.cosine_scores(matrix, norms, query)
        np.testing.assert_array_equal(first, again)

"""Kernel contracts, and agreement with the brute-force loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_kernels
from reference_models import presort
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


def search_column(values, targets, min_leaf):
    """The per-node search on one ascending column, as ``(gain, cut)``."""
    order = np.arange(values.shape[0], dtype=np.int32)[None, :]
    gains, cuts = _kernels.best_split(values[:, None], order, targets,
                                      min_leaf)
    return float(gains[0]), int(cuts[0])


def column_searches(X, order, targets, min_leaf):
    """``(gain, cut)`` of each feature, one feature at a time, from the
    one-feature numpy search."""
    return [reference_kernels.numpy_best_split(X[rows, j], targets[rows],
                                               min_leaf)
            for j, rows in enumerate(order)]


class TestBestSplit:

    def test_clean_two_block_column(self):
        values = np.array([0.0, 0.0, 1.0, 1.0])
        targets = np.array([1.0, 1.0, 5.0, 5.0])
        # 2/2 split: 4/2 + 100/2 - 144/4
        assert search_column(values, targets, 1) == (16.0, 2)

    def test_equal_adjacent_values_are_not_cut_points(self):
        values = np.zeros(6)
        targets = np.arange(6.0)
        assert search_column(values, targets, 1) == (0.0, 0)

    def test_constant_targets_gain_nothing(self):
        values = np.arange(5.0)
        targets = np.full(5, 0.7)
        gain, pos = search_column(values, targets, 1)
        assert pos == 0
        assert gain == 0.0

    def test_too_few_rows_for_min_leaf(self):
        values = np.array([0.0, 1.0, 2.0])
        targets = np.array([0.0, 1.0, 2.0])
        assert search_column(values, targets, 2) == (0.0, 0)

    def test_min_leaf_narrows_the_cut_range(self):
        values = np.arange(4.0)
        targets = np.array([9.0, 0.0, 0.0, 0.0])
        # best cut (pos 1) is forbidden; 2/2 is the only legal one
        gain, pos = search_column(values, targets, 2)
        assert pos == 2
        assert gain == pytest.approx(81.0 / 2 - 81.0 / 4)

    def test_equal_gains_take_the_lowest_cut(self):
        values = np.arange(4.0)
        targets = np.array([1.0, 0.0, 0.0, 1.0])
        gain, pos = search_column(values, targets, 1)
        assert pos == 1
        assert gain == pytest.approx(1.0 / 3.0)

    def test_features_are_searched_independently(self):
        # column 0 is constant, 1 splits 2/2, 2 is tied except its last row
        X = np.array([[5.0, 0.0, 1.0], [5.0, 0.0, 1.0], [5.0, 1.0, 1.0],
                      [5.0, 1.0, 2.0]])
        targets = np.array([1.0, 1.0, 5.0, 5.0])
        gains, cuts = _kernels.best_split(X, presort(X), targets, 1)
        assert cuts.tolist() == [0, 2, 3]
        assert gains.tolist() == [0.0, 16.0, 49.0 / 3.0 + 25.0 - 36.0]


@st.composite
def nodes(draw):
    """A matrix, its targets, and a node: a subset of the rows in the
    per-feature order `fit_tree` would hand down, with `min_leaf`.

    Columns are distinct, tied, constant or zero, so some features are
    constant at the node; targets are integers or arbitrary floats.
    """
    n_all = draw(st.integers(1, 60))
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ("distinct", "tied", "constant", "zero")), min_size=1,
            max_size=6)):
        if kind == "distinct":
            columns.append(draw(hnp.arrays(
                np.float64, n_all, unique=True,
                elements=st.floats(-1e3, 1e3, allow_subnormal=False))))
        elif kind == "tied":
            columns.append(draw(hnp.arrays(
                np.float64, n_all, elements=st.integers(-2, 2).map(float))))
        elif kind == "constant":
            columns.append(np.full(n_all, draw(st.floats(-1e3, 1e3))))
        else:
            columns.append(np.zeros(n_all))
    X = np.column_stack(columns)
    if draw(st.booleans()):
        elements = st.integers(-1000, 1000).map(float)
    else:
        elements = st.floats(-10.0, 10.0)
    targets = draw(hnp.arrays(np.float64, n_all, elements=elements))
    member = np.array(draw(st.lists(st.booleans(), min_size=n_all,
                                    max_size=n_all)))
    order = presort(X)
    node = np.array([rows[member[rows]] for rows in order], dtype=np.int32)
    return X, node.reshape(X.shape[1], -1), targets, draw(st.integers(1, 4))


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
            X = rng.integers(0, 6, size=(n, 3)).astype(np.float64)
            targets = rng.integers(-3, 4, size=n).astype(np.float64)
            min_leaf = int(rng.integers(1, 4))
            order = presort(X)
            gains, cuts = _kernels.best_split(X, order, targets, min_leaf)
            for j, rows in enumerate(order):
                b = reference_kernels.best_split(X[rows, j], targets[rows],
                                                 min_leaf)
                assert (gains[j], cuts[j]) == b

    def test_large_nodes_equal_the_one_feature_search(self):
        # past _ONE_PART_CELLS the features go through the buffers in
        # three parts; a zeroed column and ties ride along
        rng = np.random.default_rng(16)
        assert 600 * 13 > _kernels._ONE_PART_CELLS
        for n, min_leaf in ((600, 1), (1500, 3), (2000, 2)):
            X = rng.normal(size=(n, 13))
            X[:, 4] = 0.0
            X[:, 7] = rng.integers(0, 5, size=n)
            targets = rng.normal(size=n)
            order = presort(X)
            gains, cuts = _kernels.best_split(X, order, targets, min_leaf)
            assert list(zip(gains.tolist(), cuts.tolist())) == \
                column_searches(X, order, targets, min_leaf)
            assert cuts[4] == 0

    def test_a_skipped_feature_searches_as_a_zero_column(self):
        # in one part and in three: the skipped feature has no cut, and
        # each other one the gain and cut it has beside a zero column
        rng = np.random.default_rng(17)
        for n in (40, 600):
            X = rng.normal(size=(n, 13))
            X[:, 7] = rng.integers(0, 5, size=n)
            targets = rng.normal(size=n)
            for j in (0, 7, 12):
                Z = X.copy()
                Z[:, j] = 0.0
                gains, cuts = _kernels.best_split(X, presort(X), targets, 1,
                                                  skip=j)
                zgains, zcuts = _kernels.best_split(Z, presort(Z), targets, 1)
                assert gains.tolist() == zgains.tolist()
                assert cuts.tolist() == zcuts.tolist()
                assert cuts[j] == 0

    def test_best_split_gains_agree_on_float_targets(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            values = np.sort(rng.normal(size=n))
            targets = rng.normal(size=n)
            ga, _pa = search_column(values, targets, 1)
            gb, _pb = reference_kernels.best_split(values, targets, 1)
            assert ga == pytest.approx(gb, rel=1e-9, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(nodes())
    def test_each_feature_equals_the_one_feature_search(self, node):
        X, order, targets, min_leaf = node
        gains, cuts = _kernels.best_split(X, order, targets, min_leaf)
        assert list(zip(gains.tolist(), cuts.tolist())) == \
            column_searches(X, order, targets, min_leaf)

    def test_apply_tree_is_bit_exact(self):
        # routing only compares and gathers, so the loop cannot drift
        rng = np.random.default_rng(14)
        for _ in range(10):
            X = rng.normal(size=(60, 5))
            resid = rng.normal(size=60)
            tree = fit_tree(X, resid, max_leaves=6, min_leaf=2,
                            order=presort(X))
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

"""Learning-to-rank: linear coordinate ascent and boosted trees.

Model files are `venuerec.ltr.serialize`, which the package does not
import, so a command that never reads or writes one never loads it.
"""

import numpy as np

from .coordinate_ascent import CAConfig, LinearModel, train_coordinate_ascent
from .data import TopicBlocks, split_train_validation
from .mart import MARTConfig, Tree, TreeEnsemble, fit_tree, train_mart
from .mart import _tree_outputs

__all__ = [
    "CAConfig",
    "LinearModel",
    "MARTConfig",
    "TopicBlocks",
    "Tree",
    "TreeEnsemble",
    "fit_tree",
    "predict_matrix",
    "split_train_validation",
    "train_coordinate_ascent",
    "train_mart",
]


def predict_matrix(model, X):
    """Score every row of the 2-D float64 matrix `X`, as FeatureTable
    and TopicBlocks hold it, under either model kind.  The model fits
    the columns of `X`, as its trainer or load_model makes it."""
    if isinstance(model, LinearModel):
        return X @ np.asarray(model.weights)
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += model.shrinkage * _tree_outputs(tree, X)
    return out


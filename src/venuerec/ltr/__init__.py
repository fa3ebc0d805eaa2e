"""Learning-to-rank: linear coordinate ascent and boosted trees."""

import numpy as np

from ..errors import VenuerecError
from .coordinate_ascent import CAConfig, LinearModel, train_coordinate_ascent
from .data import TopicBlocks, split_train_validation
from .mart import MARTConfig, Tree, TreeEnsemble, fit_tree, train_mart
from .mart import _tree_outputs
from .serialize import load_model, save_model

__all__ = [
    "CAConfig",
    "LinearModel",
    "MARTConfig",
    "TopicBlocks",
    "Tree",
    "TreeEnsemble",
    "fit_tree",
    "load_model",
    "predict_matrix",
    "save_model",
    "split_train_validation",
    "train_coordinate_ascent",
    "train_mart",
]


def predict_matrix(model, X):
    """Score every row of the 2-D float64 matrix `X`, as FeatureTable
    and TopicBlocks hold it, under either model kind."""
    if isinstance(model, LinearModel):
        w = np.asarray(model.weights)
        if X.shape[1] != w.shape[0]:
            raise VenuerecError("matrix has %d features, model has %d"
                                % (X.shape[1], w.shape[0]))
        return X @ w
    width = 1 + max(max(tree.feature) for tree in model.trees)
    if X.shape[1] < width:
        raise VenuerecError("matrix has %d features, model needs %d"
                            % (X.shape[1], width))
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += model.shrinkage * _tree_outputs(tree, X)
    return out


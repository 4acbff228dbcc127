import numpy as np
import pytest

from icsr.dataset import Dataset


def test_a_one_dimensional_x_becomes_one_column():
    ds = Dataset(X=[0.5, 1.0, 1.5], y=[1, 2, 3])
    assert ds.X.shape == (3, 1)
    assert (ds.n, ds.dim) == (3, 1)
    assert ds.X.dtype == ds.y.dtype == np.float64


@pytest.mark.parametrize("X,y,message", [
    (np.zeros((2, 1, 1)), np.zeros(2), "X must be 2-dimensional"),
    (np.zeros((3, 1)), np.zeros(2), "y must be 1-dimensional and aligned"),
    (np.zeros((3, 1)), np.zeros((3, 1)), "y must be 1-dimensional and aligned"),
    (np.zeros((0, 1)), np.zeros(0), "at least one point"),
    (np.zeros((3, 3)), np.zeros(3), "only 1- and 2-dimensional inputs"),
    (np.zeros((2, 2)), [1.0, np.nan], "y contains non-finite"),
    (np.zeros((2, 2)), [1.0, np.inf], "y contains non-finite"),
])
def test_a_malformed_sample_is_rejected(X, y, message):
    with pytest.raises(ValueError, match=message):
        Dataset(X=X, y=y)

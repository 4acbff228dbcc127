"""Point-set container shared by the fitter, engine, and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """An (X, y) sample with provenance.

    X has shape (n, d) with d in {1, 2}; y has shape (n,).  Targets must
    be finite: a benchmark whose ground truth is undefined at a sampled
    point is a sampling bug, not something downstream code should paper
    over.
    """

    X: np.ndarray
    y: np.ndarray
    name: str = "adhoc"
    split: str = "train"

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional (n, d)")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-dimensional and aligned with X")
        if X.shape[0] == 0:
            raise ValueError("dataset must contain at least one point")
        if X.shape[1] not in (1, 2):
            raise ValueError("only 1- and 2-dimensional inputs are supported")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

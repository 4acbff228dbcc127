"""Symbolic regression with a chat model proposing functional forms.

The pipeline: prompt a model for candidate expressions, canonicalize
them into coefficient skeletons, fit the coefficients with multi-start
nonlinear least squares, score with a complexity-penalized fitness, and
feed the best attempts back into the next prompt until the fit is good
enough or the call budget runs out.
"""

__version__ = "0.1.0"

"""Symbolic regression with a chat model proposing functional forms.

The pipeline: prompt a model for candidate expressions, canonicalize
them into coefficient skeletons, fit the coefficients with multi-start
nonlinear least squares, score with a complexity-penalized fitness, and
feed the best attempts back into the next prompt until the fit is good
enough or the call budget runs out.
"""

from .dataset import Dataset
from .engine import EngineConfig, NoValidSeedsError, budget_report, run
from .expr import ParseError, canonicalize, complexity, evaluate_batch, parse, render
from .fit import FitConfig, FitResult
from .llm import (
    BackendError,
    LiveBackend,
    ReplayBackend,
    ReplayExhaustedError,
    SamplingParams,
    TemperatureSchedule,
)
from .score import ScoreConfig, Scores, fitness, nmse, r_squared, r_squared_trimmed

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EngineConfig",
    "NoValidSeedsError",
    "budget_report",
    "run",
    "ParseError",
    "canonicalize",
    "complexity",
    "evaluate_batch",
    "parse",
    "render",
    "FitConfig",
    "FitResult",
    "BackendError",
    "LiveBackend",
    "ReplayBackend",
    "ReplayExhaustedError",
    "SamplingParams",
    "TemperatureSchedule",
    "ScoreConfig",
    "Scores",
    "fitness",
    "nmse",
    "r_squared",
    "r_squared_trimmed",
    "__version__",
]

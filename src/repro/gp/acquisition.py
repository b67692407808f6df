"""Acquisition functions for Bayesian optimization.

Expected Improvement drives the OtterTune-style BO baseline and ResTune's
constrained variant; UCB (Srinivas et al.) drives OnlineTune's in-safety-set
selection (Equation 4).

The standard normal CDF and PDF are written out here instead of taken from
``scipy.stats.norm``: ``ndtr`` is what ``norm.cdf`` evaluates at loc 0 and
scale 1, and ``_norm_pdf`` below is ``norm.pdf``'s formula, so the results
are bit-identical, while ``scipy.stats`` (most of a frontend's import time)
stays off the serving stack's import graph.  ``scipy.special`` is already
loaded by ``scipy.optimize``, which the GP needs anyway.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["expected_improvement", "upper_confidence_bound",
           "lower_confidence_bound", "probability_of_feasibility"]

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.0) -> np.ndarray:
    """EI for maximization given posterior mean/std and incumbent ``best``."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    z = (mean - best - xi) / std
    return (mean - best - xi) * ndtr(z) + std * _norm_pdf(z)


def upper_confidence_bound(mean: np.ndarray, std: np.ndarray,
                           beta: float = 2.0) -> np.ndarray:
    return np.asarray(mean) + beta * np.asarray(std)


def lower_confidence_bound(mean: np.ndarray, std: np.ndarray,
                           beta: float = 2.0) -> np.ndarray:
    return np.asarray(mean) - beta * np.asarray(std)


def probability_of_feasibility(mean: np.ndarray, std: np.ndarray,
                               threshold: float) -> np.ndarray:
    """P(f >= threshold) under a Gaussian posterior — used by ResTune-like
    constrained EI (EI x PoF)."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return 1.0 - ndtr((threshold - mean) / std)

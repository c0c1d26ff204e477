"""DTLZ benchmark family at the two-objective, eleven-variable configuration.

With m=2 the first decision variable is the position parameter and the
remaining ten are distance parameters.
"""

from __future__ import annotations

import numpy as np


def _g1(XM: np.ndarray) -> np.ndarray:
    k = XM.shape[1]
    return 100.0 * (k + ((XM - 0.5) ** 2 - np.cos(20.0 * np.pi * (XM - 0.5))).sum(axis=1))


def _g2(XM: np.ndarray) -> np.ndarray:
    return ((XM - 0.5) ** 2).sum(axis=1)


def dtlz1(X: np.ndarray) -> np.ndarray:
    g = _g1(X[:, 1:])
    f1 = 0.5 * X[:, 0] * (1.0 + g)
    f2 = 0.5 * (1.0 - X[:, 0]) * (1.0 + g)
    return np.column_stack((f1, f2))


def _circle(theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    f1 = (1.0 + g) * np.cos(theta)
    f2 = (1.0 + g) * np.sin(theta)
    return np.column_stack((f1, f2))


def dtlz2(X: np.ndarray) -> np.ndarray:
    return _circle(X[:, 0] * np.pi / 2.0, _g2(X[:, 1:]))


def dtlz3(X: np.ndarray) -> np.ndarray:
    return _circle(X[:, 0] * np.pi / 2.0, _g1(X[:, 1:]))


def dtlz4(X: np.ndarray, alpha: float = 100.0) -> np.ndarray:
    return _circle(X[:, 0] ** alpha * np.pi / 2.0, _g2(X[:, 1:]))


def dtlz6(X: np.ndarray) -> np.ndarray:
    g = (X[:, 1:] ** 0.1).sum(axis=1)
    return _circle(X[:, 0] * np.pi / 2.0, g)


def dtlz7(X: np.ndarray) -> np.ndarray:
    f1 = X[:, 0]
    g = 1.0 + 9.0 * X[:, 1:].mean(axis=1)
    h = 2.0 - f1 / (1.0 + g) * (1.0 + np.sin(3.0 * np.pi * f1))
    f2 = (1.0 + g) * h
    return np.column_stack((f1, f2))

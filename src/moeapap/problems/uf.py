"""CEC 2009 unconstrained (UF) benchmark family, 30 decision variables.

UF1-7 have two objectives, UF8-10 three.  Index arithmetic below follows the
one-based variable numbering of the suite definition.
"""

from __future__ import annotations

import numpy as np

N_VARS = 30

# one-based variable indices split by parity (two-objective problems)
_J1 = np.arange(3, N_VARS + 1, 2)  # odd j >= 3
_J2 = np.arange(2, N_VARS + 1, 2)  # even j

# three-way split for the three-objective problems: j = 3..30 ordered as
# the blocks K1, K2, K3, block i holding _K[_K_EDGES[i]:_K_EDGES[i + 1]]
_K_BLOCKS = [[j for j in range(3, N_VARS + 1) if (j - r) % 3 == 0] for r in (1, 2, 0)]
_K = np.concatenate(_K_BLOCKS)
_K_EDGES = np.cumsum([0] + [len(b) for b in _K_BLOCKS])
# the zero-based columns of x_j and the phases j pi / 30 of their y-terms
_K_COLS = _K - 1
_K_PHASES = _K * np.pi / N_VARS
# each block's sum enters its objective scaled by 2/|K_i|
_K_SCALES = 2.0 / np.diff(_K_EDGES)


def _y_sin(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    x1 = X[:, :1]
    return X[:, idx - 1] - np.sin(6.0 * np.pi * x1 + idx * np.pi / N_VARS)


def uf1(X: np.ndarray) -> np.ndarray:
    f1 = X[:, 0] + 2.0 / _J1.size * (_y_sin(X, _J1) ** 2).sum(axis=1)
    f2 = 1.0 - np.sqrt(X[:, 0]) + 2.0 / _J2.size * (_y_sin(X, _J2) ** 2).sum(axis=1)
    return np.column_stack((f1, f2))


def uf2(X: np.ndarray) -> np.ndarray:
    x1 = X[:, :1]

    def y(idx, trig):
        amp = 0.3 * x1**2 * np.cos(24.0 * np.pi * x1 + 4.0 * idx * np.pi / N_VARS) + 0.6 * x1
        return X[:, idx - 1] - amp * trig(6.0 * np.pi * x1 + idx * np.pi / N_VARS)

    f1 = X[:, 0] + 2.0 / _J1.size * (y(_J1, np.cos) ** 2).sum(axis=1)
    f2 = 1.0 - np.sqrt(X[:, 0]) + 2.0 / _J2.size * (y(_J2, np.sin) ** 2).sum(axis=1)
    return np.column_stack((f1, f2))


def _multimodal_term(Y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # 4*sum(y^2) - 2*prod(cos(20*pi*y/sqrt(j))) + 2, scaled by 2/|J|
    s = 4.0 * (Y**2).sum(axis=1)
    p = np.cos(20.0 * np.pi * Y / np.sqrt(idx)).prod(axis=1)
    return 2.0 / idx.size * (s - 2.0 * p + 2.0)


def uf3(X: np.ndarray) -> np.ndarray:
    x1 = X[:, :1]

    def y(idx):
        expo = 0.5 * (1.0 + 3.0 * (idx - 2.0) / (N_VARS - 2.0))
        return X[:, idx - 1] - x1**expo

    f1 = X[:, 0] + _multimodal_term(y(_J1), _J1)
    f2 = 1.0 - np.sqrt(X[:, 0]) + _multimodal_term(y(_J2), _J2)
    return np.column_stack((f1, f2))


def uf4(X: np.ndarray) -> np.ndarray:
    def h(t):
        return np.abs(t) / (1.0 + np.exp(2.0 * np.abs(t)))

    f1 = X[:, 0] + 2.0 / _J1.size * h(_y_sin(X, _J1)).sum(axis=1)
    f2 = 1.0 - X[:, 0] ** 2 + 2.0 / _J2.size * h(_y_sin(X, _J2)).sum(axis=1)
    return np.column_stack((f1, f2))


def uf5(X: np.ndarray, N: int = 10, eps: float = 0.1) -> np.ndarray:
    def h(t):
        return 2.0 * t**2 - np.cos(4.0 * np.pi * t) + 1.0

    hump = (0.5 / N + eps) * np.abs(np.sin(2.0 * N * np.pi * X[:, 0]))
    f1 = X[:, 0] + hump + 2.0 / _J1.size * h(_y_sin(X, _J1)).sum(axis=1)
    f2 = 1.0 - X[:, 0] + hump + 2.0 / _J2.size * h(_y_sin(X, _J2)).sum(axis=1)
    return np.column_stack((f1, f2))


def uf6(X: np.ndarray, N: int = 2, eps: float = 0.1) -> np.ndarray:
    hump = np.maximum(0.0, 2.0 * (0.5 / N + eps) * np.sin(2.0 * N * np.pi * X[:, 0]))
    f1 = X[:, 0] + hump + _multimodal_term(_y_sin(X, _J1), _J1)
    f2 = 1.0 - X[:, 0] + hump + _multimodal_term(_y_sin(X, _J2), _J2)
    return np.column_stack((f1, f2))


def uf7(X: np.ndarray) -> np.ndarray:
    root = X[:, 0] ** 0.2
    f1 = root + 2.0 / _J1.size * (_y_sin(X, _J1) ** 2).sum(axis=1)
    f2 = 1.0 - root + 2.0 / _J2.size * (_y_sin(X, _J2) ** 2).sum(axis=1)
    return np.column_stack((f1, f2))


def _k_terms(X: np.ndarray, h) -> np.ndarray:
    """(n, 3): 2/|K_i| times the sum over j in K_i of h(y_j), where
    y_j = x_j - 2 x_2 sin(2 pi x_1 + j pi / 30); every y_j comes from one
    gather and one ``sin`` over the 28 columns."""
    Y = h(X[:, _K_COLS] - 2.0 * X[:, 1:2] * np.sin(2.0 * np.pi * X[:, :1] + _K_PHASES))
    sums = np.column_stack([Y[:, a:b].sum(axis=1) for a, b in zip(_K_EDGES[:-1], _K_EDGES[1:])])
    return _K_SCALES * sums


def _sphere(X: np.ndarray) -> np.ndarray:
    # UF8 and UF10's position part: the unit sphere's octant in x_1, x_2
    a = 0.5 * np.pi * X[:, 0]
    b = 0.5 * np.pi * X[:, 1]
    cos_a = np.cos(a)
    return np.column_stack((cos_a * np.cos(b), cos_a * np.sin(b), np.sin(a)))


def uf8(X: np.ndarray) -> np.ndarray:
    return _sphere(X) + _k_terms(X, np.square)


def uf9(X: np.ndarray, eps: float = 0.1) -> np.ndarray:
    x1 = X[:, 0]
    x2 = X[:, 1]
    hump = np.maximum(0.0, (1.0 + eps) * (1.0 - 4.0 * (2.0 * x1 - 1.0) ** 2))
    f = np.column_stack((0.5 * (hump + 2.0 * x1) * x2, 0.5 * (hump - 2.0 * x1 + 2.0) * x2, 1.0 - x2))
    return f + _k_terms(X, np.square)


def uf10(X: np.ndarray) -> np.ndarray:
    def h(Y):
        return 4.0 * Y**2 - np.cos(8.0 * np.pi * Y) + 1.0

    return _sphere(X) + _k_terms(X, h)

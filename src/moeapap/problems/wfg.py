"""WFG benchmark family.

The experiment configuration uses nine problems with 12 variables, three
objectives, k=4 position and l=8 distance parameters, but the pipelines are
parameterized so other (k, l, m) splits remain available for testing.
Variable j has domain [0, 2j]; internally everything works on the
normalized domain [0, 1].
"""

from __future__ import annotations

import numpy as np


def upper_bounds(n_vars: int) -> np.ndarray:
    return 2.0 * np.arange(1, n_vars + 1, dtype=np.float64)


def validate_split(n_vars: int, m: int, k: int, l: int) -> None:
    if m < 2:
        raise ValueError("WFG needs at least two objectives")
    if k % (m - 1) != 0:
        raise ValueError("position parameter count k must be divisible by m-1")
    if k + l != n_vars:
        raise ValueError("k + l must equal the number of variables")
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")


def _correct_to_01(X: np.ndarray, eps: float = 1.0e-10) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    X = np.where((X < 0) & (X >= -eps), 0.0, X)
    X = np.where((X > 1) & (X <= 1 + eps), 1.0, X)
    return X


# --- transformations ---------------------------------------------------------


def _s_linear(y, A=0.35):
    return _correct_to_01(np.abs(y - A) / np.abs(np.floor(A - y) + A))


def _s_decept(y, A=0.35, B=0.001, C=0.05):
    t1 = np.floor(y - A + B) * (1.0 - C + (A - B) / B) / (A - B)
    t2 = np.floor(A + B - y) * (1.0 - C + (1.0 - A - B) / B) / (1.0 - A - B)
    return _correct_to_01(1.0 + (np.abs(y - A) - B) * (t1 + t2 + 1.0 / B))


def _s_multi(y, A, B, C):
    t1 = np.abs(y - C) / (2.0 * (np.floor(C - y) + C))
    t2 = (4.0 * A + 2.0) * np.pi * (0.5 - t1)
    return _correct_to_01((1.0 + np.cos(t2) + 4.0 * B * t1**2) / (B + 2.0))


def _b_flat(y, A, B, C):
    out = (
        A
        + np.minimum(0, np.floor(y - B)) * (A * (B - y) / B)
        - np.minimum(0, np.floor(C - y)) * ((1.0 - A) * (y - C) / (1.0 - C))
    )
    return _correct_to_01(out)


def _b_poly(y, alpha):
    return _correct_to_01(y**alpha)


def _b_param(y, u, A=0.98 / 49.98, B=0.02, C=50.0):
    v = A - (1.0 - 2.0 * u) * np.abs(np.floor(0.5 - u) + A)
    return _correct_to_01(y ** (B + (C - B) * v))


# --- reductions --------------------------------------------------------------


def _r_sum(Y, w):
    # an element-wise product and a row sum, not ``Y @ w``: a BLAS product's
    # summation order depends on how many rows it gets, and a row must
    # evaluate to the same bits alone as in a batch
    return _correct_to_01((Y * w).sum(axis=1) / w.sum())


def _r_sum_uniform(Y):
    return _correct_to_01(Y.mean(axis=1))


def _r_nonsep(Y):
    n, A = Y.shape
    val = np.ceil(A / 2.0)
    num = np.zeros(n)
    for j in range(A):
        num += Y[:, j]
        for s in range(A - 1):
            num += np.abs(Y[:, j] - Y[:, (1 + j + s) % A])
    return _correct_to_01(num / (val * (1.0 + 2.0 * A - 2.0 * val)))


# --- shape functions ---------------------------------------------------------


def _shape(P, kind):
    """The (n, m) concave, convex or linear shape matrix of the m-1 position
    columns ``P``: column 0 is the product of every coordinate map ``a``,
    column j the product of the first m-1-j maps times ``b`` of coordinate
    m-1-j."""
    if kind == "concave":
        a, b = np.sin(0.5 * np.pi * P), np.cos(0.5 * np.pi * P)
    elif kind == "convex":
        a, b = 1.0 - np.cos(0.5 * np.pi * P), 1.0 - np.sin(0.5 * np.pi * P)
    else:
        a, b = P, 1.0 - P
    # front[:, i] is the product of the first i maps, multiplied left to right
    front = np.cumprod(np.column_stack((np.ones(len(P)), a)), axis=1)
    return _correct_to_01(np.column_stack((front[:, -1], front[:, -2::-1] * b[:, ::-1])))


def _shape_mixed(t1, alpha=1.0, A=5.0):
    aux = 2.0 * A * np.pi
    return _correct_to_01((1.0 - t1 - np.cos(aux * t1 + 0.5 * np.pi) / aux) ** alpha)


def _shape_disconnected(t1, alpha=1.0, beta=1.0, A=5.0):
    return _correct_to_01(1.0 - t1**alpha * np.cos(A * np.pi * t1**beta) ** 2)


# --- shared pipeline pieces --------------------------------------------------


def _post(T: np.ndarray, index: int) -> np.ndarray:
    # the m-1 position values, pulled towards 0.5 by the distance value T[:, -1]
    # except on WFG3's degenerate front, where only the first one is
    A = np.ones(T.shape[1] - 1)
    if index == 3:
        A[1:] = 0.0
    return np.maximum(T[:, -1:], A) * (T[:, :-1] - 0.5) + 0.5


def _groups(Y: np.ndarray, m: int, k: int, reduce) -> np.ndarray:
    # m-1 position groups of k/(m-1) columns each, then the distance columns
    gap = k // (m - 1)
    cols = [reduce(Y[:, i * gap: (i + 1) * gap]) for i in range(m - 1)]
    cols.append(reduce(Y[:, k:]))
    return np.column_stack(cols)


def _weighted_groups(Y: np.ndarray, m: int, k: int) -> np.ndarray:
    # WFG1's weighted sums with w_j = 2j; other problems use uniform weights
    w = np.arange(2, 2 * Y.shape[1] + 1, 2, dtype=np.float64)
    gap = k // (m - 1)
    cols = [_r_sum(Y[:, i * gap: (i + 1) * gap], w[i * gap: (i + 1) * gap]) for i in range(m - 1)]
    cols.append(_r_sum(Y[:, k:], w[k:]))
    return np.column_stack(cols)


def _pairwise_tail(Y: np.ndarray, k: int) -> np.ndarray:
    # WFG2/WFG3: couple the distance parameters two at a time
    l = Y.shape[1] - k
    if l % 2:
        raise ValueError(f"WFG2 and WFG3 need an even number of distance parameters, got l = {l}")
    cols = [Y[:, i] for i in range(k)]
    for i in range(l // 2):
        cols.append(_r_nonsep(Y[:, k + 2 * i: k + 2 * i + 2]))
    return np.column_stack(cols)


# --- per-problem objective pipelines ----------------------------------------


def wfg_evaluate(index: int, X: np.ndarray, m: int, k: int) -> np.ndarray:
    """Evaluate WFG<index> on decision-space rows ``X``."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    Y = X / upper_bounds(n)

    # each problem's transformations end in its m group values T; WFG4-9
    # share the concave front, WFG1-3 pick their own shape
    kind = "concave"
    if index == 1:
        Y[:, k:] = _b_flat(_s_linear(Y[:, k:]), 0.8, 0.75, 0.85)
        T = _weighted_groups(_b_poly(Y, 0.02), m, k)
        kind = "convex"
    elif index in (2, 3):
        Y[:, k:] = _s_linear(Y[:, k:])
        T = _groups(_pairwise_tail(Y, k), m, k, _r_sum_uniform)
        kind = "convex" if index == 2 else "linear"
    elif index == 4:
        T = _groups(_s_multi(Y, 30.0, 10.0, 0.35), m, k, _r_sum_uniform)
    elif index == 5:
        T = _groups(_s_decept(Y), m, k, _r_sum_uniform)
    elif index == 6:
        Y[:, k:] = _s_linear(Y[:, k:])
        T = _groups(Y, m, k, _r_nonsep)
    elif index == 7:
        for i in range(k):
            Y[:, i] = _b_param(Y[:, i], _r_sum_uniform(Y[:, i + 1:]))
        Y[:, k:] = _s_linear(Y[:, k:])
        T = _groups(Y, m, k, _r_sum_uniform)
    elif index == 8:
        cols = [_b_param(Y[:, i], _r_sum_uniform(Y[:, :i])) for i in range(k, n)]
        Y[:, k:] = _s_linear(np.column_stack(cols))
        T = _groups(Y, m, k, _r_sum_uniform)
    elif index == 9:
        cols = [_b_param(Y[:, i], _r_sum_uniform(Y[:, i + 1:])) for i in range(n - 1)]
        Y[:, : n - 1] = np.column_stack(cols)
        Y[:, :k] = _s_decept(Y[:, :k])
        Y[:, k:] = _s_multi(Y[:, k:], 30.0, 95.0, 0.35)
        T = _groups(Y, m, k, _r_nonsep)
    else:
        raise ValueError(f"unknown WFG index {index}")

    P = _post(T, index)
    H = _shape(P, kind)
    if index == 1:
        H[:, -1] = _shape_mixed(P[:, 0])
    elif index == 2:
        H[:, -1] = _shape_disconnected(P[:, 0])
    return T[:, -1:] + np.arange(2, 2 * m + 1, 2, dtype=np.float64) * H


# --- Pareto-optimal decision construction ------------------------------------


def wfg_optimal_decisions(index: int, K: np.ndarray, k: int, l: int) -> np.ndarray:
    """Map normalized position parameters ``K`` (r, k) onto Pareto-optimal
    decision vectors by fixing the distance parameters at their optima."""
    K = np.asarray(K, dtype=np.float64)
    n = k + l
    if index == 8:
        Z = K.copy()
        for _ in range(l):
            u = Z.sum(axis=1) / Z.shape[1]
            t1 = np.abs(np.floor(0.5 - u) + 0.98 / 49.98)
            t2 = 0.02 + 49.98 * (0.98 / 49.98 - (1.0 - 2.0 * u) * t1)
            Z = np.column_stack([Z, 0.35 ** (1.0 / t2)])
    elif index == 9:
        Z = np.column_stack([K, np.zeros((K.shape[0], l))])
        Z[:, n - 1] = 0.35
        for i in range(n - 2, k - 1, -1):
            val = Z[:, i + 1:].mean(axis=1)
            Z[:, i] = 0.35 ** (1.0 / (0.02 + 1.96 * val))
    else:
        Z = np.column_stack([K, np.full((K.shape[0], l), 0.35)])
    return Z * upper_bounds(n)

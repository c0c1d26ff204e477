"""WFG benchmark family.

The experiment configuration uses nine problems with 12 variables, three
objectives, k=4 position and l=8 distance parameters, but the pipelines are
parameterized so other (k, l, m) splits remain available for testing.
Variable j has domain [0, 2j]; internally everything works on the
normalized domain [0, 1].
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _frozen(*arrays):
    # results of the cached helpers below are shared by every caller
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


@lru_cache(maxsize=None)
def upper_bounds(n_vars: int) -> np.ndarray:
    return _frozen(2.0 * np.arange(1, n_vars + 1, dtype=np.float64))


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
    # a value within eps outside [0, 1] is rounding error and moves onto the
    # bound, a value further out stays; clipping under one mask gives the
    # bits of two masked replacements, signed zeros and NaN included
    return np.where((X >= -eps) & (X <= 1.0 + eps), X.clip(0.0, 1.0), X)


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
# Each reduces the last axis of a (n, groups, width) block to (n, groups)
# without correcting; ``_groups`` corrects all group values in one pass.


def _r_sum(Y, w):
    # an element-wise product and a sum, not ``Y @ w``: a BLAS product's
    # summation order depends on how many rows it gets, and a row must
    # evaluate to the same bits alone as in a batch
    return (Y * w).sum(axis=-1) / w.sum(axis=-1)


def _r_mean(Y):
    # the arithmetic of ``np.mean``: a sum, then one division
    return Y.sum(axis=-1) / Y.shape[-1]


@lru_cache(maxsize=None)
def _nonsep_pairs(A: int):
    # row j: the column j, then the A-1 columns (j + 1 + s) mod A
    j = np.arange(A)
    return _frozen(j[:, None], (j[:, None] + j[1:]) % A)


def _r_nonsep(Y):
    # the toolkit adds, for j = 0..A-1, y_j and then |y_j - y_(j+1+s) mod A|
    # for s < A-1 onto a zero; one cumsum over the same terms in the same
    # order gives every group the bits of that double loop
    A = Y.shape[-1]
    own, other = _nonsep_pairs(A)
    terms = np.zeros(Y.shape[:-1] + (1 + A * A,))
    by_j = terms[..., 1:].reshape(Y.shape + (A,))
    by_j[..., 0] = Y
    np.abs(Y[..., own] - Y[..., other], out=by_j[..., 1:])
    val = np.ceil(A / 2.0)
    return terms.cumsum(axis=-1)[..., -1] / (val * (1.0 + 2.0 * A - 2.0 * val))


# --- shape functions ---------------------------------------------------------


def _shape(P, kind):
    """The (n, m) concave, convex or linear shape matrix of the m-1 position
    columns ``P``: column 0 is the product of every coordinate map ``a``,
    column j the product of the first m-1-j maps times ``b`` of coordinate
    m-1-j."""
    if kind == "concave":
        t = 0.5 * np.pi * P
        a, b = np.sin(t), np.cos(t)
    elif kind == "convex":
        t = 0.5 * np.pi * P
        a, b = 1.0 - np.cos(t), 1.0 - np.sin(t)
    else:
        a, b = P, 1.0 - P
    # front[:, i] is the product of the first i+1 maps, multiplied left to right
    front = np.cumprod(a, axis=1)
    return _correct_to_01(np.concatenate((front[:, -1:], front[:, -2::-1] * b[:, :0:-1], b[:, :1]), axis=1))


def _shape_mixed(t1, alpha=1.0, A=5.0):
    aux = 2.0 * A * np.pi
    return _correct_to_01((1.0 - t1 - np.cos(aux * t1 + 0.5 * np.pi) / aux) ** alpha)


def _shape_disconnected(t1, alpha=1.0, beta=1.0, A=5.0):
    return _correct_to_01(1.0 - t1**alpha * np.cos(A * np.pi * t1**beta) ** 2)


# --- shared pipeline pieces --------------------------------------------------


def _post(T: np.ndarray, index: int) -> np.ndarray:
    # the m-1 position values, pulled towards 0.5 by the distance value T[:, -1]
    # except on WFG3's degenerate front, where only the first one is
    A = 1.0 if index != 3 else (np.arange(T.shape[1] - 1) == 0).astype(np.float64)
    return np.maximum(T[:, -1:], A) * (T[:, :-1] - 0.5) + 0.5


def _groups(Y: np.ndarray, m: int, k: int, reduce, w=None) -> np.ndarray:
    """The (n, m) group values, corrected in one pass: ``reduce`` of the m-1
    position groups of k/(m-1) columns each, as one (n, m-1, k/(m-1))
    block, and of the distance columns, as one (n, 1, l) block.  Given
    weights ``w``, one per column, ``reduce`` also gets each block's."""
    blocks = [(Y[:, :k].reshape(len(Y), m - 1, -1),), (Y[:, None, k:],)]
    if w is not None:
        blocks = [(B, W) for (B,), W in zip(blocks, (w[:k].reshape(m - 1, -1), w[None, k:]))]
    return _correct_to_01(np.concatenate([reduce(*block) for block in blocks], axis=1))


def _pairwise_tail(Y: np.ndarray, k: int) -> np.ndarray:
    # WFG2/WFG3: couple the distance parameters two at a time
    l = Y.shape[1] - k
    if l % 2:
        raise ValueError(f"WFG2 and WFG3 need an even number of distance parameters, got l = {l}")
    pairs = _r_nonsep(Y[:, k:].reshape(len(Y), l // 2, 2))
    return np.concatenate((Y[:, :k], _correct_to_01(pairs)), axis=1)


def _means(Y: np.ndarray, spans) -> np.ndarray:
    # the corrected mean of Y[:, a:b] for each (a, b) in ``spans``, as columns
    return _correct_to_01(np.column_stack([_r_mean(Y[:, a:b]) for a, b in spans]))


@lru_cache(maxsize=None)
def _scales(m: int) -> np.ndarray:
    # the objective scales S_i = 2i
    return _frozen(np.arange(2, 2 * m + 1, 2, dtype=np.float64))


# --- per-problem objective pipelines ----------------------------------------


def wfg_evaluate(index: int, X: np.ndarray, m: int, k: int) -> np.ndarray:
    """Evaluate WFG<index> on decision-space rows ``X``."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    Y = X / upper_bounds(n)

    # each problem's transformations end in its m group values T; WFG4-9
    # share the concave front, WFG1-3 pick their own shape.  Each b_param
    # column of WFG7-9 reads the other columns as they were before any
    # b_param, so one _b_param call transforms them all
    kind = "concave"
    if index == 1:
        Y[:, k:] = _b_flat(_s_linear(Y[:, k:]), 0.8, 0.75, 0.85)
        # weights w_j = 2j
        T = _groups(_b_poly(Y, 0.02), m, k, _r_sum, w=2.0 * np.arange(1, n + 1))
        kind = "convex"
    elif index in (2, 3):
        Y[:, k:] = _s_linear(Y[:, k:])
        T = _groups(_pairwise_tail(Y, k), m, k, _r_mean)
        kind = "convex" if index == 2 else "linear"
    elif index == 4:
        T = _groups(_s_multi(Y, 30.0, 10.0, 0.35), m, k, _r_mean)
    elif index == 5:
        T = _groups(_s_decept(Y), m, k, _r_mean)
    elif index == 6:
        Y[:, k:] = _s_linear(Y[:, k:])
        T = _groups(Y, m, k, _r_nonsep)
    elif index == 7:
        Y[:, :k] = _b_param(Y[:, :k], _means(Y, [(i + 1, n) for i in range(k)]))
        Y[:, k:] = _s_linear(Y[:, k:])
        T = _groups(Y, m, k, _r_mean)
    elif index == 8:
        Y[:, k:] = _s_linear(_b_param(Y[:, k:], _means(Y, [(0, i) for i in range(k, n)])))
        T = _groups(Y, m, k, _r_mean)
    elif index == 9:
        Y[:, : n - 1] = _b_param(Y[:, : n - 1], _means(Y, [(i + 1, n) for i in range(n - 1)]))
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
    return T[:, -1:] + _scales(m) * H


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

"""Benchmark problem registry: ZDT1-6, DTLZ1-7, WFG1-9 and UF1-10.

Problem dimensions are fixed to the experiment configuration (ZDT1-3 use 30
variables, ZDT4/6 ten, ZDT5 eleven binary substrings, DTLZ eleven, WFG
twelve with a 4+8 position/distance split, UF thirty) and cannot be
overridden.  Reference fronts and objective boxes ship as plain-text data
files; regenerate them with ``scripts/generate_reference_data.py``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Callable

import numpy as np

from ..core import ConfigurationError, ContractViolationError
from . import dtlz, uf, wfg, zdt
from .zdt import ZDT5_TOTAL_BITS

__all__ = [
    "Problem",
    "UnsupportedProblemError",
    "available_problems",
    "get_problem",
    "objective_box",
    "reference_front",
]

_BOUNDS_EPS = 1e-9


class UnsupportedProblemError(KeyError):
    """No benchmark problem is registered under the requested id."""


@dataclass(frozen=True)
class Problem:
    """One benchmark instance: identity, dimensions, bounds and evaluator.

    ``n_vars`` is the dimension the variation operators act on; for ZDT5
    that is one relaxed real gene per bit of its eleven bitstrings.
    """

    name: str
    suite: str
    index: int
    m: int
    n_vars: int
    bounds: np.ndarray = field(repr=False)
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # contiguous copies of the bounds' columns, which ``evaluate`` compares against
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lo", np.ascontiguousarray(self.bounds[:, 0]))
        object.__setattr__(self, "_hi", np.ascontiguousarray(self.bounds[:, 1]))

    def evaluate(self, X) -> np.ndarray:
        """Evaluate an ``(n, n_vars)`` batch of decision rows.

        A variable up to ``_BOUNDS_EPS`` beyond its bound is clamped onto
        the bound first, so it evaluates as the bound does; one further out,
        or NaN, is an error.
        """
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.n_vars:
            raise ContractViolationError(
                f"{self.name} expects (n, {self.n_vars}) decision rows, got shape {arr.shape}"
            )
        lo, hi = self._lo, self._hi
        # written so that NaN, which fails every comparison, fails both tests
        if not ((arr >= lo) & (arr <= hi)).all():
            if not ((arr >= lo - _BOUNDS_EPS) & (arr <= hi + _BOUNDS_EPS)).all():
                raise ContractViolationError(f"decision row out of bounds or NaN for {self.name}")
            arr = np.clip(arr, lo, hi)
        return self._fn(arr)


def _box(n: int, lo: float, hi: float) -> np.ndarray:
    b = np.empty((n, 2))
    b[:, 0] = lo
    b[:, 1] = hi
    return b


def _uf_bounds(index: int) -> np.ndarray:
    if index == 3:
        return _box(uf.N_VARS, 0.0, 1.0)
    if index == 4:
        b = _box(uf.N_VARS, -2.0, 2.0)
    elif index >= 8:
        b = _box(uf.N_VARS, -2.0, 2.0)
        b[1] = (0.0, 1.0)
    else:
        b = _box(uf.N_VARS, -1.0, 1.0)
    b[0] = (0.0, 1.0)
    return b


def _build_registry() -> dict[str, Problem]:
    reg: dict[str, Problem] = {}

    def add(p: Problem):
        reg[p.name] = p

    zdt_fns = {1: zdt.zdt1, 2: zdt.zdt2, 3: zdt.zdt3, 4: zdt.zdt4, 6: zdt.zdt6}
    zdt_dims = {1: 30, 2: 30, 3: 30, 4: 10, 6: 10}
    for i, fn in zdt_fns.items():
        n = zdt_dims[i]
        bounds = _box(n, 0.0, 1.0)
        if i == 4:
            bounds[1:] = (-5.0, 5.0)
        add(Problem(f"ZDT{i}", "ZDT", i, 2, n, bounds, fn))
    add(Problem("ZDT5", "ZDT", 5, 2, ZDT5_TOTAL_BITS, _box(ZDT5_TOTAL_BITS, 0.0, 1.0), zdt.zdt5))

    # DTLZ5 is DTLZ2 at m=2: there are no intermediate position angles to bend
    dtlz_fns = [dtlz.dtlz1, dtlz.dtlz2, dtlz.dtlz3, dtlz.dtlz4, dtlz.dtlz2, dtlz.dtlz6, dtlz.dtlz7]
    for i, fn in enumerate(dtlz_fns, start=1):
        add(Problem(f"DTLZ{i}", "DTLZ", i, 2, 11, _box(11, 0.0, 1.0), fn))

    wfg.validate_split(12, 3, 4, 8)
    for i in range(1, 10):
        bounds = np.column_stack((np.zeros(12), wfg.upper_bounds(12)))
        fn = (lambda idx: lambda X: wfg.wfg_evaluate(idx, X, m=3, k=4))(i)
        add(Problem(f"WFG{i}", "WFG", i, 3, 12, bounds, fn))

    uf_fns = [uf.uf1, uf.uf2, uf.uf3, uf.uf4, uf.uf5, uf.uf6, uf.uf7, uf.uf8, uf.uf9, uf.uf10]
    for i, fn in enumerate(uf_fns, start=1):
        m = 2 if i <= 7 else 3
        add(Problem(f"UF{i}", "UF", i, m, uf.N_VARS, _uf_bounds(i), fn))

    return reg


_REGISTRY = _build_registry()
_NAME_RE = re.compile(r"^(ZDT|DTLZ|WFG|UF)\s*(\d+)$", re.IGNORECASE)
_SUITE_ORDER = {"ZDT": 0, "DTLZ": 1, "WFG": 2, "UF": 3}


def available_problems() -> list[str]:
    return sorted(_REGISTRY, key=lambda s: (_SUITE_ORDER[_REGISTRY[s].suite], _REGISTRY[s].index))


def get_problem(name: str) -> Problem:
    match = _NAME_RE.match(str(name).strip())
    if match:
        key = match.group(1).upper() + match.group(2)
        if key in _REGISTRY:
            return _REGISTRY[key]
    raise UnsupportedProblemError(f"unknown benchmark problem {name!r}")


@lru_cache(maxsize=None)
def reference_front(name: str) -> np.ndarray:
    """Load the shipped reference front (objective rows) for a problem."""
    problem = get_problem(name)
    fname = f"{problem.name.lower()}_front.txt"
    try:
        text = resources.files(__package__).joinpath("data", fname).read_text()
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"reference front file {fname!r} is missing; run scripts/generate_reference_data.py"
        ) from exc
    F = np.loadtxt(text.splitlines(), comments="#", ndmin=2)
    if F.shape[1] != problem.m:
        raise ConfigurationError(f"malformed reference front file {fname!r}")
    return F


@lru_cache(maxsize=None)
def _suite_boxes(suite: str) -> dict:
    fname = f"{suite.lower()}_boxes.json"
    try:
        text = resources.files(__package__).joinpath("data", fname).read_text()
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"objective-box metadata {fname!r} is missing; run scripts/generate_reference_data.py"
        ) from exc
    return json.loads(text)


def objective_box(name: str) -> np.ndarray:
    """Per-objective [ideal, upper] ranges for the normalized HV metrics."""
    problem = get_problem(name)
    boxes = _suite_boxes(problem.suite)
    if problem.name not in boxes:
        raise ConfigurationError(f"no objective box recorded for {problem.name}")
    box = np.asarray(boxes[problem.name], dtype=np.float64)
    if box.shape != (problem.m, 2) or not (box[:, 0] < box[:, 1]).all():
        raise ConfigurationError(f"invalid objective box metadata for {problem.name}")
    return box

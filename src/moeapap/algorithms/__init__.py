"""Foundation algorithm engines and their parameterized configuration space.

Three engines are available: NSGA-II (with SBX+PM or any of the four DE
mutation rows), MOEA/D (SBX+PM, rand/p, current-to-rand/p plus its mating
and replacement parameters) and MOPSO (SMPSO-, OMOPSO- or mutation-free
swarms with an adaptive-grid archive).  An engine only searches: it takes
an rng and returns its final non-dominated set and the population size it
used.  ``run`` dispatches a validated ``AlgorithmConfig`` to the matching
engine and makes the run's ``RunResult``: it builds the rng from the seed,
times the engine, validates the set and counts ``pop_size_used *
(max_generations + 1)`` evaluations.  Results are bitwise deterministic in
(config, problem, budget, seed).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .._seeding import rng_for
from ..core import ConfigurationError, SolutionSet

NSGA2 = "NSGA2"
MOEAD = "MOEAD"
MOPSO = "MOPSO"
FOUNDATIONS = (NSGA2, MOEAD, MOPSO)

SBX_PM = "sbx_pm"
RAND_P = "rand_p"
BEST_P = "best_p"
CURRENT_TO_RAND_P = "current_to_rand_p"
CURRENT_TO_BEST_P = "current_to_best_p"
SMPSO = "smpso"
OMOPSO = "omopso"
NO_MUTATE = "no_mutate"

LEGAL_OPERATORS: dict[str, tuple[str, ...]] = {
    NSGA2: (SBX_PM, RAND_P, BEST_P, CURRENT_TO_RAND_P, CURRENT_TO_BEST_P),
    MOEAD: (SBX_PM, RAND_P, CURRENT_TO_RAND_P),
    MOPSO: (SMPSO, OMOPSO, NO_MUTATE),
}

# parameter schema entries: ("int", lo, hi) | ("float", lo, hi, low_open)
# | ("cat", values)
_GA = {"eta_sbx": ("int", 1, 100), "eta_pm": ("int", 1, 100)}
_DE_RAND = {
    "F": ("float", 0.0, 2.0, True),
    "p": ("cat", (1, 2)),
    "CR": ("float", 0.0, 1.0, True),
}
_DE_CURRENT = {
    "F": ("float", 0.0, 2.0, True),
    "K": ("float", 0.0, 1.0, True),
    "p": ("cat", (1,)),
    "CR": ("float", 0.0, 1.0, True),
}
_MOEAD_EXTRAS = {
    "ps": ("float", 0.0, 1.0, False),
    "n_r": ("int", 2, 10),
    "neighbor_size": ("int", 10, 50),
}
_PSO_SHARED = {
    "w": ("float", 0.0, 1.0, False),
    "c1": ("float", 0.5, 2.5, False),
    "c2": ("float", 0.5, 2.5, False),
    "v_max": ("float", 0.5, 10.0, False),
    "grid_divisions": ("int", 5, 20),
    "v_change": ("cat", (1.0, 0.1, 0.01, 0.001, -1.0)),
}

PARAM_SCHEMAS: dict[tuple[str, str], dict] = {
    (NSGA2, SBX_PM): dict(_GA),
    (NSGA2, RAND_P): dict(_DE_RAND),
    (NSGA2, BEST_P): dict(_DE_RAND),
    (NSGA2, CURRENT_TO_RAND_P): dict(_DE_CURRENT),
    (NSGA2, CURRENT_TO_BEST_P): dict(_DE_CURRENT),
    (MOEAD, SBX_PM): {**_GA, **_MOEAD_EXTRAS},
    (MOEAD, RAND_P): {**_DE_RAND, **_MOEAD_EXTRAS},
    (MOEAD, CURRENT_TO_RAND_P): {**_DE_CURRENT, **_MOEAD_EXTRAS},
    (MOPSO, SMPSO): {**_PSO_SHARED, "pm_eta": ("int", 1, 100), "constriction": ("cat", (True, False))},
    (MOPSO, OMOPSO): {**_PSO_SHARED, "b": ("int", 1, 20)},
    (MOPSO, NO_MUTATE): dict(_PSO_SHARED),
}


def _validate_value(name: str, value, spec) -> object:
    kind = spec[0]
    if kind == "int":
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ConfigurationError(f"parameter {name} must be an integer, got {value!r}")
        value = int(value)
        if not spec[1] <= value <= spec[2]:
            raise ConfigurationError(f"parameter {name}={value} outside [{spec[1]}, {spec[2]}]")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
            raise ConfigurationError(f"parameter {name} must be a real number, got {value!r}")
        value = float(value)
        lo, hi, low_open = spec[1], spec[2], spec[3]
        if value > hi or value < lo or (low_open and value == lo):
            left = "(" if low_open else "["
            raise ConfigurationError(f"parameter {name}={value} outside {left}{lo}, {hi}]")
        return value
    if kind == "cat":
        for allowed in spec[1]:
            if type(allowed) is type(value) and allowed == value:
                return value
            if isinstance(allowed, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
                if float(value) == allowed:
                    return allowed
            if isinstance(allowed, int) and not isinstance(allowed, bool):
                if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and int(value) == allowed:
                    return allowed
        raise ConfigurationError(f"parameter {name}={value!r} not among {spec[1]}")
    raise AssertionError(f"bad schema entry {spec!r}")


@dataclass(frozen=True)
class AlgorithmConfig:
    """A point of the configuration space: foundation + operator + parameters."""

    foundation: str
    operator: str
    params: tuple = ()

    @staticmethod
    def make(foundation: str, operator: str, **params) -> "AlgorithmConfig":
        if foundation not in FOUNDATIONS:
            raise ConfigurationError(f"unknown foundation algorithm {foundation!r}")
        if operator not in LEGAL_OPERATORS[foundation]:
            raise ConfigurationError(
                f"operator {operator!r} is not available for {foundation} "
                f"(choose from {LEGAL_OPERATORS[foundation]})"
            )
        schema = PARAM_SCHEMAS[(foundation, operator)]
        missing = sorted(set(schema) - set(params))
        extra = sorted(set(params) - set(schema))
        if missing:
            raise ConfigurationError(f"{foundation}/{operator} missing parameters {missing}")
        if extra:
            raise ConfigurationError(f"{foundation}/{operator} got unknown parameters {extra}")
        clean = tuple((k, _validate_value(k, params[k], schema[k])) for k in sorted(schema))
        return AlgorithmConfig(foundation, operator, clean)

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"foundation": self.foundation, "operator": self.operator, **dict(self.params)}

    def fingerprint(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def label(self) -> str:
        return f"{self.foundation}/{self.operator}#{self.fingerprint()[:6]}"


@dataclass(frozen=True)
class RunBudget:
    pop_size: int
    max_generations: int

    def __post_init__(self):
        if self.pop_size < 1:
            raise ConfigurationError("population size must be positive")
        if self.max_generations < 0:
            raise ConfigurationError("generation budget must be non-negative")

    def scaled(self, gen_factor: int = 1, pop_factor: int = 1) -> "RunBudget":
        return RunBudget(self.pop_size * pop_factor, self.max_generations * gen_factor)


@dataclass(frozen=True)
class RunResult:
    solution_set: SolutionSet = field(repr=False)
    evaluations: int
    wall_time: float
    seed: int
    pop_size_used: int


def run(config: AlgorithmConfig, problem, budget: RunBudget, seed: int) -> RunResult:
    """Run a configuration's engine at ``seed`` and record the run.  The
    engine is looked up through its module on every call, so that a tracer
    or a test can replace it."""
    if config.foundation not in FOUNDATIONS:
        raise ConfigurationError(f"unknown foundation algorithm {config.foundation!r}")
    if config.operator not in LEGAL_OPERATORS[config.foundation]:
        raise ConfigurationError(
            f"operator {config.operator!r} is not legal for {config.foundation}"
        )
    from . import moead, mopso, nsga2

    start = time.perf_counter()
    rng = rng_for(seed)
    if config.foundation == NSGA2:
        found, pop_size_used = nsga2.run_nsga2(problem, config, budget, rng)
    elif config.foundation == MOEAD:
        found, pop_size_used = moead.run_moead(problem, config, budget, rng)
    else:
        found, pop_size_used = mopso.run_mopso(problem, config, budget, rng)
    found.validate()
    evaluations = pop_size_used * (budget.max_generations + 1)
    return RunResult(found, evaluations, time.perf_counter() - start, seed, pop_size_used)

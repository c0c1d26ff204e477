"""moeapap: parallel algorithm portfolios of multi-objective evolutionary
algorithms, with automatic portfolio construction and an experiment harness.
"""

from .core import (
    ConfigurationError,
    ContractViolationError,
    Dominance,
    SolutionSet,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    nondominated_filter,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractViolationError",
    "Dominance",
    "SolutionSet",
    "crowding_distance",
    "dominates",
    "fast_nondominated_sort",
    "nondominated_filter",
    "__version__",
]

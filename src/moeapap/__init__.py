"""moeapap: parallel algorithm portfolios of multi-objective evolutionary
algorithms, with automatic portfolio construction and an experiment harness.
"""

from .core import (
    ConfigurationError,
    ContractViolationError,
    SolutionSet,
    fast_nondominated_sort,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractViolationError",
    "SolutionSet",
    "fast_nondominated_sort",
    "__version__",
]

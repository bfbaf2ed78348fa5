"""MINLP solving for the gathering problem (MIDACO substitute): the model
(Eq. 10), an exact dynamic program, an ant-colony solver, and an
exhaustive test oracle."""

from .aco import ACOResult, ACOSolver
from .bruteforce import exhaustive_gathering, solution_space_size
from .exact import exact_gathering
from .minlp import GatheringModel

__all__ = [
    "GatheringModel",
    "exact_gathering",
    "ACOSolver",
    "ACOResult",
    "exhaustive_gathering",
    "solution_space_size",
]

"""Multigrid-based error-bounded data refactoring (pMGARD substitute).

Decomposes nD floating-point scientific arrays into a hierarchy of
progressive components whose sizes increase and whose reconstruction
errors decrease from top to bottom, exactly the structure RAPIDS applies
heterogeneous erasure coding to.
"""

from .error_model import MGARD_CONSTANT, relative_linf_error, theoretical_bound
from .grid import LevelPlan, plan_levels
from .refactorer import RefactoredObject, Refactorer
from .retrieval import RetrievalPlan, error_prefix
from .serialization import load_directory, save_directory
from .transform import decompose, recompose

__all__ = [
    "Refactorer",
    "RefactoredObject",
    "decompose",
    "recompose",
    "plan_levels",
    "LevelPlan",
    "relative_linf_error",
    "theoretical_bound",
    "MGARD_CONSTANT",
    "RetrievalPlan",
    "error_prefix",
    "save_directory",
    "load_directory",
]

"""Multigrid-based error-bounded data refactoring (pMGARD substitute).

Decomposes nD floating-point scientific arrays into a hierarchy of
progressive components whose sizes increase and whose reconstruction
errors decrease from top to bottom, exactly the structure RAPIDS applies
heterogeneous erasure coding to.
"""

from .error_model import MGARD_CONSTANT, relative_linf_error, theoretical_bound
from .grid import LevelPlan, plan_levels
from .refactorer import RefactoredObject, Refactorer
from .retrieval import RetrievalPlan, bytes_for_error, components_for_error
from .serialization import (
    from_archive_bytes,
    load_archive,
    load_directory,
    save_archive,
    save_directory,
    to_archive_bytes,
)
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
    "components_for_error",
    "bytes_for_error",
    "save_directory",
    "load_directory",
    "save_archive",
    "load_archive",
    "to_archive_bytes",
    "from_archive_bytes",
]

"""Error-controlled retrieval: how much of the hierarchy does a target
accuracy actually need?

pMGARD's headline capability (§2.2, [34]) is *error-controlled,
progressive and adaptable* retrieval: an analysis task states the error
it can tolerate and fetches only the prefix of the refactored
representation that achieves it.  RAPIDS inherits this — during
restoration there is no reason to gather level 4's huge fragments when
level 2's accuracy suffices.

:func:`error_prefix` is the one place a level error is compared with a
target: every "how many levels does this error need?" answer — this
module's :class:`RetrievalPlan` (the error-vs-bytes frontier of a
refactored object) and :func:`repro.core.gathering.plan_retrieval` (the
level prefix a restore gathers) — goes through it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from .refactorer import RefactoredObject

__all__ = ["error_prefix", "RetrievalPlan"]


def error_prefix(errors: Sequence[float], target_error: float) -> int | None:
    """Length of the shortest prefix whose error meets ``target_error``.

    ``errors[j]`` is the error after the first ``j + 1`` levels.  Returns
    ``None`` when no prefix does (the target is below the quantisation
    floor).  The target must be a positive number; ``inf`` is valid and
    asks for one level.  NaN, zero and negative targets raise
    :class:`ValueError`.
    """
    if math.isnan(target_error) or target_error <= 0:
        raise ValueError(
            f"target_error must be a positive number, got {target_error!r}"
        )
    for j, err in enumerate(errors, start=1):
        if err <= target_error:
            return j
    return None


@dataclass(frozen=True)
class RetrievalPlan:
    """The error-vs-bytes frontier of one refactored object.

    ``points[j]`` is ``(cumulative_bytes, error)`` after retrieving the
    first ``j + 1`` components: the measured errors, or the closed-form
    error bounds (guaranteed, conservative) of an object measured
    without them.
    """

    points: tuple[tuple[int, float], ...]

    @classmethod
    def for_object(cls, obj: RefactoredObject) -> "RetrievalPlan":
        profile = obj.errors or obj.bounds
        if not profile:
            raise ValueError("object has neither measured errors nor bounds")
        if len(profile) != obj.num_components:
            raise ValueError(
                f"error profile length {len(profile)} does not match "
                f"{obj.num_components} components"
            )
        return cls(tuple(zip(accumulate(obj.sizes), map(float, profile))))

    @property
    def total_bytes(self) -> int:
        return self.points[-1][0]

    @property
    def floor_error(self) -> float:
        return self.points[-1][1]

    def components_needed(self, target_error: float) -> int:
        """Smallest number of leading components meeting ``target_error``.

        Raises :class:`ValueError` if even the full representation cannot
        meet the target (the quantisation floor is the hard limit).
        """
        j = error_prefix([err for _, err in self.points], target_error)
        if j is None:
            raise ValueError(
                f"target {target_error:g} below the floor "
                f"{self.floor_error:g}; re-refactor with more bitplanes"
            )
        return j

    def budget_for_error(self, target_error: float) -> int:
        """Bytes needed for ``target_error`` (ValueError if unreachable)."""
        return self.points[self.components_needed(target_error) - 1][0]

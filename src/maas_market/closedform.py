"""Closed-form price bounds for two stylized duopoly settings.

Both settings live on a line network.  The first has an operator pair that
can either cooperate on a two-leg path or let one of them compete alone on a
direct link; the bound is a floor on the second leg's stable price.  The
second pits a small operator against a larger one that owns a parallel
segment; the bound is a ceiling on the small operator's stable price.  The
CLI's ``lemma1`` and ``lemma2`` print them, and the tests use them as
independent oracles for the general pipeline on instances they build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


def _check(instance, message: str, positive=()) -> None:
    """ValidationError naming the first field that is NaN or infinite, else
    ``message`` when a field is negative or one in ``positive`` is 0."""
    for name, value in vars(instance).items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
        if value < 0 or (value == 0 and name in positive):
            raise ValidationError(message)


@dataclass(frozen=True)
class CoopCompeteInstance:
    """Two-leg cooperative path (1-2-3) against a direct competing link (1-3)."""

    t12: float
    t23: float
    t13: float
    c12: float
    c23: float
    c13: float
    d: float

    def __post_init__(self):
        _check(self, "costs must be non-negative and demand positive", positive=("d",))

    def cooperation_optimal(self) -> bool:
        coop = self.d * (self.t12 + self.t23) + self.c12 + self.c23
        direct = self.d * self.t13 + self.c13
        return coop <= direct + 1e-12


@dataclass(frozen=True)
class SmallVsLargeInstance:
    """Small operator's segment (2-3) in parallel with a large operator's own."""

    t23_small: float
    t23_large: float
    c23_large: float
    x23_large_flow: float

    def __post_init__(self):
        _check(self, "all fields must be non-negative")


def lemma1_lower_bound(inst: CoopCompeteInstance) -> float:
    """Floor on the second-leg operator's stable price when cooperation wins.

    Raw value; may be negative, in which case the non-negative price domain
    makes it vacuous.
    """
    if not inst.cooperation_optimal():
        raise ValidationError(
            "cooperation is not optimal: the bound does not apply")
    return ((inst.c12 + inst.c23) / inst.d
            - inst.t13 - inst.c13 + inst.t12 + inst.t23)


def lemma2_upper_bound(inst: SmallVsLargeInstance) -> float:
    """Ceiling on the small operator's stable price against a larger rival."""
    if inst.t23_small > inst.t23_large:
        raise ValidationError(
            "the small operator must be at least as fast: bound does not apply")
    if inst.x23_large_flow > 0:
        return 0.0
    return inst.t23_large - inst.t23_small + inst.c23_large

"""Numeric tolerances and algorithm constants.

All tolerances are overridable per call; the defaults are sized for
double-precision bilinear forms on desk-scale matrices, where rounding
error stays far below 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ParameterError


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through every numeric operation.

    zero    - support truncation and generic numeric-zero threshold
    sum     - allowed deviation of a probability vector's total mass from 1
    lp      - simplex pivot / feasibility tolerance, below 1
    eq      - equilibrium verification threshold on regrets
    dedup   - variation distance below which two profiles are merged

    Every tolerance must be finite and non-negative.
    """

    zero: float = 1e-9
    sum: float = 1e-9
    lp: float = 1e-8
    eq: float = 1e-7
    dedup: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ParameterError(
                    f"the {f.name} tolerance {value} must be finite and non-negative"
                )
        # below 1, the simplex's phase-1 drive-out always has a real pivot
        # (lp.solve_lp)
        if not self.lp < 1.0:
            raise ParameterError(f"the lp tolerance {self.lp} must be below 1")

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT_TOLS = Tolerances()

# Coefficient c in the light-part sample size S = c * (delta/eps)^2 * log(n).
# The proof constant is loose; experiments may shrink it.
LIGHT_SAMPLE_COEFF = 56.0 ** 2

# Secondary coefficient c' sizing the reference-distribution family
# k2 <= n ** (c' * (delta/eps)^2) in the randomized-split probe. The probe
# samples far fewer reference vectors than that bound; see the probe docs.
PROBE_REFERENCE_COEFF = 27.0

# Support pairs one walk may visit, screened ones included: the one
# support-pair walk (oracle._pair_chunks) counts the pairs of its size
# pairs and raises above it before any work, for every caller alike.
DEFAULT_ENUM_BUDGET = 100_000

# Subsets of a reference's movable support one distance maximization may
# cover, an LP each (stability.max_distance and stability.subset_sweep): it
# raises above it before any LP, in the constant-sum certifier and in the
# approximation-stability estimators alike.
DEFAULT_PARTITION_BUDGET = 2 ** 20

# Floats one stacked pass may hold: the sampler's probabilities per pass and
# a simplex stack chunk's tableaus with their working copies
# (lp.solve_stack) alike.
STACK_FLOATS = 1 << 18

# Anchor budgets for the constant-sum stability certifier.
ANCHOR_SUPPORT_MULTIPLIER = 1.0  # K in target support ceil(log(n)/alpha^2) * K
ANCHOR_RESAMPLE_LIMIT = 200

# Bounded retries for the fair-coin split deviation; the failure probability
# halves per retry once the light part has at least two atoms.
SPLIT_RETRY_LIMIT = 64

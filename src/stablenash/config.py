"""Numeric tolerances and algorithm constants.

All tolerances are overridable per call; the defaults are sized for
double-precision bilinear forms on desk-scale matrices, where rounding
error stays far below 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through every numeric operation.

    zero    - support truncation and generic numeric-zero threshold
    sum     - allowed deviation of a probability vector's total mass from 1
    lp      - simplex pivot / feasibility tolerance
    eq      - equilibrium verification threshold on regrets
    dedup   - variation distance below which two profiles are merged
    """

    zero: float = 1e-9
    sum: float = 1e-9
    lp: float = 1e-8
    eq: float = 1e-7
    dedup: float = 1e-6

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

# Support-pair guard: the pairs a search visits must stay at or below this
# budget. Enumeration visits the equal-size pairs, sum over k <= max_support
# of C(rows, k) * C(cols, k), and on a degenerate game all size pairs,
# (sum_a C(rows, a)) * (sum_b C(cols, b)); the well-supported search
# visits all size pairs.
DEFAULT_ENUM_BUDGET = 100_000

# Algorithm budgets for the constant-sum stability certifier.
DEFAULT_PARTITION_BUDGET = 2 ** 20
ANCHOR_SUPPORT_MULTIPLIER = 1.0  # K in target support ceil(log(n)/alpha^2) * K
ANCHOR_RESAMPLE_LIMIT = 200

# Bounded retries for the fair-coin split deviation; the failure probability
# halves per retry once the light part has at least two atoms.
SPLIT_RETRY_LIMIT = 64

"""Bimatrix games, mixed strategies, distances, and regret measurements.

These are the fundamental value types every other module consumes. All
operations are pure functions on immutable values (the payoff matrices and
probability vectors are stored as read-only arrays), so values are freely
shareable across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import PayoffRangeWarning, ShapeError, ValidationError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """Two-player game given by row-player and column-player payoff matrices.

    ``nominal_range`` is the closed interval the payoffs are declared to lie
    in. Entries outside it are flagged with a :class:`PayoffRangeWarning`,
    never rejected: perturbed games legitimately leave the base range, and
    some textbook payoff formulas produce negative entries as written.
    """

    R: np.ndarray
    C: np.ndarray
    nominal_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if R.ndim != 2 or C.ndim != 2:
            raise ShapeError("payoff matrices must be 2-dimensional")
        if R.shape != C.shape:
            raise ShapeError(f"payoff matrices differ in shape: {R.shape} vs {C.shape}")
        if R.shape[0] < 1 or R.shape[1] < 1:
            raise ShapeError("payoff matrices must be at least 1x1")
        if not (np.isfinite(R).all() and np.isfinite(C).all()):
            raise ValidationError("payoff matrices contain non-finite entries")
        lo, hi = self.nominal_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValidationError(f"invalid nominal range ({lo}, {hi})")
        object.__setattr__(self, "R", _readonly(R))
        object.__setattr__(self, "C", _readonly(C))
        object.__setattr__(self, "nominal_range", (float(lo), float(hi)))
        n_out = self.range_violations()
        if n_out:
            warnings.warn(
                f"{n_out} payoff entries lie outside the declared range "
                f"[{lo}, {hi}]",
                PayoffRangeWarning,
                stacklevel=2,
            )

    @property
    def rows(self) -> int:
        return self.R.shape[0]

    @property
    def cols(self) -> int:
        return self.R.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.R.shape

    def range_violations(self) -> int:
        """Number of payoff entries outside the declared nominal range."""
        lo, hi = self.nominal_range
        bad = (self.R < lo) | (self.R > hi) | (self.C < lo) | (self.C > hi)
        return int(bad.sum())

    def scaled(self, factor: float) -> "BimatrixGame":
        """Game with both payoff matrices multiplied by ``factor``."""
        lo, hi = self.nominal_range
        rng = (min(factor * lo, factor * hi), max(factor * lo, factor * hi))
        return BimatrixGame(factor * self.R, factor * self.C, rng)


def _clean(V: np.ndarray, tol: Tolerances, renormalize: bool) -> np.ndarray:
    """Validated, truncated and renormalized probability vectors, read-only.

    ``V`` holds one vector, or one per row; each must be finite, have no
    entry below ``-tol.zero`` and mass within ``tol.sum`` of 1. Entries at
    or below ``tol.zero`` become 0 and the rest are rescaled to mass 1.
    """
    if V.shape[-1] < 1:
        raise ValidationError("strategy vector is empty")
    if not np.isfinite(V).all():
        raise ValidationError("strategy vector contains non-finite entries")
    if np.count_nonzero(V < -tol.zero):
        raise ValidationError("strategy vector has a negative entry")
    totals = V.sum(axis=-1).reshape(-1)
    off = np.flatnonzero(np.abs(totals - 1.0) > tol.sum)
    if off.size:
        total = float(totals[off[0]])
        raise ValidationError(f"strategy mass {total!r} is not 1 within tolerance")
    V = np.where(V > tol.zero, V, 0.0)
    mass = V.sum(axis=-1, keepdims=True)
    if np.count_nonzero(mass <= 0.0):
        raise ValidationError("strategy vector has no mass above the zero threshold")
    if renormalize:
        V = V / mass
    V.setflags(write=False)
    return V


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's pure actions.

    ``support`` is exactly the index set of entries above the truncation
    threshold; entries at or below it are zeroed and the vector renormalized,
    because LP solutions carry numerical dust that would otherwise corrupt
    well-supported checks.
    """

    probs: np.ndarray
    support: tuple[int, ...]

    @classmethod
    def from_probs(
        cls, probs, tol: Tolerances = DEFAULT_TOLS, renormalize: bool = True
    ) -> "MixedStrategy":
        v = _clean(np.asarray(probs, dtype=float).reshape(-1), tol, renormalize)
        return cls(v, tuple(np.flatnonzero(v).tolist()))

    @classmethod
    def from_rows(cls, rows, tol: Tolerances = DEFAULT_TOLS) -> list["MixedStrategy"]:
        """:meth:`from_probs` of each row of a 2-D stack, validated at once.

        The rows are checked, truncated and renormalized with the arithmetic
        of :meth:`from_probs`, so the strategies are bitwise those of one
        ``from_probs`` call per row. The supports come from one ``V != 0``
        mask, read row by row.
        """
        V = _clean(np.asarray(rows, dtype=float), tol, True)
        mask = V != 0
        cols = np.nonzero(mask)[1].tolist()  # row-major: each row's support in turn
        ends = np.cumsum(mask.sum(axis=1)).tolist()
        return [cls(v, tuple(cols[a:b])) for v, a, b in zip(V, [0] + ends, ends)]

    @classmethod
    def point_mass(cls, index: int, n: int) -> "MixedStrategy":
        if not 0 <= index < n:
            raise ValidationError(f"index {index} outside 0..{n - 1}")
        v = np.zeros(n)
        v[index] = 1.0
        return cls(_readonly(v), (index,))

    @classmethod
    def uniform(cls, n: int) -> "MixedStrategy":
        if n < 1:
            raise ValidationError("need at least one action")
        return cls(_readonly(np.full(n, 1.0 / n)), tuple(range(n)))

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """A (row-player, column-player) pair of mixed strategies."""

    row: MixedStrategy
    col: MixedStrategy

    @classmethod
    def from_vectors(cls, p, q, tol: Tolerances = DEFAULT_TOLS) -> "StrategyProfile":
        return cls(MixedStrategy.from_probs(p, tol), MixedStrategy.from_probs(q, tol))

    @classmethod
    def from_rows(cls, P, Q, tol: Tolerances = DEFAULT_TOLS) -> list["StrategyProfile"]:
        """One profile per row pair of the stacks ``P`` and ``Q``, bitwise
        those of :meth:`from_vectors` on each pair."""
        rows = MixedStrategy.from_rows(P, tol)
        cols = MixedStrategy.from_rows(Q, tol)
        return [cls(r, c) for r, c in zip(rows, cols)]


@dataclass(frozen=True)
class RegretReport:
    """Deviation incentives of a profile.

    ``row_regret``/``col_regret`` measure the gain from the best pure
    deviation over the realized expected payoff. ``row_ws_gap``/``col_ws_gap``
    measure how far the worst *supported* action falls below the best pure
    response. The two measures are incomparable in general; each is >= 0,
    and an exact Nash equilibrium drives all four to zero.
    """

    row_regret: float
    col_regret: float
    row_ws_gap: float
    col_ws_gap: float

    @property
    def max_regret(self) -> float:
        return max(self.row_regret, self.col_regret)

    @property
    def max_ws_gap(self) -> float:
        return max(self.row_ws_gap, self.col_ws_gap)

    def is_epsilon_equilibrium(self, eps: float, slack: float = 0.0) -> bool:
        return self.max_regret <= eps + slack

    def is_well_supported(self, eps: float, slack: float = 0.0) -> bool:
        return self.max_ws_gap <= eps + slack


def _check_profile_shape(game: BimatrixGame, profile: StrategyProfile) -> None:
    if len(profile.row) != game.rows or len(profile.col) != game.cols:
        raise ShapeError(
            f"profile shape ({len(profile.row)}, {len(profile.col)}) does not "
            f"match game shape {game.shape}"
        )


def expected_payoffs(game: BimatrixGame, profile: StrategyProfile) -> tuple[float, float]:
    """Expected payoffs (p R q, p C q) as exact bilinear forms."""
    _check_profile_shape(game, profile)
    p, q = profile.row.probs, profile.col.probs
    return float(p @ game.R @ q), float(p @ game.C @ q)


def variation_distance(a: MixedStrategy, b: MixedStrategy) -> float:
    """Half the L1 distance between two distributions; a metric in [0, 1]."""
    if len(a) != len(b):
        raise ShapeError(f"strategy lengths differ: {len(a)} vs {len(b)}")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def profile_distance(a: StrategyProfile, b: StrategyProfile) -> float:
    """Maximum of the row-player and column-player variation distances."""
    return max(variation_distance(a.row, b.row), variation_distance(a.col, b.col))


def regrets(
    game: BimatrixGame, profile: StrategyProfile, tol: Tolerances = DEFAULT_TOLS
) -> RegretReport:
    """All four deviation measures of ``profile`` in ``game``.

    The one-row view of :func:`raw_regrets`. Strategy vectors hold exact
    zeros off their support, so the ``> 0`` mask is the support.
    """
    _check_profile_shape(game, profile)
    stack = raw_regrets(game.R, game.C, profile.row.probs, profile.col.probs, 0.0)
    return RegretReport(*(float(a[0]) for a in stack))


def raw_regrets(
    R: np.ndarray, C: np.ndarray, p: np.ndarray, q: np.ndarray, zero: float = 1e-9
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Regrets of a stack of profiles on raw arrays.

    ``p`` and ``q`` are ``(m, rows)`` and ``(m, cols)`` stacks (a single
    vector counts as a stack of one); each profile's support is its
    ``> zero`` mask. Returns the four measures of :class:`RegretReport`,
    in its field order, as length-``m`` arrays.

    The best and supported-worst payoffs are reduced over actions-major
    copies of the payoff stacks, one contiguous ``(actions, m)`` array per
    player, because numpy reduces a leading axis several times faster than
    rows of a few entries; max and min are exact in any order, so the
    results are bitwise those of row-wise reductions. The two values stay
    row sums: numpy sums a row pairwise, and a sum over the leading axis
    adds in the same order only below 8 actions.
    """
    P = p.reshape(-1, R.shape[0])
    Q = q.reshape(-1, R.shape[1])
    row_payoffs = Q @ R.T
    col_payoffs = P @ C
    row_by_action = np.ascontiguousarray(row_payoffs.T)
    col_by_action = np.ascontiguousarray(col_payoffs.T)
    row_best = row_by_action.max(axis=0)
    col_best = col_by_action.max(axis=0)
    row_value = (P * row_payoffs).sum(axis=1)
    col_value = (Q * col_payoffs).sum(axis=1)
    row_supported_min = row_by_action.min(axis=0, where=(P > zero).T, initial=np.inf)
    col_supported_min = col_by_action.min(axis=0, where=(Q > zero).T, initial=np.inf)
    return (
        np.maximum(0.0, row_best - row_value),
        np.maximum(0.0, col_best - col_value),
        np.maximum(0.0, row_best - row_supported_min),
        np.maximum(0.0, col_best - col_supported_min),
    )


def is_perturbation_within(
    g: BimatrixGame, g_prime: BimatrixGame, alpha: float, tol: Tolerances = DEFAULT_TOLS
) -> bool:
    """True iff every payoff entry of ``g_prime`` is within ``alpha`` of ``g``."""
    if g.shape != g_prime.shape:
        raise ShapeError(f"game shapes differ: {g.shape} vs {g_prime.shape}")
    bound = alpha + tol.zero
    return bool(
        np.abs(g.R - g_prime.R).max() <= bound
        and np.abs(g.C - g_prime.C).max() <= bound
    )

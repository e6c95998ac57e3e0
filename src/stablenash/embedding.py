"""Embedding of arbitrary square games into strongly stable ones.

The embedded game adds one escape action per player, played with large
probability, which compresses the source game's incentives by a factor of
delta/2. Solving the embedded game to accuracy delta^4 / 8 and renormalizing
the mass on the original actions recovers a delta-equilibrium of the source.
``modified_matching_pennies`` builds the underlying family directly from its perturbation
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .core import BimatrixGame, StrategyProfile, regrets
from .errors import CertificateError, ParameterError, PreconditionError, ShapeError, ValidationError

MAX_DELTA = 0.1  # the family's stability analysis needs delta <= 1/10
# The round-trip guarantee only needs the mass-bound case analysis, whose
# inequalities hold with margin up to delta = 0.2, so the embedding accepts
# the wider range.
EMBED_MAX_DELTA = 0.2


@dataclass(frozen=True)
class EmbeddedGame:
    """An (n+1)x(n+1) embedding of an n x n source game."""

    game: BimatrixGame
    epsilon: float
    delta: float
    source_shape: int


def modified_matching_pennies(
    n: int,
    delta: float,
    row_tilt=None,
    col_tilt=None,
) -> BimatrixGame:
    """Modified matching-pennies family on n+1 actions per player.

    The top-left block pays the row player 1 + row_tilt (entries in
    [-delta, 0]) and the column player col_tilt (entries in [0, delta]); the
    extra action pair pays (2*delta, 0) against itself, 0 elsewhere for the
    row player and (1, 2*delta) on the borders for the column player. Zero
    tilts give the clean family member.
    """
    if n < 1:
        raise ParameterError("n must be at least 1")
    if not 0 < delta <= MAX_DELTA + 1e-12:
        raise ParameterError(f"delta must lie in (0, {MAX_DELTA}]")
    row_tilt = np.zeros((n, n)) if row_tilt is None else np.asarray(row_tilt, float)
    col_tilt = np.zeros((n, n)) if col_tilt is None else np.asarray(col_tilt, float)
    if row_tilt.shape != (n, n) or col_tilt.shape != (n, n):
        raise ParameterError("tilt matrices must be n x n")
    if (row_tilt < -delta - 1e-12).any() or (row_tilt > 1e-12).any():
        raise ParameterError("row tilt entries must lie in [-delta, 0]")
    if (col_tilt < -1e-12).any() or (col_tilt > delta + 1e-12).any():
        raise ParameterError("column tilt entries must lie in [0, delta]")
    R = np.zeros((n + 1, n + 1))
    C = np.zeros((n + 1, n + 1))
    R[:n, :n] = 1.0 + row_tilt
    R[n, n] = 2.0 * delta
    C[:n, :n] = col_tilt
    C[:n, n] = 1.0
    C[n, :n] = 2.0 * delta
    return BimatrixGame(R, C)


def random_modified_matching_pennies(n: int, delta: float, seed) -> BimatrixGame:
    """Family member with uniform-random tilt matrices in range."""
    rng = np.random.default_rng(seed)
    row_tilt = rng.uniform(-delta, 0.0, size=(n, n))
    col_tilt = rng.uniform(0.0, delta, size=(n, n))
    return modified_matching_pennies(n, delta, row_tilt, col_tilt)


def embed(game: BimatrixGame, eps: float) -> EmbeddedGame:
    """Linear embedding of a square [0, 1] game at accuracy target ``eps``.

    With delta = (8*eps)^(1/4), the row block becomes
    1 - delta/2 + (delta/2) R bordered by a zero column and row with corner
    2*delta; the column block becomes delta/2 + (delta/2) C bordered by an
    all-ones column, a 2*delta row, and corner 0.
    """
    if game.rows != game.cols:
        raise ShapeError("only square games can be embedded")
    if (game.R < 0).any() or (game.R > 1).any() or (game.C < 0).any() or (game.C > 1).any():
        raise ValidationError("embedding requires payoffs in [0, 1]")
    if not eps > 0:
        raise ParameterError("eps must be positive")
    delta = (8.0 * eps) ** 0.25
    if delta > EMBED_MAX_DELTA + 1e-12:
        raise ParameterError(
            f"eps {eps} gives delta {delta:.4g} above the {EMBED_MAX_DELTA} limit"
        )
    n = game.rows
    R = np.zeros((n + 1, n + 1))
    C = np.zeros((n + 1, n + 1))
    R[:n, :n] = 1.0 - delta / 2.0 + (delta / 2.0) * game.R
    R[n, n] = 2.0 * delta
    C[:n, :n] = delta / 2.0 + (delta / 2.0) * game.C
    C[:n, n] = 1.0
    C[n, :n] = 2.0 * delta
    return EmbeddedGame(
        game=BimatrixGame(R, C),
        epsilon=float(eps),
        delta=float(delta),
        source_shape=n,
    )


def reconstruct_source(embedded: EmbeddedGame) -> BimatrixGame:
    """Invert the affine block maps to recover the embedded source game."""
    n = embedded.source_shape
    half = embedded.delta / 2.0
    R = (embedded.game.R[:n, :n] - (1.0 - half)) / half
    C = (embedded.game.C[:n, :n] - half) / half
    # inversion round-off can leave entries a few ulp outside [0, 1]
    return BimatrixGame(np.clip(R, 0.0, 1.0), np.clip(C, 0.0, 1.0))


def extract(
    embedded: EmbeddedGame,
    profile: StrategyProfile,
    tol: Tolerances = DEFAULT_TOLS,
) -> StrategyProfile:
    """Source-game profile recovered from an embedded-game solution.

    Checks the proof hypotheses at runtime instead of trusting the caller:
    the input must be a delta^4 / 8 equilibrium of the embedded game and
    each strategy must put between delta/2 and 4*delta mass on the original
    actions; the output is verified to be a delta-equilibrium of the
    (reconstructed) source game.
    """
    n = embedded.source_shape
    source = reconstruct_source(embedded)
    if len(profile.row) != n + 1 or len(profile.col) != n + 1:
        raise ShapeError("profile does not match the embedded game's shape")
    delta = embedded.delta
    eps_target = delta**4 / 8.0
    mass_p = float(profile.row.probs[:n].sum())
    mass_q = float(profile.col.probs[:n].sum())
    lo, hi = delta / 2.0, 4.0 * delta
    for name, mass in (("row", mass_p), ("column", mass_q)):
        if not lo - tol.zero <= mass <= hi + tol.zero:
            raise CertificateError(
                f"{name} mass {mass:.4g} on the original actions falls outside "
                f"[{lo:.4g}, {hi:.4g}]; the input cannot be a genuine "
                f"{eps_target:.3g}-equilibrium"
            )
    rep = regrets(embedded.game, profile, tol)
    if rep.max_regret > eps_target + tol.eq:
        raise PreconditionError(
            f"profile has regret {rep.max_regret:.3g}, above the "
            f"required {eps_target:.3g}"
        )
    p = profile.row.probs[:n] / mass_p
    q = profile.col.probs[:n] / mass_q
    out = StrategyProfile.from_vectors(p, q, tol)
    out_rep = regrets(source, out, tol)
    if out_rep.max_regret > delta + tol.eq:
        raise CertificateError(
            f"extracted profile has source regret {out_rep.max_regret:.3g}, "
            f"above delta = {delta:.3g}"
        )
    return out

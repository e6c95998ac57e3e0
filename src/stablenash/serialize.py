"""JSON schemas shared by the CLI and file interfaces.

A game is ``{"rows": n, "cols": m, "R": [[...]], "C": [[...]],
"range": [lo, hi]}`` with row-major numeric arrays; strategy pairs are
``{"p": [...], "q": [...]}``. Embedded games are a game object with an
extra ``meta`` block, so they remain directly consumable by every
game-reading command. ``canonical_dumps`` renders any report with sorted
keys and fixed separators, making equal results byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .core import BimatrixGame, StrategyProfile
from .embedding import EmbeddedGame
from .errors import ValidationError
from .oracle import EquilibriumSet
from .stability import StabilityReport, Witness
from .support import SearchResult
from .constant_sum import StrongStabilityCertificate


def _floats(a) -> list:
    return [float(x) for x in np.asarray(a, dtype=float).reshape(-1)]


def _matrix(a) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def game_to_dict(game: BimatrixGame) -> dict:
    return {
        "rows": game.rows,
        "cols": game.cols,
        "R": _matrix(game.R),
        "C": _matrix(game.C),
        "range": [game.nominal_range[0], game.nominal_range[1]],
    }


def game_from_dict(d: dict) -> BimatrixGame:
    try:
        R = np.asarray(d["R"], dtype=float)
        C = np.asarray(d["C"], dtype=float)
        lo, hi = (float(x) for x in d.get("range", (0.0, 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed game object: {exc}") from exc
    if "rows" in d and (R.ndim != 2 or R.shape != (d["rows"], d.get("cols", R.shape[1]))):
        raise ValidationError("declared rows/cols do not match the matrices")
    return BimatrixGame(R, C, (lo, hi))


def profile_to_dict(profile: StrategyProfile) -> dict:
    return {"p": _floats(profile.row.probs), "q": _floats(profile.col.probs)}


def profile_from_dict(d: dict, tol: Tolerances = DEFAULT_TOLS) -> StrategyProfile:
    try:
        p = np.asarray(d["p"], dtype=float)
        q = np.asarray(d["q"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed profile object: {exc}") from exc
    return StrategyProfile.from_vectors(p, q, tol)


def equilibrium_set_to_dict(eqs: EquilibriumSet) -> dict:
    return {
        "equilibria": [profile_to_dict(e) for e in eqs.equilibria],
        "count": len(eqs),
        "complete": eqs.complete,
        "method": eqs.method,
    }


def search_result_to_dict(result: SearchResult | None) -> dict:
    if result is None:
        return {"found": False}
    return {
        "found": True,
        "profile": profile_to_dict(result.profile),
        "support_sizes": list(result.support_sizes),
        "supports_tried": result.supports_tried,
        "epsilon": result.epsilon,
    }


def witness_to_dict(w: Witness) -> dict:
    out = {
        "distance": w.distance,
        "profile": profile_to_dict(w.profile),
        "label": w.label,
    }
    if w.perturbed_game is not None:
        out["perturbed_game"] = game_to_dict(w.perturbed_game)
    return out


def stability_report_to_dict(report: StabilityReport) -> dict:
    return {
        "mode": report.mode,
        "epsilon": report.epsilon,
        "delta_hat": report.delta_hat,
        "trials": report.trials,
        "witnesses": [witness_to_dict(w) for w in report.witnesses],
    }


def certificate_to_dict(cert: StrongStabilityCertificate) -> dict:
    return {
        "alpha": cert.alpha,
        "delta": cert.delta,
        "p_prime": _floats(cert.p_prime.probs),
        "q_prime": _floats(cert.q_prime.probs),
        "sandwich": cert.sandwich,
        "max_objective": cert.max_objective,
    }


def embedded_to_dict(embedded: EmbeddedGame) -> dict:
    out = game_to_dict(embedded.game)
    out["meta"] = {
        "eps": embedded.epsilon,
        "delta": embedded.delta,
        "source_shape": embedded.source_shape,
    }
    return out


def embedded_from_dict(d: dict) -> EmbeddedGame:
    game = game_from_dict(d)
    try:
        meta = d["meta"]
        epsilon, delta = float(meta["eps"]), float(meta["delta"])
        source_shape = int(meta["source_shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed embedded game meta block: {exc}") from exc
    return EmbeddedGame(game, epsilon, delta, source_shape)


def canonical_dumps(obj, indent: int | None = None) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    separators = (",", ": ") if indent else (",", ":")
    return (
        json.dumps(obj, sort_keys=True, indent=indent, separators=separators,
                   allow_nan=False)
        + "\n"
    )

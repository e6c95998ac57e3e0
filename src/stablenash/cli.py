"""Command-line front end emitting machine-readable JSON reports.

Subcommands read game JSON from stdin (or ``--input``) and write a JSON
result to stdout, so they compose by piping, e.g.::

    stablenash generate --family meeting --n 3 | stablenash oracle

Exit codes: 0 success, 2 validation/domain errors, 3 resource-budget
errors, 64 usage errors. Identical argv and seeds produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constant_sum, embedding, generators, serialize, stability
from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, Tolerances
from .errors import ResourceBudgetError, StablenashError
from .oracle import enumerate_equilibria
from .support import find_well_supported

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", default=None, help="game JSON file (default: stdin)")
    parser.add_argument("--json-indent", type=int, default=None, help="pretty-print JSON")
    parser.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET,
                        help="support-enumeration work budget")
    for name in ("zero", "sum", "lp", "eq", "dedup"):
        parser.add_argument(f"--tol-{name}", type=float, default=None)


def _tols(args) -> Tolerances:
    return DEFAULT_TOLS.with_overrides(
        zero=args.tol_zero, sum=args.tol_sum, lp=args.tol_lp,
        eq=args.tol_eq, dedup=args.tol_dedup,
    )


def _read_json(args) -> dict:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.load(sys.stdin)


def _read_game(args):
    return serialize.game_from_dict(_read_json(args))


def build_parser() -> _Parser:
    parser = _Parser(prog="stablenash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a named game family as JSON")
    g.add_argument("--family", required=True,
                   choices=["public-goods", "meeting", "mp", "mmp", "random"])
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--rows", type=int, default=None)
    g.add_argument("--cols", type=int, default=None)
    g.add_argument("--delta", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=None)
    _add_common(g)

    o = sub.add_parser("oracle", help="enumerate all equilibria of a small game")
    o.add_argument("--max-support", type=int, default=None)
    _add_common(o)

    s = sub.add_parser("solve", help="search for a well-supported eps-equilibrium")
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--max-support", type=int, default=None)
    _add_common(s)

    c = sub.add_parser("certify", help="estimate stability parameters (lower bound)")
    c.add_argument("--mode", required=True, choices=["perturb", "approx", "ws"])
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-support", type=int, default=None)
    _add_common(c)

    z = sub.add_parser("certify-zs", help="exact strong-stability radius (constant-sum)")
    z.add_argument("--alpha", type=float, required=True)
    z.add_argument("--seed", type=int, default=0)
    z.add_argument("--well-supported", action="store_true")
    _add_common(z)

    e = sub.add_parser("embed", help="embed a square [0,1] game into a stable one")
    e.add_argument("--eps", type=float, required=True)
    _add_common(e)

    x = sub.add_parser("extract", help="pull a source-game profile out of an embedding")
    x.add_argument("--profile", required=True,
                   help="profile JSON file ({'p': ..., 'q': ...} or a solve result)")
    _add_common(x)

    p = sub.add_parser("probe", help="Monte-Carlo check of the randomized split deviation")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    return parser


# Building the parser costs about fifty times what parsing does. Parsing
# leaves no state in it (each call returns a fresh Namespace, and a usage
# error raises before anything is stored), so one parser, built on the first
# call rather than at import, serves every call in the process.
_parser = functools.cache(build_parser)


def _dispatch(args) -> dict:
    tol = _tols(args)
    if args.command == "generate":
        fam = args.family
        if fam == "public-goods":
            game = generators.public_goods(args.n)
        elif fam == "meeting":
            game = generators.meeting_game(args.n)
        elif fam == "mp":
            game = generators.matching_pennies()
        elif fam == "mmp":
            if args.seed is None:
                game = embedding.modified_matching_pennies(args.n, args.delta)
            else:
                game = embedding.random_modified_matching_pennies(args.n, args.delta, args.seed)
        else:
            rows = args.rows if args.rows is not None else args.n
            cols = args.cols if args.cols is not None else args.n
            game = generators.random_game(rows, cols, args.seed or 0)
        return serialize.game_to_dict(game)

    if args.command == "oracle":
        game = _read_game(args)
        eqs = enumerate_equilibria(game, args.max_support, args.budget, tol)
        return serialize.equilibrium_set_to_dict(eqs)

    if args.command == "solve":
        game = _read_game(args)
        result = find_well_supported(game, args.eps, args.max_support, args.budget, tol)
        return serialize.search_result_to_dict(result)

    if args.command == "certify":
        game = _read_game(args)
        if args.mode == "perturb":
            report = stability.estimate_perturbation_stability(
                game, args.eps, args.trials, args.seed, args.max_support,
                args.budget, tol,
            )
        else:
            mode = (
                stability.MODE_WELL_SUPPORTED if args.mode == "ws"
                else stability.MODE_PLAIN
            )
            report = stability.estimate_approximation_stability(
                game, args.eps, mode, args.trials, args.seed, args.max_support,
                args.budget, tol,
            )
        return serialize.stability_report_to_dict(report)

    if args.command == "certify-zs":
        game = _read_game(args)
        if not args.well_supported:
            cert = constant_sum.strong_stability_parameters(
                game, args.alpha, args.seed, tol=tol
            )
            return serialize.certificate_to_dict(cert)
        cert, delta_l = constant_sum.well_supported_certificate(
            game, args.alpha, args.seed, tol=tol
        )
        out = serialize.certificate_to_dict(cert)
        out["well_supported"] = {
            "delta_l": delta_l,
            "delta_h": cert.delta,
            "stable": {"eps": args.alpha / 2.0, "delta": 2.0 * cert.delta},
            "not_stable": {"eps": args.alpha, "delta": delta_l / 2.0},
        }
        return out

    if args.command == "embed":
        game = _read_game(args)
        return serialize.embedded_to_dict(embedding.embed(game, args.eps))

    if args.command == "extract":
        emb = serialize.embedded_from_dict(_read_json(args))
        with open(args.profile, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and "profile" in raw:
            raw = raw["profile"]
        profile = serialize.profile_from_dict(raw, tol)
        out = embedding.extract(emb, profile, tol)
        return serialize.profile_to_dict(out)

    if args.command == "probe":
        game = _read_game(args)
        return stability.random_split_probe(
            game, args.eps, args.delta, args.trials, args.seed, tol=tol
        )

    raise _UsageError(f"unknown command {args.command!r}")


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StablenashError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(serialize.canonical_dumps(result, args.json_indent))
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

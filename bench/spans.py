"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded from outside the package: ``install`` rebinds the names
each calling module imported (``stablenash.oracle.solve_lp``,
``stablenash.stability.enumerate_equilibria``, ...) to wrappers that record
(name, start, end, parent). Spans stay in memory until ``layer_metrics``
reduces them at the end of a round. A layer's self time is its span time
minus the time its child spans cover; the program is single-threaded, so
child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

LP_CALLERS = ("oracle", "stability", "constant_sum", "support")


class Recorder:
    """Spans of one round plus counters for outcomes the spans cannot see."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self.counts_lp_solves = False
        self._stack = [-1]

    def clear(self) -> None:
        """Drop the spans and counters of the round just reduced."""
        del self.names[:], self.start[:], self.end[:], self.parent[:]
        self.counts.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(recorder, args,
        kwargs, result)`` may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def summary(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        n = len(self.names)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        stats: dict[str, list[float]] = {}
        for i in range(n):
            s = stats.setdefault(self.names[i], [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - child[i]
        return stats

    def beneath(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        total = 0
        for i, span_name in enumerate(self.names):
            if span_name != name:
                continue
            j = self.parent[i]
            while j >= 0 and self.names[j] != ancestor:
                j = self.parent[j]
            total += j >= 0
        return total


def _observe_lp(rec, args, kwargs, out):
    rec.count("lp.ok", int(out.ok))


def _observe_enumerate(rec, args, kwargs, eqs):
    rec.count("oracle.equilibria", len(eqs))


def _observe_sampler(rec, args, kwargs, samples):
    count = kwargs["count"] if "count" in kwargs else args[2]
    rec.count("sampler.requested", count)
    rec.count("sampler.returned", len(samples))


def _observe_cli(rec, args, kwargs, code):
    argv = args[0] if args else kwargs["argv"]
    if argv and argv[0] == "certify-zs":
        rec.count("cli.certify_zs")


def _bindings():
    """(module, attribute, span name, observer) for every traced name. Each
    is a name that a calling module looks up at call time."""
    b = [(f"stablenash.{m}", "solve_lp", f"lp@{m}", _observe_lp) for m in LP_CALLERS]
    b += [
        ("stablenash", "enumerate_equilibria", "oracle.enumerate", _observe_enumerate),
        ("stablenash.stability", "enumerate_equilibria", "oracle.enumerate", _observe_enumerate),
        ("stablenash.cli", "enumerate_equilibria", "oracle.enumerate", _observe_enumerate),
        ("stablenash.stability", "distance_to_set", "oracle.distance_to_set", None),
        ("stablenash.stability", "estimate_perturbation_stability", "stability.perturbation", None),
        ("stablenash.stability", "estimate_approximation_stability", "stability.approximation", None),
        ("stablenash.stability", "sample_approximate_equilibria", "stability.sampler", _observe_sampler),
        ("stablenash.stability", "random_split_probe", "stability.probe", None),
        ("stablenash.stability", "raw_regrets", "core.raw_regrets", None),
        ("stablenash.cli", "find_well_supported", "support.find_well_supported", None),
        ("stablenash.support", "lmm_sample", "support.lmm_sample", None),
        ("stablenash.constant_sum", "lmm_sample", "support.lmm_sample", None),
        ("stablenash.support", "small_support_approximation", "support.small_support_approximation", None),
        ("stablenash.constant_sum", "minimax_solve", "constant_sum.minimax", None),
        ("stablenash.constant_sum", "strong_stability_parameters", "constant_sum.certify", None),
        ("stablenash.constant_sum", "well_supported_stability_parameters", "constant_sum.certify", None),
        ("stablenash.embedding", "embed", "embedding", None),
        ("stablenash.embedding", "extract", "embedding", None),
        ("stablenash.cli", "run", "cli.run", _observe_cli),
    ]
    b += [
        (f"stablenash.{m}", "regrets", "core.regrets", None)
        for m in ("oracle", "stability", "support", "constant_sum", "embedding")
    ]
    serialize = importlib.import_module("stablenash.serialize")
    b += [
        ("stablenash.serialize", name, "serialize", None)
        for name in sorted(vars(serialize))
        if not name.startswith("_")
        and (name.endswith(("_to_dict", "_from_dict")) or name == "canonical_dumps")
    ]
    return b


def install(rec: Recorder):
    """Rebind every traced name; returns a function that restores them.

    ``stablenash.lp._validate`` runs once per ``solve_lp`` call whoever the
    caller is, so counting it checks that the per-module LP split misses no
    caller.
    """
    saved = []
    for module_name, attr, span, observe in _bindings():
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, rec.wrap(span, original, observe))
    lp = importlib.import_module("stablenash.lp")
    if hasattr(lp, "_validate"):
        original = lp._validate
        saved.append((lp, "_validate", original))

        def counted(*args, **kwargs):
            rec.count("lp.solved")
            return original(*args, **kwargs)

        lp._validate = counted
        rec.counts_lp_solves = True

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: Recorder) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one round, and any inconsistency found."""
    stats = rec.summary()

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    c = rec.counts
    m: dict[str, float] = {}
    lp_calls = sum(calls(f"lp@{x}") for x in LP_CALLERS)
    lp_self = sum(self_s(f"lp@{x}") for x in LP_CALLERS)
    m["lp.calls"] = lp_calls
    m["lp.self_s"] = lp_self
    m["lp.mean_us"] = 1e6 * _ratio(lp_self, lp_calls)
    m["lp.ok_ratio"] = _ratio(c.get("lp.ok", 0), lp_calls)
    for x in LP_CALLERS:
        m[f"lp.{x}.calls"] = calls(f"lp@{x}")
        m[f"lp.{x}.self_s"] = self_s(f"lp@{x}")

    enum = calls("oracle.enumerate")
    m["oracle.enumerate.calls"] = enum
    m["oracle.enumerate.self_s"] = self_s("oracle.enumerate")
    m["oracle.enumerate.mean_ms"] = 1e3 * _ratio(incl("oracle.enumerate"), enum)
    m["oracle.lp_per_enumerate"] = _ratio(calls("lp@oracle"), enum)
    m["oracle.equilibria_per_lp"] = _ratio(c.get("oracle.equilibria", 0), calls("lp@oracle"))
    m["oracle.distance_to_set.calls"] = calls("oracle.distance_to_set")
    m["oracle.distance_to_set.self_s"] = self_s("oracle.distance_to_set")

    m["stability.perturbation.self_s"] = self_s("stability.perturbation")
    m["stability.perturbation.enumerations"] = _ratio(
        rec.beneath("oracle.enumerate", "stability.perturbation"),
        calls("stability.perturbation"),
    )
    m["stability.approximation.self_s"] = self_s("stability.approximation")
    m["stability.approximation.lp_calls"] = sum(
        rec.beneath(f"lp@{x}", "stability.approximation") for x in LP_CALLERS
    )
    m["stability.sampler.calls"] = calls("stability.sampler")
    m["stability.sampler.self_s"] = self_s("stability.sampler")
    m["stability.sampler.us_per_sample"] = 1e6 * _ratio(
        incl("stability.sampler"), c.get("sampler.requested", 0)
    )
    m["stability.sampler.accept_ratio"] = _ratio(
        c.get("sampler.returned", 0), c.get("sampler.requested", 0)
    )
    m["stability.probe.self_s"] = self_s("stability.probe")

    for name in ("core.regrets", "core.raw_regrets"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    searches = calls("support.find_well_supported")
    m["support.find_well_supported.calls"] = searches
    m["support.find_well_supported.self_s"] = self_s("support.find_well_supported")
    m["support.lp_per_search"] = _ratio(
        rec.beneath("lp@support", "support.find_well_supported"), searches
    )
    m["support.lmm_sample.calls"] = calls("support.lmm_sample")
    m["support.lmm_sample.self_s"] = self_s("support.lmm_sample")
    m["support.small_support_approximation.self_s"] = self_s(
        "support.small_support_approximation"
    )

    m["constant_sum.minimax.calls"] = calls("constant_sum.minimax")
    m["constant_sum.minimax.self_s"] = self_s("constant_sum.minimax")
    m["constant_sum.certify.self_s"] = self_s("constant_sum.certify")
    m["constant_sum.lp_per_certify_zs"] = _ratio(
        rec.beneath("lp@constant_sum", "cli.run"), c.get("cli.certify_zs", 0)
    )

    m["embedding.self_s"] = self_s("embedding")
    m["cli.run.calls"] = calls("cli.run")
    m["cli.run.self_s"] = self_s("cli.run")
    m["serialize.self_s"] = self_s("serialize")

    problems = []
    solved = c.get("lp.solved", 0)
    if rec.counts_lp_solves and solved != lp_calls:
        problems.append(f"per-module LP calls sum to {lp_calls}, solve_lp ran {solved} times")
    return m, problems

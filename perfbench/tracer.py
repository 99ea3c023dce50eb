"""Spans and counters around wavekam's layer entry points, recorded from the
benchmark's side by replacing the functions in every loaded module that
holds them.  Nothing inside the program is changed on disk.

A span's self time is its duration minus the spans it encloses.  Counts are
taken from a call's inputs and result.  The time the tracer spends on its own
bookkeeping (mostly counting term pairs for the bracket) is kept apart as the
overhead and left out of every span's time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

import checks


def _masks(poly) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks of the mode indices present in each term's xi and eta part."""
    c = poly.cutoff
    if 2 * c + 1 > 63:
        raise ValueError("index masks need cutoff <= 31")
    xi, eta = [], []
    for m, _ in poly:
        xi.append(sum(1 << (s + c) for s in set(m.xi)))
        eta.append(sum(1 << (s + c) for s in set(m.eta)))
    return np.array(xi, dtype=np.int64), np.array(eta, dtype=np.int64)


def pairs_sharing_index(f, g, chunk: int = 512) -> int:
    """Term pairs (m1 in f, m2 in g) with an index j in eta(m1) & xi(m2) or
    xi(m1) & eta(m2): the pairs whose bracket is not identically zero."""
    f_xi, f_eta = _masks(f)
    g_xi, g_eta = _masks(g)
    total = 0
    for start in range(0, len(f_xi), chunk):
        fx, fe = f_xi[start:start + chunk, None], f_eta[start:start + chunk, None]
        total += int(np.count_nonzero(((fe & g_xi[None, :]) | (fx & g_eta[None, :])) != 0))
    return total


def divisor_queries(modes, N: int, S: int) -> int:
    """Number of divisor queries a scan over (N, S) enumerates."""
    return len(checks.DivisorTable(modes, N, S))


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0
        self.top_level_s = 0.0
        self._stack: list[float] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[dict, inspect.BoundArguments, object], None]] = None
             ) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
            self.stats[name + ".s"] += elapsed
            self.stats[name + ".self_s"] += elapsed - children
            self.stats[name + ".calls"] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.stats, bound, return_value)
            inside = time.perf_counter() - entered
            self.overhead_s += inside - elapsed
            # the enclosing span sees this call's bookkeeping as a child too
            if self._stack:
                self._stack[-1] += inside
            else:
                self.top_level_s += inside
            return return_value

        return wrapper


def _count_build_p4(stats, bound, result):
    stats["polyham.build_p4.terms"] += len(result.total)


def _count_bracket(stats, bound, result):
    f, g = bound.arguments["f"], bound.arguments["g"]
    stats["polyham.poisson_bracket.pairs"] += len(f) * len(g)
    stats["polyham.poisson_bracket.pairs_sharing_index"] += pairs_sharing_index(f, g)
    stats["polyham.poisson_bracket.terms_out"] += len(result)


def _count_solve(stats, bound, result):
    if result.R6_truncated is not None:
        stats["birkhoff.chi4_terms"] += len(result.chi4)
        stats["birkhoff.r6_terms"] += len(result.R6_truncated)


def _count_scan(stats, bound, result):
    a = bound.arguments
    stats["smalldiv.scan_lower_bounds.queries"] += divisor_queries(a["A"].modes, a["N"], a["S"])
    stats["smalldiv.scan_lower_bounds.violations"] += len(result)


def _count_excluded(stats, bound, result):
    a = bound.arguments
    stats["smalldiv.excluded_mass_scan.queries"] += divisor_queries(a["A"].modes, a["N"], a["S"])


def _count_transversality(stats, bound, result):
    stats["kamcheck.check_transversality.checked"] += result.checked_count
    stats["kamcheck.transversality.derivative"] += result.branch_counts.get("derivative", 0)
    stats["kamcheck.transversality.branches"] += sum(result.branch_counts.values())


def _count_melnikov(stats, bound, result):
    stats["kamcheck.melnikov_scan.checked"] += result.checked_count


def _count_integrate(stats, bound, result):
    stats["simulate.integrate.steps"] += bound.arguments["cfg"].n_steps


# (module, function, metric prefix, counter)
TRACED = (
    ("polyham", "build_p4", "polyham.build_p4", _count_build_p4),
    ("polyham", "poisson_bracket", "polyham.poisson_bracket", _count_bracket),
    ("polyham", "bracket_with_h2", "polyham.bracket_with_h2", None),
    ("birkhoff", "solve_homological", "birkhoff.solve_homological", _count_solve),
    ("birkhoff", "verify_zminus_vanishing", "birkhoff.verify_zminus_vanishing", None),
    ("birkhoff", "rescale", "birkhoff.rescale", None),
    ("smalldiv", "scan_lower_bounds", "smalldiv.scan_lower_bounds", _count_scan),
    ("smalldiv", "excluded_mass_scan", "smalldiv.excluded_mass_scan", _count_excluded),
    ("kamcheck", "check_a1", "kamcheck.check_a1", None),
    ("kamcheck", "check_transversality", "kamcheck.check_transversality", _count_transversality),
    ("kamcheck", "melnikov_scan", "kamcheck.melnikov_scan", _count_melnikov),
    ("simulate", "integrate", "simulate.integrate", _count_integrate),
    ("simulate", "extract_frequencies", "simulate.extract_frequencies", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer, layers: dict, namespaces: list):
    """Swap the traced functions for wrappers in every given module namespace,
    and put the originals back on exit."""
    undo = []
    try:
        for module, func, prefix, count in TRACED:
            original = getattr(layers[module], func)
            wrapper = tracer.wrap(prefix, original, count)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, original in reversed(undo):
            setattr(ns, attr, original)

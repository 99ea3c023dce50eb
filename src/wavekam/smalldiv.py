"""Small divisors omega.k (+/- lambda_a) (+/- lambda_b): evaluation, combinatorial
resonance classification, and finite-resolution lower-bound scans.

Divisor kinds:
    D0 = omega . k
    D1 = omega . k + lambda_a
    D2 = omega . k + lambda_a + lambda_b
    D3 = omega . k + lambda_a - lambda_b
with k an integer vector over the tangential set and a, b normal modes.
Resonance is decided by the index pattern, never by a numeric zero test.
`resonant_patterns(A)`, built once per tangential set, maps (kind, k) to the
(|a|, |b|) whose divisor vanishes identically in the mass: D0 at k = 0, D1 at
k = -e_s with |a| = |s|, D2 at k = -e_s - e_s' with (|s|, |s'|) in either
order, D3 at k = -e_s + e_s' with (|s|, |s'|).  Every other k is
non-resonant.  `DivisorRange` owns the (k, a, b) range and the (a, b) weight
tables that the scans here and in kamcheck walk.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Optional

import numpy as np

from .intervals import Interval, interval_frequency
from .spectrum import AdmissibleSet, FrequencySystem, MeasureEstimate, _count_boundary_cells, _mass_grid

KINDS = ("D0", "D1", "D2", "D3")


@dataclass(frozen=True)
class DivisorQuery:
    kind: str
    k: tuple[int, ...]
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown divisor kind {self.kind}")
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        needs_a = self.kind in ("D1", "D2", "D3")
        needs_b = self.kind in ("D2", "D3")
        if needs_a != (self.a is not None) or needs_b != (self.b is not None):
            raise ValueError(f"{self.kind} query has wrong (a, b) arity: {self}")


@dataclass
class DivisorReport:
    query: DivisorQuery
    value: float
    resonant: bool
    bound_required: float
    satisfied: bool
    certified: Optional[bool] = None
    mass: Optional[float] = None

    def as_line(self) -> str:
        q = self.query
        k_str = ",".join(str(x) for x in q.k)
        return (
            f"kind={q.kind} k={k_str} a={q.a} b={q.b} value={self.value!r} "
            f"required={self.bound_required!r} resonant={int(self.resonant)} "
            f"satisfied={int(self.satisfied)}"
            + ("" if self.certified is None else f" certified={int(self.certified)}")
        )


def divisor_weight(q: DivisorQuery) -> float:
    """Weight multiplying kappa in the lower bound for each kind, with
    <s> = max(|s|, 1): 1, <a>, <a> + <b> and 1 + ||a| - |b||."""
    if q.kind == "D0":
        return 1.0
    if q.kind == "D1":
        return float(max(abs(q.a), 1))
    if q.kind == "D2":
        return float(max(abs(q.a), 1) + max(abs(q.b), 1))
    return float(1 + abs(abs(q.a) - abs(q.b)))


def _check_normal(A: AdmissibleSet, s: int, name: str) -> None:
    if A.is_tangential(s):
        raise ValueError(f"{name}={s} is tangential; normal mode expected")


def evaluate_divisor(q: DivisorQuery, fs: FrequencySystem, A: AdmissibleSet) -> float:
    """Signed value of the divisor at the system's mass."""
    if len(q.k) != A.n:
        raise ValueError(f"k must have length {A.n}")
    value = float(np.dot(q.k, fs.omega_vector(A)))
    if q.kind in ("D1", "D2", "D3"):
        _check_normal(A, q.a, "a")
        value += float(fs.lam(q.a))
    if q.kind == "D2":
        _check_normal(A, q.b, "b")
        value += float(fs.lam(q.b))
    elif q.kind == "D3":
        _check_normal(A, q.b, "b")
        value -= float(fs.lam(q.b))
    return value


def evaluate_divisor_interval(q: DivisorQuery, m: float, A: AdmissibleSet) -> Interval:
    """Certified enclosure of the divisor value at mass m."""
    total = Interval.point(0.0)
    for ka, a in zip(q.k, A.modes):
        if ka != 0:
            total = total + interval_frequency(a, m) * ka
    if q.kind in ("D1", "D2", "D3"):
        total = total + interval_frequency(q.a, m)
    if q.kind == "D2":
        total = total + interval_frequency(q.b, m)
    elif q.kind == "D3":
        total = total - interval_frequency(q.b, m)
    return total


def certify_lower_bound(q: DivisorQuery, m: float, A: AdmissibleSet,
                        kappa: float) -> bool:
    """Rigorous check |divisor| >= kappa * weight at mass m via directed
    rounding; True only when the bound provably holds."""
    iv = evaluate_divisor_interval(q, m, A)
    return iv.abs_lower() >= kappa * divisor_weight(q)


def _pattern_key(a: Optional[int], b: Optional[int]) -> tuple[int, ...]:
    """(|a|, |b|) of a query, without the indices its kind does not have."""
    return tuple(abs(s) for s in (a, b) if s is not None)


@functools.lru_cache(maxsize=None)
def resonant_patterns(A: AdmissibleSet) -> MappingProxyType:
    """The resonant index patterns of A, read-only since every caller shares
    it: (kind, k) -> set of resonant (|a|, |b|) keys, () for D0 and (|a|,)
    for D1."""
    def k_vec(*terms: tuple[int, int]) -> tuple[int, ...]:
        k = [0] * A.n
        for sign, s in terms:
            k[A.index_of(s)] += sign
        return tuple(k)

    table = defaultdict(set)
    table["D0", k_vec()].add(())
    for s in A.modes:
        table["D1", k_vec((-1, s))].add((abs(s),))
        # (s, s') runs over both orders, which gives D2 both orders of (|a|, |b|)
        for sp in A.modes:
            table["D2", k_vec((-1, s), (-1, sp))].add((abs(s), abs(sp)))
            table["D3", k_vec((-1, s), (1, sp))].add((abs(s), abs(sp)))
    return MappingProxyType({key: frozenset(keys) for key, keys in table.items()})


def classify_resonant(q: DivisorQuery, A: AdmissibleSet) -> bool:
    """Combinatorial resonance test: q's index pattern is in the table of A."""
    return _pattern_key(q.a, q.b) in resonant_patterns(A).get((q.kind, q.k), ())


# ---------------------------------------------------------------------------
# Enumeration and scans
# ---------------------------------------------------------------------------

def _k_vectors(n: int, N: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors with 0 < |k|_1 <= N."""
    def rec(prefix: list[int], budget: int, dims_left: int):
        if dims_left == 0:
            if any(prefix):
                yield tuple(prefix)
            return
        for v in range(-budget, budget + 1):
            yield from rec(prefix + [v], budget - abs(v), dims_left - 1)

    yield from rec([], N, n)


def default_mode_cutoff(A: AdmissibleSet, N: int) -> int:
    """Default normal-mode truncation 2 (max|A| + 2) N."""
    return math.ceil(2 * (A.n_bound + 2) * N)


def scan_metadata(A: AdmissibleSet, kappa: float, N: int, S: int) -> dict:
    """Truncation caps and exponents recorded alongside scan results."""
    n = A.n
    rho = 1.0 / (4 * ((n + 2) ** 2 + 1) * (n + 2))
    return {
        "C_A": A.n_bound,
        "S": S,
        "d1_d2_cap": default_mode_cutoff(A, N),
        "d3_b_cap": 2 * kappa ** (-rho) + (A.n_bound + 3) * N,
        "rho_exponent": rho,
        "tau_d0": 1.0 / n,
        "iota_d0": float(n),
        "tau_d1_d2": 1.0 / (n + 1),
        "iota_d1_d2": (n + 1) * (2 * n + 3) + 1.0 / (n + 1),
        "tau_d3": 1.0 / (2 * (n + 2)),
        "iota_d3": (n + 2) * (2 * n + 5) + 1.0 / (2 * (n + 2)),
    }


def abs_classes(normals: np.ndarray):
    """The |a| classes of the modes `normals`: the sorted distinct |a|, the
    position of each class's first member, each mode's class and each
    class's size."""
    return np.unique(np.abs(normals), return_index=True, return_inverse=True,
                     return_counts=True)


class DivisorRange:
    """The (k, a, b) range of a scan and its (a, b) weight tables, built once
    per (A, N, S): k over 0 < |k|_1 <= N, plus k = 0 with |a| != |b| for D3;
    a and b over the normal modes |s| <= S, indexing the tables by position
    in `normals`.  weights[kind] holds divisor_weight over the kind's 2-D
    table: (1, 1) for D0, (|normals|, 1) for D1, square for D2 and D3.
    kmat holds the k as the rows of a float array.

    Frequencies and weights depend on |a| only; `uabs`, `first`, `inv` and
    `mult` are the |a| classes of `normals` (abs_classes)."""

    def __init__(self, A: AdmissibleSet, N: int, S: int):
        self.zero = (0,) * A.n
        self.ks = list(_k_vectors(A.n, N))
        self.kmat = np.array(self.ks, dtype=float).reshape(len(self.ks), A.n)
        self.normals = np.array(A.normal_modes(S), dtype=int)
        abs_n = np.abs(self.normals)
        w1 = np.maximum(abs_n, 1).astype(float)
        self.weights = {"D0": np.ones((1, 1)), "D1": w1[:, None],
                        "D2": w1[:, None] + w1[None, :],
                        "D3": 1.0 + np.abs(abs_n[:, None] - abs_n[None, :])}
        self.distinct = abs_n[:, None] != abs_n[None, :]
        self.uabs, self.first, self.inv, self.mult = abs_classes(self.normals)
        self.patterns = resonant_patterns(A)

    def ks_of(self, kind: str) -> list[tuple[int, ...]]:
        return self.ks + [self.zero] if kind == "D3" else self.ks

    def rows(self, kind: str, k: tuple[int, ...]) -> np.ndarray:
        """Mask of the rows of the kind's table that are in range at k."""
        if kind == "D3" and k == self.zero:
            return self.distinct
        return np.ones(self.weights[kind].shape, dtype=bool)

    def ab(self, kind: str, i: int, j: int) -> tuple[Optional[int], Optional[int]]:
        """The (a, b) of row (i, j) of the kind's table."""
        a = None if kind == "D0" else int(self.normals[i])
        return a, (int(self.normals[j]) if kind in ("D2", "D3") else None)

    def resonant(self, kind: str, k: tuple[int, ...]) -> frozenset:
        """Resonant (|a|, |b|) keys of the kind at k; empty for most k."""
        return self.patterns.get((kind, k), frozenset())


def enumerate_queries(A: AdmissibleSet, N: int, S: int) -> Iterator[DivisorQuery]:
    """One DivisorQuery per row of DivisorRange(A, N, S), in scan order.  The
    scans do not build these; this serves callers that want query objects."""
    rng = DivisorRange(A, N, S)
    for kind in KINDS:
        for k in rng.ks_of(kind):
            for i, j in zip(*np.nonzero(rng.rows(kind, k))):
                yield DivisorQuery(kind, k, *rng.ab(kind, i, j))


def _values(kind: str, dot: float, lam: np.ndarray) -> np.ndarray:
    """The kind's divisor table at one k, added in evaluate_divisor's order
    so that each value is bitwise its scalar counterpart."""
    if kind == "D0":
        return np.full((1, 1), dot)
    d1 = (dot + lam)[:, None]
    if kind == "D1":
        return d1
    return d1 + lam[None, :] if kind == "D2" else d1 - lam[None, :]


def scan_lower_bounds(fs: FrequencySystem, A: AdmissibleSet, kappa: float, N: int,
                      S: Optional[int] = None, certify: bool = False) -> list[DivisorReport]:
    """Check |divisor| >= kappa * weight over DivisorRange(A, N, S).

    Returns the non-resonant violations, ordered by kind, k, a and b; an
    empty list says that every bound in range holds at this mass in floating
    point.  certify=True re-checks each reported violation in interval
    arithmetic: certified=True means that the violation provably holds.  D3
    at k = 0 is lambda_a - lambda_b >= (1 + ||a| - |b||) / 8 for |a| != |b|,
    so those rows report nothing while kappa <= 1/8.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    if S is None:
        S = default_mode_cutoff(A, N)
    if S < A.n_bound:
        raise ValueError("S must cover the tangential set")
    rng = DivisorRange(A, N, S)
    omega = fs.omega_vector(A)
    lam = np.asarray(fs.lam(rng.normals), dtype=float)
    dots = {k: float(np.dot(k, omega)) for k in rng.ks_of("D3")}
    violations = []
    for kind in KINDS:
        required = kappa * rng.weights[kind]
        for k in rng.ks_of(kind):
            values = _values(kind, dots[k], lam)
            bad = rng.rows(kind, k) & (np.abs(values) < required)
            for i, j in zip(*np.nonzero(bad)):
                a, b = rng.ab(kind, i, j)
                if _pattern_key(a, b) in rng.resonant(kind, k):
                    continue
                q = DivisorQuery(kind, k, a, b)
                report = DivisorReport(q, float(values[i, j]), False,
                                       float(required[i, j]), False, mass=fs.mass)
                if certify:
                    iv = evaluate_divisor_interval(q, fs.mass, A)
                    report.certified = iv.abs_upper() < report.bound_required
                violations.append(report)
    return violations


def excluded_mass_scan(A: AdmissibleSet, kappa: float, N: int,
                       S: Optional[int] = None, grid: int = 10 ** 4) -> MeasureEstimate:
    """Fraction of grid masses in [1,2] at which some lower bound fails.

    Walks DivisorRange(A, N, S) one non-resonant (k, a, b) row at a time,
    each row vectorized over the mass grid; the excluded set is the union of
    the rows' violation masks.
    """
    if S is None:
        S = default_mode_cutoff(A, N)
    rng = DivisorRange(A, N, S)
    lam_grid = FrequencySystem(_mass_grid(grid)).lam
    omega_grid = lam_grid(np.array(A.modes)[:, None])
    normals = [int(s) for s in rng.normals]
    lam = list(lam_grid(rng.normals[:, None]))  # rows index faster from a list
    excluded = np.zeros(grid, dtype=bool)

    def exclude(values: np.ndarray, weight: float) -> None:
        np.logical_or(excluded, np.abs(values) < kappa * weight, out=excluded)

    w1, w2, w3 = (rng.weights[kind] for kind in ("D1", "D2", "D3"))
    for k in rng.ks_of("D3"):
        dot = np.tensordot(np.array(k, dtype=float), omega_grid, axes=1)
        nonzero, in_range3 = k != rng.zero, rng.rows("D3", k)
        res1, res2, res3 = (rng.resonant(kind, k) for kind in ("D1", "D2", "D3"))
        if nonzero:
            exclude(dot, 1.0)
        for i, a in enumerate(normals):
            d1 = dot + lam[i]
            if nonzero and (abs(a),) not in res1:
                exclude(d1, w1[i, 0])
            for j, b in enumerate(normals):
                key = (abs(a), abs(b))
                if nonzero and key not in res2:
                    exclude(d1 + lam[j], w2[i, j])
                if in_range3[i, j] and key not in res3:
                    exclude(d1 - lam[j], w3[i, j])
    meta = scan_metadata(A, kappa, N, S)
    tau, iota = meta["tau_d3"], meta["iota_d3"]
    return MeasureEstimate(
        analytic_bound=float(kappa ** tau * N ** iota),
        sampled_measure=float(np.mean(excluded)),
        grid_points=grid,
        boundary_cells=_count_boundary_cells(excluded),
        parameters={"kappa": kappa, "N": N, **meta,
                    "bound_shape": "C * kappa^tau * N^iota (per-kind exponents in metadata)"},
    )

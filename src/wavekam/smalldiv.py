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
non-resonant.  `DivisorRange` owns the (k, a, b) range and the (a, b) tables
(weights, |a| != |b|, the resonant entries of each (kind, k)) over the |a|
classes that the scans here and in kamcheck walk.  `excluded_mass_sweep`
samples the masses at which some lower bound fails for a whole kappa x N
sweep in one walk over the range, one `MeasureEstimate` per cell;
`excluded_mass_scan` is its one-cell case.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

import numpy as np

from .intervals import Interval, interval_frequency
from .spectrum import MASS_MAX, MASS_MIN, AdmissibleSet, FrequencySystem

KINDS = ("D0", "D1", "D2", "D3")
# cap on the (b-class, mass) entries of one excluded-mass pass: past about a
# megabyte the pass's tables fall out of a core's cache, and it runs 2-3x slower
GRID_BLOCK = 2 ** 16


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
    """Combinatorial resonance test: q's index pattern (|a|, |b|), without the
    indices its kind does not have, is in the table of A."""
    key = tuple(abs(s) for s in (q.a, q.b) if s is not None)
    return key in resonant_patterns(A).get((q.kind, q.k), ())


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


class DivisorRange:
    """The (k, a, b) range of a scan and its (a, b) tables, built once per
    (A, N, S): k over 0 < |k|_1 <= N, plus k = 0 with |a| != |b| for D3; a
    and b over the normal modes |s| <= S (`normals`).  Weights, frequencies
    and resonance depend on |a| and |b| only, so every table is indexed by
    the C classes |a| of `normals`: `uabs` the sorted distinct |a|, `first`
    each class's first position in `normals`, `inv` each mode's class and
    `mult` each class's size.  Tables are (1, 1) for D0, (C, 1) for D1, C x C for D2 and D3:
    weights[kind] holds divisor_weight, members[kind] the (a, b) mode pairs
    that each entry stands for, `distinct` the entries |a| != |b|; spread()
    turns a class table into the table over the modes.  kmat holds the k as
    the rows of a float array."""

    def __init__(self, A: AdmissibleSet, N: int, S: int):
        self.zero = (0,) * A.n
        self.ks = list(_k_vectors(A.n, N))
        self.kmat = np.array(self.ks, dtype=float).reshape(len(self.ks), A.n)
        self.normals = np.array(A.normal_modes(S), dtype=int)
        self.uabs, self.first, self.inv, self.mult = np.unique(
            np.abs(self.normals), return_index=True, return_inverse=True, return_counts=True)
        w1 = np.maximum(self.uabs, 1).astype(float)
        self.weights = {"D0": np.ones((1, 1)), "D1": w1[:, None],
                        "D2": w1[:, None] + w1[None, :],
                        "D3": 1.0 + np.abs(self.uabs[:, None] - self.uabs[None, :])}
        pairs = np.outer(self.mult, self.mult)
        self.members = {"D1": self.mult[:, None], "D2": pairs, "D3": pairs}
        self.distinct = self.uabs[:, None] != self.uabs[None, :]
        index = {int(s): c for c, s in enumerate(self.uabs)}
        self._resonant = {}
        for (kind, k), keys in resonant_patterns(A).items():
            mask = np.zeros(self.weights[kind].shape, dtype=bool)
            for key in keys:        # (), (|a|,) or (|a|, |b|): one class per index
                if all(s in index for s in key):
                    mask[tuple(index[s] for s in key)] = True
            self._resonant[kind, k] = mask

    def resonant(self, kind: str, k: tuple[int, ...]) -> Optional[np.ndarray]:
        """Mask of the kind's resonant entries at k, from resonant_patterns;
        None for the many k with no resonant pattern."""
        return self._resonant.get((kind, k))

    def rows(self, kind: str, k: tuple[int, ...]) -> np.ndarray:
        """Mask of the entries of the kind's table that are in range at k."""
        if k != self.zero:
            return np.ones(self.weights[kind].shape, dtype=bool)
        return self.distinct if kind == "D3" else np.zeros_like(self.weights[kind], dtype=bool)

    def bound(self, kind: str, k: tuple[int, ...], kappa) -> np.ndarray:
        """The lower bound kappa * weight over the kind's table at k, 0 at the
        entries that are out of range or resonant: no |value| < 0 holds.  A
        1-D array of kappas gives one such table per kappa, stacked."""
        required = np.asarray(kappa)[..., None, None] * self.weights[kind]
        keep = self.rows(kind, k)
        resonant = self.resonant(kind, k)
        if resonant is not None:
            keep = keep & ~resonant
        return required if keep.all() else np.where(keep, required, 0.0)

    def spread(self, kind: str, table: np.ndarray) -> np.ndarray:
        """A table over the kind's classes, or a stack of them along leading
        axes, as the table over the modes: entry (i, j) is that of the classes
        of normals[i] and normals[j]."""
        if kind == "D0":
            return table
        table = table[..., self.inv, :]
        return table if kind == "D1" else table[..., self.inv]

    def ab(self, kind: str, i: int, j: int) -> tuple[Optional[int], Optional[int]]:
        """The (a, b) of entry (i, j) of the kind's table over the modes."""
        a = None if kind == "D0" else int(self.normals[i])
        return a, (int(self.normals[j]) if kind in ("D2", "D3") else None)


def _check_scan(kappas: Iterable[float], Ns: Iterable[int]) -> None:
    """Refuse a kappa that is not positive and finite, or an N below 1."""
    for kappa in kappas:
        if not 0 < kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    for N in Ns:
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")


def _scan_cutoff(A: AdmissibleSet, kappa: float, N: int, S: Optional[int]) -> int:
    """A scan's mode cutoff S, or its default, once kappa and N are checked."""
    _check_scan([kappa], [N])
    return default_mode_cutoff(A, N) if S is None else S


def enumerate_queries(A: AdmissibleSet, N: int, S: int) -> Iterator[DivisorQuery]:
    """One DivisorQuery per (k, a, b) of DivisorRange(A, N, S), in scan order.
    The scans do not build these; this serves callers that want queries."""
    rng = DivisorRange(A, N, S)
    for kind in KINDS:
        for k in [*rng.ks, rng.zero]:
            for i, j in zip(*np.nonzero(rng.spread(kind, rng.rows(kind, k)))):
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
    so those rows report nothing while kappa <= 1/8.  Each (kind, k) is one
    pass over the class table, spread to the modes only where an entry fails.
    """
    S = _scan_cutoff(A, kappa, N, S)
    if S < A.n_bound:
        raise ValueError("S must cover the tangential set")
    rng = DivisorRange(A, N, S)
    omega = fs.omega_vector(A)
    lam = np.asarray(fs.lam(rng.uabs), dtype=float)
    ks = [*rng.ks, rng.zero]
    dots = {k: float(np.dot(k, omega)) for k in ks}
    violations = []
    for kind in KINDS:
        for k in ks:
            values, bound = _values(kind, dots[k], lam), rng.bound(kind, k, kappa)
            bad = np.abs(values) < bound
            if not bad.any():
                continue
            bad, values, bound = (rng.spread(kind, t) for t in (bad, values, bound))
            for i, j in zip(*np.nonzero(bad)):
                q = DivisorQuery(kind, k, *rng.ab(kind, i, j))
                report = DivisorReport(q, float(values[i, j]), False,
                                       float(bound[i, j]), False)
                if certify:
                    iv = evaluate_divisor_interval(q, fs.mass, A)
                    report.certified = iv.abs_upper() < report.bound_required
                violations.append(report)
    return violations


@dataclass
class MeasureEstimate:
    """Grid-sampled measure of the masses in [1, 2] that one (kappa, N) cell
    excludes, next to the exponents' shape kappa^tau N^iota (bound_shape),
    which is not a bound: its constant C is left out.

    sampled_measure is the fraction of grid points excluded (the interval has
    length 1).
    """

    bound_shape: float
    sampled_measure: float
    grid_points: int
    parameters: dict = field(default_factory=dict)


def excluded_mass_scan(A: AdmissibleSet, kappa: float, N: int,
                       S: Optional[int] = None, grid: int = 10 ** 4) -> MeasureEstimate:
    """Fraction of grid masses in [1,2] at which some lower bound over
    DivisorRange(A, N, S) fails: excluded_mass_sweep's one-cell case, with S
    defaulting to default_mode_cutoff(A, N)."""
    return excluded_mass_sweep(A, [kappa], [N], _scan_cutoff(A, kappa, N, S), grid)[0]


def excluded_mass_sweep(A: AdmissibleSet, kappas: Iterable[float], Ns: Iterable[int],
                        S: int, grid: int = 10 ** 4) -> list[MeasureEstimate]:
    """excluded_mass_scan of every (kappa, N) cell, kappa-major in input order
    with duplicates kept, from one walk over DivisorRange(A, max(Ns), S).

    Each k is one array pass per a-class over the b-classes and a block of
    masses (D0 once per k, D1 once per k and block), and its hits go into
    every N >= |k|_1 (k = 0 into all).  A resonant or out-of-range entry has
    bound 0 (DivisorRange.bound), which no value fails.  Each table of
    |values| is compared with the bounds of every kappa at once, stacked
    along a leading axis.  Every input is checked before any table is built.
    """
    kappas, Ns = list(kappas), list(Ns)
    if not kappas or not Ns:
        raise ValueError("need at least one kappa and one N")
    _check_scan(kappas, Ns)
    if S < 0:
        raise ValueError(f"S must be >= 0, got {S}")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = DivisorRange(A, max(Ns), S)
    lam_grid = FrequencySystem(np.linspace(MASS_MIN, MASS_MAX, grid)).lam
    omega_grid = lam_grid(np.array(A.modes)[:, None])
    lam = lam_grid(rng.uabs[:, None])
    kappa_stack = np.array(kappas, dtype=float)
    # hits[l, j]: the masses that some divisor with |k|_1 = l excludes at kappas[j]
    hits = np.zeros((max(Ns) + 1, len(kappas), grid), dtype=bool)
    step = max(1, GRID_BLOCK // max(1, len(lam)))
    for k in [*rng.ks, rng.zero]:
        level = hits[sum(map(abs, k))]
        dot = np.tensordot(np.array(k, dtype=float), omega_grid, axes=1)
        b0, b1, b2, b3 = (rng.bound(kind, k, kappa_stack) for kind in KINDS)
        b2, b3 = b2[..., None], b3[..., None]   # [:, u]: a-class u's bounds, (kappa, b, 1)
        level |= np.abs(dot) < b0[:, 0]
        for lo in range(0, grid, step):
            cut = slice(lo, lo + step)
            lam_c, hit = lam[:, cut], level[:, cut]
            d1 = dot[cut] + lam_c
            values = np.abs(d1)     # then each D2 and D3 table in turn, in place
            hit |= (values < b1).any(axis=1)
            for u, row in enumerate(d1):
                np.abs(np.add(row, lam_c, out=values), out=values)
                hit |= (values < b2[:, u]).any(axis=1)
                np.abs(np.subtract(row, lam_c, out=values), out=values)
                hit |= (values < b3[:, u]).any(axis=1)
    excluded = np.logical_or.accumulate(hits, axis=0)
    return [_excluded_estimate(A, kappa, N, S, excluded[N, j])
            for j, kappa in enumerate(kappas) for N in Ns]


def _excluded_estimate(A: AdmissibleSet, kappa: float, N: int, S: int,
                       excluded: np.ndarray) -> MeasureEstimate:
    meta = scan_metadata(A, kappa, N, S)
    tau, iota = meta["tau_d3"], meta["iota_d3"]
    return MeasureEstimate(
        bound_shape=float(kappa ** tau * N ** iota),
        sampled_measure=float(np.mean(excluded)),
        grid_points=len(excluded),
        parameters={"kappa": kappa, "N": N, **meta,
                    "bound_shape": "C * kappa^tau * N^iota (per-kind exponents in metadata)"},
    )

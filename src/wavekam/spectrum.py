"""Linear frequencies of the Klein-Gordon operator on the circle and the
non-resonance machinery built on them.

The dispersion relation is lambda_s(m) = sqrt(s^2 + m) with mass m in [1, 2].
A finite set of "tangential" modes carries the torus actions; everything here
is a pure function of (mode indices, mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

MASS_MIN = 1.0
MASS_MAX = 2.0


def check_mass(m):
    """Validate the mass parameter, a float or an array of masses; only
    masses in [1, 2] are supported."""
    masses = np.asarray(m, dtype=float)
    if masses.ndim == 0:
        masses = float(masses)
    if not np.all((MASS_MIN <= masses) & (masses <= MASS_MAX)):
        raise ValueError(f"mass must lie in [{MASS_MIN}, {MASS_MAX}], got {masses}")
    return masses


def frequency(s: int, m: float) -> float:
    """Linear frequency sqrt(s^2 + m); symmetric under s -> -s."""
    return float(FrequencySystem(m).lam(s))


def frequency_derivative(a: int, m, j: int):
    """j-th derivative of frequency(a, .) with respect to the mass, at a mass
    or elementwise over an array of masses.

    Closed form: (2j-2)!/(2^(2j-1) (j-1)!) * (-1)^(j+1) / (a^2+m)^(j-1/2).
    """
    m = check_mass(m)
    if j < 1:
        raise ValueError("derivative order must be >= 1")
    coeff = math.factorial(2 * j - 2) / (2 ** (2 * j - 1) * math.factorial(j - 1))
    sign = -1.0 if j % 2 == 0 else 1.0
    return coeff * sign / (a * a + m) ** (j - 0.5)


def is_admissible(modes: Iterable[int]) -> bool:
    """True iff no j != 0 in the set has -j also in the set.

    Duplicate entries are invalid input and raise.
    """
    seq = list(modes)
    mode_set = set(seq)
    if len(mode_set) != len(seq):
        raise ValueError(f"duplicate modes in {seq}")
    return all(-j not in mode_set for j in mode_set if j != 0)


@dataclass(frozen=True)
class AdmissibleSet:
    """Finite tangential mode set with the no-opposite-pair invariant.

    Derived sets: L = Z \\ A (normal modes), a_minus = {j in L : -j in A},
    l_infinity = L \\ a_minus.
    """

    modes: tuple[int, ...]

    def __init__(self, modes: Iterable[int]):
        seq = tuple(sorted(modes))
        if not seq:
            raise ValueError("tangential set must be non-empty")
        if not is_admissible(seq):
            raise ValueError(f"{seq} contains an opposite pair and is not admissible")
        object.__setattr__(self, "modes", seq)

    @property
    def n(self) -> int:
        return len(self.modes)

    @property
    def n_bound(self) -> int:
        """Smallest N with A contained in {|a| <= N}."""
        return max(abs(a) for a in self.modes)

    @property
    def a_minus(self) -> frozenset[int]:
        return frozenset(-j for j in self.modes if j != 0 and -j not in self.modes)

    def is_tangential(self, s: int) -> bool:
        return s in self.modes

    def is_normal(self, s: int) -> bool:
        return s not in self.modes

    def normal_modes(self, bound: int) -> list[int]:
        """Normal modes with |s| <= bound, sorted."""
        return [s for s in range(-bound, bound + 1) if s not in self.modes]

    def index_of(self, a: int) -> int:
        return self.modes.index(a)


class FrequencySystem:
    """The dispersion relation lambda_s(m) = sqrt(s^2 + m), the one place the
    program evaluates it (oracles such as vandermonde_closed_form and the
    interval enclosures keep their own).  Tangential frequencies omega_a are
    lambda_a.

    The mass is a float or an array of masses, validated once here; lam
    broadcasts mode indices (scalars or arrays) against it.
    """

    def __init__(self, mass):
        self.mass = check_mass(mass)

    def lam(self, s):
        s = np.asarray(s)
        return np.sqrt(s * s + self.mass)

    def omega_vector(self, A: AdmissibleSet) -> np.ndarray:
        return self.lam(np.array(A.modes, dtype=float))


# ---------------------------------------------------------------------------
# Vandermonde determinant of frequency derivatives
# ---------------------------------------------------------------------------

def vandermonde_matrix(subset: Sequence[int], m: float) -> np.ndarray:
    """Matrix [d^j omega_{a_i}/dm^j] with rows j = 1..p, columns over subset."""
    subset = list(subset)
    if len(set(subset)) != len(subset) or not subset:
        raise ValueError("subset must be non-empty with distinct entries")
    p = len(subset)
    return np.array(
        [[frequency_derivative(a, m, j) for a in subset] for j in range(1, p + 1)]
    )


def vandermonde_determinant(subset: Sequence[int], m: float) -> float:
    """Determinant of the frequency-derivative matrix, computed directly."""
    return float(np.linalg.det(vandermonde_matrix(subset, m)))


def vandermonde_closed_form(subset: Sequence[int], m: float) -> float:
    """Closed-form value of the same determinant.

    Factoring 1/omega_a from each column and the row coefficient
    (2j-2)!/(2^(2j-1)(j-1)!) from each row leaves a Vandermonde matrix in the
    nodes x_a = 1/(a^2+m) = omega_a^{-2}, whose determinant is
    prod_{l<k} (x_{a_k} - x_{a_l}) = prod_{l<k} (a_l^2 - a_k^2) / (omega_l^2 omega_k^2).
    """
    subset = list(subset)
    if len(set(subset)) != len(subset) or not subset:
        raise ValueError("subset must be non-empty with distinct entries")
    m = check_mass(m)
    p = len(subset)
    omega = [math.sqrt(a * a + m) for a in subset]
    x = [1.0 / (a * a + m) for a in subset]
    value = 1.0
    for w in omega:
        value /= w
    for j in range(1, p + 1):
        row_sign = -1.0 if j % 2 == 0 else 1.0
        value *= row_sign * math.factorial(2 * j - 2) / (
            2 ** (2 * j - 1) * math.factorial(j - 1)
        )
    for l in range(p):
        for k in range(l + 1, p):
            value *= x[k] - x[l]
    return value


def vandermonde_scale(subset: Sequence[int], m: float) -> float:
    """Hadamard-style magnitude scale of the determinant, for tolerance floors."""
    mat = vandermonde_matrix(subset, m)
    return float(np.prod(np.linalg.norm(mat, axis=1)))


# ---------------------------------------------------------------------------
# Parallelepiped-volume pick (transversality workhorse)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumePick:
    index: int          # 0-based index into the input vector list
    inner: float        # |u^(j) . w| for the winner
    bound: float        # ||w||_2 V_p / (p K^(p-1))
    volume: float       # V_p, Gram-determinant square root


# relative residual above which w counts as outside the span of the vectors
SPAN_TOL = 1e-9


def volume_pick(vectors: Sequence[Sequence[float]], w: Sequence[float]) -> VolumePick:
    """Pick the vector u^(j) maximizing |u^(j) . w|.

    For p independent vectors with l1 norms <= K and w in their span, the
    winner satisfies |u^(j) . w| >= ||w||_2 V_p / (p K^(p-1)), where V_p is
    the Euclidean volume of the parallelepiped they generate (computed as the
    Gram-determinant square root).
    """
    U = np.asarray(vectors, dtype=float)
    w = np.asarray(w, dtype=float)
    if U.ndim != 2:
        raise ValueError("vectors must form a p x n array")
    p = U.shape[0]
    gram = U @ U.T
    det_gram = float(np.linalg.det(gram))
    if det_gram <= 0 or np.linalg.matrix_rank(U) < p:
        raise ValueError("vectors are linearly dependent")
    volume = math.sqrt(det_gram)
    # precondition: w must lie in span(U)
    coeffs, *_ = np.linalg.lstsq(U.T, w, rcond=None)
    residual = float(np.linalg.norm(U.T @ coeffs - w))
    w_norm = float(np.linalg.norm(w))
    if residual > SPAN_TOL * max(w_norm, 1.0):
        raise ValueError(f"w is not in the span of the vectors (residual {residual:.3e})")
    K = float(np.max(np.abs(U).sum(axis=1)))
    inner = np.abs(U @ w)
    j = int(np.argmax(inner))
    bound = w_norm * volume / (p * K ** (p - 1))
    return VolumePick(index=j, inner=float(inner[j]), bound=bound, volume=volume)


# ---------------------------------------------------------------------------
# Sub-level measure estimates on the mass interval
# ---------------------------------------------------------------------------

@dataclass
class MeasureEstimate:
    """Grid-sampled measure of a sub-level set of [1,2] next to an analytic bound.

    sampled_measure is the fraction of grid points inside the set (the interval
    has length 1).  boundary_cells counts sign changes of the indicator between
    neighbouring grid points; 2/grid_points per cell is the sampling slack.
    """

    analytic_bound: float
    sampled_measure: float
    grid_points: int
    boundary_cells: int
    parameters: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return 2.0 / self.grid_points * max(self.boundary_cells, 1)


def _mass_grid(grid: int) -> np.ndarray:
    return np.linspace(MASS_MIN, MASS_MAX, grid)


def _count_boundary_cells(inside: np.ndarray) -> int:
    return int(np.count_nonzero(inside[1:] != inside[:-1]))


def sublevel_measure(g: Callable[[np.ndarray], np.ndarray], h: float, p: int,
                     d: float, grid: int = 10 ** 5) -> MeasureEstimate:
    """Measure of {m in [1,2] : |g(m)| < h} for a function with |g^(p)| >= d.

    Analytic bound: M h^(1/p) with M = 2(2 + 3 + ... + p + 1/d); for p = 1 the
    partial sum collapses to the single term 2.  The sampled measure is the
    grid fraction with |g| < h.
    """
    if h <= 0:
        raise ValueError("threshold h must be positive")
    if d <= 0:
        raise ValueError("derivative lower bound d must be positive")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    masses = _mass_grid(grid)
    values = np.asarray(g(masses), dtype=float)
    if values.shape != masses.shape:
        values = np.array([g(mm) for mm in masses], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("g produced non-finite values on the mass grid")
    inside = np.abs(values) < h
    series = sum(range(2, p + 1)) if p >= 2 else 2
    bound = 2.0 * (series + 1.0 / d) * h ** (1.0 / p)
    return MeasureEstimate(
        analytic_bound=bound,
        sampled_measure=float(np.mean(inside)),
        grid_points=grid,
        boundary_cells=_count_boundary_cells(inside),
        parameters={"h": h, "p": p, "d": d},
    )


def nrom_excluded_bound(A: AdmissibleSet, k: Sequence[int], c: float, chi: float,
                        grid: int = 10 ** 5) -> MeasureEstimate:
    """Excluded-mass estimate for |sum_a k_a omega_a(m) + c| <= chi.

    The analytic bound has the shape C N^(2n^2) chi^(1/n) / |k|_1.  Rather
    than a fabricated absolute constant, the derivative lower bound d feeding
    the sub-level lemma is measured on the grid: d = max over derivative
    orders j <= n of min over m of |k . d^j omega/dm^j|.  The resulting
    fitted constant C(n) is reported in the parameters.
    """
    if chi <= 0:
        raise ValueError("chi must be positive")
    k = np.asarray(k, dtype=float)
    if k.shape != (A.n,):
        raise ValueError(f"k must have length {A.n}")
    k_l1 = float(np.abs(k).sum())
    if k_l1 == 0:
        raise ValueError("k = 0 is the trivially resonant case and is rejected")
    masses = _mass_grid(grid)
    # derivative combinations k . d^j omega/dm^j over the grid
    best_j, best_d = 1, 0.0
    for j in range(1, A.n + 1):
        deriv = np.zeros_like(masses)
        for ka, a in zip(k, A.modes):
            if ka != 0.0:
                deriv += ka * frequency_derivative(a, masses, j)
        dmin = float(np.min(np.abs(deriv)))
        if dmin > best_d:
            best_j, best_d = j, dmin
    omega_grid = np.zeros_like(masses)
    lam = FrequencySystem(masses).lam
    for ka, a in zip(k, A.modes):
        omega_grid += ka * lam(a)
    inside = np.abs(omega_grid + c) <= chi
    n = A.n
    if best_d > 0:
        series = sum(range(2, best_j + 1)) if best_j >= 2 else 2
        bound = 2.0 * (series + 1.0 / best_d) * chi ** (1.0 / best_j)
    else:
        bound = float("inf")
    N = max(A.n_bound, 1)
    fitted_C = bound * k_l1 / (N ** (2 * n * n) * chi ** (1.0 / n)) if math.isfinite(bound) else float("inf")
    return MeasureEstimate(
        analytic_bound=bound,
        sampled_measure=float(np.mean(inside)),
        grid_points=grid,
        boundary_cells=_count_boundary_cells(inside),
        parameters={
            "chi": chi,
            "c": c,
            "n": n,
            "N": N,
            "k_l1": k_l1,
            "derivative_order": best_j,
            "derivative_lower_bound": best_d,
            "fitted_C": fitted_C,
            "bound_shape": "C * N^(2n^2) * chi^(1/n) / |k|_1",
        },
    )

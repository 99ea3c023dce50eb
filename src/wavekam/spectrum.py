"""Linear frequencies of the Klein-Gordon operator on the circle, the
admissible tangential sets, and the Vandermonde determinant of the
frequencies' mass derivatives.

The dispersion relation is lambda_s(m) = sqrt(s^2 + m) with mass m in [1, 2].
A finite set of "tangential" modes carries the torus actions; everything here
is a pure function of (mode indices, mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def frequency_derivative(a: int, m, j: int):
    """j-th derivative of lambda_a(m) = sqrt(a^2 + m) with respect to the
    mass, at a mass or elementwise over an array of masses.

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

    An empty set or duplicate entries are invalid input and raise.
    """
    seq = list(modes)
    if not seq:
        raise ValueError("tangential set must be non-empty")
    mode_set = set(seq)
    if len(mode_set) != len(seq):
        raise ValueError(f"duplicate modes in {seq}")
    return all(-j not in mode_set for j in mode_set if j != 0)


@dataclass(frozen=True)
class AdmissibleSet:
    """Finite tangential mode set with the no-opposite-pair invariant.

    The normal modes are L = Z \\ A.
    """

    modes: tuple[int, ...]

    def __init__(self, modes: Iterable[int]):
        seq = tuple(sorted(modes))
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

    def is_tangential(self, s: int) -> bool:
        return s in self.modes

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

"""Order-4 Birkhoff normal form for H2 + P4.

The homological equation {H2, chi4} = Z4 + Q4 - P4 is solved monomial by
monomial.  Writing d(mono) = sum_xi lambda - sum_eta lambda, the generator
coefficient is i * c / d for every removed monomial; the split is decided by
the tangential count t = number of monomial factors with index in the
tangential set A:

    (4,0)/(0,4) pattern        -> removed always (|d| > 4)
    (3,1)/(1,3), t >= 2        -> removed (gated by the minimum divisor)
    (3,1)/(1,3), t <  2        -> kept in Q4 (cubic in the normal directions)
    (2,2), t >= 2, resonant    -> kept in Z4 (vanishing divisor)
    (2,2), t >= 2, non-res     -> removed (gated)
    (2,2), t <  2              -> kept in Q4

Resonance of a (2,2) monomial is the combinatorial test {|i|,|j|} = {|k|,|l|}
on factor indices, which is exactly the set of divisors vanishing identically
in the mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .polyham import (
    Monomial,
    P4Split,
    PolyHamiltonian,
    bracket_with_h2,
    mono,
    poisson_bracket,
    solve_h2_bracket,
)
from .spectrum import AdmissibleSet, FrequencySystem

ModeSetLike = Union[AdmissibleSet, Iterable[int]]


def _tangential(A: ModeSetLike) -> frozenset[int]:
    if isinstance(A, AdmissibleSet):
        return frozenset(A.modes)
    return frozenset(int(a) for a in A)


def tangential_counts(poly: PolyHamiltonian, modes: frozenset[int]) -> np.ndarray:
    """Number of factors (with multiplicity) of each term indexed in the set."""
    modes_table = np.isin(np.arange(-poly.cutoff, poly.cutoff + 1), list(modes))
    xi, eta = poly.factor_values(modes_table, False)
    return xi.sum(axis=1) + eta.sum(axis=1)


def r2_terms(poly: PolyHamiltonian) -> np.ndarray:
    """(2,2) terms whose divisor vanishes identically in the mass: the xi and
    eta indices have equal multisets of absolute values."""
    xi, eta = poly.factor_values(np.abs(np.arange(-poly.cutoff, poly.cutoff + 1)), -1)
    same = np.all(np.sort(xi, axis=1) == np.sort(eta, axis=1), axis=1)
    return (poly.part_degrees()[0] == 2) & same


class NearResonanceError(RuntimeError):
    """Raised when the minimum non-resonant divisor falls below the gate."""

    def __init__(self, monomial: Monomial, value: float, threshold: float):
        self.monomial = monomial
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"divisor {value:.3e} below gate {threshold:.3e} at monomial "
            f"xi={monomial.xi} eta={monomial.eta} (near-resonant mass)"
        )


@dataclass
class NormalFormResult:
    chi4: PolyHamiltonian
    Z4: PolyHamiltonian
    Q4: PolyHamiltonian
    R6_truncated: Optional[PolyHamiltonian]
    residual_norm: float
    gamma_min: float
    mass: float
    modes: tuple[int, ...]
    cutoff: int

    def serialize(self) -> str:
        header = (
            f"# modes: {','.join(str(a) for a in self.modes)}\n"
            f"# mass: {self.mass!r}\n"
            f"# cutoff: {self.cutoff}\n"
            f"# gamma_min: {self.gamma_min!r}\n"
            f"# residual_norm: {self.residual_norm!r}\n"
        )
        parts = [header]
        for name, poly in (("chi4", self.chi4), ("Z4", self.Z4), ("Q4", self.Q4)):
            parts.append(f"# section: {name}\n" + poly.serialize())
        return "".join(parts)


def solve_homological(p4: P4Split, fs: FrequencySystem, A: ModeSetLike,
                      gamma_threshold: float = 1e-8,
                      with_remainder: bool = False) -> NormalFormResult:
    """Solve {H2, chi4} = Z4 + Q4 - P4 exactly, coefficient by coefficient.

    gamma_threshold gates the minimum |divisor| over the removed monomials
    with tangential count >= 2 (the all-xi/all-eta divisors are always > 4).
    The degree-6 remainder {P4, chi4} + (1/2){{H2, chi4}, chi4} is computed
    only on request, as the one bracket (1/2){P4 + Z4 + Q4, chi4} that the
    homological equation makes it equal to; it is quadratic in the term count.
    """
    modes = _tangential(A)
    total = p4.total
    n_xi, _ = total.part_degrees()
    t = tangential_counts(total, modes)
    ends = np.isin(n_xi, (0, 4))
    resonant = (t >= 2) & r2_terms(total)
    remove = ends | ((t >= 2) & ~resonant)
    removed = total.filter(remove)
    d = removed.divisors(fs)
    gated = ~ends[remove]
    low = np.flatnonzero(gated & (np.abs(d) < gamma_threshold))
    if len(low):
        (m, _), = removed.filter(low[:1])
        raise NearResonanceError(m, float(d[low[0]]), gamma_threshold)
    gamma_min = float(np.abs(d[gated]).min()) if gated.any() else math.inf
    chi4 = solve_h2_bracket(removed, d)
    z4 = total.filter(resonant)
    q4 = total.filter(~remove & ~resonant)
    defect = bracket_with_h2(chi4, fs).max_coeff_diff(z4 + q4 - total)
    scale = total.max_abs_coeff() or 1.0
    r6 = None
    if with_remainder:
        r6 = poisson_bracket(total + z4 + q4, chi4).scale(0.5)
    return NormalFormResult(
        chi4=chi4,
        Z4=z4,
        Q4=q4,
        R6_truncated=r6,
        residual_norm=defect / scale,
        gamma_min=gamma_min,
        mass=fs.mass,
        modes=tuple(sorted(modes)),
        cutoff=p4.cutoff,
    )


# ---------------------------------------------------------------------------
# Vanishing of the non-action resonant part
# ---------------------------------------------------------------------------

@dataclass
class ZVanishingReport:
    """Enumeration evidence for the resonant 2-2 part of the normal form.

    counts[r] holds (total, action, non_action) for tangential count r; the
    claim under test is that every non-action class is empty.  survivors
    lists any non-action monomial with its quadruple.
    """

    counts: dict[int, tuple[int, int, int]]
    survivors: list[tuple[Monomial, complex]]

    @property
    def all_empty(self) -> bool:
        return not self.survivors


def verify_zminus_vanishing(nf: NormalFormResult, A: ModeSetLike) -> ZVanishingReport:
    """Partition the resonant 2-2 monomials by tangential count r in {2,3,4}
    and check that every non-action class is empty.

    A survivor would indicate a mis-specified tangential set or a resonance
    misclassification; the enumeration counts are returned as evidence.
    """
    r = tangential_counts(nf.Z4, _tangential(A))
    # pure action monomials I_l I_k: xi and eta indices pair identically
    # (cutoff + 1, no mode, fills the slots past a part's last factor)
    xi, eta = nf.Z4.factor_values(np.arange(-nf.cutoff, nf.cutoff + 1), nf.cutoff + 1)
    action = np.all(xi == eta, axis=1)
    # classes 2, 3 and 4, then any other count in order of first appearance
    classes = dict.fromkeys([2, 3, 4] + r.tolist())
    return ZVanishingReport(
        counts={k: (int(np.sum(r == k)), int(np.sum((r == k) & action)),
                    int(np.sum((r == k) & ~action))) for k in classes},
        survivors=list(nf.Z4.filter(~action)),
    )


def z4_action_coefficient_table(nf: NormalFormResult, A: ModeSetLike) -> dict[tuple[int, int], tuple[complex, float]]:
    """For each unordered tangential pair {l, k}, the coefficient of I_l I_k
    in Z4 next to the closed form (3/4pi)(4 - 3 delta_{l,k})/(lambda_l lambda_k)."""
    modes = sorted(_tangential(A))
    fs = FrequencySystem(nf.mass)
    table = {}
    for i, l in enumerate(modes):
        for k in modes[i:]:
            monomial = mono(sorted((l, k)), sorted((l, k)))
            actual = nf.Z4.coeff(monomial)
            delta = 1.0 if l == k else 0.0
            predicted = (3.0 / (4.0 * math.pi)) * (4.0 - 3.0 * delta) / float(
                fs.lam(l) * fs.lam(k))
            table[(l, k)] = (actual, predicted)
    return table


# ---------------------------------------------------------------------------
# Frequency matrix and rescaled normal form
# ---------------------------------------------------------------------------

def frequency_matrix(fs: FrequencySystem, A: AdmissibleSet) -> np.ndarray:
    """M[k, l] = (3/2pi)(4 - 3 delta_{l,k}) / (lambda_k lambda_l); symmetric.

    The one closed form of the frequency-modulation matrix: the modulation
    law omega' = omega + M I and the rescaled map Omega(rho) both read it.
    """
    lam = fs.omega_vector(A)
    n = A.n
    M = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            delta = 1.0 if i == j else 0.0
            M[i, j] = (3.0 / (2.0 * math.pi)) * (4.0 - 3.0 * delta) / (lam[i] * lam[j])
    return M


@dataclass
class RescaledNormalForm:
    """Internal/external frequency maps after the action rescaling I = nu rho.

    Omega_k(rho) = omega_k + nu (M rho)_k and
    Lambda_a(rho) = lambda_a + nu (3/pi) (1/lambda_a) sum_l rho_l / lambda_l;
    both affine in rho.  rho is a point or a (P, n) stack of points, and each
    row of a stacked result is bitwise the single-point result; lambda_of's
    axes are rho's points, then s's.
    """

    A: AdmissibleSet
    fs: FrequencySystem
    nu: float
    M: np.ndarray

    def omega_of(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return self.fs.omega_vector(self.A) + self.nu * (self.M @ rho[..., None])[..., 0]

    def lambda_of(self, s, rho):
        rho = np.asarray(rho, dtype=float)
        lam_t = self.fs.omega_vector(self.A)
        shift = (3.0 / math.pi) * np.sum(rho / lam_t, axis=-1)
        lam_s = self.fs.lam(s)
        return lam_s + np.divide.outer(self.nu * shift, lam_s)


def rescale(fs: FrequencySystem, A: AdmissibleSet, nu: float) -> RescaledNormalForm:
    """The frequency maps Omega(rho) and Lambda_a(rho) of the normal form
    rescaled to the tori with actions I = nu rho, rho in [1, 2]^A: all that
    the A1-A3 checks read of it."""
    # NaN fails every comparison, so test for "inside", not for "outside"
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    return RescaledNormalForm(A=A, fs=fs, nu=nu, M=frequency_matrix(fs, A))

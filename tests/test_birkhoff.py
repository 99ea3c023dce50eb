import math

import numpy as np
import pytest

from wavekam.birkhoff import (
    NearResonanceError,
    frequency_matrix,
    r2_terms,
    rescale,
    solve_homological,
    tangential_counts,
    verify_zminus_vanishing,
    z4_action_coefficient_table,
)
from wavekam.polyham import (
    PolyHamiltonian,
    build_h2,
    build_p4,
    lie_transform,
    mono,
    poisson_bracket,
)
from wavekam.spectrum import AdmissibleSet, FrequencySystem


@pytest.fixture(scope="module")
def nf_015():
    fs = FrequencySystem(1.234)
    A = AdmissibleSet([0, 1, 5])
    p4 = build_p4(8, fs)
    return solve_homological(p4, fs, A), fs, A, p4


class TestResonanceMembership:
    def test_r2_multiset_test(self):
        poly = PolyHamiltonian(3, {
            mono([3, -3], [3, -3]): 1.0,
            mono([1, 2], [-1, -2]): 1.0,
            mono([1, 2], [3, 0]): 1.0,
            mono([1, -1, 2], [2]): 1.0,     # equal |.| multisets, not (2,2)
            mono([1, 1], [1, -1]): 1.0,
        })
        assert r2_terms(poly).tolist() == [True, True, False, False, True]

    def test_tangential_counts(self):
        poly = PolyHamiltonian(5, {
            mono([1, 1], [5, 0]): 1.0,
            mono([], [1, 1, 1, -1]): 1.0,
            mono([2, 3], [2, 3]): 1.0,
        })
        assert tangential_counts(poly, frozenset({0, 1, 5})).tolist() == [4, 3, 0]


class TestSolveHomological:
    def test_residual_small(self, nf_015):
        nf, *_ = nf_015
        assert nf.residual_norm <= 1e-10

    def test_chi4_reality(self, nf_015):
        nf, *_ = nf_015
        assert nf.chi4.is_real_hamiltonian()

    def test_z4_action_monomials_only(self, nf_015):
        nf, *_ = nf_015
        for m, _ in nf.Z4:
            assert m.xi == m.eta

    def test_z4_plus_table(self, nf_015):
        nf, _, A, _ = nf_015
        table = z4_action_coefficient_table(nf, A)
        for (l, k), (actual, predicted) in table.items():
            assert abs(actual.imag) < 1e-15
            assert actual.real == pytest.approx(predicted, rel=1e-12)

    def test_q4_lives_in_normal_directions(self, nf_015):
        nf, _, A, _ = nf_015
        modes = frozenset(A.modes)
        for m, _ in nf.Q4:
            t = sum(s in modes for s in m.xi + m.eta)
            if len(m.xi) in (1, 3):
                assert t < 2
            else:
                assert len(m.xi) == 2 and t < 2

    def test_partition_is_exact(self, nf_015):
        # chi4 removes exactly P4 - Z4 - Q4; every P4 monomial lands once
        nf, fs, A, p4 = nf_015
        removed = p4.total - nf.Z4 - nf.Q4
        assert set(dict(removed)) == set(dict(nf.chi4))

    def test_gamma_gate_raises(self, nf_015):
        nf, fs, A, p4 = nf_015
        threshold = nf.gamma_min * 1.001
        with pytest.raises(NearResonanceError) as err:
            solve_homological(p4, fs, A, gamma_threshold=threshold)
        assert abs(err.value.value) <= threshold

    def test_lie_series_consistency(self, nf_015):
        nf, fs, A, p4 = nf_015
        h2 = build_h2(8, fs)
        lhs = lie_transform(h2 + p4.total, nf.chi4, 4)
        rhs = h2 + nf.Z4 + nf.Q4
        assert lhs.max_coeff_diff(rhs) <= 1e-10 * p4.total.max_abs_coeff()

    def test_remainder_degree(self):
        fs = FrequencySystem(1.3)
        A = AdmissibleSet([1])
        nf = solve_homological(build_p4(3, fs), fs, A, with_remainder=True)
        assert nf.R6_truncated is not None
        assert {m.degree for m, _ in nf.R6_truncated} == {6}

    @pytest.mark.parametrize("modes, mass", [((1,), 1.3), ((0, 1, 5), 1.2337)])
    def test_remainder_is_the_halved_bracket_bitwise(self, modes, mass):
        fs = FrequencySystem(mass)
        A = AdmissibleSet(modes)
        p4 = build_p4(5, fs)
        nf = solve_homological(p4, fs, A, with_remainder=True)
        expected = poisson_bracket(p4.total + nf.Z4 + nf.Q4, nf.chi4).scale(0.5)

        def dump(poly):
            return [(m, c.real.hex(), c.imag.hex()) for m, c in poly]

        assert dump(nf.R6_truncated) == dump(expected)   # insertion order too

    def test_serialize_header(self, nf_015):
        nf, *_ = nf_015
        text = nf.serialize()
        assert "# modes: 0,1,5" in text
        assert "# gamma_min:" in text
        assert "# section: chi4" in text


class TestZVanishing:
    @pytest.mark.parametrize("modes", [[0, 1, 5], [1, 2], [0], [2, 3, 7],
                                       [-2, 1, 4]])
    def test_admissible_sets_empty(self, modes):
        fs = FrequencySystem(1.41)
        nf = solve_homological(build_p4(7, fs), fs, AdmissibleSet(modes))
        report = verify_zminus_vanishing(nf, AdmissibleSet(modes))
        assert report.all_empty
        assert report.counts[2][0] > 0  # evidence: the classes are populated

    def test_single_zero_mode_vacuous_classes(self):
        fs = FrequencySystem(1.3)
        nf = solve_homological(build_p4(4, fs), fs, AdmissibleSet([0]))
        report = verify_zminus_vanishing(nf, AdmissibleSet([0]))
        # n = 1 cannot place 3 tangential factors; class 3 is empty outright
        assert report.counts[3][0] == 0
        assert report.all_empty

    def test_enumeration_counts_match_brute_force(self):
        # independent census of resonant 2-2 monomials at cutoff 4
        fs = FrequencySystem(1.52)
        A = AdmissibleSet([1, 2])
        nf = solve_homological(build_p4(4, fs), fs, A)
        report = verify_zminus_vanishing(nf, A)
        census = {2: 0, 3: 0, 4: 0}
        cutoff = 4
        for i in range(-cutoff, cutoff + 1):
            for j in range(i, cutoff + 1):
                for k in range(-cutoff, cutoff + 1):
                    l = i + j - k
                    if not (k <= l <= cutoff) or abs(l) > cutoff:
                        continue
                    if sorted((abs(i), abs(j))) != sorted((abs(k), abs(l))):
                        continue
                    r = sum(1 for x in (i, j, k, l) if x in (1, 2))
                    if r >= 2:
                        census[r] += 1
        assert {r: v[0] for r, v in report.counts.items()} == census


def det_m_closed_form(fs: FrequencySystem, A: AdmissibleSet) -> float:
    """det M = (3/2pi)^n (prod lambda_l^-2) (4n - 3) (-3)^(n-1): the oracle
    that c04 and TestFrequencyMatrix compare frequency_matrix with."""
    lam = fs.omega_vector(A)
    n = A.n
    return (
        (3.0 / (2.0 * math.pi)) ** n
        * float(np.prod(lam ** -2.0))
        * (4 * n - 3)
        * (-3.0) ** (n - 1)
    )


class TestFrequencyMatrix:
    @pytest.mark.parametrize("modes", [[3], [0, 1], [0, 1, 2], [0, 1, 3, 5]])
    def test_det_closed_form(self, modes):
        fs = FrequencySystem(1.37)
        A = AdmissibleSet(modes)
        M = frequency_matrix(fs, A)
        assert np.allclose(M, M.T)
        assert np.linalg.det(M) == pytest.approx(det_m_closed_form(fs, A),
                                                 rel=1e-10)

    def test_n1_value(self):
        fs = FrequencySystem(1.5)
        A = AdmissibleSet([2])
        lam = math.sqrt(4 + 1.5)
        assert det_m_closed_form(fs, A) == pytest.approx(
            3.0 / (2.0 * math.pi * lam * lam))


@pytest.fixture(scope="module")
def rnf():
    fs = FrequencySystem(1.3)
    A = AdmissibleSet([1])
    return rescale(fs, A, 1e-3), fs, A


class TestRescale:
    def test_lambda_shift_formula(self, rnf):
        r, fs, A = rnf
        nu, rho = 1e-3, 1.5
        lam1 = float(fs.lam(1))
        shift_c = (3.0 / math.pi) * float(np.sum(2.0 / fs.omega_vector(A)))
        for a in (2, 5, 17):
            lam_a = float(fs.lam(a))
            expected = lam_a + nu * (3.0 / math.pi) * (rho / lam1) / lam_a
            assert float(r.lambda_of(a, [rho])) == pytest.approx(expected, rel=1e-14)
            # |Lambda_a - lambda_a| <= C nu / |a|
            assert abs(float(r.lambda_of(a, [rho])) - lam_a) <= shift_c * nu / a

    def test_omega_shift_bounded(self, rnf):
        r, fs, A = rnf
        omega = fs.omega_vector(A)
        shift_c = (3.0 / math.pi) * float(np.sum(2.0 / omega))
        shift = np.abs(r.omega_of([1.5]) - omega)
        assert np.all(shift <= shift_c * r.nu)

    def test_validation(self, rnf):
        _, fs, A = rnf
        # NaN fails every comparison, so a test for "outside" let these through
        for nu in (math.nan, math.inf, 0.0, -1e-3):
            with pytest.raises(ValueError, match="nu must be positive and finite"):
                rescale(fs, A, nu)

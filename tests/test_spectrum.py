import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavekam.spectrum import (
    AdmissibleSet,
    FrequencySystem,
    check_mass,
    frequency_derivative,
    is_admissible,
    vandermonde_closed_form,
    vandermonde_determinant,
    vandermonde_matrix,
    vandermonde_scale,
)


def finite_difference_derivative(a, m, j):
    """Independent oracle: j-th centered finite difference of sqrt(a^2 + m)
    on a staggered grid.  Steps scale with a^2 + m (derivative magnitudes
    decay like (a^2+m)^(1/2-j), so rounding error eps/h^j forces it) and
    j >= 3 uses two Richardson levels."""
    def fd(step):
        vals = np.array([math.sqrt(a * a + m + k * step)
                         for k in np.arange(-j / 2, j / 2 + 1)])
        for _ in range(j):
            vals = np.diff(vals)
        return vals[0] / step ** j

    if j == 1:
        return fd(1e-5)
    if j == 2:
        return fd(1e-4 * (a * a + m))
    h = 0.05 * math.sqrt(a * a + m)

    def r1(step):
        return (4 * fd(step) - fd(2 * step)) / 3.0

    return (16 * r1(h) - r1(2 * h)) / 15.0


class TestFrequency:
    def test_basic_values(self):
        assert FrequencySystem(1).lam(0) == 1.0
        assert FrequencySystem(1).lam(1) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_symmetry(self):
        fs = FrequencySystem(1.5)
        assert fs.lam(-7) == fs.lam(7)
        s = np.arange(1, 50)
        assert np.array_equal(fs.lam(-s), fs.lam(s))

    def test_mass_range(self):
        with pytest.raises(ValueError):
            FrequencySystem(0.5)
        with pytest.raises(ValueError):
            FrequencySystem([1.5, 2.5])
        with pytest.raises(ValueError):
            check_mass(2.5)

    def test_lambda_above_integer_part(self):
        # 0 < lambda_s - |s| <= m / (2|s|) for s != 0
        masses = np.linspace(1, 2, 11)
        for m in masses:
            s = np.arange(1, 1001)
            lam = np.sqrt(s * s + m)
            gap = lam - s
            assert np.all(gap > 0)
            assert np.all(gap <= m / (2 * s))


class TestFrequencyDerivative:
    def test_first_derivative_at_zero(self):
        assert frequency_derivative(0, 1, 1) == pytest.approx(0.5, rel=1e-14)

    def test_second_derivative_value(self):
        expected = -1.0 / (4.0 * 2.0 ** 1.5)
        assert frequency_derivative(1, 1, 2) == pytest.approx(expected, rel=1e-12)
        oracle = finite_difference_derivative(1, 1, 2)
        assert frequency_derivative(1, 1, 2) == pytest.approx(oracle, rel=1e-6)

    def test_third_derivative_matches_finite_differences(self):
        oracle = finite_difference_derivative(3, 1.3, 3)
        assert frequency_derivative(3, 1.3, 3) == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_matches_finite_differences_sweep(self, j):
        for a in range(-10, 11, 4):
            closed = frequency_derivative(a, 1.5, j)
            oracle = finite_difference_derivative(a, 1.5, j)
            assert closed == pytest.approx(oracle, rel=1e-5)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            frequency_derivative(1, 1, 0)


class TestAdmissible:
    def test_examples(self):
        assert is_admissible([0, 1, 2])
        assert not is_admissible([1, -1])
        assert is_admissible([0])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            is_admissible([2, 2])

    @given(st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=6))
    def test_nonnegative_sets_admissible(self, modes):
        assert is_admissible(modes)

    @given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=6))
    def test_opposite_pair_breaks_admissibility(self, modes):
        j = sorted(modes)[0]
        assert not is_admissible(set(modes) | {-j})

    def test_derived_sets(self):
        A = AdmissibleSet([0, 1, 5])
        assert A.n == 3
        assert A.n_bound == 5
        assert A.is_tangential(5) and not A.is_tangential(-5)
        assert A.normal_modes(2) == [-2, -1, 2]

    def test_construction_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            AdmissibleSet([1, -1])
        with pytest.raises(ValueError):
            AdmissibleSet([])


class TestVandermonde:
    def test_one_by_one(self):
        assert vandermonde_determinant([0], 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_two_by_two_against_expansion_oracle(self):
        # oracle: naive 2x2 expansion of the derivative matrix
        m = 1.0
        a11 = frequency_derivative(0, m, 1)
        a12 = frequency_derivative(1, m, 1)
        a21 = frequency_derivative(0, m, 2)
        a22 = frequency_derivative(1, m, 2)
        oracle = a11 * a22 - a12 * a21
        assert vandermonde_determinant([0, 1], m) == pytest.approx(oracle, rel=1e-12)
        assert vandermonde_closed_form([0, 1], m) == pytest.approx(oracle, rel=1e-12)

    def test_closed_form_sample(self):
        for subset in ([0, 1], [1, 2, 5], [0, 2, 3, 7], [-3, 1, 4]):
            for m in (1.0, 1.5, 2.0):
                direct = vandermonde_determinant(subset, m)
                closed = vandermonde_closed_form(subset, m)
                assert abs(direct - closed) <= 1e-10 * max(abs(direct), abs(closed))

    def test_degenerate_opposite_pair_vanishes(self):
        # a and -a give identical columns of squares: closed form is exactly 0
        assert vandermonde_closed_form([-3, 3], 1.3) == 0.0
        scale = vandermonde_scale([-3, 3], 1.3)
        assert abs(vandermonde_determinant([-3, 3], 1.3)) <= 1e-12 * scale

    def test_lower_bound_fit_over_triples(self):
        # scan all admissible 3-subsets of {|a| <= 5}; the smallest valid C in
        # |D| >= C N^(-2 p^2) must be positive
        from itertools import combinations

        m, p, N = 1.3, 3, 5
        best = math.inf
        for subset in combinations(range(-5, 6), p):
            if not is_admissible(subset):
                continue
            d = abs(vandermonde_determinant(subset, m))
            best = min(best, d * N ** (2 * p * p))
        assert 0 < best < math.inf
        assert abs(vandermonde_determinant([1, 2, 5], m)) >= best * N ** (-2 * p * p)

    def test_invalid_subsets(self):
        with pytest.raises(ValueError):
            vandermonde_determinant([], 1.0)
        with pytest.raises(ValueError):
            vandermonde_matrix([1, 1], 1.0)


class TestFrequencySystem:
    def test_vectorized(self):
        fs = FrequencySystem(1.2)
        A = AdmissibleSet([0, 1, 5])
        vec = fs.omega_vector(A)
        assert vec.shape == (3,)
        assert vec[2] == pytest.approx(math.sqrt(25 + 1.2))

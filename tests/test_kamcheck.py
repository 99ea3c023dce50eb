import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekam import kamcheck
from wavekam.birkhoff import RescaledNormalForm, rescale
from wavekam.kamcheck import (
    HypothesisReport,
    Violation,
    check_a1,
    check_transversality,
    melnikov_scan,
    melnikov_sweep,
    rho_grid,
)
from wavekam.smalldiv import DivisorRange, resonant_patterns
from wavekam.spectrum import AdmissibleSet, FrequencySystem

GENERIC_MASS = 1.31   # passes all three hypotheses at nu = 1e-4, N = 20, S = 60


def make_rnf(mass=GENERIC_MASS, modes=(1,), nu=1e-4):
    return rescale(FrequencySystem(mass), AdmissibleSet(modes), nu)


@pytest.fixture(scope="module")
def rnf_default():
    return make_rnf()


class TestA1:
    def test_defaults_pass(self, rnf_default):
        report = check_a1(rnf_default, S=100)
        assert report.verified
        assert report.checked_count > 0

    def test_zero_mode_lower_bound(self, rnf_default):
        # Lambda_0 = lambda_0 + positive shift >= 1 = <0> for nu >= 0
        for rho in (np.array([1.0]), np.array([2.0])):
            assert float(rnf_default.lambda_of(0, rho)) >= 1.0

    def test_large_nu_violates_separation(self):
        rnf = make_rnf(nu=10.0)
        report = check_a1(rnf, S=30, points_per_dim=5)
        assert not report.verified
        assert any(v.family == "separation" for v in report.violations)

    def test_report_lines(self):
        rnf = make_rnf(nu=10.0)
        report = check_a1(rnf, S=20, points_per_dim=3)
        text = report.serialize()
        assert "hyp=A1" in text and "required=" in text

    @pytest.mark.parametrize("modes, nu, S, points, verified", [
        ((1,), 10.0, 30, 5, False),
        ((1,), 1e-4, 40, 7, True),
        ((0, 2), 3.0, 12, 4, None),
        ((0, 1, 5), 1e-2, 20, 3, None),
    ])
    def test_matches_loop(self, modes, nu, S, points, verified):
        rnf = cached_rnf(modes, 1.2337 if len(modes) == 3 else 1.31, nu)
        report = check_a1(rnf, S, points_per_dim=points)
        reference = reference_a1(rnf, S, points_per_dim=points)
        if verified is not None:
            assert report.verified == verified
        assert report.serialize() == reference.serialize()
        assert_same_report(report, reference)


class TestA2:
    def test_defaults_no_violations(self, rnf_default):
        report = check_transversality(rnf_default, N=20, S=60)
        assert report.verified
        assert report.branch_counts["value"] > 0
        assert report.branch_counts["derivative"] > 0

    def test_derivative_reduction_exact(self, rnf_default):
        # d_rho (k . Omega) = nu M k, so the z_k projection is nu |Mk| exactly
        rnf = rnf_default
        M, nu = rnf.M, rnf.nu
        for k in ([3], [-7], [12]):
            kvec = np.array(k, dtype=float)
            mk = M @ kvec
            z = mk / np.linalg.norm(mk)
            # finite differences of k . Omega(rho) along z; the map is
            # affine, so a large step has no truncation error at all
            h = 0.05
            rho0 = np.array([1.4])
            fd = (np.dot(kvec, rnf.omega_of(rho0 + h * z))
                  - np.dot(kvec, rnf.omega_of(rho0 - h * z))) / (2 * h)
            assert fd == pytest.approx(nu * np.linalg.norm(mk), rel=1e-7)

    def test_d1_resonant_shift_identity(self):
        # for the D1-resonant pattern (k = -e_s, |a| = |s|) the divisor equals
        # nu (3/2pi)(1/lambda_a) |sum_l (2 - 3 delta_{l,s}) rho_l / lambda_l|
        rnf = make_rnf(modes=(1,), nu=1e-4)
        fs = rnf.fs
        rho = np.array([1.7])
        k = np.array([-1.0])
        a = -1
        value = float(np.dot(k, rnf.omega_of(rho)) + rnf.lambda_of(a, rho))
        lam1 = float(fs.lam(1))
        formula = rnf.nu * (3.0 / (2.0 * math.pi)) * (1.0 / lam1) * (
            (2.0 - 3.0) * rho[0] / lam1)
        assert abs(value) == pytest.approx(abs(formula), rel=1e-12)
        assert value != 0.0

    def test_gamma_exponent_validation(self, rnf_default):
        with pytest.raises(ValueError):
            check_transversality(rnf_default, N=5, S=10, gamma_exponent=-1.0)

    def test_needs_a_k(self, rnf_default):
        with pytest.raises(ValueError, match="N must be >= 1"):
            check_transversality(rnf_default, N=0, S=10)


class TestA3:
    def test_defaults_accept_everything(self, rnf_default):
        report = melnikov_scan(rnf_default, kappa=1e-6, N=10, S=40,
                               points_per_dim=200)
        assert report.accepted_fraction >= 0.99

    def test_monotone_in_kappa_and_n(self, rnf_default):
        base = melnikov_scan(rnf_default, 1e-6, 10, 40, points_per_dim=100)
        harder_k = melnikov_scan(rnf_default, 1e-5, 10, 40, points_per_dim=100)
        harder_n = melnikov_scan(rnf_default, 1e-6, 20, 40, points_per_dim=100)
        assert harder_k.accepted_fraction <= base.accepted_fraction
        assert harder_n.accepted_fraction <= base.accepted_fraction

    def test_excluded_sets_nest(self, rnf_default):
        small = melnikov_scan(rnf_default, 1e-8, 10, 30, points_per_dim=60)
        large = melnikov_scan(rnf_default, 5e-5, 10, 30, points_per_dim=60)
        for acc_small, acc_large in zip(small.accepted, large.accepted):
            if acc_large:
                assert acc_small

    def test_kappa_bounds_validated(self, rnf_default):
        with pytest.raises(ValueError):
            melnikov_scan(rnf_default, kappa=1.0, N=5, S=10)  # kappa >= nu

    def test_needs_a_k(self, rnf_default):
        with pytest.raises(ValueError, match="N must be >= 1"):
            melnikov_scan(rnf_default, kappa=1e-6, N=0, S=10)

    def test_violation_reproducible_via_evaluators(self):
        # crank kappa to the allowed maximum to force violations, then
        # recompute each recorded value standalone from the frequency maps
        rnf = make_rnf(nu=1e-2)
        report = melnikov_scan(rnf, kappa=9.9e-3, N=6, S=20, points_per_dim=40)
        assert report.violations
        for v in report.violations[:10]:
            rho = np.array(v.rho)
            value = float(np.dot(np.array(v.k, dtype=float), rnf.omega_of(rho))
                          + rnf.lambda_of(v.a, rho) - rnf.lambda_of(v.b, rho))
            assert value == v.value  # bitwise, same evaluation path

    def test_degenerate_single_point_grid(self, rnf_default):
        report = melnikov_scan(rnf_default, 1e-6, 5, 20, points_per_dim=1)
        assert report.parameters["rho_points"] == 1
        assert report.accepted_fraction in (0.0, 1.0)


class TestRhoGrid:
    def test_refuses_high_dimension(self):
        with pytest.raises(ValueError):
            rho_grid(5)

    def test_force_override(self):
        grid = rho_grid(5, points_per_dim=2, force=True)
        assert grid.shape == (32, 5)

    def test_defaults_by_dimension(self):
        assert rho_grid(1).shape == (100, 1)
        assert rho_grid(3).shape == (27000, 3)


class TestStackedMaps:
    @pytest.mark.parametrize("modes", [(1,), (0, 2), (0, 1, 5), (1, 2, 4, 7)])
    def test_rows_equal_single_points(self, modes):
        # the scans evaluate Omega and Lambda on stacks of rho rows; each row
        # must be bitwise the single-point value
        rnf = cached_rnf(modes, 1.41, 1e-2)
        n = len(modes)
        rng = np.random.default_rng(n)
        rho = np.concatenate([rho_grid(n, 3), 1.0 + rng.random((40, n))])
        s = np.array([0, -3, 3, 8, -17, 40])
        omega, lam, lam0 = (rnf.omega_of(rho), rnf.lambda_of(s, rho),
                            rnf.lambda_of(-3, rho))
        assert omega.shape == rho.shape
        assert lam.shape == (len(rho), len(s)) and lam0.shape == (len(rho),)
        for p, point in enumerate(rho):
            assert omega[p].tobytes() == rnf.omega_of(point).tobytes()
            assert lam[p].tobytes() == np.asarray(rnf.lambda_of(s, point)).tobytes()
            assert lam0[p] == rnf.lambda_of(-3, point)

    @pytest.mark.parametrize("modes", [(1,), (0, 2), (0, 1, 5), (1, 2, 4, 7)])
    @pytest.mark.parametrize("points, ks", [(1, 1), (1, 9), (2, 1), (3, 2), (4, 60)])
    def test_block_dots_are_per_cell_dots(self, monkeypatch, modes, points, ks):
        # blocks and k tables of a single row included: numpy would hand
        # those products to gemv, which rounds unlike np.dot
        monkeypatch.setattr(kamcheck, "CELL_BLOCK", 7)
        rnf = cached_rnf(modes, 1.41, 1e-2)
        rng = DivisorRange(rnf.A, 3, 6)
        kmat = 1.0 + np.arange(ks * rnf.A.n).reshape(ks, rnf.A.n) % 7
        grid = 1.0 + np.random.default_rng(points).random((points ** rnf.A.n, rnf.A.n))
        blocks = list(kamcheck._rho_rows(rnf, grid, rng.uabs, kmat, 1))
        dots = np.concatenate([d for _, _, d in blocks])
        assert len(blocks) == -(-len(grid) // 7) and dots.shape == (len(grid), ks)
        for rho, row in zip(grid, dots):
            omega = rnf.omega_of(rho)
            assert [float(np.dot(k, omega)) for k in kmat] == list(row)


# ---------------------------------------------------------------------------
# Reference scans: one table pass per (k, rho) cell over the full (a, b)
# tables of the modes, built here in plain numpy.  check_a1,
# check_transversality and melnikov_scan evaluate the frequency maps on
# blocks of rho rows, on the |a| classes, and settle most cells on sorted
# dots; they must report exactly what these loops report, counts and
# violation order included.
# ---------------------------------------------------------------------------

def k_range(n, N):
    """Integer vectors with 0 < |k|_1 <= N, in lexicographic order."""
    return [k for k in itertools.product(range(-N, N + 1), repeat=n)
            if 0 < sum(abs(x) for x in k) <= N]


def mode_tables(A, S):
    """The normal modes |s| <= S, the divisor weights over the (a, b) tables
    of the modes ((|normals|,) for D1) and the mask of |a| != |b|."""
    normals = np.array([s for s in range(-S, S + 1) if s not in A.modes])
    abs_n = np.abs(normals)
    w1 = np.maximum(abs_n, 1).astype(float)
    weights = {"D1": w1, "D2": w1[:, None] + w1[None, :],
               "D3": 1.0 + np.abs(abs_n[:, None] - abs_n[None, :])}
    return normals, weights, abs_n[:, None] != abs_n[None, :]


def reference_a1(rnf, S, points_per_dim=None, force=False):
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    normals = np.array(rnf.A.normal_modes(S))
    brackets = np.maximum(np.abs(normals), 1)
    violations = []
    checked = 0
    for rho in grid:
        rho_t = tuple(float(r) for r in rho)
        lam = [rnf.lambda_of(int(a), rho) for a in normals]
        for a, value, bracket in zip(normals, lam, brackets):
            checked += 1
            if value < bracket:
                violations.append(Violation("A1", "lower", (), int(a), None, rho_t,
                                            float(value), float(bracket)))
        seen = sorted({abs(int(a)) for a in normals})
        for i, a in enumerate(seen):
            for b in seen[i + 1:]:
                checked += 1
                diff = abs(rnf.lambda_of(a, rho) - rnf.lambda_of(b, rho))
                if diff < (b - a) / 8.0:
                    violations.append(Violation("A1", "separation", (), a, b, rho_t,
                                                float(diff), (b - a) / 8.0))
    return HypothesisReport("A1", {}, checked, violations)


def reference_transversality(rnf, N, S, gamma_exponent=0.25, points_per_dim=None,
                             force=False):
    nu = rnf.nu
    A = rnf.A
    n = A.n
    delta0 = 0.5 * nu / float(np.linalg.norm(np.linalg.inv(rnf.M), 2))
    small_cap = nu ** (-gamma_exponent)
    grid = rho_grid(n, points_per_dim, force)
    normals, weights, distinct = mode_tables(A, S)
    patterns = resonant_patterns(A)
    lam_base = np.asarray(rnf.fs.lam(normals), dtype=float)
    deriv_row = (3.0 / math.pi) * float(
        np.linalg.norm(1.0 / rnf.fs.omega_vector(A), 2))
    violations = []
    checked = 0
    branch_counts = {"value": 0, "derivative": 0, "resonant-pattern": 0}

    def record(family, k, a, b, rho, value, required):
        violations.append(Violation("A2", family, tuple(int(x) for x in k),
                                    a, b, tuple(float(r) for r in rho),
                                    float(value), float(required)))

    def value_failures(k, rho, omega_k, lam, margin):
        failures = []
        required0 = nu ** 0.5 + margin
        if abs(omega_k) < required0:
            failures.append(("D0", None, None, omega_k, required0))
        vals1 = omega_k + lam
        req1 = nu ** (2.0 / 3.0) * weights["D1"] + margin
        bad1 = np.abs(vals1) < req1
        resonant = patterns.get(("D1", k), ())
        for idx in np.nonzero(bad1)[0]:
            a = int(normals[idx])
            if (abs(a),) in resonant:
                branch_counts["resonant-pattern"] += 1
                if vals1[idx] == 0.0:
                    record("D1", k, a, None, rho, 0.0, 0.0)
                continue
            failures.append(("D1", a, None, float(vals1[idx]), float(req1[idx])))
        for family, sign in (("D2", 1.0), ("D3", -1.0)):
            vals = vals1[:, None] + sign * lam[None, :]
            req = nu ** (2.0 / 3.0) * weights[family] + margin
            bad = np.abs(vals) < req
            if family == "D3":
                bad &= distinct
            resonant = patterns.get((family, k), ())
            for i, j in zip(*np.nonzero(bad)):
                a, b = int(normals[i]), int(normals[j])
                if (abs(a), abs(b)) in resonant:
                    branch_counts["resonant-pattern"] += 1
                    if vals[i, j] == 0.0:
                        record(family, k, a, b, rho, 0.0, 0.0)
                    continue
                failures.append((family, a, b, float(vals[i, j]), float(req[i, j])))
        return failures

    worst_allowance = 2.0 * deriv_row / float(np.min(lam_base))
    for k in k_range(n, N):
        kvec = np.array(k, dtype=float)
        k_l1 = float(np.abs(kvec).sum())
        margin = delta0 * k_l1
        small = k_l1 <= small_cap
        mk = float(np.linalg.norm(rnf.M @ kvec, 2))

        def tuple_derivative_ok(a, b):
            allowance = 0.0
            for s in (a, b):
                if s is not None:
                    allowance += deriv_row / float(rnf.fs.lam(s))
            return mk - allowance >= 1.0

        for rho in grid:
            checked += 1 + len(normals) * (1 + 2 * len(normals))
            if not small and mk - worst_allowance >= 1.0:
                branch_counts["derivative"] += 1
                continue
            omega_k = float(np.dot(kvec, rnf.omega_of(rho)))
            lam = np.asarray(rnf.lambda_of(normals, rho))
            failures = value_failures(k, rho, omega_k, lam, margin)
            if not failures:
                branch_counts["value"] += 1
                continue
            for family, a, b, value, required in failures:
                if tuple_derivative_ok(a, b):
                    branch_counts["derivative"] += 1
                else:
                    record(family, kvec, a, b, rho, value, required)
    return HypothesisReport("A2", {}, checked, violations, branch_counts=branch_counts)


def reference_melnikov(rnf, kappa, N, S, points_per_dim=None, force=False):
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    normals, weights, pair_mask = mode_tables(rnf.A, S)
    weights = kappa * weights["D3"]
    ks = [np.array(k, dtype=float) for k in k_range(rnf.A.n, N)]
    accepted_mask = []
    checked = 0
    violations = []
    for rho in grid:
        lam = np.asarray(rnf.lambda_of(normals, rho))
        diff = lam[:, None] - lam[None, :]
        omega = rnf.omega_of(rho)
        ok = True
        for kvec in ks:
            vals = float(np.dot(kvec, omega)) + diff
            checked += int(pair_mask.sum())
            bad = pair_mask & (np.abs(vals) < weights)
            if np.any(bad):
                ok = False
                i, j = next(zip(*np.nonzero(bad)))
                a, b = int(normals[i]), int(normals[j])
                value = float(np.dot(kvec, omega) + rnf.lambda_of(a, rho)
                              - rnf.lambda_of(b, rho))
                violations.append(Violation(
                    "A3", "melnikov", tuple(int(x) for x in kvec), a, b,
                    tuple(float(r) for r in rho), value,
                    float(weights[i, j])))
                break
        accepted_mask.append(ok)
    return HypothesisReport("A3", {}, checked, violations,
                            accepted_fraction=sum(accepted_mask) / len(grid),
                            accepted=accepted_mask)


def assert_same_report(report, reference):
    assert report.checked_count == reference.checked_count
    assert report.branch_counts == reference.branch_counts
    assert report.accepted == reference.accepted
    assert report.accepted_fraction == reference.accepted_fraction
    assert [v.as_line() for v in report.violations] == [
        v.as_line() for v in reference.violations]
    assert report.violations == reference.violations   # family and branch too


MODE_SETS = [(1,), (2,), (0, 1), (0, 2), (1, 3), (0, 1, 5), (1, 2, 4)]
MASSES = [1.05, 1.2337, 1.3, 1.31, 4.0 / 3.0, 1.41, 1.5, 1.77, 1.99]
NUS = [1e-4, 1e-3, 1e-2]


@functools.lru_cache(maxsize=None)
def cached_rnf(modes, mass, nu):
    return make_rnf(mass=mass, modes=modes, nu=nu)


@st.composite
def scan_cases(draw):
    modes = draw(st.sampled_from(MODE_SETS))
    # grids small enough for the reference loops: at most ~30 rho points
    points = draw(st.integers(1, {1: 30, 2: 5, 3: 3}[len(modes)]))
    return (modes, draw(st.sampled_from(MASSES)), draw(st.sampled_from(NUS)),
            draw(st.integers(1, 4)), draw(st.integers(1, 12)), points)


class TestScreenedScansMatchLoops:
    @settings(max_examples=100, deadline=None)
    @given(case=scan_cases(), gamma=st.sampled_from([0.25, 0.5]))
    def test_transversality(self, case, gamma):
        modes, mass, nu, N, S, points = case
        rnf = cached_rnf(modes, mass, nu)
        report = check_transversality(rnf, N, S, gamma_exponent=gamma,
                                      points_per_dim=points)
        assert_same_report(report, reference_transversality(
            rnf, N, S, gamma_exponent=gamma, points_per_dim=points))

    @settings(max_examples=100, deadline=None)
    @given(case=scan_cases(), kappa_share=st.sampled_from([1e-3, 0.1, 0.5, 0.99]))
    def test_melnikov(self, case, kappa_share):
        modes, mass, nu, N, S, points = case
        rnf = cached_rnf(modes, mass, nu)
        kappa = kappa_share * nu
        report = melnikov_scan(rnf, kappa, N, S, points_per_dim=points)
        assert_same_report(report, reference_melnikov(rnf, kappa, N, S,
                                                       points_per_dim=points))

    @pytest.mark.parametrize("modes, nu, N, S, points", [
        ((1,), 1e-2, 10, 40, 12),          # violation-heavy, large-k skips
        ((0, 1, 5), 1e-4, 3, 20, 3),       # the three_modes benchmark shape
        ((0, 2), 1e-3, 4, 24, 4),
    ])
    def test_workload_shapes(self, modes, nu, N, S, points):
        rnf = cached_rnf(modes, 1.2337 if len(modes) == 3 else 1.3, nu)
        assert_same_report(
            check_transversality(rnf, N, S, points_per_dim=points),
            reference_transversality(rnf, N, S, points_per_dim=points))
        for kappa in (1e-3 * nu, 0.5 * nu, 0.99 * nu):
            assert_same_report(
                melnikov_scan(rnf, kappa, N, S, points_per_dim=points),
                reference_melnikov(rnf, kappa, N, S, points_per_dim=points))


    @pytest.mark.parametrize("cell_block", [1, 50])
    def test_results_do_not_depend_on_blocks(self, monkeypatch, cell_block):
        monkeypatch.setattr(kamcheck, "CELL_BLOCK", cell_block)
        rnf = cached_rnf((0, 1, 5), 1.41, 1e-3)
        assert_same_report(check_transversality(rnf, 3, 10, points_per_dim=2),
                           reference_transversality(rnf, 3, 10, points_per_dim=2))
        for kappa in (1e-4, 9e-4):
            assert_same_report(melnikov_scan(rnf, kappa, 3, 10, points_per_dim=2),
                               reference_melnikov(rnf, kappa, 3, 10, points_per_dim=2))


class TestOnePassScansMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(case=scan_cases(),
           shares=st.lists(st.sampled_from([1e-3, 0.1, 0.5, 0.99]), min_size=1, max_size=4))
    def test_melnikov_sweep(self, case, shares):
        # kappas in any order, duplicates kept: one report per kappa given
        modes, mass, nu, N, S, points = case
        rnf = cached_rnf(modes, mass, nu)
        kappas = [share * nu for share in shares]
        reports = melnikov_sweep(rnf, kappas, N, S, points_per_dim=points)
        assert [r.parameters["kappa"] for r in reports] == kappas
        references = {kappa: reference_melnikov(rnf, kappa, N, S, points_per_dim=points)
                      for kappa in set(kappas)}
        for kappa, report in zip(kappas, reports):
            assert_same_report(report, references[kappa])
            assert report.parameters == melnikov_scan(rnf, kappa, N, S,
                                                      points_per_dim=points).parameters

    @pytest.mark.parametrize("modes, nu, N, S, points", [
        ((1,), 1e-2, 10, 40, 12),
        ((0, 1, 5), 1e-4, 3, 20, 3),
        ((0, 2), 1e-3, 4, 24, 4),
    ])
    def test_sweep_workload_shapes(self, modes, nu, N, S, points):
        # the largest kappa is not the first, and the fractions differ by kappa
        rnf = cached_rnf(modes, 1.2337 if len(modes) == 3 else 1.3, nu)
        kappas = [0.1 * nu, 1e-3 * nu, 0.99 * nu, 0.1 * nu, 0.5 * nu]
        reports = melnikov_sweep(rnf, kappas, N, S, points_per_dim=points)
        assert len({r.accepted_fraction for r in reports}) > 1
        for kappa, report in zip(kappas, reports):
            assert_same_report(report, reference_melnikov(rnf, kappa, N, S,
                                                           points_per_dim=points))

    @pytest.mark.parametrize("cell_block", [1, 50])
    def test_sweep_results_do_not_depend_on_blocks(self, monkeypatch, cell_block):
        monkeypatch.setattr(kamcheck, "CELL_BLOCK", cell_block)
        rnf = cached_rnf((0, 1, 5), 1.41, 1e-3)
        kappas = [1e-4, 9e-4, 5e-4, 9e-4]
        for kappa, report in zip(kappas, melnikov_sweep(rnf, kappas, 3, 10, points_per_dim=2)):
            assert_same_report(report, reference_melnikov(rnf, kappa, 3, 10, points_per_dim=2))

    def test_block_of_rows_failing_at_one_k_in_several_families(self):
        # four rho rows, all in one block, fail at k = -3 in D2 and in D3; the
        # report must still list k, then rho, then family, not family first
        rnf = cached_rnf((1,), 1.3, 1e-2)
        rng = DivisorRange(rnf.A, 3, 12)
        assert len(list(kamcheck._rho_rows(rnf, rho_grid(1, 4), rng.uabs, rng.kmat,
                                           len(rng.ks) + len(rng.uabs)))) == 1
        report = check_transversality(rnf, 3, 12, points_per_dim=4)
        rows = {}
        for v in report.violations:
            if v.k == (-3,):
                rows.setdefault(v.rho, []).append(v.family)
        assert len(rows) == 4
        assert all({"D2", "D3"} <= set(families) for families in rows.values())
        assert all(families == sorted(families) for families in rows.values())
        assert report.branch_counts["resonant-pattern"] > 0
        assert_same_report(report, reference_transversality(rnf, 3, 12, points_per_dim=4))


class TestRefusedInputs:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
    def test_gamma_exponent_positive_and_finite(self, rnf_default, gamma):
        with pytest.raises(ValueError, match="gamma_exponent"):
            check_transversality(rnf_default, N=2, S=5, gamma_exponent=gamma,
                                 points_per_dim=2)

    @pytest.mark.parametrize("scan", [
        lambda rnf, S: check_a1(rnf, S, points_per_dim=2),
        lambda rnf, S: check_transversality(rnf, 2, S, points_per_dim=2),
        lambda rnf, S: melnikov_scan(rnf, 1e-6, 2, S, points_per_dim=2),
        lambda rnf, S: melnikov_sweep(rnf, [1e-6, 1e-5], 2, S, points_per_dim=2),
    ], ids=["a1", "a2", "a3", "a3-sweep"])
    @pytest.mark.parametrize("modes, S", [((0,), 0), ((1,), -1)])
    def test_no_normal_mode(self, scan, modes, S):
        # a scan over no mode would report a vacuous "verified"
        with pytest.raises(ValueError, match="leaves no normal mode to check"):
            scan(cached_rnf(modes, 1.31, 1e-4), S)

    @pytest.mark.parametrize("kappas", [[], [1e-6, 1e-4], [math.nan], [-1e-6, 1e-6],
                                        [1e-6, 2e-4]],
                             ids=["none", "at-nu", "nan", "negative", "above-nu"])
    def test_sweep_checks_kappas_before_any_table(self, monkeypatch, rnf_default, kappas):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was built before the kappas were checked")

        monkeypatch.setattr(kamcheck, "DivisorRange", refuse)
        monkeypatch.setattr(kamcheck, "rho_grid", refuse)
        with pytest.raises(ValueError, match="kappa"):
            melnikov_sweep(rnf_default, kappas, 2, 10, points_per_dim=2)


@dataclasses.dataclass
class TiedRNF(RescaledNormalForm):
    """Omega(rho) = (1 + rho_0 / 4, 2 + rho_1 / 2): k = (2, 0) and (0, 1) have
    the same dot wherever rho_0 = rho_1, and (2, -1) has a zero dot there."""

    def omega_of(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return np.array([1.0, 2.0]) + np.array([0.25, 0.5]) * rho


def tied_rnf(nu):
    rnf = cached_rnf((0, 2), 1.41, nu)
    return TiedRNF(**{f.name: getattr(rnf, f.name) for f in dataclasses.fields(rnf)})


class TestHandBuiltCases:
    @pytest.mark.parametrize("nu", NUS)
    def test_tied_dots(self, nu):
        rnf = tied_rnf(nu)
        dots = [float(np.dot(k, rnf.omega_of(np.array([1.5, 1.5]))))
                for k in ((2.0, 0.0), (0.0, 1.0))]
        assert dots[0] == dots[1]
        assert_same_report(check_transversality(rnf, 4, 12, points_per_dim=5),
                           reference_transversality(rnf, 4, 12, points_per_dim=5))
        for kappa in (0.01 * nu, 0.5 * nu, 0.99 * nu):
            report = melnikov_scan(rnf, kappa, 4, 12, points_per_dim=5)
            assert_same_report(report, reference_melnikov(rnf, kappa, 4, 12,
                                                          points_per_dim=5))

    def test_d0_alone_fails(self):
        # on the diagonal of the tied map k = (2, -1) has k . Omega = 0: D0
        # fails there while every D1-D3 value stays far above its threshold
        rnf = tied_rnf(1e-4)
        report = check_transversality(rnf, 3, 6, points_per_dim=3)
        assert report.branch_counts["derivative"] > 0
        assert_same_report(report, reference_transversality(rnf, 3, 6, points_per_dim=3))

    def test_violations_are_k_major(self):
        rnf = cached_rnf((1,), 1.3, 1e-2)
        ks = DivisorRange(rnf.A, 10, 40).ks
        report = check_transversality(rnf, 10, 40, points_per_dim=6)
        order = [(ks.index(v.k), v.rho) for v in report.violations]
        assert len({k for k, _ in order}) > 1 and len({r for _, r in order}) > 1
        assert order == sorted(order)


class TestScreens:
    @settings(max_examples=300, deadline=None)
    @given(d_offset=st.floats(-1e-3, 1e-3), lam_i=st.floats(0.5, 60.0),
           lam_j=st.floats(0.5, 60.0), sign=st.sampled_from([0.0, 1.0, -1.0]))
    def test_near_flags_every_exact_failure(self, d_offset, lam_i, lam_j, sign):
        # the exact test sums fl(fl(d + lam_i) +/- lam_j); the screen tests
        # |d + x| with x = fl(lam_i +/- lam_j).  Put the threshold one ulp
        # above the exact value: the cell fails, so it must be flagged.
        x = lam_i + sign * lam_j
        d = -x + d_offset
        exact = d + lam_i
        if sign:
            exact = exact + sign * lam_j
        required = np.nextafter(abs(exact), np.inf)
        assert kamcheck._near(np.array([d]), np.array([x]), np.array([required]))[0]

    @settings(max_examples=300, deadline=None)
    @given(dots=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
           x=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6),
           ties=st.booleans())
    def test_min_abs_sum_is_the_minimum(self, dots, x, ties):
        if ties:
            dots = dots + [-v for v in x] + dots
        ds, x = np.sort(np.array(dots)), np.array(x)
        brute = np.min(np.abs(ds[:, None] + x[None, :]), axis=0)
        assert np.array_equal(kamcheck._min_abs_sum(ds, x), brute)

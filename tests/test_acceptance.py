"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py -v` to see them live).

The frequency-shift experiments (criteria 10 and 11) share three long
integrations behind a module-scoped fixture; everything else is fast.
"""

import itertools
import time

import numpy as np
import pytest

from wavekam.birkhoff import (
    frequency_matrix,
    rescale,
    solve_homological,
    verify_zminus_vanishing,
    z4_action_coefficient_table,
)
from wavekam.kamcheck import melnikov_scan
from wavekam.polyham import (
    PolyHamiltonian,
    bracket_with_h2,
    build_h2,
    build_p4,
    mono,
    poisson_bracket,
    radial_scaling_fit,
)
from wavekam.simulate import SimConfig, extract_frequencies, integrate_batch
from wavekam.smalldiv import scan_lower_bounds
from wavekam.spectrum import (
    AdmissibleSet,
    FrequencySystem,
    vandermonde_closed_form,
    vandermonde_determinant,
    vandermonde_scale,
)
from test_birkhoff import det_m_closed_form


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------

SHIFT_MASS = 1.3
SHIFT_NUS = (1e-3, 2e-3, 4e-3)


@pytest.fixture(scope="module")
def nf_main():
    """Criterion-1 normal form: A = {0, 1, 5}, m = 1.2337, cutoff 12."""
    fs = FrequencySystem(1.2337)
    A = AdmissibleSet([0, 1, 5])
    t0 = time.monotonic()
    p4 = build_p4(12, fs)
    nf = solve_homological(p4, fs, A)
    return nf, fs, A, p4, time.monotonic() - t0


@pytest.fixture(scope="module")
def shift_runs():
    """Three integrations at nu in {1e-3, 2e-3, 4e-3}: A = {1}, m = 1.3,
    cutoff 32, T = 2e3, dt = 5e-4, run as one batch; each run's time is
    that of the whole batch."""
    A = AdmissibleSet([1])
    cfgs = [SimConfig(cutoff=32, mass=SHIFT_MASS, A=A, actions={1: nu},
                      dt=5e-4, T=2000.0, nonlinearity_on=True, store_every=100)
            for nu in SHIFT_NUS]
    t0 = time.monotonic()
    trajs = integrate_batch(cfgs)
    elapsed = time.monotonic() - t0
    return {nu: (traj, elapsed) for nu, traj in zip(SHIFT_NUS, trajs)}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_c01_homological_identity(nf_main):
    nf, fs, A, p4, elapsed = nf_main
    ok = nf.residual_norm <= 1e-10 and elapsed < 30.0
    report(1, ok, f"residual {nf.residual_norm:.2e} (<= 1e-10), "
                  f"built in {elapsed:.1f}s (< 30s)")


def test_c02_resonant_part_vanishes_on_admissible_sets():
    t0 = time.monotonic()
    sets = [[0, 1, 5], [1, 2], [0, 3, 7], [-2, 1, 4], [2, 5, 11]]
    all_empty = True
    for modes in sets:
        fs = FrequencySystem(1.41)
        nf = solve_homological(build_p4(12, fs), fs, AdmissibleSet(modes))
        rep = verify_zminus_vanishing(nf, AdmissibleSet(modes))
        all_empty &= rep.all_empty and set(rep.counts) >= {2, 3, 4}
    elapsed = time.monotonic() - t0
    ok = all_empty and elapsed < 60.0
    report(2, ok, f"non-action classes r in {{2,3,4}} empty for {len(sets)} "
                  f"admissible sets at cutoff 12 in {elapsed:.1f}s (< 60s)")


def test_c02_nonadmissible_set_shows_nonempty_class():
    # As stated, the opposite-pair set {1, -1} must produce a NON-empty class.
    # The enumeration below is faithful (all resonant 2-2 monomials at cutoff
    # 12, partitioned by tangential count); the assertion fails because the
    # zero-momentum + equal-|.|-multiset constraints force every such monomial
    # to be an action product for ANY index set -- admissible or not -- so no
    # non-action survivor can exist.  Kept red deliberately; see the
    # enumeration counts in the failure message.
    fs = FrequencySystem(1.41)
    nf = solve_homological(build_p4(12, fs), fs, [1, -1])
    rep = verify_zminus_vanishing(nf, [1, -1])
    ok = not rep.all_empty
    report(2, ok, f"non-admissible {{1,-1}} expected a non-empty non-action "
                  f"class; enumeration found counts {rep.counts} "
                  f"(total, action, non-action) with no survivors")


def test_c03_z4_plus_coefficients(nf_main):
    nf, fs, A, *_ = nf_main
    table = z4_action_coefficient_table(nf, A)
    worst = max(abs(actual - predicted) / abs(predicted)
                for actual, predicted in table.values())
    ok = worst <= 1e-12
    report(3, ok, f"I_l I_k coefficients match (3/4pi)(4-3delta)/(lam lam), "
                  f"worst rel err {worst:.2e} (<= 1e-12)")


def test_c04_frequency_matrix_determinant():
    worst = 0.0
    fs = FrequencySystem(1.618)
    for modes in ([2], [0, 1], [0, 1, 2], [0, 1, 3, 5]):
        A = AdmissibleSet(modes)
        direct = float(np.linalg.det(frequency_matrix(fs, A)))
        closed = det_m_closed_form(fs, A)
        worst = max(worst, abs(direct - closed) / abs(closed))
    ok = worst <= 1e-10
    report(4, ok, f"det M matches (3/2pi)^n prod(lam^-2)(4n-3)(-3)^(n-1) for "
                  f"n=1..4, worst rel err {worst:.2e} (<= 1e-10)")


def test_c05_d3_zero_k_lower_bound():
    t0 = time.monotonic()
    violations = 0
    a = np.arange(1, 501)
    for m in (1.0, 1.5, 2.0):
        lam = np.sqrt(a * a + m)
        diff = lam[:, None] - lam[None, :]          # lambda_a - lambda_b
        gap = 1.0 + np.abs(a[:, None] - a[None, :])
        mask = a[:, None] > a[None, :]              # 0 < |b| < |a|
        violations += int(np.sum(mask & (np.abs(diff) < gap / 8.0)))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    report(5, ok, f"|lam_a - lam_b| >= (1/8)(1 + ||a|-|b||) over 0<|b|<|a|<=500, "
                  f"{violations} violations in {elapsed:.1f}s (< 10s)")


def test_c06_lambda_asymptotics():
    s = np.arange(1, 1001)
    violations = 0
    for m in np.linspace(1.0, 2.0, 101):
        gap = np.sqrt(s * s + m) - s
        violations += int(np.sum((gap <= 0) | (gap > m / (2 * s))))
    ok = violations == 0
    report(6, ok, f"0 < lambda_s - |s| <= m/(2|s|) on 1 <= |s| <= 1e3, "
                  f"101-point mass grid, {violations} violations")


def test_c07_vandermonde_closed_form_exhaustive():
    indices = range(-8, 9)
    worst = 0.0
    count = 0
    degenerate_ok = True
    for p in (1, 2, 3, 4):
        for subset in itertools.combinations(indices, p):
            for m in (1.0, 1.5, 2.0):
                direct = vandermonde_determinant(subset, m)
                closed = vandermonde_closed_form(subset, m)
                count += 1
                floor = 1e-12 * vandermonde_scale(subset, m)
                if abs(closed) > floor:
                    worst = max(worst, abs(direct - closed) / abs(closed))
                else:
                    # subsets with an opposite pair vanish identically; the
                    # direct evaluation must be rounding-level noise
                    degenerate_ok &= abs(direct) <= floor
    ok = worst <= 1e-10 and degenerate_ok
    report(7, ok, f"direct determinant vs closed form over {count} "
                  f"(subset, mass) cases, worst rel err {worst:.2e} "
                  f"(<= 1e-10), degenerate cases at rounding level: "
                  f"{degenerate_ok}")


def _random_poly(cutoff, degree, rng, n_terms=7, real_symmetric=True):
    modes = list(range(-cutoff, cutoff + 1))
    terms = {}
    while len(terms) < n_terms:
        nxi = rng.integers(0, degree + 1)
        xi = sorted(rng.choice(modes, size=nxi))
        eta = sorted(rng.choice(modes, size=degree - nxi))
        if sum(xi) != sum(eta):
            continue
        terms[mono(xi, eta)] = complex(rng.standard_normal(),
                                       rng.standard_normal())
    if real_symmetric:
        keys = set(terms) | {k.conjugate() for k in terms}
        terms = {k: 0.5 * (terms.get(k, 0j)
                           + terms.get(k.conjugate(), 0j).conjugate())
                 for k in keys}
    return PolyHamiltonian(cutoff, terms)


def test_c08_poisson_algebra_properties():
    rng = np.random.default_rng(2024)
    worst_jacobi = 0.0
    structure_ok = True
    for _ in range(100):
        f = _random_poly(6, rng.choice([3, 4]), rng)
        g = _random_poly(6, rng.choice([3, 4]), rng)
        h = _random_poly(6, rng.choice([3, 4]), rng)
        jac = (poisson_bracket(poisson_bracket(f, g), h)
               + poisson_bracket(poisson_bracket(g, h), f)
               + poisson_bracket(poisson_bracket(h, f), g))
        scale = max(f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff(), 1.0)
        worst_jacobi = max(worst_jacobi, jac.max_abs_coeff() / scale)
        fg = poisson_bracket(f, g)
        structure_ok &= fg.conserves_momentum()
        structure_ok &= fg.is_real_hamiltonian(tol=1e-12)
    ok = worst_jacobi <= 1e-12 and structure_ok
    report(8, ok, f"Jacobi identity and reality/momentum preservation on 100 "
                  f"triples at cutoff 6, worst defect {worst_jacobi:.2e} (<= 1e-12)")


def test_c09_diagonal_h2_bracket_rule():
    rng = np.random.default_rng(77)
    fs = FrequencySystem(1.456)
    h2 = build_h2(6, fs)
    worst = 0.0
    for _ in range(100):
        f = _random_poly(6, 4, rng, real_symmetric=False)
        diff = bracket_with_h2(f, fs).max_coeff_diff(poisson_bracket(h2, f))
        worst = max(worst, diff / max(f.max_abs_coeff(), 1.0))
    ok = worst <= 1e-12
    report(9, ok, f"diagonal rule equals generic bracket with H2 on 100 random "
                  f"quartics, worst rel defect {worst:.2e} (<= 1e-12)")


@pytest.mark.slow
def test_c10_frequency_shift_law(shift_runs):
    A = AdmissibleSet([1])
    fs = FrequencySystem(SHIFT_MASS)
    # mass pre-check: non-resonant at kappa = 1e-6, N = 10
    assert not scan_lower_bounds(fs, A, 1e-6, 10, 40), "mass 1.3 not generic"
    M = frequency_matrix(fs, A)
    omega = float(fs.lam(1))
    gaps = []
    within = True
    runtime_ok = True
    for nu in SHIFT_NUS:
        traj, elapsed = shift_runs[nu]
        runtime_ok &= elapsed < 600.0
        extracted = extract_frequencies(traj, A)[1]
        predicted = omega + float(M[0, 0]) * nu
        gap = abs(extracted - predicted)
        gaps.append(gap)
        within &= gap <= 10.0 * nu ** 1.5
    slope = float(np.polyfit(np.log(SHIFT_NUS), np.log(gaps), 1)[0])
    ok = within and slope >= 1.3 and runtime_ok
    report(10, ok, f"|omega' - omega - M I| = {['%.2e' % g for g in gaps]} vs "
                   f"10 nu^1.5 = {['%.2e' % (10 * n ** 1.5) for n in SHIFT_NUS]}, "
                   f"fitted gap exponent {slope:.2f} (>= 1.3)")


@pytest.mark.slow
def test_c11_energy_and_reality_conservation(shift_runs):
    traj, _ = shift_runs[1e-3]
    keep = traj.times <= 1000.0
    energy = traj.energy[keep]
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    reality = float(np.max(np.abs(traj.eta[keep] - traj.xi[keep].conj())))
    ok = drift <= 1e-6 and reality <= 1e-9
    report(11, ok, f"relative energy drift {drift:.2e} (<= 1e-6), reality "
                   f"defect {reality:.2e} (<= 1e-9) over T = 1e3")


def test_c12_melnikov_scan_sanity():
    t0 = time.monotonic()
    fs = FrequencySystem(1.31)
    A = AdmissibleSet([1])
    rnf = rescale(fs, A, 1e-4)
    base = melnikov_scan(rnf, kappa=1e-6, N=10, S=40, points_per_dim=200)
    harder_kappa = melnikov_scan(rnf, kappa=1e-5, N=10, S=40, points_per_dim=200)
    harder_n = melnikov_scan(rnf, kappa=1e-6, N=20, S=40, points_per_dim=200)
    elapsed = time.monotonic() - t0
    ok = (base.accepted_fraction >= 0.99
          and harder_kappa.accepted_fraction <= base.accepted_fraction
          and harder_n.accepted_fraction <= base.accepted_fraction
          and elapsed < 120.0)
    report(12, ok, f"accepted fraction {base.accepted_fraction:.4f} (>= 0.99), "
                   f"kappa x10 -> {harder_kappa.accepted_fraction:.4f}, "
                   f"N x2 -> {harder_n.accepted_fraction:.4f}, "
                   f"in {elapsed:.1f}s (< 2min)")


def test_c13_radial_scaling_exponents():
    fs = FrequencySystem(1.3)
    p4 = build_p4(8, fs).total
    fit_g = radial_scaling_fit(p4, "gradient", [0.1, 0.2, 0.4], alpha=1.0)
    fit_h = radial_scaling_fit(p4, "hessian", [0.1, 0.2, 0.4], beta=0.5)
    ok = abs(fit_g.exponent - 3.0) <= 0.05 and abs(fit_h.exponent - 2.0) <= 0.05
    report(13, ok, f"gradient norm ~ r^{fit_g.exponent:.4f} (3 +/- 0.05), "
                   f"Hessian 1/2-norm ~ r^{fit_h.exponent:.4f} (2 +/- 0.05)")

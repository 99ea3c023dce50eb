import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekam.intervals import Interval, interval_frequency
from wavekam.smalldiv import (
    DivisorQuery,
    classify_resonant,
    divisor_weight,
    evaluate_divisor,
    evaluate_divisor_interval,
    excluded_mass_scan,
    excluded_mass_sweep,
    scan_lower_bounds,
)
from wavekam.spectrum import AdmissibleSet, FrequencySystem


def k_range(n, N):
    """Integer vectors with 0 < |k|_1 <= N, in lexicographic order."""
    return [k for k in itertools.product(range(-N, N + 1), repeat=n)
            if 0 < sum(abs(x) for x in k) <= N]


def query_range(A, N, S):
    """Every query a scan over (N, S) covers, in scan order, from plain loops:
    0 < |k|_1 <= N for each kind, plus D3 at k = 0 with |a| != |b|."""
    normals = [s for s in range(-S, S + 1) if s not in A.modes]
    ks = k_range(A.n, N)
    for k in ks:
        yield DivisorQuery("D0", k)
    for k in ks:
        for a in normals:
            yield DivisorQuery("D1", k, a=a)
    for k in ks:
        for a in normals:
            for b in normals:
                yield DivisorQuery("D2", k, a=a, b=b)
    for k in ks + [(0,) * A.n]:
        for a in normals:
            for b in normals:
                if any(k) or abs(a) != abs(b):
                    yield DivisorQuery("D3", k, a=a, b=b)


def brute_resonant(modes, kind, k, a, b):
    """Independent resonance rule: plain loops over the index patterns."""
    modes = tuple(sorted(modes))

    def unit(s):
        e = [0] * len(modes)
        e[modes.index(s)] = 1
        return tuple(e)

    if kind == "D0":
        return not any(k)
    if kind == "D1":
        return any(abs(a) == abs(s) and k == tuple(-x for x in unit(s))
                   for s in modes)
    if kind == "D2":
        return any(
            sorted((abs(a), abs(b))) == sorted((abs(s), abs(sp)))
            and k == tuple(-u - v for u, v in zip(unit(s), unit(sp)))
            for s in modes for sp in modes)
    return any(
        abs(a) == abs(s) and abs(b) == abs(sp)
        and k == tuple(-u + v for u, v in zip(unit(s), unit(sp)))
        for s in modes for sp in modes)


def brute_force_violations(modes, m, kappa, N, S):
    """Independent enumerator: plain loops, no shared helpers."""
    modes = tuple(sorted(modes))
    n = len(modes)
    lam = lambda s: math.sqrt(s * s + m)
    omega = [lam(a) for a in modes]
    normals = [s for s in range(-S, S + 1) if s not in modes]

    out = set()
    for k in k_range(n, N):
        dot = sum(ki * wi for ki, wi in zip(k, omega))
        if abs(dot) < kappa:
            out.add(("D0", k, None, None))
        for a in normals:
            if not brute_resonant(modes, "D1", k, a, None) and abs(
                    dot + lam(a)) < kappa * max(abs(a), 1):
                out.add(("D1", k, a, None))
            for b in normals:
                if not brute_resonant(modes, "D2", k, a, b) and abs(
                        dot + lam(a) + lam(b)) < kappa * (
                        max(abs(a), 1) + max(abs(b), 1)):
                    out.add(("D2", k, a, b))
                if not brute_resonant(modes, "D3", k, a, b) and abs(
                        dot + lam(a) - lam(b)) < kappa * (
                        1 + abs(abs(a) - abs(b))):
                    out.add(("D3", k, a, b))
    zero = tuple([0] * n)
    for a in normals:
        for b in normals:
            if abs(a) != abs(b) and abs(lam(a) - lam(b)) < kappa * (
                    1 + abs(abs(a) - abs(b))):
                out.add(("D3", zero, a, b))
    return out


class TestQueriesAndEvaluation:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            DivisorQuery("D0", (1,), a=2)
        with pytest.raises(ValueError):
            DivisorQuery("D2", (1,), a=2)
        with pytest.raises(ValueError):
            DivisorQuery("D5", (1,))

    def test_zero_vector_d0(self):
        A = AdmissibleSet([0, 1])
        fs = FrequencySystem(1.4)
        assert evaluate_divisor(DivisorQuery("D0", (0, 0)), fs, A) == 0.0

    def test_d3_direct_value(self):
        A = AdmissibleSet([1])
        fs = FrequencySystem(1.0)
        q = DivisorQuery("D3", (0,), a=5, b=3)
        expected = math.sqrt(26) - math.sqrt(10)
        assert evaluate_divisor(q, fs, A) == pytest.approx(expected, rel=1e-14)

    def test_d2_resonant_configuration_cancels(self):
        # k = -e_s - e_s', a = -s, b = -s' cancels identically in the mass
        A = AdmissibleSet([1, 2])
        q = DivisorQuery("D2", (-1, -1), a=-1, b=-2)
        assert classify_resonant(q, A)
        for m in np.linspace(1, 2, 101):
            fs = FrequencySystem(float(m))
            assert abs(evaluate_divisor(q, fs, A)) < 1e-12

    def test_tangential_a_rejected(self):
        A = AdmissibleSet([1, 2])
        fs = FrequencySystem(1.0)
        with pytest.raises(ValueError):
            evaluate_divisor(DivisorQuery("D1", (1, 0), a=2), fs, A)

    def test_weights(self):
        assert divisor_weight(DivisorQuery("D0", (1,))) == 1.0
        assert divisor_weight(DivisorQuery("D1", (1,), a=-4)) == 4.0
        assert divisor_weight(DivisorQuery("D1", (1,), a=0)) == 1.0
        assert divisor_weight(DivisorQuery("D2", (1,), a=-4, b=0)) == 5.0
        assert divisor_weight(DivisorQuery("D3", (1,), a=-7, b=3)) == 5.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-2, 2),
           st.floats(1.0, 2.0))
    def test_d3_oddness(self, a, b, k1, m):
        A = AdmissibleSet([1, 2])
        if a in A.modes or b in A.modes:
            return
        fs = FrequencySystem(m)
        q1 = DivisorQuery("D3", (k1, 0), a=a, b=b)
        q2 = DivisorQuery("D3", (-k1, 0), a=b, b=a)
        assert evaluate_divisor(q2, fs, A) == pytest.approx(
            -evaluate_divisor(q1, fs, A), abs=1e-14)


class TestResonanceClassification:
    def test_d1_examples(self):
        A = AdmissibleSet([1, 2])
        assert classify_resonant(DivisorQuery("D1", (-1, 0), a=-1), A)
        # D1 resonance requires a in the mirror set
        for q in query_range(A, 2, 6):
            if q.kind == "D1" and q.a == 5:
                assert not classify_resonant(q, A)

    def test_d3_pattern(self):
        A = AdmissibleSet([1, 2])
        q = DivisorQuery("D3", (-1, 1), a=-1, b=-2)
        assert classify_resonant(q, A)

    def test_resonant_values_vanish_identically(self):
        A = AdmissibleSet([0, 1, 3])
        masses = np.linspace(1, 2, 101)
        count = 0
        for q in query_range(A, 2, 5):
            if not classify_resonant(q, A):
                continue
            count += 1
            for m in masses:
                fs = FrequencySystem(float(m))
                assert abs(evaluate_divisor(q, fs, A)) < 1e-12
        assert count > 0

    def test_d0_zero_only(self):
        A = AdmissibleSet([0, 1])
        assert classify_resonant(DivisorQuery("D0", (0, 0)), A)
        assert not classify_resonant(DivisorQuery("D0", (1, -1)), A)


class TestScans:
    def test_matches_brute_force(self):
        for modes, m, kappa, N, S in [
            ([0], 1.5123, 1e-3, 3, 8),
            ([1, 2], 1.3321, 5e-3, 2, 6),
            ([0, 3], 1.7717, 1e-2, 2, 5),
        ]:
            A = AdmissibleSet(modes)
            fs = FrequencySystem(m)
            got = {(r.query.kind, r.query.k, r.query.a, r.query.b)
                   for r in scan_lower_bounds(fs, A, kappa, N, S)}
            assert got == brute_force_violations(modes, m, kappa, N, S)

    def test_empty_at_generic_mass(self):
        A = AdmissibleSet([0])
        found = None
        for m in np.linspace(1.05, 1.95, 19):
            fs = FrequencySystem(float(m))
            if not scan_lower_bounds(fs, A, 1e-6, 3, 10):
                found = float(m)
                break
        assert found is not None

    def test_d3_k0_never_violated_below_eighth(self):
        A = AdmissibleSet([2])
        for m in (1.0, 1.5, 2.0):
            fs = FrequencySystem(m)
            reports = scan_lower_bounds(fs, A, 1.0 / 8.0, 1, 30)
            zero = (0,)
            assert not [r for r in reports if r.query.k == zero]

    def test_huge_kappa_floods_violations(self):
        A = AdmissibleSet([1])
        fs = FrequencySystem(1.5)
        reports = scan_lower_bounds(fs, A, 10.0, 2, 6)
        # nearly every non-resonant query fails an unreachable bound
        assert len(reports) > 100

    def test_validation(self):
        A = AdmissibleSet([1])
        fs = FrequencySystem(1.5)
        with pytest.raises(ValueError):
            scan_lower_bounds(fs, A, -1.0, 2)
        with pytest.raises(ValueError):
            scan_lower_bounds(fs, A, 1e-6, 0)
        for kappa in (math.nan, math.inf):
            with pytest.raises(ValueError):
                scan_lower_bounds(fs, A, kappa, 2)

    def test_certify_mode_sound(self):
        A = AdmissibleSet([1])
        fs = FrequencySystem(1.5)
        reports = scan_lower_bounds(fs, A, 10.0, 1, 4, certify=True)
        for r in reports[:20]:
            iv = evaluate_divisor_interval(r.query, fs.mass, A)
            assert iv.lo <= r.value <= iv.hi
            assert r.certified == (iv.abs_upper() < r.bound_required)


def reference_scan(A, fs, kappa, N, S):
    """The per-query scan: one DivisorQuery, one resonance test and one
    evaluate_divisor call per query, with each violation re-checked in
    interval arithmetic."""
    rows = []
    for q in query_range(A, N, S):
        if brute_resonant(A.modes, q.kind, q.k, q.a, q.b):
            continue
        value = evaluate_divisor(q, fs, A)
        required = kappa * divisor_weight(q)
        if abs(value) < required:
            iv = evaluate_divisor_interval(q, fs.mass, A)
            rows.append((q, value.hex(), required.hex(), iv.abs_upper() < required))
    return rows


def reference_excluded(A, kappa, N, S, grid):
    """The per-query excluded-mass grid: one grid vector per query."""
    masses = np.linspace(1.0, 2.0, grid)
    omega_grid = np.stack([np.sqrt(a * a + masses) for a in A.modes])
    lam = lambda s: np.sqrt(s * s + masses)
    excluded = np.zeros(grid, dtype=bool)
    for q in query_range(A, N, S):
        if brute_resonant(A.modes, q.kind, q.k, q.a, q.b):
            continue
        value = np.tensordot(np.array(q.k, dtype=float), omega_grid, axes=1)
        if q.kind != "D0":
            value = value + lam(q.a)
        if q.kind == "D2":
            value = value + lam(q.b)
        elif q.kind == "D3":
            value = value - lam(q.b)
        excluded |= np.abs(value) < kappa * divisor_weight(q)
    return excluded


@st.composite
def scan_cases(draw):
    modes = draw(st.sets(st.integers(-4, 4), min_size=1, max_size=3).filter(
        lambda m: all(-j not in m for j in m if j != 0)))
    A = AdmissibleSet(modes)
    return (A, draw(st.floats(1.0, 2.0)), 10.0 ** draw(st.floats(-4.0, 0.0)),
            draw(st.integers(1, 3)), draw(st.integers(A.n_bound, 8)))


@st.composite
def sweep_cases(draw):
    """A sweep with unsorted kappa and N lists that both hold duplicates; one
    kappa in [0.02, 0.2] makes the hits dense."""
    modes = draw(st.sets(st.integers(-4, 4), min_size=1, max_size=3).filter(
        lambda m: all(-j not in m for j in m if j != 0)))
    kappas = [draw(st.floats(0.02, 0.2)), *draw(st.lists(
        st.floats(-7.0, math.log10(0.2)).map(lambda e: 10.0 ** e), max_size=2))]
    kappas = draw(st.permutations(kappas + draw(st.lists(st.sampled_from(kappas),
                                                         min_size=1, max_size=2))))
    Ns = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    Ns = draw(st.permutations(Ns + draw(st.lists(st.sampled_from(Ns), min_size=1,
                                                 max_size=2))))
    return AdmissibleSet(modes), kappas, Ns, draw(st.integers(0, 6))


class TestScanMatchesPerQueryReference:
    @settings(max_examples=25, deadline=None)
    @given(scan_cases())
    def test_scan_lower_bounds_bitwise(self, case):
        A, m, kappa, N, S = case
        fs = FrequencySystem(m)
        reports = scan_lower_bounds(fs, A, kappa, N, S, certify=True)
        assert all(not r.resonant and not r.satisfied for r in reports)
        got = [(r.query, r.value.hex(), r.bound_required.hex(), r.certified)
               for r in reports]
        assert got == reference_scan(A, fs, kappa, N, S)

    @settings(max_examples=15, deadline=None)
    @given(scan_cases())
    def test_excluded_mass_scan_matches_grid(self, case):
        A, _, kappa, N, S = case
        grid = 301
        excluded = reference_excluded(A, kappa, N, S, grid)
        est = excluded_mass_scan(A, kappa, N, S, grid=grid)
        assert est.sampled_measure == float(np.mean(excluded))

    @settings(max_examples=15, deadline=None)
    @given(sweep_cases())
    def test_excluded_mass_sweep_matches_grid_and_scan(self, case):
        A, kappas, Ns, S = case
        grid = 201
        cells = excluded_mass_sweep(A, kappas, Ns, S, grid=grid)
        assert len(cells) == len(kappas) * len(Ns)
        reference = {}
        for est, (kappa, N) in zip(cells, itertools.product(kappas, Ns)):
            if (kappa, N) not in reference:
                reference[kappa, N] = reference_excluded(A, kappa, N, S, grid)
            excluded = reference[kappa, N]
            assert est.sampled_measure == float(np.mean(excluded))
            assert est == excluded_mass_scan(A, kappa, N, S, grid=grid)

    def test_excluded_mass_scan_counts_d3_at_k0(self):
        # A = {1}, S = N = 1: at these kappa only D3 at k = 0 excludes masses,
        # where lambda_1 - lambda_0 < 2 kappa
        A = AdmissibleSet([1])
        for kappa in (0.16, 0.18):
            excluded = reference_excluded(A, kappa, 1, 1, 301)
            assert excluded.any()
            est = excluded_mass_scan(A, kappa, 1, 1, grid=301)
            assert est.sampled_measure == float(np.mean(excluded))


class TestExcludedMassScan:
    def test_small_kappa_small_fraction(self):
        A = AdmissibleSet([1])
        est = excluded_mass_scan(A, kappa=1e-8, N=2, S=6, grid=10 ** 4)
        assert est.sampled_measure < 0.01

    def test_monotone_in_kappa_and_n(self):
        A = AdmissibleSet([1])
        fractions = [excluded_mass_scan(A, kappa, 2, 6, grid=4000).sampled_measure
                     for kappa in (1e-8, 1e-4, 1e-2)]
        assert fractions == sorted(fractions)
        by_n = [excluded_mass_scan(A, 1e-3, N, 6, grid=4000).sampled_measure
                for N in (1, 2, 3)]
        assert by_n == sorted(by_n)

    @pytest.mark.parametrize("kappa, N, S, grid, message", [
        (math.nan, 2, 6, 100, "kappa must be positive"),
        (math.inf, 2, 6, 100, "kappa must be positive and finite"),
        (0.0, 2, 6, 100, "kappa must be positive"),
        (-1e-3, 2, 6, 100, "kappa must be positive"),
        (1e-3, 0, 6, 100, "N must be >= 1"),
        (1e-3, 2, 6, 0, "grid must be >= 1"),
        (1e-3, 2, -1, 100, "S must be >= 0"),
        pytest.param([], [2], 6, 100, "need at least one kappa and one N", id="no-kappa"),
        pytest.param([1e-3], [], 6, 100, "need at least one kappa and one N", id="no-N"),
        pytest.param([1e-3, 1e-2, math.nan], [2], 6, 100, "kappa must be positive",
                     id="third-kappa-nan"),
        pytest.param([1e-3, -1e-2], [1, 2], 6, 100, "kappa must be positive",
                     id="second-kappa-negative"),
        pytest.param([1e-3], [1, 2, 0], 6, 100, "N must be >= 1", id="third-N-0"),
        pytest.param([1e-3, 1e-2], [1, 2], 6, 0, "grid must be >= 1", id="sweep-grid-0"),
        pytest.param([1e-3, 1e-2], [1, 2], -1, 100, "S must be >= 0", id="sweep-S-negative"),
    ])
    def test_validation(self, monkeypatch, kappa, N, S, grid, message):
        # a scalar kappa and N check the scan and the one-cell sweep, lists the sweep
        def refuse(*args):
            raise AssertionError("a divisor table was built before the inputs were checked")

        monkeypatch.setattr("wavekam.smalldiv.DivisorRange", refuse)
        A = AdmissibleSet([5])
        if not isinstance(kappa, list):
            with pytest.raises(ValueError, match=message):
                excluded_mass_scan(A, kappa, N, S, grid=grid)
            kappa, N = [kappa], [N]
        with pytest.raises(ValueError, match=message):
            excluded_mass_sweep(A, kappa, N, S, grid=grid)

    def test_metadata_exponents(self):
        A = AdmissibleSet([0, 2])
        est = excluded_mass_scan(A, 1e-4, 2, 6, grid=2000)
        n = 2
        assert est.parameters["tau_d3"] == pytest.approx(1.0 / (2 * (n + 2)))
        assert est.parameters["iota_d1_d2"] == pytest.approx(
            (n + 1) * (2 * n + 3) + 1.0 / (n + 1))
        assert est.parameters["C_A"] == 2


class TestIntervals:
    def test_sqrt_enclosure(self):
        iv = interval_frequency(3, 1.3)
        val = math.sqrt(9 + 1.3)
        assert iv.lo <= val <= iv.hi
        assert iv.hi - iv.lo < 1e-14

    def test_arithmetic_soundness(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y = rng.uniform(-5, 5, 2)
            ix, iy = Interval.point(x), Interval.point(y)
            assert (x + y) in (ix + iy)
            assert (x - y) in (ix - iy)
            assert (x * y) in (ix * iy)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

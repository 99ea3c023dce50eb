import itertools
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekam import polyham
from wavekam.polyham import (
    Monomial,
    NormParams,
    PhasePoint,
    PolyHamiltonian,
    bracket_with_h2,
    build_h2,
    build_interaction,
    build_p4,
    gradient,
    hessian,
    lie_transform,
    mono,
    poisson_bracket,
    radial_scaling_fit,
    solve_h2_bracket,
    weighted_norm,
)
from wavekam.spectrum import FrequencySystem


def quartic_expansion_oracle(cutoff, m):
    """Brute-force expansion of the integral of u^4, independent of build_p4:
    multiply out (sum_s A_s e^{isx})^4 symbolically with A_s = (xi_s +
    eta_{-s})/sqrt(2 lambda_s) and keep the zero-frequency coefficient."""
    lam = {s: math.sqrt(s * s + m) for s in range(-cutoff, cutoff + 1)}
    # A_s as a linear form: dict {('xi', s) or ('eta', -s): coeff}
    forms = {}
    for s in range(-cutoff, cutoff + 1):
        forms[s] = {("xi", s): 1 / math.sqrt(2 * lam[s]),
                    ("eta", -s): 1 / math.sqrt(2 * lam[s])}
    acc = defaultdict(float)
    rng = range(-cutoff, cutoff + 1)
    for quad in itertools.product(rng, repeat=4):
        if sum(quad) != 0:
            continue
        for picks in itertools.product(*(forms[s].items() for s in quad)):
            coeff = 1.0 / (2 * math.pi)
            xi, eta = [], []
            for (kind, idx), c in picks:
                coeff *= c
                (xi if kind == "xi" else eta).append(idx)
            acc[(tuple(sorted(xi)), tuple(sorted(eta)))] += coeff
    return {k: v for k, v in acc.items() if abs(v) > 1e-18}


# ---------------------------------------------------------------------------
# Term-by-term references for the array kernels
# ---------------------------------------------------------------------------

def _remove_one(t, value):
    i = t.index(value)
    return t[:i] + t[i + 1:]


def _merge(t1, t2):
    return tuple(sorted(t1 + t2))


def reference_bracket(f, g, max_degree=None):
    """{f, g} by a loop over term pairs, accumulated into a dict."""
    assert f.cutoff == g.cutoff
    acc = defaultdict(complex)
    g_terms = list(g)
    for m1, c1 in f:
        d1 = m1.degree
        eta1 = Counter(m1.eta)
        xi1 = Counter(m1.xi)
        for m2, c2 in g_terms:
            if max_degree is not None and d1 + m2.degree - 2 > max_degree:
                continue
            base = 1j * c1 * c2
            for j, e2 in Counter(m2.xi).items():
                e1 = eta1.get(j)
                if e1:
                    key = Monomial(_merge(m1.xi, _remove_one(m2.xi, j)),
                                   _merge(_remove_one(m1.eta, j), m2.eta))
                    acc[key] += base * e1 * e2
            for j, e2 in Counter(m2.eta).items():
                e1 = xi1.get(j)
                if e1:
                    key = Monomial(_merge(_remove_one(m1.xi, j), m2.xi),
                                   _merge(m1.eta, _remove_one(m2.eta, j)))
                    acc[key] -= base * e1 * e2
    return PolyHamiltonian(f.cutoff, acc)


def reference_p4(cutoff, fs):
    """The quartic interaction by nested loops over ordered zero-momentum
    quadruples and the 16 expansion terms, accumulated into a dict."""
    lam = {s: float(fs.lam(s)) for s in range(-cutoff, cutoff + 1)}
    acc = defaultdict(complex)
    rng = range(-cutoff, cutoff + 1)
    masks = [[(t, (m >> t) & 1) for t in range(4)] for m in range(16)]
    for i in rng:
        for j in rng:
            for k in rng:
                l = -(i + j + k)
                if abs(l) > cutoff:
                    continue
                quad = (i, j, k, l)
                base = 1.0 / (8.0 * math.pi * math.sqrt(
                    lam[i] * lam[j] * lam[k] * lam[l]))
                for mask in masks:
                    xi_part, eta_part = [], []
                    for t, pick_xi in mask:
                        if pick_xi:
                            xi_part.append(quad[t])
                        else:
                            eta_part.append(-quad[t])
                    acc[mono(xi_part, eta_part)] += base
    return PolyHamiltonian(cutoff, acc)


def bitwise(poly):
    """Terms in insertion order with the bits of each coefficient."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in poly]


def assert_bitwise_equal(got, expected):
    assert got.cutoff == expected.cutoff
    assert bitwise(got) == bitwise(expected)


COEFFS = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, complex(-0.0, 2.5), complex(-3.0, -0.0)]),
)


@st.composite
def polynomials(draw, cutoff, max_terms=8):
    """Terms of degree 0-6 with any indices (non-zero momentum included)."""
    index = st.integers(-cutoff, cutoff)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.integers(0, 6))
        n_xi = draw(st.integers(0, degree))
        xi = draw(st.lists(index, min_size=n_xi, max_size=n_xi))
        eta = draw(st.lists(index, min_size=degree - n_xi, max_size=degree - n_xi))
        terms[mono(xi, eta)] = draw(COEFFS)
    return PolyHamiltonian(cutoff, terms)


def random_poly(cutoff, degree, rng, n_terms=10, real_symmetric=False,
                zero_momentum=False):
    terms = {}
    modes = list(range(-cutoff, cutoff + 1))
    while len(terms) < n_terms:
        nxi = rng.integers(0, degree + 1)
        xi = sorted(rng.choice(modes, size=nxi))
        eta = sorted(rng.choice(modes, size=degree - nxi))
        if zero_momentum and sum(xi) != sum(eta):
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        key = mono(xi, eta)
        terms[key] = terms.get(key, 0j) + c
    if real_symmetric:
        keys = set(terms) | {k.conjugate() for k in terms}
        terms = {k: 0.5 * (terms.get(k, 0j)
                           + terms.get(k.conjugate(), 0j).conjugate())
                 for k in keys}
    return PolyHamiltonian(cutoff, terms)


class TestMonomials:
    def test_canonical_properties(self):
        m = mono([3, 1, 1], [0, 2])
        assert m.xi == (1, 1, 3)
        assert m.degree == 5
        assert m.momentum == 5 - 2

    def test_conjugate(self):
        m = mono([1], [0, 2])
        assert m.conjugate() == mono([0, 2], [1])


class TestBuildH2:
    def test_cutoff_zero(self):
        fs = FrequencySystem(1.0)
        h2 = build_h2(0, fs)
        assert len(h2) == 1
        assert h2.coeff(mono([0], [0])) == pytest.approx(1.0)

    def test_cutoff_two_coefficients(self):
        fs = FrequencySystem(1.0)
        h2 = build_h2(2, fs)
        got = sorted(c.real for _, c in h2)
        expected = sorted([1.0, math.sqrt(2), math.sqrt(2),
                           math.sqrt(5), math.sqrt(5)])
        assert got == pytest.approx(expected)
        assert h2.is_real_hamiltonian()


class TestBuildP4:
    def test_against_expansion_oracle(self):
        fs = FrequencySystem(1.0)
        p4 = build_p4(1, fs)
        oracle = quartic_expansion_oracle(1, 1.0)
        assert len(p4.total) == len(oracle)
        for (xi, eta), c in oracle.items():
            assert p4.total.coeff(Monomial(xi, eta)).real == pytest.approx(c, rel=1e-12)

    def test_known_coefficients(self):
        fs = FrequencySystem(1.0)
        p4 = build_p4(2, fs)
        assert p4.total.coeff(mono([0, 0, 0, 0], [])).real == pytest.approx(
            1.0 / (8 * math.pi), rel=1e-13)
        # collected coefficient carries ordered-tuple multiplicity 12
        assert p4.total.coeff(mono([-1, 1], [0, 0])).real == pytest.approx(
            3.0 / (2 * math.pi * math.sqrt(2)), rel=1e-13)

    def test_zero_momentum_and_reality(self):
        fs = FrequencySystem(1.7)
        p4 = build_p4(4, fs)
        assert p4.total.conserves_momentum()
        assert p4.total.is_real_hamiltonian()

    def test_class_weights_via_multiplicity(self):
        # distinct-index monomials: coefficient = multiplicity x class weight
        fs = FrequencySystem(1.0)
        p4 = build_p4(4, fs)
        lam = lambda s: math.sqrt(s * s + 1.0)

        def root(idxs):
            return math.sqrt(math.prod(lam(s) for s in idxs))

        # 2-2 type xi_i xi_j eta_k eta_l, all distinct: 4 ordered quadruples
        m22 = mono([0, 3], [1, 2])
        assert p4.total.coeff(m22).real == pytest.approx(
            4 * (3 / (4 * math.pi)) / root([0, 3, 1, 2]), rel=1e-12)
        # 3-1 type, distinct: 6 ordered quadruples at weight 1/(2 pi)
        m31 = mono([-1, 0, 2], [1])
        assert p4.total.coeff(m31).real == pytest.approx(
            6 * (1 / (2 * math.pi)) / root([-1, 0, 2, 1]), rel=1e-12)
        # 4-0 type, distinct: 24 ordered quadruples at weight 1/(8 pi)
        m40 = mono([-2, -1, 0, 3], [])
        assert p4.total.coeff(m40).real == pytest.approx(
            24 * (1 / (8 * math.pi)) / root([-2, -1, 0, 3]), rel=1e-12)


    @pytest.mark.parametrize("cutoff", range(9))
    def test_bitwise_equal_to_loop(self, cutoff):
        fs = FrequencySystem(1.2337)
        assert_bitwise_equal(build_p4(cutoff, fs).total, reference_p4(cutoff, fs))


class TestInteractionHook:
    def test_default_cubic_matches_p4(self):
        fs = FrequencySystem(1.4)
        p4 = build_p4(2, fs)
        general = build_interaction(2, fs, {3: {0: 4.0}})
        assert general.max_coeff_diff(p4.total) < 1e-14

    def test_x_dependent_coefficient_shifts_momentum(self):
        fs = FrequencySystem(1.4)
        poly = build_interaction(2, fs, {2: {1: 1.0}})
        momenta = {m.momentum for m, _ in poly}
        assert momenta == {-1}
        degrees = {m.degree for m, _ in poly}
        assert degrees == {3}


class TestPoissonBracket:
    def test_antisymmetry_self(self):
        rng = np.random.default_rng(0)
        f = random_poly(4, 4, rng)
        assert len(poisson_bracket(f, f)) == 0

    def test_single_derivative_chain(self):
        f = PolyHamiltonian(2, {mono([0], [0]): 1.0})
        g = PolyHamiltonian(2, {mono([0], []): 1.0})
        out = poisson_bracket(f, g)
        assert out.coeff(mono([0], [])) == pytest.approx(1j)

    def test_cutoff_mismatch(self):
        with pytest.raises(ValueError):
            poisson_bracket(PolyHamiltonian(2), PolyHamiltonian(3))

    def test_bracket_with_h2_balanced_term_vanishes(self):
        fs = FrequencySystem(1.0)
        f = PolyHamiltonian(1, {mono([0], [0]): 1.0})
        assert len(bracket_with_h2(f, fs)) == 0

    def test_bracket_with_h2_rule(self):
        fs = FrequencySystem(1.0)
        f = PolyHamiltonian(3, {mono([1, 2], [0, 3]): 2.0 + 1.0j})
        lam = lambda s: math.sqrt(s * s + 1.0)
        d = lam(1) + lam(2) - lam(3) - lam(0)
        out = bracket_with_h2(f, fs)
        assert out.coeff(mono([1, 2], [0, 3])) == pytest.approx(1j * d * (2 + 1j))

    def test_bracket_with_h2_matches_generic(self):
        fs = FrequencySystem(1.6)
        h2 = build_h2(5, fs)
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_poly(5, 4, rng)
            diff = bracket_with_h2(f, fs).max_coeff_diff(poisson_bracket(h2, f))
            assert diff <= 1e-12 * max(f.max_abs_coeff(), 1.0)

    def test_jacobi_identity_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_poly(4, 3, rng, n_terms=6)
            g = random_poly(4, 4, rng, n_terms=6)
            h = random_poly(4, 3, rng, n_terms=6)
            total = (
                poisson_bracket(poisson_bracket(f, g), h)
                + poisson_bracket(poisson_bracket(g, h), f)
                + poisson_bracket(poisson_bracket(h, f), g)
            )
            scale = max(f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff(), 1.0)
            assert total.max_abs_coeff() <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_reality_and_momentum_preserved(self, seed):
        rng = np.random.default_rng(seed)
        f = random_poly(4, 4, rng, n_terms=8, real_symmetric=True,
                        zero_momentum=True)
        g = random_poly(4, 3, rng, n_terms=8, real_symmetric=True,
                        zero_momentum=True)
        out = poisson_bracket(f, g)
        assert out.conserves_momentum()
        assert out.is_real_hamiltonian(tol=1e-10)


# ---------------------------------------------------------------------------
# Dict-of-Monomial references for the row storage
# ---------------------------------------------------------------------------

def dict_poly(terms):
    """The constructor's terms: zero coefficients dropped, order kept."""
    return {m: complex(c) for m, c in terms.items() if c != 0}


def dict_add(a, b):
    out = dict(a)
    for m, c in b.items():
        new = out.get(m, 0j) + c
        if new == 0:
            out.pop(m, None)
        else:
            out[m] = new
    return out


def dict_scale(a, factor):
    scaled = ((m, complex(c * factor)) for m, c in a.items())
    return {m: c for m, c in scaled if c != 0}


def dict_serialize(cutoff, items):
    """The serialization of (monomial, coefficient) pairs in the order given."""
    def exponents(indices):
        counts = Counter(indices)
        return ",".join(f"{s}^{e}" for s, e in sorted(counts.items())) or "-"

    lines = [f"# cutoff: {cutoff}"]
    for m, c in items:
        lines.append(f"xi:{exponents(m.xi)} eta:{exponents(m.eta)} "
                     f"re:{c.real!r} im:{c.imag!r}")
    return "\n".join(lines) + "\n"


def dict_bits(terms):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in terms.items()]


# few indices and parts of any length 0-4, so that parts are often empty
# and often prefixes of one another, as (1,) of (1, 2)
PARTS = st.lists(st.sampled_from([-3, -1, 0, 1, 2]), max_size=4).map(lambda p: tuple(sorted(p)))
MONOMIALS = st.builds(Monomial, PARTS, PARTS)
TERMS = st.dictionaries(MONOMIALS, COEFFS | st.just(0j), max_size=12)


class TestStorage:
    """Index rows and coefficient arrays against a dict of Monomials: the
    same terms in the same order, and every coefficient the same bits."""

    @settings(max_examples=200, deadline=None)
    @given(TERMS)
    def test_iteration_and_lookup(self, terms):
        poly = PolyHamiltonian(3, terms)
        expected = dict_poly(terms)
        assert bitwise(poly) == dict_bits(expected)
        assert len(poly) == len(expected)
        for m, c in expected.items():
            got = poly.coeff(m)
            assert (got.real.hex(), got.imag.hex()) == (c.real.hex(), c.imag.hex())
        assert poly.coeff(mono([2, 2, 2, 2, 2], [])) == 0j
        assert poly.degree == max((m.degree for m in expected), default=0)

    @settings(max_examples=200, deadline=None)
    @given(TERMS)
    def test_serialize_order_and_round_trip(self, terms):
        poly = PolyHamiltonian(3, terms)
        text = poly.serialize()
        assert text == dict_serialize(3, sorted(poly))
        assert text == dict_serialize(
            3, sorted(dict_poly(terms).items(), key=lambda kv: kv[0]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_add_and_scale(self, data):
        a = data.draw(TERMS)
        # b shares some of a's keys, cancels some, and brings its own
        shared = data.draw(st.lists(st.sampled_from(list(a)), unique=True)) if a else []
        b = {m: data.draw(st.sampled_from([-a[m], complex(-0.0, -0.0)]) | COEFFS)
             for m in shared}
        b.update(data.draw(TERMS))
        pa, pb = PolyHamiltonian(3, a), PolyHamiltonian(3, b)
        assert bitwise(pa + pb) == dict_bits(dict_add(dict_poly(a), dict_poly(b)))
        assert bitwise(pb + pa) == dict_bits(dict_add(dict_poly(b), dict_poly(a)))
        for factor in (0.5, -1.0, 1e-300, 0.0, 2.5 - 1j, 1j, -0.0):
            assert bitwise(pa.scale(factor)) == dict_bits(
                dict_scale(dict_poly(a), factor))

    @settings(max_examples=200, deadline=None)
    @given(TERMS)
    def test_h2_rule_and_its_inverse(self, terms):
        # the divisor as the monomial loop summed it, and Python's rounding
        # of 1j * d * c and of 1j * c / d
        fs = FrequencySystem(1.3)
        divisor = {m: float(sum(fs.lam(s) for s in m.xi) - sum(fs.lam(s) for s in m.eta))
                   for m in terms}
        terms = {m: c for m, c in dict_poly(terms).items() if divisor[m] != 0}
        poly = PolyHamiltonian(3, terms)
        assert poly.divisors(fs).tolist() == [divisor[m] for m in terms]
        assert bitwise(bracket_with_h2(poly, fs)) == dict_bits(
            dict_poly({m: 1j * divisor[m] * c for m, c in terms.items()}))
        assert bitwise(solve_h2_bracket(poly, poly.divisors(fs))) == dict_bits(
            dict_poly({m: 1j * c / divisor[m] for m, c in terms.items()}))


class TestBracketMatchesLoop:
    """The array kernel against the term-pair loop: same terms in the same
    order, and every coefficient the same bits, so a change in the order of
    summation fails here."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8).flatmap(
               lambda c: st.tuples(polynomials(c), polynomials(c))),
           st.none() | st.integers(0, 10))
    def test_random_polynomials(self, fg, max_degree):
        f, g = fg
        assert_bitwise_equal(poisson_bracket(f, g, max_degree=max_degree),
                             reference_bracket(f, g, max_degree=max_degree))

    @pytest.mark.parametrize("max_degree", [None, 4, 6])
    def test_quartic_with_many_collisions(self, max_degree):
        rng = np.random.default_rng(17)
        p4 = build_p4(3, FrequencySystem(1.37)).total
        g = random_poly(3, 4, rng, n_terms=20)
        h = poisson_bracket(p4, g)
        for f, k in ((p4, g), (h, g)):
            assert_bitwise_equal(poisson_bracket(f, k, max_degree=max_degree),
                                 reference_bracket(f, k, max_degree=max_degree))

    @pytest.mark.parametrize("block_rows", [1, 7, 100])
    def test_sums_run_on_across_blocks(self, monkeypatch, block_rows):
        rng = np.random.default_rng(5)
        p4 = build_p4(2, FrequencySystem(1.37)).total
        g = random_poly(2, 4, rng, n_terms=12)
        monkeypatch.setattr(polyham, "BLOCK_ROWS", block_rows)
        assert_bitwise_equal(poisson_bracket(p4, g), reference_bracket(p4, g))
        assert_bitwise_equal(build_p4(2, FrequencySystem(1.37)).total,
                             reference_p4(2, FrequencySystem(1.37)))

    def test_empty(self):
        f = random_poly(3, 4, np.random.default_rng(4))
        for a, b in ((f, PolyHamiltonian(3)), (PolyHamiltonian(3), f),
                     (PolyHamiltonian(3), PolyHamiltonian(3))):
            assert len(poisson_bracket(a, b)) == 0
            assert_bitwise_equal(poisson_bracket(a, b), reference_bracket(a, b))

    def test_nested_brackets_at_cutoff_6(self):
        # the shape of c08: a bracket of degree 5 against a cubic or quartic
        rng = np.random.default_rng(2024)
        for _ in range(4):
            f, g, h = (random_poly(6, int(rng.choice([3, 4])), rng, n_terms=7,
                                   real_symmetric=True, zero_momentum=True)
                       for _ in range(3))
            fg = poisson_bracket(f, g)
            assert_bitwise_equal(fg, reference_bracket(f, g))
            assert_bitwise_equal(poisson_bracket(fg, h), reference_bracket(fg, h))
            assert_bitwise_equal(poisson_bracket(h, fg), reference_bracket(h, fg))

    def test_wide_keys_at_cutoff_40(self):
        # a degree-6 result has 12 index digits in base 82, more than one
        # int64 holds; few distinct modes make many pairs hit the same key
        assert 82 ** 12 > 2 ** 63
        rng = np.random.default_rng(40)
        modes = [-40, -39, 0, 1, 39, 40]

        def quartic():
            terms = {}
            for _ in range(30):
                n_xi = int(rng.integers(0, 5))
                terms[mono(rng.choice(modes, n_xi).tolist(),
                           rng.choice(modes, 4 - n_xi).tolist())] = complex(
                    rng.standard_normal(), rng.standard_normal())
            return PolyHamiltonian(40, terms)

        f, g = quartic(), quartic()
        out = poisson_bracket(f, g)
        assert len(out) > 0 and max(m.degree for m, _ in out) == 6
        assert_bitwise_equal(out, reference_bracket(f, g))


class TestIndexRowKernels:
    """The row sort, the grouped sums and the serialization's dedup against
    plain references, beside the whole-kernel oracles above."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("width", range(1, 9))
    def test_sort_rows_matches_np_sort(self, width, dtype):
        rng = np.random.default_rng(width)
        pad = np.iinfo(dtype).max if dtype is np.uint16 else 2 * 14 + 1
        # few distinct values, so rows hold many ties, and the pad often
        rows = rng.choice(np.array([0, 3, 7, pad], dtype=dtype), (500, width))
        got = np.stack(polyham._sort_rows(rows.T), axis=1)
        assert got.dtype == dtype
        assert np.array_equal(got, np.sort(rows, axis=1))
        # every 0-1 row sorted means the network sorts every row
        bits = (np.arange(2 ** width)[:, None] >> np.arange(width)) & 1
        assert np.array_equal(np.stack(polyham._sort_rows(bits.T), axis=1),
                              np.sort(bits, axis=1))

    def test_network_sizes(self):
        assert [len(polyham._network(w)) for w in (1, 2, 4, 8)] == [0, 1, 5, 19]

    @pytest.mark.parametrize("cutoff, width", [(3, 2), (40, 6)], ids=["word", "void"])
    def test_group_sum_with_many_ties(self, monkeypatch, cutoff, width):
        # a few hundred rows drawn from a pool of 12 keys, in blocks that
        # each hold many copies of one key, against a dict filled in order
        pad = 2 * cutoff + 1
        assert (polyham._keys(np.zeros((1, 2 * width), np.int64), pad).dtype.kind
                == ("V" if cutoff == 40 else "i"))
        rng = np.random.default_rng(cutoff)
        pool = np.sort(rng.integers(0, pad + 1, (12, 2, width)), axis=2).reshape(12, -1)
        pick = rng.integers(0, len(pool), 600)
        rows = pool[pick].astype(np.min_scalar_type(pad))
        re = rng.choice([1.0, -1.0, 0.5, 1e-17, -0.0], 600)
        im = rng.choice([0.0, -0.0, 2.0, 1e16], 600)
        expected = {}
        for key, c in zip(map(tuple, rows.tolist()), (complex(a, b) for a, b in zip(re, im))):
            expected[key] = expected.get(key, 0j) + c
        expected = [(k, c.real.hex(), c.imag.hex()) for k, c in expected.items() if c != 0]
        sums = polyham._GroupSum(cutoff, width)
        for lo in range(0, 600, 250):
            sums.add(rows[lo:lo + 250], re[lo:lo + 250], im[lo:lo + 250])
        got = sums.result()
        assert [(tuple(r), a.hex(), b.hex()) for r, a, b in zip(
            got._rows.tolist(), got._re.tolist(), got._im.tolist())] == expected

    def test_serialize_wide_parts_at_cutoff_40(self):
        # degree-6 terms of a bracket, and parts of 10 and 12 factors, whose
        # keys in base 82 take two int64 words
        rng = np.random.default_rng(6)
        modes = [-40, -39, 0, 1, 39, 40]
        terms = {}
        for n_xi in (0, 3, 6, 10, 12, 12):
            for _ in range(10):
                terms[mono(rng.choice(modes, n_xi).tolist(),
                           rng.choice(modes, 12 - n_xi).tolist())] = complex(
                    rng.choice([1.5, -0.0, 0.0]), rng.standard_normal())
        # parts that agree on the first 9 indices, as many as one word holds
        for tail in ((), (1,), (40,), (1, 1), (1, 40), (39, 40, 40)):
            terms[mono([0] * 9 + list(tail), [-40] * 9 + list(tail))] = 1.0
        wide = PolyHamiltonian(40, terms)
        assert polyham._keys(wide._rows[:, :12], wide._pad).dtype.kind == "V"
        f = PolyHamiltonian(40, {mono([40, 1], [0, 0]): 1.0, mono([0, 39], [-39, 40]): 2j})
        g = PolyHamiltonian(40, {mono([0, 0], [1, 40]): 1 - 1j, mono([-39], [0]): 3.0})
        sextic = poisson_bracket(f, g)
        assert len(sextic) > 1 and max(m.degree for m, _ in sextic) == 6
        for poly in (wide, sextic):
            assert poly.serialize() == dict_serialize(40, sorted(poly))


class TestLieTransform:
    def test_zero_generator(self):
        rng = np.random.default_rng(1)
        f = random_poly(3, 4, rng)
        out = lie_transform(f, PolyHamiltonian(3), 6)
        assert out.max_coeff_diff(f) == 0.0

    def test_degree_counting(self):
        fs = FrequencySystem(1.0)
        h2 = build_h2(3, fs)
        rng = np.random.default_rng(2)
        chi = random_poly(3, 4, rng, n_terms=5)
        out = lie_transform(h2, chi, 4)
        expected = h2 + poisson_bracket(h2, chi)
        assert out.max_coeff_diff(expected) < 1e-14


class TestNormsAndConvolution:
    def test_norm_params_validation(self):
        with pytest.raises(ValueError):
            NormParams(alpha=0.5)

    def test_weighted_norm_value(self):
        z = PhasePoint.zero(2)
        z.xi[2 + 2] = 3.0    # mode 2
        z.eta[0] = 4.0       # mode -2
        p = NormParams(alpha=1.0)
        # |zeta_2|^2 <2>^2 + |zeta_-2|^2 <-2>^2 = 9*4 + 16*4
        assert weighted_norm(z, p) == pytest.approx(10.0)


class TestGradientHessian:
    def test_h2_gradient(self):
        fs = FrequencySystem(1.2)
        h2 = build_h2(2, fs)
        rng = np.random.default_rng(4)
        z = PhasePoint.random(2, rng)
        g = gradient(h2, z)
        lam = np.sqrt(np.arange(-2, 3) ** 2 + 1.2)
        assert np.allclose(g.xi, lam * z.eta)
        assert np.allclose(g.eta, lam * z.xi)

    def test_gradient_matches_finite_differences(self):
        fs = FrequencySystem(1.5)
        p4 = build_p4(3, fs).total
        rng = np.random.default_rng(8)
        z = PhasePoint.random(3, rng, real=False, scale=0.3)
        g = gradient(p4, z)
        h = 1e-6
        for s in (-2, 0, 3):
            idx = s + 3
            for arr, garr in ((z.xi, g.xi), (z.eta, g.eta)):
                orig = arr[idx]
                arr[idx] = orig + h
                fp = p4.evaluate(z)
                arr[idx] = orig - h
                fm = p4.evaluate(z)
                arr[idx] = orig
                fd = (fp - fm) / (2 * h)
                assert abs(fd - garr[idx]) <= 1e-7 * max(abs(garr[idx]), 1.0)

    def test_evaluate_matches_monomial_loop(self):
        # products and the sum over terms run in another order than the
        # loop, so the values agree to rounding of the sum of |terms|
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_poly(4, int(rng.integers(1, 6)), rng, n_terms=12)
            z = PhasePoint.random(4, rng, real=False)
            expected, size = 0j, 0.0
            for m, c in f:
                prod = c
                for s in m.xi:
                    prod *= z.xi_of(s)
                for s in m.eta:
                    prod *= z.eta_of(s)
                expected += prod
                size += abs(prod)
            assert abs(f.evaluate(z) - expected) <= 1e-14 * size

    def test_hessian_block_symmetry(self):
        fs = FrequencySystem(1.5)
        p4 = build_p4(2, fs).total
        rng = np.random.default_rng(12)
        z = PhasePoint.random(2, rng)
        blocks = hessian(p4, z)
        for (s, sp), block in blocks.items():
            assert np.allclose(block, blocks[(sp, s)].T)

    def test_hessian_simple_value(self):
        # f = xi_1^2: d^2 f / d xi_1^2 = 2
        f = PolyHamiltonian(1, {mono([1, 1], []): 1.0})
        z = PhasePoint.zero(1)
        blocks = hessian(f, z)
        assert blocks[(1, 1)][0, 0] == pytest.approx(2.0)

    def test_radial_scaling_exponents(self):
        fs = FrequencySystem(1.3)
        p4 = build_p4(6, fs).total
        fit_g = radial_scaling_fit(p4, "gradient", [0.1, 0.2, 0.4], alpha=1.0)
        fit_h = radial_scaling_fit(p4, "hessian", [0.1, 0.2, 0.4], beta=0.5)
        assert fit_g.exponent == pytest.approx(3.0, abs=0.05)
        assert fit_h.exponent == pytest.approx(2.0, abs=0.05)
        assert fit_g.constant > 0 and fit_h.constant > 0


class TestSerialization:
    def test_sorted_deterministic(self):
        fs = FrequencySystem(1.0)
        p4 = build_p4(2, fs)
        assert p4.total.serialize() == p4.total.serialize()
        lines = p4.total.serialize().splitlines()
        assert lines[0].startswith("# cutoff:")
        assert all(line.startswith("xi:") for line in lines[1:])

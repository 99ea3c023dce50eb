"""Sparse polynomial Hamiltonians on the truncated Fourier phase space.

State variables are (xi_s, eta_s) for |s| <= cutoff; on the real subspace
eta_s = conj(xi_s).  A monomial is stored as a pair of sorted index tuples
(with repetition), e.g. xi_1^2 eta_0 eta_3 -> ((1, 1), (0, 3)).  Canonical
ordering is lexicographic on (xi indices, eta indices), which makes
serialization deterministic and diffable.

The tuples are the API.  build_p4 and poisson_bracket compute on numpy
index rows instead, and add their contributions one at a time in the
canonical order of the term-by-term loop (quadruple, then expansion term;
f term, then g term, then side, then mode), so their coefficients are
bitwise those of that loop and their terms come in the same order.

Everything here is exact symbolic algebra over complex double coefficients;
the only approximation anywhere is rounding.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import zeta as _zeta

from .spectrum import FrequencySystem


@dataclass(frozen=True, order=True)
class Monomial:
    """Product of xi and eta factors, indices sorted with repetition."""

    xi: tuple[int, ...]
    eta: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.xi) + len(self.eta)

    @property
    def momentum(self) -> int:
        """Sum of xi indices minus sum of eta indices."""
        return sum(self.xi) - sum(self.eta)

    def conjugate(self) -> "Monomial":
        """Swap xi and eta roles (complex conjugation on the real subspace)."""
        return Monomial(self.eta, self.xi)

    def max_index(self) -> int:
        return max((abs(s) for s in self.xi + self.eta), default=0)


def mono(xi: Iterable[int] = (), eta: Iterable[int] = ()) -> Monomial:
    return Monomial(tuple(sorted(xi)), tuple(sorted(eta)))


class PolyHamiltonian:
    """Sparse complex polynomial in (xi, eta) at a fixed Fourier cutoff."""

    __slots__ = ("cutoff", "_terms")

    def __init__(self, cutoff: int, terms: Optional[dict[Monomial, complex]] = None):
        self.cutoff = int(cutoff)
        self._terms: dict[Monomial, complex] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    if m.max_index() > self.cutoff:
                        raise ValueError(f"monomial {m} exceeds cutoff {self.cutoff}")
                    self._terms[m] = complex(c)

    @classmethod
    def _within_cutoff(cls, cutoff: int, terms: dict[Monomial, complex]) -> "PolyHamiltonian":
        """Polynomial that takes over `terms`: non-zero complex coefficients
        of monomials known to lie within the cutoff."""
        poly = cls.__new__(cls)
        poly.cutoff = cutoff
        poly._terms = terms
        return poly

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, complex]]:
        return iter(self._terms.items())

    def coeff(self, m: Monomial) -> complex:
        return self._terms.get(m, 0j)

    def terms(self) -> dict[Monomial, complex]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, complex]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    @property
    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        self._check_cutoff(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            new = out.get(m, 0j) + c
            if new == 0:
                out.pop(m, None)
            else:
                out[m] = new
        return PolyHamiltonian._within_cutoff(self.cutoff, out)

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "PolyHamiltonian":
        scaled = ((m, complex(c * factor)) for m, c in self._terms.items())
        return PolyHamiltonian._within_cutoff(self.cutoff, {m: c for m, c in scaled if c != 0})

    def scale_in_place(self, factor: complex) -> None:
        """self.scale(factor) without the copy, for a polynomial that no one
        else holds: the same coefficients and the same term order."""
        zeros = []
        for m, c in self._terms.items():
            scaled = complex(c * factor)
            self._terms[m] = scaled
            if scaled == 0:
                zeros.append(m)
        for m in zeros:
            del self._terms[m]

    def filter(self, predicate: Callable[[Monomial], bool]) -> "PolyHamiltonian":
        return PolyHamiltonian._within_cutoff(
            self.cutoff, {m: c for m, c in self._terms.items() if predicate(m)})

    def _check_cutoff(self, other: "PolyHamiltonian") -> None:
        if self.cutoff != other.cutoff:
            raise ValueError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    # -- structural predicates ----------------------------------------------
    def is_real_hamiltonian(self, tol: float = 1e-12) -> bool:
        """Real-valued on the real subspace: c(xi^a eta^b) == conj(c(xi^b eta^a))."""
        scale = self.max_abs_coeff() or 1.0
        for m, c in self._terms.items():
            if abs(c - self.coeff(m.conjugate()).conjugate()) > tol * scale:
                return False
        return True

    def conserves_momentum(self) -> bool:
        return all(m.momentum == 0 for m in self._terms)

    def max_coeff_diff(self, other: "PolyHamiltonian") -> float:
        """Coefficientwise max |self - other|."""
        self._check_cutoff(other)
        keys = set(self._terms) | set(other._terms)
        return max((abs(self.coeff(m) - other.coeff(m)) for m in keys), default=0.0)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, z: "PhasePoint") -> complex:
        total = 0j
        for m, c in self._terms.items():
            prod = c
            for s in m.xi:
                prod *= z.xi_of(s)
            for s in m.eta:
                prod *= z.eta_of(s)
            total += prod
        return total

    # -- serialization ---------------------------------------------------------
    def serialize(self) -> str:
        """One line per monomial: "xi:<idx^exp,...> eta:<...> re:<..> im:<..>"."""
        lines = [f"# cutoff: {self.cutoff}"]
        for m, c in self.sorted_terms():
            lines.append(
                f"xi:{_fmt_exponents(m.xi)} eta:{_fmt_exponents(m.eta)} "
                f"re:{c.real!r} im:{c.imag!r}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "PolyHamiltonian":
        cutoff = None
        terms: dict[Monomial, complex] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                if key.strip() == "cutoff":
                    cutoff = int(value)
                continue
            fields = dict(part.split(":", 1) for part in line.split())
            m = mono(_parse_exponents(fields["xi"]), _parse_exponents(fields["eta"]))
            terms[m] = complex(float(fields["re"]), float(fields["im"]))
        if cutoff is None:
            raise ValueError("missing cutoff header")
        return cls(cutoff, terms)


def _fmt_exponents(indices: tuple[int, ...]) -> str:
    if not indices:
        return "-"
    counts = Counter(indices)
    return ",".join(f"{s}^{e}" for s, e in sorted(counts.items()))


def _parse_exponents(text: str) -> list[int]:
    if text == "-":
        return []
    out: list[int] = []
    for part in text.split(","):
        s, e = part.split("^")
        out.extend([int(s)] * int(e))
    return out


# ---------------------------------------------------------------------------
# Phase-space points
# ---------------------------------------------------------------------------

@dataclass
class PhasePoint:
    """Truncated phase-space point; arrays are indexed by s + cutoff."""

    cutoff: int
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        size = 2 * self.cutoff + 1
        self.xi = np.asarray(self.xi, dtype=complex)
        self.eta = np.asarray(self.eta, dtype=complex)
        if self.xi.shape != (size,) or self.eta.shape != (size,):
            raise ValueError(f"state arrays must have length {size}")

    @classmethod
    def zero(cls, cutoff: int) -> "PhasePoint":
        size = 2 * cutoff + 1
        return cls(cutoff, np.zeros(size, dtype=complex), np.zeros(size, dtype=complex))

    @classmethod
    def random(cls, cutoff: int, rng: np.random.Generator, real: bool = True,
               scale: float = 1.0) -> "PhasePoint":
        size = 2 * cutoff + 1
        xi = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        eta = xi.conj() if real else scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        return cls(cutoff, xi, eta)

    def xi_of(self, s: int) -> complex:
        return self.xi[s + self.cutoff]

    def eta_of(self, s: int) -> complex:
        return self.eta[s + self.cutoff]

    def modes(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)


@dataclass(frozen=True)
class NormParams:
    """Weights for the l2 norm sum |zeta_s|^2 <s>^(2 alpha); alpha > 1/2 makes
    the space a convolution algebra."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.5:
            raise ValueError("alpha must exceed 1/2")


def weighted_norm(z: PhasePoint, p: NormParams) -> float:
    s = z.modes()
    w = np.maximum(np.abs(s), 1) ** (2 * p.alpha)
    return float(np.sqrt(np.sum((np.abs(z.xi) ** 2 + np.abs(z.eta) ** 2) * w)))


# ---------------------------------------------------------------------------
# Convolution on mode-indexed sequences
# ---------------------------------------------------------------------------

def convolution(v: dict[int, complex], w: dict[int, complex]) -> dict[int, complex]:
    """(v * w)_l = sum_{i+j=l} v_i w_j on finite supports.

    Summands are accumulated in a canonical order that is symmetric under
    swapping the arguments, so commutativity holds bitwise.
    """
    buckets: dict[int, list] = defaultdict(list)
    for i, vi in v.items():
        for j, wj in w.items():
            buckets[i + j].append((min(i, j), max(i, j), vi * wj))
    out: dict[int, complex] = {}
    for l, items in buckets.items():
        items.sort(key=lambda t: (t[0], t[1], t[2].real, t[2].imag))
        total = sum(c for _, _, c in items)
        if total != 0:
            out[l] = total
    return out


def sequence_norm(v: dict[int, complex], alpha: float) -> float:
    return math.sqrt(sum(abs(c) ** 2 * max(abs(s), 1) ** (2 * alpha) for s, c in v.items()))


def convolution_algebra_constant(alpha: float) -> float:
    """Constant C(alpha) with ||v*w||_alpha <= C ||v||_alpha ||w||_alpha.

    C(alpha) = 2^alpha sqrt(2 sum_i <i>^(-2 alpha)), finite for alpha > 1/2;
    the mode sum is 1 + 2 zeta(2 alpha).
    """
    if alpha <= 0.5:
        raise ValueError("alpha must exceed 1/2")
    mode_sum = 1.0 + 2.0 * float(_zeta(2 * alpha))
    return 2.0 ** alpha * math.sqrt(2.0 * mode_sum)


# ---------------------------------------------------------------------------
# Index-row kernels
# ---------------------------------------------------------------------------
#
# An index row holds a monomial's xi part or eta part as sorted small
# integers, offset by the cutoff and padded at the end with 2 cutoff + 1.
# build_p4 and poisson_bracket generate their contributions a block at a
# time, in the order of the loop they stand for, and _GroupSum adds them one
# at a time in that order: each coefficient is the sequential sum
# 0j + c_1 + c_2 + ... of a dict filled term by term.

# contribution rows generated and summed at a time
BLOCK_ROWS = 1 << 14
# result rows decoded into monomials at a time (as Python lists, ~200 B a row)
DECODE_ROWS = 1 << 12

_INT64_MAX = 2 ** 63 - 1


def _cmul(ar, ai, br, bi):
    """CPython's complex product, (ar br - ai bi) + i (ar bi + ai br), on
    real and imaginary parts, so that it rounds (signed zeros included)
    exactly as Python's complex multiplication does."""
    return ar * br - ai * bi, ar * bi + ai * br


def _blocks(cost: np.ndarray) -> Iterator[tuple[int, int]]:
    """Ranges [lo, hi) of consecutive rows whose costs add up to at most
    BLOCK_ROWS; a row that alone costs more is a block of its own."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < len(cost):
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + BLOCK_ROWS, side="right")))
        yield lo, hi
        lo = hi


class _TermRows:
    """A polynomial's terms as index rows, in insertion order."""

    def __init__(self, poly: PolyHamiltonian):
        c = poly.cutoff
        self.pad = 2 * c + 1
        width = poly.degree
        # pads given as c + 1, so that the offset by c turns them into 2 c + 1
        padded = [(m.xi + (c + 1,) * (width - len(m.xi)), m.eta + (c + 1,) * (width - len(m.eta)))
                  for m in poly._terms]
        rows = (np.array(padded, dtype=np.int64) + c).astype(np.min_scalar_type(self.pad))
        self.xi, self.eta = rows[:, 0], rows[:, 1]
        coeffs = np.array(list(poly._terms.values()), dtype=complex)
        self.re, self.im = coeffs.real.copy(), coeffs.imag.copy()
        self.degree = np.fromiter((m.degree for m in poly._terms), np.int64, len(padded))
        self.xi_count = self._counts(self.xi)
        self.eta_count = self._counts(self.eta)

    def factors(self, count: np.ndarray, drop_xi: bool):
        """Every (term, mode j) with count[term, j] > 0, by j then term: the
        term, j, the exponent as a float, and the term's xi and eta rows with
        one factor j taken out of the xi part (drop_xi) or the eta part."""
        mode, term = np.nonzero(count.T)
        xi, eta = self.xi[term], self.eta[term]
        rows = xi if drop_xi else eta
        if len(term):
            rows[np.arange(len(term)), np.argmax(rows == mode[:, None], axis=1)] = self.pad
        return term, mode, count[term, mode].astype(float), xi, eta

    def _counts(self, rows: np.ndarray) -> np.ndarray:
        """Exponent of each mode (columns -cutoff..cutoff) in each row."""
        counts = np.zeros((len(rows), self.pad + 1), dtype=np.min_scalar_type(rows.shape[1]))
        for column in rows.T:
            counts[np.arange(len(rows)), column] += 1
        return counts[:, :self.pad]


class _GroupSum:
    """Sums of contributions keyed by index rows (xi part, then eta part,
    each `width` wide), added one at a time in the order given.

    Rows are packed into int64 words of as many base-(pad + 1) digits as
    fit, one word after another, so keys of any width compare exactly.  The
    keys seen so far are kept sorted, beside the id of each: its rank in
    order of first appearance.
    """

    def __init__(self, cutoff: int, width: int):
        self.cutoff = cutoff
        self.width = width
        self.pad = 2 * cutoff + 1
        self._base = self.pad + 1
        self._digits = 1
        while self._base ** (self._digits + 1) <= _INT64_MAX:
            self._digits += 1
        self._n_words = max(1, -(-2 * width // self._digits))
        self._known = self._keys(np.zeros((0, self._n_words), dtype=np.int64))
        self._known_ids = np.zeros(0, dtype=np.intp)
        self._rows: list[np.ndarray] = []
        self._re = np.zeros(0)
        self._im = np.zeros(0)

    def _words(self, rows: np.ndarray) -> np.ndarray:
        words = np.zeros((len(rows), self._n_words), dtype=np.int64)
        for col in range(rows.shape[1]):
            word = words[:, col // self._digits]
            word *= self._base
            word += rows[:, col]
        return words

    def _keys(self, words: np.ndarray) -> np.ndarray:
        """One sortable key per row, ordered as the words lexicographically:
        the word itself, or the words' big-endian bytes."""
        if self._n_words == 1:
            return words[:, 0]
        be = np.ascontiguousarray(words, dtype=">i8")
        return be.view(np.dtype((np.void, 8 * self._n_words))).ravel()

    def add(self, rows: np.ndarray, re: np.ndarray, im: np.ndarray) -> None:
        """Add re[k] + i im[k] to the coefficient of rows[k], for k in order."""
        if not len(rows):
            return
        words = self._words(rows)
        order = np.lexsort(words.T[::-1])
        ordered = words[order]
        starts = np.ones(len(rows), dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
        group = np.cumsum(starts) - 1
        # lexsort is stable, so a group's first sorted row is its earliest
        first = order[starts]
        keys = self._keys(ordered[starts])
        at = np.searchsorted(self._known, keys)
        found = at < len(self._known)
        found[found] = self._known[at[found]] == keys[found]
        group_ids = np.empty(len(keys), dtype=np.intp)
        group_ids[found] = self._known_ids[at[found]]
        # new keys get the next ids in order of first appearance
        new = np.flatnonzero(~found)
        by_appearance = new[np.argsort(first[new])]
        group_ids[by_appearance] = len(self._known) + np.arange(len(new))
        self._rows.append(rows[first[by_appearance]])
        self._known = np.insert(self._known, at[new], keys[new])
        self._known_ids = np.insert(self._known_ids, at[new], group_ids[new])
        self._re = np.concatenate([self._re, np.zeros(len(new))])
        self._im = np.concatenate([self._im, np.zeros(len(new))])
        target = np.empty(len(rows), dtype=np.intp)
        target[order] = group_ids[group]
        # ufunc.at adds unbuffered, one index after another
        np.add.at(self._re, target, re)
        np.add.at(self._im, target, im)

    def result(self) -> PolyHamiltonian:
        """The sums as a polynomial, zero coefficients dropped, terms in
        order of first appearance."""
        keep = (self._re != 0) | (self._im != 0)
        rows = np.concatenate(self._rows or [np.zeros((0, 2 * self.width), np.int64)])[keep]
        coeffs = np.empty(len(rows), dtype=complex)
        coeffs.real, coeffs.imag = self._re[keep], self._im[keep]
        terms: dict[Monomial, complex] = {}
        for lo in range(0, len(rows), DECODE_ROWS):
            block = rows[lo:lo + DECODE_ROWS]
            xi, eta = block[:, :self.width], block[:, self.width:]
            n_xi = np.count_nonzero(xi != self.pad, axis=1).tolist()
            n_eta = np.count_nonzero(eta != self.pad, axis=1).tolist()
            xi = (xi.astype(np.int64) - self.cutoff).tolist()
            eta = (eta.astype(np.int64) - self.cutoff).tolist()
            monos = (Monomial(tuple(x[:a]), tuple(e[:b]))
                     for x, a, e, b in zip(xi, n_xi, eta, n_eta))
            terms.update(zip(monos, coeffs[lo:lo + DECODE_ROWS].tolist()))
        return PolyHamiltonian._within_cutoff(self.cutoff, terms)


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def poisson_bracket(f: PolyHamiltonian, g: PolyHamiltonian,
                    max_degree: Optional[int] = None) -> PolyHamiltonian:
    """{f, g} = i sum_j (df/deta_j dg/dxi_j - df/dxi_j dg/deta_j).

    Exact symbolic bracket.  With max_degree set, term pairs whose bracket
    degree (deg f + deg g - 2) exceeds it contribute nothing.

    Each f term holding eta_j is paired with every g term holding xi_j, and
    each f term holding xi_j with every g term holding eta_j (negated).  A
    pair contributes ((1j c_f) c_g) e_f e_g, e the exponents of the paired
    factors, and contributions are summed in the order (f term, g term,
    side, j): that of a loop over f's terms, then over g's.
    """
    f._check_cutoff(g)
    cutoff = f.cutoff
    width = f.degree + g.degree - 2
    if max_degree is not None:
        width = min(width, max_degree)
    if not len(f) or not len(g) or width < 0:
        return PolyHamiltonian(cutoff)
    F, G = _TermRows(f), _TermRows(g)
    n_modes = F.pad
    f_re, f_im = _cmul(0.0, 1.0, F.re, F.im)          # 1j c_f
    # side 0 pairs eta_j in f with xi_j in g, side 1 xi_j in f with eta_j in g
    sides = [(F.factors(F.eta_count, drop_xi=False), G.factors(G.xi_count, drop_xi=True)),
             (F.factors(F.xi_count, drop_xi=True), G.factors(G.eta_count, drop_xi=False))]
    # contributions of each f term, to cut f into blocks
    g_len = [np.bincount(g_entries[1], minlength=n_modes) for _, g_entries in sides]
    cost = sum(np.bincount(f_entries[0], g_len[side][f_entries[1]], minlength=len(f))
               for side, (f_entries, _) in enumerate(sides))
    out = _GroupSum(cutoff, width)
    for lo, hi in _blocks(cost):
        rows, re, im, keys = [], [], [], []
        for side, (f_entries, (g_term, g_mode, g_exp, g_xi, g_eta)) in enumerate(sides):
            f_term, f_mode, f_exp, f_xi, f_eta = f_entries
            # pair each factor of the block's f terms with the g factors of
            # its mode, a contiguous run since g's factors are ordered by mode
            e = np.flatnonzero((f_term >= lo) & (f_term < hi))
            n_pairs = g_len[side][f_mode[e]]
            a = np.repeat(e, n_pairs)
            b = np.arange(len(a)) + np.repeat(
                np.searchsorted(g_mode, f_mode[e]) - np.cumsum(n_pairs) + n_pairs, n_pairs)
            if max_degree is not None:
                keep = F.degree[f_term[a]] + G.degree[g_term[b]] - 2 <= max_degree
                a, b = a[keep], b[keep]
            xi = np.sort(np.concatenate([f_xi[a], g_xi[b]], axis=1), axis=1)
            eta = np.sort(np.concatenate([f_eta[a], g_eta[b]], axis=1), axis=1)
            rows.append(np.concatenate([xi[:, :width], eta[:, :width]], axis=1))
            fa, gb = f_term[a], g_term[b]
            c_re, c_im = _cmul(f_re[fa], f_im[fa], G.re[gb], G.im[gb])
            c_re, c_im = _cmul(c_re, c_im, f_exp[a], 0.0)
            c_re, c_im = _cmul(c_re, c_im, g_exp[b], 0.0)
            if side == 1:
                c_re, c_im = -c_re, -c_im
            re.append(c_re)
            im.append(c_im)
            keys.append((((fa - lo) * len(g) + gb) * 2 + side) * n_modes + f_mode[a])
        order = np.argsort(np.concatenate(keys))
        out.add(np.concatenate(rows)[order], np.concatenate(re)[order],
                np.concatenate(im)[order])
    return out.result()


def bracket_with_h2(f: PolyHamiltonian, fs: FrequencySystem) -> PolyHamiltonian:
    """{H2, f} computed by the diagonal rule: each monomial xi^a eta^b is
    scaled by i (sum_a lambda - sum_b lambda).  Must agree with the generic
    bracket against build_h2 exactly."""
    out: dict[Monomial, complex] = {}
    for m, c in f:
        new = 1j * monomial_divisor(m, fs) * c
        if new != 0:
            out[m] = new
    return PolyHamiltonian(f.cutoff, out)


def monomial_divisor(m: Monomial, fs: FrequencySystem) -> float:
    """Signed frequency combination sum_xi lambda - sum_eta lambda."""
    return float(sum(fs.lam(s) for s in m.xi) - sum(fs.lam(s) for s in m.eta))


# Lie-series terms after which a series that has not vanished is refused
LIE_MAX_TERMS = 64


def lie_transform(f: PolyHamiltonian, chi: PolyHamiltonian, max_degree: int
                  ) -> PolyHamiltonian:
    """Truncated Lie series f + {f,chi} + {{f,chi},chi}/2! + ...

    Terms of degree above max_degree are dropped as they arise.  For chi of
    degree >= 3 each bracket raises the degree, so the series terminates.
    """
    if max_degree < f.degree:
        raise ValueError("max_degree must cover f itself")
    total = f
    term = f
    for n in range(1, LIE_MAX_TERMS + 1):
        term = poisson_bracket(term, chi, max_degree=max_degree).scale(1.0 / n)
        if len(term) == 0:
            return total
        total = total + term
    raise RuntimeError("Lie series did not terminate; chi of degree < 3?")


# ---------------------------------------------------------------------------
# Hamiltonian constructors
# ---------------------------------------------------------------------------

def build_h2(cutoff: int, fs: FrequencySystem) -> PolyHamiltonian:
    """Diagonal quadratic part sum_s lambda_s xi_s eta_s, |s| <= cutoff."""
    terms = {
        mono([s], [s]): complex(fs.lam(s))
        for s in range(-cutoff, cutoff + 1)
    }
    return PolyHamiltonian(cutoff, terms)


@dataclass
class P4Split:
    """Quartic interaction with views by (xi-degree, eta-degree) pattern:
    p0 holds (4,0)+(0,4), p1 holds (3,1)+(1,3), p2 holds (2,2)."""

    total: PolyHamiltonian

    @property
    def p0(self) -> PolyHamiltonian:
        return self.total.filter(lambda m: len(m.xi) in (0, 4))

    @property
    def p1(self) -> PolyHamiltonian:
        return self.total.filter(lambda m: len(m.xi) in (1, 3))

    @property
    def p2(self) -> PolyHamiltonian:
        return self.total.filter(lambda m: len(m.xi) == 2)

    @property
    def cutoff(self) -> int:
        return self.total.cutoff


def build_p4(cutoff: int, fs: FrequencySystem) -> P4Split:
    """Expansion of the integral of u^4 over the circle in (xi, eta).

    u = sum_s (xi_s phi_s + eta_s phi_{-s}) / sqrt(2 lambda_s) with
    phi_s = e^{isx}/sqrt(2 pi).  Each ordered zero-momentum quadruple
    (p, q, r, t) contributes 1/(8 pi sqrt(lambda_p lambda_q lambda_r lambda_t))
    times the 16-term expansion of prod (xi + eta_-).  Collected monomials
    carry zero momentum: sum(xi indices) = sum(eta indices).

    Quadruples run with p slowest and t = -(p + q + r) fixed, and bit i of
    the expansion term puts factor i in xi; contributions are summed in that
    order.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    s = np.arange(-cutoff, cutoff + 1)
    lam = fs.lam(s)
    p, q, r = (a.ravel() for a in np.meshgrid(s, s, s, indexing="ij"))
    quads = np.stack([p, q, r, -(p + q + r)], axis=1)
    quads = quads[np.abs(quads[:, 3]) <= cutoff]
    lq = lam[quads + cutoff]
    base = 1.0 / (8.0 * math.pi * np.sqrt(lq[:, 0] * lq[:, 1] * lq[:, 2] * lq[:, 3]))
    to_xi = (np.arange(16)[:, None] >> np.arange(4)) & 1 == 1
    pad = 2 * cutoff + 1
    dtype = np.min_scalar_type(pad)
    as_xi = (quads + cutoff).astype(dtype)[:, None, :]
    as_eta = (cutoff - quads).astype(dtype)[:, None, :]
    out = _GroupSum(cutoff, 4)
    step = max(1, BLOCK_ROWS // 16)
    for lo in range(0, len(quads), step):
        xi = np.sort(np.where(to_xi, as_xi[lo:lo + step], pad), axis=2)
        eta = np.sort(np.where(to_xi, pad, as_eta[lo:lo + step]), axis=2)
        contrib = np.repeat(base[lo:lo + step], 16)
        out.add(np.concatenate([xi, eta], axis=2).reshape(-1, 8), contrib,
                np.zeros_like(contrib))
    return P4Split(out.result())


def build_interaction(cutoff: int, fs: FrequencySystem,
                      g_coeffs: dict[int, dict[int, complex]]) -> PolyHamiltonian:
    """Perturbation from a nonlinearity g(x, u) = sum_p c_p(x) u^p with
    trigonometric-polynomial coefficients c_p(x) = sum_q c_{p,q} e^{iqx}.

    The Hamiltonian density is the primitive G = sum_p c_p(x) u^(p+1)/(p+1);
    x-dependent coefficients shift the stored momentum of the monomials by
    the coefficient mode q, exercising the momentum-non-conserving plumbing.
    The default cubic model is g_coeffs = {3: {0: 4.0}}.
    """
    lam = {s: float(fs.lam(s)) for s in range(-cutoff, cutoff + 1)}
    acc: dict[Monomial, complex] = defaultdict(complex)
    rng = list(range(-cutoff, cutoff + 1))

    def expand(slots: int, q_shift: int, prefactor: complex) -> None:
        # sum over ordered index tuples with q_shift + sum(indices) = 0
        def rec(chosen: list[int], depth: int):
            if depth == slots - 1:
                last = -(q_shift + sum(chosen))
                if abs(last) > cutoff:
                    return
                tup = chosen + [last]
                base = prefactor / math.prod(
                    math.sqrt(2.0 * lam[s]) for s in tup)
                for m_bits in range(1 << slots):
                    xi_part = []
                    eta_part = []
                    for t in range(slots):
                        if (m_bits >> t) & 1:
                            xi_part.append(tup[t])
                        else:
                            eta_part.append(-tup[t])
                    acc[mono(xi_part, eta_part)] += base
                return
            for s in rng:
                rec(chosen + [s], depth + 1)

        rec([], 0)

    for p, coeffs in g_coeffs.items():
        if p < 1:
            raise ValueError("nonlinearity powers must be >= 1")
        deg = p + 1
        for q, cq in coeffs.items():
            if cq == 0:
                continue
            # int c_p e^{iqx} u^(p+1)/(p+1) dx
            #   = c_q (2 pi)^(1 - deg/2) / (p+1) * sum_{q + sum s = 0} prod A_s
            prefactor = complex(cq) * (2.0 * math.pi) ** (1.0 - deg / 2.0) / (p + 1)
            expand(deg, q, prefactor)
    return PolyHamiltonian(cutoff, acc)


# ---------------------------------------------------------------------------
# Gradients, Hessians and their weighted norms
# ---------------------------------------------------------------------------

def gradient(f: PolyHamiltonian, z: PhasePoint) -> PhasePoint:
    """Exact (d f/d xi_s, d f/d eta_s) arranged as a PhasePoint-shaped vector."""
    if z.cutoff != f.cutoff:
        raise ValueError("point cutoff must match polynomial cutoff")
    size = 2 * f.cutoff + 1
    dxi = np.zeros(size, dtype=complex)
    deta = np.zeros(size, dtype=complex)
    for m, c in f:
        xi_vals = [z.xi_of(s) for s in m.xi]
        eta_vals = [z.eta_of(s) for s in m.eta]
        for pos, s in enumerate(m.xi):
            prod = c
            for q, v in enumerate(xi_vals):
                if q != pos:
                    prod *= v
            for v in eta_vals:
                prod *= v
            dxi[s + f.cutoff] += prod
        for pos, s in enumerate(m.eta):
            prod = c
            for v in xi_vals:
                prod *= v
            for q, v in enumerate(eta_vals):
                if q != pos:
                    prod *= v
            deta[s + f.cutoff] += prod
    return PhasePoint(f.cutoff, dxi, deta)


def hessian(f: PolyHamiltonian, z: PhasePoint) -> dict[tuple[int, int], np.ndarray]:
    """Second partials as 2x2 blocks A[s, s'] = d^2 f / d zeta_s d zeta_s'
    with zeta_s = (xi_s, eta_s); only structurally non-zero blocks are stored."""
    if z.cutoff != f.cutoff:
        raise ValueError("point cutoff must match polynomial cutoff")
    blocks: dict[tuple[int, int], np.ndarray] = {}

    def add(s: int, sp: int, row: int, col: int, value: complex) -> None:
        key = (s, sp)
        if key not in blocks:
            blocks[key] = np.zeros((2, 2), dtype=complex)
        blocks[key][row, col] += value

    for m, c in f:
        factors = [("xi", s) for s in m.xi] + [("eta", s) for s in m.eta]
        vals = [z.xi_of(s) if kind == "xi" else z.eta_of(s) for kind, s in factors]
        n = len(factors)
        for p in range(n):
            for q in range(n):
                if p == q:
                    continue
                prod = c
                for t in range(n):
                    if t != p and t != q:
                        prod *= vals[t]
                kind_p, s_p = factors[p]
                kind_q, s_q = factors[q]
                row = 0 if kind_p == "xi" else 1
                col = 0 if kind_q == "xi" else 1
                # ordered pairs (p, q) enumerate exactly the terms of the
                # second partial, repeated factors included
                add(s_p, s_q, row, col, prod)
    return blocks


_SIGMA2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def projector_compliance_defect(blocks: dict[tuple[int, int], np.ndarray]) -> float:
    """Largest entrywise distance of a Hessian block from the span of
    {I, sigma_2}.  Reported as a diagnostic only; blocks are stored raw."""
    worst = 0.0
    for block in blocks.values():
        a = 0.5 * (block[0, 0] + block[1, 1])
        b = 0.5 * (block[1, 0] - block[0, 1])
        proj = a * np.eye(2) + b * _SIGMA2
        worst = max(worst, float(np.max(np.abs(block - proj))))
    return worst


def hessian_norm(blocks: dict[tuple[int, int], np.ndarray], beta: float) -> float:
    """|A|_beta = sup <s>^beta <s'>^beta max|entry|."""
    best = 0.0
    for (s, sp), block in blocks.items():
        w = (max(abs(s), 1) * max(abs(sp), 1)) ** beta
        best = max(best, w * float(np.max(np.abs(block))))
    return best


def gradient_norm(grad: PhasePoint, alpha: float) -> float:
    return weighted_norm(grad, NormParams(alpha=alpha))


@dataclass
class RadialScalingFit:
    exponent: float
    constant: float
    radii: tuple[float, ...]
    values: tuple[float, ...]


def radial_scaling_fit(f: PolyHamiltonian, quantity: str, radii: Sequence[float],
                       alpha: float = 1.0, beta: float = 0.5,
                       seed: int = 0) -> RadialScalingFit:
    """Fit value ~ C r^p for the gradient alpha-norm or Hessian beta-norm of f
    along a fixed random direction scaled to each radius."""
    rng = np.random.default_rng(seed)
    direction = PhasePoint.random(f.cutoff, rng, real=True)
    base = weighted_norm(direction, NormParams(alpha=alpha))
    values = []
    for r in radii:
        z = PhasePoint(f.cutoff, direction.xi * (r / base), direction.eta * (r / base))
        if quantity == "gradient":
            values.append(gradient_norm(gradient(f, z), alpha))
        elif quantity == "hessian":
            values.append(hessian_norm(hessian(f, z), beta))
        else:
            raise ValueError("quantity must be 'gradient' or 'hessian'")
    logs_r = np.log(np.asarray(radii, dtype=float))
    logs_v = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(logs_r, logs_v, 1)
    return RadialScalingFit(
        exponent=float(slope),
        constant=float(np.exp(intercept)),
        radii=tuple(radii),
        values=tuple(values),
    )

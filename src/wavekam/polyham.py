"""Sparse polynomial Hamiltonians on the truncated Fourier phase space.

State variables are (xi_s, eta_s) for |s| <= cutoff; on the real subspace
eta_s = conj(xi_s).  A monomial is a pair of sorted index tuples (with
repetition), e.g. xi_1^2 eta_0 eta_3 -> ((1, 1), (0, 3)).  Canonical
ordering is lexicographic on (xi indices, eta indices), which makes
serialization deterministic and diffable.

The tuples are the API; the storage is index rows.  A PolyHamiltonian
keeps one index row per term, in insertion order, beside the real and
imaginary parts of its coefficients, and builds Monomials only when a
caller iterates over it or looks a coefficient up.  Its algebra rounds as
Python's complex arithmetic does, and the build_p4 and poisson_bracket
kernels add their contributions one at a time in the order of the
term-by-term loop, so coefficients are bitwise those of a dict of
Monomials and terms come in the same order.

Everything here is exact symbolic algebra over complex double coefficients;
the only approximation anywhere is rounding.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# Index rows
# ---------------------------------------------------------------------------
#
# An index row holds a monomial's xi part, then its eta part, each `width`
# (at least 1) wide: the indices sorted, offset by the cutoff, and padded at
# the end with 2 cutoff + 1.

def _encode(monomials: Sequence[Monomial], cutoff: int, width: int = 1) -> np.ndarray:
    """Index rows of monomials within the cutoff, each part at least `width` wide."""
    width = max([width] + [max(len(m.xi), len(m.eta)) for m in monomials])
    # pads given as c + 1, so that the offset by c turns them into 2 c + 1
    padded = [(m.xi + (cutoff + 1,) * (width - len(m.xi)),
               m.eta + (cutoff + 1,) * (width - len(m.eta))) for m in monomials]
    rows = np.array(padded, dtype=np.int64).reshape(len(monomials), 2 * width) + cutoff
    return rows.astype(np.min_scalar_type(2 * cutoff + 1))


def _keys(rows: np.ndarray, pad: int) -> np.ndarray:
    """One key per row, ordered as the rows lexicographically.

    Rows are packed into int64 words of as many base-(pad + 1) digits as fit,
    one word after another, so rows of any width compare exactly.  The key
    is the one word itself, or the words' big-endian bytes.
    """
    base = pad + 1
    digits = 1
    while base ** (digits + 1) < 2 ** 63:
        digits += 1
    n_words = max(1, -(-rows.shape[1] // digits))
    words = np.zeros((len(rows), n_words), dtype=np.int64)
    for col in range(rows.shape[1]):
        word = words[:, col // digits]
        word *= base
        word += rows[:, col]
    if n_words == 1:
        return words[:, 0]
    be = np.ascontiguousarray(words, dtype=">i8")
    return be.view(np.dtype((np.void, 8 * n_words))).ravel()


def _find(rows: np.ndarray, queries: np.ndarray, pad: int) -> np.ndarray:
    """Position of each query row among `rows` (distinct rows of the same
    width), -1 where it is absent."""
    if not len(rows):
        return np.full(len(queries), -1)
    keys, wanted = _keys(rows, pad), _keys(queries, pad)
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)
    return np.where(keys[order][at] == wanted, order[at], -1)


@functools.cache
def _network(width: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge sort
    on `width` columns: the network for the next power of two with every
    pair that reaches past the last column left out (those columns would
    hold +inf, so the pair would never exchange)."""
    n = 1 << max(0, width - 1).bit_length()
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple((i, j) for i, j in pairs if j < width)


def _sort_rows(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Short rows of integers, given as their columns (equal-shape arrays,
    such as rows.T), sorted along the row by a fixed compare-exchange
    network run on whole columns; the sorted columns, np.sort's result."""
    cols = list(columns)
    for i, j in _network(len(cols)):
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return cols


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float, formatted once per distinct bit pattern (so 0.0
    and -0.0 keep their own texts)."""
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    texts = np.array([repr(v) for v in values[first].tolist()], dtype=object)
    return texts[inverse].tolist()


def _cmul(ar, ai, br, bi):
    """CPython's complex product, (ar br - ai bi) + i (ar bi + ai br), on
    real and imaginary parts, so that it rounds (signed zeros included)
    exactly as Python's complex multiplication does."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, b):
    """CPython's complex quotient (ar + i ai) / b for a real non-zero b,
    which Python divides as the complex b + 0i; the parts then carry terms
    ai * (0 / b) that can change the sign of a zero."""
    ratio = 0.0 / b
    denom = b + 0.0 * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


class PolyHamiltonian:
    """Sparse complex polynomial in (xi, eta) at a fixed Fourier cutoff: index
    rows in insertion order beside the parts of their non-zero coefficients."""

    __slots__ = ("cutoff", "_rows", "_re", "_im")

    def __init__(self, cutoff: int, terms: Optional[dict[Monomial, complex]] = None):
        self.cutoff = int(cutoff)
        kept = [(m, complex(c)) for m, c in (terms or {}).items() if c != 0]
        for m, _ in kept:
            if m.max_index() > self.cutoff:
                raise ValueError(f"monomial {m} exceeds cutoff {self.cutoff}")
        self._rows = _encode([m for m, _ in kept], self.cutoff)
        coeffs = np.array([c for _, c in kept], dtype=complex)
        self._re, self._im = coeffs.real.copy(), coeffs.imag.copy()

    @classmethod
    def _from_rows(cls, cutoff: int, rows: np.ndarray, re: np.ndarray,
                   im: np.ndarray) -> "PolyHamiltonian":
        """Polynomial on distinct index rows of monomials within the cutoff;
        terms whose coefficient is zero are dropped."""
        keep = (re != 0) | (im != 0)
        poly = cls.__new__(cls)
        poly.cutoff = cutoff
        poly._rows, poly._re, poly._im = rows[keep], re[keep], im[keep]
        return poly

    @property
    def _pad(self) -> int:
        return 2 * self.cutoff + 1

    @property
    def _width(self) -> int:
        return self._rows.shape[1] // 2

    def _widened(self, width: int) -> np.ndarray:
        """The index rows with each part padded out to `width`."""
        w = self._width
        filler = np.full((len(self), width - w), self._pad, dtype=self._rows.dtype)
        return np.concatenate([self._rows[:, :w], filler, self._rows[:, w:], filler], axis=1)

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._re)

    def __iter__(self) -> Iterator[tuple[Monomial, complex]]:
        w = self._width
        n_xi, n_eta = self.part_degrees()
        rows = (self._rows.astype(np.int64) - self.cutoff).tolist()
        monomials = (Monomial(tuple(row[:a]), tuple(row[w:w + b]))
                     for row, a, b in zip(rows, n_xi.tolist(), n_eta.tolist()))
        coeffs = np.empty(len(self), dtype=complex)
        coeffs.real, coeffs.imag = self._re, self._im
        return zip(monomials, coeffs.tolist())

    def coeff(self, m: Monomial) -> complex:
        if m.max_index() > self.cutoff or max(len(m.xi), len(m.eta)) > self._width:
            return 0j
        at = int(_find(self._rows, _encode([m], self.cutoff, self._width), self._pad)[0])
        return complex(self._re[at], self._im[at]) if at >= 0 else 0j

    @property
    def degree(self) -> int:
        return int(sum(self.part_degrees()).max(initial=0))

    def max_abs_coeff(self) -> float:
        """max |c| over the terms, each |c| as Python's abs(complex) rounds it."""
        return float(np.hypot(self._re, self._im).max(initial=0.0))

    # -- per-term arrays ------------------------------------------------------
    def part_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Number of xi factors and of eta factors in each term."""
        present = self._rows != self._pad
        w = self._width
        return present[:, :w].sum(axis=1), present[:, w:].sum(axis=1)

    def factor_values(self, table, fill) -> tuple[np.ndarray, np.ndarray]:
        """table[s + cutoff] for each xi factor s and each eta factor s of each
        term, as two (terms, width) arrays in index order, `fill` past a
        part's last factor."""
        values = np.append(np.asarray(table), fill)
        w = self._width
        return values[self._rows[:, :w]], values[self._rows[:, w:]]

    def divisors(self, fs: FrequencySystem) -> np.ndarray:
        """Signed frequency combination sum_xi lambda - sum_eta lambda of
        each term, each sum added factor by factor in index order."""
        lam = fs.lam(np.arange(-self.cutoff, self.cutoff + 1))
        xi, eta = self.factor_values(lam, 0.0)
        return np.add.accumulate(xi, axis=1)[:, -1] - np.add.accumulate(eta, axis=1)[:, -1]

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        """The sum in the order of a dict filled from self, then from other;
        a shared term keeps its place and a zero sum is dropped."""
        self._check_cutoff(other)
        width = max(self._width, other._width)
        rows, other_rows = self._widened(width), other._widened(width)
        at = _find(rows, other_rows, self._pad)
        shared, new = at >= 0, at < 0
        re, im = self._re.copy(), self._im.copy()
        re[at[shared]] += other._re[shared]
        im[at[shared]] += other._im[shared]
        # a new key's coefficient is 0j + c, which turns -0.0 into 0.0
        return PolyHamiltonian._from_rows(
            self.cutoff, np.concatenate([rows, other_rows[new]]),
            np.concatenate([re, 0.0 + other._re[new]]),
            np.concatenate([im, 0.0 + other._im[new]]))

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "PolyHamiltonian":
        factor = complex(factor)
        re, im = _cmul(self._re, self._im, factor.real, factor.imag)
        return PolyHamiltonian._from_rows(self.cutoff, self._rows, re, im)

    def filter(self, keep) -> "PolyHamiltonian":
        """The terms that a boolean mask (or an index array) over the terms
        selects, in their order."""
        return PolyHamiltonian._from_rows(self.cutoff, self._rows[keep],
                                          self._re[keep], self._im[keep])

    def _check_cutoff(self, other: "PolyHamiltonian") -> None:
        if self.cutoff != other.cutoff:
            raise ValueError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    # -- structural predicates ----------------------------------------------
    def is_real_hamiltonian(self, tol: float = 1e-12) -> bool:
        """Real-valued on the real subspace: c(xi^a eta^b) == conj(c(xi^b eta^a))."""
        w = self._width
        conjugate = PolyHamiltonian._from_rows(
            self.cutoff, np.roll(self._rows, w, axis=1), self._re, -self._im)
        return (self - conjugate).max_abs_coeff() <= tol * (self.max_abs_coeff() or 1.0)

    def conserves_momentum(self) -> bool:
        xi, eta = self.factor_values(np.arange(-self.cutoff, self.cutoff + 1), 0)
        return bool(np.all(xi.sum(axis=1) == eta.sum(axis=1)))

    def max_coeff_diff(self, other: "PolyHamiltonian") -> float:
        """Coefficientwise max |self - other|."""
        return (self - other).max_abs_coeff()

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, z: "PhasePoint") -> complex:
        (xi, _), (_, eta) = self.factor_values(z.xi, 1.0), self.factor_values(z.eta, 1.0)
        terms = (self._re + 1j * self._im) * np.prod(xi, axis=1) * np.prod(eta, axis=1)
        return complex(terms.sum())

    # -- serialization ---------------------------------------------------------
    def serialize(self) -> str:
        """One line per monomial in Monomial order:
        "xi:<idx^exp,...> eta:<...> re:<..> im:<..>"."""
        # with the pad mapped to 0 ahead of every index, a lexsort of the rows
        # is tuple order, where (1,) comes before (1, 2)
        order = np.lexsort(((self._rows.astype(np.int64) + 1) % (self._pad + 1)).T[::-1])
        rows = self._rows[order]
        w = self._width
        lines = [f"# cutoff: {self.cutoff}"]
        lines += [f"xi:{x} eta:{e} re:{re} im:{im}" for x, e, re, im in zip(
            self._exponent_texts(rows[:, :w]), self._exponent_texts(rows[:, w:]),
            _reprs(self._re[order]), _reprs(self._im[order]))]
        return "\n".join(lines) + "\n"

    def _exponent_texts(self, part: np.ndarray) -> list[str]:
        """"<idx^exp,...>" of each row of one part ("-" for none), built once
        per distinct row by joining, column by column, the "idx^exp" texts of
        its runs of equal indices from a table indexed by index and run
        length."""
        pad, cutoff = self._pad, self.cutoff
        _, first, inverse = np.unique(_keys(part, pad), return_index=True,
                                      return_inverse=True)
        rows = part[first]
        width = rows.shape[1]
        # the rows are sorted, so a run starts where the index changes and
        # its length is the number of times the index occurs in the row
        starts = rows[:, 1:] != rows[:, :-1]
        runs = (rows[:, :, None] == rows[:, None, :]).sum(axis=2)
        table = np.array([[f"{s - cutoff}^{e}" for e in range(width + 1)]
                          for s in range(pad)] + [["-"] * (width + 1)], dtype=object)
        texts = table[rows[:, 0], runs[:, 0]]
        for col in range(1, width):
            run = starts[:, col - 1] & (rows[:, col] != pad)
            texts = texts + np.where(run, "," + table[rows[:, col], runs[:, col]], "")
        return texts[inverse].tolist()


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
# Index-row kernels
# ---------------------------------------------------------------------------
#
# build_p4 and poisson_bracket generate their contributions a block at a
# time, in the order of the loop they stand for, and _GroupSum adds them one
# at a time in that order: each coefficient is the sequential sum
# 0j + c_1 + c_2 + ... of a dict filled term by term.

# contribution rows generated and summed at a time
BLOCK_ROWS = 1 << 14


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


def _factors(poly: PolyHamiltonian, drop_xi: bool):
    """Every (term, mode j) where j is a factor of the term's xi part
    (drop_xi) or eta part, by j then term: the term, j, the exponent as a
    float, and the columns of the term's xi and eta rows with one factor j
    taken out of that part, as two (width, entries) arrays."""
    w, pad = poly._width, poly._pad
    xi, eta = poly._rows[:, :w], poly._rows[:, w:]
    part = xi if drop_xi else eta
    # exponent of each mode (columns -cutoff..cutoff, then the pad) in each term
    count = np.zeros((len(part), pad + 1), dtype=np.min_scalar_type(w))
    for column in part.T:
        count[np.arange(len(part)), column] += 1
    mode, term = np.nonzero(count[:, :pad].T)
    xi, eta = xi[term], eta[term]
    rows = xi if drop_xi else eta
    if len(term):
        rows[np.arange(len(term)), np.argmax(rows == mode[:, None], axis=1)] = pad
    return term, mode, count[term, mode].astype(float), xi.T.copy(), eta.T.copy()


class _GroupSum:
    """Sums of contributions keyed by index rows (xi part, then eta part,
    each `width` wide), added one at a time in the order given.

    The keys seen so far are kept sorted, beside the id of each: its rank in
    order of first appearance.  A block's rows are grouped by an unstable
    sort of their keys; the order within a group does not matter, since a
    group's earliest row is the least of its positions and np.add.at adds
    the rows in their given order.
    """

    def __init__(self, cutoff: int, width: int):
        self.cutoff = cutoff
        self.width = width
        self.pad = 2 * cutoff + 1
        self._known = _keys(np.zeros((0, 2 * width), dtype=np.int64), self.pad)
        self._known_ids = np.zeros(0, dtype=np.intp)
        self._rows: list[np.ndarray] = []
        self._re = np.zeros(0)
        self._im = np.zeros(0)

    def add(self, rows: np.ndarray, re: np.ndarray, im: np.ndarray) -> None:
        """Add re[k] + i im[k] to the coefficient of rows[k], for k in order."""
        if not len(rows):
            return
        keys = _keys(rows, self.pad)
        order = np.argsort(keys)
        ordered = keys[order]
        starts = np.ones(len(rows), dtype=bool)
        starts[1:] = ordered[1:] != ordered[:-1]
        group = np.cumsum(starts) - 1
        # a group's earliest row, whatever order the sort left its rows in
        first = np.minimum.reduceat(order, np.flatnonzero(starts))
        keys = ordered[starts]
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
        """The sums as a polynomial on their rows, zero coefficients dropped,
        terms in order of first appearance."""
        rows = np.concatenate(self._rows or [
            np.zeros((0, 2 * self.width), dtype=np.min_scalar_type(self.pad))])
        return PolyHamiltonian._from_rows(self.cutoff, rows, self._re, self._im)


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
    # a product's part holds one part of each term, less the factor taken out
    width = max(1, min(width, f._width + g._width - 1))
    n_modes = f._pad
    f_degree, g_degree = (sum(p.part_degrees()) for p in (f, g))
    f_re, f_im = _cmul(0.0, 1.0, f._re, f._im)          # 1j c_f
    # side 0 pairs eta_j in f with xi_j in g, side 1 xi_j in f with eta_j in g
    sides = [(_factors(f, drop_xi=False), _factors(g, drop_xi=True)),
             (_factors(f, drop_xi=True), _factors(g, drop_xi=False))]
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
                keep = f_degree[f_term[a]] + g_degree[g_term[b]] - 2 <= max_degree
                a, b = a[keep], b[keep]
            xi = _sort_rows([c[a] for c in f_xi] + [c[b] for c in g_xi])
            eta = _sort_rows([c[a] for c in f_eta] + [c[b] for c in g_eta])
            rows.append(np.stack(xi[:width] + eta[:width], axis=1))
            fa, gb = f_term[a], g_term[b]
            c_re, c_im = _cmul(f_re[fa], f_im[fa], g._re[gb], g._im[gb])
            c_re, c_im = _cmul(c_re, c_im, f_exp[a], 0.0)
            c_re, c_im = _cmul(c_re, c_im, g_exp[b], 0.0)
            if side == 1:
                c_re, c_im = -c_re, -c_im
            re.append(c_re)
            im.append(c_im)
            keys.append((((fa - lo) * len(g) + gb) * 2 + side) * n_modes + f_mode[a])
        order = np.argsort(np.concatenate(keys))
        # np.take copies short rows several times faster than rows[order]
        out.add(np.take(np.concatenate(rows), order, axis=0), np.concatenate(re)[order],
                np.concatenate(im)[order])
    return out.result()


def bracket_with_h2(f: PolyHamiltonian, fs: FrequencySystem) -> PolyHamiltonian:
    """{H2, f} computed by the diagonal rule: each monomial xi^a eta^b is
    scaled by i (sum_a lambda - sum_b lambda), rounded as Python's
    1j * d * c.  Must agree with the generic bracket against build_h2
    exactly."""
    re, im = _cmul(*_cmul(0.0, 1.0, f.divisors(fs), 0.0), f._re, f._im)
    return PolyHamiltonian._from_rows(f.cutoff, f._rows, re, im)


def solve_h2_bracket(f: PolyHamiltonian, divisors: np.ndarray) -> PolyHamiltonian:
    """chi with {H2, chi} = -f, given the non-zero divisors of f's terms:
    each coefficient c becomes i c / d, rounded as Python's 1j * c / d."""
    re, im = _cdiv(*_cmul(0.0, 1.0, f._re, f._im), divisors)
    return PolyHamiltonian._from_rows(f.cutoff, f._rows, re, im)


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
    """The quartic interaction; solve_homological splits it by (xi-degree,
    eta-degree) pattern."""

    total: PolyHamiltonian

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
    # each quadruple as an xi part and an eta part, (quadruples, 2, 4)
    parts = np.stack([quads + cutoff, cutoff - quads], axis=1).astype(dtype)
    out = _GroupSum(cutoff, 4)
    step = max(1, BLOCK_ROWS // 16)
    # the 16 patterns, once for each quadruple of a full block, as the pad
    # where a factor goes to the other part and 0 where it stays: the pad
    # exceeds every index, so np.maximum applies the pattern
    blank = np.tile(np.where(np.stack([~to_xi, to_xi], axis=1), pad, 0).astype(dtype),
                    (step, 1, 1))
    for lo in range(0, len(quads), step):
        hi = min(lo + step, len(quads))
        rows = np.maximum(np.repeat(parts[lo:hi], 16, axis=0), blank[:16 * (hi - lo)])
        rows = np.stack(_sort_rows(np.moveaxis(rows, 2, 0)), axis=2).reshape(-1, 8)
        contrib = np.repeat(base[lo:hi], 16)
        out.add(rows, contrib, np.zeros_like(contrib))
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
        values=tuple(values),
    )

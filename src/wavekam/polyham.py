"""Sparse polynomial Hamiltonians on the truncated Fourier phase space.

State variables are (xi_s, eta_s) for |s| <= cutoff; on the real subspace
eta_s = conj(xi_s).  A monomial is stored as a pair of sorted index tuples
(with repetition), e.g. xi_1^2 eta_0 eta_3 -> ((1, 1), (0, 3)).  Canonical
ordering is lexicographic on (xi indices, eta indices), which makes
serialization deterministic and diffable.

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

    @property
    def xi_exponents(self) -> dict[int, int]:
        return dict(Counter(self.xi))

    def conjugate(self) -> "Monomial":
        """Swap xi and eta roles (complex conjugation on the real subspace)."""
        return Monomial(self.eta, self.xi)

    def max_index(self) -> int:
        return max((abs(s) for s in self.xi + self.eta), default=0)


def mono(xi: Iterable[int] = (), eta: Iterable[int] = ()) -> Monomial:
    return Monomial(tuple(sorted(xi)), tuple(sorted(eta)))


def _remove_one(t: tuple[int, ...], value: int) -> tuple[int, ...]:
    i = t.index(value)
    return t[:i] + t[i + 1:]


def _merge(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(t1 + t2))


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
        return PolyHamiltonian(self.cutoff, out)

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "PolyHamiltonian":
        return PolyHamiltonian(self.cutoff, {m: c * factor for m, c in self._terms.items()})

    def filter(self, predicate: Callable[[Monomial], bool]) -> "PolyHamiltonian":
        return PolyHamiltonian(self.cutoff, {m: c for m, c in self._terms.items() if predicate(m)})

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
# Poisson brackets
# ---------------------------------------------------------------------------

def poisson_bracket(f: PolyHamiltonian, g: PolyHamiltonian,
                    max_degree: Optional[int] = None) -> PolyHamiltonian:
    """{f, g} = i sum_j (df/deta_j dg/dxi_j - df/dxi_j dg/deta_j).

    Exact symbolic bracket.  With max_degree set, term pairs whose bracket
    degree (deg f + deg g - 2) exceeds it are skipped before any work.
    """
    f._check_cutoff(g)
    acc: dict[Monomial, complex] = defaultdict(complex)
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
                    key = Monomial(
                        _merge(m1.xi, _remove_one(m2.xi, j)),
                        _merge(_remove_one(m1.eta, j), m2.eta),
                    )
                    acc[key] += base * e1 * e2
            for j, e2 in Counter(m2.eta).items():
                e1 = xi1.get(j)
                if e1:
                    key = Monomial(
                        _merge(_remove_one(m1.xi, j), m2.xi),
                        _merge(m1.eta, _remove_one(m2.eta, j)),
                    )
                    acc[key] -= base * e1 * e2
    return PolyHamiltonian(f.cutoff, acc)


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
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    lam = {s: float(fs.lam(s)) for s in range(-cutoff, cutoff + 1)}
    acc: dict[Monomial, complex] = defaultdict(complex)
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
                    xi_part = []
                    eta_part = []
                    for t, pick_xi in mask:
                        if pick_xi:
                            xi_part.append(quad[t])
                        else:
                            eta_part.append(-quad[t])
                    acc[mono(xi_part, eta_part)] += base
    return P4Split(PolyHamiltonian(cutoff, acc))


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

"""Independent checks of each torus-study stage's outputs.

Every check recomputes what it compares against with its own code (numpy
enumerations, pointwise brackets from gradients, closed forms with the
benchmark's own frequencies) or tests a property the method must have.  None
of them calls into wavekam.  Each returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np

Terms = list[tuple[tuple[int, ...], tuple[int, ...], complex]]


def frequencies(indices, mass: float) -> np.ndarray:
    """lambda_s = sqrt(s^2 + m), the dispersion relation of u_tt - u_xx + m u."""
    s = np.asarray(indices, dtype=float)
    return np.sqrt(s * s + mass)


def z4_closed_form(l: int, k: int, mass: float) -> float:
    """Coefficient of I_l I_k in Z4: (3/4pi)(4 - 3 delta_lk)/(lambda_l lambda_k)."""
    delta = 1.0 if l == k else 0.0
    lam_l, lam_k = frequencies([l, k], mass)
    return 3.0 / (4.0 * math.pi) * (4.0 - 3.0 * delta) / (lam_l * lam_k)


# ---------------------------------------------------------------------------
# birkhoff
# ---------------------------------------------------------------------------

_POLY_LINE = re.compile(r"xi:(\S+) eta:(\S+) re:(\S+) im:(\S+)$")


def _parse_exponents(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    out: list[int] = []
    for part in text.split(","):
        s, e = part.split("^")
        out.extend([int(s)] * int(e))
    return tuple(sorted(out))


def parse_normal_form_sections(text: str) -> dict[str, Terms]:
    """Sections of a serialized normal form, each as (xi, eta, coeff) terms."""
    sections: dict[str, Terms] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# section:"):
            current = sections.setdefault(line.split(":", 1)[1].strip(), [])
            continue
        match = _POLY_LINE.match(line.strip())
        if match and current is not None:
            xi, eta, re_, im = match.groups()
            current.append((_parse_exponents(xi), _parse_exponents(eta),
                            complex(float(re_), float(im))))
    return sections


def check_birkhoff(summary: dict, normal_form_text: str, modes, mass: float) -> list[str]:
    """Z4 is action-only with the closed-form I_l I_k coefficients, and the
    homological residual is at rounding level."""
    problems = []
    if not summary.get("residual_norm", math.inf) <= 1e-10:
        problems.append(f"residual_norm {summary.get('residual_norm')} > 1e-10")
    if summary.get("vanishing_ok") is not True:
        problems.append("vanishing_ok is not true")
    modes = sorted(modes)
    table = summary.get("z4_plus_table", {})
    expected_keys = {f"{l},{k}" for i, l in enumerate(modes) for k in modes[i:]}
    if set(table) != expected_keys:
        problems.append(f"Z4 table keys {sorted(table)} != {sorted(expected_keys)}")
    for key in sorted(expected_keys & set(table)):
        l, k = (int(x) for x in key.split(","))
        want = z4_closed_form(l, k, mass)
        got = table[key]
        if abs(got["actual_re"] - want) > 1e-12 * want or abs(got["actual_im"]) > 1e-12 * want:
            problems.append(f"Z4 table ({key}) = {got['actual_re']}+{got['actual_im']}j, "
                            f"closed form {want}")
    z4 = parse_normal_form_sections(normal_form_text).get("Z4", [])
    if not z4:
        problems.append("normal form has no Z4 section")
    for xi, eta, c in z4:
        if xi != eta:
            problems.append(f"Z4 monomial xi={xi} eta={eta} is not an action")
            continue
        want = z4_closed_form(xi[0], xi[1], mass)
        if abs(c - want) > 1e-12 * want:
            problems.append(f"Z4 coefficient of I_{xi[0]} I_{xi[1]} = {c}, closed form {want}")
    return problems


# ---------------------------------------------------------------------------
# remainder: pointwise brackets from gradients
# ---------------------------------------------------------------------------

class PointPoly:
    """Polynomial of one degree as index arrays into v = (xi, eta), for
    pointwise evaluation and gradients."""

    def __init__(self, terms: Terms, cutoff: int):
        self.size = 2 * cutoff + 1
        self.cutoff = cutoff
        degrees = {len(xi) + len(eta) for xi, eta, _ in terms}
        if len(degrees) > 1:
            raise ValueError(f"mixed degrees {sorted(degrees)}")
        degree = degrees.pop() if degrees else 0
        self.slots = np.array(
            [[s + cutoff for s in xi] + [self.size + s + cutoff for s in eta]
             for xi, eta, _ in terms], dtype=np.int64).reshape(len(terms), degree)
        self.coeffs = np.array([c for _, _, c in terms], dtype=complex)

    def _factors(self, v: np.ndarray) -> np.ndarray:
        return v[self.slots]

    def value(self, v: np.ndarray) -> complex:
        return complex(np.sum(self.coeffs * np.prod(self._factors(v), axis=1)))

    def abs_value(self, v: np.ndarray) -> float:
        """Sum of |term| at v, the scale against which rounding is judged."""
        return float(np.sum(np.abs(self.coeffs) * np.prod(np.abs(self._factors(v)), axis=1)))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """d/dv of the polynomial by the product rule over factor slots."""
        factors = self._factors(v)
        grad = np.zeros(2 * self.size, dtype=complex)
        for p in range(self.slots.shape[1]):
            others = np.prod(np.delete(factors, p, axis=1), axis=1)
            np.add.at(grad, self.slots[:, p], self.coeffs * others)
        return grad


def pointwise_bracket(f: PointPoly, g: PointPoly, v: np.ndarray) -> complex:
    """{f, g}(v) = i sum_j (df/deta_j dg/dxi_j - df/dxi_j dg/deta_j)."""
    n = f.size
    gf, gg = f.gradient(v), g.gradient(v)
    return complex(1j * np.sum(gf[n:] * gg[:n] - gf[:n] * gg[n:]))


def check_remainder(p4: Terms, z4: Terms, q4: Terms, chi4: Terms, r6: Terms,
                    cutoff: int, mass: float, rng: np.random.Generator,
                    points: int = 3, rtol: float = 1e-10) -> list[str]:
    """R6 matches (1/2){P4 + Z4 + Q4, chi4} at random points, {H2, chi4}
    matches Z4 + Q4 - P4 there, and R6 is real and conserves momentum."""
    problems = []
    if not r6:
        return ["R6 is empty"]
    for xi, eta, c in r6:
        if sum(xi) != sum(eta):
            problems.append(f"R6 monomial xi={xi} eta={eta} carries momentum")
            break
    coeff = {(xi, eta): c for xi, eta, c in r6}
    scale = max(abs(c) for c in coeff.values())
    for (xi, eta), c in coeff.items():
        if abs(c - coeff.get((eta, xi), 0j).conjugate()) > 1e-12 * scale:
            problems.append(f"R6 is not real at xi={xi} eta={eta}")
            break
    polys = {name: PointPoly(t, cutoff) for name, t in
             (("P4", p4), ("Z4", z4), ("Q4", q4), ("chi4", chi4), ("R6", r6))}
    lam = frequencies(np.arange(-cutoff, cutoff + 1), mass)
    size = 2 * cutoff + 1
    for i in range(points):
        xi = 0.4 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        real = i == 0
        eta = xi.conj() if real else 0.4 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        v = np.concatenate([xi, eta])
        r6_val = polys["R6"].value(v)
        bracket = sum(0.5 * pointwise_bracket(polys[name], polys["chi4"], v)
                      for name in ("P4", "Z4", "Q4"))
        tol = rtol * (polys["R6"].abs_value(v) + 1e-300)
        if abs(r6_val - bracket) > tol:
            problems.append(f"point {i}: R6 = {r6_val}, (1/2){{P4+Z4+Q4, chi4}} = {bracket}")
        if real and abs(r6_val.imag) > tol:
            problems.append(f"R6 is not real on the real subspace: {r6_val}")
        # {H2, chi4}(v) from the diagonal H2 = sum lambda_s xi_s eta_s
        g = polys["chi4"].gradient(v)
        h2chi = complex(1j * np.sum(lam * (xi * g[:size] - eta * g[size:])))
        rhs = polys["Z4"].value(v) + polys["Q4"].value(v) - polys["P4"].value(v)
        scale_h = rtol * (polys["P4"].abs_value(v) + 1e-300)
        if abs(h2chi - rhs) > scale_h:
            problems.append(f"point {i}: {{H2, chi4}} = {h2chi}, Z4 + Q4 - P4 = {rhs}")
    return problems


# ---------------------------------------------------------------------------
# divisors: the benchmark's own table of omega.k +/- lambda_a +/- lambda_b
# ---------------------------------------------------------------------------

def k_vectors(n: int, N: int) -> np.ndarray:
    """Integer vectors with 0 < |k|_1 <= N, in lexicographic order."""
    rows = [k for k in itertools.product(range(-N, N + 1), repeat=n)
            if 0 < sum(abs(x) for x in k) <= N]
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


class DivisorTable:
    """Every divisor query of kinds D0..D3 over 0 < |k|_1 <= N and normal
    |a|, |b| <= S (plus D3 at k = 0 with |a| != |b|), as flat arrays.

    A divisor is resonant when it vanishes identically in the mass.  The
    functions sqrt(s^2 + m) for distinct |s| are linearly independent, so
    that happens exactly when the integer coefficient of every |s| cancels.
    """

    def __init__(self, modes, N: int, S: int):
        self.modes = tuple(sorted(modes))
        n = len(self.modes)
        normals = np.array([s for s in range(-S, S + 1) if s not in self.modes], dtype=np.int64)
        ks = k_vectors(n, N)
        nk, na = len(ks), len(normals)
        parts = []   # (kind, k rows, a, b, b sign)
        parts.append(("D0", ks, np.full(nk, -1), np.full(nk, -1), 0))
        kk, aa = np.repeat(ks, na, axis=0), np.tile(normals, nk)
        parts.append(("D1", kk, aa, np.full(len(aa), -1), 0))
        pa, pb = np.repeat(normals, na), np.tile(normals, na)
        kk = np.repeat(ks, na * na, axis=0)
        parts.append(("D2", kk, np.tile(pa, nk), np.tile(pb, nk), 1))
        ks3 = np.vstack([ks, np.zeros((1, n), dtype=np.int64)])
        kk, a3, b3 = np.repeat(ks3, na * na, axis=0), np.tile(pa, nk + 1), np.tile(pb, nk + 1)
        keep = np.any(kk != 0, axis=1) | (np.abs(a3) != np.abs(b3))
        parts.append(("D3", kk[keep], a3[keep], b3[keep], -1))
        self.kind = np.concatenate([np.full(len(p[1]), p[0]) for p in parts])
        self.k = np.vstack([p[1] for p in parts])
        self.a = np.concatenate([p[2] for p in parts])
        self.b = np.concatenate([p[3] for p in parts])
        self.has_a = self.kind != "D0"
        self.b_sign = np.concatenate([np.full(len(p[1]), p[4]) for p in parts]).astype(float)
        bra_a = np.maximum(np.abs(self.a), 1).astype(float)
        bra_b = np.maximum(np.abs(self.b), 1).astype(float)
        self.weight = np.select(
            [self.kind == "D0", self.kind == "D1", self.kind == "D2"],
            [1.0, bra_a, bra_a + bra_b],
            1.0 + np.abs(np.abs(self.a) - np.abs(self.b)))
        width = max(S, max(abs(s) for s in self.modes)) + 1
        onehot = np.zeros((n, width), dtype=np.int64)
        onehot[np.arange(n), np.abs(self.modes)] = 1
        coef = self.k @ onehot
        rows = np.arange(len(self.kind))
        np.add.at(coef, (rows[self.has_a], np.abs(self.a[self.has_a])), 1)
        has_b = self.b_sign != 0
        np.add.at(coef, (rows[has_b], np.abs(self.b[has_b])), self.b_sign[has_b].astype(np.int64))
        self.resonant = ~np.any(coef != 0, axis=1)

    def __len__(self) -> int:
        return len(self.kind)

    def values(self, mass) -> np.ndarray:
        """Divisor values, shape (len(mass), queries) for an array of masses."""
        mass = np.atleast_1d(np.asarray(mass, dtype=float))
        omega = np.sqrt(np.square(np.array(self.modes, dtype=float))[None, :] + mass[:, None])
        out = omega @ self.k.T.astype(float)
        a_lam = np.sqrt(np.square(self.a.astype(float))[None, :] + mass[:, None])
        b_lam = np.sqrt(np.square(self.b.astype(float))[None, :] + mass[:, None])
        return out + np.where(self.has_a, a_lam, 0.0) + self.b_sign * b_lam

    def violations(self, mass: float, kappa: float) -> np.ndarray:
        """Indices of non-resonant queries with |value| < kappa * weight."""
        vals = self.values(mass)[0]
        return np.nonzero(~self.resonant & (np.abs(vals) < kappa * self.weight))[0]


def _num(text: str) -> float:
    """Float from a CSV cell, accepting numpy's np.float64(...) repr."""
    text = text.strip()
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def check_divisors(csv_text: str, modes, mass: float, kappa: float, N: int,
                   S: int) -> list[str]:
    """The reported violation rows equal the benchmark's own enumeration,
    and every row is certified."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if not rows:
        return ["no violation rows: choose a kappa at which the scan reports some"]
    table = DivisorTable(modes, N, S)
    values = table.values(mass)[0]
    expected = {}
    for i in table.violations(mass, kappa):
        a = None if table.kind[i] == "D0" else int(table.a[i])
        b = int(table.b[i]) if table.b_sign[i] != 0 else None
        key = (str(table.kind[i]), tuple(int(x) for x in table.k[i]), a, b)
        expected[key] = (float(values[i]), kappa * float(table.weight[i]))
    problems = []
    got = {}
    for row in rows:
        a = None if row["a"] == "None" else int(row["a"])
        b = None if row["b"] == "None" else int(row["b"])
        key = (row["kind"], tuple(int(x) for x in row["k"].split(";")), a, b)
        if key in got:
            problems.append(f"duplicate row {key}")
        got[key] = (_num(row["value"]), _num(row["required"]))
        if row.get("certified") != "1":
            problems.append(f"row {key} is not certified")
        if row["resonant"] != "0" or row["satisfied"] != "0":
            problems.append(f"row {key} is marked resonant or satisfied")
    for key in sorted(set(expected) - set(got), key=str):
        problems.append(f"missing violation {key}")
    for key in sorted(set(got) - set(expected), key=str):
        problems.append(f"unexpected violation {key}")
    for key in set(got) & set(expected):
        (v, r), (ev, er) = got[key], expected[key]
        if abs(v - ev) > 1e-12 * max(1.0, abs(ev)) or abs(r - er) > 1e-15 * er:
            problems.append(f"row {key}: value {v} required {r}, expected {ev} {er}")
    return problems


# ---------------------------------------------------------------------------
# excluded mass
# ---------------------------------------------------------------------------

def excluded_fraction(modes, kappa: float, N: int, S: int, grid: int,
                      chunk: int = 256) -> float:
    """Share of the grid masses linspace(1, 2, grid) at which some
    non-resonant divisor falls below kappa * weight."""
    table = DivisorTable(modes, N, S)
    keep = ~table.resonant
    required = kappa * table.weight[keep]
    masses = np.linspace(1.0, 2.0, grid)
    excluded = 0
    for start in range(0, grid, chunk):
        vals = table.values(masses[start:start + chunk])[:, keep]
        excluded += int(np.count_nonzero(np.any(np.abs(vals) < required, axis=1)))
    return excluded / grid


def check_excluded_mass(csv_text: str, modes, kappas, kmaxes, smax: int, grid: int,
                        verify_kappa: float) -> list[str]:
    """Fractions lie in [0, 1], do not decrease in kappa or in N, and the
    cell (verify_kappa, min N) matches a full recomputation of the grid."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    frac = {}
    for row in rows:
        frac[(_num(row["kappa"]), int(row["kmax"]))] = _num(row["excluded_fraction"])
    problems = []
    cells = {(float(k), int(n)) for k in kappas for n in kmaxes}
    if set(frac) != cells or len(rows) != len(cells):
        problems.append(f"sweep cells {sorted(frac)} != {sorted(cells)}")
        return problems
    for cell, f in sorted(frac.items()):
        if not 0.0 <= f <= 1.0:
            problems.append(f"fraction {f} at {cell} outside [0, 1]")
    ks, ns = sorted(float(k) for k in kappas), sorted(int(n) for n in kmaxes)
    for n in ns:
        for lo, hi in zip(ks, ks[1:]):
            if frac[(hi, n)] < frac[(lo, n)]:
                problems.append(f"fraction decreases in kappa at N={n}: {lo} -> {hi}")
    for k in ks:
        for lo, hi in zip(ns, ns[1:]):
            if frac[(k, hi)] < frac[(k, lo)]:
                problems.append(f"fraction decreases in N at kappa={k}: {lo} -> {hi}")
    cell = (float(verify_kappa), ns[0])
    want = excluded_fraction(modes, cell[0], cell[1], smax, grid)
    if abs(frac[cell] - want) > 0.5 / grid:
        problems.append(f"fraction at {cell} = {frac[cell]}, recomputed {want}")
    return problems


# ---------------------------------------------------------------------------
# kamcheck
# ---------------------------------------------------------------------------

def check_kamcheck(report_a1: dict, sweep_csv: str, kappas,
                   min_fraction: tuple[float, float] | None) -> list[str]:
    """A1 has no violations; the A3 accepted fraction lies in [0, 1], does
    not increase along the kappa sweep, and meets min_fraction = (kappa, f)."""
    problems = []
    if report_a1.get("violations") != 0:
        problems.append(f"A1 reports {report_a1.get('violations')} violations")
    if not report_a1.get("checked_count", 0) > 0:
        problems.append("A1 checked nothing")
    rows = list(csv.DictReader(io.StringIO(sweep_csv)))
    sweep = [(_num(r["kappa"]), _num(r["accepted_fraction"])) for r in rows]
    if [k for k, _ in sweep] != [float(k) for k in kappas]:
        return problems + [f"sweep kappas {[k for k, _ in sweep]} != {list(kappas)}"]
    for kappa, f in sweep:
        if not 0.0 <= f <= 1.0:
            problems.append(f"accepted fraction {f} at kappa={kappa} outside [0, 1]")
    ordered = sorted(sweep)
    for (k0, f0), (k1, f1) in zip(ordered, ordered[1:]):
        if f1 > f0:
            problems.append(f"accepted fraction rises from {f0} to {f1} at kappa {k0} -> {k1}")
    if min_fraction is not None:
        kappa, least = min_fraction
        got = dict(sweep).get(float(kappa))
        if got is None or got < least:
            problems.append(f"accepted fraction {got} at kappa={kappa} below {least}")
    return problems


# ---------------------------------------------------------------------------
# torus: the frequency-modulation law omega' = omega + M I
# ---------------------------------------------------------------------------

def check_torus(csv_text: str, modes, mass: float, nus,
                min_exponent: float | None) -> tuple[list[str], list[str]]:
    """Returns (problems, gap violations).

    Problems: missing rows, linear frequencies other than sqrt(a^2 + m), or a
    gap exponent fitted over the nu sweep below min_exponent.  Gap
    violations: a measured frequency further than 10 nu^(3/2) from the
    program's prediction omega + M I.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    problems, gaps_bad = [], []
    got = {(_num(r["nu"]), int(r["mode"])): r for r in rows}
    want = {(float(nu), int(a)) for nu in nus for a in modes}
    if set(got) != want or len(rows) != len(want):
        return [f"rows {sorted(got)} != {sorted(want)}"], []
    first_mode_gaps = []
    for nu in nus:
        for a in sorted(modes):
            r = got[(float(nu), a)]
            lam = float(frequencies([a], mass)[0])
            if abs(_num(r["omega_linear"]) - lam) > 1e-14 * lam:
                problems.append(f"omega_linear({a}) = {r['omega_linear']}, expected {lam}")
            gap = abs(_num(r["omega_extracted"]) - _num(r["omega_predicted"]))
            if a == min(modes):
                first_mode_gaps.append(gap)
            tol = 10.0 * float(nu) ** 1.5
            if not gap <= tol:
                gaps_bad.append(f"nu={nu} mode {a}: gap {gap:.3e} > 10 nu^1.5 = {tol:.3e}")
    if min_exponent is not None:
        if len(nus) < 2 or min(first_mode_gaps) <= 0.0:
            problems.append("gap exponent needs two or more nu with nonzero gaps")
        else:
            slope = float(np.polyfit(np.log(np.asarray(nus, dtype=float)),
                                     np.log(first_mode_gaps), 1)[0])
            if slope < min_exponent:
                problems.append(f"fitted gap exponent {slope:.3f} < {min_exponent}")
    return problems, gaps_bad

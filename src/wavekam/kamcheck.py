"""Finite-resolution checks of the three non-resonance hypotheses used by the
parameter-dependent KAM step: separation (A1), transversality (A2) and the
second Melnikov condition (A3), for the rescaled frequency maps

    Omega(rho) = omega + nu M rho,
    Lambda_a(rho) = lambda_a + nu (3/pi) (1/lambda_a) sum_l rho_l / lambda_l.

Both maps belong to the program's Hamiltonian H2 + int u^4, the equation
u_tt - u_xx + m u = -4 u^3.  The paper writes +4 u^3; under that sign M and
the Lambda_a shifts change sign and |det M| does not.

The hypotheses quantify over a ball of nearby frequency maps |Omega' - Omega|
< delta_0; that ball is handled soundly by shrinking thresholds, i.e. checking
at Omega with the margin delta_0 |k|_1 added to the requirement.

The three scans read one per-rho table, built a block of rho rows at a time
by _rho_rows: Lambda on the |a| classes of DivisorRange and the dots
k . Omega(rho); the (a, b) tables are DivisorRange's, on the same classes.
A2 and A3 settle each rho point on its sorted dots, so most (k, rho) cells
need no table pass of their own: the A3 screen is exact, the A2 screen
conservative with a rounding slack (SCREEN_SLACK), and only the cells it
flags run the exact per-cell test.  Reports, counts and violation order are
those of the plain per-(k, rho) scans over the modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .birkhoff import RescaledNormalForm
from .smalldiv import DivisorRange

MAX_UNFORCED_DIM = 4
# slack of the A2 screen, relative to the size of the summands of a divisor
SCREEN_SLACK = 1e-9
# cap on the table entries that one array pass over several cells holds
CELL_BLOCK = 2 ** 16


@dataclass
class Violation:
    hypothesis: str
    family: str
    k: tuple[int, ...]
    a: Optional[int]
    b: Optional[int]
    rho: tuple[float, ...]
    value: float
    required: float
    branch: str = "value"

    def as_line(self) -> str:
        k_str = ",".join(str(x) for x in self.k)
        rho_str = ",".join(repr(x) for x in self.rho)
        return (
            f"hyp={self.hypothesis} k={k_str} a={self.a} b={self.b} "
            f"rho={rho_str} value={self.value!r} required={self.required!r}"
        )


@dataclass
class HypothesisReport:
    hypothesis: str
    parameters: dict
    checked_count: int
    violations: list[Violation] = field(default_factory=list)
    accepted_fraction: Optional[float] = None
    branch_counts: dict = field(default_factory=dict)
    accepted: Optional[list[bool]] = None

    @property
    def verified(self) -> bool:
        return not self.violations

    def serialize(self) -> str:
        return "\n".join(v.as_line() for v in self.violations) + ("\n" if self.violations else "")


def rho_grid(n: int, points_per_dim: Optional[int] = None, force: bool = False) -> np.ndarray:
    """Product grid over [1, 2]^n.  Defaults: 100 points per dimension for
    n <= 2, 30 for n = 3, 10 for n = 4; refuses n > 4 without force."""
    if n > MAX_UNFORCED_DIM and not force:
        raise ValueError(f"rho grid in dimension {n} requires force=True")
    if points_per_dim is None:
        points_per_dim = 100 if n <= 2 else (30 if n == 3 else 10)
    if points_per_dim < 1:
        raise ValueError("grid needs at least one point per dimension")
    if points_per_dim == 1:
        axes = [np.array([1.5])] * n
    else:
        axes = [np.linspace(1.0, 2.0, points_per_dim)] * n
    return np.array(list(itertools.product(*axes)))


def _rho_rows(rnf: RescaledNormalForm, grid: np.ndarray, uabs: np.ndarray,
              kmat: np.ndarray, width: int):
    """Blocks of grid rows, each with Lambda on the |a| classes uabs and the
    dots k . Omega(rho) over the rows k of kmat, every value bitwise that of
    the single-point call; a block is at most CELL_BLOCK // width rows.
    numpy sends a product with one row or column to gemv, which rounds unlike
    np.dot, so both factors get a spare row.  That gemm then rounds as np.dot
    does (a sequential FMA chain) depends on the BLAS build and its kernel for
    the CPU; it was checked only with numpy's bundled OpenBLAS 0.3.31 on
    x86-64, and TestStackedMaps fails where it does not hold."""
    step = max(1, CELL_BLOCK // max(1, width))
    kpad = np.vstack([kmat, kmat[:1]]).T
    for start in range(0, len(grid), step):
        rho = grid[start:start + step]
        omega = rnf.omega_of(np.vstack([rho, rho[:1]]))
        yield rho, rnf.lambda_of(uabs, rho), (omega @ kpad)[:-1, :len(kmat)]


def check_a1(rnf: RescaledNormalForm, S: int, points_per_dim: Optional[int] = None,
             force: bool = False) -> HypothesisReport:
    """Separation: Lambda_a(rho) >= <a> and |Lambda_a - Lambda_b| >=
    (1/8)||a|-|b|| over normal modes |a|,|b| <= S and a rho grid."""
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    rng = DivisorRange(rnf.A, 0, S)                 # A1 reads no k and no dots
    normals, uabs, inv = rng.normals, rng.uabs, rng.inv
    brackets = np.maximum(np.abs(normals), 1)
    iu, ju = np.triu_indices(len(uabs), 1)          # the pairs |a| < |b|
    gaps = (uabs[ju] - uabs[iu]) / 8.0
    violations: list[Violation] = []
    for rho, lam_u, _ in _rho_rows(rnf, grid, uabs, rng.kmat, len(normals) + len(iu)):
        lower = lam_u[:, inv] < brackets
        diff = np.abs(lam_u[:, iu] - lam_u[:, ju])
        close = diff < gaps
        for p in np.nonzero(lower.any(axis=1) | close.any(axis=1))[0]:
            rho_t = tuple(float(r) for r in rho[p])
            for idx in np.nonzero(lower[p])[0]:
                violations.append(Violation(
                    "A1", "lower", (), int(normals[idx]), None, rho_t,
                    float(lam_u[p, inv[idx]]), float(brackets[idx])))
            for e in np.nonzero(close[p])[0]:
                violations.append(Violation(
                    "A1", "separation", (), int(uabs[iu[e]]), int(uabs[ju[e]]),
                    rho_t, float(diff[p, e]), float(gaps[e])))
    return HypothesisReport(
        hypothesis="A1",
        parameters={"S": S, "nu": rnf.nu, "c0": 1.0, "c1": 1.0 / 8.0,
                    "rho_points": len(grid)},
        checked_count=len(grid) * (len(normals) + len(iu)),
        violations=violations,
    )


def _near(ds: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask over the sorted dots ds: True at every position p with
    |ds[p] + x_e| <= t_e for some entry e, widened by the rounding slack.

    The slack is SCREEN_SLACK times B, a bound on the summands' magnitude.
    A divisor of up to three summands, summed in another order, and the
    interval ends each round by at most 2 * 2^-53 * B, so the exact value
    and the screen's differ by under 1e-15 B, a millionth of the slack."""
    slack = SCREEN_SLACK * (1.0 + np.abs(ds).max() + np.abs(x).max(initial=0.0)
                            + t.max(initial=0.0))
    lo = np.searchsorted(ds, -x - (t + slack), "left")
    hi = np.searchsorted(ds, -x + (t + slack), "right")
    hit = lo < hi
    marks = np.zeros(len(ds) + 1, dtype=int)
    np.add.at(marks, lo[hit], 1)
    np.add.at(marks, hi[hit], -1)
    return np.cumsum(marks[:-1]) > 0


def _min_abs_sum(ds: np.ndarray, x: np.ndarray) -> np.ndarray:
    """min over the sorted dots ds of |fl(ds[p] + x_e)|, per entry e, exactly.

    fl(d + x) is monotone in d and has the sign of d + x, so the minimum is
    at one of the two neighbours of -x in ds."""
    p = np.searchsorted(ds, -x)
    below = ds[np.maximum(p - 1, 0)]
    above = ds[np.minimum(p, len(ds) - 1)]
    return np.minimum(np.abs(below + x), np.abs(above + x))


def check_transversality(rnf: RescaledNormalForm, N: int, S: int,
                         gamma_exponent: float = 0.25,
                         points_per_dim: Optional[int] = None,
                         force: bool = False) -> HypothesisReport:
    """Transversality over all four divisor families.

    The hypothesis offers, per (k, a, b), a value bound OR a derivative
    bound.  Value bounds are checked at Omega with thresholds nu^(1/2) (no
    Lambda factor) and nu^(2/3) * weight (one or two), plus the delta_0 |k|_1
    margin covering the Omega' ball.  The derivative bound is exact, not
    sampled: Omega is affine in rho, so d_rho(k . Omega) = nu M k and the
    check along z_k = Mk/|Mk| reduces to |Mk|_2 >= 1, minus the exact
    Lambda-derivative allowance when a or b is present.  For |k|_1 <=
    nu^-gamma the value bound is attempted first with per-tuple derivative
    fallback; for larger k the pure derivative certificate |Mk|_2 >= 1 +
    worst-case allowance skips the sweep when it holds.  Combinatorially
    resonant patterns carry exact O(nu) shift formulas and are only required
    to stay away from zero.

    The (k, rho) cells are settled one rho point at a time.  A screen over the
    sorted dots k . Omega(rho) flags every k that comes within the largest
    D1-D3 threshold (nu^(2/3) w + the largest margin), plus a slack, of some
    -Lambda_a (-Lambda_a -/+ Lambda_b) on the |a| classes; D0 is tested
    exactly.  The screen is conservative: the thresholds are the largest over
    k and the slack (SCREEN_SLACK relative to the summands' size, against
    rounding of a few 1e-16 relative) covers the different rounding of a sum
    taken in another order.  An unflagged cell has no value failure at all and
    only adds to the "value" branch; each flagged cell runs the exact per-cell
    test, and its violations are reported in (k, then rho) order.
    """
    if gamma_exponent <= 0:
        raise ValueError("gamma_exponent must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    nu = rnf.nu
    A = rnf.A
    n = A.n
    delta0 = 0.5 * nu / float(np.linalg.norm(np.linalg.inv(rnf.M), 2))
    small_cap = nu ** (-gamma_exponent)
    grid = rho_grid(n, points_per_dim, force)
    rng = DivisorRange(A, N, S)
    lam_base = rnf.fs.lam(rng.uabs)
    deriv_row = (3.0 / math.pi) * float(
        np.linalg.norm(1.0 / rnf.fs.omega_vector(A), 2))
    branch_counts = {"value": 0, "derivative": 0, "resonant-pattern": 0}
    k_l1 = np.abs(rng.kmat).sum(axis=1)
    margins = delta0 * k_l1
    required0 = nu ** 0.5 + margins                  # D0's threshold per k
    mks = np.array([float(np.linalg.norm(rnf.M @ kvec, 2)) for kvec in rng.kmat])
    worst_allowance = 2.0 * deriv_row / float(np.min(lam_base))
    # for large k the pure derivative certificate skips the whole rho sweep
    active = np.flatnonzero((k_l1 <= small_cap) | ~(mks - worst_allowance >= 1.0))
    branch_counts["derivative"] += len(grid) * (len(rng.ks) - len(active))
    checked = len(rng.ks) * len(grid) * (1 + len(rng.normals) * (1 + 2 * len(rng.normals)))

    # every table below is over the |a| classes of DivisorRange, and
    # rng.members counts the (a, b) of the mode tables that each entry stands for
    nu23w = {f: nu ** (2.0 / 3.0) * rng.weights[f] for f in ("D1", "D2", "D3")}
    # Lambda-derivative allowance per (a, b), summed as the scalar path does
    allow1 = deriv_row / lam_base
    allowance = {"D1": allow1[:, None], "D2": allow1[:, None] + allow1[None, :]}
    allowance["D3"] = allowance["D2"]
    found: dict[int, list[Violation]] = {int(i): [] for i in active}

    def settle(ids: np.ndarray, d: np.ndarray, rho_t: tuple[float, ...],
               lam_u: np.ndarray) -> None:
        """The exact test of the flagged cells (k_i, rho), i in ids, with
        d = k_i . Omega(rho): branch counts, and each cell's violations in the
        per-cell order (resonant zeros, then D0, D1, D2, D3 failures), each
        family's in the full table's (a, b) order."""
        margin, mk, req0 = margins[ids], mks[ids], required0[ids]
        out = [found[i] for i in ids]

        def record(family, mask, vals, req):
            for f, i, j in zip(*np.nonzero(rng.spread(family, mask))):
                u, v = rng.inv[i], (0 if family == "D1" else rng.inv[j])
                out[f].append(Violation(
                    "A2", family, rng.ks[ids[f]], *rng.ab(family, i, j), rho_t,
                    0.0 if vals is None else float(vals[f, u, v]),
                    0.0 if req is None else float(req[f, u, v]), "value+derivative"))

        d0_fails = np.abs(d) < req0
        fails = d0_fails.copy()
        vals1 = (d[:, None] + lam_u[None, :])[:, :, None]
        failing = []
        for family, vals in (("D1", vals1), ("D2", vals1 + lam_u), ("D3", vals1 - lam_u)):
            req = nu23w[family] + margin[:, None, None]
            bad = np.abs(vals) < req
            if family == "D3":
                bad &= rng.distinct
            masks = [rng.resonant(family, rng.ks[i]) for i in ids]
            if any(m is not None for m in masks):
                resonant = np.array([np.zeros_like(bad[0]) if m is None else m
                                     for m in masks])
                hit = bad & resonant
                branch_counts["resonant-pattern"] += int((hit * rng.members[family]).sum())
                # exact O(nu) shift; must stay away from zero
                zero = hit & (vals == 0.0)
                if zero.any():
                    record(family, zero, None, None)
                bad &= ~resonant
            fails |= bad.any(axis=(1, 2))
            failing.append((family, vals, req, bad))
        branch_counts["value"] += len(ids) - int(fails.sum())
        d0_ok = mk >= 1.0
        branch_counts["derivative"] += int((d0_fails & d0_ok).sum())
        for f in np.nonzero(d0_fails & ~d0_ok)[0]:
            out[f].append(Violation("A2", "D0", rng.ks[ids[f]], None, None, rho_t,
                                    float(d[f]), float(req0[f]), "value+derivative"))
        for family, vals, req, bad in failing:
            ok = mk[:, None, None] - allowance[family] >= 1.0
            branch_counts["derivative"] += int(((bad & ok) * rng.members[family]).sum())
            if (bad & ~ok).any():
                record(family, bad & ~ok, vals, req)

    n_classes = len(rng.uabs)
    iu, ju = np.triu_indices(n_classes)             # D2 is symmetric in (a, b)
    ou, ov = np.nonzero(rng.distinct)               # D3 only has |a| != |b|
    screen_t = np.concatenate([nu23w["D1"][:, 0], nu23w["D2"][iu, ju],
                               nu23w["D3"][ou, ov]]) + margins[active].max(initial=0.0)
    block = max(1, CELL_BLOCK // max(1, n_classes ** 2))
    blocks = _rho_rows(rnf, grid, rng.uabs, rng.kmat[active], len(active) + n_classes)
    for rho_b, lam_b, dots_b in (blocks if len(active) else ()):
        for rho, lam_u, dots in zip(rho_b, lam_b, dots_b):
            x = np.concatenate([lam_u, lam_u[iu] + lam_u[ju], lam_u[ou] - lam_u[ov]])
            order = np.argsort(dots)
            flagged = np.empty(len(dots), dtype=bool)
            flagged[order] = _near(dots[order], x, screen_t)
            flagged |= np.abs(dots) < required0[active]
            flagged = np.nonzero(flagged)[0]
            branch_counts["value"] += len(dots) - len(flagged)
            rho_t = tuple(float(r) for r in rho)
            for start in range(0, len(flagged), block):
                j = flagged[start:start + block]
                settle(active[j], dots[j], rho_t, lam_u)
    violations = [v for i in active for v in found[i]]
    return HypothesisReport(
        hypothesis="A2",
        parameters={"N": N, "S": S, "nu": nu, "delta0": delta0,
                    "delta_small_k": nu ** (2.0 / 3.0), "delta_d0": nu ** 0.5,
                    "delta_derivative": nu,
                    "gamma_exponent": gamma_exponent, "small_k_cap": small_cap,
                    "rho_points": len(grid)},
        checked_count=checked,
        violations=violations,
        branch_counts=branch_counts,
    )


def melnikov_scan(rnf: RescaledNormalForm, kappa: float, N: int, S: int,
                  points_per_dim: Optional[int] = None,
                  force: bool = False) -> HypothesisReport:
    """Second Melnikov condition: a rho point is accepted iff

        |Omega(rho).k + Lambda_a(rho) - Lambda_b(rho)| >= kappa (1 + ||a|-|b||)

    for all 0 < |k|_1 <= N and normal |a| != |b| <= S.  Nothing is skipped:
    at the rescaled level the combinatorially resonant patterns carry O(nu)
    shifts which dominate kappa < nu.  Reports the accepted fraction and the
    proof-shape excluded-measure bound for reference.

    Each rho point is decided on the sorted dots k . Omega(rho).  The
    computed divisor fl(d + x), with x = Lambda_a - Lambda_b, is monotone in
    d and has the sign of d + x, so its smallest modulus over k sits at one of
    the two neighbours of -x: the screen is exact, and it accepts a point iff
    the per-k scan would.  At a rejected point the first k in scan order with
    a failing pair, its first pair and the count of checked divisors are
    those of the scan that stops there.
    """
    nu = rnf.nu
    if not (0.0 < kappa < nu):
        raise ValueError("need 0 < kappa < delta = nu")
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    rng = DivisorRange(rnf.A, N, S)
    weights = kappa * rng.weights["D3"]
    ou, ov = np.nonzero(rng.distinct)               # the class pairs |a| != |b|
    pair_weights = weights[ou, ov]
    per_k = int((rng.distinct * rng.members["D3"]).sum())
    block = max(1, CELL_BLOCK // max(1, len(ou)))
    accepted_mask: list[bool] = []
    checked = 0
    violations: list[Violation] = []
    for rho_b, lam_b, dots_b in _rho_rows(rnf, grid, rng.uabs, rng.kmat, len(rng.ks) + len(ou)):
        for rho, lam_u, dots in zip(rho_b, lam_b, dots_b):
            diff = lam_u[ou] - lam_u[ov]
            if not np.any(_min_abs_sum(np.sort(dots), diff) < pair_weights):
                accepted_mask.append(True)
                checked += len(dots) * per_k
                continue
            # the first k in scan order with a failing pair, a block of k at a time
            for start in range(0, len(dots), block):
                bad_k = np.any(np.abs(dots[start:start + block, None] + diff) < pair_weights,
                               axis=1)
                if bad_k.any():
                    first_bad = start + int(np.argmax(bad_k))
                    break
            checked += (first_bad + 1) * per_k
            d = dots[first_bad]
            bad = rng.distinct & (np.abs(d + (lam_u[:, None] - lam_u[None, :])) < weights)
            i, j = next(zip(*np.nonzero(rng.spread("D3", bad))))
            u, v = rng.inv[i], rng.inv[j]
            # summed as np.dot(k, omega_of(rho)) + lambda_of(a, rho) -
            # lambda_of(b, rho), so the value is bitwise that of the evaluators
            violations.append(Violation(
                "A3", "melnikov", rng.ks[first_bad], *rng.ab("D3", i, j),
                tuple(float(r) for r in rho), float(d + lam_u[u] - lam_u[v]),
                float(weights[u, v])))
            accepted_mask.append(False)
    gamma_exponent = 0.1
    n = rnf.A.n
    bound_shape = N ** (n + 1.5 + 2.0 / (3.0 * gamma_exponent)) * math.sqrt(
        kappa * nu ** (-7.0 / 5.0))
    return HypothesisReport(
        hypothesis="A3",
        parameters={"kappa": kappa, "N": N, "S": S, "nu": nu, "delta": nu,
                    "rho_points": len(grid), "excluded_bound_shape": bound_shape},
        checked_count=checked,
        violations=violations,
        accepted_fraction=sum(accepted_mask) / len(grid),
        accepted=accepted_mask,
    )

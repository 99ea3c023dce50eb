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
A2 and A3 screen each rho point on its sorted dots, so most (k, rho) cells
need no table pass of their own.  The A3 screen is exact and does not
depend on kappa, so melnikov_sweep decides every kappa in one pass.  The A2
screen is conservative with a rounding slack (SCREEN_SLACK); it yields the
(k, entry) pairs that may fail, and the exact test runs on those pairs, a
block of rho rows at a time.  Reports, counts and violation order are those
of the plain per-(k, rho) scans over the modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

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


def _require_normal_modes(A, S: int) -> None:
    """Refuse a cutoff S that leaves no normal mode: a scan over nothing
    would report a vacuous "verified"."""
    if not A.normal_modes(S):
        raise ValueError(f"S = {S} leaves no normal mode to check")


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
    _require_normal_modes(rnf.A, S)
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


def _near_pairs(ds: np.ndarray, x: np.ndarray, t: np.ndarray, limit: int):
    """The pairs (e, p) with |ds[p] + x_e| <= t_e, widened by the rounding
    slack, over the sorted dots ds: e-major, as arrays of at most limit pairs.

    The slack is SCREEN_SLACK times B, a bound on the summands' magnitude.
    A divisor of up to three summands, summed in another order, and the
    interval ends each round by at most 2 * 2^-53 * B, so the exact value
    and the screen's differ by under 1e-15 B, a millionth of the slack."""
    slack = SCREEN_SLACK * (1.0 + np.abs(ds).max() + np.abs(x).max(initial=0.0)
                            + t.max(initial=0.0))
    lo = np.searchsorted(ds, -x - (t + slack), "left")
    hi = np.searchsorted(ds, -x + (t + slack), "right")
    # entry e's pairs are the flat indices [ends[e] - (hi - lo)[e], ends[e])
    ends = np.cumsum(hi - lo)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, limit):
        flat = np.arange(start, min(start + limit, total))
        e = np.searchsorted(ends, flat, "right")
        yield e, flat + (hi - ends)[e]


def _near(ds: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask over the sorted dots ds: True at every position p with
    |ds[p] + x_e| <= t_e for some entry e, widened by the rounding slack."""
    mask = np.zeros(len(ds), dtype=bool)
    for _, p in _near_pairs(ds, x, t, CELL_BLOCK):
        mask[p] = True
    return mask


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

    The cells are settled a block of rho rows (_rho_rows) at a time.  D0 is
    tested exactly on the whole block.  For D1-D3 a screen over each rho
    point's sorted dots k . Omega(rho) yields every (k, entry) pair, over the
    |a| classes, whose dot comes within the largest D1-D3 threshold
    (nu^(2/3) w + the largest margin), plus a slack, of -Lambda_a
    (-Lambda_a -/+ Lambda_b).  The screen is conservative: the thresholds are
    the largest over k and the slack (SCREEN_SLACK relative to the summands'
    size, against rounding of a few 1e-16 relative) covers the different
    rounding of a sum taken in another order.  Every branch count and
    violation comes from an entry below its threshold, so the block's pairs
    are all that the exact test sees, in one call per CELL_BLOCK // 2 pairs;
    a cell with no failing entry adds to the "value" branch.  Violations are
    reported k-major, then by rho, then resonant zeros, D0, D1, D2, D3, each
    family's in the order of the table over the modes.
    """
    if not 0 < gamma_exponent < math.inf:
        raise ValueError(f"gamma_exponent must be positive and finite, got {gamma_exponent!r}")
    if N < 1:
        raise ValueError("N must be >= 1")
    _require_normal_modes(rnf.A, S)
    nu = rnf.nu
    A = rnf.A
    delta0 = 0.5 * nu / float(np.linalg.norm(np.linalg.inv(rnf.M), 2))
    small_cap = nu ** (-gamma_exponent)
    grid = rho_grid(A.n, points_per_dim, force)
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
    mk, margin, req0 = mks[active], margins[active], required0[active]

    # the D1, D2, D3 tables over the |a| classes of DivisorRange, stacked as
    # f = 0, 1, 2 and indexed (f, u, v), with v = 0 for D1; members counts the
    # (a, b) of the mode tables that each entry stands for
    families = ("D1", "D2", "D3")
    C = len(rng.uabs)

    def stacked(tables):
        return np.stack([np.broadcast_to(t, (C, C)) for t in tables])

    nu23w = stacked([nu ** (2.0 / 3.0) * rng.weights[f] for f in families])
    # Lambda-derivative allowance per (a, b), summed as the scalar path does
    allow1 = (deriv_row / lam_base)[:, None]
    allowance = stacked([allow1, allow1 + allow1.T, allow1 + allow1.T])
    members = stacked([rng.members[f] for f in families])
    # the resonant entries of every active k, as keys ((t, f, u), v)
    resonant_keys = []
    for t, i in enumerate(active):
        for f, fam in enumerate(families):
            mask = rng.resonant(fam, rng.ks[i])
            if mask is not None:
                resonant_keys += [((t * 3 + f) * C + u) * C + v for u, v in np.argwhere(mask)]
    resonant_keys = np.array(resonant_keys, dtype=np.int64)
    modes_of = [np.flatnonzero(rng.inv == u).tolist() for u in range(C)]
    found: list[tuple[tuple, Violation]] = []      # with their (k, rho, stage, a, b) keys

    def record(stage, family, t, g, value, required, u=0, v=0):
        k, rho_t = rng.ks[active[t]], tuple(float(r) for r in grid[g])
        rows = [0] if family == "D0" else modes_of[u]
        cols = modes_of[v] if family in ("D2", "D3") else [0]
        for i in rows:
            for j in cols:
                found.append(((t, g, stage, i, j), Violation(
                    "A2", family, k, *rng.ab(family, i, j), rho_t, value, required)))

    def settle(start, lam_b, dots_b, failing, pending):
        """The exact D1-D3 test of the screen's pairs (row p of the block,
        active k t, entry e): branch counts, violations, and failing cells."""
        p, t, e = (np.concatenate(a) for a in zip(*pending))
        f, u, v = entry_f[e], entry_u[e], entry_v[e]
        swap = (f == 1) & (u != v)                  # D2's (b, a) beside its (a, b)
        p, t, f = (np.concatenate([a, a[swap]]) for a in (p, t, f))
        u, v = np.concatenate([u, v[swap]]), np.concatenate([v, u[swap]])
        vals = dots_b[p, t] + lam_b[p, u]
        vals = np.where(f == 0, vals, np.where(f == 1, vals + lam_b[p, v], vals - lam_b[p, v]))
        req = nu23w[f, u, v] + margin[t]
        bad = np.abs(vals) < req
        p, t, f, u, v, vals, req = (a[bad] for a in (p, t, f, u, v, vals, req))
        resonant = np.isin(((t * 3 + f) * C + u) * C + v, resonant_keys)
        branch_counts["resonant-pattern"] += int(members[f, u, v][resonant].sum())
        # exact O(nu) shift; must stay away from zero
        for z in np.flatnonzero(resonant & (vals == 0.0)):
            record(f[z], families[f[z]], t[z], start + p[z], 0.0, 0.0, u[z], v[z])
        p, t, f, u, v, vals, req = (a[~resonant] for a in (p, t, f, u, v, vals, req))
        failing[p, t] = True
        ok = mk[t] - allowance[f, u, v] >= 1.0
        branch_counts["derivative"] += int(members[f, u, v][ok].sum())
        for z in np.flatnonzero(~ok):
            record(4 + f[z], families[f[z]], t[z], start + p[z], float(vals[z]),
                   float(req[z]), u[z], v[z])

    iu, ju = np.triu_indices(C)                     # D2 is symmetric in (a, b)
    ou, ov = np.nonzero(rng.distinct)               # D3 only has |a| != |b|
    entry_f = np.repeat([0, 1, 2], [C, len(iu), len(ou)])
    entry_u = np.concatenate([np.arange(C), iu, ou])
    entry_v = np.concatenate([np.zeros(C, dtype=int), ju, ov])
    screen_t = nu23w[entry_f, entry_u, entry_v] + margin.max(initial=0.0)
    limit = max(1, CELL_BLOCK // 2)                 # each pair is at most two entries
    d0_ok = mk >= 1.0
    start = 0
    blocks = _rho_rows(rnf, grid, rng.uabs, rng.kmat[active], len(active) + C)
    for rho_b, lam_b, dots_b in (blocks if len(active) else ()):
        failing = np.abs(dots_b) < req0             # D0, exactly
        branch_counts["derivative"] += int((failing & d0_ok).sum())
        for g, t in zip(*np.nonzero(failing & ~d0_ok)):
            record(3, "D0", t, start + g, float(dots_b[g, t]), float(req0[t]))
        pending, size = [], 0
        for row, (lam_u, dots) in enumerate(zip(lam_b, dots_b)):
            x = np.concatenate([lam_u, lam_u[iu] + lam_u[ju], lam_u[ou] - lam_u[ov]])
            order = np.argsort(dots)
            for e, pos in _near_pairs(dots[order], x, screen_t, limit):
                if size + len(e) > limit:
                    settle(start, lam_b, dots_b, failing, pending)
                    pending, size = [], 0
                pending.append((np.full(len(e), row), order[pos], e))
                size += len(e)
        if pending:
            settle(start, lam_b, dots_b, failing, pending)
        branch_counts["value"] += failing.size - int(failing.sum())
        start += len(rho_b)
    found.sort(key=lambda item: item[0])
    return HypothesisReport(
        hypothesis="A2",
        parameters={"N": N, "S": S, "nu": nu, "delta0": delta0,
                    "delta_small_k": nu ** (2.0 / 3.0), "delta_d0": nu ** 0.5,
                    "delta_derivative": nu,
                    "gamma_exponent": gamma_exponent, "small_k_cap": small_cap,
                    "rho_points": len(grid)},
        checked_count=checked,
        violations=[v for _, v in found],
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
    proof-shape excluded-measure bound for reference.  melnikov_sweep's
    one-kappa case."""
    return melnikov_sweep(rnf, [kappa], N, S, points_per_dim, force)[0]


def melnikov_sweep(rnf: RescaledNormalForm, kappas: Iterable[float], N: int, S: int,
                   points_per_dim: Optional[int] = None,
                   force: bool = False) -> list[HypothesisReport]:
    """melnikov_scan at every kappa, in input order with duplicates kept,
    from one pass over the per-rho table.  Every kappa is checked before any
    table is built.

    Each rho point is decided on the sorted dots k . Omega(rho).  The
    computed divisor fl(d + x), with x = Lambda_a - Lambda_b, is monotone in
    d and has the sign of d + x, so its smallest modulus over k sits at one of
    the two neighbours of -x: the screen is exact.  That minimum does not
    depend on kappa, so one stacked compare with kappa * weight decides every
    kappa, and a point is accepted iff the per-k scan would accept it.  At a
    rejected (kappa, rho) cell the first k in scan order with a failing
    pair, its first pair and the count of checked divisors are those of the
    scan that stops there.
    """
    kappas = list(kappas)
    nu = rnf.nu
    if not kappas:
        raise ValueError("need at least one kappa")
    for kappa in kappas:
        if not (0.0 < kappa < nu):
            raise ValueError("need 0 < kappa < delta = nu")
    if N < 1:
        raise ValueError("N must be >= 1")
    _require_normal_modes(rnf.A, S)
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    rng = DivisorRange(rnf.A, N, S)
    weights = np.array(kappas, dtype=float)[:, None, None] * rng.weights["D3"]
    ou, ov = np.nonzero(rng.distinct)               # the class pairs |a| != |b|
    pair_weights = weights[:, ou, ov]
    # fl(kappa * w) grows with kappa, so the largest kappa fails wherever any does
    top = int(np.argmax(kappas))
    per_k = int((rng.distinct * rng.members["D3"]).sum())
    accepted = np.ones((len(kappas), len(grid)), dtype=bool)
    checked = np.full(len(kappas), len(rng.ks) * per_k * len(grid))
    violations: list[list[Violation]] = [[] for _ in kappas]
    g = 0
    for rho_b, lam_b, dots_b in _rho_rows(rnf, grid, rng.uabs, rng.kmat, len(rng.ks) + len(ou)):
        for rho, lam_u, dots in zip(rho_b, lam_b, dots_b):
            diff = lam_u[ou] - lam_u[ov]
            smallest = _min_abs_sum(np.sort(dots), diff)
            near = np.flatnonzero(smallest < pair_weights[top])
            if len(near):
                # only the pairs that fail at the largest kappa can fail at all
                fails = np.flatnonzero((smallest[near] < pair_weights[:, near]).any(axis=1))
                accepted[fails, g] = False
                rho_t = tuple(float(r) for r in rho)
                firsts = _first_failing(dots, diff[near], pair_weights[np.ix_(fails, near)])
                for j, first_bad in zip(fails, firsts):
                    checked[j] -= (len(dots) - first_bad - 1) * per_k
                    d = dots[first_bad]
                    bad = rng.distinct & (np.abs(d + (lam_u[:, None] - lam_u[None, :]))
                                          < weights[j])
                    i, jj = next(zip(*np.nonzero(rng.spread("D3", bad))))
                    u, v = rng.inv[i], rng.inv[jj]
                    # summed as np.dot(k, omega_of(rho)) + lambda_of(a, rho) -
                    # lambda_of(b, rho), so the value is bitwise that of the evaluators
                    violations[j].append(Violation(
                        "A3", "melnikov", rng.ks[first_bad], *rng.ab("D3", i, jj), rho_t,
                        float(d + lam_u[u] - lam_u[v]), float(weights[j, u, v])))
            g += 1
    gamma_exponent = 0.1
    n = rnf.A.n
    return [HypothesisReport(
        hypothesis="A3",
        parameters={"kappa": kappa, "N": N, "S": S, "nu": nu, "delta": nu,
                    "rho_points": len(grid),
                    "excluded_bound_shape": N ** (n + 1.5 + 2.0 / (3.0 * gamma_exponent))
                    * math.sqrt(kappa * nu ** (-7.0 / 5.0))},
        checked_count=int(checked[j]),
        violations=violations[j],
        accepted_fraction=int(accepted[j].sum()) / len(grid),
        accepted=accepted[j].tolist(),
    ) for j, kappa in enumerate(kappas)]


def _first_failing(dots: np.ndarray, diff: np.ndarray, pair_weights: np.ndarray) -> np.ndarray:
    """Per row of pair_weights (a kappa that fails at this rho point), the
    first k in scan order with |dots[k] + diff| < pair_weights on some pair,
    found a block of k at a time."""
    first = np.full(len(pair_weights), -1)
    block = max(1, CELL_BLOCK // max(1, len(diff) * len(pair_weights)))
    for start in range(0, len(dots), block):
        values = np.abs(dots[start:start + block, None] + diff)
        bad_k = (values < pair_weights[:, None, :]).any(axis=2)
        new = (first < 0) & bad_k.any(axis=1)
        first[new] = start + bad_k[new].argmax(axis=1)
        if (first >= 0).all():
            break
    return first

"""Finite-resolution checks of the three non-resonance hypotheses used by the
parameter-dependent KAM step: separation (A1), transversality (A2) and the
second Melnikov condition (A3), for the rescaled frequency maps

    Omega(rho) = omega + nu M rho,
    Lambda_a(rho) = lambda_a + nu (3/pi) (1/lambda_a) sum_l rho_l / lambda_l.

The hypotheses quantify over a ball of nearby frequency maps |Omega' - Omega|
< delta_0; that ball is handled soundly by shrinking thresholds, i.e. checking
at Omega with the margin delta_0 |k|_1 added to the requirement.
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


def check_a1(rnf: RescaledNormalForm, S: int, points_per_dim: Optional[int] = None,
             force: bool = False) -> HypothesisReport:
    """Separation: Lambda_a(rho) >= <a> and |Lambda_a - Lambda_b| >=
    (1/8)||a|-|b|| over normal modes |a|,|b| <= S and a rho grid."""
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    normals = np.array(rnf.A.normal_modes(S))
    brackets = np.maximum(np.abs(normals), 1)
    violations: list[Violation] = []
    checked = 0
    # Lambda depends on |a| only; deduplicate for the pair check
    uniq = np.unique(np.abs(normals))
    for rho in grid:
        lam = np.asarray(rnf.lambda_of(normals, rho))
        checked += len(normals)
        bad = lam < brackets
        for idx in np.nonzero(bad)[0]:
            violations.append(Violation(
                "A1", "lower", (), int(normals[idx]), None,
                tuple(float(r) for r in rho),
                float(lam[idx]), float(brackets[idx])))
        lam_u = np.asarray(rnf.lambda_of(uniq, rho))
        diff = np.abs(lam_u[:, None] - lam_u[None, :])
        gap = np.abs(uniq[:, None] - uniq[None, :])
        mask = gap > 0
        checked += int(mask.sum()) // 2
        bad_pairs = mask & (diff < gap / 8.0)
        for i, j in zip(*np.nonzero(bad_pairs)):
            if i < j:
                violations.append(Violation(
                    "A1", "separation", (), int(uniq[i]), int(uniq[j]),
                    tuple(float(r) for r in rho),
                    float(diff[i, j]), float(gap[i, j] / 8.0)))
    return HypothesisReport(
        hypothesis="A1",
        parameters={"S": S, "nu": rnf.nu, "c0": 1.0, "c1": 1.0 / 8.0,
                    "rho_points": len(grid)},
        checked_count=checked,
        violations=violations,
    )


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
    """
    if gamma_exponent <= 0:
        raise ValueError("gamma_exponent must be positive")
    nu = rnf.nu
    A = rnf.A
    n = A.n
    delta0 = 0.5 * nu / float(np.linalg.norm(np.linalg.inv(rnf.M), 2))
    small_cap = nu ** (-gamma_exponent)
    grid = rho_grid(n, points_per_dim, force)
    rng = DivisorRange(A, N, S)
    normals = rng.normals
    lam_base = np.asarray(rnf.fs.lam(normals), dtype=float)
    deriv_row = (3.0 / math.pi) * float(
        np.linalg.norm(1.0 / rnf.fs.omega_vector(A), 2))
    violations: list[Violation] = []
    checked = 0
    branch_counts = {"value": 0, "derivative": 0, "resonant-pattern": 0}

    def record(family, k, a, b, rho, value, required):
        violations.append(Violation("A2", family, tuple(int(x) for x in k),
                                    a, b, tuple(float(r) for r in rho),
                                    float(value), float(required),
                                    "value+derivative"))

    def value_failures(k, rho, omega_k, lam, margin):
        """(family, a, b, value, required) for value-bound failures, resonant
        patterns excluded after their positivity check."""
        failures = []
        required0 = nu ** 0.5 + margin
        if abs(omega_k) < required0:
            failures.append(("D0", None, None, omega_k, required0))
        vals1 = omega_k + lam
        req1 = nu ** (2.0 / 3.0) * rng.weights["D1"][:, 0] + margin
        bad1 = np.abs(vals1) < req1
        resonant = rng.resonant("D1", k)
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
            req = nu ** (2.0 / 3.0) * rng.weights[family] + margin
            bad = np.abs(vals) < req
            if family == "D3":
                bad &= rng.distinct
            resonant = rng.resonant(family, k)
            for i, j in zip(*np.nonzero(bad)):
                a, b = int(normals[i]), int(normals[j])
                if (abs(a), abs(b)) in resonant:
                    branch_counts["resonant-pattern"] += 1
                    # exact O(nu) shift; must stay away from zero
                    if vals[i, j] == 0.0:
                        record(family, k, a, b, rho, 0.0, 0.0)
                    continue
                failures.append((family, a, b, float(vals[i, j]), float(req[i, j])))
        return failures

    worst_allowance = 2.0 * deriv_row / float(np.min(lam_base))
    for k in rng.ks:
        kvec = np.array(k, dtype=float)
        k_l1 = float(np.abs(kvec).sum())
        margin = delta0 * k_l1
        small = k_l1 <= small_cap
        mk = float(np.linalg.norm(rnf.M @ kvec, 2))

        def tuple_derivative_ok(a: Optional[int], b: Optional[int]) -> bool:
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
    """
    nu = rnf.nu
    if not (0.0 < kappa < nu):
        raise ValueError("need 0 < kappa < delta = nu")
    grid = rho_grid(rnf.A.n, points_per_dim, force)
    rng = DivisorRange(rnf.A, N, S)
    normals, pair_mask = rng.normals, rng.distinct
    weights = kappa * rng.weights["D3"]
    ks = [np.array(k, dtype=float) for k in rng.ks]
    accepted_mask: list[bool] = []
    checked = 0
    violations: list[Violation] = []
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
                # record through the standalone scalar path so the value is
                # bitwise reproducible from the frequency evaluators
                value = float(np.dot(kvec, omega) + rnf.lambda_of(a, rho)
                              - rnf.lambda_of(b, rho))
                violations.append(Violation(
                    "A3", "melnikov", tuple(int(x) for x in kvec), a, b,
                    tuple(float(r) for r in rho), value,
                    float(weights[i, j])))
                break
        accepted_mask.append(ok)
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

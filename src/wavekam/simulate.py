"""Truncated spectral simulation of u_tt - u_xx + m u = -4 u^3 on the circle.

In Fourier variables the system is xi_s' = i dH/deta_s, eta_s' = -i dH/dxi_s
with H = sum lambda_s xi_s eta_s + int u^4 dx, whose equation of motion has
the sign -4 u^3; the paper writes +4 u^3, the Hamiltonian H2 - int u^4.
Flipping the sign flips the frequency-modulation matrix M and the O(nu)
shifts of the frequencies, and leaves |det M| unchanged.  The field u depends on the
state only through w_s = (xi_s + eta_{-s}) / sqrt(2 lambda_s), which the
nonlinear kick leaves invariant, so both split flows are exact:

    rotation:  xi -> e^{+i lambda dt} xi,  eta -> e^{-i lambda dt} eta
    kick:      xi_s += i dt 4 sqrt(pi/lambda_s) c_s(u^3),
               eta_s -= i dt 4 sqrt(pi/lambda_s) c_{-s}(u^3)

where c_s(u^3) are Fourier coefficients of u^3 computed by collocation with
2x zero padding (exact de-aliasing for the cubic term).  Strang composition
of the two exact flows gives an order-2 symplectic, time-reversible scheme.
xi and eta are evolved as independent complex arrays; reality (eta = conj xi)
is a measured diagnostic, not a baked-in constraint.

Inside the step a batch of B states is one (2, B, 2S+1) array: xi, and eta
held reversed (eta_{-s} at index s + S).  lambda is even in s, so one
multiply rotates both rows, and the kick adds one band times +coef to xi
and times -coef to the reversed eta in one update.  Stored samples,
BlowUpError snapshots and every function's inputs and outputs keep eta in
mode order.

_Spectral.advance runs one store block of Strang steps as a flat loop: per
step one rotation, one call of the cubic kernel (a closure over buffers made
once) and the kick's multiply and add, with every ufunc and operand bound to
a local and every operand but the kick's band at the full state shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .spectrum import AdmissibleSet, FrequencySystem


class BlowUpError(RuntimeError):
    def __init__(self, t: float, norm: float, initial_norm: float,
                 last_state: Optional[tuple[np.ndarray, np.ndarray]] = None):
        self.t = t
        self.norm = norm
        self.initial_norm = initial_norm
        self.last_state = last_state
        super().__init__(
            f"state norm {norm:.3e} exceeded 10x initial {initial_norm:.3e} at t={t:.3f}"
        )


@dataclass
class SimConfig:
    cutoff: int
    mass: float
    A: AdmissibleSet
    actions: dict[int, float]        # I_a > 0 per tangential mode
    theta0: dict[int, float] = field(default_factory=dict)
    dt: float = 1e-3
    T: float = 100.0
    nonlinearity_on: bool = True
    store_every: int = 100
    perturb_scale: float = 0.0        # optional normal-mode noise amplitude
    seed: int = 0

    def __post_init__(self):
        fs = FrequencySystem(self.mass)
        if self.cutoff < self.A.n_bound:
            raise ValueError("cutoff must cover the tangential set")
        if set(self.actions) != set(self.A.modes):
            raise ValueError("actions must be given exactly on the tangential modes")
        if not all(0 < v < math.inf for v in self.actions.values()):
            raise ValueError("actions must be positive and finite")
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ValueError("dt and T must be positive and finite")
        lam_max = float(fs.lam(self.cutoff))
        if self.dt * lam_max > 0.5:
            raise ValueError(
                f"resolution gate: dt * max frequency = {self.dt * lam_max:.3f} > 0.5")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        if self.n_steps < 1:
            raise ValueError(f"T = {self.T!r} rounds to 0 steps of dt = {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class TorusTrajectory:
    config: SimConfig
    times: np.ndarray
    xi: np.ndarray          # (samples, 2 cutoff + 1)
    eta: np.ndarray
    energy: np.ndarray
    actions: np.ndarray     # (samples, n) tangential actions |xi_a|^2
    phases: np.ndarray      # (samples, n) arg xi_a, unwrapped later

    @property
    def reality_defect(self) -> float:
        return float(np.max(np.abs(self.eta - self.xi.conj())))

    def momentum(self) -> np.ndarray:
        s = np.arange(-self.config.cutoff, self.config.cutoff + 1)
        return (s * np.abs(self.xi) ** 2).sum(axis=1)


def _torus_point(A: AdmissibleSet, I: dict[int, float], theta: dict[int, float],
                 cutoff: int) -> np.ndarray:
    """xi on the torus: xi_a = sqrt(I_a) e^{i theta_a}, zero normal modes."""
    xi = np.zeros(2 * cutoff + 1, dtype=complex)
    for a in A.modes:
        xi[a + cutoff] = math.sqrt(I[a]) * np.exp(1j * theta.get(a, 0.0))
    return xi


def initial_state(cfg: SimConfig, rng: Optional[np.random.Generator] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Point on the torus: xi_a = sqrt(I_a) e^{i theta_a}, zero normal modes,
    eta = conj(xi); optionally seeded normal-mode noise."""
    xi = _torus_point(cfg.A, cfg.actions, cfg.theta0, cfg.cutoff)
    if cfg.perturb_scale > 0:
        rng = rng or np.random.default_rng(cfg.seed)
        noise = cfg.perturb_scale * (rng.standard_normal(xi.size)
                                     + 1j * rng.standard_normal(xi.size))
        for a in cfg.A.modes:
            noise[a + cfg.cutoff] = 0.0
        xi = xi + noise
    return xi, xi.conj().copy()


class _Spectral:
    """Precomputed grids, tables, transforms and work buffers for one
    configuration and states of shape rows + (2S+1,); a batch of B is
    rows = (B,).

    The field's 2S+1 coefficients W_s = (xi_s + eta_{-s}) / sqrt(2 lambda_s)
    sit at the head of an M-point spectrum, so one inverse transform gives
    g = u e^{iSx} on the grid x_j = 2 pi j / M.  Cubing shifts every mode by
    3S, so c_s(u^3) is coefficient s + 3S of g^3; M > 4S keeps that band
    2S..4S clear of wrap-around and de-aliases the cubic term exactly.

    The cubic kernel is one closure over the buffers made here, and
    cubic_coeffs, energy, kick and the step loop in advance all call it.  It
    takes eta reversed, eta_rev[s] = eta_{-s}, which is how the integrator
    holds it: then W = (xi + eta_rev) w_scale, and the kick is one
    (+coef, -coef) multiply of the band and one add to the whole state, with
    no reversed view.  The rotation, both kick tables and w_scale are stored
    at the full shape (2,) + rows + (2S+1,), or rows + (2S+1,) for w_scale,
    so that only the kick's table x band product broadcasts.  W, g, g^3,
    the spectrum and the kick's update are allocated once, and every kernel
    result is a view into them, valid until the next call.
    """

    def __init__(self, cfg: SimConfig, rows: tuple = ()):
        S = cfg.cutoff
        self.lam = FrequencySystem(cfg.mass).lam(np.arange(-S, S + 1))
        self.M = 4 * S + 4
        self.rows = rows
        self.dt = cfg.dt
        self.nonlinear = cfg.nonlinearity_on
        shape = rows + (2 * S + 1,)
        self.kick_scale = 4.0 * np.sqrt(np.pi / self.lam)
        # complex, so that scaling W skips the cast a real factor would need
        self.w_scale = np.broadcast_to(
            (1.0 / np.sqrt(2.0 * self.lam) / math.sqrt(2.0 * math.pi)).astype(complex),
            shape).copy()
        self.unshift = np.exp(-1j * S * (2.0 * np.pi / self.M) * np.arange(self.M))
        self.rot = self.rotation(np.exp(1j * self.lam * cfg.dt))
        self.kick_full = self.kick_table(cfg.dt)
        self.kick_half = self.kick_table(cfg.dt / 2)
        self._update = np.empty((2,) + shape, dtype=complex)

        w = np.empty(shape, dtype=complex)
        self._g = g = np.empty(rows + (self.M,), dtype=complex)
        cube = np.empty_like(g)
        spectrum = np.empty_like(g)
        band = spectrum[..., 2 * S: 4 * S + 1]
        w_scale = self.w_scale
        add, multiply = np.add, np.multiply
        # np.fft.ifft(w, M)/fft(..., norm="forward") end in these gufuncs
        # with the factors 1 and 1/M; calling them directly skips np.fft's
        # per-call argument handling and gives the same bits.  The inverse
        # transform zero-pads its 2S+1 inputs to M points itself, and the
        # factors are 0-d arrays, which the gufuncs take without converting
        from numpy.fft import _pocketfft_umath
        ifft, fft = _pocketfft_umath.ifft, _pocketfft_umath.fft
        one, fft_factor = np.array(1.0), np.array(1.0 / self.M)

        def cubic(xi: np.ndarray, eta_rev: np.ndarray) -> np.ndarray:
            """c_s(u^3) for |s| <= S, index s + S: the one cubic kernel.
            It leaves g = u e^{iSx} on the M-point grid in self._g."""
            add(xi, eta_rev, w)
            multiply(w, w_scale, w)
            ifft(w, one, g)
            multiply(g, g, cube)
            multiply(cube, g, cube)
            fft(cube, fft_factor, spectrum)
            return band

        self._cubic = cubic

    def _full(self, pair: np.ndarray) -> np.ndarray:
        """A (2, 2S+1) pair of rows, copied out to a contiguous
        (2,) + rows + (2S+1,) array."""
        shape = (2,) + self.rows + (pair.shape[-1],)
        return np.broadcast_to(pair.reshape((2,) + (1,) * len(self.rows) + (-1,)),
                               shape).copy()

    def rotation(self, phase: np.ndarray) -> np.ndarray:
        """The linear flow on a state (xi, eta_rev), given phase = e^{i lambda h}:
        xi turns by phase and eta by its conjugate.  lambda is even in s, so
        the reversed eta row turns by the same conjugate."""
        return self._full(np.stack((phase, phase.conj())))

    def kick_table(self, h: float) -> np.ndarray:
        """(+coef, -coef) with coef = 1j * h * kick_scale, at the shape of a
        state (xi, eta_rev), (2,) + rows + (2S+1,)."""
        coef = 1j * h * self.kick_scale
        return self._full(np.stack((coef, -coef)))

    def cubic_coeffs(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """c_s(u^3) for |s| <= S, index s + S, with eta in mode order."""
        return self._cubic(xi, eta[..., ::-1]).copy()

    def kick(self, state: np.ndarray, table: np.ndarray) -> None:
        """Exact nonlinear flow over time h, given table = kick_table(h).

        One update adds coef c_s(u^3) to xi and (-coef) c_s(u^3) to eta_rev.
        Negation is exact and rounding is symmetric, so that equals
        subtracting coef c_s(u^3) from eta_rev bit for bit, but for the sign
        of a zero: where a part of the update is exactly zero and eta_rev
        holds -0 there, the sum can give +0 where the difference gives -0."""
        np.multiply(table, self._cubic(state[0], state[1]), self._update)
        np.add(state, self._update, state)

    def advance(self, state: np.ndarray, steps: int) -> None:
        """steps Strang steps of length dt on a state (xi, eta_rev) of shape
        (2,) + rows + (2S+1,), in place: a half kick, steps - 1 times a
        rotation and a full kick, then a rotation and a half kick.  Without
        the nonlinearity the exact linear flow over steps dt is one rotation.

        The loop calls the kernel and binds every ufunc, table and buffer to
        a local, so a step is one Python call and eight numpy calls, each
        with its output passed positionally."""
        if not self.nonlinear:
            np.multiply(state, self.rotation(np.exp(1j * self.lam * self.dt * steps)), state)
            return
        multiply, add = np.multiply, np.add
        cubic, update = self._cubic, self._update
        rot, kick_full = self.rot, self.kick_full
        xi, eta_rev = state
        self.kick(state, self.kick_half)
        for _ in range(steps - 1):
            multiply(state, rot, state)
            multiply(kick_full, cubic(xi, eta_rev), update)
            add(state, update, state)
        multiply(state, rot, state)
        self.kick(state, self.kick_half)

    def energy(self, xi: np.ndarray, eta: np.ndarray, nonlinear: bool) -> np.ndarray:
        """H at states given in mode order."""
        quad = np.sum(self.lam * xi * eta, axis=-1)
        total = quad
        if nonlinear:
            self._cubic(xi, eta[..., ::-1])
            u = self._g * self.unshift
            total = total + 2.0 * math.pi * np.mean(u ** 4, axis=-1)
        return total.real


def integrate(cfg: SimConfig, xi0: Optional[np.ndarray] = None,
              eta0: Optional[np.ndarray] = None) -> TorusTrajectory:
    """Run the Strang splitting and record samples every store_every
    steps, and the final state when the last block is shorter.

    Aborts with BlowUpError (carrying the last good snapshot) if the state
    norm grows past 10x its initial value or turns NaN.
    """
    if (xi0 is None) != (eta0 is None):
        raise ValueError("give both xi0 and eta0, or neither")
    starts = None if xi0 is None else [(xi0, eta0)]
    return integrate_batch([cfg], starts)[0]


# SimConfig fields in which the members of one batch may differ
_MEMBER_FIELDS = ("actions", "theta0", "perturb_scale", "seed")


def integrate_batch(cfgs: Sequence[SimConfig],
                    starts: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None
                    ) -> list[TorusTrajectory]:
    """integrate() for configurations that differ only in their initial
    data: actions, theta0, perturb_scale and seed, or the (xi0, eta0)
    pairs in starts.

    The members advance as one (2, B, 2S+1) state: row 0 holds xi and row 1
    holds eta reversed (eta_{-s} at index s + S), so one multiply applies
    both rotations and each step makes one pair of transforms for the whole
    batch, into buffers kept across steps; _Spectral.advance runs each
    store block.  eta is flipped back to mode order only where a sample is
    stored.  Every member's trajectory is the one integrate() gives for it
    alone.  BlowUpError reports the first member that blows up.  A start
    that is not a pair of finite arrays of shape (2S+1,) is refused with
    ValueError before the first step.
    """
    if not cfgs:
        raise ValueError("give at least one configuration")
    cfg = cfgs[0]

    def shared(c: SimConfig) -> tuple:
        return tuple(getattr(c, f.name) for f in fields(c)
                     if f.name not in _MEMBER_FIELDS)

    if any(shared(c) != shared(cfg) for c in cfgs[1:]):
        raise ValueError("batched configurations may differ only in "
                         + ", ".join(_MEMBER_FIELDS))
    if starts is None:
        starts = [initial_state(c) for c in cfgs]
    if len(starts) != len(cfgs):
        raise ValueError("give one (xi0, eta0) start per configuration")
    width = 2 * cfg.cutoff + 1
    for xi0, eta0 in starts:
        if np.shape(xi0) != (width,) or np.shape(eta0) != (width,):
            raise ValueError(f"a start must have shape ({width},) at cutoff "
                             f"{cfg.cutoff}, got {np.shape(xi0)} and {np.shape(eta0)}")
    state = np.empty((2, len(cfgs), width), dtype=complex)
    state[0] = np.array([x for x, _ in starts], dtype=complex)
    state[1] = np.array([e for _, e in starts], dtype=complex)[:, ::-1]
    if not np.all(np.isfinite(state)):
        raise ValueError("a start holds a non-finite value")
    spec = _Spectral(cfg, (len(cfgs),))
    xi, eta_rev = state
    n_steps = cfg.n_steps
    n_samples = -(-n_steps // cfg.store_every) + 1
    tang_idx = np.array([a + cfg.cutoff for a in cfg.A.modes])
    times = np.empty(n_samples)
    xis = np.empty((len(cfgs), n_samples, width), dtype=complex)
    etas = np.empty_like(xis)
    energies = np.empty((len(cfgs), n_samples))
    initial_norm = np.linalg.norm(xi, axis=-1)

    def store(i: int, t: float) -> None:
        times[i] = t
        xis[:, i] = xi
        etas[:, i] = eta_rev[:, ::-1]
        energies[:, i] = spec.energy(xis[:, i], etas[:, i], cfg.nonlinearity_on)

    store(0, 0.0)
    sample = 1
    step = 0
    # an overflow or NaN in a step surfaces as BlowUpError at the block's end
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            block = min(cfg.store_every, n_steps - step)
            spec.advance(state, block)
            step += block
            t = step * cfg.dt
            norm = np.linalg.norm(xi, axis=-1)
            # a NaN norm compares False, so test for "not within the bound"
            over = np.flatnonzero(~(norm <= 10.0 * np.maximum(initial_norm, 1e-300)))
            if over.size:
                b = over[0]
                raise BlowUpError(t, float(norm[b]), float(initial_norm[b]),
                                  (xis[b, sample - 1].copy(), etas[b, sample - 1].copy()))
            store(sample, t)
            sample += 1
    actions = np.abs(xis[:, :, tang_idx]) ** 2
    phases = np.angle(xis[:, :, tang_idx])
    return [TorusTrajectory(c, times.copy(), xis[b], etas[b], energies[b],
                            actions[b], phases[b])
            for b, c in enumerate(cfgs)]


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

class FrequencyExtractionError(RuntimeError):
    pass


# RMS phase-fit residual, in radians, above which a fit is refused
MAX_PHASE_RESIDUAL = 0.1


def extract_frequencies(traj: TorusTrajectory, A: AdmissibleSet) -> dict[int, float]:
    """Least-squares linear fit of the unwrapped tangential phases.

    Requires at least ~100 tangential periods, samples spaced by at most
    pi / omega_a (a wider spacing aliases the phase) and phase coherence (RMS
    residual below MAX_PHASE_RESIDUAL); returns slope magnitudes.
    """
    times = traj.times
    spacing = float(np.max(np.diff(times), initial=0.0))
    fs = FrequencySystem(traj.config.mass)
    out: dict[int, float] = {}
    for col, a in enumerate(A.modes):
        omega_a = float(fs.lam(a))
        if times[-1] * omega_a < 100.0 * 2.0 * math.pi:
            raise FrequencyExtractionError(
                f"trajectory too short for mode {a}: {times[-1] * omega_a / (2 * math.pi):.1f} periods")
        if spacing * omega_a > math.pi:
            raise FrequencyExtractionError(
                f"sample spacing {spacing:g} aliases mode {a}: "
                f"spacing * omega = {spacing * omega_a:.3f} > pi")
        phase = np.unwrap(traj.phases[:, col])
        design = np.vstack([times, np.ones_like(times)]).T
        (slope, _), res, *_ = np.linalg.lstsq(design, phase, rcond=None)
        rms = math.sqrt(float(res[0]) / len(times)) if res.size else 0.0
        # a NaN phase gives a NaN fit, which no comparison would refuse
        if not (rms <= MAX_PHASE_RESIDUAL and math.isfinite(slope)):
            raise FrequencyExtractionError(
                f"phase fit residual {rms:.3f} rad RMS exceeds {MAX_PHASE_RESIDUAL}")
        out[a] = abs(float(slope))
    return out


def _field_coeffs(xi: np.ndarray, eta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Fourier coefficients (xi_s + eta_{-s}) / sqrt(2 lambda_s) / sqrt(2 pi) of u."""
    return (xi + eta[::-1]) / np.sqrt(2.0 * lam) / math.sqrt(2.0 * math.pi)


def torus_distance(traj: TorusTrajectory, I: dict[int, float], m: float,
                   alpha: float, n_samples: int = 200) -> float:
    """Sup over sampled times of the phase-minimized Sobolev distance between
    the trajectory field and the linear torus family {u_{I,m}(theta, .)}.

    The tangential phases of the state seed the minimization, and a local
    Nelder-Mead refinement polishes them.
    """
    from scipy.optimize import minimize

    cfg = traj.config
    cutoff = cfg.cutoff
    modes = np.arange(-cutoff, cutoff + 1)
    lam = FrequencySystem(m).lam(modes)
    weight = np.maximum(np.abs(modes), 1).astype(float) ** (2.0 * alpha)
    stride = max(1, len(traj.times) // n_samples)
    worst = 0.0
    for idx in range(0, len(traj.times), stride):
        state_coeffs = _field_coeffs(traj.xi[idx], traj.eta[idx], lam)

        def dist(theta_vec: np.ndarray) -> float:
            theta = {a: th for a, th in zip(cfg.A.modes, theta_vec)}
            xi = _torus_point(cfg.A, I, theta, cutoff)
            ref = _field_coeffs(xi, xi.conj(), lam)
            return math.sqrt(float(np.sum(np.abs(state_coeffs - ref) ** 2 * weight)))

        theta_seed = np.array([np.angle(traj.xi[idx][a + cutoff]) for a in cfg.A.modes])
        res = minimize(dist, theta_seed, method="Nelder-Mead",
                       options={"maxiter": 80, "xatol": 1e-10, "fatol": 1e-14})
        worst = max(worst, min(dist(theta_seed), float(res.fun)))
    return worst

import math

import numpy as np
import pytest

from wavekam.simulate import (
    BlowUpError,
    FrequencyExtractionError,
    SimConfig,
    extract_frequencies,
    initial_state,
    integrate,
    integrate_batch,
    _Spectral,
    torus_distance,
)
from wavekam.spectrum import AdmissibleSet

A1 = AdmissibleSet([1])


def implicit_midpoint_final(cfg, tol=1e-13, max_iter=50):
    """Reference stepper: the implicit midpoint rule on the full vector field,
    solved by fixed-point iteration, from cfg's initial state to cfg.T.
    Returns the final xi."""
    spec = _Spectral(cfg)
    xi, eta = initial_state(cfg)

    def rhs(x, e):
        c = spec.kick_scale * spec.cubic_coeffs(x, e)
        return 1j * (spec.lam * x + c), -1j * (spec.lam * e + c[::-1])

    for _ in range(cfg.n_steps):
        xi_new, eta_new = xi, eta
        for _ in range(max_iter):
            fx, fe = rhs(0.5 * (xi + xi_new), 0.5 * (eta + eta_new))
            xi_next, eta_next = xi + cfg.dt * fx, eta + cfg.dt * fe
            delta = max(np.max(np.abs(xi_next - xi_new)), np.max(np.abs(eta_next - eta_new)))
            xi_new, eta_new = xi_next, eta_next
            if delta < tol:
                break
        else:
            raise RuntimeError("implicit midpoint iteration did not converge")
        xi, eta = xi_new, eta_new
    return xi


def base_config(**overrides):
    params = dict(cutoff=16, mass=1.3, A=A1, actions={1: 1e-3}, dt=1e-3,
                  T=20.0, nonlinearity_on=True, store_every=20)
    params.update(overrides)
    return SimConfig(**params)


class TestConfig:
    def test_resolution_gate(self):
        with pytest.raises(ValueError):
            base_config(cutoff=64, dt=0.02)

    def test_actions_validated(self):
        with pytest.raises(ValueError):
            base_config(actions={1: -1e-3})
        with pytest.raises(ValueError):
            base_config(actions={2: 1e-3})

    @pytest.mark.parametrize("overrides", [
        dict(actions={1: math.nan}), dict(actions={1: math.inf}), dict(dt=math.nan),
        dict(dt=math.inf), dict(T=math.nan), dict(T=math.inf)],
        ids=["nan-action", "inf-action", "nan-dt", "inf-dt", "nan-T", "inf-T"])
    def test_non_finite_rejected(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            base_config(**overrides)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="0 steps"):
            base_config(T=0.004, dt=0.01)
        # a T that is not a multiple of dt rounds to the nearest step
        assert base_config(T=580.0, dt=6e-3).n_steps == 96667

    def test_cutoff_covers_tangential(self):
        with pytest.raises(ValueError):
            SimConfig(cutoff=2, mass=1.3, A=AdmissibleSet([5]),
                      actions={5: 1e-3}, dt=1e-3, T=1.0)


class TestSpectralKernel:
    """The collocation kernel against direct sums over Fourier modes."""

    @pytest.mark.parametrize("cutoff", [1, 3, 8])
    def test_cubic_coeffs_and_energy_match_convolution(self, cutoff):
        rng = np.random.default_rng(cutoff)
        size = 2 * cutoff + 1
        # xi and eta independent: the kernel must not assume a real field
        xi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        eta = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        cfg = base_config(cutoff=cutoff)
        spec = _Spectral(cfg)
        lam = np.sqrt(np.arange(-cutoff, cutoff + 1) ** 2 + cfg.mass)
        # u = sum_s W_s e^{isx} / sqrt(2 pi); c_s(u^3) = (2 pi)^{-3/2} (W*W*W)_s
        W = (xi + eta[::-1]) / np.sqrt(2.0 * lam)
        WW = np.convolve(W, W)
        cubic = np.convolve(WW, W)[2 * cutoff: 4 * cutoff + 1] / (2.0 * math.pi) ** 1.5
        assert np.max(np.abs(spec.cubic_coeffs(xi, eta) - cubic)) <= 1e-13 * np.max(np.abs(cubic))
        # int u^4 dx = (2 pi)^{-1} (W*W*W*W)_0
        quartic = np.convolve(WW, WW)[4 * cutoff] / (2.0 * math.pi)
        energy = np.sum(lam * xi * eta) + quartic
        assert spec.energy(xi, eta, True) == pytest.approx(energy.real, rel=1e-13,
                                                           abs=1e-13 * abs(quartic))

    @pytest.mark.parametrize("rows", [(), (3,)], ids=["rows-none", "rows-3"])
    @pytest.mark.parametrize("cutoff", [1, 5, 12, 32])
    def test_kernel_bitwise_equals_np_fft(self, cutoff, rows):
        # the kernel calls the pocketfft gufuncs behind np.fft directly; a
        # numpy release that changes them, or their factors, fails here
        rng = np.random.default_rng(cutoff)
        shape = rows + (2 * cutoff + 1,)
        xi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        eta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = _Spectral(base_config(cutoff=cutoff), rows)
        head = np.zeros(rows + (4 * cutoff + 4,), dtype=complex)
        head[..., :2 * cutoff + 1] = (xi + eta[..., ::-1]) * spec.w_scale
        g = np.fft.ifft(head, norm="forward")
        cubic = np.fft.fft(g * g * g, norm="forward")[..., 2 * cutoff: 4 * cutoff + 1]
        assert spec.cubic_coeffs(xi, eta).tobytes() == cubic.tobytes()
        u = g * spec.unshift
        energy = (np.sum(spec.lam * xi * eta, axis=-1)
                  + 2.0 * math.pi * np.mean(u ** 4, axis=-1)).real
        assert spec.energy(xi, eta, True).tobytes() == energy.tobytes()
        # one fused update equals adding to xi and subtracting from eta_rev
        coef = 1j * 0.01 * spec.kick_scale
        state = np.stack((xi, eta[..., ::-1]))
        spec.kick(state, spec.kick_table(0.01))
        assert state[0].tobytes() == (xi + coef * cubic).tobytes()
        assert state[1].tobytes() == (eta[..., ::-1] - coef * cubic).tobytes()

    @pytest.mark.parametrize("store_every", [1, 2])
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["rows-none", "rows-3"])
    @pytest.mark.parametrize("cutoff", [1, 5, 12])
    def test_block_loop_bitwise_equals_reference_stepper(self, cutoff, rows, store_every):
        # the reference is the step written with np.fft and broadcast
        # (2, 1.., 2S+1) tables; five steps in blocks of 2 end in a block of 1
        dt, n_steps = 0.02, 5
        cfg = base_config(cutoff=cutoff, dt=dt, T=n_steps * dt, store_every=store_every)
        rng = np.random.default_rng(cutoff)
        shape = rows + (2 * cutoff + 1,)
        xi = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        eta = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        spec = _Spectral(cfg, rows)
        lam = spec.lam
        table_shape = (2,) + (1,) * len(rows) + (-1,)
        w_scale = (1.0 / np.sqrt(2.0 * lam) / math.sqrt(2.0 * math.pi)).astype(complex)
        phase = np.exp(1j * lam * dt)
        rot = np.stack((phase, phase.conj())).reshape(table_shape)

        def kick(state, h):
            coef = 1j * h * spec.kick_scale
            head = np.zeros(rows + (4 * cutoff + 4,), dtype=complex)
            head[..., :2 * cutoff + 1] = (state[0] + state[1]) * w_scale
            g = np.fft.ifft(head, norm="forward")
            band = np.fft.fft(g * g * g, norm="forward")[..., 2 * cutoff: 4 * cutoff + 1]
            state += np.stack((coef, -coef)).reshape(table_shape) * band

        ref = np.stack((xi, eta[..., ::-1]))
        state = ref.copy()
        samples = [ref.copy()]
        step = 0
        while step < n_steps:
            block = min(store_every, n_steps - step)
            kick(ref, dt / 2)
            for _ in range(block - 1):
                ref *= rot
                kick(ref, dt)
            ref *= rot
            kick(ref, dt / 2)
            spec.advance(state, block)
            assert state.tobytes() == ref.tobytes()
            samples.append(ref.copy())
            step += block
        samples = np.stack(samples, axis=-2)
        if rows:
            trajs = integrate_batch([cfg] * rows[0], list(zip(xi, eta)))
        else:
            trajs = [integrate(cfg, xi, eta)]
        assert np.stack([t.xi for t in trajs]).tobytes() == samples[0].reshape(
            (len(trajs), -1, shape[-1])).tobytes()
        assert np.stack([t.eta for t in trajs]).tobytes() == np.ascontiguousarray(
            samples[1, ..., ::-1]).reshape((len(trajs), -1, shape[-1])).tobytes()


class TestIntegrator:
    def test_linear_run_matches_exact_rotation(self):
        cfg = base_config(nonlinearity_on=False, T=50.0)
        traj = integrate(cfg)
        omega = math.sqrt(1 + 1.3)
        # the stored tangential phase advances exactly at omega
        expected = math.sqrt(1e-3) * np.exp(1j * omega * traj.times)
        assert np.allclose(traj.xi[:, 1 + cfg.cutoff], expected, atol=1e-12)

    def test_linear_run_on_torus(self):
        cfg = base_config(nonlinearity_on=False, T=30.0)
        traj = integrate(cfg)
        d = torus_distance(traj, cfg.actions, cfg.mass, alpha=1.0, n_samples=10)
        assert d <= 1e-10

    def test_energy_and_reality(self):
        traj = integrate(base_config(T=50.0))
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift <= 1e-8
        assert traj.reality_defect <= 1e-12

    def test_momentum_conserved(self):
        traj = integrate(base_config(T=50.0))
        p = traj.momentum()
        assert np.max(np.abs(p - p[0])) <= 1e-8 * max(np.max(np.abs(p)), 1e-3)

    def test_time_reversibility(self):
        # conjugation reverses time for this flow: running forward from the
        # conjugated end state and conjugating again returns the start
        cfg = base_config(T=10.0)
        fwd = integrate(cfg)
        xi1, eta1 = fwd.xi[-1].copy(), fwd.eta[-1].copy()
        back = integrate(base_config(T=10.0), xi0=xi1.conj(), eta0=eta1.conj())
        xi0, eta0 = initial_state(cfg)
        assert np.max(np.abs(back.xi[-1].conj() - xi0)) <= 1e-8

    def test_second_order_convergence(self):
        ref = integrate(base_config(T=5.0, dt=1.25e-4, store_every=400))
        err = []
        for dt, se in ((1e-3, 50), (5e-4, 100)):
            traj = integrate(base_config(T=5.0, dt=dt, store_every=int(5.0 / dt)))
            err.append(np.max(np.abs(traj.xi[-1] - ref.xi[-1])))
        ratio = err[0] / err[1]
        assert 3.0 <= ratio <= 5.0

    def test_implicit_midpoint_agrees(self):
        cfg = base_config(T=2.0, dt=5e-4, store_every=400)
        t_strang = integrate(cfg)
        assert np.max(np.abs(t_strang.xi[-1] - implicit_midpoint_final(cfg))) <= 1e-6

    def test_final_partial_block_stored(self):
        cfg = base_config(T=1.25, dt=1e-3, store_every=100)
        traj = integrate(cfg)
        assert traj.times[-1] == cfg.n_steps * cfg.dt
        assert np.diff(traj.times)[-1] == pytest.approx(0.05)
        assert len(traj.times) == len(traj.xi) == len(traj.energy) == 14

    def test_blowup_detected(self):
        # kick overshoot at large amplitude/step destabilizes the splitting
        # (the exact flow is bounded: the Hamiltonian is coercive)
        cfg = SimConfig(cutoff=8, mass=1.3, A=A1, actions={1: 1000.0}, dt=0.06,
                        T=50.0, nonlinearity_on=True, store_every=5)
        with pytest.raises(BlowUpError) as err:
            integrate(cfg)
        assert err.value.norm > 10 * err.value.initial_norm
        assert err.value.last_state is not None

    def test_nan_blowup_detected(self):
        # the state overflows to NaN within the first block, and a NaN norm
        # is not greater than any bound
        cfg = SimConfig(cutoff=8, mass=1.3, A=A1, actions={1: 1e4}, dt=0.02, T=20.0)
        with pytest.raises(BlowUpError) as err:
            integrate(cfg)
        assert math.isnan(err.value.norm)
        assert err.value.t == pytest.approx(cfg.store_every * cfg.dt)
        assert np.all(np.isfinite(err.value.last_state[0]))

    def test_blowup_reports_first_failing_member(self):
        stable = SimConfig(cutoff=8, mass=1.3, A=A1, actions={1: 1e-3}, dt=0.06,
                           T=50.0, nonlinearity_on=True, store_every=5)
        unstable = SimConfig(cutoff=8, mass=1.3, A=A1, actions={1: 1000.0}, dt=0.06,
                             T=50.0, nonlinearity_on=True, store_every=5)
        with pytest.raises(BlowUpError) as alone:
            integrate(unstable)
        with pytest.raises(BlowUpError) as batched:
            integrate_batch([stable, unstable])
        assert batched.value.t == alone.value.t
        assert batched.value.initial_norm == pytest.approx(alone.value.initial_norm, rel=1e-15)
        assert np.array_equal(batched.value.last_state[0], alone.value.last_state[0])

    @pytest.mark.parametrize("nonlinear", [True, False],
                             ids=["strang_split-True", "strang_split-False"])
    def test_batch_members_equal_single_runs(self, nonlinear):
        A = AdmissibleSet([0, 1])
        cfgs = [SimConfig(cutoff=8, mass=1.3, A=A, actions={0: I, 1: 2 * I},
                          theta0={1: theta}, dt=1e-3, T=1.05, store_every=100,
                          nonlinearity_on=nonlinear,
                          perturb_scale=scale, seed=seed)
                for I, theta, scale, seed in ((1e-3, 0.0, 0.0, 0),
                                              (4e-3, 0.7, 1e-4, 3),
                                              (2e-2, -1.0, 1e-3, 5))]
        for cfg, member in zip(cfgs, integrate_batch(cfgs)):
            alone = integrate(cfg)
            for name in ("times", "xi", "eta", "energy", "actions", "phases"):
                assert np.array_equal(getattr(member, name), getattr(alone, name)), name

    def test_batch_given_starts(self):
        cfg = base_config(T=1.0)
        xi0, eta0 = initial_state(base_config(actions={1: 2e-3}))
        alone = integrate(cfg, xi0=xi0, eta0=eta0)
        member = integrate_batch([cfg, cfg], [initial_state(cfg), (xi0, eta0)])[1]
        assert np.array_equal(member.xi, alone.xi)
        with pytest.raises(ValueError):
            integrate_batch([cfg, cfg], [(xi0, eta0)])

    @pytest.mark.parametrize("start", [
        (np.array([0.03 + 0j]), np.array([0.03 + 0j])),
        (np.zeros(8, dtype=complex), np.zeros(9, dtype=complex)),
        (np.zeros((1, 9), dtype=complex), np.zeros((1, 9), dtype=complex))],
        ids=["length-1", "short-eta", "two-dim"])
    def test_start_of_wrong_shape_rejected(self, start):
        # a length-1 start would broadcast over every mode
        cfg = base_config(cutoff=4)
        with pytest.raises(ValueError, match="shape"):
            integrate(cfg, *start)
        with pytest.raises(ValueError, match="shape"):
            integrate_batch([cfg, cfg], [initial_state(cfg), start])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                             ids=["nan", "inf", "inf-imag"])
    def test_non_finite_start_rejected(self, bad, monkeypatch):
        cfg = base_config(cutoff=4)
        xi0, eta0 = initial_state(cfg)
        xi0[3] = bad
        # refused before the first step, not after a block as a BlowUpError
        monkeypatch.setattr(_Spectral, "advance", None)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(cfg, xi0, eta0)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_batch([cfg, cfg], [initial_state(cfg), (eta0, xi0)])

    def test_half_a_start_rejected(self):
        cfg = base_config(cutoff=4)
        xi0, _ = initial_state(cfg)
        with pytest.raises(ValueError, match="both"):
            integrate(cfg, xi0=xi0)

    def test_batch_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one configuration"):
            integrate_batch([])

    def test_batch_rejects_mismatched_configs(self):
        with pytest.raises(ValueError, match="differ only in"):
            integrate_batch([base_config(), base_config(dt=5e-4)])

    def test_perturbation_seed_stays_bounded(self):
        cfg = base_config(T=30.0, perturb_scale=1e-3 * 1e-2, seed=5)
        traj = integrate(cfg)
        normal_idx = [s + cfg.cutoff for s in range(-cfg.cutoff, cfg.cutoff + 1)
                      if s != 1]
        normal_energy = np.abs(traj.xi[:, normal_idx]) ** 2
        assert normal_energy[-1].sum() <= 100 * max(normal_energy[0].sum(), 1e-12)


class TestDiagnostics:
    def test_extract_linear_frequency_exact(self):
        cfg = base_config(nonlinearity_on=False, T=500.0, store_every=50)
        traj = integrate(cfg)
        freqs = extract_frequencies(traj, A1)
        assert freqs[1] == pytest.approx(math.sqrt(2.3), abs=1e-8)

    def test_too_short_raises(self):
        cfg = base_config(nonlinearity_on=False, T=20.0)
        traj = integrate(cfg)
        with pytest.raises(FrequencyExtractionError):
            extract_frequencies(traj, A1)

    def test_aliased_spacing_raises(self):
        # omega_1 = sqrt(2.3) ~ 1.517 allows a sample spacing up to ~2.07
        omega = math.sqrt(2.3)
        cfg = base_config(cutoff=4, nonlinearity_on=False, dt=0.02, T=450.0,
                          store_every=100)
        assert extract_frequencies(integrate(cfg), A1)[1] == pytest.approx(omega, abs=1e-8)
        cfg = base_config(cutoff=4, nonlinearity_on=False, dt=0.02, T=450.0,
                          store_every=110)
        with pytest.raises(FrequencyExtractionError, match="aliases"):
            extract_frequencies(integrate(cfg), A1)

    def test_nan_phase_raises(self):
        cfg = base_config(cutoff=4, nonlinearity_on=False, dt=0.02, T=450.0,
                          store_every=100)
        traj = integrate(cfg)
        traj.phases[len(traj.times) // 2, 0] = np.nan
        with pytest.raises(FrequencyExtractionError, match="residual"):
            extract_frequencies(traj, A1)

    @pytest.mark.slow
    def test_doubling_action_doubles_shift(self):
        omega = math.sqrt(2.3)
        shifts = []
        cfgs = [base_config(cutoff=24, T=450.0, dt=5e-4, store_every=100,
                            actions={1: nu}) for nu in (1e-3, 2e-3)]
        for traj in integrate_batch(cfgs):
            freqs = extract_frequencies(traj, A1)
            shifts.append(freqs[1] - omega)
        assert shifts[1] / shifts[0] == pytest.approx(2.0, rel=0.1)

    def test_torus_distance_alpha_monotone(self):
        traj = integrate(base_config(T=30.0))
        d1 = torus_distance(traj, {1: 1e-3}, 1.3, alpha=1.0, n_samples=10)
        d2 = torus_distance(traj, {1: 1e-3}, 1.3, alpha=2.0, n_samples=10)
        assert d2 >= d1 > 0

    @pytest.mark.slow
    def test_galerkin_self_consistency(self):
        # doubling the cutoff moves the extracted frequency by far less than
        # the modulation-law tolerance at the operating nu
        nu = 1e-3
        freqs = []
        for cutoff in (12, 24):
            cfg = base_config(cutoff=cutoff, T=450.0, dt=5e-4,
                              store_every=100, actions={1: nu})
            freqs.append(extract_frequencies(integrate(cfg), A1)[1])
        assert abs(freqs[1] - freqs[0]) < 10 * nu ** 1.5

    @pytest.mark.slow
    def test_torus_distance_scaling_study(self):
        # distance to the linear torus family shrinks with nu at least as
        # fast as the nu^(4/5) claim (measured trend is ~ nu^(3/2))
        nus = (1e-3, 4e-3, 1.6e-2)
        dists = []
        cfgs = [base_config(cutoff=32, T=200.0, dt=5e-4, store_every=100,
                            actions={1: nu}) for nu in nus]
        for nu, traj in zip(nus, integrate_batch(cfgs)):
            dists.append(torus_distance(traj, {1: nu}, 1.3, alpha=1.0,
                                        n_samples=40))
        slope = float(np.polyfit(np.log(nus), np.log(dists), 1)[0])
        assert slope >= 0.8
        assert dists == sorted(dists)

"""The torus study's workloads and its six stages.

Each stage calls one entry point a user calls (a CLI subcommand, a study
script's main, or solve_homological for the degree-6 remainder, which has no
CLI route), then reads and checks what it produced.  Only the call is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

import checks

STAGES = ("birkhoff", "remainder", "divisors", "excluded_mass", "kamcheck", "torus")
CLI_STAGES = ("birkhoff", "divisors", "kamcheck")
SCRIPT_STAGES = ("excluded_mass", "torus")


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[int, ...]
    mass: float
    birkhoff_cutoff: int
    remainder_cutoff: int
    divisor_kappa: float          # chosen so that the scan reports violations
    divisor_kmax: int
    divisor_smax: int
    excluded_kappas: tuple[float, ...]
    excluded_kmaxes: tuple[int, ...]
    excluded_smax: int
    excluded_grid: int
    kam_nu: float
    kam_kappas: tuple[float, ...]
    kam_kmax: int
    kam_smax: int
    kam_rho_grid: int
    kam_min_fraction: Optional[tuple[float, float]]
    torus_nus: tuple[float, ...]
    torus_cutoff: int
    torus_tmax: float
    torus_dt: float
    # the torus gap check fails on this workload because of the doubled
    # off-diagonal entries of birkhoff.frequency_matrix; its nu then stay
    # fixed, so that the fault fails on every seed
    torus_known_fault: bool

    def nus(self, seed: int) -> tuple[float, ...]:
        """The torus stage's nu: each base value times a seeded factor in
        [0.95, 1.05], unless the workload carries the known fault."""
        if self.torus_known_fault:
            return self.torus_nus
        rng = np.random.default_rng([seed, 1])
        return tuple(float(nu * (1.0 + 0.05 * (2.0 * u - 1.0)))
                     for nu, u in zip(self.torus_nus, rng.random(len(self.torus_nus))))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="single_mode", modes=(1,), mass=1.3,
            birkhoff_cutoff=14, remainder_cutoff=5,
            divisor_kappa=1e-3, divisor_kmax=10, divisor_smax=24,
            excluded_kappas=(1e-6, 1e-4, 1e-2), excluded_kmaxes=(1, 2, 3),
            excluded_smax=8, excluded_grid=16000,
            kam_nu=1e-4, kam_kappas=(1e-7, 1e-6, 1e-5), kam_kmax=10, kam_smax=40,
            kam_rho_grid=250, kam_min_fraction=(1e-6, 0.99),
            torus_nus=(1e-3, 2e-3, 4e-3), torus_cutoff=12, torus_tmax=420.0,
            torus_dt=0.02, torus_known_fault=False,
        ),
        Workload(
            name="three_modes", modes=(0, 1, 5), mass=1.2337,
            birkhoff_cutoff=14, remainder_cutoff=5,
            divisor_kappa=1e-3, divisor_kmax=2, divisor_smax=22,
            excluded_kappas=(1e-6, 1e-4, 1e-2), excluded_kmaxes=(1, 2),
            excluded_smax=8, excluded_grid=8000,
            kam_nu=1e-4, kam_kappas=(1e-7, 1e-6, 1e-5), kam_kmax=3, kam_smax=20,
            kam_rho_grid=5, kam_min_fraction=None,
            torus_nus=(1e-3,), torus_cutoff=5, torus_tmax=580.0,
            torus_dt=6e-3, torus_known_fault=True,
        ),
    )
}


@dataclass
class Program:
    """The freshly imported program: its layer modules, CLI and scripts."""

    layers: dict          # module short name -> module
    cli: object
    scripts: dict         # script name -> module

    def namespaces(self) -> list:
        return [*self.layers.values(), self.cli, *self.scripts.values()]


@dataclass
class Outcome:
    problems: list[str]
    known_fault: list[str]


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def _modes(w: Workload) -> str:
    return ",".join(str(a) for a in w.modes)


def _call_cli(prog: Program, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def _call_script(module, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = [module.__file__, *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = module.main()
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def _read(directory: str, name: str) -> str:
    with open(os.path.join(directory, name)) as fh:
        return fh.read()


def _exit_ok(code: int, allowed=(0,)) -> list[str]:
    # CLI exit code 3 ("violations found") is a result, not a failure
    return [] if code in allowed else [f"exit code {code}"]


def call(stage: str, prog: Program, w: Workload, seed: int, out: str):
    """Run one stage's entry point; this is the timed part."""
    if stage == "birkhoff":
        return _call_cli(prog, ["birkhoff", "--modes", _modes(w), "--mass", repr(w.mass),
                                "--cutoff", str(w.birkhoff_cutoff), "--output-dir", out])
    if stage == "remainder":
        fs = prog.layers["spectrum"].FrequencySystem(w.mass)
        A = prog.layers["spectrum"].AdmissibleSet(w.modes)
        p4 = prog.layers["polyham"].build_p4(w.remainder_cutoff, fs)
        nf = prog.layers["birkhoff"].solve_homological(p4, fs, A, with_remainder=True)
        return p4, nf
    if stage == "divisors":
        return _call_cli(prog, ["divisors", "--modes", _modes(w), "--mass", repr(w.mass),
                                "--kappa", repr(w.divisor_kappa),
                                "--kmax", str(w.divisor_kmax), "--smax", str(w.divisor_smax),
                                "--certify", "--output-dir", out])
    if stage == "excluded_mass":
        return _call_script(prog.scripts["excluded_mass_study"], [
            "--modes", _modes(w), "--kappas", _csv(w.excluded_kappas),
            "--kmaxes", _csv(w.excluded_kmaxes), "--smax", str(w.excluded_smax),
            "--grid", str(w.excluded_grid)])
    if stage == "kamcheck":
        return _call_cli(prog, ["kamcheck", "--modes", _modes(w), "--mass", repr(w.mass),
                                "--nu", repr(w.kam_nu), "--hypothesis", "all",
                                "--kappa-sweep", _csv(w.kam_kappas),
                                "--kmax", str(w.kam_kmax), "--smax", str(w.kam_smax),
                                "--rho-grid", str(w.kam_rho_grid), "--output-dir", out])
    if stage == "torus":
        return _call_script(prog.scripts["frequency_shift_study"], [
            "--modes", _modes(w), "--mass", repr(w.mass), "--nus", _csv(w.nus(seed)),
            "--cutoff", str(w.torus_cutoff), "--tmax", repr(w.torus_tmax),
            "--dt", repr(w.torus_dt)])
    raise ValueError(f"unknown stage {stage}")


def _terms(poly) -> checks.Terms:
    return [(m.xi, m.eta, c) for m, c in poly]


def check(stage: str, result, w: Workload, seed: int, out: str,
          rng: np.random.Generator) -> Outcome:
    """Read a stage's outputs and check them independently of the program."""
    if stage == "birkhoff":
        code, _ = result
        problems = _exit_ok(code) or checks.check_birkhoff(
            json.loads(_read(out, "summary.json")), _read(out, "normal_form.txt"),
            w.modes, w.mass)
        return Outcome(problems, [])
    if stage == "remainder":
        p4, nf = result
        if nf.R6_truncated is None:
            return Outcome(["no R6 returned"], [])
        return Outcome(checks.check_remainder(
            _terms(p4.total), _terms(nf.Z4), _terms(nf.Q4), _terms(nf.chi4),
            _terms(nf.R6_truncated), w.remainder_cutoff, w.mass, rng), [])
    if stage == "divisors":
        code, _ = result
        problems = _exit_ok(code, (0, 3)) or checks.check_divisors(
            _read(out, "violations.csv"), w.modes, w.mass, w.divisor_kappa,
            w.divisor_kmax, w.divisor_smax)
        return Outcome(problems, [])
    if stage == "excluded_mass":
        code, stdout, _ = result
        verify = w.excluded_kappas[int(rng.integers(len(w.excluded_kappas)))]
        problems = _exit_ok(code) or checks.check_excluded_mass(
            stdout, w.modes, w.excluded_kappas, w.excluded_kmaxes, w.excluded_smax,
            w.excluded_grid, verify)
        return Outcome(problems, [])
    if stage == "kamcheck":
        code, _ = result
        problems = _exit_ok(code, (0, 3)) or checks.check_kamcheck(
            json.loads(_read(out, "report_a1.json")), _read(out, "kappa_sweep.csv"),
            w.kam_kappas, w.kam_min_fraction)
        return Outcome(problems, [])
    if stage == "torus":
        code, stdout, _ = result
        if code != 0:
            return Outcome(_exit_ok(code), [])
        nus = w.nus(seed)
        problems, gaps = checks.check_torus(stdout, w.modes, w.mass, nus,
                                            1.3 if len(nus) >= 2 else None)
        if w.torus_known_fault:
            return Outcome(problems, gaps)
        return Outcome(problems + gaps, [])
    raise ValueError(f"unknown stage {stage}")

"""Command-line entry point.

Subcommands wire JSON/flag configs to the computational modules and write
machine-readable outputs (JSON verdicts and summaries, CSV sweep tables,
little-endian float64 field snapshots with JSON sidecars).  Every run with an
output directory writes a manifest echoing the fully resolved parameter set,
the output directory aside; re-launching with --config <manifest> reproduces
the outputs bit for bit.

Exit codes: 0 ok, 1 set not admissible (admissible), 2 usage error, 3 bound
violations found, 4 near-resonant divisor gate, 5 simulation blow-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .birkhoff import (
    NearResonanceError,
    frequency_matrix,
    rescale,
    solve_homological,
    verify_zminus_vanishing,
    z4_action_coefficient_table,
)
from .kamcheck import check_a1, check_transversality, melnikov_sweep
from .polyham import build_p4
from .simulate import (
    BlowUpError,
    FrequencyExtractionError,
    SimConfig,
    extract_frequencies,
    integrate,
    torus_distance,
)
from .smalldiv import excluded_mass_scan, scan_lower_bounds
from .spectrum import AdmissibleSet, FrequencySystem, is_admissible

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATIONS = 3
EXIT_GAMMA_GATE = 4
EXIT_BLOWUP = 5


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _parse_modes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad mode list {text!r}") from exc


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_id(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _manifest(args: argparse.Namespace, command: str) -> dict:
    """The run's parameters with version and run id.  The output directory is
    where the run is written, not a parameter of it, so it is left out."""
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "config", "output_dir") and v is not None
    }
    params["command"] = command
    params["version"] = __version__
    params["run_id"] = _run_id(params)
    return params


def _emit_manifest(args: argparse.Namespace, command: str) -> dict:
    manifest = _manifest(args, command)
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        _write_json(os.path.join(args.output_dir, "manifest.json"), manifest)
    return manifest


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv: Optional[list[str]]) -> argparse.Namespace:
    """Load a JSON config document (a manifest is one) as the subcommand's
    defaults and parse argv again, so a flag given in argv wins over the
    document, even when it repeats the flag's default.  ValueError if the
    document cannot be read, is not a JSON object, or names another
    subcommand in its "command" key."""
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read --config {args.config}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"--config {args.config} must hold a JSON object of options")
    command = doc.pop("command", args.command)
    if command != args.command:
        raise ValueError(f"--config {args.config} is for {command!r}, not {args.command!r}")
    for key in ("version", "run_id"):
        doc.pop(key, None)
    sub = parser._wavekam_subparsers[args.command]
    options = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key in doc:
        if key not in options:
            parser.error(f"unknown config key {key!r}")
    sub.set_defaults(**{key: _config_value(options[key], value, args.config)
                        for key, value in doc.items()})
    return parser.parse_args(argv)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that float() takes: a float, or an integer in range."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _config_value(action: argparse.Action, value, path: str):
    """A config document's value for an option, as its flag would have
    parsed it.  argparse converts string defaults only, so a value of the
    wrong JSON type is a ValueError that names the key."""
    if value is None and action.default is None:
        return None
    if action.choices is not None:
        expected = f"one of {', '.join(map(repr, action.choices))}"
        ok = isinstance(value, str) and value in action.choices
    elif action.type is int:
        expected, ok = "an integer", _is_int(value)
    elif action.type is float:
        expected, ok = "a number", _is_number(value)
    elif action.type is _parse_modes:
        expected = "a list of integers"
        ok = isinstance(value, list) and all(map(_is_int, value))
    elif action.type is _parse_floats:
        expected = "a list of numbers"
        ok = isinstance(value, list) and all(map(_is_number, value))
    elif action.nargs == 0:  # store_true
        expected, ok = "true or false", isinstance(value, bool)
    else:
        expected, ok = "a string", isinstance(value, str)
    if not ok:
        raise ValueError(f"--config {path}: key {action.dest!r} must be {expected}, "
                         f"got {json.dumps(value)}")
    # a JSON integer where the flag parses a float
    if action.type is float:
        return float(value)
    if action.type is _parse_floats:
        return [float(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_admissible(args: argparse.Namespace) -> int:
    try:
        verdict = is_admissible(args.modes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload: dict = {"modes": list(args.modes), "admissible": verdict}
    if not verdict:
        witness = next(j for j in args.modes if j != 0 and -j in args.modes)
        payload["witness"] = abs(witness)
    print(json.dumps(payload, sort_keys=True))
    if args.output_dir:
        _emit_manifest(args, "admissible")
        _write_json(os.path.join(args.output_dir, "verdict.json"), payload)
    return EXIT_OK if verdict else 1


def cmd_divisors(args: argparse.Namespace) -> int:
    try:
        A = AdmissibleSet(args.modes)
        fs = FrequencySystem(args.mass)
        if args.kappa <= 0:
            raise ValueError(f"--kappa must be positive, got {args.kappa!r}")
        if args.kmax < 1:
            raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
        if args.smax is not None and args.smax < A.n_bound:
            raise ValueError(f"--smax must cover the tangential set, got {args.smax}")
        if args.grid < 0:
            raise ValueError(f"--grid must be >= 0, got {args.grid}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = _emit_manifest(args, "divisors")
    violations = scan_lower_bounds(fs, A, args.kappa, args.kmax, args.smax,
                                   certify=args.certify)
    header = "kind,k,a,b,value,required,resonant,satisfied"
    if args.certify:
        header += ",certified"
    lines = [header]
    for rep in violations:
        q = rep.query
        row = [q.kind, ";".join(str(x) for x in q.k), str(q.a), str(q.b),
               repr(rep.value), repr(rep.bound_required),
               str(int(rep.resonant)), str(int(rep.satisfied))]
        if args.certify:
            row.append(str(int(bool(rep.certified))))
        lines.append(",".join(row))
    csv_text = "\n".join(lines) + "\n"
    if args.output_dir:
        with open(os.path.join(args.output_dir, "violations.csv"), "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.grid:
        est = excluded_mass_scan(A, args.kappa, args.kmax, args.smax, grid=args.grid)
        summary = {
            "excluded_fraction": est.sampled_measure,
            "analytic_bound": est.bound_shape,
            "grid_points": est.grid_points,
            "parameters": est.parameters,
        }
        text = json.dumps(summary, sort_keys=True, default=float)
        if args.output_dir:
            with open(os.path.join(args.output_dir, "excluded_mass.json"), "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    print(f"violations: {len(violations)}")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_birkhoff(args: argparse.Namespace) -> int:
    try:
        A = AdmissibleSet(args.modes)
        fs = FrequencySystem(args.mass)
        if args.cutoff < A.n_bound:
            raise ValueError(f"--cutoff must cover the tangential set, got {args.cutoff}")
        nf = solve_homological(build_p4(args.cutoff, fs), fs, A,
                               gamma_threshold=args.gamma_threshold)
    except NearResonanceError as exc:
        _emit_manifest(args, "birkhoff")
        print(f"gamma gate: {exc}", file=sys.stderr)
        return EXIT_GAMMA_GATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit_manifest(args, "birkhoff")
    report = verify_zminus_vanishing(nf, A)
    table = z4_action_coefficient_table(nf, A)
    summary = {
        "residual_norm": nf.residual_norm,
        "gamma_min": nf.gamma_min,
        "vanishing_ok": report.all_empty,
        "class_counts": {str(r): list(v) for r, v in report.counts.items()},
        "z4_plus_table": {
            f"{l},{k}": {"actual_re": actual.real, "actual_im": actual.imag,
                         "predicted": predicted}
            for (l, k), (actual, predicted) in table.items()
        },
    }
    print(f"residual_norm: {nf.residual_norm:.3e}")
    print(f"gamma_min: {nf.gamma_min:.6e}")
    for (l, k), (actual, predicted) in table.items():
        print(f"Z4+ (l={l}, k={k}): {actual.real:.10e} (closed form {predicted:.10e})")
    if args.output_dir:
        _write_json(os.path.join(args.output_dir, "summary.json"), summary)
        with open(os.path.join(args.output_dir, "normal_form.txt"), "w") as fh:
            fh.write(nf.serialize())
    return EXIT_OK


def cmd_kamcheck(args: argparse.Namespace) -> int:
    try:
        A = AdmissibleSet(args.modes)
        fs = FrequencySystem(args.mass)
        if A.n > 4 and not args.force:
            raise ValueError("tangential dimension > 4 requires --force")
        if args.nu <= 0:
            raise ValueError(f"--nu must be positive, got {args.nu!r}")
        if args.kmax < 1:
            raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
        if args.rho_grid is not None and args.rho_grid < 1:
            raise ValueError(f"--rho-grid must be >= 1, got {args.rho_grid}")
        if not A.normal_modes(args.smax):
            raise ValueError(f"--smax {args.smax} leaves no normal mode to check")
        kappas = list(args.kappa_sweep or [])
        if args.hypothesis in ("a3", "all"):
            kappas.append(args.kappa)
        for kappa in kappas:
            if not 0.0 < kappa < args.nu:
                raise ValueError(f"kappa {kappa!r} must lie in (0, nu = {args.nu!r})")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit_manifest(args, "kamcheck")
    # the normal form is built only for its near-resonance gate (exit 4);
    # the checks read the frequency maps alone
    try:
        solve_homological(build_p4(max(A.n_bound + 2, 4), fs), fs, A)
    except NearResonanceError as exc:
        print(f"gamma gate: {exc}", file=sys.stderr)
        return EXIT_GAMMA_GATE
    rnf = rescale(fs, A, args.nu)
    which = args.hypothesis
    reports = []
    if which in ("a1", "all"):
        reports.append(check_a1(rnf, args.smax, args.rho_grid, force=args.force))
    if which in ("a2", "all"):
        reports.append(check_transversality(rnf, args.kmax, args.smax,
                                            points_per_dim=args.rho_grid,
                                            force=args.force))
    # --kappa (for A3) and every --kappa-sweep value in one pass over the rho table
    a3_kappas = [args.kappa] if which in ("a3", "all") else []
    sweep = args.kappa_sweep or []
    a3 = (melnikov_sweep(rnf, a3_kappas + sweep, args.kmax, args.smax,
                         points_per_dim=args.rho_grid, force=args.force)
          if a3_kappas or sweep else [])
    reports += a3[:len(a3_kappas)]
    if sweep:
        rows = ["kappa,accepted_fraction"]
        for kappa, rep in zip(sweep, a3[len(a3_kappas):]):
            rows.append(f"{kappa!r},{rep.accepted_fraction!r}")
        sweep_text = "\n".join(rows) + "\n"
        if args.output_dir:
            with open(os.path.join(args.output_dir, "kappa_sweep.csv"), "w") as fh:
                fh.write(sweep_text)
        else:
            sys.stdout.write(sweep_text)
    any_violation = False
    for rep in reports:
        line = f"{rep.hypothesis}: checked={rep.checked_count} violations={len(rep.violations)}"
        if rep.accepted_fraction is not None:
            line += f" accepted_fraction={rep.accepted_fraction:.4f}"
        print(line)
        any_violation |= not rep.verified
        if args.output_dir:
            name = f"report_{rep.hypothesis.lower()}"
            _write_json(os.path.join(args.output_dir, name + ".json"), {
                "hypothesis": rep.hypothesis,
                "parameters": {k: float(v) if isinstance(v, (int, float)) else v
                               for k, v in rep.parameters.items()},
                "checked_count": rep.checked_count,
                "violations": len(rep.violations),
                "accepted_fraction": rep.accepted_fraction,
            })
            with open(os.path.join(args.output_dir, name + ".txt"), "w") as fh:
                fh.write(rep.serialize())
    return EXIT_VIOLATIONS if any_violation else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        A = AdmissibleSet(args.modes)
        actions = {a: args.nu for a in A.modes}
        cfg = SimConfig(
            cutoff=args.cutoff,
            mass=args.mass,
            A=A,
            actions=actions,
            dt=args.dt,
            T=args.tmax,
            nonlinearity_on=not args.linear,
            store_every=args.store_every,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = _emit_manifest(args, "simulate")
    try:
        traj = integrate(cfg)
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        if args.output_dir and exc.last_state is not None:
            _snapshot(args.output_dir, "last_good", exc.last_state[0], cfg, manifest)
        return EXIT_BLOWUP
    fs = FrequencySystem(args.mass)
    omega = {a: float(fs.lam(a)) for a in A.modes}
    M = frequency_matrix(fs, A)
    I_vec = np.array([actions[a] for a in A.modes])
    shift = M @ I_vec if cfg.nonlinearity_on else np.zeros(A.n)
    predicted = {a: omega[a] + float(shift[i]) for i, a in enumerate(A.modes)}
    summary: dict = {
        "omega_linear": omega,
        "omega_predicted": predicted,
        "energy_drift": float(np.max(np.abs(traj.energy - traj.energy[0]))
                              / abs(traj.energy[0])),
        "reality_defect": traj.reality_defect,
    }
    try:
        extracted = extract_frequencies(traj, A)
        summary["omega_extracted"] = extracted
        summary["shift_gap"] = {
            a: abs(extracted[a] - predicted[a]) for a in A.modes}
    except FrequencyExtractionError as exc:  # short runs cannot support the fit
        summary["frequency_extraction"] = f"skipped: {exc}"
    if args.distance_alpha is not None:
        summary["torus_distance"] = torus_distance(
            traj, actions, args.mass, args.distance_alpha)
    text = json.dumps(summary, sort_keys=True, default=float)
    if args.output_dir:
        _write_json(os.path.join(args.output_dir, "summary.json"),
                    json.loads(text))
        _write_trajectory_csv(os.path.join(args.output_dir, "trajectory.csv"), traj, A)
        _snapshot(args.output_dir, "final_state", traj.xi[-1], cfg, manifest)
    else:
        print(text)
    return EXIT_OK


def _write_trajectory_csv(path: str, traj, A: AdmissibleSet) -> None:
    cols = ["t", "energy"]
    cols += [f"action_{a}" for a in A.modes]
    cols += [f"phase_{a}" for a in A.modes]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(traj.times):
            row = [repr(float(t)), repr(float(traj.energy[i]))]
            row += [repr(float(v)) for v in traj.actions[i]]
            row += [repr(float(v)) for v in traj.phases[i]]
            fh.write(",".join(row) + "\n")


def _snapshot(output_dir: str, name: str, xi: np.ndarray, cfg: SimConfig,
              manifest: dict) -> None:
    """Field snapshot: little-endian float64 pairs (re, im) plus JSON sidecar."""
    data = np.empty(2 * len(xi))
    data[0::2] = xi.real
    data[1::2] = xi.imag
    path = os.path.join(output_dir, name + ".bin")
    data.astype("<f8").tofile(path)
    _write_json(path + ".json", {
        "cutoff": cfg.cutoff,
        "dt": cfg.dt,
        "mass": cfg.mass,
        "run_id": manifest["run_id"],
        "layout": "interleaved re/im float64, mode index -cutoff..cutoff",
    })


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Options each subcommand needs, from argv or from --config.  argparse's own
# required=True would be checked before the config document is read.
REQUIRED = {
    "admissible": ("--modes",),
    "divisors": ("--modes", "--mass"),
    "birkhoff": ("--modes", "--mass"),
    "kamcheck": ("--modes",),
    "simulate": ("--modes",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavekam",
        description="Normal form, small divisor and torus diagnostics for the "
                    "cubic wave equation on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict = {}
    parser._wavekam_subparsers = registry

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output-dir", default=None)

    p = registry["admissible"] = sub.add_parser("admissible", help="check a tangential mode set")
    p.add_argument("--modes", type=_parse_modes)
    common(p)
    p.set_defaults(func=cmd_admissible)

    p = registry["divisors"] = sub.add_parser("divisors", help="scan small-divisor lower bounds")
    p.add_argument("--modes", type=_parse_modes)
    p.add_argument("--mass", type=float)
    p.add_argument("--kappa", type=float, default=1e-6)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--grid", type=int, default=0,
                   help="mass-grid points for the excluded-mass scan (0 = skip)")
    p.add_argument("--certify", action="store_true",
                   help="re-check reported bounds with interval arithmetic")
    common(p)
    p.set_defaults(func=cmd_divisors)

    p = registry["birkhoff"] = sub.add_parser("birkhoff", help="order-4 normal form and residuals")
    p.add_argument("--modes", type=_parse_modes)
    p.add_argument("--mass", type=float)
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--gamma-threshold", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_birkhoff)

    p = registry["kamcheck"] = sub.add_parser("kamcheck", help="verify separation/transversality/Melnikov")
    p.add_argument("--modes", type=_parse_modes)
    p.add_argument("--mass", type=float, default=1.31)
    p.add_argument("--nu", type=float, default=1e-4)
    p.add_argument("--hypothesis", choices=["a1", "a2", "a3", "all"], default="all")
    p.add_argument("--kappa", type=float, default=1e-6)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--smax", type=int, default=40)
    p.add_argument("--rho-grid", type=int, default=None,
                   help="rho grid points per dimension")
    p.add_argument("--kappa-sweep", type=_parse_floats, default=None,
                   help="comma-separated kappa values; emits (kappa, "
                        "accepted_fraction) pairs")
    p.add_argument("--force", action="store_true",
                   help="allow tangential dimension > 4")
    common(p)
    p.set_defaults(func=cmd_kamcheck)

    p = registry["simulate"] = sub.add_parser("simulate", help="integrate the truncated system")
    p.add_argument("--modes", type=_parse_modes)
    p.add_argument("--mass", type=float, default=1.3)
    p.add_argument("--nu", type=float, default=1e-3,
                   help="action scale: I_a = nu on every tangential mode")
    p.add_argument("--cutoff", type=int, default=32)
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--linear", action="store_true",
                   help="disable the nonlinearity")
    p.add_argument("--store-every", type=int, default=100)
    p.add_argument("--distance-alpha", type=float, default=None,
                   help="also compute the Sobolev distance to the linear torus")
    common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser, argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    missing = [flag for flag in REQUIRED[args.command]
               if getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        sub = parser._wavekam_subparsers[args.command]
        sub.print_usage(sys.stderr)
        print(f"{sub.prog}: error: the following arguments are required: "
              f"{', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    # argparse's float() and a JSON document both let NaN and infinities in
    for name, value in sorted(vars(args).items()):
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            print(f"error: --{name.replace('_', '-')} must be finite, got {value!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

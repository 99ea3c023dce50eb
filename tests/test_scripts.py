import contextlib
import csv
import importlib.util
import io
import os
import sys

import pytest

from wavekam.smalldiv import excluded_mass_scan
from wavekam.spectrum import AdmissibleSet

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def call_script(name, argv):
    """Run a study script's main with argv; its exit code, stdout and stderr."""
    path = os.path.join(SCRIPTS, name + ".py")
    spec = importlib.util.spec_from_file_location("script_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out, err, saved = io.StringIO(), io.StringIO(), sys.argv
    sys.argv = [path, *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = module.main()
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def run_script(name, argv):
    code, out, _ = call_script(name, argv)
    assert code == 0
    return out


def test_frequency_shift_csv_cells_are_plain_floats():
    text = run_script("frequency_shift_study", [
        "--modes", "1", "--mass", "1.3", "--nus", "1e-3", "--cutoff", "4",
        "--tmax", "420", "--dt", "0.02"])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    for field in ("nu", "omega_linear", "omega_predicted", "omega_extracted",
                  "gap", "tolerance"):
        float(rows[0][field])


def test_melnikov_sweep_csv_falls_with_kappa():
    kappas = [1e-3, 2e-3, 3e-3, 4e-3]
    text = run_script("melnikov_sweep", [
        "--modes", "1", "--mass", "1.31", "--nu", "1e-2",
        "--kappas", ",".join(repr(k) for k in kappas),
        "--kmax", "3", "--smax", "12", "--rho-grid", "40"])
    assert text.splitlines()[0] == "kappa,kmax,accepted_fraction,checked"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2 * len(kappas)              # kmax and 2 kmax per kappa
    for kmax in ("3", "6"):
        fractions = [float(r["accepted_fraction"]) for r in rows if r["kmax"] == kmax]
        assert [float(r["kappa"]) for r in rows if r["kmax"] == kmax] == kappas
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 1.0 and fractions[-1] < 1.0


def test_excluded_mass_csv_rows_are_the_scan():
    kappas, kmaxes = [1e-4, 1e-3, 1e-2], [1, 2]
    text = run_script("excluded_mass_study", [
        "--modes", "0,2", "--kappas", ",".join(repr(k) for k in kappas),
        "--kmaxes", "1,2", "--smax", "6", "--grid", "2000"])
    assert text.splitlines()[0] == "kappa,kmax,excluded_fraction,bound_shape,tau_d3,iota_d3"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [(float(r["kappa"]), int(r["kmax"])) for r in rows] == [
        (kappa, N) for kappa in kappas for N in kmaxes]
    A = AdmissibleSet([0, 2])
    fraction = {}
    for r in rows:
        kappa, N = float(r["kappa"]), int(r["kmax"])
        est = excluded_mass_scan(A, kappa, N, 6, grid=2000)
        assert [float(r[f]) for f in ("excluded_fraction", "bound_shape", "tau_d3", "iota_d3")] == [
            est.sampled_measure, est.bound_shape, est.parameters["tau_d3"],
            est.parameters["iota_d3"]]
        fraction[kappa, N] = est.sampled_measure
    for N in kmaxes:
        by_kappa = [fraction[kappa, N] for kappa in kappas]
        assert by_kappa == sorted(by_kappa) and by_kappa[-1] > 0.0
    for kappa in kappas:
        by_n = [fraction[kappa, N] for N in kmaxes]
        assert by_n == sorted(by_n)


def test_excluded_mass_csv_keeps_duplicate_rows_in_order():
    kappas, kmaxes = ["0.01", "0.0001", "0.01"], ["2", "1", "2"]
    text = run_script("excluded_mass_study", [
        "--modes", "1", "--kappas", ",".join(kappas), "--kmaxes", ",".join(kmaxes),
        "--smax", "6", "--grid", "500"])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [(r["kappa"], r["kmax"]) for r in rows] == [
        (kappa, N) for kappa in kappas for N in kmaxes]
    A = AdmissibleSet([1])
    for r in rows:
        est = excluded_mass_scan(A, float(r["kappa"]), int(r["kmax"]), 6, grid=500)
        assert float(r["excluded_fraction"]) == est.sampled_measure


@pytest.mark.parametrize("name, argv", [
    ("excluded_mass_study", ["--kappas=-1e-3", "--kmaxes", "1", "--grid", "200"]),
    ("excluded_mass_study", ["--kappas", "nan", "--kmaxes", "1", "--grid", "200"]),
    ("excluded_mass_study", ["--kappas", "1e-3", "--kmaxes", "0", "--grid", "200"]),
    ("excluded_mass_study", ["--kappas", "1e-3", "--kmaxes", "1", "--grid", "0"]),
    ("excluded_mass_study", ["--kappas", "1e-3,-1e-3", "--kmaxes", "1", "--grid", "200"]),
    ("frequency_shift_study", ["--nus=-1e-3", "--cutoff", "4", "--tmax", "420",
                               "--dt", "0.02"]),
    ("frequency_shift_study", ["--nus", "nan", "--cutoff", "4", "--tmax", "420",
                               "--dt", "0.02"]),
    ("frequency_shift_study", ["--nus", "1e-3,2e-3", "--cutoff", "4", "--tmax", "100",
                               "--dt", "0.02"]),
    ("frequency_shift_study", ["--modes", "1", "--mass", "1.3", "--nus", "1e4",
                               "--cutoff", "8", "--tmax", "420", "--dt", "0.02"]),
    ("melnikov_sweep", ["--kappas", "1e-3", "--kmax", "2", "--smax", "6",
                        "--rho-grid", "5"]),
    ("excluded_mass_study", ["--kappas", "1e-3", "--kmaxes", "1", "--smax", "-1",
                             "--grid", "200"]),
    ("excluded_mass_study", ["--kappas", "1e-3", "--kmaxes", "1,0", "--grid", "200"]),
    ("melnikov_sweep", ["--kappas", "1e-5", "--kmax", "2", "--smax", "-2",
                        "--rho-grid", "5"]),
    # every kappa is below nu = inf, whose NaN divisors read as accepted
    ("melnikov_sweep", ["--nu", "inf", "--kappas", "1e-6", "--kmax", "1", "--smax", "3",
                        "--rho-grid", "3"]),
], ids=["em-negative-kappa", "em-nan-kappa", "em-kmax-0", "em-grid-0",
        "em-second-kappa-negative", "fs-negative-nu", "fs-nan-nu", "fs-too-short",
        "fs-nan-blowup", "ms-kappa-above-nu", "em-negative-smax", "em-second-kmax-0",
        "ms-negative-smax", "ms-infinite-nu"])
def test_library_value_error_is_a_usage_error(name, argv):
    # a failed run leaves stdout empty: no header, no rows before the failure
    code, out, err = call_script(name, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_melnikov_sweep_checks_smax_before_the_normal_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_homological ran before --smax was checked")

    monkeypatch.setattr("wavekam.birkhoff.solve_homological", refuse)
    code, out, err = call_script("melnikov_sweep", ["--modes", "0", "--smax", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: --smax 0 leaves no normal mode to check\n"


@pytest.mark.parametrize("kappas", ["1e-3", "1e-5,1e-3", "-1e-5", "nan"],
                         ids=["above-nu", "second-above-nu", "negative", "nan"])
def test_melnikov_sweep_checks_kappa_before_the_normal_form(monkeypatch, kappas):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_homological ran before kappa was checked")

    monkeypatch.setattr("wavekam.birkhoff.solve_homological", refuse)
    code, out, err = call_script("melnikov_sweep", ["--nu", "1e-4", f"--kappas={kappas}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: need 0 < kappa < nu")

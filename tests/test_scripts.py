import contextlib
import csv
import importlib.util
import io
import os
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, argv):
    path = os.path.join(SCRIPTS, name + ".py")
    spec = importlib.util.spec_from_file_location("script_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out, saved = io.StringIO(), sys.argv
    sys.argv = [path, *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert module.main() == 0
    finally:
        sys.argv = saved
    return out.getvalue()


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

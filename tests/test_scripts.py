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

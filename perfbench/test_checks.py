"""Each of the benchmark's checks accepts the program's real output and
rejects a corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from wavekam import cli  # noqa: E402
from wavekam.birkhoff import solve_homological  # noqa: E402
from wavekam.polyham import build_p4  # noqa: E402
from wavekam.smalldiv import classify_resonant, enumerate_queries  # noqa: E402
from wavekam.spectrum import AdmissibleSet, FrequencySystem  # noqa: E402


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _run_script(name, argv):
    path = os.path.join(ROOT, "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location("test_script_" + name, path)
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


def _rewrite_csv(text, edit):
    rows = list(csv.DictReader(io.StringIO(text)))
    fields = list(rows[0])
    rows = edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# -- birkhoff ----------------------------------------------------------------

MODES3, MASS3 = (0, 1, 5), 1.2337


@pytest.fixture(scope="module")
def birkhoff_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("birkhoff"))
    assert _run_cli(["birkhoff", "--modes", "0,1,5", "--mass", repr(MASS3),
                     "--cutoff", "6", "--output-dir", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out, "normal_form.txt")) as fh:
        text = fh.read()
    return summary, text


def test_birkhoff_accepts_program_output(birkhoff_out):
    assert checks.check_birkhoff(*birkhoff_out, MODES3, MASS3) == []


def test_birkhoff_rejects_moved_table_entry(birkhoff_out):
    summary, text = birkhoff_out
    bad = json.loads(json.dumps(summary))
    bad["z4_plus_table"]["0,5"]["actual_re"] *= 1 + 1e-9
    assert checks.check_birkhoff(bad, text, MODES3, MASS3)


def test_birkhoff_rejects_non_action_monomial(birkhoff_out):
    summary, text = birkhoff_out
    bad = text.replace("# section: Q4", "xi:0^1,1^1 eta:0^1,-1^1 re:0.1 im:0.0\n# section: Q4")
    assert any("not an action" in p for p in checks.check_birkhoff(summary, bad, MODES3, MASS3))


def test_birkhoff_rejects_large_residual(birkhoff_out):
    summary, text = birkhoff_out
    assert checks.check_birkhoff(dict(summary, residual_norm=1e-8), text, MODES3, MASS3)


# -- remainder ---------------------------------------------------------------

@pytest.fixture(scope="module")
def remainder_terms():
    fs, A = FrequencySystem(MASS3), AdmissibleSet(MODES3)
    p4 = build_p4(3, fs)
    nf = solve_homological(p4, fs, A, with_remainder=True)
    terms = lambda poly: [(m.xi, m.eta, c) for m, c in poly]
    return {"p4": terms(p4.total), "z4": terms(nf.Z4), "q4": terms(nf.Q4),
            "chi4": terms(nf.chi4), "r6": terms(nf.R6_truncated)}


def _check_remainder(t):
    return checks.check_remainder(t["p4"], t["z4"], t["q4"], t["chi4"], t["r6"], 3,
                                  MASS3, np.random.default_rng(7))


def test_remainder_accepts_program_output(remainder_terms):
    assert _check_remainder(remainder_terms) == []


def test_remainder_rejects_scaled_coefficient(remainder_terms):
    r6 = list(remainder_terms["r6"])
    xi, eta, c = r6[len(r6) // 2]
    r6[len(r6) // 2] = (xi, eta, c * (1 + 1e-6))
    assert _check_remainder(dict(remainder_terms, r6=r6))


def test_remainder_rejects_dropped_term(remainder_terms):
    assert _check_remainder(dict(remainder_terms, r6=remainder_terms["r6"][1:]))


def test_remainder_rejects_wrong_generator(remainder_terms):
    chi4 = [(xi, eta, 1.001 * c) for xi, eta, c in remainder_terms["chi4"]]
    assert _check_remainder(dict(remainder_terms, chi4=chi4))


# -- divisors ----------------------------------------------------------------

def test_divisor_table_matches_program_enumeration():
    for modes, N, S in (((1,), 3, 5), ((0, 1, 5), 2, 6)):
        A = AdmissibleSet(modes)
        table = checks.DivisorTable(modes, N, S)
        ours = {}
        for i in range(len(table)):
            a = None if table.kind[i] == "D0" else int(table.a[i])
            b = int(table.b[i]) if table.b_sign[i] != 0 else None
            ours[(str(table.kind[i]), tuple(int(x) for x in table.k[i]), a, b)] = bool(table.resonant[i])
        theirs = {(q.kind, q.k, q.a, q.b): classify_resonant(q, A)
                  for q in enumerate_queries(A, N, S)}
        assert ours == theirs
        assert tracer.divisor_queries(modes, N, S) == len(theirs)


@pytest.fixture(scope="module")
def divisors_csv(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("divisors"))
    assert _run_cli(["divisors", "--modes", "1", "--mass", "1.3", "--kappa", "1e-2",
                     "--kmax", "4", "--smax", "8", "--certify", "--output-dir", out]) == 3
    with open(os.path.join(out, "violations.csv")) as fh:
        return fh.read()


def _check_divisors(text):
    return checks.check_divisors(text, (1,), 1.3, 1e-2, 4, 8)


def test_divisors_accepts_program_output(divisors_csv):
    assert _check_divisors(divisors_csv) == []


def test_divisors_rejects_dropped_row(divisors_csv):
    bad = _rewrite_csv(divisors_csv, lambda rows: rows[:-1])
    assert any("missing" in p for p in _check_divisors(bad))


def test_divisors_rejects_uncertified_row(divisors_csv):
    def edit(rows):
        rows[0]["certified"] = "0"
        return rows
    assert any("not certified" in p for p in _check_divisors(_rewrite_csv(divisors_csv, edit)))


def test_divisors_rejects_moved_value(divisors_csv):
    def edit(rows):
        rows[0]["value"] = repr(float(rows[0]["value"]) + 1e-9)
        return rows
    assert _check_divisors(_rewrite_csv(divisors_csv, edit))


def test_divisors_rejects_empty_scan():
    assert checks.check_divisors("kind,k,a,b,value,required,resonant,satisfied,certified\n",
                                 (1,), 1.3, 1e-9, 2, 4)


# -- excluded mass -----------------------------------------------------------

EXCLUDED = dict(kappas=(1e-4, 1e-2), kmaxes=(1, 2), smax=4, grid=500)


@pytest.fixture(scope="module")
def excluded_csv():
    return _run_script("excluded_mass_study", [
        "--modes", "0,1,5", "--kappas", "1e-4,1e-2", "--kmaxes", "1,2",
        "--smax", "4", "--grid", "500"])


def _check_excluded(text, verify=1e-2):
    e = EXCLUDED
    return checks.check_excluded_mass(text, MODES3, e["kappas"], e["kmaxes"], e["smax"],
                                      e["grid"], verify)


def test_excluded_mass_accepts_program_output(excluded_csv):
    assert _check_excluded(excluded_csv) == []
    assert _check_excluded(excluded_csv, verify=1e-4) == []


def test_excluded_mass_rejects_moved_fraction(excluded_csv):
    def edit(rows):
        for row in rows:
            if float(row["kappa"]) == 1e-2 and row["kmax"] == "1":
                row["excluded_fraction"] = repr(float(row["excluded_fraction"]) - 1 / 500)
        return rows
    assert _check_excluded(_rewrite_csv(excluded_csv, edit))


def test_excluded_mass_rejects_decrease_in_kappa(excluded_csv):
    def edit(rows):
        for row in rows:
            if float(row["kappa"]) == 1e-2 and row["kmax"] == "2":
                row["excluded_fraction"] = "0.0"
        return rows
    assert any("decreases" in p for p in _check_excluded(_rewrite_csv(excluded_csv, edit)))


def test_excluded_mass_rejects_fraction_above_one(excluded_csv):
    def edit(rows):
        rows[-1]["excluded_fraction"] = "1.5"
        return rows
    assert any("outside" in p for p in _check_excluded(_rewrite_csv(excluded_csv, edit)))


# -- kamcheck ----------------------------------------------------------------

KAPPAS = (1e-7, 1e-6, 1e-5)


@pytest.fixture(scope="module")
def kamcheck_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kamcheck"))
    assert _run_cli(["kamcheck", "--modes", "1", "--mass", "1.3", "--hypothesis", "all",
                     "--kappa-sweep", "1e-07,1e-06,1e-05", "--kmax", "4", "--smax", "10",
                     "--rho-grid", "20", "--output-dir", out]) == 0
    with open(os.path.join(out, "report_a1.json")) as fh:
        a1 = json.load(fh)
    with open(os.path.join(out, "kappa_sweep.csv")) as fh:
        return a1, fh.read()


def test_kamcheck_accepts_program_output(kamcheck_out):
    assert checks.check_kamcheck(*kamcheck_out, KAPPAS, (1e-6, 0.99)) == []


def test_kamcheck_rejects_a1_violation(kamcheck_out):
    a1, sweep = kamcheck_out
    assert checks.check_kamcheck(dict(a1, violations=1), sweep, KAPPAS, None)


def test_kamcheck_rejects_rising_fraction(kamcheck_out):
    a1, _ = kamcheck_out
    sweep = "kappa,accepted_fraction\n1e-07,0.9\n1e-06,0.95\n1e-05,0.5\n"
    assert any("rises" in p for p in checks.check_kamcheck(a1, sweep, KAPPAS, None))


def test_kamcheck_rejects_low_fraction(kamcheck_out):
    a1, _ = kamcheck_out
    sweep = "kappa,accepted_fraction\n1e-07,1.0\n1e-06,0.98\n1e-05,0.5\n"
    assert checks.check_kamcheck(a1, sweep, KAPPAS, (1e-6, 0.99))


# -- torus -------------------------------------------------------------------

NUS = (1e-3, 2e-3, 4e-3)


@pytest.fixture(scope="module")
def torus_csv():
    return _run_script("frequency_shift_study", [
        "--modes", "1", "--mass", "1.3", "--nus", "0.001,0.002,0.004",
        "--cutoff", "8", "--tmax", "420.0", "--dt", "0.01"])


def _check_torus(text):
    return checks.check_torus(text, (1,), 1.3, NUS, 1.3)


def test_torus_accepts_program_output(torus_csv):
    assert _check_torus(torus_csv) == ([], [])


def test_torus_flags_prediction_moved_by_tolerance(torus_csv):
    def edit(rows):
        nu = float(rows[0]["nu"])
        predicted = checks._num(rows[0]["omega_predicted"])
        away = math.copysign(1.0, predicted - checks._num(rows[0]["omega_extracted"]))
        rows[0]["omega_predicted"] = repr(predicted + away * 10 * nu ** 1.5)
        return rows
    problems, gaps = _check_torus(_rewrite_csv(torus_csv, edit))
    assert gaps


def test_torus_rejects_wrong_linear_frequency(torus_csv):
    def edit(rows):
        rows[1]["omega_linear"] = repr(math.sqrt(1 + 1.31))
        return rows
    problems, _ = _check_torus(_rewrite_csv(torus_csv, edit))
    assert problems


def test_torus_rejects_flat_gap_exponent(torus_csv):
    def edit(rows):
        for row in rows:
            row["omega_extracted"] = repr(checks._num(row["omega_predicted"]) + 1e-7)
        return rows
    problems, _ = _check_torus(_rewrite_csv(torus_csv, edit))
    assert any("exponent" in p for p in problems)

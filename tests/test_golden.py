"""Byte-identity pins, by sha256: the normal form as of commit 676fcdb, when
polynomials were dicts of Monomials, the divisor and excluded-mass outputs
as of commit b8b49d1, when the (a, b) tables were indexed by mode, the
integrator's trajectories and the frequency-shift study as of commit
8cc25ff, when the Strang step allocated its temporaries per step and held
xi and eta as two arrays, and the kamcheck reports and the Melnikov sweep
as of commit 01a5c51, when A3 made one scan per kappa and A2 settled its
flagged cells one rho point at a time."""

import hashlib

import numpy as np
import pytest

from wavekam.birkhoff import solve_homological
from wavekam.cli import main
from wavekam.polyham import build_p4
from wavekam.simulate import SimConfig, integrate_batch
from wavekam.spectrum import AdmissibleSet, FrequencySystem
from test_scripts import run_script


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("modes, mass, cutoff, normal_form, summary", [
    ("1", "1.3", "14",
     "6e08b37b84a92b06ec8928157b22b8cc0e71303a7a4e55b3bad472eb9d5b77e9",
     "51d0bace36e1a2b58ea032a1ea6d86db151c02825d0d6d9127c2591fa0066810"),
    ("0,1,5", "1.2337", "8",
     "fe3db3c29417241336c9fa15e751ab360ed76ea1469d63202167aa7034f00b83",
     "b75438d342f1a0e916f5075d8d2bd3169af998f0d769d9a7d06dd2366f34aa4b"),
], ids=["one_mode", "three_modes"])
def test_birkhoff_outputs(tmp_path, capsys, modes, mass, cutoff, normal_form, summary):
    assert main(["birkhoff", "--modes", modes, "--mass", mass, "--cutoff", cutoff,
                 "--output-dir", str(tmp_path)]) == 0
    assert sha256((tmp_path / "normal_form.txt").read_bytes()) == normal_form
    assert sha256((tmp_path / "summary.json").read_bytes()) == summary


@pytest.mark.parametrize("modes, mass, n_terms, digest", [
    ((1,), 1.3, 12766,
     "7e18bc92f340482f79491444c62bdea984be9708c41bc45be4cb1f3db82250cb"),
    ((0, 1, 5), 1.2337, 13191,
     "f8ca095a80d33b4aaa77cc12c5849456f8ba445dc3e39a6c93cae6b63e755c69"),
], ids=["one_mode", "three_modes"])
def test_remainder_terms(modes, mass, n_terms, digest):
    # every term in insertion order, with the bits of its coefficient
    fs = FrequencySystem(mass)
    nf = solve_homological(build_p4(5, fs), fs, AdmissibleSet(modes), with_remainder=True)
    r6 = nf.R6_truncated
    assert len(r6) == n_terms
    text = "\n".join(f"{m.xi} {m.eta} {c.real.hex()} {c.imag.hex()}" for m, c in r6)
    assert sha256(text.encode()) == digest


@pytest.mark.parametrize("argv, digest", [
    (["--modes", "1", "--kappas", "1e-06,0.0001,0.01", "--kmaxes", "1,2,3",
      "--smax", "8", "--grid", "16000"],
     "e64a269e727eeb881cd15cab266dc235e0a3814f6a7f99da33251049218138b0"),
    (["--modes", "0,1,5", "--kappas", "1e-06,0.0001,0.01", "--kmaxes", "1,2",
      "--smax", "8", "--grid", "8000"],
     "55a192bbb4643800127c3280b2b78a8f3c5f62a8711553d7ad37e51cf88b4a29"),
], ids=["one_mode", "three_modes"])
def test_excluded_mass_study_stdout(argv, digest):
    assert sha256(run_script("excluded_mass_study", argv).encode()) == digest


@pytest.mark.parametrize("kappa, violations, excluded", [
    ("1e-8", "3dd56f8f89c94199b3ec7235bbbc03ef15e6b5b5e47be9fb838a3575c0da226d",
     "53af4f6973344be216950e0cdef338d21d575f28546c8596cec62169da3ac1f8"),
    ("0.05", "dbdddf5e2954e8e8a6f846da576b522afd89f6860af4edbabca66c6451ac87ff",
     "78a8c8c91c756313cb559a8049f6eb2c3ef3a091fb7f2bf11763fd543b68fb4e"),
], ids=["readme", "flooded"])
def test_divisors_outputs(tmp_path, capsys, kappa, violations, excluded):
    main(["divisors", "--modes", "1", "--mass", "1.5123", "--kappa", kappa, "--kmax", "2",
          "--smax", "6", "--grid", "2000", "--certify", "--output-dir", str(tmp_path)])
    assert sha256((tmp_path / "violations.csv").read_bytes()) == violations
    assert sha256((tmp_path / "excluded_mass.json").read_bytes()) == excluded


@pytest.mark.parametrize("argv, digest", [
    (["--modes", "1", "--mass", "1.3", "--nus", "1e-3,2e-3,4e-3", "--cutoff", "12",
      "--tmax", "420", "--dt", "0.02"],
     "d298a97522967e9524dcc9fecf267043a660b1db8765e491abaf440ec5d84275"),
    (["--modes", "0,1,5", "--mass", "1.2337", "--nus", "1e-3", "--cutoff", "5",
      "--tmax", "580", "--dt", "6e-3"],
     "930ae72f33f40b98949856f74d5c85efc1392c731470325a474b10a0d6dabc90"),
], ids=["one_mode", "three_modes"])
def test_frequency_shift_study_stdout(argv, digest):
    assert sha256(run_script("frequency_shift_study", argv).encode()) == digest


@pytest.mark.parametrize("nonlinear, digest", [
    (True, "c810ef0efe350801e9287463c0fe81a426b2a3d87d392690dcd7812080b705a6"),
    (False, "d949566e4c76ffafde7b68c4a6568b6909681fe2bf587fe00aae95383458a6b6"),
], ids=["strang_split", "linear"])
def test_integrate_batch_trajectories(nonlinear, digest):
    # three members with distinct actions, phases and seeded normal-mode noise
    A = AdmissibleSet([0, 1])
    cfgs = [SimConfig(cutoff=8, mass=1.3, A=A, actions={0: I, 1: 2 * I},
                      theta0={1: theta}, dt=1e-3, T=1.05, store_every=100,
                      nonlinearity_on=nonlinear, perturb_scale=scale, seed=seed)
            for I, theta, scale, seed in ((1e-3, 0.0, 1e-5, 1),
                                          (4e-3, 0.7, 1e-4, 3),
                                          (2e-2, -1.0, 1e-3, 5))]
    h = hashlib.sha256()
    for traj in integrate_batch(cfgs):
        for name in ("xi", "eta", "energy"):
            h.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
    assert h.hexdigest() == digest


KAMCHECK_FILES = ("report_a1.json", "report_a1.txt", "report_a2.json", "report_a2.txt",
                  "report_a3.json", "report_a3.txt", "kappa_sweep.csv")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("argv, digests", [
    (["--modes", "1", "--mass", "1.3", "--kmax", "10", "--smax", "40", "--rho-grid", "250"],
     ["19b69c9daee3b598805998fbde50e6d6b0741e15affb6683e0b62c34b1b2f409", EMPTY,
      "ade8797f40de463e8a858987471c7d7fe62dbdd5c0db31b2ac93313278f6ff7c", EMPTY,
      "d99ee7cbd98696da6325873e0012d70ca6436603ce33094c25abbd7c2d367c4a", EMPTY,
      "480bfc5d9c04b85321c5ac4956c68039c32f37eb7fca97650d7f817f4b013586"]),
    (["--modes", "0,1,5", "--mass", "1.2337", "--kmax", "3", "--smax", "20", "--rho-grid", "5"],
     ["50bdad126d4218ba528197a6607dea1da801d71fdd642e483852d3e858739d66", EMPTY,
      "c1be5cbb7107539bda074f37cbb60d1fa40f20b92199dc5013fc62768f72f4c5",
      "bf3846cc64f1e0734d2fe31d60bba82570098c2370172bb68a8f340d6df24935",
      "c60a5ab2b2a43bfd2d6290746c906427d02d59db7687d44396c05715ff396308",
      "127c744cd3fac1220ea8509a6c2c2a9538b009d70eb7f78049833d9fc552f795",
      "7ee1ebb45784a2e4202c373474b075f0012fde1f5ae087789c9fcbca3df17f34"]),
], ids=["one_mode", "three_modes"])
def test_kamcheck_outputs(tmp_path, capsys, argv, digests):
    # the benchmark's kamcheck stage; three_modes reports 3000 A2 violations
    main(["kamcheck", *argv, "--nu", "0.0001", "--hypothesis", "all",
          "--kappa-sweep", "1e-07,1e-06,1e-05", "--output-dir", str(tmp_path)])
    assert [sha256((tmp_path / name).read_bytes()) for name in KAMCHECK_FILES] == digests


@pytest.mark.parametrize("argv, digest", [
    ([], "3d54f8aa306343ce1512e2b799cf83c2c89c7c3939f237fdd8994db9eb5bb4a0"),
    (["--modes", "0,1,5", "--mass", "1.2337", "--kappas", "1e-6,1e-5,5e-5", "--kmax", "3",
      "--smax", "20", "--rho-grid", "5"],
     "a83a414d74e1ce04a8910f057b652e6faf13d05022287390f891dcd767a5c9b0"),
], ids=["defaults", "three_modes"])
def test_melnikov_sweep_stdout(argv, digest):
    assert sha256(run_script("melnikov_sweep", argv).encode()) == digest

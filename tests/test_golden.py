"""Byte-identity of the normal form: the outputs of commit 676fcdb, when
polynomials were dicts of Monomials, pinned by their sha256."""

import hashlib

import pytest

from wavekam.birkhoff import solve_homological
from wavekam.cli import main
from wavekam.polyham import build_p4
from wavekam.spectrum import AdmissibleSet, FrequencySystem


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

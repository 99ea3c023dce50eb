import json

import numpy as np
import pytest

from wavekam import cli
from wavekam.cli import build_parser, main


def run(argv):
    return main(argv)


class TestAdmissible:
    def test_admissible_set(self, capsys):
        assert run(["admissible", "--modes", "0,1,5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"admissible": True, "modes": [0, 1, 5]}

    def test_opposite_pair(self, capsys):
        assert run(["admissible", "--modes", "1,-1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["admissible"] is False and out["witness"] == 1

    def test_duplicate_is_usage_error(self):
        assert run(["admissible", "--modes", "2,2"]) == 2

    @pytest.mark.parametrize("source", ["argv", "config"])
    def test_empty_set_is_usage_error(self, source, tmp_path, capsys):
        # every subcommand refuses the empty tangential set
        if source == "argv":
            argv = ["admissible", "--modes", ""]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"modes": []}))
            argv = ["admissible", "--config", str(config)]
        assert run(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: tangential set must be non-empty" in err
        assert not (tmp_path / "out").exists()


class TestDivisors:
    def test_generic_mass_empty(self, tmp_path, capsys):
        code = run(["divisors", "--modes", "1", "--mass", "1.5123",
                    "--kappa", "1e-8", "--kmax", "2", "--smax", "6",
                    "--output-dir", str(tmp_path)])
        assert code == 0
        csv_lines = (tmp_path / "violations.csv").read_text().splitlines()
        assert csv_lines[0].startswith("kind,")
        assert len(csv_lines) == 1

    def test_huge_kappa_violations_exit_code(self, tmp_path):
        code = run(["divisors", "--modes", "1", "--mass", "1.5",
                    "--kappa", "10", "--kmax", "1", "--smax", "4",
                    "--output-dir", str(tmp_path)])
        assert code == 3
        lines = (tmp_path / "violations.csv").read_text().splitlines()
        assert len(lines) > 1

    def test_certify_adds_column(self, tmp_path):
        run(["divisors", "--modes", "1", "--mass", "1.5", "--kappa", "10",
             "--kmax", "1", "--smax", "4", "--certify",
             "--output-dir", str(tmp_path)])
        header = (tmp_path / "violations.csv").read_text().splitlines()[0]
        assert header.endswith(",certified")

    def test_bad_mass_usage(self):
        assert run(["divisors", "--modes", "1", "--mass", "0.3"]) == 2

    def test_bad_scan_parameters_usage(self, tmp_path, capsys):
        for flag in ("--kappa=0", "--kappa=-1e-6", "--kmax=0", "--grid=-5"):
            out = tmp_path / flag
            assert run(["divisors", "--modes", "1", "--mass", "1.5", flag,
                        "--output-dir", str(out)]) == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    def test_excluded_scan_json(self, tmp_path):
        run(["divisors", "--modes", "1", "--mass", "1.5123", "--kappa", "1e-8",
             "--kmax", "2", "--smax", "6", "--grid", "500",
             "--output-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "excluded_mass.json").read_text())
        assert 0.0 <= doc["excluded_fraction"] <= 1.0


class TestBirkhoff:
    def test_run_and_summary(self, tmp_path):
        code = run(["birkhoff", "--modes", "0,1,5", "--mass", "1.2337",
                    "--cutoff", "8", "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["residual_norm"] <= 1e-10
        assert doc["vanishing_ok"] is True
        assert "0,0" in doc["z4_plus_table"]
        assert (tmp_path / "normal_form.txt").exists()

    def test_gamma_gate_exit(self, tmp_path, capsys):
        # a threshold above the computed minimum divisor must trip the gate
        code = run(["birkhoff", "--modes", "0,1,5", "--mass", "1.2337",
                    "--cutoff", "8", "--gamma-threshold", "0.5"])
        assert code == 4

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_gamma_threshold_not_positive_is_usage_error(self, tmp_path, capsys, threshold):
        # a gate at 0 or below is no gate: a zero divisor would reach chi4
        out = tmp_path / "out"
        assert run(["birkhoff", "--modes", "1", "--mass", "1.3", "--cutoff", "3",
                    f"--gamma-threshold={threshold}", "--output-dir", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "error: gamma threshold must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", ["2", "-1"])
    def test_cutoff_below_tangential_set_is_usage_error(self, tmp_path, capsys, cutoff):
        # a cutoff under |a| = 5 would drop the tangential mode from P4, and
        # a negative one has no modes at all
        out = tmp_path / "out"
        assert run(["birkhoff", "--modes", "5", "--mass", "1.3", "--cutoff", cutoff,
                    "--output-dir", str(out)]) == 2
        assert "--cutoff must cover the tangential set" in capsys.readouterr().err
        assert not out.exists()


class TestKamcheck:
    def test_defaults_small_grid(self, capsys):
        code = run(["kamcheck", "--modes", "1", "--rho-grid", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "A1:" in out and "A2:" in out and "A3:" in out
        assert "accepted_fraction=1.0000" in out

    def test_single_point_grid(self):
        assert run(["kamcheck", "--modes", "1", "--rho-grid", "1",
                    "--hypothesis", "a3"]) == 0

    def test_dimension_refusal(self):
        assert run(["kamcheck", "--modes", "0,1,2,3,4", "--rho-grid", "2",
                    "--hypothesis", "a1"]) == 2

    def test_bad_scan_parameters_usage(self, tmp_path, capsys):
        # nu defaults to 1e-4; kappa must lie in (0, nu) for A3 and the sweep
        for extra in (["--kappa", "1e-4"], ["--kappa", "0"],
                      ["--kappa-sweep", "1e-7,2e-4"], ["--rho-grid", "0"]):
            out = tmp_path / "".join(extra)
            assert run(["kamcheck", "--modes", "1", "--rho-grid", "2",
                        "--output-dir", str(out), *extra]) == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("hypothesis", ["a1", "a2", "a3", "all"])
    def test_no_normal_mode_is_usage_error(self, tmp_path, capsys, hypothesis):
        # |s| <= 0 holds only the tangential mode 0: nothing to check is not
        # a verified hypothesis
        out = tmp_path / hypothesis
        assert run(["kamcheck", "--modes", "0", "--smax", "0", "--rho-grid", "2",
                    "--hypothesis", hypothesis, "--output-dir", str(out)]) == 2
        assert "no normal mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_kmax_below_one_is_usage_error(self, tmp_path, capsys, kmax):
        # no k leaves A2 and A3 nothing to check, which is not a verification
        out = tmp_path / kmax
        assert run(["kamcheck", "--modes", "1", "--kmax", kmax, "--rho-grid", "3",
                    "--output-dir", str(out)]) == 2
        assert "--kmax must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_kappa_that_is_also_in_the_sweep(self, tmp_path):
        # --kappa and the sweep share one pass; a kappa given twice, and once
        # more as --kappa, must give what separate runs give
        common = ["kamcheck", "--modes", "0,1,5", "--mass", "1.2337", "--kmax", "3",
                  "--smax", "20", "--rho-grid", "3"]
        both, alone, sweep = tmp_path / "both", tmp_path / "alone", tmp_path / "sweep"
        assert run([*common, "--hypothesis", "a3", "--kappa", "1e-05",
                    "--kappa-sweep", "1e-05,1e-06,1e-05", "--output-dir", str(both)]) == 3
        assert run([*common, "--hypothesis", "a3", "--kappa", "1e-05",
                    "--output-dir", str(alone)]) == 3
        assert run([*common, "--hypothesis", "a1", "--kappa-sweep", "1e-06,1e-05",
                    "--output-dir", str(sweep)]) == 0
        for name in ("report_a3.json", "report_a3.txt"):
            assert (both / name).read_bytes() == (alone / name).read_bytes()
        fraction = json.loads((alone / "report_a3.json").read_text())["accepted_fraction"]
        rows = (both / "kappa_sweep.csv").read_text().splitlines()
        assert rows == ["kappa,accepted_fraction", f"1e-05,{fraction!r}",
                        (sweep / "kappa_sweep.csv").read_text().splitlines()[1],
                        f"1e-05,{fraction!r}"]
        assert 0.0 < fraction < 1.0

    def test_reports_written(self, tmp_path):
        run(["kamcheck", "--modes", "1", "--rho-grid", "3",
             "--hypothesis", "a1", "--output-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "report_a1.json").read_text())
        assert doc["violations"] == 0


class TestSimulate:
    def test_linear_mode_gap(self, tmp_path):
        code = run(["simulate", "--modes", "1", "--mass", "1.3",
                    "--linear", "--tmax", "500", "--cutoff", "8",
                    "--dt", "2e-3", "--store-every", "25",
                    "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["shift_gap"]["1"] <= 1e-8
        assert doc["reality_defect"] <= 1e-9

    def test_cfl_gate_usage_error(self):
        assert run(["simulate", "--modes", "1", "--cutoff", "64",
                    "--dt", "0.02", "--tmax", "1"]) == 2

    def test_outputs_and_sidecar(self, tmp_path):
        run(["simulate", "--modes", "1", "--linear", "--tmax", "10",
             "--cutoff", "8", "--dt", "2e-3", "--store-every", "25",
             "--output-dir", str(tmp_path)])
        data = np.fromfile(tmp_path / "final_state.bin", dtype="<f8")
        assert data.size == 2 * (2 * 8 + 1)
        sidecar = json.loads((tmp_path / "final_state.bin.json").read_text())
        assert sidecar["cutoff"] == 8 and "run_id" in sidecar
        csv_header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert csv_header == "t,energy,action_1,phase_1"

    def test_manifest_roundtrip_bit_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--modes", "1", "--tmax", "5", "--cutoff", "8",
             "--dt", "2e-3", "--store-every", "10", "--output-dir", str(d1)])
        run(["simulate", "--config", str(d1 / "manifest.json"),
             "--output-dir", str(d2)])
        for name in ("manifest.json", "trajectory.csv", "summary.json",
                     "final_state.bin", "final_state.bin.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_rerun_without_output_dir_leaves_run_alone(self, tmp_path, capsys):
        d1 = tmp_path / "a"
        run(["simulate", "--modes", "1", "--linear", "--tmax", "5", "--cutoff", "8",
             "--dt", "2e-3", "--store-every", "10", "--output-dir", str(d1)])
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in d1.iterdir()}
        capsys.readouterr()
        assert run(["simulate", "--config", str(d1 / "manifest.json")]) == 0
        after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in d1.iterdir()}
        assert after == before
        # the summary goes to stdout instead
        summary = json.loads(capsys.readouterr().out)
        assert summary["reality_defect"] == json.loads(
            (d1 / "summary.json").read_text())["reality_defect"]

    def test_unknown_config_key_usage(self, tmp_path):
        # seed and integrator were options of earlier versions; func is the
        # parser's handler, not an option
        for key, value in (("seed", 0), ("integrator", "strang_split"),
                           ("func", "x"), ("kappa", 1e-6)):
            config = tmp_path / f"{key}.json"
            config.write_text(json.dumps({"modes": [1], key: value}))
            with pytest.raises(SystemExit) as exc:
                run(["simulate", "--config", str(config), "--tmax", "1"])
            assert exc.value.code == 2

    def test_frequency_fit_bug_propagates(self, tmp_path, monkeypatch):
        def broken(traj, A):
            raise ValueError("bug in the fit")

        monkeypatch.setattr(cli, "extract_frequencies", broken)
        with pytest.raises(ValueError, match="bug in the fit"):
            run(["simulate", "--modes", "1", "--linear", "--tmax", "1",
                 "--cutoff", "8", "--dt", "2e-3", "--output-dir", str(tmp_path)])

    def test_flag_at_default_wins_over_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mass": 1.7, "store_every": 5, "nu": 2e-3}))
        out = tmp_path / "out"
        # 1.3 and 100 are the defaults of --mass and --store-every; --nu is
        # not given, so the config sets it
        assert run(["simulate", "--config", str(config), "--modes", "1",
                    "--mass", "1.3", "--store-every", "100", "--linear",
                    "--tmax", "1", "--cutoff", "8", "--dt", "2e-3",
                    "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["mass"], manifest["store_every"], manifest["nu"]) == (1.3, 100, 2e-3)
        sidecar = json.loads((out / "final_state.bin.json").read_text())
        assert sidecar["mass"] == 1.3

    def test_blowup_exit_code(self, tmp_path):
        code = run(["simulate", "--modes", "1", "--nu", "1000", "--cutoff", "8",
                    "--dt", "0.06", "--tmax", "50", "--store-every", "5",
                    "--output-dir", str(tmp_path)])
        assert code == 5
        assert (tmp_path / "last_good.bin").exists()

    def test_missing_modes_usage(self):
        assert run(["simulate", "--tmax", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["admissible", "--modes", "0,1,5"],
    ["divisors", "--modes", "1", "--mass", "1.5", "--kappa", "10", "--kmax", "1",
     "--smax", "4", "--grid", "50", "--certify"],
    ["birkhoff", "--modes", "0,1", "--mass", "1.3", "--cutoff", "4"],
    ["kamcheck", "--modes", "1", "--kmax", "2", "--smax", "6", "--rho-grid", "3",
     "--kappa-sweep", "1e-7,1e-6"],
], ids=lambda argv: argv[0])
def test_rerun_from_manifest_bit_identical(argv, tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    code = run(argv + ["--output-dir", str(d1)])
    assert run([argv[0], "--config", str(d1 / "manifest.json"),
                "--output-dir", str(d2)]) == code
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert "manifest.json" in names and len(names) > 1
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, key", [
    (["divisors", "--modes", "1", "--mass", "1.5"], "kappa"),
    (["kamcheck", "--modes", "1", "--hypothesis", "a1", "--rho-grid", "2"], "nu"),
    (["kamcheck", "--modes", "1", "--hypothesis", "a1", "--rho-grid", "2"], "kappa_sweep"),
    (["birkhoff", "--modes", "1", "--mass", "1.3", "--cutoff", "4"], "gamma_threshold"),
    (["simulate", "--modes", "1", "--tmax", "1", "--cutoff", "8"], "nu"),
    (["simulate", "--modes", "1", "--tmax", "1", "--cutoff", "8"], "dt"),
], ids=lambda p: p[0] if isinstance(p, list) else p)
def test_non_finite_float_is_usage_error(argv, key, value, source, tmp_path, capsys):
    # float() takes "nan" and "inf", and a JSON document can hold NaN and
    # Infinity; either would pass a comparison-based check or none at all
    number = [1e-7, float(value)] if key == "kappa_sweep" else float(value)
    if source == "argv":
        text = ",".join(map(repr, number)) if key == "kappa_sweep" else value
        extra = [f"--{key.replace('_', '-')}={text}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: number}))
        extra = ["--config", str(config)]
    out = tmp_path / "out"
    assert run(argv + extra + ["--output-dir", str(out)]) == 2
    assert f"--{key.replace('_', '-')} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "", "{", "[1, 2]", '"modes"', "null"],
                         ids=["missing", "empty", "not-json", "list", "string", "null"])
def test_unusable_config_is_usage_error(text, tmp_path, capsys):
    # a document that cannot be read or is not a JSON object; exit 1 would
    # read as "not admissible"
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    assert run(["admissible", "--modes", "1,2", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "--config" in err


@pytest.mark.parametrize("command, doc, key", [
    ("admissible", {"modes": 5}, "modes"),
    ("admissible", {"modes": [1, True]}, "modes"),
    ("birkhoff", {"modes": [1], "mass": 1.3, "cutoff": 2.5}, "cutoff"),
    ("birkhoff", {"modes": [1], "mass": 1.3, "cutoff": True}, "cutoff"),
    ("birkhoff", {"modes": [1], "mass": "1.3"}, "mass"),
    ("kamcheck", {"modes": [1], "hypothesis": "a4"}, "hypothesis"),
    ("kamcheck", {"modes": [1], "force": 1}, "force"),
    ("kamcheck", {"modes": [1], "kappa_sweep": 1e-7}, "kappa_sweep"),
], ids=lambda p: json.dumps(p) if isinstance(p, dict) else p)
def test_config_value_of_wrong_type_is_usage_error(command, doc, key, tmp_path, capsys):
    # argparse converts only string defaults, so a document's value of the
    # wrong JSON type would otherwise crash later or run as something else
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--output-dir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and repr(key) in err
    assert not out.exists()


def test_config_number_for_float_option_runs_as_the_flag(tmp_path, capsys):
    # a JSON integer where the flag parses a float, as --mass 2 would
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"modes": [1], "mass": 2, "cutoff": 3}))
    assert run(["birkhoff", "--config", str(config), "--output-dir", str(tmp_path / "a")]) == 0
    assert run(["birkhoff", "--modes", "1", "--mass", "2", "--cutoff", "3",
                "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("manifest.json", "summary.json", "normal_form.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_of_another_subcommand_is_usage_error(tmp_path, capsys):
    assert run(["admissible", "--modes", "1,2", "--output-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    manifest = tmp_path / "a" / "manifest.json"
    assert run(["divisors", "--config", str(manifest), "--mass", "1.3",
                "--kmax", "1", "--smax", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err and "'admissible'" in err
    # the same document without its command key is a plain config
    doc = json.loads(manifest.read_text())
    del doc["command"]
    manifest.write_text(json.dumps(doc))
    assert run(["divisors", "--config", str(manifest), "--mass", "1.3",
                "--kmax", "1", "--smax", "3"]) == 0


@pytest.mark.parametrize("argv", [
    ["admissible"],
    ["divisors", "--mass", "1.5"],
    ["birkhoff", "--modes", "1"],
    ["kamcheck"],
    ["simulate", "--tmax", "1"],
], ids=lambda argv: argv[0])
def test_missing_required_option_usage(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: the following arguments are required" in err


def test_option_surface():
    # every settable flag of every subcommand; a new knob is a deliberate
    # edit here
    common = {"config", "output_dir"}
    expected = {
        "admissible": {"modes"},
        "divisors": {"modes", "mass", "kappa", "kmax", "smax", "grid", "certify"},
        "birkhoff": {"modes", "mass", "cutoff", "gamma_threshold"},
        "kamcheck": {"modes", "mass", "nu", "hypothesis", "kappa", "kmax", "smax",
                     "rho_grid", "kappa_sweep", "force"},
        "simulate": {"modes", "mass", "nu", "cutoff", "dt", "tmax", "linear",
                     "store_every", "distance_alpha"},
    }
    subparsers = build_parser()._wavekam_subparsers
    assert set(subparsers) == set(expected)
    for name, sub in subparsers.items():
        dests = {a.dest for a in sub._actions if a.option_strings} - {"help"}
        assert dests == expected[name] | common, name


class TestDeterminism:
    def test_rerun_identical(self, tmp_path, capsys):
        args = ["kamcheck", "--modes", "1", "--rho-grid", "4",
                "--hypothesis", "a3"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        second = capsys.readouterr().out
        assert first == second

"""End-to-end CLI behaviour: jobs, exports, re-verification, exit codes."""

import json

import numpy as np
import pytest

from solvforge.cli import main


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def _darboux_config(out_dir, grid=None):
    return {
        "grid": grid or {"a": 0.0, "b": 10.0, "n": 10001},
        "base": {"V0": "0", "h": "1"},
        "mode": "darboux",
        "direction": "from_left",
        "seeds": [{"expr": "cosh(r)", "gamma_sq": -1.0}],
        "eval_gammas": [1.0, 4.0],
        "output": {"dir": out_dir, "prefix": "well"},
    }


def _multichannel_config(out_dir):
    return {
        "grid": {"a": 0.0, "b": 5.0, "n": 5001},
        "base": {"V0": ["0", "-2/(1+r)^2"], "h": "1 + exp(-r)"},
        "mode": "multichannel",
        "seeds": {"gamma_prime_sq": [-1.0, -1.5], "c": [0.6, 0.4]},
        "eval_gammas": [[0.0, -0.5], [1.5, 1.0]],
        "output": {"dir": out_dir, "prefix": "mc"},
    }


def _read_csv_columns(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    return header, data


class TestRunDarboux:
    def test_classic_well(self, tmp_path):
        cfg = _darboux_config(str(tmp_path / "out"))
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 0
        header, data = _read_csv_columns(tmp_path / "out" / "well_potential.csv")
        assert header == ["r", "V"]
        assert data[0, 0] == 0.0
        assert abs(data[0, 1] - (-2.0)) <= 1e-6
        report = json.loads((tmp_path / "out" / "well_report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["residuals"]) == 2
        assert all(r["passed"] for r in report["residuals"])
        assert (tmp_path / "out" / "well_solution_000.csv").exists()
        assert (tmp_path / "out" / "well_solution_001.csv").exists()

    def test_deterministic_reruns(self, tmp_path):
        out = str(tmp_path / "out")
        cfg_path = _write_config(tmp_path / "job.json", _darboux_config(out))
        assert main(["run", cfg_path]) == 0
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert main(["run", cfg_path]) == 0
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert first == second

    def test_stale_temp_directory_is_ignored(self, tmp_path):
        out = tmp_path / "out"
        (out / "well_potential.csv.tmp").mkdir(parents=True)
        cfg_path = _write_config(tmp_path / "job.json", _darboux_config(str(out)))
        assert main(["run", cfg_path]) == 0
        assert (out / "well_potential.csv").is_file()
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp") and p.is_file()]

    def test_singular_seed_exits_3_without_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = _darboux_config(str(out))
        cfg["seeds"] = [{"expr": "sinh(r - 5)", "gamma_sq": -1.0}]
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 3
        assert not out.exists() or not list(out.iterdir())

    def test_residual_failure_exits_4(self, tmp_path):
        cfg = _darboux_config(str(tmp_path / "out"))
        cfg["tolerance"] = 1e-16
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 4
        report = json.loads((tmp_path / "out" / "well_report.json").read_text())
        assert report["all_passed"] is False

    def test_env_tolerance_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FORGE_RESIDUAL_TOL", "1e-16")
        cfg = _darboux_config(str(tmp_path / "out"))
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 4


class TestRunOtherModes:
    def test_bargmann_zero_coupling_returns_base(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "grid": {"a": 0.0, "b": 5.0, "n": 5001},
            "base": {"V0": "exp(-r)", "h": "1"},
            "mode": "bargmann",
            "seeds": [
                {"gamma_sq": -1.0, "C": 0.0, "bc": "regular_at_left"},
                {"gamma_sq": -2.25, "C": 0.0, "bc": "regular_at_left"},
            ],
            "eval_gammas": [1.3],
            "output": {"dir": str(out), "prefix": "idle"},
        }
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 0
        _, data = _read_csv_columns(out / "idle_potential.csv")
        assert np.array_equal(data[:, 1], np.exp(-data[:, 0]))
        report = json.loads((out / "idle_report.json").read_text())
        assert report["p_matrix"]["det_min"] == 1.0
        assert report["p_matrix"]["det_max"] == 1.0

    def test_chain_reports_equivalence(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "grid": {"a": 0.0, "b": 6.0, "n": 6001},
            "base": {"V0": "0", "h": "1 + exp(-r)"},
            "mode": "chain",
            "seeds": [{"gamma_sq": -1.0, "C": 0.8, "bc": "regular_at_left"}],
            "eval_gammas": [0.7, 2.0],
            "output": {"dir": str(out), "prefix": "chain"},
        }
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 0
        report = json.loads((out / "chain_report.json").read_text())
        assert report["chain_vs_bargmann_supnorm"] <= 1e-6
        assert report["chain_vs_bargmann_solution_supnorm"] <= 1e-8

    def test_multichannel_job(self, tmp_path):
        out = tmp_path / "out"
        cfg = _multichannel_config(str(out))
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 0
        header, data = _read_csv_columns(out / "mc_potential.csv")
        assert header == ["r", "V_11", "V_12", "V_21", "V_22"]
        # symmetry column-wise
        assert np.max(np.abs(data[:, 2] - data[:, 3])) < 1e-12
        report = json.loads((out / "mc_report.json").read_text())
        assert report["symmetry_defect"] <= 1e-5
        assert report["forms_max_diff"] <= 1e-7
        header, _ = _read_csv_columns(out / "mc_solution_000.csv")
        assert header == [
            "r", "phi_11", "dphi_11", "phi_12", "dphi_12", "phi_21", "dphi_21", "phi_22", "dphi_22"
        ]


class TestConfigErrors:
    def test_missing_mode(self, tmp_path):
        rc = main(["run", _write_config(tmp_path / "job.json", {"grid": {"a": 0, "b": 1, "n": 11}})])
        assert rc == 2

    def test_bad_expression(self, tmp_path):
        cfg = _darboux_config(str(tmp_path / "out"))
        cfg["base"]["h"] = "1 + ("
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "multichannel, key, value",
        [
            (False, "tolerance", "tight"),
            (False, "tolerance", float("nan")),
            (False, "tolerance", -1),
            (False, "eval_gammas", ["x"]),
            (False, "seeds", [3]),
            (True, "eval_gammas", [["a", "b"]]),
        ],
        ids=["tol-string", "tol-nan", "tol-negative", "gamma-string", "seed-not-object",
             "multichannel-gamma-strings"],
    )
    def test_malformed_value_exits_2_cleanly(self, tmp_path, capsys, multichannel, key, value):
        out = tmp_path / "out"
        cfg = _multichannel_config(str(out)) if multichannel else _darboux_config(str(out))
        cfg[key] = value
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("prefix", ["../escaped", "sub/name", "..", "."])
    def test_prefix_must_stay_in_out_dir(self, tmp_path, prefix):
        cfg = _darboux_config(str(tmp_path / "out"))
        cfg["output"]["prefix"] = prefix
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["job.json"]

    def test_non_uniform_multichannel_shift(self, tmp_path):
        cfg = {
            "grid": {"a": 0.0, "b": 2.0, "n": 2001},
            "base": {"V0": ["0", "0"], "h": "1"},
            "mode": "multichannel",
            "seeds": {"gamma_prime_sq": [-1.0, -2.0], "c": [0.5, 0.5]},
            "eval_gammas": [[0.0, 0.0]],
            "output": {"dir": str(tmp_path / "out"), "prefix": "bad"},
        }
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 3


class TestVerifySubcommand:
    @pytest.fixture
    def exported(self, tmp_path):
        out = tmp_path / "out"
        cfg = _darboux_config(str(out), grid={"a": 0.0, "b": 5.0, "n": 5001})
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 0
        report = json.loads((out / "well_report.json").read_text())
        return out, report

    def test_roundtrip_matches_report(self, exported, capsys):
        out, report = exported
        rc = main([
            "verify", str(out / "well_potential.csv"), str(out / "well_solution_000.csv"),
            "--h", "1", "--gamma-sq", "1.0",
        ])
        assert rc == 0
        echoed = json.loads(capsys.readouterr().out)
        ref = report["residuals"][0]
        assert abs(echoed["max_abs"] - ref["max_abs"]) <= 1e-12 * (1 + ref["max_abs"])
        assert abs(echoed["max_rel"] - ref["max_rel"]) <= 1e-12 * (1 + ref["max_rel"])

    def test_corrupted_solution_fails(self, exported, tmp_path):
        out, _ = exported
        lines = (out / "well_solution_000.csv").read_text().splitlines()
        head, rows = lines[0], lines[1:]
        broken = [head]
        for k, row in enumerate(rows):
            r, phi, dphi = row.split(",")
            if k == 2500:
                phi = repr(float(phi) + 0.05)
            broken.append(f"{r},{phi},{dphi}")
        bad = tmp_path / "broken.csv"
        bad.write_text("\n".join(broken) + "\n")
        rc = main([
            "verify", str(out / "well_potential.csv"), str(bad),
            "--h", "1", "--gamma-sq", "1.0",
        ])
        assert rc == 4

    def test_grid_mismatch_is_schema_error(self, exported, tmp_path):
        out, _ = exported
        lines = (out / "well_potential.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:-100]) + "\n")
        rc = main([
            "verify", str(short), str(out / "well_solution_000.csv"),
            "--h", "1", "--gamma-sq", "1.0",
        ])
        assert rc == 2

    def test_malformed_csv(self, exported, tmp_path):
        out, _ = exported
        bad = tmp_path / "bad.csv"
        bad.write_text("r,V\n0.0,1.0\n0.1,not_a_number\n")
        rc = main(["verify", str(bad), str(out / "well_solution_000.csv"),
                   "--h", "1", "--gamma-sq", "1.0"])
        assert rc == 2


class TestSampleConfigs:
    def test_all_shipped_configs_run_clean(self, tmp_path):
        import glob
        import pathlib

        repo = pathlib.Path(__file__).resolve().parent.parent
        configs = sorted(glob.glob(str(repo / "configs" / "*.json")))
        assert configs, "sample configs are missing"
        for k, cfg in enumerate(configs):
            out = tmp_path / f"out_{k}"
            rc = main(["run", cfg, "--out-dir", str(out)])
            assert rc == 0, cfg
            reports = list(out.glob("*_report.json"))
            assert len(reports) == 1
            assert json.loads(reports[0].read_text())["all_passed"] is True


class TestOutDirOverride:
    def test_out_dir_flag_wins(self, tmp_path):
        cfg = _darboux_config(str(tmp_path / "ignored"), grid={"a": 0.0, "b": 2.0, "n": 2001})
        cfg["eval_gammas"] = []
        override = tmp_path / "elsewhere"
        rc = main(["run", _write_config(tmp_path / "job.json", cfg), "--out-dir", str(override)])
        assert rc == 0
        assert (override / "well_potential.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestVerifyTolFlag:
    def test_tight_tolerance_fails(self, tmp_path):
        out = tmp_path / "out"
        cfg = _darboux_config(str(out), grid={"a": 0.0, "b": 5.0, "n": 5001})
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 0
        args = [
            "verify", str(out / "well_potential.csv"), str(out / "well_solution_000.csv"),
            "--h", "1", "--gamma-sq", "1.0",
        ]
        assert main(args) == 0
        assert main(args + ["--tol", "1e-16"]) == 4


class TestParseCheck:
    def test_ok(self, capsys):
        assert main(["parse-check", "2*sech(r)^2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert "sech" in out["canonical"]
        assert out["derivative"]

    def test_syntax_error(self):
        assert main(["parse-check", "2*(r"]) == 2

    def test_unknown_identifier(self):
        assert main(["parse-check", "foo(r)"]) == 2

"""End-to-end CLI behaviour: jobs, exports, re-verification, exit codes."""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solvforge import cli
from solvforge.cli import _cells, _csv, _halves, _read_csv, main

REPO = pathlib.Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.json"))


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


def _multichannel_config(out_dir, channels=2):
    """A diagonal-base job; channels past the second have V0 = 0."""
    gamma_prime = [-1.0 - 0.5 * a for a in range(channels)]
    return {
        "grid": {"a": 0.0, "b": 5.0, "n": 5001},
        "base": {"V0": ["0", "-2/(1+r)^2"] + ["0"] * (channels - 2), "h": "1 + exp(-r)"},
        "mode": "multichannel",
        "seeds": {"gamma_prime_sq": gamma_prime, "c": [0.6] + [0.4] * (channels - 1)},
        "eval_gammas": [[g + 1.0 for g in gamma_prime], [g + 2.5 for g in gamma_prime]],
        "output": {"dir": out_dir, "prefix": "mc"},
    }


def _bargmann_config(out_dir, seeds=3):
    """Jost seeds at gamma^2 = -1, -2.25, -4, ... on a decaying frame."""
    return {
        "grid": {"a": 0.0, "b": 10.0, "n": 2001},
        "base": {"V0": "0", "h": "1"},
        "mode": "bargmann",
        "direction": "from_right",
        "seeds": [
            {"gamma_sq": -(1.0 + 0.5 * k) ** 2, "C": 0.5, "bc": "jost_at_right"} for k in range(seeds)
        ],
        "eval_gammas": [-0.4],
        "output": {"dir": out_dir, "prefix": "bound"},
    }


_CONFIGS = {
    "darboux": _darboux_config,
    "multichannel": _multichannel_config,
    "bargmann": _bargmann_config,
    # every channel list one longer than allowed
    "channels": lambda out_dir: _multichannel_config(out_dir, channels=cli.MAX_CHANNELS + 1),
}


def _set_key(cfg, path, value):
    """Set a dotted key path such as "seeds.0.gamma_sq" (digits index lists)."""
    *parents, last = path.split(".")
    for key in parents:
        cfg = cfg[int(key)] if isinstance(cfg, list) else cfg[key]
    cfg[int(last) if isinstance(cfg, list) else last] = value


def _read_csv_columns(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    return header, data


def _with_cell(line, column, text):
    """Edit of a CSV's lines: the cell in `column` of file line `line` set to `text`."""
    def edit(lines):
        cells = lines[line - 1].rstrip(b"\n").split(b",")
        cells[column] = text
        return [*lines[:line - 1], b",".join(cells) + b"\n", *lines[line:]]
    return edit


def _no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _temp_files(out):
    return [p.name for p in out.rglob("*.tmp")]


def _constant_r(lines):
    first = lines[1].split(b",")[0]
    return [lines[0], *(first + line[line.index(b","):] for line in lines[1:])]


# Edits of an exported CSV's lines that fall outside the documented format.
# float() accepts every cell of underscore-digits, whitespace-only-line and
# non-ascii-digit; the reader rejects them because `_csv` never writes them.
# The cases from r-decreasing on hold numbers the reader accepts but that are
# no grid (r must increase) or no sample (every cell, and V's difference
# quotient, must be finite).
_CSV_EDITS = {  # edit of a CSV's lines, and the file line the error names
    "header-only": (lambda lines: lines[:1], None),
    "not-utf8": (lambda lines: [lines[0], b"\xff" + lines[1][1:], *lines[2:]], None),
    "underscore-digits": (
        lambda lines: [*lines[:2], re.sub(rb"(\d)(\d)", rb"\1_\2", lines[2], count=1), *lines[3:]],
        3,
    ),
    "whitespace-only-line": (lambda lines: [*lines[:2], b" \n", *lines[2:]], 3),
    "non-ascii-digit": (lambda lines: [lines[0], "\u0660".encode() + lines[1][1:], *lines[2:]], 2),
    "bad-cell": (lambda lines: [*lines[:2], b"0.1,x\n", *lines[3:]], 3),
    "column-count-change": (lambda lines: [*lines[:3], lines[3].rstrip() + b",1\n", *lines[4:]], 4),
    "blank-lines-before-bad-cell": (
        lambda lines: [b"\n", b" \n", *lines[:2], b"\n", b"0.1,x\n", *lines[3:]],
        6,
    ),
    "r-decreasing": (lambda lines: [lines[0], *reversed(lines[1:])], 3),
    "r-constant": (_constant_r, 3),
    "r-nan": (_with_cell(4, 0, b"nan"), 4),
    "r-inf-at-end": (_with_cell(5002, 0, b"inf"), 5002),  # the last line of a 5001-row export
    "V-nan": (_with_cell(3, 1, b"nan"), 3),
    "V-inf": (_with_cell(5, 1, b"-inf"), 5),
    "V-overflows-its-difference": (_with_cell(3, 1, b"1.7e308"), 2),
    "phi-nan": (_with_cell(3, 1, b"nan"), 3),
    "dphi-inf": (_with_cell(6, 2, b"inf"), 6),
    # finite cells whose FD4 defect overflows: the stencils of nodes 6 to 10
    # (file lines 8 to 12) hold the edited node 8
    "phi-overflows-the-residual": (_with_cell(10, 1, b"1.7e308"), 8),
}
# the files a case edits, where not the potential CSV alone; the error names
# the first of them
_CSV_EDITED_FILES = {
    "r-decreasing": ("potential", "solution"),
    "r-constant": ("potential", "solution"),
    "r-inf-at-end": ("potential", "solution"),
    "phi-nan": ("solution",),
    "dphi-inf": ("solution",),
    "phi-overflows-the-residual": ("solution",),
}


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
        assert not _temp_files(tmp_path / "out")
        _no_child_left()

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

    @pytest.mark.parametrize("writer", ["no-fork", "fork-refused"])
    def test_one_writer_writes_the_bytes_of_two(self, tmp_path, monkeypatch, writer):
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path / "job.json", _darboux_config(str(out)))
        assert main(["run", cfg_path]) == 0
        two = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        if writer == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            def refuse():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", refuse)
        assert main(["run", cfg_path]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == two

    def test_command_line_prints_the_report_path_alone(self, tmp_path):
        # a forked writer that flushed inherited buffers or returned into
        # main would print more
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path / "job.json", _darboux_config(str(out)))
        path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        env.pop("FORGE_RESIDUAL_TOL", None)
        proc = subprocess.run(
            [sys.executable, "-m", "solvforge.cli", "run", cfg_path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{out / 'well_report.json'}\n", "")

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

    def test_env_tolerance_unread_when_config_sets_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FORGE_RESIDUAL_TOL", "abc")
        cfg = _darboux_config(str(tmp_path / "out"))
        cfg["tolerance"] = 1e-5
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 0

    def test_malformed_env_tolerance_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FORGE_RESIDUAL_TOL", "abc")
        out = tmp_path / "out"
        rc = main(["run", _write_config(tmp_path / "job.json", _darboux_config(str(out)))])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


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


def _run_shipped_at_201_nodes(tmp_path, name, key, value):
    """`forge run` on configs/<name>.json at n = 201 with one key set: (exit code, out dir)."""
    out = tmp_path / "out"
    cfg = json.loads((REPO / "configs" / f"{name}.json").read_text())
    cfg["grid"]["n"] = 201
    _set_key(cfg, key, value)
    return main(["run", _write_config(tmp_path / "job.json", cfg), "--out-dir", str(out)]), out


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
        "config, key, value",
        [
            ("darboux", "tolerance", "tight"),
            ("darboux", "tolerance", float("nan")),
            ("darboux", "tolerance", -1),
            ("darboux", "eval_gammas", ["x"]),
            ("darboux", "seeds", [3]),
            ("multichannel", "eval_gammas", [["a", "b"]]),
            ("multichannel", "seeds.gamma_prime_sq", [[1], -1.5]),
            ("multichannel", "seeds.c", [None, 0.4]),
            ("multichannel", "seeds.c", ["0.6", 0.4]),
            ("multichannel", "base.V0", [0, "-2/(1+r)^2"]),
            ("darboux", "output.dir", 5),
            ("darboux", "output.dir", ["out"]),
            ("darboux", "output.dir", ""),
            ("darboux", "output.dir", "out\0x"),
            ("darboux", "eval_gammas", [float("nan")]),
            ("darboux", "seeds.0.gamma_sq", float("inf")),
            ("darboux", "seeds.0", {"gamma_sq": -1.0, "bc": {"value": "1", "slope": True}}),
            ("darboux", "seeds.0", {"gamma_sq": -1.0, "bc": {"value": float("nan"), "slope": 0.0}}),
            # keys outside the schema, and bounds, all found before any computation
            ("darboux", "tolerence", 1e-30),
            ("darboux", "colour", "blue"),
            ("darboux", "seeds.0.Cc", 0.8),
            ("darboux", "seeds.0.C", 0.8),
            ("darboux", "seeds.0.bc", "regular_at_left"),
            ("bargmann", "seeds", _bargmann_config("out", seeds=cli.MAX_SEEDS + 1)["seeds"]),
            ("darboux", "grid.n", 5),
            ("darboux", "grid.n", cli.MAX_NODES + 1),
            ("channels", "base.V0", ["0"] * (cli.MAX_CHANNELS + 1)),
            ("multichannel", "eval_gammas.1", [1.5]),
            ("darboux", "eval_gammas", [1.0] * (cli.MAX_EVAL_GAMMAS + 1)),
        ],
        ids=["tol-string", "tol-nan", "tol-negative", "gamma-string", "seed-not-object",
             "multichannel-gamma-strings", "multichannel-gamma-prime-list",
             "multichannel-c-null", "multichannel-c-string", "multichannel-v0-number",
             "out-dir-number", "out-dir-list", "out-dir-empty", "out-dir-nul", "gamma-nan", "seed-gamma-inf",
             "bc-value-string", "bc-value-nan",
             "tolerance-misspelt", "unknown-key", "unknown-seed-key", "darboux-seed-with-C",
             "seed-with-expr-and-bc", "too-many-bargmann-seeds", "n-below-the-stencil",
             "n-above-the-bound", "too-many-channels", "multichannel-gamma-entry-too-short",
             "too-many-eval-gammas"],
    )
    def test_malformed_value_exits_2_cleanly(self, tmp_path, capsys, monkeypatch, config, key, value):
        def computed(*args, **kwargs):
            raise AssertionError("the job was computed before its config was rejected")

        for name in ("evaluate_on_grid", "solve", "seed_from_expression", "diagonal_base_system"):
            monkeypatch.setattr(cli, name, computed)
        out = tmp_path / "out"
        cfg = _CONFIGS[config](str(out))
        _set_key(cfg, key, value)
        rc = main(["run", _write_config(tmp_path / "job.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    # shipped configs on 201 nodes whose construction overflows; the library
    # refuses such a field with ValueError (a numpy warning fails the test)
    @pytest.mark.parametrize(
        "name, key, value",
        [("chain_vs_single_seed", "seeds.0.gamma_sq", -871.6),
         ("two_channel", "seeds.c", [1.7976931348623155e308, 0.4])],
        ids=["chain-seed-overflows", "multichannel-c-overflows"],
    )
    def test_overflowing_construction_exits_2_cleanly(self, tmp_path, capsys, name, key, value):
        rc, out = _run_shipped_at_201_nodes(tmp_path, name, key, value)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the construction is not finite: ") and err.count("\n") == 1
        assert not out.exists()

    # the same, where the overflow is caught as a blow-up or a singular factor
    @pytest.mark.parametrize(
        "name, key, value, message",
        [("quartic_weight", "eval_gammas", [-1.7e308], "integration blew up at node 1"),
         ("chain_vs_single_seed", "seeds.0.C", -1.7e308,
          "chain factor P is singular or changes sign at node 1")],
        ids=["eval-gamma-overflows", "chain-C-overflows"],
    )
    def test_overflowing_construction_exits_3_cleanly(self, tmp_path, capsys, name, key, value,
                                                      message):
        rc, out = _run_shipped_at_201_nodes(tmp_path, name, key, value)
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x")
        cfg = _darboux_config(str(taken), grid={"a": 0.0, "b": 2.0, "n": 2001})
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "taken"]

    # the darboux job writes the potential and solution 0 in this process and
    # solution 1 in the forked child (TestCsvWriter.test_halves_*)
    @pytest.mark.parametrize("fork", [True, False], ids=["two-writers", "one-writer"])
    @pytest.mark.parametrize(
        "blocked",
        [("well_potential.csv",), ("well_solution_000.csv",), ("well_solution_001.csv",),
         ("well_report.json",), ("well_potential.csv", "well_solution_001.csv")],
        ids=["potential", "solution-0", "solution-1", "report", "both-writers"],
    )
    def test_failed_write_exits_2_cleanly(self, tmp_path, capsys, monkeypatch, blocked, fork):
        out = tmp_path / "out"
        for name in blocked:
            (out / name).mkdir(parents=True)
        if not fork:
            monkeypatch.delattr(os, "fork")
        cfg = _darboux_config(str(out), grid={"a": 0.0, "b": 2.0, "n": 2001})
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 2
        err = capsys.readouterr().err
        # the first blocked artifact in the order the in-process writer takes
        assert err.startswith(f"error: cannot write {out / blocked[0]}: ") and err.count("\n") == 1
        assert not _temp_files(out)
        assert not (out / "well_report.json").is_file()
        # no artifact of the run is left beside the directories in the way
        assert sorted(p.name for p in out.iterdir()) == sorted(blocked)
        _no_child_left()

    def test_writer_process_that_dies_exits_2_cleanly(self, tmp_path, capsys, monkeypatch):
        parent, write = os.getpid(), cli._write_in_order

        def die_in_child(numbered, r_cells):
            if os.getpid() != parent:
                os._exit(3)
            return write(numbered, r_cells)

        monkeypatch.setattr(cli, "_write_in_order", die_in_child)
        out = tmp_path / "out"
        cfg = _darboux_config(str(out), grid={"a": 0.0, "b": 2.0, "n": 2001})
        assert main(["run", _write_config(tmp_path / "job.json", cfg)]) == 2
        err = capsys.readouterr().err
        blocked = out / "well_solution_001.csv"
        assert err == f"error: cannot write {blocked}: the writing process ended with code 3\n"
        assert not (out / "well_report.json").exists()
        _no_child_left()

    @pytest.mark.parametrize(
        "raw",
        [b'{"mode": "\xff"}', b"[" * 100_000 + b"]" * 100_000, b'{"tolerance": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_unparseable_config_exits_2_cleanly(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.json").write_bytes(raw)
        assert main(["run", "job.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["job.json"]

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

    @pytest.mark.parametrize(
        "extra, env",
        [
            (["--tol", "nan"], None),
            (["--tol", "-1"], None),
            (["--tol", "inf"], None),
            (["--gamma-sq", "nan"], None),
            ([], "abc"),
        ],
        ids=["tol-nan", "tol-negative", "tol-inf", "gamma-nan", "env-tol-string"],
    )
    def test_bad_number_exits_2(self, exported, capsys, monkeypatch, extra, env):
        out, _ = exported
        if env is not None:
            monkeypatch.setenv("FORGE_RESIDUAL_TOL", env)
        capsys.readouterr()
        rc = main([
            "verify", str(out / "well_potential.csv"), str(out / "well_solution_000.csv"),
            "--h", "1", "--gamma-sq", "1.0", *extra,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_malformed_csv(self, exported, tmp_path):
        out, _ = exported
        bad = tmp_path / "bad.csv"
        bad.write_text("r,V\n0.0,1.0\n0.1,not_a_number\n")
        rc = main(["verify", str(bad), str(out / "well_solution_000.csv"),
                   "--h", "1", "--gamma-sq", "1.0"])
        assert rc == 2

    @pytest.mark.parametrize("case", list(_CSV_EDITS))
    def test_malformed_csv_exits_2_cleanly(self, exported, tmp_path, capsys, case):
        out, _ = exported
        edit, line = _CSV_EDITS[case]
        paths = {"potential": out / "well_potential.csv", "solution": out / "well_solution_000.csv"}
        edited = _CSV_EDITED_FILES.get(case, ("potential",))
        for name in edited:
            lines = paths[name].read_bytes().splitlines(keepends=True)
            paths[name] = tmp_path / f"bad_{name}.csv"
            paths[name].write_bytes(b"".join(edit(lines)))
        bad = paths[edited[0]]
        before = sorted(p.name for p in tmp_path.rglob("*"))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy's overflow warnings
            rc = main(["verify", str(paths["potential"]), str(paths["solution"]),
                       "--h", "1", "--gamma-sq", "1.0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if line is not None:
            assert captured.err.startswith(f"error: {bad}:{line}: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_unopenable_path_exits_2_cleanly(self, exported, capsys):
        out, _ = exported
        capsys.readouterr()
        rc = main(["verify", str(out / "well_potential.csv") + "\x00", str(out / "well_solution_000.csv"),
                   "--h", "1", "--gamma-sq", "1.0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read ") and captured.err.count("\n") == 1


def _assert_reads_as_float(path, header):
    """_read_csv(path) holds the bits of float() applied to every cell."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    want = np.array([[float(c) for c in row] for row in rows]).reshape(len(rows), len(header))
    got = _read_csv(str(path), header)
    for j, key in enumerate(header):
        assert got[key].view(np.uint64).tolist() == want[:, j].view(np.uint64).tolist(), (path, key)


class TestCsvReader:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(*[st.floats(allow_subnormal=True)] * 3), min_size=1, max_size=40))
    @example([(0.0, -0.0, 5e-324), (-5e-324, 2.2250738585072014e-308, 1.7976931348623157e308),
              (float("inf"), float("-inf"), float("nan"))])
    def test_bit_identical_to_float(self, tmp_path, rows):
        header = ["r", "phi", "dphi"]
        csv_path, repr_path = tmp_path / "csv.csv", tmp_path / "repr.csv"
        columns = [np.array(c) for c in zip(*rows)]
        csv_path.write_text(_csv(header, _cells(columns[0]), columns[1:]))
        repr_path.write_text("r,phi,dphi\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        _assert_reads_as_float(csv_path, header)
        _assert_reads_as_float(repr_path, header)

    def test_shipped_artifacts_bit_identical_to_float(self, tmp_path):
        for k, cfg in enumerate(SHIPPED_CONFIGS):
            out = tmp_path / f"out_{k}"
            assert main(["run", str(cfg), "--out-dir", str(out)]) == 0, cfg
            paths = sorted(out.glob("*.csv"))
            assert paths, cfg
            for path in paths:
                with open(path) as fh:
                    header = fh.readline().strip().split(",")
                _assert_reads_as_float(path, header)


_FLOATS = st.floats(allow_subnormal=True)


class TestCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.lists(st.tuples(*[_FLOATS] * k), min_size=1, max_size=30)))
    @example([(-0.0, 5e-324, 1.7976931348623157e308, float("inf"), float("nan"))])
    @example([(float("nan"),), (-0.0,), (-5e-324,), (float("-inf"),)])
    def test_rows_match_the_17_digit_row_template(self, rows):
        columns = [np.array(c) for c in zip(*rows)]
        header = [f"c{j}" for j in range(len(columns))]
        row = ",".join(["{:.17g}"] * len(columns)) + "\n"
        want = ",".join(header) + "\n" + "".join(map(row.format, *(c.tolist() for c in columns)))
        assert _csv(header, _cells(columns[0]), columns[1:]) == want

    @pytest.mark.parametrize(
        "widths, mine, theirs",
        [([1], [0], []), ([1, 2, 2], [0, 1], [2]), ([4, 8, 8], [0, 1], [2]),
         ([1, 2, 2, 2, 2, 2], [1, 3, 5], [0, 2, 4])],
        ids=["one-table", "darboux", "multichannel", "quartic"],
    )
    def test_halves_balance_cells_in_table_order(self, widths, mine, theirs):
        tables = [(f"t{k}.csv", [], [np.zeros(3)] * w) for k, w in enumerate(widths)]
        halves = _halves(list(enumerate(tables)))
        assert [[k for k, _ in half] for half in halves] == [mine, theirs]
        assert [t for half in halves for _, t in half] == [tables[k] for k in mine + theirs]


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


class TestParserReuse:
    def test_parser_built_once_and_stateless(self, monkeypatch, capsys):
        from solvforge import cli

        builds = []
        real = cli.build_parser

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            outs = []
            for argv in (["parse-check", "r^2"], ["parse-check", "2*(r"], ["parse-check", "r^2"]):
                outs.append((main(argv), capsys.readouterr()))
            with pytest.raises(SystemExit) as exc:
                main(["verify"])
            assert exc.value.code == 2
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
        assert [rc for rc, _ in outs] == [0, 2, 0]
        assert outs[0][1] == outs[2][1]

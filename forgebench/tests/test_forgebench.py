"""Self-tests of the benchmark's own logic.

    python3 -m pytest forgebench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "forgebench"), str(ROOT / "src")]

import common  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3, 7)


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and b [50, 70]
    s = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("c", 15, 25, 1),
        ("b", 50, 70, 0),
    ]
    assert spans.self_times(s) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    s = [("root", 0, 100, -1), ("a", 10, 60, 0), ("b", 40, 80, 0)]
    assert spans.self_times(s)[0] == 100 - 70


def test_recorder_builds_parent_links():
    ticks = iter(range(0, 1000, 10))
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.job = 3

    def inner():
        return 1

    def outer():
        return rec.call("grid.inner", inner) + 1

    assert rec.call("job", outer) == 2
    (job, t0, t1, parent, jid, _), (inner_sp) = rec.spans[0], rec.spans[1]
    assert (job, parent, jid) == ("job", -1, 3)
    assert inner_sp[0] == "grid.inner" and inner_sp[3] == 0
    assert spans.self_times(rec.spans) == [(t1 - t0) - (inner_sp[2] - inner_sp[1]), 10]
    assert spans.layer_of("bargmann.p_matrix") == "bargmann"


def test_install_patches_every_namespace_and_restores():
    import solvforge
    from solvforge import _kernels, cli, multichannel, solver

    orig_solve, orig_kernel = solver.solve, _kernels.rk4_propagate
    rec = spans.Recorder()
    rec.install()
    try:
        assert cli.solve is not orig_solve and multichannel.solve is not orig_solve
        assert solvforge.solve is cli.solve
        assert solver.rk4_propagate is not orig_kernel
        g = solvforge.RadialGrid(0.0, 1.0, 101)
        v0 = solvforge.constant_field(g, 0.0)
        h = solvforge.constant_field(g, 1.0)
        rec.job = 0
        rec.call("job", solvforge.solve, v0, h, 1.0, solvforge.REGULAR_AT_LEFT)
    finally:
        rec.uninstall()
    assert solver.solve is orig_solve and cli.solve is orig_solve
    assert solver.rk4_propagate is orig_kernel
    names = [sp[0] for sp in rec.spans]
    assert "solver.solve" in names and "kernel.rk4_propagate" in names
    kernel = next(sp for sp in rec.spans if sp[0] == "kernel.rk4_propagate")
    assert kernel[5] == 100  # RK4 steps recorded beside the span


# -- tail percentile -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, value",
    [(11, 9, 1), (20, 50, 10), (21, 52, 11), (100, 90, 90), (1000, 99, 990)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, value):
    got_pct, got_value, beyond = common.tail_percentile(range(1, n + 1))
    assert (got_pct, got_value) == (pct, value)
    assert beyond == n - value >= 10
    # one percentile higher would leave fewer than ten beyond
    if pct < 99:
        rank = math.ceil((pct + 1) * n / 100)
        assert n - rank < 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        common.tail_percentile(range(10))


def test_minimum_job_count_keeps_the_tail_at_or_above_the_median():
    import worker

    for n, at_or_above in ((worker.MIN_JOBS, True), (worker.MIN_JOBS - 1, False)):
        _pct, value, _beyond = common.tail_percentile(range(n))
        assert (value >= statistics.median(range(n))) == at_or_above


def test_tail_percentile_counts_ties_as_not_beyond():
    pct, value, beyond = common.tail_percentile([1.0] * 5 + [2.0] * 20)
    assert value == 1.0 and beyond == 20


# -- seeded generators -----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_spectral_inputs_valid_at_small_size(seed):
    wl = workloads.SpectralSweep()
    inp = wl.inputs(seed, 0, n=2001)
    assert inp == wl.inputs(seed, 0, n=2001)
    assert inp != wl.inputs(seed, 1, n=2001)
    assert len(inp["gammas"]) == wl.N_GAMMAS and all(0.2 <= g <= 8.0 for g in inp["gammas"])
    assert -1.5 <= inp["seed_gamma_sq"] <= -0.5 and 0.5 <= inp["C"] <= 1.0
    res = wl.check(inp, wl.run(inp, None, None))
    assert res.solutions == wl.N_GAMMAS and not res.failures


@pytest.mark.parametrize("seed", SEEDS)
def test_bargmann_inputs_valid_at_small_size(seed):
    wl = workloads.BargmannM8()
    inp = wl.inputs(seed, 0, n=4001)
    assert inp == wl.inputs(seed, 0, n=4001)
    assert inp != wl.inputs(seed, 1, n=4001)
    for mu, (kappa, coeff) in enumerate(zip(inp["kappa"], inp["C"])):
        assert 1.0 + 0.25 * mu <= kappa <= 1.1 + 0.25 * mu
        assert 0.3 * 2 * kappa / 8 <= coeff <= 0.9 * 2 * kappa / 8
    assert len(inp["gammas"]) == 4 and all(-0.9 <= g <= -0.4 for g in inp["gammas"])
    # the construction holds; the coarse grid only limits the residual level
    potential, solutions, reports = wl.run(inp, None, None)
    assert len(solutions) == 12
    assert all(np.isfinite(r.max_rel) for r in reports)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_inputs_valid_at_small_size(seed, tmp_path):
    wl = workloads.CliConfigs(str(ROOT / "configs"))
    inp = wl.inputs(seed, 0)
    assert inp == wl.inputs(seed, 0) and inp != wl.inputs(seed, 1)
    lo, hi = 1 - workloads.PERTURB, 1 + workloads.PERTURB
    for name, cfg in inp.items():
        ship = wl.shipped[name]
        if cfg["mode"] == "multichannel":
            gp = np.array(ship["seeds"]["gamma_prime_sq"])
            for new, old in zip(cfg["eval_gammas"], ship["eval_gammas"]):
                shift = np.array(new) - gp
                assert np.ptp(shift) < 1e-12  # still a rigid shift
                assert lo <= shift[0] / (old[0] - gp[0]) <= hi
        else:
            for new, old in zip(cfg["eval_gammas"], ship["eval_gammas"]):
                assert lo <= new / old <= hi
            for new, old in zip(cfg["seeds"], ship["seeds"]):
                if "C" in old:
                    assert lo <= new["C"] / old["C"] <= hi
        small = dict(cfg, grid=dict(cfg["grid"], n=1001))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(small))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = workloads.cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc in (0, 4), name  # accepted; the coarse grid may miss 1e-5


# -- metric names -------------------------------------------------------------

SPEC_END_TO_END = [
    "job_p50_ms", "job_tail_ms", "solutions_per_s", "worst_residual_rel",
    "ops_failed_ratio", "setup_s", "peak_rss_mb", "verify_p50_ms", "cold_pass_ms",
]
SPEC_PER_LAYER = [
    "cli.run.self_ms", "cli.run.bytes_written", "cli.verify.self_ms", "cli.verify.bytes_read",
    "kernel.calls", "kernel.steps", "kernel.self_ms", "kernel.ns_per_step",
    "kernel.bytes_computed", "solver.solve.calls", "solver.self_ms",
    "bargmann.p_matrix.self_ms", "bargmann.potential.self_ms", "bargmann.maps.self_ms",
    "bargmann.seed_set.self_ms", "bargmann.calls", "multichannel.self_ms",
    "multichannel.seed_vectors.calls", "multichannel.transform_denominator.calls",
    "darboux.calls", "darboux.self_ms", "verify.calls", "verify.self_ms",
    "verify.checks_failed", "verify.pass_ratio", "expr.calls", "expr.self_ms",
    "grid.calls", "grid.self_ms", "trace.overhead_ms",
]


def test_metric_names_match_the_specification():
    # ops_failed_ratio is 0 whenever all is well, and a reported metric must
    # never be 0, so the result carries its complement; the summary line
    # still prints ops_failed_ratio by name
    expected = [("ops_ok_ratio" if m == "ops_failed_ratio" else m) for m in SPEC_END_TO_END]
    assert list(common.END_TO_END) == expected
    kernel_sizes = ["kernel.ns_per_step.n10001", "kernel.ns_per_step.n100001"]
    assert sorted(common.PER_LAYER) == sorted(SPEC_PER_LAYER + kernel_sizes)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["cli_configs", "spectral_sweep", "bargmann_m8"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_has_exactly_the_contract_keys():
    values = {k: 1.5 for k in common.END_TO_END}
    line = json.loads(common.result_line(True, 12, 0, values, common.END_TO_END))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        common.result_line(True, 1, 0, {"job_p50_ms": 1.0}, common.END_TO_END)

"""The blocked-scan RK4 kernel against the sequential reference loop."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from rk4_reference import rk4_propagate as rk4_reference

import solvforge
from solvforge import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    BlowupError,
    RadialGrid,
    evaluate_on_grid,
    kernel_backend,
    parse,
    solve,
)
from solvforge import solver
from solvforge._kernels import _block_length, rk4_propagate

# the scan reassociates a product of n 2x2 matrices; agreement to 1e-12 of
# the sup norm leaves room for about (block length + blocks) * eps * growth
SUP_REL_TOL = 1e-12


def _sample_inputs(n=4001):
    rng = np.random.default_rng(1)
    q = rng.uniform(-2.0, 2.0, n)
    qd = rng.uniform(-1.0, 1.0, n)
    step = 1e-3
    qm = 0.5 * (q[:-1] + q[1:]) + (step / 8.0) * (qd[:-1] - qd[1:])
    return q, qm, step


def _forbidden_inputs(n=10001):
    """q = 1 + r^2 > 0 on [0, 10]: the solution grows like exp(r^2 / 2)."""
    r = np.linspace(0.0, 10.0, n)
    step = float(r[1] - r[0])
    q = 1.0 + r * r
    qd = 2.0 * r
    qm = 0.5 * (q[:-1] + q[1:]) + (step / 8.0) * (qd[:-1] - qd[1:])
    return q, qm, step


def _sup_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _assert_matches_reference(q, qm, step, phi0, dphi0):
    phi, dphi = rk4_propagate(q, qm, step, phi0, dphi0)
    phi_ref, dphi_ref = rk4_reference(q, qm, step, phi0, dphi0)
    assert phi.shape == dphi.shape == q.shape
    assert phi[0] == phi0 and dphi[0] == dphi0
    assert _sup_rel(phi, phi_ref) <= SUP_REL_TOL
    assert _sup_rel(dphi, dphi_ref) <= SUP_REL_TOL


def test_backend_reported():
    assert kernel_backend() == "numpy"


@pytest.mark.parametrize(
    "inputs, blocking",
    [
        pytest.param(_sample_inputs(), "partial", id="random"),
        pytest.param(_forbidden_inputs(), "partial", id="forbidden-growth"),
        pytest.param(_sample_inputs(3), "short", id="n3"),
        pytest.param(_sample_inputs(4), "short", id="below-one-block"),
        pytest.param(_sample_inputs(442), "whole", id="whole-blocks"),
        pytest.param(_sample_inputs(443), "partial", id="partial-last-block"),
    ],
)
def test_matches_reference(inputs, blocking):
    q, qm, step = inputs
    panels = q.shape[0] - 1
    length = _block_length(panels)
    assert blocking == (
        "short" if panels < length else "whole" if panels % length == 0 else "partial"
    )
    _assert_matches_reference(q, qm, step, 0.0, 1.0)
    _assert_matches_reference(q, qm, step, 0.7, -0.3)


def _solve_with(kernel, monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(solver, "rk4_propagate", kernel)
        return solve(*args)


def test_backward_jost_solve_matches_reference(monkeypatch):
    g = RadialGrid(0.0, 8.0, 8001)
    v = evaluate_on_grid(parse("-3/(1+r)^2"), g)
    h = evaluate_on_grid(parse("1+exp(-r)"), g)
    got = solve(v, h, -1.3, JOST_AT_RIGHT)
    ref = _solve_with(rk4_reference, monkeypatch, v, h, -1.3, JOST_AT_RIGHT)
    assert _sup_rel(got.values, ref.values) <= SUP_REL_TOL
    assert _sup_rel(got.derivs, ref.derivs) <= SUP_REL_TOL


def test_blowup_node_matches_reference_without_warnings(monkeypatch):
    g = RadialGrid(0.0, 10.0, 10001)
    v = evaluate_on_grid(parse("0"), g)
    h = evaluate_on_grid(parse("1"), g)
    with pytest.raises(BlowupError) as ref:
        _solve_with(rk4_reference, monkeypatch, v, h, -10000.0, REGULAR_AT_LEFT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError) as got:
            solve(v, h, -10000.0, REGULAR_AT_LEFT)
    assert got.value.node == ref.value.node


def test_blowup_in_forge_run_prints_one_error_line(tmp_path):
    cfg = {
        "grid": {"a": 0.0, "b": 10.0, "n": 10001},
        "base": {"V0": "0", "h": "1"},
        "mode": "darboux",
        "seeds": [{"gamma_sq": -10000.0, "bc": "regular_at_left"}],
        "eval_gammas": [1.0],
        "output": {"dir": str(tmp_path / "out"), "prefix": "boom"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(solvforge.__file__))
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run(
        [sys.executable, "-m", "solvforge.cli", "run", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

"""The blocked-scan RK4 kernel against the sequential reference loop."""

import hashlib
import json
import os
import subprocess
import sys
import threading
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
from solvforge._kernels import _block_length, _stacks, rk4_propagate

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


def _digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestKeptStacks:
    """Each thread reuses its scan stacks across calls of one size; the
    outputs must still depend on the call's inputs alone."""

    def test_bits_pinned(self):
        # SHA-256 of phi and dphi as computed with freshly allocated stacks
        pinned = {
            4001: "fa9571001d0cdcd311897ec399af7dc028b7889a64b4bd0f6c769044e17f0563",
            443: "c038bb1cf4a694a465704fa475ce45a7d1f13731b2c55157197ef5d0c122577f",
        }
        for n, want in pinned.items():
            q, qm, step = _sample_inputs(n)
            assert _digest(*rk4_propagate(q, qm, step, 0.7, -0.3)) == want

    def test_outputs_survive_the_next_call(self):
        q, qm, step = _sample_inputs()
        phi, dphi = rk4_propagate(q, qm, step, 0.7, -0.3)
        first = _digest(phi, dphi)
        for out in (phi, dphi):
            assert not np.shares_memory(out, _stacks.n)
            assert not np.shares_memory(out, _stacks.g)
        q2, qm2, _ = _forbidden_inputs(4001)
        rk4_propagate(q2, qm2, step, 0.0, 1.0)
        assert _digest(phi, dphi) == first

    def test_alternating_sizes(self):
        got = []
        for n in (4001, 443, 4001):
            q, qm, step = _sample_inputs(n)
            _assert_matches_reference(q, qm, step, 0.7, -0.3)
            got.append(_digest(*rk4_propagate(q, qm, step, 0.7, -0.3)))
        assert got[2] == got[0]

    def test_blowup_leaves_nothing_behind(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v = evaluate_on_grid(parse("-3/(1+r)^2"), g)
        h = evaluate_on_grid(parse("1"), g)
        before = solve(v, h, 2.0, REGULAR_AT_LEFT)
        with pytest.raises(BlowupError):
            solve(v, h, -10000.0, REGULAR_AT_LEFT)
        after = solve(v, h, 2.0, REGULAR_AT_LEFT)
        assert _digest(after.values, after.derivs) == _digest(before.values, before.derivs)

    def test_threads_match_sequential_bits(self):
        g = RadialGrid(0.0, 8.0, 8001)
        v = evaluate_on_grid(parse("-3/(1+r)^2"), g)
        h = evaluate_on_grid(parse("1+exp(-r)"), g)
        # four threads, each with its own 20 problems at one n
        problems = [
            [(-0.5 - 0.1 * k - t, JOST_AT_RIGHT if k % 2 else REGULAR_AT_LEFT) for k in range(20)]
            for t in range(4)
        ]

        def run(jobs):
            return [_digest(s.values, s.derivs) for s in (solve(v, h, *job) for job in jobs)]

        want = [run(jobs) for jobs in problems]
        got = [None] * len(problems)

        def worker(t):
            got[t] = run(problems[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(problems))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want


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

"""The three benchmark workloads: seeded inputs, one job, and its checks.

A job is one closed-loop request: the worker times `run` alone, then calls
`check` on what it returned.  Inputs depend only on (seed, job index), so a
rerun with the same seed sees the same inputs, and no two jobs of a run
share inputs (a cache across jobs gains nothing).

* ``cli_configs``: one warm ``forge run`` over every shipped config, then one
  ``forge verify`` pass over the single-channel artifacts.  The CLI's own
  serialization dominates; the only workload that reaches multichannel.
* ``spectral_sweep``: library API, chain transform on n = 100001; the RK4
  kernel dominates and the working set is beyond L2.
* ``bargmann_m8``: library API, M = 8 decaying-frame Bargmann transform on
  n = 32001; the P matrix and Jacobi-formula code take the largest share.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import solvforge as sf
from common import SHIPPED_CONFIGS, digest_dir
from solvforge import cli

#: residual tolerance every check must meet (the package default)
CHECK_TOL = 1e-5

#: relative half-width of the perturbations drawn for cli_configs
PERTURB = 0.05


@dataclass
class JobResult:
    """Outcome of one job, filled by a workload's `check`."""

    solutions: int = 0
    worst_rel: float = 0.0
    failures: list = field(default_factory=list)
    digest: str = ""
    verify_ns: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def add_check(self, what: str, passed: bool, max_rel: float, tol: float) -> None:
        self.worst_rel = max(self.worst_rel, float(max_rel))
        if not passed or tol != CHECK_TOL or not np.isfinite(max_rel):
            self.failures.append(f"{what}: max_rel={max_rel:.3e} tol={tol} passed={passed}")


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cli_configs


def load_shipped(config_dir: str = "configs") -> dict:
    out = {}
    for name in SHIPPED_CONFIGS:
        with open(os.path.join(config_dir, f"{name}.json")) as fh:
            out[name] = json.load(fh)
    return out


def perturb_configs(configs: dict, rng: np.random.Generator) -> dict:
    """Scale every eval gamma^2 (multichannel: the rigid shift) and every C by
    an independent factor in [1 - PERTURB, 1 + PERTURB]."""

    def f() -> float:
        return float(rng.uniform(1.0 - PERTURB, 1.0 + PERTURB))

    out = {}
    for name in SHIPPED_CONFIGS:
        cfg = json.loads(json.dumps(configs[name]))
        if cfg["mode"] == "multichannel":
            gp = cfg["seeds"]["gamma_prime_sq"]
            shifts = [(gvec[0] - gp[0]) * f() for gvec in cfg["eval_gammas"]]
            cfg["eval_gammas"] = [[g + d for g in gp] for d in shifts]
        else:
            cfg["eval_gammas"] = [g * f() for g in cfg["eval_gammas"]]
            for seed in cfg["seeds"]:
                if "C" in seed:
                    seed["C"] = seed["C"] * f()
        out[name] = cfg
    return out


def verify_specs(configs: dict, out_dir: str) -> list:
    """(potential csv, solution csv, h, gamma^2) for every single-channel
    solution and seed image that ``forge run`` writes for `configs`."""
    specs = []
    for name in SHIPPED_CONFIGS:
        cfg = configs[name]
        if cfg["mode"] == "multichannel":
            continue
        prefix = os.path.join(out_dir, cfg["output"]["prefix"])
        h = cfg["base"]["h"]
        if cfg["mode"] == "bargmann":
            for k, seed in enumerate(cfg["seeds"]):
                specs.append((f"{prefix}_potential.csv", f"{prefix}_seed_solution_{k:03d}.csv",
                              h, float(seed["gamma_sq"])))
        for k, g in enumerate(cfg["eval_gammas"]):
            specs.append((f"{prefix}_potential.csv", f"{prefix}_solution_{k:03d}.csv", h, float(g)))
    return specs


def verify_pass(specs, call):
    """One ``forge verify`` per spec; returns [(exit code, stdout)]."""
    outs = []
    for pot, sol, h, g in specs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = call("cli.verify", cli.main, ["verify", pot, sol, "--h", h, f"--gamma-sq={g!r}"])
        outs.append((rc, buf.getvalue()))
    return outs


def check_verify_pass(specs, outs, res: JobResult) -> None:
    for (pot, sol, _h, _g), (rc, text) in zip(specs, outs):
        if rc != 0:
            res.failures.append(f"forge verify {sol} exited {rc}")
            continue
        res.bytes_read += os.path.getsize(pot) + os.path.getsize(sol)
        rep = json.loads(text)
        res.add_check(f"verify {os.path.basename(sol)}", rep["passed"], rep["max_rel"], rep["tol"])


def _solution_fields(record: dict, n_channels: int) -> int:
    """Solution fields (n nodes each) behind one residual record of a report."""
    if record.get("kind") == "transformed_seed_vectors":
        return n_channels
    if isinstance(record.get("gamma_sq"), list):
        return n_channels * n_channels
    return 1


class CliConfigs:
    name = "cli_configs"
    expected_spans = (
        "cli.run", "cli.verify", "kernel.rk4_propagate", "solver.solve",
        "solver.seed_from_expression", "darboux.potential", "darboux.chain_map",
        "bargmann.seed_set", "bargmann.p_matrix", "bargmann.potential", "bargmann.maps",
        "multichannel.seed_vectors", "multichannel.transform_denominator",
        "verify.residual", "verify.matrix_residual", "expr.parse", "grid.signed_prefix",
    )

    def __init__(self, config_dir: str = "configs"):
        self.shipped = load_shipped(config_dir)
        self.config_dir = config_dir

    def inputs(self, seed: int, index: int) -> dict:
        return perturb_configs(self.shipped, _rng(seed, index))

    def reference(self) -> dict:
        return self.shipped

    def sizes(self, inputs: dict) -> dict:
        return {name: cfg["grid"]["n"] for name, cfg in inputs.items()}

    def prepare(self, inputs: dict, work: str, reference: bool = False) -> dict:
        """Write the job's configs into an emptied output folder, so that the
        job's checks see only its own artifacts; the reference job reads the
        shipped files."""
        out_dir = os.path.join(work, "verbatim" if reference else "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        paths = []
        for name in SHIPPED_CONFIGS:
            if reference:
                path = os.path.join(self.config_dir, f"{name}.json")
            else:
                os.makedirs(os.path.join(work, "cfg"), exist_ok=True)
                path = os.path.join(work, "cfg", f"{name}.json")
                with open(path, "w") as fh:
                    json.dump(inputs[name], fh)
            paths.append(path)
        return {"paths": paths, "out_dir": out_dir, "verify": verify_specs(inputs, out_dir)}

    def run(self, job: dict, call, clock):
        runs = []
        for path in job["paths"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = call("cli.run", cli.main, ["run", path, "--out-dir", job["out_dir"]])
            runs.append((rc, buf.getvalue()))
        t0 = clock()
        verified = verify_pass(job["verify"], call)
        return runs, verified, clock() - t0

    def check(self, job: dict, raw) -> JobResult:
        runs, verified, verify_ns = raw
        res = JobResult(verify_ns=verify_ns)
        for name, (rc, text) in zip(SHIPPED_CONFIGS, runs):
            if rc != 0:
                res.failures.append(f"forge run {name} exited {rc}")
                continue
            with open(text.strip()) as fh:
                report = json.load(fh)
            if not report["all_passed"]:
                res.failures.append(f"{name}: all_passed is false")
            n_ch = len(report["config"]["base"]["V0"]) if report["mode"] == "multichannel" else 1
            for rec in report["residuals"]:
                res.add_check(f"{name} {rec['kind']}", rec["passed"], rec["max_rel"], rec["tol"])
                res.solutions += _solution_fields(rec, n_ch)
        check_verify_pass(job["verify"], verified, res)
        res.bytes_written = sum(
            os.path.getsize(os.path.join(job["out_dir"], f)) for f in os.listdir(job["out_dir"])
        )
        res.digest = digest_dir(job["out_dir"])
        return res


# ---------------------------------------------------------------------------
# library workloads


def _check_library(potential, solutions, reports) -> JobResult:
    res = JobResult(solutions=len(solutions))
    for k, rep in enumerate(reports):
        res.add_check(f"solution {k}", rep.passed, rep.max_rel, rep.tol)
    arrays = [potential.values, potential.derivs]
    for s in solutions:
        arrays += [s.values, s.derivs]
    res.digest = _digest_arrays(arrays)
    return res


class SpectralSweep:
    """Chain transform of a regular seed, then 8 solve -> map -> residual.

    Eight eval gamma^2 rather than more keep a job short enough (~0.75 s)
    that a 25-s run completes some 30 jobs, so that the tail percentile
    (ten samples beyond it) lies well above the median."""

    name = "spectral_sweep"
    expected_spans = (
        "kernel.rk4_propagate", "solver.solve", "darboux.transform", "darboux.potential",
        "darboux.chain_second_step", "darboux.chain_map", "verify.residual",
        "expr.parse", "expr.evaluate_on_grid", "grid.signed_prefix",
    )
    V0 = "-2/(1+r)^2"
    H = "1+exp(-r)"
    B = 12.0
    N = 100001
    N_GAMMAS = 8
    GAMMA_RANGE = (0.2, 8.0)

    def inputs(self, seed: int, index: int, n: int = N) -> dict:
        rng = _rng(seed, index)
        return {
            "n": n,
            "seed_gamma_sq": float(rng.uniform(-1.5, -0.5)),
            "C": float(rng.uniform(0.5, 1.0)),
            "gammas": [float(g) for g in rng.uniform(*self.GAMMA_RANGE, self.N_GAMMAS)],
        }

    def reference(self) -> dict:
        return {"n": self.N, "seed_gamma_sq": -1.0, "C": 0.75,
                "gammas": [float(g) for g in np.linspace(*self.GAMMA_RANGE, self.N_GAMMAS)]}

    def sizes(self, inputs: dict) -> dict:
        return {"n": inputs["n"], "interval": [0.0, self.B], "eval_gammas": len(inputs["gammas"])}

    def prepare(self, inputs: dict, work: str, reference: bool = False) -> dict:
        return inputs

    def run(self, job: dict, call, clock):
        grid = sf.RadialGrid(0.0, self.B, job["n"])
        h_expr = sf.parse(self.H)
        h = sf.evaluate_on_grid(h_expr, grid)
        v0 = sf.evaluate_on_grid(sf.parse(self.V0), grid)
        seed = sf.solve(v0, h, job["seed_gamma_sq"], sf.REGULAR_AT_LEFT)
        first = sf.darboux_transform(seed, h_expr, v0)
        potential, solution_map = sf.chain_second_step(first, job["C"], sf.Direction.FROM_LEFT)
        solutions, reports = [], []
        for g in job["gammas"]:
            phi = solution_map(sf.solve(v0, h, g, sf.REGULAR_AT_LEFT))
            reports.append(sf.residual(potential, h, phi))
            solutions.append(phi)
        return potential, solutions, reports

    def check(self, job: dict, raw) -> JobResult:
        return _check_library(*raw)


class BargmannM8:
    """M = 8 Jost seeds, P matrix, potential, seed images and 4 maps.

    The integral form assumes W{phi_mu, phi0} ~ 0 at the right anchor, which
    holds for these kappa ranges on [0, 16]; n = 32001 puts the truncation
    error well below the 1e-5 tolerance (n = 16001 sat at ~1.2e-5).
    """

    name = "bargmann_m8"
    expected_spans = (
        "kernel.rk4_propagate", "solver.solve", "bargmann.seed_set", "bargmann.p_matrix",
        "bargmann.potential", "bargmann.maps", "verify.residual", "expr.parse",
        "expr.evaluate_on_grid", "grid.signed_prefix",
    )
    B = 16.0
    N = 32001
    M = 8
    N_EVAL = 4
    EVAL_RANGE = (-0.9, -0.4)

    def inputs(self, seed: int, index: int, n: int = N) -> dict:
        rng = _rng(seed, index)
        kappa = 1.0 + 0.25 * np.arange(self.M) + rng.uniform(0.0, 0.1, self.M)
        coeff = rng.uniform(0.3, 0.9, self.M) * 2.0 * kappa / self.M
        return {
            "n": n,
            "kappa": [float(k) for k in kappa],
            "C": [float(c) for c in coeff],
            "gammas": [float(g) for g in rng.uniform(*self.EVAL_RANGE, self.N_EVAL)],
        }

    def reference(self) -> dict:
        kappa = 1.0 + 0.25 * np.arange(self.M) + 0.05
        return {"n": self.N, "kappa": [float(k) for k in kappa],
                "C": [float(c) for c in 0.6 * 2.0 * kappa / self.M],
                "gammas": [float(g) for g in np.linspace(*self.EVAL_RANGE, self.N_EVAL)]}

    def sizes(self, inputs: dict) -> dict:
        return {"n": inputs["n"], "interval": [0.0, self.B], "M": len(inputs["kappa"]),
                "eval_gammas": len(inputs["gammas"])}

    def prepare(self, inputs: dict, work: str, reference: bool = False) -> dict:
        return inputs

    def run(self, job: dict, call, clock):
        grid = sf.RadialGrid(0.0, self.B, job["n"])
        h_expr = sf.parse("1")
        h = sf.evaluate_on_grid(h_expr, grid)
        v0 = sf.evaluate_on_grid(sf.parse("0"), grid)
        seeds = []
        for kappa, coeff in zip(job["kappa"], job["C"]):
            g = -kappa * kappa
            seeds.append(sf.BargmannSeed(g, coeff, sf.solve(v0, h, g, sf.JOST_AT_RIGHT)))
        sset = sf.make_seed_set(seeds, v0, h_expr, sf.Direction.FROM_RIGHT)
        pm = sf.p_matrix(sset)
        potential = sf.bargmann_potential(sset, pm)
        solutions = list(sf.transformed_seed_solutions(sset, pm))
        for g in job["gammas"]:
            solutions.append(sf.bargmann_solution(sset, pm, sf.solve(v0, h, g, sf.JOST_AT_RIGHT)))
        reports = [sf.residual(potential, h, y) for y in solutions]
        return potential, solutions, reports

    def check(self, job: dict, raw) -> JobResult:
        return _check_library(*raw)


def make(name: str, config_dir: str = "configs"):
    if name == "cli_configs":
        return CliConfigs(config_dir)
    if name == "spectral_sweep":
        return SpectralSweep()
    if name == "bargmann_m8":
        return BargmannM8()
    raise ValueError(f"unknown workload {name!r}")

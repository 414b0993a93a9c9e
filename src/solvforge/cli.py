"""Command-line entry point.

    forge run <config.json> [--out-dir DIR]
    forge verify <potential.csv> <solution.csv> --h <expr> --gamma-sq <val> [--tol T]
    forge parse-check <expr>

`run` executes one job described by a JSON config (schema documented in the
README), writes the constructed potential and transformed solutions as CSV,
plus a JSON report with every residual check, and exits 0 only if all checks
pass.  Exit codes: 0 success, 2 config or input-schema violation, 3 singular
seed / P matrix / blow-up, 4 residual failure.

Artifacts are written atomically (temp file, then rename) after the whole
job has been computed, so error paths leave no partial files.  Identical
configs produce byte-identical outputs; CSV numbers carry 17 significant
digits and the report echoes the config together with its SHA-256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._kernels import kernel_backend
from .bargmann import (
    BargmannSeed,
    bargmann_potential,
    bargmann_solution,
    make_seed_set,
    p_matrix,
    transformed_seed_solutions,
)
from .darboux import chain_second_step, darboux_potential, darboux_solution, darboux_transform
from .errors import (
    BlowupError,
    BoundaryError,
    ConfigError,
    DirectionMismatchError,
    DomainError,
    DuplicateSpectralError,
    ExprSyntaxError,
    ForgeError,
    NonUniformShiftError,
    SeedRejectedError,
    SingularPotentialError,
    SingularSeedError,
)
from .expr import evaluate_on_grid, parse
from .grid import Direction, RadialGrid, SampledField
from .multichannel import (
    diagonal_base_system,
    multichannel_potential,
    multichannel_solution,
    transformed_seed_vectors,
)
from .solver import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    CustomBC,
    Solution,
    bc_for,
    seed_from_expression,
    solve,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_RESIDUAL = 4

_STRUCTURAL_ERRORS = (
    SingularSeedError,
    SingularPotentialError,
    DuplicateSpectralError,
    BlowupError,
    BoundaryError,
    SeedRejectedError,
    DirectionMismatchError,
    NonUniformShiftError,
)


def _atomic_write(path: str, text: str) -> None:
    # a per-process temp name: concurrent runs into one directory, or a stale
    # leftover, never share the file that is renamed into place
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# CSV schemas


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text: the header line, then one row per grid node with every
    number printed to 17 significant digits."""
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    return ",".join(header) + "\n" + "".join(map(row.format, *(c.tolist() for c in columns)))


def _read_csv(path: str, expected_header: list[str]) -> dict[str, np.ndarray]:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = lines[0].split(",")
    if header != expected_header:
        raise ConfigError(
            f"{path}: expected header {','.join(expected_header)!r}, got {lines[0]!r}"
        )
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}:{k}: expected {len(header)} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{k}: non-numeric entry") from exc
    data = np.asarray(rows)
    return {name: data[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------------------------
# config handling


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _number(val, what: str) -> float:
    """A JSON number (not a bool) as a float."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    raise ConfigError(f"{what} must be a number")


def _cfg_get(cfg: dict, key: str, kind, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    val = cfg[key]
    if kind is float:
        return _number(val, f"{where}: key {key!r}")
    if not isinstance(val, kind):
        raise ConfigError(f"{where}: key {key!r} must be {kind.__name__}")
    return val


def _parse_expr(text, where: str):
    if not isinstance(text, str):
        raise ConfigError(f"{where}: expected an expression string")
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _grid_from_config(cfg: dict) -> RadialGrid:
    gcfg = _cfg_get(cfg, "grid", dict)
    a = _cfg_get(gcfg, "a", float, "grid")
    b = _cfg_get(gcfg, "b", float, "grid")
    n = _cfg_get(gcfg, "n", int, "grid")
    try:
        return RadialGrid(a, b, n)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _direction_from_config(cfg: dict) -> Direction:
    name = cfg.get("direction", "from_left")
    try:
        return Direction(name)
    except ValueError as exc:
        raise ConfigError(f"direction must be 'from_left' or 'from_right', got {name!r}") from exc


def _bc_from_spec(spec, where: str):
    if spec == "regular_at_left":
        return REGULAR_AT_LEFT
    if spec == "jost_at_right":
        return JOST_AT_RIGHT
    if isinstance(spec, dict):
        try:
            return CustomBC(float(spec["value"]), float(spec["slope"]), spec.get("at", "left"))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad custom boundary condition: {exc}") from exc
    raise ConfigError(f"{where}: unknown boundary condition {spec!r}")


def _seed_solution(seed_cfg: dict, grid, V0f, hf, where: str) -> Solution:
    gamma_sq = _cfg_get(seed_cfg, "gamma_sq", float, where)
    if "expr" in seed_cfg:
        return seed_from_expression(
            _parse_expr(seed_cfg["expr"], where), grid, gamma_sq=gamma_sq, V0=V0f, h=hf
        )
    if "bc" in seed_cfg:
        return solve(V0f, hf, gamma_sq, _bc_from_spec(seed_cfg["bc"], where))
    raise ConfigError(f"{where}: seed needs either 'expr' or 'bc'")


def _seeds(cfg: dict, mode: str, grid, V0f, hf) -> list[BargmannSeed]:
    """The single-channel seeds; darboux seeds take no C and carry 0."""
    seed_cfgs = _cfg_get(cfg, "seeds", list)
    if mode == "bargmann" and not seed_cfgs:
        raise ConfigError("bargmann mode needs at least one seed")
    if mode != "bargmann" and len(seed_cfgs) != 1:
        raise ConfigError(f"{mode} mode takes exactly one seed")
    seeds = []
    for k, scfg in enumerate(seed_cfgs):
        where = f"seeds[{k}]"
        if not isinstance(scfg, dict):
            raise ConfigError(f"{where}: a seed must be an object")
        coeff = 0.0 if mode == "darboux" else _cfg_get(scfg, "C", float, where)
        sol = _seed_solution(scfg, grid, V0f, hf, where)
        seeds.append(BargmannSeed(sol.gamma_sq, coeff, sol))
    return seeds


def _eval_gammas(cfg: dict, multichannel: bool) -> list:
    """eval_gammas as floats, or as lists of floats for multichannel jobs."""
    gammas = cfg.get("eval_gammas", [])
    if not isinstance(gammas, list):
        raise ConfigError("eval_gammas must be a list of gamma^2 values")
    if not multichannel:
        return [_number(g, f"eval_gammas[{k}]") for k, g in enumerate(gammas)]
    if not all(isinstance(g, list) for g in gammas):
        raise ConfigError("multichannel eval_gammas entries must be lists of gamma^2 values")
    return [
        [_number(x, f"eval_gammas[{k}][{j}]") for j, x in enumerate(g)]
        for k, g in enumerate(gammas)
    ]


def _sup(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# job execution


class _Job(NamedTuple):
    """One constructed transform, in the shape the run pipeline consumes."""

    potential: tuple[list[str], list[np.ndarray]]  # CSV header and columns
    solution_header: list[str]
    # (record head, residual report, CSV columns or None) per seed-image check
    seed_checks: list[tuple]
    # eval_gammas entry -> (residual report, CSV columns, {cross-check: sup norm})
    evaluate: Callable
    extras: dict  # report entries fixed by the construction


def _single_channel(cfg, grid, direction, tol) -> _Job:
    base = _cfg_get(cfg, "base", dict)
    h_expr = _parse_expr(_cfg_get(base, "h", str, "base"), "base.h")
    v0_expr = _parse_expr(_cfg_get(base, "V0", str, "base"), "base.V0")
    try:
        hf = evaluate_on_grid(h_expr, grid)
        v0f = evaluate_on_grid(v0_expr, grid)
    except DomainError as exc:
        raise ConfigError(f"base expressions not evaluable on the grid: {exc}") from exc

    mode = cfg["mode"]
    seeds = _seeds(cfg, mode, grid, v0f, hf)
    seed = seeds[0].phi0
    extras: dict = {}
    images: list[Solution] = []
    if mode == "darboux":
        potential = darboux_potential(seed, h_expr, v0f)

        def transform(phi0):
            return darboux_solution(seed, hf, phi0), {}

    elif mode == "chain":
        first = darboux_transform(seed, h_expr, v0f)
        potential, smap = chain_second_step(first, seeds[0].coeff, direction)
        sset = make_seed_set(seeds, v0f, h_expr, direction)
        pm = p_matrix(sset)
        extras["chain_vs_bargmann_supnorm"] = _sup(
            potential.values - bargmann_potential(sset, pm).values
        )

        def transform(phi0):
            phi = smap(phi0)
            gap = _sup(phi.values - bargmann_solution(sset, pm, phi0).values)
            return phi, {"chain_vs_bargmann_solution_supnorm": gap}

    else:
        sset = make_seed_set(seeds, v0f, h_expr, direction)
        pm = p_matrix(sset)
        potential = bargmann_potential(sset, pm)
        extras["p_matrix"] = pm.condition_summary()
        images = transformed_seed_solutions(sset, pm)

        def transform(phi0):
            return bargmann_solution(sset, pm, phi0), {}

    def checked(phi):
        return verify_mod.residual(potential, hf, phi, tol=tol), [grid.r, phi.values, phi.derivs]

    def evaluate(gamma_sq):
        phi, checks = transform(solve(v0f, hf, gamma_sq, bc_for(direction)))
        return (*checked(phi), checks)

    seed_checks = [({"kind": "seed_image", "gamma_sq": y.gamma_sq}, *checked(y)) for y in images]
    return _Job(
        (["r", "V"], [grid.r, potential.values]), ["r", "phi", "dphi"], seed_checks, evaluate, extras
    )


def _multichannel(cfg, grid, direction, tol) -> _Job:
    base = _cfg_get(cfg, "base", dict)
    v0_list = _cfg_get(base, "V0", list, "base")
    h_text = _cfg_get(base, "h", str, "base")
    mc = _cfg_get(cfg, "seeds", dict)
    gamma_prime = _cfg_get(mc, "gamma_prime_sq", list, "seeds")
    coeffs = _cfg_get(mc, "c", list, "seeds")
    if not (len(v0_list) == len(gamma_prime) == len(coeffs)):
        raise ConfigError("base.V0, seeds.gamma_prime_sq and seeds.c must have equal lengths")
    try:
        cs = diagonal_base_system(
            [str(e) for e in v0_list],
            h_text,
            grid,
            [float(x) for x in gamma_prime],
            [float(x) for x in coeffs],
            direction,
        )
    except (ExprSyntaxError, DomainError, ValueError) as exc:
        raise ConfigError(f"multichannel base: {exc}") from exc

    vmat = multichannel_potential(cs)
    n_ch = cs.n_channels
    pairs = [(a, b) for a in range(n_ch) for b in range(n_ch)]
    labels = [f"{a + 1}{b + 1}" for a, b in pairs]

    psi = transformed_seed_vectors(cs)
    psimat = tuple(
        (Solution(cs.gamma_prime_sq[a], psi[a], CustomBC(0.0, 0.0, "left")),)
        for a in range(n_ch)
    )
    seed_rep = verify_mod.matrix_residual(vmat, cs.h_field, psimat, cs.gamma_prime_sq, tol=tol)

    def evaluate(gnew):
        if len(gnew) != n_ch:
            raise ConfigError(f"multichannel eval_gammas entries must hold {n_ch} values, got {gnew}")
        phi = multichannel_solution(cs, gnew)
        gap = 0.0
        if abs(gnew[0] - cs.gamma_prime_sq[0]) >= 1e-8:
            phi_w = multichannel_solution(cs, gnew, form="wronskian")
            gap = max(_sup(phi[a][b].values - phi_w[a][b].values) for a, b in pairs)
        rep = verify_mod.matrix_residual(vmat, cs.h_field, phi, gnew, tol=tol)
        columns = [grid.r] + [c for a, b in pairs for c in (phi[a][b].values, phi[a][b].derivs)]
        return rep, columns, {"forms_max_diff": gap}

    return _Job(
        (["r"] + [f"V_{ab}" for ab in labels], [grid.r] + [vmat[a][b].values for a, b in pairs]),
        ["r"] + [f"{name}_{ab}" for ab in labels for name in ("phi", "dphi")],
        [({"kind": "transformed_seed_vectors"}, seed_rep, None)],
        evaluate,
        {"symmetry_defect": max(_sup(vmat[a][b].values - vmat[b][a].values) for a, b in pairs)},
    )


def cmd_run(args) -> int:
    cfg, sha = _load_config(args.config)
    mode = _cfg_get(cfg, "mode", str)
    if mode not in ("darboux", "chain", "bargmann", "multichannel"):
        raise ConfigError(f"unknown mode {mode!r}")
    grid = _grid_from_config(cfg)
    direction = _direction_from_config(cfg)
    tol = _number(cfg.get("tolerance", verify_mod.default_tolerance()), "tolerance")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tolerance must be a finite number > 0, got {tol!r}")
    gammas = _eval_gammas(cfg, mode == "multichannel")

    out_cfg = cfg.get("output", {})
    if not isinstance(out_cfg, dict):
        raise ConfigError("output must be an object")
    out_dir = args.out_dir or out_cfg.get("dir", ".")
    prefix = out_cfg.get("prefix", "job")
    if not isinstance(prefix, str) or prefix in (".", "..") or {"/", os.sep, "\0"} & set(prefix):
        raise ConfigError(f"output.prefix must be a plain file-name prefix, got {prefix!r}")

    build = _multichannel if mode == "multichannel" else _single_channel
    job = build(cfg, grid, direction, tol)
    artifacts = {"potential": _csv(*job.potential)}
    residuals = []
    extras = dict(job.extras)
    for k, (head, rep, columns) in enumerate(job.seed_checks):
        residuals.append({**head, **rep.to_dict()})
        if columns is not None:
            artifacts[f"seed_solution_{k:03d}"] = _csv(job.solution_header, columns)
    for k, gamma_sq in enumerate(gammas):
        rep, columns, checks = job.evaluate(gamma_sq)
        residuals.append({"kind": "transformed", "gamma_sq": gamma_sq, **rep.to_dict()})
        artifacts[f"solution_{k:03d}"] = _csv(job.solution_header, columns)
        for key, gap in checks.items():
            extras[key] = max(extras.get(key, 0.0), gap)

    all_passed = all(r["passed"] for r in residuals)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in artifacts.items():
        path = os.path.join(out_dir, f"{prefix}_{name}.csv")
        _atomic_write(path, text)
        paths[name] = path

    report = {
        "tool": {"name": "solvforge", "version": __version__, "kernel": kernel_backend()},
        "config": cfg,
        "config_sha256": sha,
        "mode": mode,
        "tolerance": tol,
        "residuals": residuals,
        "artifacts": paths,
        "all_passed": all_passed,
        **extras,
    }
    report_path = os.path.join(out_dir, f"{prefix}_report.json")
    _atomic_write(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(report_path)
    return EXIT_OK if all_passed else EXIT_RESIDUAL


def cmd_verify(args) -> int:
    pot = _read_csv(args.potential, ["r", "V"])
    sol = _read_csv(args.solution, ["r", "phi", "dphi"])
    if pot["r"].shape != sol["r"].shape:
        raise ConfigError(
            f"grid mismatch: potential has {pot['r'].size} rows, solution {sol['r'].size}"
        )
    if np.max(np.abs(pot["r"] - sol["r"])) > 0.0:
        raise ConfigError("grid mismatch: r columns differ")
    r = pot["r"]
    if r.size < 7:
        raise ConfigError("need at least 7 rows")
    step = (r[-1] - r[0]) / (r.size - 1)
    if np.max(np.abs(r - (r[0] + step * np.arange(r.size)))) > 1e-9 * max(1.0, abs(r[-1])):
        raise ConfigError("grid is not uniform")
    grid = RadialGrid(float(r[0]), float(r[-1]), int(r.size))

    h_expr = _parse_expr(args.h, "--h")
    hf = evaluate_on_grid(h_expr, grid)
    vf = SampledField(grid, pot["V"], np.gradient(pot["V"], grid.step))
    phi = Solution(
        float(args.gamma_sq),
        SampledField(grid, sol["phi"], sol["dphi"]),
        CustomBC(float(sol["phi"][0]), float(sol["dphi"][0]), "left"),
    )
    tol = args.tol if args.tol is not None else verify_mod.default_tolerance()
    rep = verify_mod.residual(vf, hf, phi, tol=tol)
    print(json.dumps({"gamma_sq": float(args.gamma_sq), **rep.to_dict()}, indent=2, sort_keys=True))
    return EXIT_OK if rep.passed else EXIT_RESIDUAL


def cmd_parse_check(args) -> int:
    e = parse(args.expr)
    print(json.dumps({"ok": True, "canonical": str(e), "derivative": str(e.derivative())}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forge",
        description="Construct exactly solvable radial potentials and verify them.",
    )
    ap.add_argument("--version", action="version", version=f"solvforge {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a job from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="re-verify exported CSV artifacts")
    p_ver.add_argument("potential", help="potential CSV (header r,V)")
    p_ver.add_argument("solution", help="solution CSV (header r,phi,dphi)")
    p_ver.add_argument("--h", required=True, help="weight function expression")
    p_ver.add_argument("--gamma-sq", type=float, required=True, dest="gamma_sq")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_pc = sub.add_parser("parse-check", help="parse an expression and print its derivative")
    p_pc.add_argument("expr")
    p_pc.set_defaults(func=cmd_parse_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _STRUCTURAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

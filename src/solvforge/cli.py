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
import functools
import hashlib
import json
import os
import re
import sys
import warnings
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
    """The columns of an exported CSV, keyed by header name.

    The first non-blank line must equal `expected_header`.  Every later line
    must hold that many comma-separated decimal numbers (`nan` and `inf`
    allowed); empty lines are skipped.  numpy's C reader converts each cell
    with the same correctly rounded routine as float(), so the arrays are bit
    for bit those of a per-cell float() loop.  Errors in the data name the
    file line, counted from the top of the file.
    """
    header_line = None
    try:
        with open(path, encoding="utf-8") as fh:
            for header_line, line in enumerate(fh, 1):
                if line.strip():
                    break
            else:
                raise ConfigError(f"{path} is empty")
            header = line.strip()
            if header.split(",") != expected_header:
                raise ConfigError(
                    f"{path}:{header_line}: expected header {','.join(expected_header)!r}, "
                    f"got {header!r}"
                )
            with warnings.catch_warnings():
                # a header-only file is reported below, not as numpy's warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        if header_line is None:  # open() refused the path (an embedded NUL)
            raise ConfigError(f"cannot read {path!r}: {exc}") from exc
        raise ConfigError(_located(path, header_line, str(exc))) from exc
    if data.size == 0:
        raise ConfigError(f"{path} has a header but no data rows")
    if data.shape[1] != len(expected_header):
        raise ConfigError(
            f"{_where(path, header_line, 0)}: "
            f"expected {len(expected_header)} columns, got {data.shape[1]}"
        )
    return {name: data[:, j] for j, name in enumerate(expected_header)}


# numpy's loadtxt messages: a bad cell names its data row from 0, a change
# in the column count names it from 1; empty lines are not counted
_BAD_CELL = re.compile(r" at row (\d+), column (\d+)\.?$")
_COLUMNS_CHANGED = re.compile(r" at row (\d+)$")


def _located(path: str, header_line: int, message: str) -> str:
    """numpy's error message for the rows after the header, as path:line."""
    reason = message.split(";")[0]  # less numpy's advice on `usecols`
    m = _BAD_CELL.search(reason)
    if m:
        row, reason = int(m.group(1)), f"{reason[:m.start()]} in column {m.group(2)}"
    else:
        m = _COLUMNS_CHANGED.search(reason)
        if m is None:
            return f"{path}, in the rows after the header: {reason}"
        row, reason = int(m.group(1)) - 1, reason[:m.start()]
    return f"{_where(path, header_line, row)}: {reason}"


def _where(path: str, header_line: int, row: int) -> str:
    """path:line of data row `row` (from 0), skipping empty lines as numpy does.
    Bytes past the point numpy reached may not decode; they cannot move a line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for number, line in enumerate(fh, 1):
            if number > header_line and line.rstrip("\n"):
                if row == 0:
                    return f"{path}:{number}"
                row -= 1
    return f"{path}, in the rows after the header"


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
    except ValueError as exc:  # also bytes that are not UTF-8, and over-long integers
        raise ConfigError(f"config cannot be parsed as JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config nests too deeply: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _number(val, what: str) -> float:
    """A finite JSON number (not a bool) as a float."""
    if isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max:
        return float(val)
    raise ConfigError(f"{what} must be a finite number")


def _tolerance(source: dict, key: str, what: str) -> float:
    """The residual tolerance source[key]; when the key is absent, the
    FORGE_RESIDUAL_TOL environment variable or the default.  Either way it
    must be a finite number > 0."""
    if key in source:
        value = source[key]
    else:
        what = verify_mod.TOL_ENV_VAR
        try:
            value = verify_mod.default_tolerance()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    tol = _number(value, what)
    if tol <= 0.0:
        raise ConfigError(f"{what} must be a finite number > 0, got {tol!r}")
    return tol


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
        value = _cfg_get(spec, "value", float, f"{where}.bc")
        slope = _cfg_get(spec, "slope", float, f"{where}.bc")
        try:
            return CustomBC(value, slope, spec.get("at", "left"))
        except ValueError as exc:
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
    h_expr = _parse_expr(_cfg_get(base, "h", str, "base"), "base.h")
    mc = _cfg_get(cfg, "seeds", dict)
    gamma_prime = _cfg_get(mc, "gamma_prime_sq", list, "seeds")
    coeffs = _cfg_get(mc, "c", list, "seeds")
    if not (len(v0_list) == len(gamma_prime) == len(coeffs)):
        raise ConfigError("base.V0, seeds.gamma_prime_sq and seeds.c must have equal lengths")
    v0_exprs = [_parse_expr(e, f"base.V0[{k}]") for k, e in enumerate(v0_list)]
    gamma_prime = [_number(x, f"seeds.gamma_prime_sq[{k}]") for k, x in enumerate(gamma_prime)]
    coeffs = [_number(x, f"seeds.c[{k}]") for k, x in enumerate(coeffs)]
    try:
        cs = diagonal_base_system(v0_exprs, h_expr, grid, gamma_prime, coeffs, direction)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"multichannel base: {exc}") from exc

    vmat = multichannel_potential(cs)
    n_ch = cs.n_channels
    labels = [f"{a + 1}{b + 1}" for a, b in np.ndindex(n_ch, n_ch)]
    seed_rep = verify_mod.matrix_residual(
        vmat, cs.h_field, transformed_seed_vectors(cs), cs.gamma_prime_sq, tol=tol
    )

    def evaluate(gnew):
        if len(gnew) != n_ch:
            raise ConfigError(f"multichannel eval_gammas entries must hold {n_ch} values, got {gnew}")
        phi = multichannel_solution(cs, gnew)
        gap = 0.0
        if abs(gnew[0] - cs.gamma_prime_sq[0]) >= 1e-8:
            gap = _sup(phi.values - multichannel_solution(cs, gnew, form="wronskian").values)
        rep = verify_mod.matrix_residual(vmat, cs.h_field, phi, gnew, tol=tol)
        # row-major entries, each as a (phi, dphi) column pair
        pairs = np.stack([phi.values, phi.derivs], axis=-1).reshape(grid.n, -1)
        return rep, [grid.r, *pairs.T], {"forms_max_diff": gap}

    v = vmat.values
    return _Job(
        (["r"] + [f"V_{ab}" for ab in labels], [grid.r, *v.reshape(grid.n, -1).T]),
        ["r"] + [f"{name}_{ab}" for ab in labels for name in ("phi", "dphi")],
        [({"kind": "transformed_seed_vectors"}, seed_rep, None)],
        evaluate,
        {"symmetry_defect": _sup(v - v.transpose(0, 2, 1))},
    )


def cmd_run(args) -> int:
    cfg, sha = _load_config(args.config)
    mode = _cfg_get(cfg, "mode", str)
    if mode not in ("darboux", "chain", "bargmann", "multichannel"):
        raise ConfigError(f"unknown mode {mode!r}")
    grid = _grid_from_config(cfg)
    direction = _direction_from_config(cfg)
    tol = _tolerance(cfg, "tolerance", "tolerance")
    gammas = _eval_gammas(cfg, mode == "multichannel")

    out_cfg = cfg.get("output", {})
    if not isinstance(out_cfg, dict):
        raise ConfigError("output must be an object")
    out_dir = out_cfg.get("dir", ".")
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir:
        raise ConfigError(f"output.dir must be a non-empty path string, got {out_dir!r}")
    out_dir = args.out_dir or out_dir
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from exc
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
    tol = _tolerance(vars(args), "tol", "--tol")
    gamma_sq = _number(args.gamma_sq, "--gamma-sq")
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
        gamma_sq,
        SampledField(grid, sol["phi"], sol["dphi"]),
        CustomBC(float(sol["phi"][0]), float(sol["dphi"][0]), "left"),
    )
    rep = verify_mod.residual(vf, hf, phi, tol=tol)
    print(json.dumps({"gamma_sq": gamma_sq, **rep.to_dict()}, indent=2, sort_keys=True))
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
    p_ver.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    p_pc = sub.add_parser("parse-check", help="parse an expression and print its derivative")
    p_pc.add_argument("expr")
    p_pc.set_defaults(func=cmd_parse_check)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses across calls; parse_args keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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

"""Command-line entry point.

    forge run <config.json> [--out-dir DIR]
    forge verify <potential.csv> <solution.csv> --h <expr> --gamma-sq <val> [--tol T]
    forge parse-check <expr>

`run` executes one job described by a JSON config (schema documented in the
README), writes the constructed potential and transformed solutions as CSV,
plus a JSON report with every residual check, and exits 0 only if all checks
pass.  Exit codes: 0 success, 2 config or input-schema violation, 3 singular
seed / P matrix / blow-up, 4 residual failure.

A config is read and checked whole (`_read_config`) before any computation.
Artifacts are written atomically (temp files, then renames) after the whole
job has been computed, so error paths leave no partial files.  Identical
configs produce byte-identical outputs; CSV numbers carry 17 significant
digits and the report echoes the config together with its SHA-256.

A run renders its grid's r column once and reuses it as the first column of
every CSV.  Where `os.fork` exists (POSIX) and a run writes two or more CSVs,
a forked child renders and writes about half of the cells while this process
writes the rest; elsewhere one process writes them all through the same loop.
Either way every file holds the same bytes.  The temp files are renamed into
place, the report last, only once all of them are written; a failed write in
either process or a failed rename exits 2 with one `error:` line and leaves no
temp file and no artifact of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import re
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, errors
from ._kernels import kernel_backend
from .bargmann import (
    MAX_SEEDS,
    BargmannSeed,
    bargmann_potential,
    bargmann_solution,
    make_seed_set,
    p_matrix,
    transformed_seed_solutions,
)
from .darboux import chain_second_step, darboux_potential, darboux_solution, darboux_transform
from .errors import ConfigError, DomainError, ExprSyntaxError, ForgeError
from .expr import AnalyticExpr, Node, evaluate_on_grid, parse
from .grid import Direction, RadialGrid, SampledField
from .multichannel import (
    diagonal_base_system,
    multichannel_potential,
    multichannel_solution,
    multichannel_solutions,
    transformed_seed_vectors,
)
from .solver import (
    JOST_AT_RIGHT,
    MIN_SPECTRAL_GAP,
    REGULAR_AT_LEFT,
    BoundaryCondition,
    CustomBC,
    Solution,
    _check_weight,
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
    errors.SingularSeedError,
    errors.SingularPotentialError,
    errors.DuplicateSpectralError,
    errors.BlowupError,
    errors.BoundaryError,
    errors.SeedRejectedError,
    errors.DirectionMismatchError,
    errors.NonUniformShiftError,
)


def _temp(path: str, pid: int) -> str:
    """The temp file of `path` written by process `pid`: concurrent runs into
    one directory, or a stale leftover, never share the file renamed into place."""
    return f"{path}.{pid}.tmp"


def _write_temp(path: str, text: str) -> None:
    """Write `text` to this process's temp file of `path`; a failure removes
    the temp file and raises ConfigError naming `path`."""
    tmp = _temp(path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# CSV schemas


def _cells(values: np.ndarray) -> list[str]:
    """A column as CSV cells: every number to 17 significant digits."""
    return list(map("{:.17g}".format, values.tolist()))


def _csv(header: list[str], first: list[str], columns: list[np.ndarray]) -> str:
    """CSV text: the header line, then one row per grid node: the cell of
    `first` (rendered by `_cells`), then every column's number to 17
    significant digits."""
    row = "{}" + ",{:.17g}" * len(columns) + "\n"
    return ",".join(header) + "\n" + "".join(map(row.format, first, *(c.tolist() for c in columns)))


# A CSV artifact: its path, its header, and its columns after r
_Table = tuple[str, list[str], list[np.ndarray]]


def _write_run(tables: list[_Table], r: np.ndarray, report: tuple[str, str]) -> None:
    """Write every table as CSV, r rendered once and shared by all, and then
    the report (path, text).

    Each file is written to a temp file; with two or more tables and
    `os.fork`, a forked child renders and writes about half of the cells
    (`_halves`) while this process writes the rest.  Only then are the temp
    files renamed into place, the report last.  A failed write raises the
    ConfigError of the first failing table in `tables` order, whichever process
    wrote it, a failed rename that of its file; either leaves no file of the run.
    """
    _write_temp(*report)
    r_cells = _cells(r)
    numbered = list(enumerate(tables))
    pids = {}  # table index -> the process that wrote its temp file, if not this one
    if len(numbered) > 1 and hasattr(os, "fork"):
        mine, theirs = _halves(numbered)
        failures, child = _write_in_two_processes(mine, theirs, r_cells)
        pids = dict.fromkeys((k for k, _ in theirs), child)
    else:
        failures = [_write_in_order(numbered, r_cells)]
    moves = [(_temp(path, pids.get(k, os.getpid())), path) for k, (path, _, _) in numbered]
    moves.append((_temp(report[0], os.getpid()), report[0]))
    failures = [f for f in failures if f is not None]
    renamed = 0
    try:
        if failures:
            raise ConfigError(min(failures)[1])
        for tmp, path in moves:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
            renamed += 1
    except ConfigError:
        for leftover in [p for _, p in moves[:renamed]] + [t for t, _ in moves[renamed:]]:
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        raise


def _halves(numbered: list[tuple[int, _Table]]) -> tuple[list, list]:
    """(index, table) pairs split into two lists of about equal cell counts,
    largest table first, each to the lighter list; each list in index order.
    The tables of one run share the grid, so cells go as columns."""
    halves: tuple[list, list] = ([], [])
    load = [0, 0]
    for item in sorted(numbered, key=lambda item: -len(item[1][2])):
        lighter = int(load[1] < load[0])
        halves[lighter].append(item)
        load[lighter] += len(item[1][2])
    return tuple(sorted(half, key=lambda item: item[0]) for half in halves)


def _write_in_order(numbered: list[tuple[int, _Table]], r_cells: list[str]) -> tuple[int, str] | None:
    """Render and write (index, table) pairs to temp files in order; the index
    and message of the first failed write, or None."""
    for k, (path, header, columns) in numbered:
        try:
            _write_temp(path, _csv(header, r_cells, columns))
        except ConfigError as exc:
            return k, str(exc)
    return None


def _write_in_two_processes(mine: list, theirs: list, r_cells: list[str]) -> tuple[list, int]:
    """`_write_in_order` over `mine` here and over `theirs` in a forked
    child; the outcome of each, and the process that wrote `theirs`.  The
    child reports a failed write through a pipe and leaves through os._exit,
    so the caller's stack never resumes in it and no inherited stdio buffer
    is flushed twice.  The child is always reaped before this returns or
    raises."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: write everything here
        os.close(rfd)
        os.close(wfd)
        return [_write_in_order(sorted(mine + theirs, key=lambda item: item[0]), r_cells)], os.getpid()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as reply:
                failure = _write_in_order(theirs, r_cells)
                if failure is not None:
                    reply.write(f"{failure[0]} {failure[1]}".encode("utf-8", "surrogateescape"))
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as reply:
            outcomes = [_write_in_order(mine, r_cells)]
            message = reply.read().decode("utf-8", "surrogateescape")
    finally:
        _, status = os.waitpid(pid, 0)
    if message:
        k, text = message.split(" ", 1)
        outcomes.append((int(k), text))
    elif status != 0:
        k, (path, _, _) = theirs[0]
        code = os.waitstatus_to_exitcode(status)
        outcomes.append((k, f"cannot write {path}: the writing process ended with code {code}"))
    return outcomes, pid


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
        raise ConfigError(_located(path, str(exc))) from exc
    if data.size == 0:
        raise ConfigError(f"{path} has a header but no data rows")
    if data.shape[1] != len(expected_header):
        raise ConfigError(
            f"{_where(path, 0)}: expected {len(expected_header)} columns, got {data.shape[1]}"
        )
    return {name: data[:, j] for j, name in enumerate(expected_header)}


# numpy's loadtxt messages: a bad cell names its data row from 0, a change
# in the column count names it from 1; empty lines are not counted
_BAD_CELL = re.compile(r" at row (\d+), column (\d+)\.?$")
_COLUMNS_CHANGED = re.compile(r" at row (\d+)$")


def _located(path: str, message: str) -> str:
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
    return f"{_where(path, row)}: {reason}"


def _where(path: str, row: int) -> str:
    """path:line of data row `row` (from 0): the rows after the header, the
    first non-blank line, skipping empty lines as numpy does.  Bytes past the
    point numpy reached may not decode; they cannot move a line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = enumerate(fh, 1)
        for _, line in lines:
            if line.strip():
                break
        for number, line in lines:
            if line.rstrip("\n"):
                if row == 0:
                    return f"{path}:{number}"
                row -= 1
    return f"{path}, in the rows after the header"


def _read_samples(path: str, expected_header: list[str]) -> dict[str, np.ndarray]:
    """The columns of an exported CSV that `forge verify` can check: every
    cell finite and r increasing from row to row."""
    columns = _read_csv(path, expected_header)
    for name, col in columns.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ConfigError(f"{_where(path, int(bad[0]))}: {name} is not finite")
    stall = np.flatnonzero(np.diff(columns["r"]) <= 0.0)
    if stall.size:
        raise ConfigError(f"{_where(path, int(stall[0]) + 1)}: r does not increase")
    return columns


# ---------------------------------------------------------------------------
# config handling

# Bounds that keep one run's memory finite.  Peak RSS of `forge run`, each in
# a fresh process with two eval_gammas (2-vCPU Xeon, Python 3.11, numpy 2.4):
# bargmann with MAX_SEEDS = 8 Jost seeds, 46/69/149 MB at n = 10001/30001/100001,
# ~1.1 kB per node; multichannel with MAX_CHANNELS channels, 191/347/504 MB at
# n = 10001/20001/30001, ~15.6 kB per node.  At MAX_NODES that extrapolates to
# ~0.26 and ~3.2 GB.  cmd_run holds every solution's columns until the write:
# each further eval_gammas entry with MAX_CHANNELS channels adds ~1 kB per node
# (+10 MB at n = 10001 and +30 MB at n = 30001 per entry, measured from 2 to 16
# entries), so MAX_EVAL_GAMMAS entries add ~14 kB per node, ~2.9 GB extrapolated
# to MAX_NODES, never run there.  The shipped configs use at most 5.
MAX_NODES = 200_001
MAX_CHANNELS = 8
MAX_EVAL_GAMMAS = 16
MIN_NODES = 7  # the residual stencil
MAX_EXPR_DEPTH = 100  # deeper trees overflow the parser's or evaluator's recursion


class _Seed(NamedTuple):
    """gamma^2, C (0 for darboux), and the expression of an analytic seed or the
    boundary condition of an integrated one; a multichannel channel has neither."""

    gamma_sq: float
    coeff: float
    expr: AnalyticExpr | None
    bc: BoundaryCondition | None


class _Config(NamedTuple):
    """A `forge run` config with every key checked: all the job reads."""

    mode: str
    grid: RadialGrid
    direction: Direction
    tol: float
    h: AnalyticExpr
    v0: list[AnalyticExpr]  # one per channel; one outside multichannel
    seeds: list[_Seed]  # multichannel: one per channel
    eval_gammas: list  # gamma^2 values; multichannel: a list of one per channel
    out_dir: str
    prefix: str


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
    return cfg, hashlib.sha256(raw).hexdigest()


def _number(val, what: str) -> float:
    """A finite JSON number (not a bool) as a float."""
    if isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max:
        return float(val)
    raise ConfigError(f"{what} must be a finite number")


def _tolerance(source: dict, key: str, what: str) -> float:
    """The residual tolerance source[key], a finite number > 0; when the key
    is absent, the default."""
    tol = _number(source.get(key, verify_mod.DEFAULT_TRANSFORM_TOL), what)
    if tol <= 0.0:
        raise ConfigError(f"{what} must be a finite number > 0, got {tol!r}")
    return tol


def _object(val, where: str, required: tuple, optional: tuple = ()) -> dict:
    """`val` as a JSON object with every `required` key and no keys but those and `optional`."""
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be an object")
    missing, unknown = set(required) - set(val), set(val) - set(required) - set(optional)
    if missing or unknown:
        what = f"missing required key {min(missing)!r}" if missing else f"unknown key {min(unknown)!r}"
        raise ConfigError(f"{where}: {what}")
    return val


def _list(val, where: str, item: Callable, low: int = 0, high: int = sys.maxsize) -> list:
    """`val` as a JSON list of `low` to `high` entries, each read by item(entry, where)."""
    if not isinstance(val, list):
        raise ConfigError(f"{where} must be a list")
    if not low <= len(val) <= high:
        count = low if low == high else f"{low} to {high}"
        raise ConfigError(f"{where} must have length {count}, got {len(val)}")
    return [item(x, f"{where}[{k}]") for k, x in enumerate(val)]


def _parse_expr(text, where: str) -> AnalyticExpr:
    """An expression string, parsed; its tree at most MAX_EXPR_DEPTH levels deep."""
    if not isinstance(text, str):
        raise ConfigError(f"{where}: expected an expression string")
    try:
        e = parse(text)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except RecursionError:  # nested deeper than the parser's recursion reaches
        e = None
    level = [e.root] if e is not None else []
    for _ in range(MAX_EXPR_DEPTH):  # one level of the tree per pass, without recursion
        level = [c for n in level for s in n.__slots__ if isinstance(c := getattr(n, s), Node)]
    if e is None or level:
        raise ConfigError(f"{where}: expression nests deeper than {MAX_EXPR_DEPTH} levels")
    return e


def _bc_from_spec(spec, where: str) -> BoundaryCondition:
    if spec in ("regular_at_left", "jost_at_right"):
        return REGULAR_AT_LEFT if spec == "regular_at_left" else JOST_AT_RIGHT
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: unknown boundary condition {spec!r}")
    bc = _object(spec, f"{where}.bc", ("value", "slope"), ("at",))
    if bc.get("at", "left") not in ("left", "right"):
        raise ConfigError(f"{where}.bc: 'at' must be 'left' or 'right'")
    return CustomBC(_number(bc["value"], f"{where}.bc: key 'value'"),
                    _number(bc["slope"], f"{where}.bc: key 'slope'"), bc.get("at", "left"))


def _seed(val, where: str, required: tuple) -> _Seed:
    """A single-channel seed: the `required` keys and exactly one of expr and bc."""
    seed = _object(val, where, required, ("expr", "bc"))
    if ("expr" in seed) == ("bc" in seed):
        raise ConfigError(f"{where}: a seed takes exactly one of 'expr' and 'bc'")
    return _Seed(
        _number(seed["gamma_sq"], f"{where}: key 'gamma_sq'"),
        _number(seed.get("C", 0.0), f"{where}: key 'C'"),
        _parse_expr(seed["expr"], where) if "expr" in seed else None,
        _bc_from_spec(seed["bc"], where) if "bc" in seed else None,
    )


def _read_config(cfg) -> _Config:
    """Every key of a `forge run` config, unknown keys included, checked and
    converted before any expression is evaluated; a violation raises ConfigError."""
    _object(cfg, "config", ("mode", "grid", "base", "seeds"),
            ("direction", "eval_gammas", "tolerance", "output"))
    mode = cfg["mode"]
    if mode not in ("darboux", "chain", "bargmann", "multichannel"):
        raise ConfigError(f"unknown mode {mode!r}")
    g = _object(cfg["grid"], "grid", ("a", "b", "n"))
    n = g["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not MIN_NODES <= n <= MAX_NODES:
        raise ConfigError(f"grid: n must be an integer from {MIN_NODES} to {MAX_NODES}, got {n!r}")
    a, b = _number(g["a"], "grid: key 'a'"), _number(g["b"], "grid: key 'b'")
    try:
        grid = RadialGrid(a, b, n)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    direction = cfg.get("direction", "from_left")
    if direction not in ("from_left", "from_right"):
        raise ConfigError(f"direction must be 'from_left' or 'from_right', got {direction!r}")

    base = _object(cfg["base"], "base", ("V0", "h"))
    h = _parse_expr(base["h"], "base.h")
    if mode == "multichannel":
        v0 = _list(base["V0"], "base.V0", _parse_expr, 1, MAX_CHANNELS)
        mc = _object(cfg["seeds"], "seeds", ("gamma_prime_sq", "c"))
        entry = functools.partial(_list, item=_number, low=len(v0), high=len(v0))  # one per channel
        seeds = [_Seed(gp, c, None, None) for gp, c in zip(
            entry(mc["gamma_prime_sq"], "seeds.gamma_prime_sq"), entry(mc["c"], "seeds.c"))]
    else:
        v0 = [_parse_expr(base["V0"], "base.V0")]
        keys = ("gamma_sq",) if mode == "darboux" else ("gamma_sq", "C")
        seeds = _list(cfg["seeds"], "seeds", functools.partial(_seed, required=keys), 1,
                      MAX_SEEDS if mode == "bargmann" else 1)
        entry = _number

    out = _object(cfg.get("output", {}), "output", (), ("dir", "prefix"))
    out_dir, prefix = out.get("dir", "."), out.get("prefix", "job")
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir:
        raise ConfigError(f"output.dir must be a non-empty path string, got {out_dir!r}")
    if not isinstance(prefix, str) or prefix in (".", "..") or {"/", os.sep, "\0"} & set(prefix):
        raise ConfigError(f"output.prefix must be a plain file-name prefix, got {prefix!r}")
    tol = _tolerance(cfg, "tolerance", "tolerance")
    gammas = _list(cfg.get("eval_gammas", []), "eval_gammas", entry, 0, MAX_EVAL_GAMMAS)
    return _Config(mode, grid, Direction(direction), tol, h, v0, seeds, gammas, out_dir, prefix)


def _sup(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# job execution


class _Job(NamedTuple):
    """One constructed transform, in the shape the run pipeline consumes."""

    # CSV columns come after the grid's r column, which cmd_run adds
    potential: tuple[list[str], list[np.ndarray]]  # CSV header and columns
    solution_header: list[str]
    # (record head, residual report, CSV columns or None) per seed-image check
    seed_checks: list[tuple]
    # eval_gammas entry -> (residual report, CSV columns, {cross-check: sup norm})
    evaluate: Callable
    extras: dict  # report entries fixed by the construction


def _single_channel(cfg: _Config) -> _Job:
    grid, direction, h_expr = cfg.grid, cfg.direction, cfg.h
    try:
        hf = evaluate_on_grid(h_expr, grid)
        v0f = evaluate_on_grid(cfg.v0[0], grid)
    except DomainError as exc:
        raise ConfigError(f"base expressions not evaluable on the grid: {exc}") from exc
    _check_weight(hf)

    seeds = [
        BargmannSeed(s.gamma_sq, s.coeff, solve(v0f, hf, s.gamma_sq, s.bc) if s.expr is None
                     else seed_from_expression(s.expr, grid, gamma_sq=s.gamma_sq, V0=v0f, h=hf))
        for s in cfg.seeds
    ]
    seed = seeds[0].phi0
    extras: dict = {}
    images: list[Solution] = []
    if cfg.mode == "darboux":
        potential = darboux_potential(seed, h_expr, v0f)

        def transform(phi0):
            return darboux_solution(seed, hf, phi0), {}

    elif cfg.mode == "chain":
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
        return verify_mod.residual(potential, hf, phi, tol=cfg.tol), [phi.values, phi.derivs]

    def evaluate(gamma_sq):
        phi, checks = transform(solve(v0f, hf, gamma_sq, bc_for(direction)))
        return (*checked(phi), checks)

    seed_checks = [({"kind": "seed_image", "gamma_sq": y.gamma_sq}, *checked(y)) for y in images]
    return _Job(
        (["r", "V"], [potential.values]), ["r", "phi", "dphi"], seed_checks, evaluate, extras
    )


def _multichannel(cfg: _Config) -> _Job:
    try:
        cs = diagonal_base_system(cfg.v0, cfg.h, cfg.grid, [s.gamma_sq for s in cfg.seeds],
                                  [s.coeff for s in cfg.seeds], cfg.direction)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"multichannel base: {exc}") from exc

    vmat = multichannel_potential(cs)
    n_ch = cs.n_channels
    labels = [f"{a + 1}{b + 1}" for a, b in np.ndindex(n_ch, n_ch)]
    seed_rep = verify_mod.matrix_residual(
        vmat, cs.h_field, transformed_seed_vectors(cs), cs.gamma_prime_sq, tol=cfg.tol
    )

    def evaluate(gnew):
        gap = 0.0
        if abs(gnew[0] - cs.gamma_prime_sq[0]) >= MIN_SPECTRAL_GAP:
            phi, phi_w = multichannel_solutions(cs, gnew, ("integral", "wronskian"))
            gap = _sup(phi.values - phi_w.values)
        else:
            phi = multichannel_solution(cs, gnew)
        rep = verify_mod.matrix_residual(vmat, cs.h_field, phi, gnew, tol=cfg.tol)
        # row-major entries, each as a (phi, dphi) column pair
        pairs = np.stack([phi.values, phi.derivs], axis=2).reshape(-1, cfg.grid.n)
        return rep, [*pairs], {"forms_max_diff": gap}

    v = vmat.values
    return _Job(
        (["r"] + [f"V_{ab}" for ab in labels], [*v.reshape(-1, cfg.grid.n)]),
        ["r"] + [f"{name}_{ab}" for ab in labels for name in ("phi", "dphi")],
        [({"kind": "transformed_seed_vectors"}, seed_rep, None)],
        evaluate,
        {"symmetry_defect": _sup(v - v.swapaxes(0, 1))},
    )


def cmd_run(args) -> int:
    raw, sha = _load_config(args.config)
    cfg = _read_config(raw)
    try:
        job = (_multichannel if cfg.mode == "multichannel" else _single_channel)(cfg)
        artifacts = {"potential": job.potential}
        residuals = []
        extras = dict(job.extras)
        for k, (head, rep, columns) in enumerate(job.seed_checks):
            residuals.append({**head, **rep.to_dict()})
            if columns is not None:
                artifacts[f"seed_solution_{k:03d}"] = (job.solution_header, columns)
        for k, gamma_sq in enumerate(cfg.eval_gammas):
            rep, columns, checks = job.evaluate(gamma_sq)
            residuals.append({"kind": "transformed", "gamma_sq": gamma_sq, **rep.to_dict()})
            artifacts[f"solution_{k:03d}"] = (job.solution_header, columns)
            for key, gap in checks.items():
                extras[key] = max(extras.get(key, 0.0), gap)
    except ValueError as exc:  # the library's refusal of a field that overflowed
        raise ConfigError(f"the construction is not finite: {exc}") from exc

    all_passed = all(r["passed"] for r in residuals)
    out_dir, prefix = args.out_dir or cfg.out_dir, cfg.prefix
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from exc
    files = {name: f"{prefix}_{name}.csv" for name in artifacts}

    report = {
        "tool": {"name": "solvforge", "version": __version__, "kernel": kernel_backend()},
        "config": raw,
        "config_sha256": sha,
        "mode": cfg.mode,
        "tolerance": cfg.tol,
        "residuals": residuals,
        "artifacts": files,
        "all_passed": all_passed,
        **extras,
    }
    report_path = os.path.join(out_dir, f"{prefix}_report.json")
    report_text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_run([(os.path.join(out_dir, files[name]), *table) for name, table in artifacts.items()],
               cfg.grid.r, (report_path, report_text))
    print(report_path)
    return EXIT_OK if all_passed else EXIT_RESIDUAL


def cmd_verify(args) -> int:
    tol = _tolerance(vars(args), "tol", "--tol")
    gamma_sq = _number(args.gamma_sq, "--gamma-sq")
    pot = _read_samples(args.potential, ["r", "V"])
    sol = _read_samples(args.solution, ["r", "phi", "dphi"])
    if pot["r"].shape != sol["r"].shape:
        raise ConfigError(
            f"grid mismatch: potential has {pot['r'].size} rows, solution {sol['r'].size}"
        )
    if np.max(np.abs(pot["r"] - sol["r"])) > 0.0:
        raise ConfigError("grid mismatch: r columns differ")
    r = pot["r"]
    if r.size < 7:
        raise ConfigError("need at least 7 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        step = (r[-1] - r[0]) / (r.size - 1)
        deviation = np.max(np.abs(r - (r[0] + step * np.arange(r.size))))
        dV = np.gradient(pot["V"], step)
    # `not <=` also rejects the nan of an overflowed step
    if not deviation <= 1e-9 * max(1.0, abs(r[-1])):
        raise ConfigError("grid is not uniform")
    try:
        grid = RadialGrid(float(r[0]), float(r[-1]), int(r.size))
    except ValueError as exc:
        raise ConfigError(f"{args.potential}: grid: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(dV))
    if bad.size:
        raise ConfigError(f"{_where(args.potential, int(bad[0]))}: the finite-difference V' overflows")

    h_expr = _parse_expr(args.h, "--h")
    hf = evaluate_on_grid(h_expr, grid)
    _check_weight(hf)
    vf = SampledField(grid, pot["V"], dV)
    phi = Solution(
        gamma_sq,
        SampledField(grid, sol["phi"], sol["dphi"]),
        CustomBC(float(sol["phi"][0]), float(sol["dphi"][0]), "left"),
    )
    rep = verify_mod.residual(vf, hf, phi, tol=tol)
    if not np.isfinite(rep.max_abs):
        raise ConfigError(f"{_where(args.solution, rep.argmax_node)}: the residual defect overflows")
    print(json.dumps({"gamma_sq": gamma_sq, **rep.to_dict()}, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK if rep.passed else EXIT_RESIDUAL


def cmd_parse_check(args) -> int:
    e = _parse_expr(args.expr, "expr")
    print(json.dumps(
        {"ok": True, "canonical": str(e), "derivative": str(e.derivative())},
        sort_keys=True, allow_nan=False,
    ))
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
    except ForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR if isinstance(exc, _STRUCTURAL_ERRORS) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""The chain sweep's solve -> map -> check path: the bits of its outputs, its
traced peak memory, and which arrays its fields share.

The problem is the benchmark's spectral sweep: V0 = -2/(1+r)^2,
h = 1 + exp(-r) on [0, 12], one chain step from the regular seed at
gamma^2 = -1 with C = 0.75, then solutions mapped and checked at several
gamma^2.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from solvforge import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    Direction,
    RadialGrid,
    SampledField,
    chain_second_step,
    constant_field,
    darboux_potential,
    darboux_solution,
    darboux_transform,
    evaluate_on_grid,
    parse,
    residual,
    signed_prefix,
    solve,
)
from solvforge._kernels import _stacks, rk4_propagate

V0_TEXT = "-2/(1+r)^2"
H_TEXT = "1+exp(-r)"
SEED_GAMMA_SQ = -1.0
C = 0.75
MiB = 2**20


def _chain(n):
    """(h_expr, h, v0, seed, first, potential, solution_map) of the sweep at n nodes."""
    grid = RadialGrid(0.0, 12.0, n)
    h_expr = parse(H_TEXT)
    h = evaluate_on_grid(h_expr, grid)
    v0 = evaluate_on_grid(parse(V0_TEXT), grid)
    seed = solve(v0, h, SEED_GAMMA_SQ, REGULAR_AT_LEFT)
    first = darboux_transform(seed, h_expr, v0)
    potential, solution_map = chain_second_step(first, C, Direction.FROM_LEFT)
    return h_expr, h, v0, seed, first, potential, solution_map


def _digest(*fields):
    """SHA-256 of each field's values, then its derivs, field by field."""
    h = hashlib.sha256()
    for f in fields:
        h.update(f.values.tobytes())
        h.update(f.derivs.tobytes())
    return h.hexdigest()


def _traced_peak(f):
    """f() and the peak of the memory traced while it runs, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bits_pinned():
    # recorded before fields adopted the library's arrays and before the
    # kernel, the chain map and the residual worked in place
    h_expr, h, v0, seed, first, potential, solution_map = _chain(4001)
    jost = solve(v0, h, SEED_GAMMA_SQ, JOST_AT_RIGHT)
    phi0 = solve(v0, h, 2.0, REGULAR_AT_LEFT)
    mapped = [solution_map(solve(v0, h, g, REGULAR_AT_LEFT)) for g in (0.2, 8.0)]
    got = {
        "solve": _digest(seed.field, jost.field),
        "evaluate_on_grid": _digest(h, v0),
        "darboux": _digest(
            darboux_potential(seed, h_expr, v0), darboux_solution(seed, h, phi0).field
        ),
        "chain": _digest(potential, *(phi.field for phi in mapped)),
        "residual": [
            (r.max_abs.hex(), r.max_rel.hex(), r.argmax_node)
            for r in (residual(potential, h, phi) for phi in mapped)
        ],
    }
    assert got == PINNED


PINNED = {
    "solve": "25f5b06e65aa76aabf339358cace31749bfc0cacad481e5b19c920137f161454",
    "evaluate_on_grid": "1140d88763fc10d6d1c383f9499e82d8fc4f5491a576d1213571233ae2e2da3c",
    "darboux": "25f842bec25b92acd6a5defb7671b028878c226ab4b387974d59928ed311626e",
    "chain": "1be86a18bda63069796c35e9dfeda433a40c7969bccaa5a3d49b2acd002e7f9b",
    "residual": [
        ("0x1.1ba2abf000000p-25", "0x1.c93a93595ad16p-26", 2870),
        ("0x1.a9e4f80000000p-29", "0x1.8ebdc6ba19613p-31", 3870),
    ],
}


def test_peak_memory_of_one_solve_map_and_check():
    n = 100001
    _, h, v0, _, _, potential, solution_map = _chain(n)
    solve(v0, h, 0.2, REGULAR_AT_LEFT)  # the kernel's kept stacks exist at this n

    def one():
        phi = solution_map(solve(v0, h, 3.0, REGULAR_AT_LEFT))
        return phi, residual(potential, h, phi)

    (phi, report), peak = _traced_peak(one)
    assert report.passed
    # the retained output (the mapped phi and phi', 2 n), the base solution
    # it is mapped from (2 n) and the map's one scratch row (n), plus 1 MiB
    # for the rest: the solver's coefficient rows are gone before the map
    # starts, the kernel's scratch lives in its kept stacks, and the
    # residual needs two rows, fewer than the map
    assert peak <= 5 * n * 8 + MiB


class TestAliasing:
    N = 2001

    def test_library_fields_are_read_only(self):
        h_expr, h, v0, seed, first, potential, solution_map = _chain(self.N)
        jost = solve(v0, h, SEED_GAMMA_SQ, JOST_AT_RIGHT)
        phi0 = solve(v0, h, 2.0, REGULAR_AT_LEFT)
        fields = [
            h, v0, seed.field, jost.field, first.h_field, first.new_potential, potential,
            solution_map(phi0).field, darboux_potential(seed, h_expr, v0),
            darboux_solution(seed, h, phi0).field, constant_field(h.grid, 2.0),
            h + v0, h - v0, 1.0 - h, h * v0, h / v0, 1.0 / h, -h,
            signed_prefix(h, Direction.FROM_RIGHT),
        ]
        for f in fields:
            for arr in (f.values, f.derivs):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_caller_arrays_are_copied(self):
        grid = RadialGrid(0.0, 1.0, self.N)
        values, derivs = np.linspace(1.0, 2.0, self.N), np.ones(self.N)
        field = SampledField(grid, values, derivs)
        assert not np.shares_memory(field.values, values)
        assert not np.shares_memory(field.derivs, derivs)
        values[:] = -1.0
        derivs[:] = 0.0
        assert field.values[0] == 1.0 and field.values[-1] == 2.0
        assert (field.derivs == 1.0).all()

    def test_kernel_outputs_survive_a_call_at_another_n(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(-2.0, 2.0, 4001)
        qm = rng.uniform(-2.0, 2.0, 4000)
        phi, dphi = rk4_propagate(q, qm, 1e-3, 0.7, -0.3)
        kept = phi.copy(), dphi.copy()
        stacks = _stacks.n, _stacks.g
        rk4_propagate(q[:443], qm[:442], 1e-3, 1.0, 0.0)
        assert _stacks.n is not stacks[0] and _stacks.g is not stacks[1]
        del stacks
        rk4_propagate(q[:1001], qm[:1000], 1e-3, 0.0, 1.0)
        np.testing.assert_array_equal(phi, kept[0])
        np.testing.assert_array_equal(dphi, kept[1])

    def test_non_contiguous_view_is_copied_once(self):
        grid = RadialGrid(0.0, 1.0, 100001)
        rows = np.linspace(0.0, 1.0, 2 * grid.n)
        values, derivs = rows[::2], rows[1::2]
        values.flags.writeable = derivs.flags.writeable = False
        field, peak = _traced_peak(lambda: SampledField._sharing(grid, values, derivs))
        for got, given in ((field.values, values), (field.derivs, derivs)):
            assert got.flags.c_contiguous and not np.shares_memory(got, given)
            np.testing.assert_array_equal(got, given)
        # the two copies and one finiteness mask
        assert peak <= 2 * grid.n * 8 + grid.n + 2**16

    def test_backward_solve_holds_its_rows_once(self):
        _, h, v0, *_ = _chain(self.N)
        jost = solve(v0, h, SEED_GAMMA_SQ, JOST_AT_RIGHT)
        for arr in (jost.values, jost.derivs):
            assert arr.flags.c_contiguous
            assert not (np.shares_memory(arr, _stacks.n) or np.shares_memory(arr, _stacks.g))

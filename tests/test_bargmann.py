"""M-fold Bargmann transformation: P matrix, potential, solution maps."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from bargmann_dense_reference import dense_potential, dense_seed_images, p_and_inverse
from conftest import const, fd4, field_of, unit_problem
from solvforge import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    BargmannSeed,
    CustomBC,
    Direction,
    DirectionMismatchError,
    DuplicateSpectralError,
    RadialGrid,
    SampledField,
    SeedRejectedError,
    SingularPotentialError,
    Solution,
    bargmann_potential,
    bargmann_solution,
    chain_second_step,
    check_wronskian_integral,
    darboux_transform,
    make_seed_set,
    p_matrix,
    parse,
    residual,
    signed_prefix,
    solve,
    transformed_seed_solutions,
)
from solvforge import bargmann
from solvforge.bargmann import _ddpsi, _kernel, _lu_factor, _lu_solve

P_AT_1 = 1.4067151019617546


def _free_regular_set(grid, spectra, coeffs, v0=None, h_text="1"):
    v0 = v0 if v0 is not None else const(grid, 0.0)
    h = field_of(h_text, grid)
    seeds = [
        BargmannSeed(gsq, c, solve(v0, h, gsq, REGULAR_AT_LEFT))
        for gsq, c in zip(spectra, coeffs)
    ]
    return make_seed_set(seeds, v0, parse(h_text), Direction.FROM_LEFT)


class TestPMatrix:
    def test_identity_when_uncoupled(self, grid01):
        sset = _free_regular_set(grid01, [-1.0, -4.0], [0.0, 0.0])
        pm = p_matrix(sset)
        p = p_and_inverse(pm)[0]
        assert np.array_equal(p, np.broadcast_to(np.eye(2)[:, :, None], p.shape))
        assert np.all(pm.det == 1.0)

    def test_anchored_at_identity(self, grid01):
        sset = _free_regular_set(grid01, [-1.0, -4.0], [0.7, 0.4])
        pm = p_matrix(sset)
        assert np.max(np.abs(p_and_inverse(pm)[0][..., 0] - np.eye(2))) == 0.0

    def test_single_seed_diagonal_value(self, grid01):
        sset = _free_regular_set(grid01, [-1.0], [1.0])
        pm = p_matrix(sset)
        assert p_and_inverse(pm)[0][0, 0, -1] == pytest.approx(P_AT_1, abs=1e-10)

    def test_offdiagonal_wronskian_vs_quadrature(self):
        # 20 random oscillatory spectral pairs against the quadrature oracle
        g = RadialGrid(0.0, 6.0, 6001)
        v0 = field_of("exp(-r)", g)
        h = field_of("1 + 0.4*exp(-r)", g)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            ga, gb = rng.uniform(0.2, 3.0, 2)
            if abs(ga - gb) < 0.1:
                continue
            checked += 1
            pa = solve(v0, h, float(ga), REGULAR_AT_LEFT)
            pb = solve(v0, h, float(gb), REGULAR_AT_LEFT)
            rep = check_wronskian_integral(pa, pb, h, Direction.FROM_LEFT, tol=1e-7)
            assert rep.passed

    def test_offdiagonal_entries_vs_quadrature_oracle(self):
        # rebuild the off-diagonal entries from the prefix-integral form and
        # compare with the Wronskian form used by p_matrix
        g = RadialGrid(0.0, 6.0, 6001)
        sset = _free_regular_set(g, [0.8, 2.1], [0.45, 0.75], h_text="1 + 0.4*exp(-r)")
        p = p_and_inverse(p_matrix(sset))[0]
        h = sset.h_field
        for mu, nu in ((0, 1), (1, 0)):
            smu, snu = sset.seeds[mu], sset.seeds[nu]
            quad = smu.coeff * signed_prefix(
                h * smu.phi0.field * snu.phi0.field, Direction.FROM_LEFT
            ).values
            assert np.max(np.abs(p[mu, nu] - quad)) < 1e-7

    def test_inverse_consistency(self):
        g = RadialGrid(0.0, 6.0, 3001)
        sset = _free_regular_set(g, [-0.25, -0.64, -1.44], [0.4, 0.6, 0.8])
        p, inv = p_and_inverse(p_matrix(sset))
        dev = np.max(np.abs(np.einsum("ijn,jkn->ikn", inv, p) - np.eye(3)[:, :, None]))
        assert dev < 1e-10

    def test_duplicate_spectra_rejected(self, grid01):
        with pytest.raises(DuplicateSpectralError):
            _free_regular_set(grid01, [-1.0, -1.0 + 1e-12], [0.5, 0.5])

    def test_mixed_directions_rejected(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        s_reg = solve(v0, h1, -1.0, REGULAR_AT_LEFT)
        s_jost = solve(v0, h1, -4.0, JOST_AT_RIGHT)
        with pytest.raises(DirectionMismatchError):
            make_seed_set(
                [BargmannSeed(-1.0, 0.5, s_reg), BargmannSeed(-4.0, 0.5, s_jost)],
                v0,
                parse("1"),
                Direction.FROM_LEFT,
            )

    def test_invalid_base_solution_rejected(self, grid01):
        v0, h1 = unit_problem(grid01)
        junk = Solution(
            -1.0, field_of("sin(r) + 0.1", grid01), CustomBC(0.1, 1.0, "left")
        )
        with pytest.raises(SeedRejectedError):
            make_seed_set([BargmannSeed(-1.0, 0.5, junk)], v0, parse("1"), Direction.FROM_LEFT)

    def test_seed_cap(self, grid01):
        v0, h1 = unit_problem(grid01)
        seeds = [
            BargmannSeed(-(k + 1.0) ** 2, 0.1, solve(v0, h1, -(k + 1.0) ** 2, REGULAR_AT_LEFT))
            for k in range(9)
        ]
        with pytest.raises(ValueError, match="cap"):
            make_seed_set(seeds, v0, parse("1"), Direction.FROM_LEFT)

    def test_sign_flip_detected(self):
        g = RadialGrid(0.0, 2.0, 2001)
        with pytest.raises(SingularPotentialError):
            p_matrix(_free_regular_set(g, [-1.0], [-10.0]))

    def test_exactly_singular_node_named(self):
        # phi = 1 solves V0 = -1, h = 1 at gamma^2 = -1, and on a step of 2^-6
        # its prefix is exact: P_00 = 1 - r is exactly 0 at r = 1 (node 64).
        # The second seed has C = 0, so column 0 of P is zero there and the
        # factorization divides by a zero pivot.
        g = RadialGrid(0.0, 2.0, 129)
        v0, h1 = const(g, -1.0), const(g, 1.0)
        one = Solution(-1.0, const(g, 1.0), CustomBC(1.0, 0.0, "left"))
        other = solve(v0, h1, -2.0, CustomBC(1.0, 0.0, "left"))
        sset = make_seed_set([BargmannSeed(-1.0, -1.0, one), BargmannSeed(-2.0, 0.0, other)],
                             v0, parse("1"), Direction.FROM_LEFT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularPotentialError, match="at node 64$") as exc:
                p_matrix(sset)
        assert exc.value.node == 64

    @pytest.mark.parametrize("m, n, b, message", [
        # P is factored in blocks of ceil(3 n / m) nodes: 61 nodes at m = 4,
        # 31 at m = 8; P_00 = 1 - r is exactly 0 at r = 1 (node 64)
        (4, 81, 1.25, "det P is not finite at node 64"),
        (8, 81, 1.25, "det P is not finite at node 64"),
        # r = 1 falls between nodes: det P = 1 - r changes sign at node 77
        # (second block of 60), at node 154 (third block of 75) and at node 61,
        # the first of the second block, whose sign is compared with node 0's
        (5, 100, 1.3, "det P is singular or changes sign at node 77"),
        (4, 81, 1.32, "det P is singular or changes sign at node 61"),
        (8, 200, 1.3, "det P is singular or changes sign at node 154"),
    ])
    def test_first_bad_node_named_across_blocks(self, m, n, b, message):
        # the exactly singular set above, with m - 1 seeds of C = 0
        g = RadialGrid(0.0, b, n)
        v0, h1 = const(g, -1.0), const(g, 1.0)
        seeds = [BargmannSeed(-1.0, -1.0, Solution(-1.0, const(g, 1.0), CustomBC(1.0, 0.0, "left")))]
        seeds += [BargmannSeed(-1.0 - k, 0.0, solve(v0, h1, -1.0 - k, CustomBC(1.0, 0.0, "left")))
                  for k in range(1, m)]
        sset = make_seed_set(seeds, v0, parse("1"), Direction.FROM_LEFT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularPotentialError, match=f"^{message}$") as exc:
                p_matrix(sset)
        assert exc.value.node == int(message.rsplit(" ", 1)[1])

    def test_three_bound_states_bits_pinned(self):
        # configs/three_bound_states.json: the P matrix keeps the exact bits of
        # the per-seed prefix assembly; its inverse and determinant those of
        # the node-batched LU factorization.  P and P^-1 are hashed with their
        # nodes moved back to the first axis
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        seeds = [
            BargmannSeed(gsq, c, solve(v0, h1, gsq, JOST_AT_RIGHT))
            for gsq, c in [(-1.0, 0.6), (-2.25, 0.8), (-4.0, 0.5)]
        ]
        pm = p_matrix(make_seed_set(seeds, v0, parse("1"), Direction.FROM_RIGHT))
        arrays = dict(zip(("entries", "inv"), p_and_inverse(pm)), det=pm.det)
        digests = {
            name: hashlib.sha256(np.ascontiguousarray(np.moveaxis(a, -1, 0)).tobytes()).hexdigest()
            for name, a in arrays.items()
        }
        assert digests == {
            "entries": "285b8bfcdbb227d8d69bdb6165b3fc8cc0f9ebc68b627504daa2e15f0f36cd74",
            "inv": "610a761a1204ecc38f27eff77c145769f5a2eb6c50174960aee05c67e3e6804a",
            "det": "f91dbe625235608b9a3d24ed57f4f716c6caf156893c1b9e8d9775c3ac361841",
        }


def _three_bound_states(grid, bc, direction):
    """configs/three_bound_states.json's seeds on `grid`, in the frame of `bc`."""
    v0, h1 = unit_problem(grid)
    seeds = [
        BargmannSeed(gsq, c, solve(v0, h1, gsq, bc))
        for gsq, c in [(-1.0, 0.6), (-2.25, 0.8), (-4.0, 0.5)]
    ]
    return make_seed_set(seeds, v0, parse("1"), direction)


def _reference_m8_set(n):
    """forgebench's bargmann_m8 reference inputs: 8 Jost seeds on [0, 16]."""
    g = RadialGrid(0.0, 16.0, n)
    v0, h1 = unit_problem(g)
    kappa = 1.0 + 0.25 * np.arange(8) + 0.05
    seeds = [BargmannSeed(-k * k, 0.6 * 2.0 * k / 8, solve(v0, h1, -k * k, JOST_AT_RIGHT))
             for k in kappa]
    return make_seed_set(seeds, v0, parse("1"), Direction.FROM_RIGHT)


class TestInPlaceFactorization:
    def test_peak_memory_of_the_reference_m8_set(self):
        n, m = 32001, 8
        sset = _reference_m8_set(n)
        tracemalloc.start()
        try:
            pm = p_matrix(sset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the seed rows psi, psi' (2 K n, built on first use; psi'' is not
        # kept) and the Jacobi stack (3 K n), one P block of ceil(3 n / K)
        # nodes, the diagonal prefix and its rows before they are stacked
        # (K n each), and 1 MiB for the rest
        block = -(-3 * n // m)
        assert peak <= (5 * m * n + m * m * block + 2 * m * n) * 8 + 2 ** 20
        # P is not kept, whole or factored
        held = [a for a in (*vars(pm).values(), *pm.seeds) if isinstance(a, np.ndarray)]
        assert held and all(a.size < m * m * n for a in held)

    def test_blocked_factorization_bits_pinned(self):
        # n = 4001 gives three blocks of 1501, 1501 and 999 nodes; the digests
        # are those of P assembled and factored whole.  P and P^-1 are hashed
        # with their nodes moved back to the first axis
        pm = p_matrix(_reference_m8_set(4001))
        arrays = {name: getattr(pm, name) for name in ("det", "jacobi", "images_deriv")}
        arrays.update((name, np.moveaxis(a, -1, 0))
                      for name, a in zip(("entries", "inv"), p_and_inverse(pm)))
        digests = {
            name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in arrays.items()
        }
        assert digests == {
            "det": "8287955761ffcccab8919fa365f41219f8bced2a9cd712eb9bfe2216daa6269b",
            "jacobi": "926fd2815b1c9f5577448c5180806239b6863592f63c94b435d2268ffdd2c181",
            "images_deriv": "ab5e5f7c3fa017627ef411f029d17d3eedd23593d45cc8652ac4e6778b38c742",
            "entries": "63b0e9c1a8b07103744cc3316ab085561f288e0e35ef8e24d3b683c29c12f76f",
            "inv": "befbe0cdce6d19bc1b1b8111ffdb836f621ccf2aaf40d48de4d1286556fdda92",
        }

    def test_condition_summary_assembles_p_once(self, monkeypatch):
        pm = p_matrix(_three_bound_states(RadialGrid(0.0, 10.0, 10001), JOST_AT_RIGHT,
                                          Direction.FROM_RIGHT))
        assemble, calls = bargmann._assemble, []

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(bargmann, "_assemble", counted)
        pm.condition_summary()
        assert len(calls) == 1

    def test_overflowed_determinant_named(self):
        # three_bound_states switched to the regular frame on [0, 100]: P stays
        # finite, but the product of U's diagonal overflows at node 16224
        sset = _three_bound_states(RadialGrid(0.0, 100.0, 20001), REGULAR_AT_LEFT,
                                   Direction.FROM_LEFT)
        with pytest.raises(SingularPotentialError,
                           match="^det P is not finite at node 16224$") as exc:
            p_matrix(sset)
        assert exc.value.node == 16224

    def test_sign_change_keeps_its_message(self):
        g = RadialGrid(0.0, 2.0, 2001)
        with pytest.raises(SingularPotentialError, match="^det P is singular or changes sign at"):
            p_matrix(_free_regular_set(g, [-1.0], [-10.0]))


def _seed_kernels(sset, g, dg):
    """_kernel of every seed k against g[k], dg[k], stacked (M, B, n)."""
    pairs = [_kernel(sset._seeds, k, g[k], dg[k]) for k in range(len(sset.seeds))]
    return np.stack([v for v, _ in pairs]), np.stack([d for _, d in pairs])


def _traced_peak(f):
    """f() and the peak of the memory traced while it runs, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _field_digest(fields):
    """SHA-256 of the fields' values, then derivs, in order."""
    h = hashlib.sha256()
    for f in fields:
        h.update(f.values.tobytes())
        h.update(f.derivs.tobytes())
    return h.hexdigest()


class TestOneCopyOfEachRow:
    """Streamed seed sums, psi'' formed where it is read, seed images sharing
    P's read-only rows, and P's condition block by block."""

    N = 32001

    @pytest.fixture(scope="class")
    def m8(self):
        sset = _reference_m8_set(self.N)
        return sset, p_matrix(sset)

    def test_streamed_outputs_bits_pinned(self):
        # digests recorded before the seed sums were streamed; n = 4001 gives
        # three blocks of P
        sset = _reference_m8_set(4001)
        pm = p_matrix(sset)
        v0, h1 = unit_problem(sset.grid)
        digests = {
            "potential": _field_digest([bargmann_potential(sset, pm)]),
            "seed_images": _field_digest([y.field for y in transformed_seed_solutions(sset, pm)]),
            **{g: _field_digest([bargmann_solution(sset, pm, solve(v0, h1, g, JOST_AT_RIGHT)).field])
               for g in (-0.9, -0.4)},
        }
        assert digests == {
            "potential": "d6dd081cc72d3d2ca309d7e42e3f49ac4aa656d23e88c0f18052b9abc05304f6",
            "seed_images": "447547d5f73496d898b992ce190abddb338700105c16f2cb4ffcbe1ec36816f5",
            -0.9: "94ee9c652ec97e2577182a6c6762ced82d0fd2909eaa06605af937f5d6b9b988",
            -0.4: "4f299bbff603b89c5a67cb594683f78d7ac1373a4b5979248f0fe6e4fbcc9352",
        }
        assert pm.condition_summary() == {
            "m": 8,
            "det_min": 0.40841128424561735,
            "det_max": 1.0,
            "det_sign": 1,
            "max_condition": 4.318576301562117,
        }

    def test_solution_peak_memory(self, m8):
        sset, pm = m8
        n = self.N
        v0, h1 = unit_problem(sset.grid)
        phi0 = solve(v0, h1, -0.9, JOST_AT_RIGHT)
        _, peak = _traced_peak(lambda: bargmann_solution(sset, pm, phi0))
        # the outputs (the two returned rows and the map's three running
        # sums, 5 n), one seed's kernel rows (its prefix, integrand and
        # derivative integrand, 3 n) and 1 MiB for the rest; the (K, n)
        # kernel stacks are never formed
        assert peak <= 8 * n * 8 + 2 ** 20

    def test_condition_summary_peak_memory(self, m8):
        sset, pm = m8
        n, m = self.N, pm.m
        summary, peak = _traced_peak(pm.condition_summary)
        # one P block of ceil(3 n / K) nodes and its identity block (K^2 b
        # each), the diagonal prefix (K n), the norms (the condition row, n,
        # and one block's row sums with the term being added, 2 K b) and
        # 1 MiB for the rest
        block = -(-3 * n // m)
        assert peak <= (2 * m * m * block + m * n + n + 2 * m * block) * 8 + 2 ** 20
        assert summary["m"] == m and summary["max_condition"] > 1.0
        # nothing is kept beyond the factored fields
        assert set(vars(pm)) == {"seeds", "det", "jacobi", "images_deriv"}

    def test_seed_images_share_the_read_only_rows(self, m8):
        sset, pm = m8
        assert not pm.jacobi.flags.writeable and not pm.images_deriv.flags.writeable
        for k, y in enumerate(transformed_seed_solutions(sset, pm)):
            for row, rows in ((y.values, pm.images), (y.derivs, pm.images_deriv)):
                assert not row.flags.writeable
                assert np.shares_memory(row, rows[k])
                with pytest.raises(ValueError):
                    row[0] = 0.0
        # an array a caller passes is copied, writable or not
        values, derivs = pm.images[0, 0], pm.images_deriv[0, 0].copy()
        field = SampledField(sset.grid, values, derivs)
        assert not np.shares_memory(field.values, values)
        assert not np.shares_memory(field.derivs, derivs)
        derivs[0] = 0.0
        assert field.derivs[0] == pm.images_deriv[0, 0, 0]


class TestSeedRows:
    """_kernel integrates seed by seed as plain rows; they must keep the bits
    of the (M, n) stack integrated in one signed_prefix call."""

    @staticmethod
    def _stacked_route(sset, g, dg):
        phi = np.stack([s.phi0.values for s in sset.seeds])
        dphi = np.stack([s.phi0.derivs for s in sset.seeds])
        hv = sset.h_field.values
        hphi = hv * phi
        hphi_d = sset.h_field.derivs * phi + hv * dphi
        return signed_prefix(SampledField(sset.grid, hphi * g, hphi_d * g + hphi * dg),
                             sset.direction)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("frame", ["regular", "jost"])
    def test_rows_match_the_stacked_route(self, m, frame):
        bc, direction, b = {
            "regular": (REGULAR_AT_LEFT, Direction.FROM_LEFT, 3.0),
            "jost": (JOST_AT_RIGHT, Direction.FROM_RIGHT, 8.0),
        }[frame]
        # an even node count closes the prefix with the odd-panel rule
        g = RadialGrid(0.0, b, 2000)
        v0, h = field_of("-exp(-r)", g), field_of("1+exp(-r)", g)
        kappa = 0.8 + 0.3 * np.arange(m)
        seeds = [BargmannSeed(-k * k, 0.5, solve(v0, h, -k * k, bc)) for k in kappa]
        sset = make_seed_set(seeds, v0, parse("1+exp(-r)"), direction)
        phi0 = solve(v0, h, -0.3, bc)
        phi_rows = np.stack([s.phi0.values for s in seeds])
        dphi_rows = np.stack([s.phi0.derivs for s in seeds])
        cases = [
            # the diagonal of P: one (N, B) = (1, 1) stack per seed
            (phi_rows[:, None, None], dphi_rows[:, None, None], phi_rows, dphi_rows),
            # a map: one stack shared by every seed
            (phi0.values[None, None], phi0.derivs[None, None], phi0.values, phi0.derivs),
        ]
        for g_rows, dg_rows, g_stack, dg_stack in cases:
            g_rows, dg_rows = (np.broadcast_to(x, (m, 1, 1, g.n)) for x in (g_rows, dg_rows))
            values, derivs = _seed_kernels(sset, g_rows, dg_rows)
            ref = self._stacked_route(sset, g_stack, dg_stack)
            assert np.array_equal(values[:, 0], ref.values)
            assert np.array_equal(derivs[:, 0], ref.derivs)


class TestFactorization:
    """The node-batched LU of p_matrix against LAPACK on (n, M, M) stacks."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_lapack(self, m):
        rng = np.random.default_rng(m)
        stack = rng.standard_normal((200, m, m))
        if m > 1:
            # a permuted identity whose leading entry is 0: every column swaps
            stack[0] = np.roll(np.eye(m), 1, axis=0)
        lu = np.ascontiguousarray(stack.transpose(1, 2, 0))
        det, swaps = _lu_factor(lu)
        ref = np.linalg.det(stack)
        assert np.all(np.abs(det - ref) <= 1e-12 * np.abs(ref))
        if m > 1:
            assert all(0 in nodes for nodes, _ in swaps[:-1])
        b = rng.standard_normal((200, m, 3))
        x = _lu_solve(lu, swaps, np.ascontiguousarray(b.transpose(1, 2, 0))).transpose(2, 0, 1)
        ref = np.linalg.solve(stack, b)
        # both are backward stable: the forward error is bounded by cond * eps
        err = np.abs(x - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.linalg.cond(stack) * np.abs(ref).max(axis=(1, 2)))


class TestPotential:
    def test_uncoupled_returns_base(self, grid01):
        v0 = field_of("exp(-r)", grid01)
        sset = _free_regular_set(grid01, [-1.0, -4.0], [0.0, 0.0], v0=v0)
        v = bargmann_potential(sset, p_matrix(sset))
        assert np.array_equal(v.values, v0.values)

    def test_single_seed_matches_chain(self):
        g = RadialGrid(0.0, 6.0, 6001)
        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        h = field_of("1 + exp(-r)", g)
        seed = solve(v0, h, -1.0, REGULAR_AT_LEFT)
        v_chain, _ = chain_second_step(darboux_transform(seed, he, v0), 0.8, Direction.FROM_LEFT)
        sset = make_seed_set([BargmannSeed(-1.0, 0.8, seed)], v0, he, Direction.FROM_LEFT)
        v_barg = bargmann_potential(sset, p_matrix(sset))
        assert np.max(np.abs(v_chain.values - v_barg.values)) < 1e-6

    def test_vanishes_at_origin_for_regular_seed(self, grid01):
        sset = _free_regular_set(grid01, [-1.0], [0.9])
        v = bargmann_potential(sset, p_matrix(sset))
        assert v.values[0] == 0.0

    def test_derivative_channel(self):
        g = RadialGrid(0.0, 6.0, 6001)
        sset = _free_regular_set(g, [-0.25, -1.0], [0.5, 0.5])
        v = bargmann_potential(sset, p_matrix(sset))
        assert np.max(np.abs(v.derivs[2:-2] - fd4(v.values, g.step))) < 1e-9

    def test_trace_route_matches_seed_image_sum(self):
        # independent route: V = V0 - sum_mu [2 h (y_mu phi_mu)' + h' y_mu phi_mu]
        # assembled from the transformed seed images, vs the log-det-P route
        g = RadialGrid(0.0, 6.0, 3001)
        sset = _free_regular_set(g, [-0.25, -0.64, -1.44], [0.4, 0.6, 0.8],
                                 h_text="1 + 0.5*exp(-r)")
        pm = p_matrix(sset)
        v_trace = bargmann_potential(sset, pm)
        hv, hd = sset.h_field.values, sset.h_field.derivs
        v_sum = sset.v0.values.copy()
        for y, seed in zip(transformed_seed_solutions(sset, pm), sset.seeds):
            prod = y.values * seed.phi0.values
            prod_d = y.derivs * seed.phi0.values + y.values * seed.phi0.derivs
            v_sum = v_sum - 2.0 * hv * prod_d - hd * prod
        scale = np.max(np.abs(v_trace.values)) + 1.0
        assert np.max(np.abs(v_trace.values - v_sum)) < 1e-9 * scale


def _sup_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _weighted_set(m, frame):
    """M seeds on a non-constant weight h = 1 + exp(-r), V0 = -exp(-r); each
    C_mu is 0.5 / (M max|K_mu|), which keeps P well conditioned."""
    if frame == "regular":
        g, bc, direction = RadialGrid(0.0, 3.0, 3001), REGULAR_AT_LEFT, Direction.FROM_LEFT
    else:
        g, bc, direction = RadialGrid(0.0, 10.0, 5001), JOST_AT_RIGHT, Direction.FROM_RIGHT
    he = parse("1 + exp(-r)")
    h = field_of("1 + exp(-r)", g)
    v0 = field_of("-exp(-r)", g)
    seeds = []
    for k in range(m):
        gsq = -((1.0 + 0.25 * k) ** 2)
        phi = solve(v0, h, gsq, bc)
        kmax = np.max(np.abs(signed_prefix(h * phi.field * phi.field, direction).values))
        seeds.append(BargmannSeed(gsq, 0.5 / (m * kmax), phi))
    return make_seed_set(seeds, v0, he, direction)


class TestRankOneJacobi:
    """The dot-product form against the dense (n, M, M) trace products."""

    @pytest.mark.parametrize("frame", ["regular", "jost"])
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_matches_dense_reference(self, m, frame):
        sset = _weighted_set(m, frame)
        pm = p_matrix(sset)
        v = bargmann_potential(sset, pm)
        ref = dense_potential(sset, pm)
        assert _sup_rel(v.values, ref.values) < 1e-13
        assert _sup_rel(v.derivs, ref.derivs) < 1e-13
        yv, yd = dense_seed_images(sset, pm)
        assert _sup_rel(pm.images[:, 0].T, yv) < 1e-13
        assert _sup_rel(pm.images_deriv[:, 0].T, yd) < 1e-13


def _seed_sum(a, b):
    """sum_mu a[mu] b[mu] over (M, n) rows, one seed at a time from zero."""
    total = np.zeros(a.shape[1])
    for x, y in zip(a, b):
        total = total + x * y
    return total


class TestSeedSums:
    """Every sum over seeds adds seed by seed from zero, over seed-major rows;
    with one channel every product of the N x N fields is one product."""

    @pytest.mark.parametrize("frame", ["regular", "jost"])
    @pytest.mark.parametrize("m", [3, 8])
    def test_running_sums_pin_the_bits(self, m, frame):
        sset = _weighted_set(m, frame)
        pm = p_matrix(sset)
        n = sset.grid.n
        assert pm.jacobi.shape == (3, m, 1, n)
        assert pm.images.shape == pm.images_deriv.shape == (m, 1, n)
        phi = np.stack([s.phi0.values for s in sset.seeds])
        dphi = np.stack([s.phi0.derivs for s in sset.seeds])
        hf = sset.h_field
        hv, hd = hf.values, hf.derivs
        v0 = sset.v0.values
        gam = np.array([s.gamma_sq for s in sset.seeds])[:, None]
        ddphi = v0 * phi - gam * hv * phi
        assert np.array_equal(np.stack([_ddpsi(sset._seeds, k)[0] for k in range(m)]), ddphi)
        u0, u1, u2 = pm.jacobi[:, :, 0]

        assert np.array_equal(pm.images_deriv[:, 0], u1 - hv * _seed_sum(phi, u0) * u0)

        hdd = sset.h.jet(sset.grid.r, 2)[2]
        g = _seed_sum(u0, phi)
        hg = hv * g
        s10, s01 = _seed_sum(u1, phi), _seed_sum(u0, dphi)
        gd = s10 + s01 - g * hg
        gdd = (
            _seed_sum(u2, phi) + 2.0 * _seed_sum(u1, dphi) + _seed_sum(u0, ddphi)
            - s10 * hg - hg * s01 - hd * (g * g) - gd * hg - hg * gd
        )
        v = bargmann_potential(sset, pm)
        assert np.array_equal(v.values, v0 - 2.0 * hv * gd - hd * g)
        assert np.array_equal(v.derivs, sset.v0.derivs - 3.0 * hd * gd - 2.0 * hv * gdd - hdd * g)

        bc = sset.seeds[0].phi0.bc
        phi0 = solve(sset.v0, hf, -0.3, bc)
        g0, dg0 = (np.broadcast_to(x, (m, 1, 1, n)) for x in (phi0.values, phi0.derivs))
        kv, kd = (k[:, 0] for k in _seed_kernels(sset, g0, dg0))
        yv, yd = pm.images[:, 0], pm.images_deriv[:, 0]
        out = bargmann_solution(sset, pm, phi0)
        assert np.array_equal(out.values, phi0.values - _seed_sum(yv, kv))
        assert np.array_equal(out.derivs, phi0.derivs - _seed_sum(yd, kv) - _seed_sum(yv, kd))


class TestSolutions:
    def test_uncoupled_identity(self, grid01):
        sset = _free_regular_set(grid01, [-1.0, -4.0], [0.0, 0.0])
        pm = p_matrix(sset)
        phi0 = solve(const(grid01, 0.0), field_of("1", grid01), 2.0, REGULAR_AT_LEFT)
        out = bargmann_solution(sset, pm, phi0)
        assert np.array_equal(out.values, phi0.values)
        assert np.array_equal(out.derivs, phi0.derivs)

    def test_single_seed_matches_chain_map(self):
        g = RadialGrid(0.0, 6.0, 6001)
        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        h = field_of("1 + exp(-r)", g)
        seed = solve(v0, h, -1.0, REGULAR_AT_LEFT)
        _, smap = chain_second_step(darboux_transform(seed, he, v0), 0.8, Direction.FROM_LEFT)
        sset = make_seed_set([BargmannSeed(-1.0, 0.8, seed)], v0, he, Direction.FROM_LEFT)
        pm = p_matrix(sset)
        rng = np.random.default_rng(5)
        for gamma_sq in rng.uniform(-3.0, 3.0, 5):
            if abs(gamma_sq + 1.0) < 0.1:
                continue
            phi0 = solve(v0, h, float(gamma_sq), REGULAR_AT_LEFT)
            a = smap(phi0)
            b = bargmann_solution(sset, pm, phi0)
            assert np.max(np.abs(a.values - b.values)) < 1e-8
            assert np.max(np.abs(a.derivs - b.derivs)) < 1e-8

    def test_multi_seed_residuals_regular(self):
        g = RadialGrid(0.0, 6.0, 3001)
        sset = _free_regular_set(g, [-0.25, -0.64, -1.44], [0.4, 0.6, 0.8])
        pm = p_matrix(sset)
        v = bargmann_potential(sset, pm)
        h = sset.h_field
        for y in transformed_seed_solutions(sset, pm):
            assert residual(v, h, y, tol=1e-5).passed
        for gamma_sq in (0.7, 2.0, -0.1):
            phi0 = solve(sset.v0, h, gamma_sq, REGULAR_AT_LEFT)
            out = bargmann_solution(sset, pm, phi0)
            assert residual(v, h, out, tol=1e-5).passed

    def test_seed_image_single_seed_closed_form(self, grid01):
        # one seed: y_1 = C phi / P_11
        sset = _free_regular_set(grid01, [-1.0], [0.7])
        pm = p_matrix(sset)
        y1 = transformed_seed_solutions(sset, pm)[0]
        phi = sset.seeds[0].phi0.values
        expected = 0.7 * phi / p_and_inverse(pm)[0][0, 0]
        assert np.max(np.abs(y1.values - expected)) < 1e-13

    def test_seed_images_linear_in_small_coeff(self, grid01):
        for c in (1e-4, 1e-6):
            sset = _free_regular_set(grid01, [-1.0, -2.25], [c, c])
            pm = p_matrix(sset)
            ys = transformed_seed_solutions(sset, pm)
            for y, seed in zip(ys, sset.seeds):
                lead = c * seed.phi0.values
                assert np.max(np.abs(y.values - lead)) <= 10 * c * np.max(np.abs(lead))

    def test_transform_preserves_regularity(self, grid01):
        sset = _free_regular_set(grid01, [-1.0, -2.25], [0.5, 0.3])
        pm = p_matrix(sset)
        phi0 = solve(const(grid01, 0.0), field_of("1", grid01), 1.3, REGULAR_AT_LEFT)
        out = bargmann_solution(sset, pm, phi0)
        assert out.values[0] == 0.0

    def test_seed_parameter_rejected(self, grid01):
        sset = _free_regular_set(grid01, [-1.0], [0.5])
        pm = p_matrix(sset)
        phi0 = solve(const(grid01, 0.0), field_of("1", grid01), -1.0, CustomBC(1.0, 0.0, "left"))
        with pytest.raises(DuplicateSpectralError):
            bargmann_solution(sset, pm, phi0)

    def test_base_solution_of_the_other_frame_rejected(self):
        # mapped anyway, a regular phi0 against this Jost set misses the
        # transformed equation (residual max_rel 2.4e-4, against 1.2e-7 for
        # the Jost phi0 at the same gamma^2); the same holds the other way round
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        jost = make_seed_set(
            [BargmannSeed(gsq, c, solve(v0, h1, gsq, JOST_AT_RIGHT))
             for gsq, c in [(-1.0, 0.6), (-2.25, 0.9)]],
            v0, parse("1"), Direction.FROM_RIGHT,
        )
        with pytest.raises(DirectionMismatchError):
            bargmann_solution(jost, p_matrix(jost), solve(v0, h1, -0.5, REGULAR_AT_LEFT))
        regular = _free_regular_set(g, [-1.0, -2.25], [0.6, 0.9])
        with pytest.raises(DirectionMismatchError):
            bargmann_solution(regular, p_matrix(regular), solve(v0, h1, -0.5, JOST_AT_RIGHT))


class TestCustomSeedFamily:
    def test_shared_anchor_data_pipeline(self):
        # cosh-type family: value 1, slope 0 at the left endpoint for every
        # gamma^2, so all pairwise Wronskians vanish at the anchor and the
        # prefix-integral kernel is exact
        g = RadialGrid(0.0, 5.0, 5001)
        v0, h1 = unit_problem(g)
        bc = CustomBC(1.0, 0.0, "left")
        seeds = [
            BargmannSeed(gsq, c, solve(v0, h1, gsq, bc))
            for gsq, c in [(-0.5, 0.4), (-1.3, 0.7)]
        ]
        sset = make_seed_set(seeds, v0, parse("1"), Direction.FROM_LEFT)
        pm = p_matrix(sset)
        v = bargmann_potential(sset, pm)
        for y in transformed_seed_solutions(sset, pm):
            assert residual(v, h1, y, tol=1e-5).passed
        phi0 = solve(v0, h1, 0.9, bc)
        out = bargmann_solution(sset, pm, phi0)
        assert residual(v, h1, out, tol=1e-5).passed


class TestJostFrame:
    def test_decaying_seed_pipeline(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        seeds = [
            BargmannSeed(gsq, c, solve(v0, h1, gsq, JOST_AT_RIGHT))
            for gsq, c in [(-1.0, 0.6), (-2.25, 0.9)]
        ]
        sset = make_seed_set(seeds, v0, parse("1"), Direction.FROM_RIGHT)
        # anchored at b up to the finite-interval tail (kappa_mu - kappa_nu) e^{-(kappa_mu + kappa_nu) b}
        pm = p_matrix(sset)
        assert np.max(np.abs(p_and_inverse(pm)[0][..., -1] - np.eye(2))) < 1e-10
        v = bargmann_potential(sset, pm)
        for y in transformed_seed_solutions(sset, pm):
            assert residual(v, h1, y, tol=1e-5).passed
        phi0 = solve(v0, h1, -0.5, JOST_AT_RIGHT)
        out = bargmann_solution(sset, pm, phi0)
        assert residual(v, h1, out, tol=1e-5).passed

    def test_duality_from_right(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        pa = solve(v0, h1, -1.21, JOST_AT_RIGHT)
        pb = solve(v0, h1, -4.0, JOST_AT_RIGHT)
        rep = check_wronskian_integral(pa, pb, h1, Direction.FROM_RIGHT, tol=1e-7)
        assert rep.passed

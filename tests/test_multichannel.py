"""Coupled-channel transform."""

import numpy as np
import pytest

from conftest import const, fd4, field_of
from solvforge import (
    REGULAR_AT_LEFT,
    BargmannSeed,
    ChannelSystem,
    ConfigError,
    CustomBC,
    Direction,
    DuplicateSpectralError,
    NonUniformShiftError,
    RadialGrid,
    Solution,
    bargmann_potential,
    bargmann_solution,
    diagonal_base_system,
    evaluate_on_grid,
    make_seed_set,
    matrix_residual,
    multichannel_potential,
    multichannel_solution,
    p_matrix,
    parse,
    seed_vectors,
    solve,
    transform_denominator,
    transformed_seed_vectors,
)

D_AT_1 = 1.4067151019617546


@pytest.fixture
def two_channel():
    g = RadialGrid(0.0, 5.0, 5001)
    return diagonal_base_system(
        v0_diagonal=["0", "-2/(1+r)^2"],
        h="1 + exp(-r)",
        grid=g,
        gamma_prime_sq=[-1.0, -1.5],
        c=[0.6, 0.4],
    )


def _vector_matrix(cs, fields, gammas):
    return tuple(
        (Solution(gammas[a], fields[a], CustomBC(0.0, 0.0, "left")),)
        for a in range(cs.n_channels)
    )


def test_intermediates_computed_once_per_system(two_channel, monkeypatch):
    import solvforge.multichannel as mc

    calls = {"seed_vectors": 0, "transform_denominator": 0}
    for name in calls:
        orig = getattr(mc, name)

        def counted(cs, orig=orig, name=name):
            calls[name] += 1
            return orig(cs)

        monkeypatch.setattr(mc, name, counted)
    transformed_seed_vectors(two_channel)
    multichannel_potential(two_channel)
    multichannel_solution(two_channel, [0.0, -0.5])
    multichannel_solution(two_channel, [1.5, 1.0], form="wronskian")
    assert calls == {"seed_vectors": 1, "transform_denominator": 1}


class TestSeedVectors:
    def test_zero_coefficients(self):
        g = RadialGrid(0.0, 2.0, 2001)
        cs = diagonal_base_system(["0"], "1", g, [-1.0], [0.0])
        (psi0,) = seed_vectors(cs)
        assert np.all(psi0.values == 0.0)

    def test_single_channel_scaling(self):
        g = RadialGrid(0.0, 2.0, 2001)
        cs = diagonal_base_system(["0"], "1", g, [-1.0], [0.7])
        (psi0,) = seed_vectors(cs)
        assert np.max(np.abs(psi0.values - 0.7 * cs.phi0[0][0].values)) < 1e-14

    def test_satisfy_coupled_system(self, two_channel):
        cs = two_channel
        psi0 = seed_vectors(cs)
        rep = matrix_residual(
            cs.v0, cs.h_field, _vector_matrix(cs, psi0, cs.gamma_prime_sq),
            cs.gamma_prime_sq, tol=1e-6,
        )
        assert rep.passed


class TestDenominator:
    def test_trivial_for_zero_seeds(self):
        g = RadialGrid(0.0, 2.0, 2001)
        cs = diagonal_base_system(["0"], "1", g, [-1.0], [0.0])
        d = transform_denominator(cs)
        assert np.all(d.values == 1.0)
        (psi,) = transformed_seed_vectors(cs)
        assert np.all(psi.values == 0.0)

    def test_single_channel_closed_form(self):
        g = RadialGrid(0.0, 1.0, 1001)
        cs = diagonal_base_system(["0"], "1", g, [-1.0], [1.0])
        d = transform_denominator(cs)
        assert d.values[-1] == pytest.approx(D_AT_1, abs=1e-10)

    def test_monotone_from_left(self, two_channel):
        d = transform_denominator(two_channel)
        assert np.all(np.diff(d.values) >= -1e-15)


class TestPotentialMatrix:
    def test_zero_coefficients_identity(self):
        g = RadialGrid(0.0, 3.0, 3001)
        cs = diagonal_base_system(["exp(-r)", "0"], "1", g, [-1.0, -2.0], [0.0, 0.0])
        v = multichannel_potential(cs)
        for a in range(2):
            for b in range(2):
                assert np.array_equal(v[a][b].values, cs.v0[a][b].values)

    def test_exactly_symmetric(self, two_channel):
        v = multichannel_potential(two_channel)
        defect = np.max(np.abs(v[0][1].values - v[1][0].values))
        assert defect <= 1e-5
        assert defect < 1e-12  # psi is proportional to psi0, so it is exact

    def test_transformed_seeds_solve_new_system(self, two_channel):
        cs = two_channel
        v = multichannel_potential(cs)
        psi = transformed_seed_vectors(cs)
        rep = matrix_residual(
            v, cs.h_field, _vector_matrix(cs, psi, cs.gamma_prime_sq),
            cs.gamma_prime_sq, tol=1e-5,
        )
        assert rep.passed

    def test_derivative_channels_match_finite_differences(self, two_channel):
        cs = two_channel
        v = multichannel_potential(cs)
        step = cs.grid.step
        for a in range(2):
            for b in range(2):
                dev = np.abs(v[a][b].derivs[2:-2] - fd4(v[a][b].values, step))
                assert np.max(dev) < 1e-9

    def test_single_channel_reduces_to_bargmann(self):
        # N = 1 with coefficient c equals the M = 1 transform with C = c^2
        g = RadialGrid(0.0, 4.0, 4001)
        c1 = 0.8
        cs = diagonal_base_system(["0"], "1 + exp(-r)", g, [-1.0], [c1])
        v_mc = multichannel_potential(cs)[0][0]

        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        seed = cs.phi0[0][0]
        sset = make_seed_set([BargmannSeed(-1.0, c1 ** 2, seed)], v0, he, Direction.FROM_LEFT)
        pm = p_matrix(sset)
        v_b = bargmann_potential(sset, pm)
        assert np.max(np.abs(v_mc.values - v_b.values)) < 1e-10

        d = transform_denominator(cs)
        assert np.max(np.abs(d.values - pm.entries[:, 0, 0])) < 1e-12

    def test_asymmetric_base_rejected(self):
        g = RadialGrid(0.0, 2.0, 2001)
        h_expr = parse("1")
        hf = evaluate_on_grid(h_expr, g)
        zero = const(g, 0.0)
        v01 = const(g, 0.5)
        sol = solve(zero, hf, -1.0, REGULAR_AT_LEFT)
        z = Solution(-1.0, const(g, 0.0), CustomBC(0, 0, "left"))
        with pytest.raises(ValueError, match="symmetric"):
            ChannelSystem(
                g, h_expr, hf,
                ((zero, v01), (zero, zero)),
                ((sol, z), (z, sol)),
                (-1.0, -1.0),
                (0.5, 0.5),
            )


class TestSolutionMatrix:
    def test_zero_coefficients_identity(self):
        g = RadialGrid(0.0, 3.0, 3001)
        cs = diagonal_base_system(["0", "0"], "1", g, [-1.0, -2.0], [0.0, 0.0])
        gnew = [0.5, -0.5]
        phi = multichannel_solution(cs, gnew)
        ref = multichannel_solution(cs, gnew)  # deterministic
        for a in range(2):
            for b in range(2):
                assert np.array_equal(phi[a][b].values, ref[a][b].values)
        # against directly solved base
        base = solve(cs.v0[0][0], cs.h_field, 0.5, REGULAR_AT_LEFT)
        assert np.array_equal(phi[0][0].values, base.values)

    def test_residual_at_shifted_spectra(self, two_channel):
        cs = two_channel
        v = multichannel_potential(cs)
        for delta in (1.0, 2.5, -0.5):
            gnew = [gp + delta for gp in cs.gamma_prime_sq]
            phi = multichannel_solution(cs, gnew)
            rep = matrix_residual(v, cs.h_field, phi, gnew, tol=1e-5)
            assert rep.passed, f"delta={delta}"

    def test_forms_agree(self, two_channel):
        cs = two_channel
        gnew = [gp + 1.7 for gp in cs.gamma_prime_sq]
        a = multichannel_solution(cs, gnew, form="integral")
        b = multichannel_solution(cs, gnew, form="wronskian")
        gap = max(
            np.max(np.abs(a[i][j].values - b[i][j].values)) for i in range(2) for j in range(2)
        )
        assert gap < 1e-7

    def test_zero_shift_integral_form(self, two_channel):
        cs = two_channel
        v = multichannel_potential(cs)
        phi = multichannel_solution(cs, list(cs.gamma_prime_sq))
        rep = matrix_residual(v, cs.h_field, phi, cs.gamma_prime_sq, tol=1e-5)
        assert rep.passed

    def test_zero_shift_wronskian_rejected(self, two_channel):
        with pytest.raises(DuplicateSpectralError):
            multichannel_solution(
                two_channel, list(two_channel.gamma_prime_sq), form="wronskian"
            )

    def test_non_uniform_shift_rejected(self, two_channel):
        with pytest.raises(NonUniformShiftError):
            multichannel_solution(two_channel, [0.0, 1.0])

    def test_single_channel_reduces_to_bargmann_map(self):
        g = RadialGrid(0.0, 4.0, 4001)
        c1 = 0.8
        cs = diagonal_base_system(["0"], "1 + exp(-r)", g, [-1.0], [c1])
        gnew = [1.2]
        phi_mc = multichannel_solution(cs, gnew)[0][0]

        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        sset = make_seed_set(
            [BargmannSeed(-1.0, c1 ** 2, cs.phi0[0][0])], v0, he, Direction.FROM_LEFT
        )
        pm = p_matrix(sset)
        phi0 = solve(v0, cs.h_field, 1.2, REGULAR_AT_LEFT)
        phi_b = bargmann_solution(sset, pm, phi0)
        assert np.max(np.abs(phi_mc.values - phi_b.values)) < 1e-10

    def test_jost_frame_pipeline(self):
        # decaying seeds, right-anchored integrals, downshifted evaluation
        g = RadialGrid(0.0, 10.0, 10001)
        cs = diagonal_base_system(
            v0_diagonal=["0", "0.2*exp(-r)"],
            h="1",
            grid=g,
            gamma_prime_sq=[-1.0, -2.25],
            c=[0.5, 0.4],
            direction=Direction.FROM_RIGHT,
        )
        d = transform_denominator(cs)
        assert np.all(d.values > 0)
        v = multichannel_potential(cs)
        assert np.max(np.abs(v[0][1].values - v[1][0].values)) < 1e-12
        gnew = [gp - 0.75 for gp in cs.gamma_prime_sq]
        phi = multichannel_solution(cs, gnew)
        rep = matrix_residual(v, cs.h_field, phi, gnew, tol=1e-5)
        assert rep.passed

    def test_coupled_base_needs_explicit_solutions(self, two_channel):
        cs = two_channel
        # fabricate a coupled system by symmetric off-diagonal entries
        off = field_of("0.1*exp(-r)", cs.grid)
        v0 = ((cs.v0[0][0], off), (off, cs.v0[1][1]))
        coupled = ChannelSystem(
            cs.grid, cs.h, cs.h_field, v0, cs.phi0, cs.gamma_prime_sq, cs.c,
            seed_tol=1.0,  # base matrix no longer solves this V0; skip that gate
        )
        with pytest.raises(ConfigError):
            multichannel_solution(coupled, [gp + 1.0 for gp in cs.gamma_prime_sq])

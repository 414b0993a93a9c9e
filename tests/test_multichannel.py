"""Coupled-channel transform."""

import hashlib
from functools import partial

import numpy as np
import pytest

from conftest import const, fd4
from solvforge import (
    REGULAR_AT_LEFT,
    BargmannSeed,
    ChannelSystem,
    Direction,
    DuplicateSpectralError,
    NonUniformShiftError,
    RadialGrid,
    SampledField,
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


def _channel_potential(cs, a):
    """Diagonal entry (a, a) of the base potential as a scalar field."""
    return SampledField(cs.grid, cs.v0.values[:, a, a], cs.v0.derivs[:, a, a])


def test_two_channel_bits_pinned(two_channel):
    # configs/two_channel.json at its first eval_gammas entry: the exact bits
    # of the potential, seed vectors, D and both solution forms
    cs = two_channel
    gnew = [gp + 1.0 for gp in cs.gamma_prime_sq]
    fields = {
        "potential": multichannel_potential(cs),
        "psi0": seed_vectors(cs),
        "psi": transformed_seed_vectors(cs),
        "D": transform_denominator(cs),
        "integral": multichannel_solution(cs, gnew),
        "wronskian": multichannel_solution(cs, gnew, form="wronskian"),
    }
    digests = {
        name: hashlib.sha256(
            np.ascontiguousarray(f.values).tobytes() + np.ascontiguousarray(f.derivs).tobytes()
        ).hexdigest()
        for name, f in fields.items()
    }
    assert digests == {
        "potential": "1bfc7ba1822bb6d6d385dea936daca67190d07b9cfa46c00b4e2685b01c946c5",
        "psi0": "57f3d082901c298578b0207a95066917bf36ac78ed9cb6489904aceadcc54dbd",
        "psi": "366774bb320de09fcbacaf5e5cfe10ac948c17ef03b7259995a68ce77082aa7a",
        "D": "f1323662e4dcaa8bb78d005a43f677e8d11a3c65b6e810a03347107896886073",
        "integral": "dd6c9b452518e907439f0da1ea1ef419478995db7ef6f021a17198068d08100c",
        "wronskian": "a23789d0bc72bb4c63eac15384af51e752546ee59525ff8086b09bbcadc9a960",
    }


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
        psi0 = seed_vectors(cs)
        assert np.all(psi0.values == 0.0)

    def test_single_channel_scaling(self):
        g = RadialGrid(0.0, 2.0, 2001)
        cs = diagonal_base_system(["0"], "1", g, [-1.0], [0.7])
        psi0 = seed_vectors(cs)
        assert np.max(np.abs(psi0.values[:, 0] - 0.7 * cs.phi0.values[:, 0, 0])) < 1e-14

    def test_satisfy_coupled_system(self, two_channel):
        cs = two_channel
        psi0 = seed_vectors(cs)
        rep = matrix_residual(cs.v0, cs.h_field, psi0, cs.gamma_prime_sq, tol=1e-6)
        assert rep.passed


class TestDenominator:
    def test_trivial_for_zero_seeds(self):
        g = RadialGrid(0.0, 2.0, 2001)
        cs = diagonal_base_system(["0"], "1", g, [-1.0], [0.0])
        d = transform_denominator(cs)
        assert np.all(d.values == 1.0)
        psi = transformed_seed_vectors(cs)
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
        assert np.array_equal(v.values, cs.v0.values)

    def test_exactly_symmetric(self, two_channel):
        v = multichannel_potential(two_channel)
        defect = np.max(np.abs(v.values[:, 0, 1] - v.values[:, 1, 0]))
        assert defect <= 1e-5
        assert defect < 1e-12  # psi is proportional to psi0, so it is exact

    def test_transformed_seeds_solve_new_system(self, two_channel):
        cs = two_channel
        v = multichannel_potential(cs)
        psi = transformed_seed_vectors(cs)
        rep = matrix_residual(v, cs.h_field, psi, cs.gamma_prime_sq, tol=1e-5)
        assert rep.passed

    def test_derivative_channels_match_finite_differences(self, two_channel):
        cs = two_channel
        v = multichannel_potential(cs)
        step = cs.grid.step
        dev = np.abs(v.derivs[2:-2] - fd4(v.values, step))
        assert np.max(dev) < 1e-9

    def test_single_channel_reduces_to_bargmann(self):
        # N = 1 with coefficient c equals the M = 1 transform with C = c^2
        g = RadialGrid(0.0, 4.0, 4001)
        c1 = 0.8
        cs = diagonal_base_system(["0"], "1 + exp(-r)", g, [-1.0], [c1])
        v_mc = multichannel_potential(cs).values[:, 0, 0]

        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        seed = solve(_channel_potential(cs, 0), cs.h_field, -1.0, REGULAR_AT_LEFT)
        sset = make_seed_set([BargmannSeed(-1.0, c1 ** 2, seed)], v0, he, Direction.FROM_LEFT)
        pm = p_matrix(sset)
        v_b = bargmann_potential(sset, pm)
        assert np.max(np.abs(v_mc - v_b.values)) < 1e-10

        d = transform_denominator(cs)
        assert np.max(np.abs(d.values - pm.entries[:, 0, 0])) < 1e-12

    def test_asymmetric_base_rejected(self):
        g = RadialGrid(0.0, 2.0, 2001)
        h_expr = parse("1")
        hf = evaluate_on_grid(h_expr, g)
        zero = const(g, 0.0)
        sol = solve(zero, hf, -1.0, REGULAR_AT_LEFT)
        v0 = np.zeros((g.n, 2, 2))
        v0[:, 0, 1] = 0.5
        phi, dphi = np.zeros((g.n, 2, 2)), np.zeros((g.n, 2, 2))
        for a in range(2):
            phi[:, a, a], dphi[:, a, a] = sol.values, sol.derivs
        with pytest.raises(ValueError, match="symmetric"):
            ChannelSystem(
                g, h_expr, hf,
                SampledField(g, v0, np.zeros((g.n, 2, 2))),
                lambda gamma_sq: SampledField(g, phi, dphi),
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
        assert np.array_equal(phi.values, ref.values)
        # against directly solved base
        base = solve(_channel_potential(cs, 0), cs.h_field, 0.5, REGULAR_AT_LEFT)
        assert np.array_equal(phi.values[:, 0, 0], base.values)

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
        gap = np.max(np.abs(a.values - b.values))
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
        phi_mc = multichannel_solution(cs, gnew).values[:, 0, 0]

        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        sset = make_seed_set(
            [BargmannSeed(-1.0, c1 ** 2, solve(v0, cs.h_field, -1.0, REGULAR_AT_LEFT))],
            v0, he, Direction.FROM_LEFT,
        )
        pm = p_matrix(sset)
        phi0 = solve(v0, cs.h_field, 1.2, REGULAR_AT_LEFT)
        phi_b = bargmann_solution(sset, pm, phi0)
        assert np.max(np.abs(phi_mc - phi_b.values)) < 1e-10

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
        assert np.max(np.abs(v.values[:, 0, 1] - v.values[:, 1, 0])) < 1e-12
        gnew = [gp - 0.75 for gp in cs.gamma_prime_sq]
        phi = multichannel_solution(cs, gnew)
        rep = matrix_residual(v, cs.h_field, phi, gnew, tol=1e-5)
        assert rep.passed


# Two composed steps: step 1 is a diagonal-base system, step 2 takes step 1's
# potential V1 as its base and step 1's solution map as its base solutions.
# V1's off-diagonal entry is not small, so step 2 runs on a coupled base.
# (frame: step 1's base, interval, seeds; step 2's shift of the seed spectra,
# its c; three rigid shifts of step 2's spectra and the shift for the forms)
COMPOSED_FRAMES = {
    "from_left": (
        dict(v0_diagonal=["0", "-2/(1+r)^2"], h="1 + exp(-r)", gamma_prime_sq=[-1.0, -1.5],
             c=[0.6, 0.4], direction=Direction.FROM_LEFT),
        (0.0, 5.0), -0.7, (0.5, 0.3), (1.0, 2.5, -0.5), 1.7,
    ),
    "from_right": (
        dict(v0_diagonal=["0", "0.2*exp(-r)"], h="1", gamma_prime_sq=[-1.0, -2.25],
             c=[0.5, 0.4], direction=Direction.FROM_RIGHT),
        (0.0, 10.0), -0.5, (0.45, 0.35), (-0.3, -0.75, -1.5), -0.75,
    ),
}


@pytest.mark.parametrize("frame, n", [
    ("from_left", 2501), ("from_left", 5001), ("from_left", 10001),
    ("from_right", 5001), ("from_right", 10001), ("from_right", 20001),
])
def test_two_steps_on_a_coupled_base(frame, n):
    step1, (a, b), shift, c2, deltas, forms_delta = COMPOSED_FRAMES[frame]
    cs1 = diagonal_base_system(grid=RadialGrid(a, b, n), **step1)
    v1 = multichannel_potential(cs1)
    assert np.max(np.abs(v1.values[:, 0, 1])) > 1.0
    # the constructor checks step 1's map at the new seed spectra against V1
    cs2 = ChannelSystem(
        cs1.grid, cs1.h, cs1.h_field, v1, partial(multichannel_solution, cs1),
        tuple(gp + shift for gp in cs1.gamma_prime_sq), c2, cs1.direction,
    )
    v2 = multichannel_potential(cs2)
    assert np.max(np.abs(v2.values - v2.values.transpose(0, 2, 1))) < 1e-12
    rep = matrix_residual(v2, cs2.h_field, transformed_seed_vectors(cs2), cs2.gamma_prime_sq,
                          tol=1e-5)
    assert rep.passed
    for delta in deltas:
        gnew = [gp + delta for gp in cs2.gamma_prime_sq]
        rep = matrix_residual(v2, cs2.h_field, multichannel_solution(cs2, gnew), gnew, tol=1e-5)
        assert rep.passed, f"delta={delta}"
    gnew = [gp + forms_delta for gp in cs2.gamma_prime_sq]
    gap = np.max(np.abs(
        multichannel_solution(cs2, gnew).values
        - multichannel_solution(cs2, gnew, form="wronskian").values
    ))
    assert gap < 1e-7

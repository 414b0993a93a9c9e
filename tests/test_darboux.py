"""Single Darboux step and the two-step chain."""

import numpy as np
import pytest

from conftest import const, fd4, field_of, unit_problem
from solvforge import (
    REGULAR_AT_LEFT,
    CustomBC,
    Direction,
    DirectionMismatchError,
    DomainError,
    DuplicateSpectralError,
    RadialGrid,
    SingularPotentialError,
    SingularSeedError,
    Solution,
    chain_second_step,
    darboux_potential,
    darboux_solution,
    darboux_transform,
    evaluate_on_grid,
    parse,
    residual,
    seed_from_expression,
    signed_prefix,
    solve,
    wronskian,
)

P_AT_1 = 1.4067151019617546  # 1 + int_0^1 sinh^2


def call_exp(w: float):
    """Expression exp(w r) built from the public algebra."""
    from solvforge import call

    return call("exp", parse(repr(float(w))) * parse("r"))


@pytest.fixture
def grid10():
    return RadialGrid(0.0, 10.0, 10001)


class TestPotential:
    def test_one_soliton_well(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("cosh(r)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        v = darboux_potential(seed, parse("1"), v0)
        assert np.max(np.abs(v.values + 2.0 / np.cosh(grid10.r) ** 2)) < 1e-6
        assert v.values[0] == pytest.approx(-2.0, abs=1e-12)

    def test_exponential_seed_is_inert(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("exp(r)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        v = darboux_potential(seed, parse("1"), v0)
        assert np.max(np.abs(v.values)) < 1e-12

    def test_quartic_weight_constant_seed(self, grid10):
        v0 = const(grid10, 0.0)
        h4e = parse("(1+r)^4")
        h4 = field_of("(1+r)^4", grid10)
        seed = seed_from_expression("1", grid10, gamma_sq=0.0, V0=v0, h=h4)
        v = darboux_potential(seed, h4e, v0)
        closed = 6.0 / (1.0 + grid10.r) ** 2
        assert np.max(np.abs(v.values - closed)) < 1e-8
        assert v.values[0] == pytest.approx(6.0, abs=1e-12)
        mid = np.argmin(np.abs(grid10.r - 1.0))
        assert v.values[mid] == pytest.approx(1.5, abs=1e-12)

    def test_derivative_channel_matches_finite_difference(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("cosh(r)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        v = darboux_potential(seed, parse("1"), v0)
        assert np.max(np.abs(v.derivs[2:-2] - fd4(v.values, grid10.step))) < 1e-9

    def test_weighted_derivative_channel_matches_finite_difference(self, grid10):
        # a non-constant weight exercises s = 1/sqrt(h) up to its third derivative
        v0 = field_of("-2/(1+r)^2", grid10)
        h = parse("1 + exp(-r)")
        seed = solve(v0, evaluate_on_grid(h, grid10), -2.0, CustomBC(1.0, 0.3, "left"))
        v = darboux_potential(seed, h, v0)
        assert np.max(np.abs(v.derivs[2:-2] - fd4(v.values, grid10.step))) < 1e-8

    def test_transform_samples_the_weight_once(self, grid10, monkeypatch):
        import solvforge.darboux as darboux

        calls = []

        def counting(e, g):
            calls.append(str(e))
            return evaluate_on_grid(e, g)

        monkeypatch.setattr(darboux, "evaluate_on_grid", counting)
        v0 = const(grid10, 0.0)
        h4 = parse("(1+r)^4")
        seed = seed_from_expression("1", grid10, gamma_sq=0.0, V0=v0, h=field_of("(1+r)^4", grid10))
        t = darboux_transform(seed, h4, v0)
        assert calls == [str(h4)]
        assert np.array_equal(t.new_potential.values, darboux_potential(seed, h4, v0).values)

    def test_nonpositive_weight_is_a_domain_error(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("cosh(r)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        with pytest.raises(DomainError) as exc:
            darboux_potential(seed, parse("r - 5"), v0)
        assert exc.value.node == 0

    def test_interior_node_rejected(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("sinh(r - 5)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        with pytest.raises(SingularSeedError):
            darboux_potential(seed, parse("1"), v0)

    def test_near_zero_interior_rejected(self, grid10):
        v0, h1 = unit_problem(grid10)
        vals = np.cosh(grid10.r).copy()
        vals[5000] = 1e-12
        bad = Solution(-1.0, type(v0)(grid10, vals, np.sinh(grid10.r)), CustomBC(1, 0, "left"))
        with pytest.raises(SingularSeedError):
            darboux_potential(bad, parse("1"), v0)

    def test_endpoint_zero_tolerated(self):
        # a regular seed vanishes at the origin; the potential there genuinely
        # diverges (2/sinh^2), so the endpoint entry is an extrapolated filler
        # while interior values must be exact
        g = RadialGrid(0.0, 4.0, 4001)
        v0, h1 = unit_problem(g)
        seed = solve(v0, h1, -1.0, REGULAR_AT_LEFT)  # sinh
        v = darboux_potential(seed, parse("1"), v0)
        interior = slice(500, None)
        expected = 2.0 / np.sinh(g.r[interior]) ** 2
        assert np.max(np.abs(v.values[interior] - expected)) < 1e-8


class TestSolutionMap:
    def test_annihilates_its_seed(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("cosh(r)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        out = darboux_solution(seed, h1, seed)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_closed_form_image(self, grid10):
        v0, h1 = unit_problem(grid10)
        seed = seed_from_expression("cosh(r)", grid10, gamma_sq=-1.0, V0=v0, h=h1)
        phi0 = seed_from_expression("sin(2*r)", grid10, gamma_sq=4.0, V0=v0, h=h1)
        out = darboux_solution(seed, h1, phi0)
        expected = 2.0 * np.cos(2 * grid10.r) - np.tanh(grid10.r) * np.sin(2 * grid10.r)
        assert np.max(np.abs(out.values - expected)) < 1e-12
        assert out.values[0] == pytest.approx(2.0, abs=1e-14)

    def test_numeric_base_passes_residual(self):
        # random smooth positive weights, 5 random gamma^2 in [-4, 4] each
        g = RadialGrid(0.0, 6.0, 6001)
        v0 = const(g, 0.0)
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = float(rng.uniform(-0.6, 0.9))
            w = float(rng.uniform(0.3, 2.0))
            he = 1.0 + a * call_exp(-w)
            h = evaluate_on_grid(he, g)
            seed = solve(v0, h, -2.0, CustomBC(1.0, 0.3, "left"))  # nodeless growing seed
            v = darboux_potential(seed, he, v0)
            for gamma_sq in rng.uniform(-4.0, 4.0, 5):
                phi0 = solve(v0, h, float(gamma_sq), REGULAR_AT_LEFT)
                out = darboux_solution(seed, h, phi0)
                rep = residual(v, h, out, tol=1e-5)
                assert rep.passed, f"h={he}, gamma^2={gamma_sq}: {rep}"

    def test_regular_image_of_regular_base_with_regular_seed(self):
        g = RadialGrid(0.0, 4.0, 4001)
        v0, h1 = unit_problem(g)
        seed = solve(v0, h1, -1.0, REGULAR_AT_LEFT)
        phi0 = solve(v0, h1, 2.0, REGULAR_AT_LEFT)
        out = darboux_solution(seed, h1, phi0)
        assert out.values[0] == 0.0  # 0/0 limit resolves to zero

    def test_wronskian_rate_identity(self):
        # d/dr W{y, phi} = h (g'^2 - g^2) y phi, checked by numerical differentiation
        g = RadialGrid(0.0, 5.0, 5001)
        v0 = field_of("exp(-r)", g)
        h = field_of("1 + exp(-r)", g)
        seed = solve(v0, h, -1.0, CustomBC(1.0, 0.0, "left"))
        phi0 = solve(v0, h, 1.5, REGULAR_AT_LEFT)
        w = wronskian(seed.field, phi0.field).values
        rate = h.values * (-1.0 - 1.5) * seed.values * phi0.values
        fd = np.gradient(w, g.step)
        scale = np.max(np.abs(rate)) + 1.0
        assert np.max(np.abs(fd[2:-2] - rate[2:-2])) / scale < 1e-4


class TestChain:
    def _setup(self, c=1.0):
        g = RadialGrid(0.0, 6.0, 6001)
        v0 = const(g, 0.0)
        he = parse("1 + exp(-r)")
        h = field_of("1 + exp(-r)", g)
        seed = solve(v0, h, -1.0, REGULAR_AT_LEFT)
        first = darboux_transform(seed, he, v0)
        return g, v0, he, h, seed, first, chain_second_step(first, c, Direction.FROM_LEFT)

    def test_identity_at_zero_coupling(self):
        g, v0, he, h, seed, first, (v2, smap) = self._setup(c=0.0)
        assert np.array_equal(v2.values, v0.values)
        phi0 = solve(v0, h, 1.0, REGULAR_AT_LEFT)
        out = smap(phi0)
        assert np.array_equal(out.values, phi0.values)
        assert np.array_equal(out.derivs, phi0.derivs)

    def test_prefix_factor_closed_form(self):
        # free case: P(1) = 1 + int_0^1 sinh^2
        g = RadialGrid(0.0, 1.0, 1001)
        v0, h1 = unit_problem(g)
        seed = solve(v0, h1, -1.0, REGULAR_AT_LEFT)
        p = 1.0 + signed_prefix(h1 * seed.field * seed.field, Direction.FROM_LEFT).values
        assert p[-1] == pytest.approx(P_AT_1, abs=1e-10)

    def test_chained_solution_passes_residual(self):
        g, v0, he, h, seed, first, (v2, smap) = self._setup(c=0.8)
        for gamma_sq in (0.7, 2.4, -0.3):
            phi0 = solve(v0, h, gamma_sq, REGULAR_AT_LEFT)
            rep = residual(v2, h, smap(phi0), tol=1e-5)
            assert rep.passed

    def test_chain_preserves_regularity(self):
        g, v0, he, h, seed, first, (v2, smap) = self._setup(c=0.8)
        out = smap(solve(v0, h, 1.0, REGULAR_AT_LEFT))
        assert out.values[0] == 0.0

    def test_chain_potential_derivative_channel(self):
        g, v0, he, h, seed, first, (v2, smap) = self._setup(c=0.8)
        assert np.max(np.abs(v2.derivs[2:-2] - fd4(v2.values, g.step))) < 1e-9

    def test_chain_map_derivative_channel(self):
        g, v0, he, h, seed, first, (v2, smap) = self._setup(c=0.8)
        out = smap(solve(v0, h, 1.7, REGULAR_AT_LEFT))
        assert np.max(np.abs(out.derivs[2:-2] - fd4(out.values, g.step))) < 1e-9

    def test_too_negative_coupling_is_singular(self):
        g = RadialGrid(0.0, 2.0, 2001)
        v0, h1 = unit_problem(g)
        seed = solve(v0, h1, -1.0, REGULAR_AT_LEFT)
        first = darboux_transform(seed, parse("1"), v0)
        with pytest.raises(SingularPotentialError):
            chain_second_step(first, -10.0, Direction.FROM_LEFT)

    def test_direction_must_match_seed_class(self):
        g = RadialGrid(0.0, 2.0, 2001)
        v0, h1 = unit_problem(g)
        seed = solve(v0, h1, -1.0, REGULAR_AT_LEFT)
        first = darboux_transform(seed, parse("1"), v0)
        with pytest.raises(DirectionMismatchError):
            chain_second_step(first, 1.0, Direction.FROM_RIGHT)

    def test_map_rejects_seed_parameter(self):
        g, v0, he, h, seed, first, (v2, smap) = self._setup(c=0.5)
        phi0 = solve(v0, h, -1.0, CustomBC(1.0, 0.0, "left"))
        with pytest.raises(DuplicateSpectralError):
            smap(phi0)

    def test_transform_apply_delegates(self):
        g, v0, he, h, seed, first, _ = self._setup(c=0.5)
        phi0 = solve(v0, h, 1.3, REGULAR_AT_LEFT)
        via_method = first.apply(phi0)
        direct = darboux_solution(seed, h, phi0)
        assert np.array_equal(via_method.values, direct.values)

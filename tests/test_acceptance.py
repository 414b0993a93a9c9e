"""Acceptance suite.

One test per criterion; each prints a single pass/fail line with the
measured numbers (run with -s, or see captured output in verbose reports).
Grids are stated per criterion; where a criterion does not pin the interval
the choice is documented inline.
"""

import time

import numpy as np

from bargmann_dense_reference import p_and_inverse
from conftest import const, field_of, unit_problem
from solvforge import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    BargmannSeed,
    Direction,
    DomainError,
    RadialGrid,
    bargmann_potential,
    bargmann_solution,
    chain_second_step,
    call,
    check_wronskian_integral,
    darboux_potential,
    darboux_solution,
    darboux_transform,
    diagonal_base_system,
    make_seed_set,
    matrix_residual,
    multichannel_potential,
    multichannel_solution,
    p_matrix,
    parse,
    residual,
    seed_from_expression,
    solve,
    transformed_seed_solutions,
)


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_c1_classical_reduction():
    """Flat weight, cosh seed: the one-soliton well to 1e-6, under a second."""
    t0 = time.perf_counter()
    g = RadialGrid(0.0, 10.0, 10001)
    v0, h1 = unit_problem(g)
    seed = seed_from_expression("cosh(r)", g, gamma_sq=-1.0, V0=v0, h=h1)
    v = darboux_potential(seed, parse("1"), v0)
    sup = float(np.max(np.abs(v.values + 2.0 / np.cosh(g.r) ** 2)))
    elapsed = time.perf_counter() - t0
    _report(
        "C1 classical-reduction",
        sup <= 1e-6 and elapsed < 1.0,
        f"sup|V + 2 sech^2| = {sup:.3e} (tol 1e-6), runtime {elapsed:.2f}s (< 1 s)",
    )


def test_c2_generalized_darboux_residual():
    """Quartic weight, constant seed: V = 6/(1+r)^2 and five transformed solutions.

    Interval [0, 3]: at gamma^2 = 4 the local wavenumber reaches 2 (1+r)^2 = 32,
    which keeps the fourth-order residual stencil well inside the tolerance;
    step stays at 1e-3.
    """
    g = RadialGrid(0.0, 3.0, 3001)
    v0 = const(g, 0.0)
    h_expr = parse("(1+r)^4")
    h = field_of("(1+r)^4", g)
    seed = seed_from_expression("1", g, gamma_sq=0.0, V0=v0, h=h)
    v = darboux_potential(seed, h_expr, v0)
    sup_v = float(np.max(np.abs(v.values - 6.0 / (1.0 + g.r) ** 2)))
    worst = 0.0
    for gamma_sq in (0.25, 1.0, 2.25, 4.0, -1.0):
        phi0 = solve(v0, h, gamma_sq, REGULAR_AT_LEFT)
        out = darboux_solution(seed, h, phi0)
        worst = max(worst, residual(v, h, out, tol=1e-5).max_rel)
    _report(
        "C2 generalized-darboux",
        sup_v <= 1e-8 and worst <= 1e-5,
        f"sup|V - 6/(1+r)^2| = {sup_v:.3e} (tol 1e-8), "
        f"worst residual over 5 gamma^2 = {worst:.3e} (tol 1e-5)",
    )


def test_c3_wronskian_integral_duality():
    """W{phi_mu, phi} = (gamma_mu^2 - gamma^2) * prefix integral, both directions.

    The from-left ensemble draws oscillatory (positive gamma^2) regular pairs,
    which keep the Wronskian O(1) so the node-wise bound is meaningful;
    exponentially growing pairs would inflate |W| to 1e8 and turn the absolute
    defect into a pure scale artifact.  The decaying negative-energy side is
    exercised by the from-right case.
    """
    g = RadialGrid(0.0, 10.0, 10001)
    rng = np.random.default_rng(31)
    worst_left = 0.0
    for _ in range(10):
        a, b = rng.uniform(-0.4, 0.7, 2)
        v0 = a * field_of("exp(-r)", g)
        h = 1.0 + b * field_of("exp(-r)", g)
        ga, gb = rng.uniform(0.3, 3.0, 2)
        while abs(ga - gb) < 0.2:
            gb = float(rng.uniform(0.3, 3.0))
        pa = solve(v0, h, float(ga), REGULAR_AT_LEFT)
        pb = solve(v0, h, float(gb), REGULAR_AT_LEFT)
        rep = check_wronskian_integral(pa, pb, h, Direction.FROM_LEFT, tol=1e-7)
        worst_left = max(worst_left, rep.max_abs)
    # decaying pair, anchored at the right endpoint
    v0 = 0.3 * field_of("exp(-r)", g)
    h1 = field_of("1", g)
    pa = solve(v0, h1, -1.21, JOST_AT_RIGHT)
    pb = solve(v0, h1, -4.0, JOST_AT_RIGHT)
    rep = check_wronskian_integral(pa, pb, h1, Direction.FROM_RIGHT, tol=1e-7)
    _report(
        "C3 wronskian-duality",
        worst_left <= 1e-7 and rep.max_abs <= 1e-7,
        f"worst from-left defect over 10 pairs = {worst_left:.3e}, "
        f"from-right decaying defect = {rep.max_abs:.3e} (tol 1e-7)",
    )


def test_c4_superposition_equivalence():
    """Single-seed transform: chained two-step route vs P-matrix route."""
    g = RadialGrid(0.0, 6.0, 6001)
    v0 = const(g, 0.0)
    h_expr = parse("1 + exp(-r)")
    h = field_of("1 + exp(-r)", g)
    seed = solve(v0, h, -1.0, REGULAR_AT_LEFT)
    v_chain, smap = chain_second_step(darboux_transform(seed, h_expr, v0), 0.8, Direction.FROM_LEFT)
    sset = make_seed_set([BargmannSeed(-1.0, 0.8, seed)], v0, h_expr, Direction.FROM_LEFT)
    pm = p_matrix(sset)
    v_sup = float(np.max(np.abs(v_chain.values - bargmann_potential(sset, pm).values)))
    rng = np.random.default_rng(41)
    map_sup = 0.0
    count = 0
    while count < 5:
        gamma_sq = float(rng.uniform(-2.0, 4.0))
        if abs(gamma_sq + 1.0) < 0.2:
            continue
        count += 1
        phi0 = solve(v0, h, gamma_sq, REGULAR_AT_LEFT)
        a = smap(phi0)
        b = bargmann_solution(sset, pm, phi0)
        map_sup = max(map_sup, float(np.max(np.abs(a.values - b.values))))
    _report(
        "C4 superposition",
        v_sup <= 1e-6 and map_sup <= 1e-8,
        f"potential supnorm = {v_sup:.3e} (tol 1e-6), "
        f"solution-map supnorm over 5 gamma^2 = {map_sup:.3e} (tol 1e-8)",
    )


def test_c5_identity_limit():
    """All coupling constants zero: transform is the identity, P is the identity."""
    g = RadialGrid(0.0, 5.0, 5001)
    v0 = field_of("exp(-r)", g)
    h_expr = parse("1 + 0.5*exp(-r)")
    h = field_of("1 + 0.5*exp(-r)", g)
    seeds = [
        BargmannSeed(gsq, 0.0, solve(v0, h, gsq, REGULAR_AT_LEFT)) for gsq in (-1.0, -2.25)
    ]
    sset = make_seed_set(seeds, v0, h_expr, Direction.FROM_LEFT)
    pm = p_matrix(sset)
    p_dev = float(np.max(np.abs(p_and_inverse(pm)[0] - np.eye(2)[:, :, None])))
    v = bargmann_potential(sset, pm)
    v_dev = float(np.max(np.abs(v.values - v0.values)))
    phi0 = solve(v0, h, 1.3, REGULAR_AT_LEFT)
    out = bargmann_solution(sset, pm, phi0)
    s_dev = float(np.max(np.abs(out.values - phi0.values)))
    _report(
        "C5 identity-limit",
        p_dev == 0.0 and v_dev <= 1e-12 and s_dev <= 1e-12,
        f"|P - I| = {p_dev:.1e}, |V - V0| = {v_dev:.1e}, |phi - phi0| = {s_dev:.1e} (tol 1e-12)",
    )


def test_c6_multi_seed_bargmann():
    """Three bound-type seeds with random couplings on the stock grid.

    Negative-energy seed sets live naturally in the decaying (Jost) frame with
    from-right anchoring; the growing regular frame at this interval length is
    intrinsically ill-conditioned in double precision (P entries reach 1e30).
    """
    g = RadialGrid(0.0, 10.0, 10001)
    v0, h1 = unit_problem(g)
    rng = np.random.default_rng(61)
    seeds = [
        BargmannSeed(gsq, float(rng.uniform(0.1, 1.0)), solve(v0, h1, gsq, JOST_AT_RIGHT))
        for gsq in (-1.0, -2.25, -4.0)
    ]
    sset = make_seed_set(seeds, v0, parse("1"), Direction.FROM_RIGHT)
    pm = p_matrix(sset)
    signs_constant = bool(np.all(np.sign(pm.det) == np.sign(pm.det[0])))
    v = bargmann_potential(sset, pm)
    worst = 0.0
    for y in transformed_seed_solutions(sset, pm):
        worst = max(worst, residual(v, h1, y, tol=1e-5).max_rel)
    for gamma_sq in (-0.4, -1.69, -3.0, -5.5):
        phi0 = solve(v0, h1, gamma_sq, JOST_AT_RIGHT)
        out = bargmann_solution(sset, pm, phi0)
        worst = max(worst, residual(v, h1, out, tol=1e-5).max_rel)
    _report(
        "C6 multi-seed-bargmann",
        signs_constant and worst <= 1e-5,
        f"det sign constant = {signs_constant}, worst residual (3 seed images + "
        f"4 transformed) = {worst:.3e} (tol 1e-5)",
    )


def test_c7_multichannel():
    """Two coupled channels with a diagonal base and a nontrivial weight."""
    g = RadialGrid(0.0, 5.0, 5001)
    cs = diagonal_base_system(
        v0_diagonal=["0", "-2/(1+r)^2"],
        h="1 + exp(-r)",
        grid=g,
        gamma_prime_sq=[-1.0, -1.5],
        c=[0.6, 0.4],
    )
    v = multichannel_potential(cs)
    sym = float(np.max(np.abs(v.values - v.values.swapaxes(0, 1))))
    worst = 0.0
    forms = 0.0
    for delta in (1.0, 2.5, -0.5):
        gnew = [gp + delta for gp in cs.gamma_prime_sq]
        phi = multichannel_solution(cs, gnew)
        worst = max(worst, matrix_residual(v, cs.h_field, phi, gnew, tol=1e-5).max_rel)
        phi_w = multichannel_solution(cs, gnew, form="wronskian")
        forms = max(forms, float(np.max(np.abs(phi.values - phi_w.values))))

    # single-channel reduction: N = 1 with coefficient c matches M = 1 with C = c^2
    g1 = RadialGrid(0.0, 4.0, 4001)
    c1 = 0.8
    cs1 = diagonal_base_system(["0"], "1 + exp(-r)", g1, [-1.0], [c1])
    v_mc = multichannel_potential(cs1).values[0, 0]
    sset = make_seed_set(
        [BargmannSeed(-1.0, c1 ** 2, solve(const(g1, 0.0), cs1.h_field, -1.0, REGULAR_AT_LEFT))],
        const(g1, 0.0),
        parse("1 + exp(-r)"),
        Direction.FROM_LEFT,
    )
    pm = p_matrix(sset)
    reduction = float(np.max(np.abs(v_mc - bargmann_potential(sset, pm).values)))
    phi_mc = multichannel_solution(cs1, [1.2]).values[0, 0]
    phi_b = bargmann_solution(sset, pm, solve(const(g1, 0.0), cs1.h_field, 1.2, REGULAR_AT_LEFT))
    reduction = max(reduction, float(np.max(np.abs(phi_mc - phi_b.values))))

    _report(
        "C7 multichannel",
        worst <= 1e-5 and forms <= 1e-7 and reduction <= 1e-10 and sym <= 1e-5,
        f"matrix residual = {worst:.3e} (tol 1e-5), forms gap = {forms:.3e} (tol 1e-7), "
        f"N=1 reduction = {reduction:.3e} (tol 1e-10), symmetry defect = {sym:.3e} (tol 1e-5)",
    )


FUNC_NAMES = ["exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sech", "sqrt"]


def _random_expression(rng, depth):
    if depth == 0 or rng.uniform() < 0.28:
        if rng.uniform() < 0.5:
            return parse("r")
        return parse(repr(float(rng.uniform(-2.5, 2.5))))
    kind = rng.integers(0, 6)
    a = _random_expression(rng, depth - 1)
    if kind <= 2:
        b = _random_expression(rng, depth - 1)
        return (a + b, a - b, a * b)[kind]
    if kind == 3:
        b = _random_expression(rng, depth - 1)
        return a / b
    if kind == 4:
        return a ** float(rng.integers(-2, 4))
    return call(str(rng.choice(FUNC_NAMES)), a)


def test_c8_expression_engine():
    """50 random expressions, 100 random points: symbolic vs finite differences."""
    rng = np.random.default_rng(81)
    pts = rng.uniform(0.25, 2.75, 100)
    step = 1e-5
    accepted = 0
    tried = 0
    worst = 0.0
    while accepted < 50:
        tried += 1
        assert tried < 5000, "expression generator starved"
        e = _random_expression(rng, 3)
        d = e.derivative()
        try:
            f_lo = e.evaluate(pts - step)
            f_hi = e.evaluate(pts + step)
            sym = d.evaluate(pts)
            third = d.derivative().derivative().evaluate(pts)
        except DomainError:
            continue
        # keep |f| bounded too: the oracle's cancellation error is eps |f| / step
        if np.max(np.abs(f_hi)) > 1e3 or np.max(np.abs(sym)) > 1e3 or np.max(np.abs(third)) > 1e4:
            continue
        accepted += 1
        fd = (f_hi - f_lo) / (2 * step)
        rel = np.max(np.abs(sym - fd) / (1.0 + np.abs(sym)))
        worst = max(worst, float(rel))
    _report(
        "C8 expression-engine",
        worst <= 1e-6,
        f"worst relative deviation over 50 expressions x 100 points = {worst:.3e} (tol 1e-6)",
    )


def test_c9_solver_order():
    """Halving the step cuts the free-oscillator error by at least 11x."""
    errs = []
    for n in (101, 201):
        g = RadialGrid(0.0, np.pi, n)
        v0, h1 = unit_problem(g)
        sol = solve(v0, h1, 1.0, REGULAR_AT_LEFT)
        errs.append(float(np.max(np.abs(sol.values - np.sin(g.r)))))
    factor = errs[0] / errs[1]
    _report(
        "C9 solver-order",
        factor >= 11.0,
        f"error ratio on halving = {factor:.2f} (need >= 11, nominal 16)",
    )

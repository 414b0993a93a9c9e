"""Benchmark the layers of the M-seed Bargmann transform.

Builds M = 1, 2, 4, 8 decaying (Jost-type) seeds of the free problem on
[0, 16] with n = 32001 nodes, then times `p_matrix`, `bargmann_potential`,
`transformed_seed_solutions` and one `bargmann_solution` at each M and
prints the best time of each.  Usage:

    python benchmarks/bench_bargmann.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import timeit

import numpy as np

import solvforge as sf

N = 32001
B = 16.0
SEED_COUNTS = (1, 2, 4, 8)


def _seed_set(m: int, v0, h, h_expr):
    kappa = 1.0 + 0.25 * np.arange(m) + 0.05
    seeds = [
        sf.BargmannSeed(-k * k, 0.6 * 2.0 * k / m, sf.solve(v0, h, -k * k, sf.JOST_AT_RIGHT))
        for k in kappa
    ]
    return sf.make_seed_set(seeds, v0, h_expr, sf.Direction.FROM_RIGHT)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    grid = sf.RadialGrid(0.0, B, N)
    h_expr = sf.parse("1")
    h = sf.evaluate_on_grid(h_expr, grid)
    v0 = sf.evaluate_on_grid(sf.parse("0"), grid)
    phi0 = sf.solve(v0, h, -0.5, sf.JOST_AT_RIGHT)

    def best(fn) -> float:
        return min(timeit.repeat(fn, number=1, repeat=args.repeats)) * 1e3

    print(f"n = {N}, best of {args.repeats}, ms")
    print(f"{'M':>3}  {'p_matrix':>9}  {'potential':>9}  {'images':>9}  {'one map':>9}")
    for m in SEED_COUNTS:
        sset = _seed_set(m, v0, h, h_expr)
        pm = sf.p_matrix(sset)
        row = [
            best(lambda: sf.p_matrix(sset)),
            best(lambda: sf.bargmann_potential(sset, pm)),
            best(lambda: sf.transformed_seed_solutions(sset, pm)),
            best(lambda: sf.bargmann_solution(sset, pm, phi0)),
        ]
        print(f"{m:>3}  " + "  ".join(f"{t:>9.2f}" for t in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

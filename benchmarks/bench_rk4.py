"""Benchmark the RK4 propagation kernel.

Times `solvforge._kernels.rk4_propagate` (the blocked transfer-matrix scan,
one call per solve) on a fixed profile and prints the best time and ns per
step at each size.  Usage:

    python benchmarks/bench_rk4.py [--sizes 10001,100001] [--repeats 7]
"""

from __future__ import annotations

import argparse
import timeit

import numpy as np

from solvforge._kernels import _block_length, rk4_propagate


def _inputs(n: int):
    r = np.linspace(0.0, 10.0, n)
    step = r[1] - r[0]
    # representative profile: shallow well plus oscillatory spectral term
    q = -2.0 / np.cosh(r) ** 2 - 2.5
    qd = 4.0 * np.tanh(r) / np.cosh(r) ** 2
    qm = 0.5 * (q[:-1] + q[1:]) + (step / 8.0) * (qd[:-1] - qd[1:])
    return q, qm, float(step)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10001,100001",
                    help="comma-separated node counts")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'nodes':>8}  {'block':>5}  {'best':>12}  {'per step':>10}")
    for n in sizes:
        q, qm, step = _inputs(n)
        t = min(timeit.repeat(lambda: rk4_propagate(q, qm, step, 0.0, 1.0),
                              number=1, repeat=args.repeats))
        print(f"{n:>8}  {_block_length(n - 1):>5}  {t * 1e3:>9.3f} ms"
              f"  {t / (n - 1) * 1e9:>7.1f} ns")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

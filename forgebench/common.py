"""Shared by the orchestrator and the workload process: metric names and
units, the shipped configs, the tail-percentile rule, digests and the speed
calibration that timings are scaled by."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time

SHIPPED_CONFIGS = (
    "chain_vs_single_seed",
    "one_soliton_well",
    "quartic_weight",
    "three_bound_states",
    "two_channel",
)

#: end-to-end metrics (untraced run): name -> unit
END_TO_END = {
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "solutions_per_s": "1/s",
    "worst_residual_rel": "ratio",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verify_p50_ms": "ms",
    "cold_pass_ms": "ms",
}

#: per-layer metrics (traced run): name -> unit
PER_LAYER = {
    "cli.run.self_ms": "ms",
    "cli.run.bytes_written": "B",
    "cli.verify.self_ms": "ms",
    "cli.verify.bytes_read": "B",
    "kernel.calls": "count",
    "kernel.steps": "count",
    "kernel.self_ms": "ms",
    "kernel.ns_per_step": "ns",
    "kernel.bytes_computed": "B",
    "kernel.ns_per_step.n10001": "ns",
    "kernel.ns_per_step.n100001": "ns",
    "solver.solve.calls": "count",
    "solver.self_ms": "ms",
    "bargmann.p_matrix.self_ms": "ms",
    "bargmann.potential.self_ms": "ms",
    "bargmann.maps.self_ms": "ms",
    "bargmann.seed_set.self_ms": "ms",
    "bargmann.calls": "count",
    "multichannel.self_ms": "ms",
    "multichannel.seed_vectors.calls": "count",
    "multichannel.transform_denominator.calls": "count",
    "darboux.calls": "count",
    "darboux.self_ms": "ms",
    "verify.calls": "count",
    "verify.self_ms": "ms",
    "verify.checks_failed": "count",
    "verify.pass_ratio": "ratio",
    "expr.calls": "count",
    "expr.self_ms": "ms",
    "grid.calls": "count",
    "grid.self_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10

#: RK4 state moved per step: (phi, phi') written plus q, q_mid read, 8 B each
KERNEL_BYTES_PER_STEP = 32


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """Highest whole percentile with at least `beyond` samples above its value.

    Uses the nearest-rank percentile.  Returns (percentile, value, samples
    above it); raises ValueError when there are too few samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    for p in range(99, -1, -1):
        value = xs[max(1, math.ceil(p * n / 100)) - 1]
        above = n - sum(1 for x in xs if x <= value)
        if above >= beyond:
            return p, value, above
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    """The final stdout line: exactly correct, attempted, failed and metrics."""
    if set(values) != set(units):
        raise ValueError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    })


def file_digests(path: str) -> dict:
    """SHA-256 of every file in `path`, by name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest_dir(path: str) -> str:
    """One SHA-256 over the names and digests of every file in `path`."""
    return hashlib.sha256(json.dumps(file_digests(path)).encode()).hexdigest()


#: calibration time that scaled timings are expressed against, ms
REF_CALIBRATION_MS = 6.0


_CAL_STATE: dict = {}


def _reference_work() -> float:
    """Fixed mix of the program's kinds of work, none of it the program's:
    an RK4-like scalar loop over Python lists too large for L2, numpy passes
    over 8 MB, float formatting and parsing (CSV).  Buffers are allocated
    once, so the timing does not depend on what the measured work left in
    the allocator; the loop walks on through the lists from call to call."""
    import numpy as np

    st = _CAL_STATE
    if not st:
        st["a"] = np.linspace(0.0, 1.0, 1 << 20)
        st["b"] = np.empty(1 << 20)
        st["q"] = np.linspace(-1.0, 1.0, 1 << 17).tolist()
        st["out"] = np.empty(1 << 17)
        st["pos"] = 0
    a, b, q, out = st["a"], st["b"], st["q"], st["out"]
    start = st["pos"]
    st["pos"] = (start + 8192) % (len(q) - 8193)
    p, d, h = 1.0, 0.0, 1e-3
    for i in range(start, start + 8192):
        k1 = q[i] * p
        k2 = q[i + 1] * (p + h * d)
        p = p + h * (d + 0.5 * h * k1)
        d = d + 0.5 * h * (k1 + k2)
        out[i] = p
    np.sqrt(a, out=b)
    np.multiply(b, 1.5, out=b)
    np.add(b, a, out=b)
    text = ",".join(f"{v:.17g}" for v in b[:3000].tolist())
    parsed = sum(float(t) for t in text.split(",")[:1500])
    return p + d + parsed + float(b[-1])


def speed_scale(repeats: int = 5) -> float:
    """Factor that maps a time measured right after this call to reference
    speed: REF_CALIBRATION_MS over the median time of the reference work.

    On a shared host, other tenants slow a small VM by tens of percent for
    stretches of seconds to minutes (on a 2-vCPU VM, the medians of a fixed
    loop over 25-s windows differed by up to 45%); a timing scaled by the
    calibration just before it varies several times less from run to run
    than the raw one.
    """
    if not _CAL_STATE:
        _reference_work()  # imports numpy and allocates, untimed
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _reference_work()
        samples.append(time.perf_counter_ns() - t0)
    return REF_CALIBRATION_MS * 1e6 / statistics.median(samples)

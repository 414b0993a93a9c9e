"""Workload process: set up, run one closed loop, report raw measurements.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints ``READY`` as soon as it could start its first job (interpreter start,
``import solvforge`` and input generation are done), then one JSON line with
the raw measurements.  One client: the next job starts only when the previous
one has completed.

With ``--setup-only`` it exits at ``READY``.  With ``--rss-probe`` it runs
job 0 once after ``READY``, untimed and without the speed calibration (whose
buffers would count in ``ru_maxrss``), and reports the process's peak RSS and
the job's failures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import common
import spans

ROOT = Path(__file__).resolve().parent.parent

# jobs every run completes, however slow: with 21 samples the tail
# percentile (ten samples beyond it) is no lower than the median
MIN_JOBS = 21
# repeats of the traced kernel probe, by node count
KERNEL_PROBES = {10001: 7, 100001: 5}
# spans (or layers) reported by self time, and by number of calls
SELF_MS = ("cli.run", "cli.verify", "kernel", "solver", "bargmann.p_matrix",
           "bargmann.potential", "bargmann.maps", "bargmann.seed_set", "multichannel",
           "darboux", "verify", "expr", "grid")
CALLS = ("kernel", "solver.solve", "bargmann", "multichannel.seed_vectors",
         "multichannel.transform_denominator", "darboux", "verify", "expr", "grid")


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def kernel_probe(n: int, repeats: int) -> float:
    """Median ns per RK4 step of the selected kernel on a fixed profile,
    at reference speed."""
    import numpy as np

    kernels = importlib.import_module("solvforge._kernels")
    r = np.linspace(0.0, 10.0, n)
    step = float(r[1] - r[0])
    q = -2.0 / np.cosh(r) ** 2 - 2.5
    qd = 4.0 * np.tanh(r) / np.cosh(r) ** 2
    qm = 0.5 * (q[:-1] + q[1:]) + (step / 8.0) * (qd[:-1] - qd[1:])
    times = []
    for _ in range(repeats):
        scale = common.speed_scale()
        t0 = time.perf_counter_ns()
        kernels.rk4_propagate(q, qm, step, 0.0, 1.0)
        times.append((time.perf_counter_ns() - t0) * scale)
    return statistics.median(times) / (n - 1)


def layer_metrics(rec, jobs, workload) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced jobs, times at reference
    speed) and each layer's share of the traced job time."""
    per_job = defaultdict(lambda: defaultdict(float))
    run_totals = defaultdict(float)
    for sp, self_ns in zip(rec.spans, spans.self_times(rec.spans)):
        name, t0, t1, _parent, job, count = sp
        d = per_job[job]
        for key in {name, spans.layer_of(name)}:
            d[key + ".self_ns"] += self_ns
            d[key + ".calls"] += 1
        d[name + ".count"] += count
        run_totals[name + ".calls"] += 1
        run_totals[name + ".count"] += count
        if name == "job":
            d["job.ns"] += t1 - t0

    missing = [s for s in workload.expected_spans if run_totals[s + ".calls"] == 0]
    if missing:
        raise RuntimeError(f"expected spans recorded no calls: {missing}")

    traced = [j for j in jobs if j["traced"]]
    by_job = {j["index"]: j for j in traced}

    def med(fn):
        return statistics.median(fn(per_job[k], by_job[k]) for k in by_job)

    checks = [f"verify.{n}" for n in ("residual", "matrix_residual", "wronskian_integral")]
    verify_calls = sum(run_totals[c + ".calls"] for c in checks)
    verify_failed = sum(run_totals[c + ".count"] for c in checks)
    untraced = [j["ns"] * j["scale"] for j in jobs if not j["traced"] and j["ok"]]
    traced_ns = [j["ns"] * j["scale"] for j in traced if j["ok"]]
    out = {f"{key}.self_ms": med(lambda d, j, key=key: d[key + ".self_ns"] / 1e6 * j["scale"])
           for key in SELF_MS}
    out.update({f"{key}.calls": med(lambda d, j, key=key: d[key + ".calls"]) for key in CALLS})
    steps = "kernel.rk4_propagate.count"
    out.update({
        "cli.run.bytes_written": med(lambda d, j: j["bytes_written"]),
        "cli.verify.bytes_read": med(lambda d, j: j["bytes_read"]),
        "kernel.steps": med(lambda d, j: d[steps]),
        "kernel.ns_per_step": med(lambda d, j: d["kernel.self_ns"] * j["scale"] / max(1.0, d[steps])),
        "kernel.bytes_computed": med(lambda d, j: common.KERNEL_BYTES_PER_STEP * d[steps]),
        "verify.checks_failed": verify_failed,
        "verify.pass_ratio": (verify_calls - verify_failed) / verify_calls if verify_calls else 1.0,
        "trace.overhead_ms": (statistics.median(traced_ns) - statistics.median(untraced)) / 1e6,
    })
    for n, repeats in KERNEL_PROBES.items():
        out[f"kernel.ns_per_step.n{n}"] = kernel_probe(n, repeats)

    layers = ("cli", "expr", "grid", "solver", "kernel", "darboux", "bargmann",
              "multichannel", "verify", "job")
    total = sum(per_job[k]["job.ns"] for k in by_job)
    shares = {layer: sum(per_job[k][layer + ".self_ns"] for k in by_job) / total
              for layer in layers}
    return out, shares


def run_job(workload, job, traced, rec, clock):
    """Time one job, check it outside the timed region; never raises."""
    from workloads import JobResult

    call = rec.call if traced else plain_call
    if traced:
        rec.install()
    try:
        t0 = clock()
        try:
            if traced:
                raw = rec.call("job", workload.run, job, call, clock)
            else:
                raw = workload.run(job, call, clock)
        finally:
            ns = clock() - t0
            if traced:
                rec.uninstall()
        res = workload.check(job, raw)
    except Exception as exc:  # a failed job is counted, never redrawn
        res = JobResult(failures=[f"{type(exc).__name__}: {exc}"])
    return ns, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rss-probe", action="store_true",
                    help="run job 0 once after READY and report peak RSS")
    args = ap.parse_args(argv)

    os.environ.pop("FORGE_RESIDUAL_TOL", None)
    import numpy as np
    import solvforge

    if Path(solvforge.__file__).resolve().parent != ROOT / "src" / "solvforge":
        print(f"error: imported solvforge from {solvforge.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.make(args.workload)
    inputs0 = workload.inputs(args.seed, 0)
    job0 = workload.prepare(inputs0, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    clock = time.perf_counter_ns
    if args.rss_probe:
        _ns, res = run_job(workload, job0, False, None, clock)
        print(json.dumps({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failures": res.failures,
        }), flush=True)
        return 0

    rec = spans.Recorder(clock) if args.trace else None

    # reference job, twice, untimed: the shipped configs or canonical inputs
    reference_failures = []
    digests = {}
    worst_reference = 0.0
    for rep in range(2):
        ref_job = workload.prepare(workload.reference(), args.work, reference=True)
        _ns, res = run_job(workload, ref_job, False, rec, clock)
        reference_failures += res.failures
        digests[f"warm{rep}"] = res.digest
        worst_reference = max(worst_reference, res.worst_rel)
    if len(set(digests.values())) != 1:
        reference_failures.append(f"outputs differ across repeats: {digests}")

    # the library workloads also measure the CLI read path, on the shipped
    # configs' artifacts written here by one untimed warm pass: one verify
    # pass after every other job, so that its samples span the whole run
    verify_probe = None
    if not args.trace and args.workload != "cli_configs":
        cli_wl = workloads.CliConfigs()
        verify_probe = cli_wl.prepare(cli_wl.reference(), args.work, reference=True)
        _ns, res = run_job(cli_wl, verify_probe, False, rec, clock)
        reference_failures += res.failures
        digests["cli_warm"] = res.digest
    verify = []

    jobs = []
    failures = []
    deadline = clock() + int(args.seconds * 1e9)
    k = 0
    while k < MIN_JOBS or clock() < deadline:
        if verify_probe is not None and k % 2 == 1:
            scale = common.speed_scale()
            t0 = clock()
            outs = workloads.verify_pass(verify_probe["verify"], plain_call)
            ns = clock() - t0
            verify.append({"ns": ns, "scale": scale})
            deadline += ns  # the probe does not shorten the measured loop
            res = workloads.JobResult()
            workloads.check_verify_pass(verify_probe["verify"], outs, res)
            reference_failures += res.failures
        scale = common.speed_scale()
        job = job0 if k == 0 else workload.prepare(workload.inputs(args.seed, k), args.work)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            rec.job = k
        ns, res = run_job(workload, job, traced, rec, clock)
        ok = not res.failures
        if not ok:
            failures.append({"job": k, "failures": res.failures[:3]})
        jobs.append({
            "index": k, "ns": ns, "scale": scale, "ok": ok, "traced": traced,
            "solutions": res.solutions,
            "worst": res.worst_rel, "verify_ns": res.verify_ns,
            "bytes_written": res.bytes_written, "bytes_read": res.bytes_read,
        })
        k += 1

    out = {
        "jobs": jobs,
        "failures": failures,
        "reference_failures": reference_failures,
        "reference_digests": digests,
        "worst_reference": worst_reference,
        "inputs": {"job0": workload.sizes(inputs0)},
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "solvforge": solvforge.__version__,
            "kernel_backend": solvforge.kernel_backend(),
        },
    }

    if args.trace:
        os.makedirs(".forgebench_out", exist_ok=True)
        rec.dump(os.path.join(".forgebench_out", f"spans-{args.workload}-s{args.seed}.json"))
        out["layers"], out["shares"] = layer_metrics(rec, jobs, workload)
    if verify_probe is not None:
        out["verify_probe"] = verify

    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

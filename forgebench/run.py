"""solvforge benchmark: one workload, one seed, one closed-loop run.

    python3 forgebench/run.py --workload cli_configs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/solvforge`` and
``configs/``).  Everything it writes stays under ``.forgebench_work/`` (removed
at exit) and ``.forgebench_out/`` (span dumps of traced runs).

With ``--trace 0`` it reports the end-to-end metrics: the workload process
(see worker.py), then set-up probes and cold ``forge run`` passes in fresh
interpreters.  ``peak_rss_mb`` comes from one more workload process that runs
job 0 once after it is ready, without the speed calibration.  With
``--trace 1`` the workload process alternates traced and untraced jobs and it
reports the per-layer metrics instead.  Times are scaled
to reference speed by a calibration taken just before each of them (see
common.speed_scale).  The line before the last one is a JSON summary
(environment, inputs, raw times, tail percentile, artifact digests, failures,
layer shares); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from common import SHIPPED_CONFIGS, digest_dir

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_configs", "spectral_sweep", "bargmann_m8")
# set-up probes per run, besides the workload process itself
SETUP_PROBES = 4
# cold passes over the shipped configs per untraced run
COLD_PASSES = 2
# hard limit on one child process, seconds
CHILD_TIMEOUT = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FORGE_RESIDUAL_TOL", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_cmd(args, work: str, *flags: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    return cmd + list(flags)


def spawn_until_ready(cmd, env):
    """Start a workload process; return it and the seconds until READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process did not get ready: {line!r}")
    return proc, ready


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def cold_pass(env, out_dir: str):
    """``forge run`` on every shipped config, each in a fresh interpreter;
    returns [(seconds, speed scale)] and the failures."""
    timings = []
    failures = []
    for name in SHIPPED_CONFIGS:
        scale = common.speed_scale()
        cmd = [sys.executable, "-m", "solvforge.cli", "run", f"configs/{name}.json",
               "--out-dir", out_dir]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
        timings.append((time.perf_counter() - t0, scale))
        if proc.returncode != 0:
            failures.append(f"cold forge run {name} exited {proc.returncode}")
            continue
        with open(proc.stdout.strip()) as fh:
            if not json.load(fh)["all_passed"]:
                failures.append(f"cold forge run {name}: all_passed is false")
    return timings, failures


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree (read without git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine() -> dict:
    def read(path, key=None):
        try:
            text = Path(path).read_text()
        except OSError:
            return "unknown"
        if key is None:
            return text.strip()
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return "unknown"

    return {
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


def end_to_end(worker: dict, setup: list, cold: list, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics.  Every timing is scaled to reference speed by the
    calibration taken just before it (see common.speed_scale); the summary
    keeps the raw values beside them."""
    jobs = worker["jobs"]
    # a failed job keeps its time and produced no checked solution
    job_ms = [j["ns"] / 1e6 * j["scale"] for j in jobs]
    pct, tail, beyond = common.tail_percentile(job_ms)
    if "verify_probe" in worker:
        verify = [(v["ns"] / 1e6, v["scale"]) for v in worker["verify_probe"]]
    else:
        verify = [(j["verify_ns"] / 1e6, j["scale"]) for j in jobs]
    values = {
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": tail,
        "solutions_per_s": statistics.median(
            j["solutions"] * j["ok"] / (ms / 1e3) for j, ms in zip(jobs, job_ms)),
        "worst_residual_rel": worker["worst_reference"],
        "ops_ok_ratio": sum(j["ok"] for j in jobs) / len(jobs),
        "setup_s": statistics.median(t * s for t, s in setup),
        "peak_rss_mb": peak_rss_mb,
        "verify_p50_ms": statistics.median(t * s for t, s in verify),
        "cold_pass_ms": statistics.median(sum(t * s for t, s in p) for p in cold) * 1e3,
    }
    detail = {
        "jobs": len(jobs),
        "job_tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(job_ms)},
        "ops_failed_ratio": 1.0 - values["ops_ok_ratio"],
        "worst_residual_rel_seeded_jobs": max(j["worst"] for j in jobs),
        "raw": {
            "job_p50_ms": statistics.median(j["ns"] / 1e6 for j in jobs),
            "setup_s": statistics.median(t for t, _ in setup),
            "verify_p50_ms": statistics.median(t for t, _ in verify),
            "cold_pass_ms": statistics.median(sum(t for t, _ in p) for p in cold) * 1e3,
            "speed_scale_p50": statistics.median(j["scale"] for j in jobs),
        },
    }
    return values, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="solvforge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "solvforge" / "__init__.py").is_file() or not all(
        (ROOT / "configs" / f"{name}.json").is_file() for name in SHIPPED_CONFIGS
    ):
        print("error: run from a solvforge source checkout (src/solvforge and configs/ "
              "are missing)", file=sys.stderr)
        return 2

    work = os.path.join(".forgebench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    env = child_env()
    try:
        scale = common.speed_scale()
        proc, ready = spawn_until_ready(worker_cmd(args, work), env)
        worker = json.loads(finish(proc).strip().splitlines()[-1])
        setup, cold, failures, artifacts, peak_rss_mb = [(ready, scale)], [], [], {}, 0.0
        if not args.trace:
            for _ in range(SETUP_PROBES):
                scale = common.speed_scale()
                proc, ready = spawn_until_ready(worker_cmd(args, work, "--setup-only"), env)
                finish(proc)
                setup.append((ready, scale))
            proc, _ready = spawn_until_ready(worker_cmd(args, work, "--rss-probe"), env)
            probe = json.loads(finish(proc).strip().splitlines()[-1])
            peak_rss_mb = probe["peak_rss_mb"]
            failures += [f"peak-RSS probe, job 0: {f}" for f in probe["failures"]]
            warm = worker["reference_digests"].get("cli_warm", worker["reference_digests"]["warm0"])
            # reports name their artifacts' paths, so every pass writes into
            # the same folder, emptied first
            out_dir = os.path.join(work, "verbatim")
            for k in range(COLD_PASSES):
                shutil.rmtree(out_dir, ignore_errors=True)
                os.makedirs(out_dir)
                timings, cold_failures = cold_pass(env, out_dir)
                cold.append(timings)
                failures += cold_failures
                if digest_dir(out_dir) != warm:
                    failures.append(f"cold pass {k}: artifacts differ from the warm run's")
            artifacts = common.file_digests(out_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".forgebench_work")
        except OSError:
            pass

    failures += worker["reference_failures"]
    attempted = len(worker["jobs"])
    failed = sum(1 for j in worker["jobs"] if not j["ok"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "environment": {**machine(), **worker["environment"]},
        "inputs": worker["inputs"],
        "reference_digests": worker["reference_digests"],
        "shipped_config_artifacts_sha256": artifacts,
        "job_failures": worker["failures"],
        "other_failures": failures[:20],
        "other_failures_count": len(failures),
    }
    if args.trace:
        values, units = worker["layers"], common.PER_LAYER
        summary["layer_shares"] = worker["shares"]
    else:
        values, detail = end_to_end(worker, setup, cold, peak_rss_mb)
        units = common.END_TO_END
        summary.update(detail)
        summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        summary["metrics"]["ops_failed_ratio"] = {"value": detail["ops_failed_ratio"], "unit": "ratio"}
    correct = failed == 0 and not failures
    print(json.dumps(summary, sort_keys=True))
    print(common.result_line(correct, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""shapefield benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload wrench_morph --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout and uses the sources under ``src/``; with
no ``src/shapefield`` there it exits non-zero without a result.

Each run starts fresh processes, pinned to one CPU and with the BLAS
thread count pinned:
``SETUP_PROBES`` set-up probes (plus one discarded) that time a fresh
process up to its first operation, then one worker that runs the workload
in a closed loop (see ``worker.py``).  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  Earlier lines record the environment and print every
metric by name and unit, with the figures behind them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wrench_morph", "swarm_3000", "grid_pacman")
SETUP_PROBES = 9
BLAS_THREADS = 1  # at most nproc; one client in one process
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "work_items_per_ref": "items/ref",
    "peak_rss_mb": "MB",
}
WORK_NAMES = {"steps": "steps_per_s", "grid_nodes": "grid_nodes_per_s"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one shapefield benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class _Failed(Exception):
    pass


def _child(argv, env, deadline):
    """Run a benchmark subprocess to completion; raise _Failed on error."""
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise _Failed(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise _Failed(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    args = _parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "shapefield" / "__init__.py").is_file():
        print(f"no shapefield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    threads = str(min(BLAS_THREADS, nproc))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--cpu", str(cpus[-1]),
    ]
    try:
        setups = []
        for _ in range(SETUP_PROBES + 1):
            out = _child([*common, "--setup-only"], env, deadline)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        setups = setups[1:]  # the first probe warms file caches
        result_path = workdir / "result.json"
        _child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            env,
            deadline,
        )
        summary = json.loads(result_path.read_text(encoding="utf-8"))
    except _Failed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = summary["ops"]
    failed = sum(1 for op in ops if op["problems"])
    for op in ops:
        for problem in op["problems"]:
            print(f"check failed (seed {op['seed']}): {problem}")
    print("env " + json.dumps({
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "pinned_cpu": cpus[-1],
        "python": platform.python_version(),
        "numpy": summary["numpy"],
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))

    walls = summary["untraced_wall_s"]
    q1, q2, q3 = _quartiles(walls)
    rate = summary["work_items_per_s"]
    print(f"operations: {len(ops)} attempted (1 warm-up discarded), {failed} failed, "
          f"failed_ops_frac = {failed / len(ops):.4g}")
    print(f"untraced op wall s: p25 {q1:.4g}  p50 {q2:.4g}  p75 {q3:.4g}  (n={len(walls)}, "
          f"{summary['work_per_op']} {summary['work_unit']} per op)")
    print(f"{WORK_NAMES[summary['work_unit']]} = {rate:.6g} 1/s  (reference task: {summary['ref_ms']:.4g} ms)")
    s1, s2, s3 = _quartiles(setups)
    print(f"setup_s: p25 {s1:.4g}  p50 {s2:.4g}  p75 {s3:.4g}  (n={len(setups)} fresh processes)")

    if args.trace:
        metrics = summary["metrics"]
    else:
        values = {
            "setup_s": s2,
            "work_items_per_ref": summary["work_items_per_ref"],
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

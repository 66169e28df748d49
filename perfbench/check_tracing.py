"""Self-check of the traced run, on small inputs (about ten seconds).

    python3 perfbench/check_tracing.py

For each workload it asserts that

- every wrapper the workload should reach fires, so a renamed function
  cannot silently zero a layer;
- a traced operation writes byte-identical outputs to an untraced one;
- uninstalling the tracer restores every patched name;
- the contact counts match their definition: n(n-1)/2 pairs tested per step.

Exits non-zero on the first failed assertion.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from spans import TARGETS, Tracer, analyse_op


def check(name: str, workdir: Path, seed: int = 5) -> None:
    wl = workloads.WORKLOADS[name](workdir, small=True)
    wl.setup(seed)
    plain = wl.op(seed)
    if wl.check(plain, seed):
        raise AssertionError(f"{name}: untraced output checks failed: {wl.check(plain, seed)}")
    plain_print = wl.fingerprint(plain)

    originals = [getattr(owner, attr) for owner, attr, *_ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.op(seed)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    restored = [getattr(owner, attr) for owner, attr, *_ in TARGETS]
    if any(a is not b for a, b in zip(originals, restored)):
        raise AssertionError(f"{name}: uninstall left a patched name behind")
    if wl.check(traced, seed):
        raise AssertionError(f"{name}: traced output checks failed")
    if wl.fingerprint(traced) != plain_print:
        raise AssertionError(f"{name}: traced outputs differ from untraced ones")

    figures = analyse_op(spans, 1.0, 0, traced.stability_warnings)
    missing = wl.expected_spans - set(figures["names"])
    if missing:
        raise AssertionError(f"{name}: wrappers never fired: {sorted(missing)}")
    if wl.work_unit == "steps":
        steps = len(figures["dur"]["sim.step"])
        if steps != wl.work():
            raise AssertionError(f"{name}: {steps} step spans for {wl.work()} steps")
        n = wl.bodies
        if figures["pairs_tested"] != steps * n * (n - 1) // 2:
            raise AssertionError(f"{name}: pairs tested {figures['pairs_tested']}")
    print(f"{name}: ok ({len(spans)} spans, {len(figures['names'])} names)")


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=workloads.ROOT))
    try:
        for name in workloads.WORKLOADS:
            check(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

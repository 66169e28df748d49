"""One benchmark process: set up a workload, run it in a closed loop, check it.

``--setup-only`` times a fresh process from before the first import up to
the end of the workload's set-up and prints ``{"setup_s": ...}``.

Otherwise the process runs one discarded warm-up operation, then timed
operations back to back for ``--seconds``, checks every operation's
outputs, and writes a JSON summary to ``--result``.  The first timed
operation reuses the warm-up's seed, so its outputs must be byte-identical
to the warm-up's.  With ``--trace 1`` the first half of the time runs
untraced and the second half with spans installed; the first traced
operation again reuses the warm-up's seed, so tracing must not change a
byte of output.

``run.py`` starts this process with the BLAS thread count pinned.
"""

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


class _FallbackCounter(logging.Handler):
    """Counts degenerate-blend fallbacks logged by ``shapefield.sim``."""

    def __init__(self, mark: str):
        super().__init__(logging.WARNING)
        self.mark = mark
        self.count = 0

    def emit(self, record):
        if self.mark in record.getMessage():
            self.count += 1


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, help="pin this process to one CPU")
    return ap.parse_args(argv)


class _Reference:
    """A fixed task that uses none of the program's code.

    It mixes what the workloads spend their time on: many small numpy
    calls, float-to-text formatting, and passes over arrays larger than L2.
    Timed next to each operation, it tracks how fast the shared machine is
    running at that moment.  Its buffers are allocated once, so it adds a
    constant to the peak RSS and never sets the peak itself.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.linspace(0.0, 1.0, 30)
        self.big = np.linspace(0.0, 1.0, 250_000)
        self.tmp = np.empty_like(self.big)
        self.values = np.linspace(0.0, 1.0, 6000).tolist()

    def seconds(self) -> float:
        np, small, big, tmp = self.np, self.small, self.big, self.tmp
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1200):
            acc += float(np.sqrt(small * small + i).sum())
        ",".join(format(v, ".17g") for v in self.values)
        for _ in range(8):
            np.multiply(big, big, out=tmp)
            tmp += 1.0
            np.sqrt(tmp, out=big)
        return time.perf_counter() - t0


def _run_op(wl, seed, fallbacks, ref, tracer=None):
    """Run and check one operation; returns its record (and spans if traced)."""
    before = fallbacks.count
    ref_before = ref.seconds()
    if tracer is not None:
        tracer.take()  # drop spans recorded outside an operation
    t0 = time.perf_counter()
    try:
        result = wl.op(seed)
    except Exception:  # an operation that raises counts as failed
        wall = time.perf_counter() - t0
        return {"seed": seed, "wall_s": wall, "problems": [traceback.format_exc(limit=3)]}, None, None
    wall = time.perf_counter() - t0
    spans = tracer.take() if tracer is not None else None
    record = {
        "seed": seed,
        "wall_s": wall,
        "ref_s": (ref_before + ref.seconds()) / 2,
        "work": wl.work(),
        "stability_warnings": result.stability_warnings,
        "fallbacks": fallbacks.count - before,
        "problems": wl.check(result, seed),
    }
    return record, result, spans


def _loop(wl, seeds, seconds, fallbacks, ref, tracer=None):
    """Closed loop: the next operation starts when the previous one returns.

    An operation starts only if the median operation so far would still
    end within ``seconds``; the first always runs.
    """
    records, traced = [], []
    first = None
    start = time.perf_counter()
    while not records or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in records) <= seconds
    ):
        seed = next(seeds)
        record, result, spans = _run_op(wl, seed, fallbacks, ref, tracer)
        if first is None and result is not None:
            first = wl.fingerprint(result)
        if spans is not None:
            from spans import analyse_op

            traced.append(
                analyse_op(spans, record["wall_s"], record["fallbacks"], record["stability_warnings"])
            )
        records.append(record)
        del result, spans
    return records, first, traced


def _rate(records, per_ref: bool = False) -> float:
    """Median over successful operations of work items per wall second, or
    per reference-task time when ``per_ref``."""
    rates = [
        op["work"] / op["wall_s"] * (op["ref_s"] if per_ref else 1.0)
        for op in records
        if not op["problems"]
    ]
    return statistics.median(rates) if rates else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    import workloads  # imports numpy and shapefield from the checkout

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.workdir)
    wl.setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - _T_PROCESS}))
        return 0

    fallbacks = _FallbackCounter(workloads.FALLBACK_MARK)
    logging.getLogger("shapefield.sim").addHandler(fallbacks)
    rng = random.Random(args.seed)
    warm_seed = rng.randrange(1 << 31)

    def seeds():
        yield warm_seed
        while True:
            yield rng.randrange(1 << 31)

    ref = _Reference()
    warm, warm_result, _ = _run_op(wl, warm_seed, fallbacks, ref)
    warm_print = wl.fingerprint(warm_result) if warm_result is not None else None
    del warm_result
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced, repeat_print, _ = _loop(wl, seeds(), budget, fallbacks, ref)
    if repeat_print != warm_print:
        untraced[0]["problems"].append("outputs differ from the warm-up with the same seed")
    ops = [warm] + untraced
    summary = {"numpy": workloads.np.__version__, "work_unit": wl.work_unit}
    if args.trace:
        from spans import PER_LAYER, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_print, layers = _loop(wl, seeds(), budget, fallbacks, ref, tracer)
        finally:
            tracer.uninstall()
        if traced_print != warm_print:
            traced[0]["problems"].append("traced outputs differ from the untraced warm-up")
        seen = set().union(*(op["names"] for op in layers))
        missing = sorted(wl.expected_spans - seen)
        if missing:
            traced[0]["problems"].append(f"wrappers never fired: {missing}")
        ops += traced
        traced_rate = _rate(traced, per_ref=True)
        overhead = _rate(untraced, per_ref=True) / traced_rate - 1.0 if traced_rate else 0.0
        if layers:
            values = layer_metrics(layers, overhead)
            summary["metrics"] = {k: {"value": values[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
        else:
            summary["metrics"] = {}
    summary["ops"] = ops
    summary["untraced_wall_s"] = [op["wall_s"] for op in untraced if not op["problems"]]
    summary["work_per_op"] = wl.work()
    summary["work_items_per_s"] = _rate(untraced)
    summary["work_items_per_ref"] = _rate(untraced, per_ref=True)
    summary["ref_ms"] = statistics.median(op["ref_s"] for op in ops if "ref_s" in op) * 1e3
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

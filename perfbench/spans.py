"""Spans around the program's public functions, patched from outside.

Each name is patched where it is looked up at call time: ``shapefield.cli``
binds ``run``, ``parse``, ``parse_sim_config``, ``sample_grid``,
``export_grid`` and ``export_trajectory`` by ``from ... import``; ``run``
finds ``step``, ``shape_error`` and ``build_world`` and ``step`` finds the
force functions in ``shapefield.sim`` globals; the field and morph entry
points are methods patched on their classes.  No file of the program
changes.

A span is ``[name, parent index, start, end, args, info]``.  Wrappers keep
references to their arguments where the analysis needs them (the world
handed to ``contact_forces``, the points handed to a field driver).  The
program treats those arrays as immutable, so keeping them costs nothing
inside the timed region; the counts are computed from them after the
operation ends.
"""

from __future__ import annotations

import time

import numpy as np

import shapefield
from shapefield import cli, sim
from shapefield.morph import MorphSchedule
from shapefield.sim import FieldDriver

NAME, PARENT, START, END, ARGS, INFO = range(6)


# (owner, attribute, span name, keep arguments, post-hook on the result)
TARGETS = (
    (cli, "main", "cli.main", False, None),
    (cli, "parse", "lang.parse", False, None),
    (cli, "parse_sim_config", "sim.parse_sim_config", False, None),
    (cli, "run", "sim.run", False, None),
    (cli, "sample_grid", "gridio.sample_grid", False, None),
    (cli, "export_grid", "gridio.export_grid", False, len),
    (cli, "export_trajectory", "gridio.export_trajectory", False, len),
    (shapefield, "run", "sim.run", False, None),
    (sim, "build_world", "sim.build_world", False, None),
    (sim, "step", "sim.step", False, None),
    (sim, "spring_forces", "sim.spring_forces", False, None),
    (sim, "contact_forces", "sim.contact_forces", True, None),
    (sim, "control_forces", "sim.control_forces", False, None),
    (sim, "shape_error", "sim.shape_error", False, None),
    (FieldDriver, "values_grads", "fields.driver_values_grads", True, None),
    (FieldDriver, "values", "fields.driver_values", True, None),
    (MorphSchedule, "values_grads", "morph.values_grads", True, None),
    (MorphSchedule, "values", "morph.values", True, None),
)


class Tracer:
    """Records spans while installed; ``take()`` hands them over and resets."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, keep_args, post):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, args if keep_args else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if post is not None:
                rec[INFO] = post(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, keep_args, post in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(name, original, keep_args, post))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        spans = self.spans[:]
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# Analysis of one operation's spans
# ---------------------------------------------------------------------------

def _brute_force_hits(pos: np.ndarray, radius: np.ndarray, rows: int = 256) -> int:
    """Overlapping pairs i < j, from direct coordinate differences."""
    n = pos.shape[0]
    hits = 0
    for a in range(0, n, rows):
        b = min(n, a + rows)
        diff = pos[a:b, None, :] - pos[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        rsum = radius[a:b, None] + radius[None, :]
        upper = np.arange(n)[None, :] > np.arange(a, b)[:, None]
        hits += int(np.count_nonzero((d2 < rsum * rsum) & upper))
    return hits


def _tree_vg_us(calls, limit: int = 64, max_rows: int = 10_000) -> list[float]:
    """Time the public ``gradient()`` on the driver's member trees.

    ``calls`` are the ``(driver, pts, t)`` argument tuples recorded by the
    ``FieldDriver.values_grads`` wrapper; a morph driver's trees are its
    initial and final fields, a static driver's tree is its field.
    """
    calls = [c for c in calls if len(c[1]) <= max_rows]
    if not calls:
        return []
    picks = [calls[k] for k in np.linspace(0, len(calls) - 1, min(limit, len(calls))).astype(int)]
    out = []
    for driver, pts, _t in picks:
        src = driver.source
        trees = (src.initial, src.final) if isinstance(src, MorphSchedule) else (src,)
        t0 = time.perf_counter()
        for tree in trees:
            shapefield.gradient(tree, pts)
        out.append((time.perf_counter() - t0) * 1e6)
    return out


def analyse_op(spans: list[list], wall_s: float, fallbacks: int, warnings: int) -> dict:
    """Per-layer raw figures of one traced operation."""
    child_sum = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_sum[rec[PARENT]] += rec[END] - rec[START]
    dur: dict[str, list[float]] = {}
    self_t: dict[str, list[float]] = {}
    args: dict[str, list] = {}
    info: dict[str, list] = {}
    for k, rec in enumerate(spans):
        d = rec[END] - rec[START]
        dur.setdefault(rec[NAME], []).append(d)
        self_t.setdefault(rec[NAME], []).append(d - child_sum[k])
        if rec[ARGS] is not None:
            args.setdefault(rec[NAME], []).append(rec[ARGS])
        if rec[INFO] is not None:
            info.setdefault(rec[NAME], []).append(rec[INFO])

    worlds = [a[0] for a in args.get("sim.contact_forces", [])]
    pairs_tested = sum(w.n * (w.n - 1) // 2 for w in worlds)
    pairs_hit = sum(_brute_force_hits(w.pos, w.radius) for w in worlds)
    grid_field = [
        (rec[END] - rec[START], len(rec[ARGS][1]))
        for rec in spans
        if rec[NAME] == "fields.driver_values_grads"
        and rec[PARENT] >= 0
        and spans[rec[PARENT]][NAME] == "gridio.sample_grid"
    ]
    morph_calls = args.get("morph.values_grads", []) + args.get("morph.values", [])
    driver_calls = args.get("fields.driver_values_grads", []) + args.get("fields.driver_values", [])
    return {
        "wall_s": wall_s,
        "names": sorted(dur),
        "dur": dur,
        "self": self_t,
        "pairs_tested": pairs_tested,
        "pairs_hit": pairs_hit,
        "fallbacks": fallbacks,
        "stability_warnings": warnings,
        "blend_calls": sum(not s.is_complete(t) for s, _pts, t in morph_calls),
        "morph_calls": len(morph_calls),
        "points_evaluated": sum(len(c[1]) for c in driver_calls),
        "grid_field_s": sum(d for d, _ in grid_field),
        "grid_points": sum(n for _, n in grid_field),
        "tree_vg_us": _tree_vg_us(args.get("fields.driver_values_grads", [])),
        "export_bytes": sum(info.get("gridio.export_grid", []) + info.get("gridio.export_trajectory", [])),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics over all traced operations
# ---------------------------------------------------------------------------

# name -> (unit, better); a metric whose layer a workload never reaches reads 0
PER_LAYER = {
    "sim.step_us_p50": ("us", "lower"),
    "sim.step_us_p99": ("us", "lower"),
    "sim.step_self_us": ("us", "lower"),
    "sim.contact_us_p50": ("us", "lower"),
    "sim.contact_share": ("fraction", "lower"),
    "sim.contact_pairs_tested": ("count", "lower"),
    "sim.contact_pairs_hit": ("count", "higher"),
    "sim.contact_hit_ratio": ("fraction", "higher"),
    "sim.spring_us_p50": ("us", "lower"),
    "sim.control_us_p50": ("us", "lower"),
    "sim.control_self_us": ("us", "lower"),
    "sim.control_share": ("fraction", "lower"),
    "sim.control_fallbacks": ("count", "lower"),
    "sim.sample_us": ("us", "lower"),
    "sim.sample_count": ("count", "lower"),
    "sim.build_world_ms": ("ms", "lower"),
    "sim.stability_warnings": ("count", "lower"),
    "fields.driver_vg_us_p50": ("us", "lower"),
    "fields.tree_vg_us": ("us", "lower"),
    "fields.grid_ns_per_point": ("ns", "lower"),
    "fields.points_evaluated": ("count", "lower"),
    "morph.vg_us_p50": ("us", "lower"),
    "morph.blend_frac": ("fraction", "higher"),
    "lang.parse_us": ("us", "lower"),
    "gridio.sample_grid_s": ("s", "lower"),
    "gridio.sample_share": ("fraction", "lower"),
    "gridio.export_grid_s": ("s", "lower"),
    "gridio.export_bytes": ("bytes", "lower"),
    "gridio.export_mb_per_s": ("MB/s", "higher"),
    "gridio.export_trajectory_ms": ("ms", "lower"),
    "gridio.export_share": ("fraction", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[dict], overhead_frac: float) -> dict[str, float]:
    """Aggregate ``analyse_op`` results into the ``PER_LAYER`` metrics.

    Latencies are medians (and p99) over every call in every traced
    operation; counts are means per operation; shares are a layer's
    inclusive span time over the operations' wall time.
    """
    def dur(name):
        return [v for op in ops for v in op["dur"].get(name, [])]

    def self_time(name):
        return [v for op in ops for v in op["self"].get(name, [])]

    def per_op(key):
        return sum(op[key] for op in ops) / len(ops)

    wall = sum(op["wall_s"] for op in ops)
    export_s = sum(dur("gridio.export_grid")) + sum(dur("gridio.export_trajectory"))
    tested = per_op("pairs_tested")
    hit = per_op("pairs_hit")
    return {
        "sim.step_us_p50": _pct(dur("sim.step"), 50) * 1e6,
        "sim.step_us_p99": _pct(dur("sim.step"), 99) * 1e6,
        "sim.step_self_us": _pct(self_time("sim.step"), 50) * 1e6,
        "sim.contact_us_p50": _pct(dur("sim.contact_forces"), 50) * 1e6,
        "sim.contact_share": sum(dur("sim.contact_forces")) / wall,
        "sim.contact_pairs_tested": tested,
        "sim.contact_pairs_hit": hit,
        "sim.contact_hit_ratio": _ratio(hit, tested),
        "sim.spring_us_p50": _pct(dur("sim.spring_forces"), 50) * 1e6,
        "sim.control_us_p50": _pct(dur("sim.control_forces"), 50) * 1e6,
        "sim.control_self_us": _pct(self_time("sim.control_forces"), 50) * 1e6,
        "sim.control_share": sum(dur("sim.control_forces")) / wall,
        "sim.control_fallbacks": per_op("fallbacks"),
        "sim.sample_us": _pct(dur("sim.shape_error"), 50) * 1e6,
        "sim.sample_count": len(dur("sim.shape_error")) / len(ops),
        "sim.build_world_ms": _pct(dur("sim.build_world"), 50) * 1e3,
        "sim.stability_warnings": per_op("stability_warnings"),
        "fields.driver_vg_us_p50": _pct(dur("fields.driver_values_grads"), 50) * 1e6,
        "fields.tree_vg_us": _pct([v for op in ops for v in op["tree_vg_us"]], 50),
        "fields.grid_ns_per_point": _ratio(per_op("grid_field_s"), per_op("grid_points")) * 1e9,
        "fields.points_evaluated": per_op("points_evaluated"),
        "morph.vg_us_p50": _pct(dur("morph.values_grads"), 50) * 1e6,
        "morph.blend_frac": _ratio(per_op("blend_calls"), per_op("morph_calls")),
        "lang.parse_us": _pct(dur("lang.parse"), 50) * 1e6,
        "gridio.sample_grid_s": _pct(dur("gridio.sample_grid"), 50),
        "gridio.sample_share": sum(dur("gridio.sample_grid")) / wall,
        "gridio.export_grid_s": _pct(dur("gridio.export_grid"), 50),
        "gridio.export_bytes": per_op("export_bytes"),
        "gridio.export_mb_per_s": _ratio(sum(op["export_bytes"] for op in ops), export_s) / 1e6,
        "gridio.export_trajectory_ms": _pct(dur("gridio.export_trajectory"), 50) * 1e3,
        "gridio.export_share": export_s / wall,
        "cli.self_s": _pct(self_time("cli.main"), 50),
        "trace.overhead_frac": overhead_frac,
    }

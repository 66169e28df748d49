"""Contact-layer scaling and field-layer timings: build_world, the first
neighbour-list build and one step at 210, 1000, 3000 and 6000 bodies, and
``values_grads`` of the wrench morph and of pac-man at 30 points, of the
cube at 162, and of the one-circle field driver at 120.

    python3 scripts/contact_scaling.py --out BENCH.json
    python3 scripts/contact_scaling.py --baseline ../parent --out BENCH.json
    python3 scripts/contact_scaling.py --quick --out /tmp/scaling.json

Everything runs in this one process, pinned to the last CPU it may use
(Linux).
With ``--baseline`` a second source tree (a checkout root holding
``src/shapefield``) is loaded beside this one under another package name,
and the two are timed in alternating blocks, each block starting with the
other tree, so that drift in the machine's speed falls on both alike.  A
block lasts a fixed time, not a fixed number of calls, so that a burst of
load takes a like share of a fast layer's calls and of a slow one's.
Each timed call is one ``perf_counter_ns`` interval; a row reports the
median and quartiles of every call of its tree, in microseconds.

The worlds are ``SimConfig(n_boundary=nb, n_interior=ni, seed=3)``
ring-and-grain worlds.  ``step`` is timed from the built world with the
neighbour list built for it, under a circle field offset from the ring as
in the swarm benchmark.  Seed 3 leaves no pair overlapping as built at any
of the four sizes, so ``step`` times a step that reuses the list while
the no-contact certificate holds, as most steps of the swarm benchmark
do; each row records whether the certificate held and how many pairs
overlap.  The field rows evaluate this checkout's shipped shape files, in
both trees, at seed-3 uniform points in [-1, 1]^d: the wrench morph at
t = 3 s, inside its ramp, and pac-man, each at a swarm's 30 robots, the
cube at its 162 agents, and the one-circle field through the simulator's
field driver at 120 robots, as control reads it in the 3000-body swarm
(layer ``driver_values_grads``).  With a baseline, the worlds, neighbour
lists with their per-body bounds, stepped states and field values and
gradients of the two trees are compared byte for byte, and the script
exits 1 if they differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = ((30, 180), (60, 940), (120, 2880), (200, 5800))  # 210 to 6000 bodies
SEED = 3
# shape, points, t, read through the field driver
FIELDS = (
    ("wrench_morph", 30, 3.0, False),
    ("pacman", 30, 0.0, False),
    ("cube", 162, 0.0, False),
    ("circle", 120, 0.0, True),
)


def load_package(root: Path, name: str):
    """The ``shapefield`` package of the tree at ``root``, imported as ``name``."""
    pkg = root / "src" / "shapefield"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no src/shapefield under {root}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "shapefield").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Case:
    """One tree's world, neighbour list and field at one body count."""

    layers = ("build_world", "pair_cache", "step")

    def __init__(self, pkg, nb: int, ni: int):
        self.sim = sim = pkg.sim
        self.config = sim.SimConfig(n_boundary=nb, n_interior=ni, seed=SEED)
        self.world = sim.build_world(self.config)
        self.cache = sim._PairCache(self.world)
        ring = float(np.linalg.norm(self.world.pos[0]))
        self.driver = sim.as_field_driver(pkg.Circle((0.15, 0.0), ring))

    def call(self, layer: str):
        sim, cfg = self.sim, self.config
        if layer == "build_world":
            return sim.build_world(cfg)
        if layer == "pair_cache":
            return sim._PairCache(self.world)
        return sim.step(self.world, cfg, self.driver, cache=self.cache)

    def certificate_held(self, cache) -> bool:
        """Whether ``cache`` skips the narrow phase on the built world: its
        hits are the list's shared empty result, and no pair was tested."""
        tested = cache.narrow_steps
        return cache.hits(self.world) is cache.no_hits and cache.narrow_steps == tested

    def outputs(self) -> list[bytes]:
        world, cache = self.call("build_world"), self.call("pair_cache")
        stepped = self.call("step")
        arrays = (
            world.pos, world.radius, cache.i, cache.j, cache.rsum, cache.bound2,
            stepped.pos, stepped.vel,
        )
        return [a.tobytes() for a in arrays] + [repr(self.certificate_held(cache)).encode()]

    def facts(self) -> dict:
        return {
            "listed_pairs": int(self.cache.i.size),
            "certificate_held": self.certificate_held(self.cache),
            "overlapping_pairs": int(self.cache.hits(self.world)[0].size),
        }


class FieldCase:
    """One tree's compiled shape (a tree or a morph) and its points; with
    ``driver``, read through the simulator's field driver."""

    def __init__(self, pkg, shape: str, n: int, t: float, driver: bool):
        text = (ROOT / "src" / "shapefield" / "data" / "shapes" / f"{shape}.shape").read_text()
        program = pkg.lang.parse(text)
        self.source = program.morph_schedule() if program.has_morph else program.field_expr()
        self.pts = np.random.default_rng(SEED).uniform(-1.0, 1.0, (n, self.source.dimension))
        self.t = t
        if driver:
            self.source = pkg.sim.as_field_driver(self.source)
        self.layers = ("driver_values_grads" if driver else "values_grads",)

    def call(self, layer: str):
        return self.source.values_grads(self.pts, self.t)

    def outputs(self) -> list[bytes]:
        return [a.tobytes() for a in self.call(self.layers[0])]

    def facts(self) -> dict:
        return {}


def time_block(case: Case, layer: str, seconds: float) -> list[float]:
    """Each call's time in microseconds, over calls made until ``seconds``
    have passed (at least one)."""
    times = []
    gc.collect()
    gc.disable()
    try:
        end = time.perf_counter_ns() + int(seconds * 1e9)
        t1 = 0
        while t1 < end:
            t0 = time.perf_counter_ns()
            case.call(layer)
            t1 = time.perf_counter_ns()
            times.append((t1 - t0) / 1e3)
    finally:
        gc.enable()
    return times


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2), "calls": len(times)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--baseline", type=Path, help="second checkout root to time against")
    ap.add_argument(
        "--quick", action="store_true",
        help="2 blocks of 2 ms per layer, not 30 of 100 ms: a smoke run",
    )
    args = ap.parse_args(argv)
    blocks, seconds = (2, 0.002) if args.quick else (30, 0.1)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    pkgs = {tag: load_package(root, f"_scaling_{tag}") for tag, root in trees.items()}

    groups = [({"bodies": nb + ni}, Case, (nb, ni)) for nb, ni in SIZES]
    groups += [
        ({"shape": shape, "points": n, "t": t}, FieldCase, (shape, n, t, driver))
        for shape, n, t, driver in FIELDS
    ]
    rows = []
    for size, kind, params in groups:
        cases = {tag: kind(pkg, *params) for tag, pkg in pkgs.items()}
        change = cases["change"]
        for case in cases.values():  # warm-up: memos filled, code paths run once
            for layer in case.layers:
                case.call(layer)
        times = {tag: {layer: [] for layer in change.layers} for tag in cases}
        order = list(cases)
        for block in range(blocks):
            for tag in order if block % 2 == 0 else order[::-1]:
                for layer in change.layers:
                    times[tag][layer] += time_block(cases[tag], layer, seconds)
        if "baseline" in cases:
            bits_equal = change.outputs() == cases["baseline"].outputs()
        for layer in change.layers:
            row = {**size, "layer": layer, "unit": "us", **change.facts()}
            for tag in cases:
                row[tag] = summary(times[tag][layer])
            if "baseline" in cases:
                row["baseline_over_change"] = round(
                    row["baseline"]["median"] / row["change"]["median"], 3
                )
                row["bits_equal"] = bits_equal
            rows.append(row)
            print(json.dumps(row), flush=True)

    result = {
        "script": "scripts/contact_scaling.py",
        "seed": SEED,
        "blocks": blocks,
        "block_seconds": seconds,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
        },
        "trees": {tag: source_digest(root) for tag, root in trees.items()},
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    if "baseline" in trees and not all(row["bits_equal"] for row in rows):
        print("outputs differ between the trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

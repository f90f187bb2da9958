#!/usr/bin/env python3
"""Benchmark for bdtk: one workload per run, timed end to end or traced layer
by layer.

    python3 perfbench/run.py --workload exact-algebra --seed 7 --seconds 10 --trace 0

Run from the repository root or anywhere else; the library is imported from
the src/ directory next to this one.  Progress and any failed check go to
stderr.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 measures closed-loop, single-threaded rounds of the workload for
--seconds seconds (whole rounds, at least MIN_OPS completed operations) and
reports the end-to-end metrics.  --trace 1 runs TRACE_ROUNDS rounds twice,
alternately untraced and with every layer wrapped, reports the per-layer
metrics and writes them with the tracing overhead (traced minus untraced wall
time) to perfbench/out/trace-<workload>-seed<seed>.json.  The traced run does
a fixed amount of work, so its counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("arith", "scalars", "ulc", "sparse", "bloch", "bd", "compact", "bdt", "calculus",
           "derivations", "index", "corpus", "serialize", "verify", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100  # at least ten operations beyond the 90th percentile
TRACE_ROUNDS = {"exact-algebra": 20, "certified-norms": 20, "certified-solve": 3,
                "cli-roundtrip": 40}


def _bdtk_entries() -> list[str]:
    return [m for m in sys.modules if m == "bdtk" or m.startswith("bdtk.")]


def load_bdtk() -> SimpleNamespace:
    """Import bdtk afresh, so module-level caches start empty.  The returned
    namespace keeps the import's sys.modules entries in `loaded`, for
    use_bdtk()."""
    for name in _bdtk_entries():
        del sys.modules[name]
    importlib.import_module("bdtk")
    bk = SimpleNamespace(**{m: importlib.import_module(f"bdtk.{m}") for m in MODULES})
    bk.loaded = {name: sys.modules[name] for name in _bdtk_entries()}
    return bk


def use_bdtk(bk) -> None:
    """Point sys.modules at the import `bk`.  Library functions that import
    inside their bodies (`from .bdt import ...`) resolve through sys.modules,
    so with two imports loaded they would otherwise mix classes of both."""
    for name in _bdtk_entries():
        del sys.modules[name]
    sys.modules.update(bk.loaded)


def set_up(make_round, seed: int, workdir: Path) -> tuple[SimpleNamespace, float]:
    """Import, generate the warm-up round's inputs and run one operation of
    each kind (round -1, which the timed rounds never repeat).  Returns the
    loaded modules and the elapsed time."""
    t0 = time.perf_counter()
    bk = load_bdtk()
    seen = set()
    for op in make_round(bk, seed, -1, workdir):
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:  # noqa: BLE001 - the timed rounds count failures
                pass
    return bk, time.perf_counter() - t0


class Tally:
    """Outcome of the rounds run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()       # (kind, exception type) -> count
        self.latency = []             # seconds, completed operations only
        self.by_kind = defaultdict(list)
        self.errors = []
        self.wall = 0.0               # sum of the timed sections

    @property
    def completed(self) -> int:
        return self.attempted - sum(self.failed.values())


def run_round(make_round, bk, seed: int, r: int, workdir: Path, tally: Tally, tracer=None):
    use_bdtk(bk)
    ops = make_round(bk, seed, r, workdir)
    gc.collect()
    results = []
    if tracer is not None:
        tracer.active = True
    t_round = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.bytes_in += op.bytes_in
        t0 = time.perf_counter()
        try:
            out, exc = op.call(), None
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            out, exc = None, e
        results.append((op, out, exc, time.perf_counter() - t0))
    tally.wall += time.perf_counter() - t_round
    if tracer is not None:
        tracer.active = False
    for op, out, exc, dt in results:
        tally.attempted += 1
        if exc is not None:
            tally.failed[(op.kind, type(exc).__name__)] += 1
            continue
        tally.latency.append(dt)
        tally.by_kind[op.kind].append(dt)
        try:
            msg = op.check(out)
        except Exception as e:  # noqa: BLE001 - a check that crashes is a failed check
            msg = f"check raised {type(e).__name__}: {e}"
        if msg:
            tally.errors.append(f"round {r} {op.kind}: {msg}")


def report(tally: Tally, metrics: dict) -> None:
    for kind, xs in sorted(tally.by_kind.items()):
        print(f"  {kind:16s} n={len(xs):5d} median={statistics.median(xs) * 1e3:9.3f} ms",
              file=sys.stderr)
    for (kind, exc), n in sorted(tally.failed.items()):
        print(f"  failed: {kind} raised {exc} x{n}", file=sys.stderr)
    for msg in tally.errors[:10]:
        print(f"  CHECK FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": sum(tally.failed.values()),
        "metrics": metrics,
    }))


def timed(make_round, args, workdir: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        bk, dt = set_up(make_round, args.seed, workdir)
        setups.append(dt)
        gc.collect()
    tally = Tally()
    r = 0
    while tally.wall < args.seconds or tally.completed < MIN_OPS:
        run_round(make_round, bk, args.seed, r, workdir, tally)
        r += 1
    lat = tally.latency
    print(f"{args.workload}: {r} rounds, {tally.completed} ops in {tally.wall:.2f} s, "
          f"setup {sorted(round(s, 3) for s in setups)}", file=sys.stderr)
    report(tally, {
        "ops_per_s": {"value": tally.completed / tally.wall, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    })
    return 0


def traced(make_round, args, workdir: Path) -> int:
    from tracer import Tracer

    rounds = TRACE_ROUNDS[args.workload]
    plain_bk, _ = set_up(make_round, args.seed, workdir)
    # a second, separate import of bdtk carries the wrappers; both start from
    # cold caches, and alternating their rounds keeps drift in the machine's
    # speed out of the overhead
    bk, _ = set_up(make_round, args.seed, workdir)
    tracer = Tracer()
    tracer.install(bk)
    plain, tally = Tally(), Tally()
    for r in range(rounds):
        run_round(make_round, plain_bk, args.seed, r, workdir, plain)
        run_round(make_round, bk, args.seed, r, workdir, tally, tracer)
    # both imports ran the same operations on the same inputs, so they must
    # fail and pass alike; otherwise the overhead compares unequal work
    if plain.failed != tally.failed:
        tally.errors.append(f"untraced rounds failed {dict(plain.failed)}, "
                            f"traced rounds {dict(tally.failed)}")
    tally.errors += [f"untraced {msg}" for msg in plain.errors]
    metrics = tracer.metrics()
    overhead = tally.wall - plain.wall
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "untraced_s": plain.wall, "traced_s": tally.wall, "overhead_s": overhead,
        "metrics": metrics,
    }, indent=1) + "\n")
    print(f"{args.workload}: {rounds} rounds, untraced {plain.wall:.2f} s, traced "
          f"{tally.wall:.2f} s, overhead {overhead:.2f} s; wrote {path}", file=sys.stderr)
    report(tally, metrics)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bdtk" / "__init__.py").is_file():
        print(f"bdtk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one BLAS thread: the small dense problems here run slower on two (a
    # 260 x 256 SVD took 20 ms against 16 ms) and a second thread adds jitter
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # numpy and scipy load once per interpreter; bdtk is timed from here on
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else timed
        return run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

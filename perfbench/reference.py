#!/usr/bin/env python3
"""Reference figures for perfbench/README.md, printed as Markdown:

- the per-layer microbenchmarks of ROADMAP item 1, from a Gaussian Scalar
  product to fredholm_index(U), each the median over 7 repeats of a loop of
  at least 0.2 s, on inputs drawn from seed 7;
- the wall time of each of the 12 acceptance criteria at seed 7 and the case
  count tests/test_acceptance.py runs it at.

    python3 perfbench/reference.py

Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def per_call(fn) -> float:
    """Median seconds per call over 7 repeats of at least 0.2 s each."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= 0.2:
            break
        n *= 2
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} µs"
    if seconds < 1:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.1f} s"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from bdtk import corpus as cp
    from bdtk.bd import bd_mul, bd_norm
    from bdtk.bdt import bdt_mul, bdt_u, correction
    from bdtk.index import fredholm_index
    from bdtk.scalars import Scalar
    from bdtk.ulc import ulc, ulc_mul
    from bdtk.verify import run_suite
    from tests.test_acceptance import CRITERIA

    rng = random.Random(SEED)
    S = cp.DEFAULT_S

    def zeta9():
        return sum((Scalar.root_of_unity(k, 9) * cp.rand_fraction(rng) for k in range(6)),
                   Scalar.from_int(0))

    g1, g2 = cp.rand_scalar(rng), cp.rand_scalar(rng)
    z1, z2 = zeta9(), zeta9()
    f1 = ulc([cp.rand_scalar(rng) for _ in range(12)])
    f2 = ulc([cp.rand_scalar(rng) for _ in range(12)])
    b1, b2 = cp.rand_bd(rng, S, n_bands=4), cp.rand_bd(rng, S, n_bands=4)
    a1, a2 = cp.rand_bdt(rng, S, n_bands=4), cp.rand_bdt(rng, S, n_bands=4)
    u = bdt_u(S, 1)
    rows = [
        ("Gaussian `Scalar` mul", lambda: g1 * g2),
        ("`Q(zeta_9)` mul", lambda: z1 * z2),
        ("`ulc_mul`, period 12", lambda: ulc_mul(f1, f2)),
        ("`bd_mul`, 4x4 bands", lambda: bd_mul(b1, b2)),
        ("`correction`, 4x4 bands", lambda: correction(b1, b2)),
        ("`bdt_mul`, 4x4 bands", lambda: bdt_mul(a1, a2)),
        ("`bd_norm` at tol 1e-9, 4 bands", lambda: bd_norm(b1, 1e-9)),
        ("`fredholm_index(U)`", lambda: fredholm_index(u)),
    ]
    print(f"Python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}\n")
    print("| operation | time per call |\n| --- | --- |")
    for name, fn in rows:
        print(f"| {name} | {fmt(per_call(fn))} |", flush=True)

    print("\n| criterion | suite | cases | wall time | budget | result |")
    print("| --- | --- | --- | --- | --- | --- |")
    for number, suite, kwargs, budget in CRITERIA:
        t0 = time.perf_counter()
        rep = run_suite(suite, seed=SEED, **kwargs)
        dt = time.perf_counter() - t0
        status = "PASS" if rep.all_passed else "FAIL"
        print(f"| {number} | {suite} | {kwargs['cases']} | {dt:.1f} s | {budget} s | {status} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

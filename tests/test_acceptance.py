"""Acceptance gate: every criterion runs at its stated corpus size and
tolerance through the seeded verification suites and prints one line."""

import hashlib
import time

import pytest

from bdtk.verify import report_to_json, run_suite

SEED = 7

CRITERIA = [
    # (number, suite, kwargs, budget seconds)
    (1, "generator-relations", {"cases": 100}, 5),
    (2, "toeplitz-properties", {"cases": 200}, 10),
    (3, "correction-exactness", {"cases": 200}, 30),
    (4, "prop34-chain", {"cases": 200}, 60),
    (5, "norm-axioms", {"cases": 200}, 60),
    (6, "toeplitz-compact-estimates", {"cases": 200}, 60),
    (7, "bloch-consistency", {"cases": 100}, 120),
    (8, "exp-bounds", {"cases": 50}, 120),
    (9, "inversion", {"cases": 50}, 120),
    (10, "derivations-roundtrip", {"cases": 100}, 60),
    (11, "index-laws", {"cases": 50}, 60),
    (12, "gs-arithmetic", {"cases": 10000}, 5),
]

# sha256 of the seed-7 report_to_json text of the exact criteria, which a
# change that keeps the behaviour keeps byte for byte
EXACT_REPORT_SHA256 = {
    1: "9064eed5cb7a9ffea858322b183ac9aa8caf8664ee1251967710cbeaae48f4fc",
    2: "ab33c9e384b895160ef79688fe8e0339bad03d287f6dbc03a819696f70765463",
    3: "096a5c3c8bb24b916a58aa397809b4e49a84618c4f866e5e39a2c4a6712e1529",
    10: "6d9f46e42caf35bf6f4e9957bd9cb50393216bde1fca422a09de9b2ab7b9a55a",
    11: "578c31e22930a4e57dfccf6aef66ba9d546e130976eefa312f2e0508ac9c61c9",
    12: "a9e38caff6869a1774a49a7eb8b90ffe7658e855b8cd7668269dcf31eeb10420",
}


@pytest.mark.parametrize("number,suite,kwargs,budget", CRITERIA,
                         ids=[f"criterion-{n:02d}-{s}" for n, s, _, _ in CRITERIA])
def test_criterion(number, suite, kwargs, budget):
    t0 = time.time()
    report = run_suite(suite, seed=SEED, **kwargs)
    elapsed = time.time() - t0
    status = "PASS" if report.all_passed else "FAIL"
    print(f"criterion {number:2d} [{suite}]: {status} "
          f"({report.total - report.failed}/{report.total} checks, {elapsed:.1f}s)")
    failures = [c for c in report.cases if not c.passed][:5]
    for c in failures:
        print(f"    failed {c.case_id}: lhs={c.lhs!r} rhs={c.rhs!r} tol={c.tolerance!r}")
    assert report.all_passed, f"criterion {number}: {report.failed} failed checks"
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    if number in EXACT_REPORT_SHA256:
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == EXACT_REPORT_SHA256[number], f"criterion {number} report bytes moved"

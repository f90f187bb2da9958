"""The exact suites' seed-7 reports are pinned byte for byte: a refactor that
keeps the behaviour keeps these digests.  Case counts are small so the check
stays cheap; the acceptance gate runs the full counts."""

import hashlib

import pytest

from bdtk.verify import report_to_json, run_suite

PINNED = [
    ("generator-relations", 20, "5e6dad672af988bde7df14b3bb8f05b4be6c861f33e3b3b799189fa6bd0a8b3c"),
    ("toeplitz-properties", 20, "2f99f124bb7b7a28d686b96bcd777fc9713debbc206f96a6357da2dae0953ebb"),
    ("correction-exactness", 20, "d4e691d30764013c98cec512d4bacdfd90a9c9f948a04ad7c287dc7150707029"),
    ("derivations-roundtrip", 20, "210b4d459408a729953d885b9fdc8b4f71e59a0063e8f3eec23b019912df5432"),
    ("index-laws", 5, "087a7578d0e519fa60e574c2519ee86b495d6e39c0d0a1c1e3cab61283aa6723"),
    ("gs-arithmetic", 1000, "51863ccb3aa47c321fabd62e610d7b0b4c9590560efbb257638bb392f301a6c3"),
]


@pytest.mark.parametrize("suite,cases,digest", PINNED, ids=[s for s, _, _ in PINNED])
def test_exact_suite_report_bytes(suite, cases, digest):
    text = report_to_json(run_suite(suite, seed=7, cases=cases))
    assert hashlib.sha256(text.encode()).hexdigest() == digest

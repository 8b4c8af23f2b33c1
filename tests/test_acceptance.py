"""Acceptance gate: runs every verification suite at full sample sizes.

Each test prints one PASS/FAIL line for its criterion (plus per-check
detail lines) and asserts that every check inside the suite passed.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the report;
the same suites back ``guegen verify --suite all``.
"""

import pytest

from guegen import verify

CRITERIA = [
    ("1", "exactness", "squeeze draws match the ladder-identity CDF, k <= 1e5 (KS, scaled < 1.95)"),
    ("2", "equivalence", "plain and squeeze outputs agree (two-sample KS, alpha 0.01)"),
    ("3", "rejection-constant", "proposals per accept equal the hat mass"),
    ("4", "sublinearity", "squeeze cost scales sublinearly, plain linearly"),
    ("5", "squeeze-validity", "sandwich and whole-line hat domination hold pointwise"),
    ("6", "gap-scaling", "sandwich gap integral falls like n^(-1/3)"),
    ("7", "second-moment", "mixture second moment equals the matrix size"),
    ("8", "joint-n2", "full-spectrum sampler at n=2 accepts every proposal"),
    ("9", "joint-triangle", "joint, mixture, and entrywise spectra agree"),
    ("10", "beta", "beta generalization collapses to the base case at beta=2"),
    ("11", "vandermonde-max", "pinned Vandermonde maximum closed form"),
]


def _run(number, suite, summary):
    checks = verify.SUITES[suite](quick=False)
    ok = all(c.passed for c in checks)
    print(f"\ncriterion {number} ({summary}): {'PASS' if ok else 'FAIL'}")
    for c in checks:
        print(
            f"    [{'pass' if c.passed else 'FAIL'}] {c.test}: "
            f"statistic={c.statistic:.6g} threshold={c.threshold:.6g} {c.detail}"
        )
    failed = [c.test for c in checks if not c.passed]
    assert not failed, f"criterion {number} failed checks: {failed}"


@pytest.mark.parametrize("number,suite,summary", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, suite, summary):
    _run(number, suite, summary)

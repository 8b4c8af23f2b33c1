"""Acceptance gate: runs every verification suite at full sample sizes,
and most of them also with the reduced counts of ``guegen verify --quick``.

Each test prints one PASS/FAIL line for its criterion (plus per-check
detail lines) and asserts that every check inside the suite passed, and
that every row's pass flag is the one its own statistic, comparison,
threshold and, for "in-window" rows, lower bound imply.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the report;
the same suites back ``guegen verify --suite all``.  The last tests plant
a defect in the package and assert which rows of a criterion then fail.
"""

import math

import numpy as np
import pytest

from guegen import dominator, hermite, verify

CRITERIA = [
    ("1", "exactness", "squeeze draws match the ladder-identity CDF, k <= 1e5 (KS, scaled < 1.95)"),
    ("2", "equivalence", "plain and squeeze agree: same law (two-sample KS, alpha 0.01), same bytes on one stream"),
    ("3", "rejection-constant", "proposals per accept equal the hat mass"),
    ("4", "sublinearity", "squeeze cost scales sublinearly, plain linearly"),
    ("5", "squeeze-validity", "sandwich and whole-line hat domination hold pointwise"),
    ("6", "gap-scaling", "sandwich gap integral falls like n^(-1/3)"),
    ("7", "second-moment", "mixture second moment equals the matrix size"),
    ("8", "joint-n2", "full-spectrum sampler at n=2 accepts every proposal"),
    ("9", "joint-triangle", "joint, mixture, and entrywise spectra agree, n <= 16"),
    ("10", "beta", "beta generalization collapses to the base case at beta=2"),
    ("11", "vandermonde-max", "pinned Vandermonde maximum closed form"),
]


# exactness and squeeze-validity take seconds even with --quick; they run
# at full size only
QUICK = [c for c in CRITERIA if c[1] not in ("exactness", "squeeze-validity")]


def _implied_pass(row):
    """The pass flag a report row's own fields imply."""
    s, t = row["statistic"], row["threshold"]
    if row["comparison"] == "in-window":
        return row["lower"] <= s <= t
    return {"<": s < t, "<=": s <= t, "==": s == t}[row["comparison"]]


def _run(number, suite, summary, quick=False):
    checks = verify.SUITES[suite](quick=quick)
    ok = all(c.passed for c in checks)
    label = " --quick" if quick else ""
    print(f"\ncriterion {number}{label} ({summary}): {'PASS' if ok else 'FAIL'}")
    for c in checks:
        lower = f"lower={c.lower:.6g} " if c.comparison == "in-window" else ""
        print(
            f"    [{'pass' if c.passed else 'FAIL'}] {c.test}: {lower}"
            f"statistic={c.statistic:.6g} threshold={c.threshold:.6g} {c.detail}"
        )
    # every row of the report can be re-checked from its own fields
    for row in (c.as_dict() for c in checks):
        assert ("lower" in row) == (row["comparison"] == "in-window"), row
        assert row["pass"] is _implied_pass(row), row
    failed = [c.test for c in checks if not c.passed]
    assert not failed, f"criterion {number} failed checks: {failed}"


@pytest.mark.parametrize("number,suite,summary", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, suite, summary):
    _run(number, suite, summary)


@pytest.mark.parametrize("number,suite,summary", QUICK, ids=[c[1] for c in QUICK])
def test_acceptance_criterion_quick(number, suite, summary):
    _run(number, suite, summary, quick=True)


@pytest.mark.parametrize("comparison", ["<", "<=", "==", "in-window"])
def test_nan_statistic_fails_every_comparison(comparison):
    lower = -1.0 if comparison == "in-window" else None
    row = verify.CheckResult("nan", math.nan, 1.0, comparison, lower=lower)
    assert row.passed is False and row.as_dict()["pass"] is False


def test_only_in_window_rows_take_a_lower_bound():
    with pytest.raises(ValueError):
        verify.CheckResult("window without a lower bound", 0.0, 1.0, "in-window")
    with pytest.raises(ValueError):
        verify.CheckResult("lower bound without a window", 0.0, 1.0, "<", lower=-1.0)


def test_sublinearity_fails_without_the_in_window_squeeze(monkeypatch):
    # planted defect: dominator.propose leaves the in-window proposals of
    # degree hats undecided, so each goes to the exact recurrence.  Criterion
    # 4 at quick size must fail the share, squeeze-proxy and cold-draw rows
    # at every n, 12 of its 15 rows, and no other: the closed-form slopes and
    # the plain slope read no squeeze.
    propose = dominator.propose

    def no_window_squeeze(hats, stream, sizes, squeeze):
        return propose(hats, stream, sizes, squeeze and isinstance(hats[0], dominator.GridHat))

    monkeypatch.setattr(dominator, "propose", no_window_squeeze)
    rows = verify.check_sublinearity(quick=True)
    row = "sublinearity: {} at n={} within 5 sigma of the closed form"
    n_list = (100, 1_000, 10_000, 100_000)
    sure = [
        row.format(what, n)
        for n in n_list
        for what in ("exact-evaluation share", "squeeze cost proxy")
    ]
    sure += [row.format("cold-draw cost proxy", n) for n in n_list]
    assert len(rows) == 15
    assert [r.test for r in rows if not r.passed] == sure


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_squeeze_validity_fails_a_certificate_that_rejects_degree_5000(monkeypatch, quick):
    # planted defect: the decreasing-beyond-x1 certificate fails degree 5000.
    # The full size certifies every degree from 1 to 1e4 and must fail its
    # certificate row, and only that row; the quick size certifies criterion
    # 5's ten degrees, which skip 5000, and passes.
    certify = hermite.certify_decreasing

    def reject_5000(ks, x):
        f, df, ok = certify(ks, x)
        return f, df, ok & (np.asarray(ks) != 5000)

    monkeypatch.setattr(hermite, "certify_decreasing", reject_5000)
    rows = verify.check_squeeze_validity(quick=quick)
    failed = [r for r in rows if not r.passed]
    if quick:
        assert failed == []
    else:
        assert [r.test for r in failed] == [
            "squeeze validity: degrees not certified decreasing beyond x1"
        ]
        assert failed[0].statistic == 1 and "first failures [5000]" in failed[0].detail


def test_equivalence_fails_when_a_pass_reads_the_next_groups_hat(monkeypatch):
    # planted defect: an off-by-one group index in the merged proposal pass,
    # so each group's proposals read the next group's hat fields (the last
    # group its own).  Its squeeze then runs a neighbouring degree's sandwich
    # and its envelope a neighbouring hat, which the laws at tier-1 sizes do
    # not resolve; criterion 2 at quick size must fail its same-stream row
    # for the n = 300 mixture (2000 draws), and only that row.
    rows = dominator._rows
    monkeypatch.setattr(dominator, "_rows", lambda hats, sizes: rows(hats[1:] + hats[-1:], sizes))
    failed = [r.test for r in verify.check_equivalence(quick=True) if not r.passed]
    assert failed == [
        "equivalence: plain and squeeze on one stream, mixture n=300: "
        "bytes, proposals, accepts differ"
    ]

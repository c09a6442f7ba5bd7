"""Verification suite machinery: reports, registries, and the failure path."""

from collections import Counter

import pytest

import schreier.core as core
from schreier import bijections, closed_forms, enumeration, verify
from schreier.errors import DomainError
from schreier.finite_sets import FiniteSet
from schreier.verify import DEFAULT_SEED, Report, SUITE_ORDER, SUITES, run_suite


def test_suite_registry_is_complete():
    assert set(SUITE_ORDER) == set(SUITES) - {"all"}
    assert "all" in SUITES


def test_report_rendering():
    ok = Report("some-check", "n=1..5", True, 5)
    assert ok.render() == "PASS some-check [n=1..5] (5 checks)"
    bad = Report("some-check", "n=1..5", False, 5, "n=3: got 1, expected 2")
    assert bad.render() == (
        "FAIL some-check [n=1..5] (5 checks): first counterexample "
        "n=3: got 1, expected 2"
    )


def test_run_suite_rejects_unknown_names():
    with pytest.raises(DomainError):
        run_suite("theorem-of-everything")


@pytest.mark.parametrize(
    "name",
    ["thm1_1", "thm1_4", "prop3_1", "rec3_1", "lemma3_5", "eq3_8", "eq3_9", "mpq"],
)
def test_reduced_range_suites_pass(name):
    reports = run_suite(name, n_max=8, k_max=4)
    assert reports
    for report in reports:
        assert report.passed, report.render()
        assert report.checks > 0


def test_thm1_2_reduced_range():
    reports = run_suite("thm1_2", n_max=10, k_max=5)
    assert all(r.passed for r in reports)
    by_name = {r.identity: r for r in reports}
    assert by_name["closed-vs-both-oracles"].checks == 50
    assert by_name["worked-expansion-(4,10)"].passed


def test_thm1_1_default_check_counts():
    reports = run_suite("thm1_1", n_max=10)
    by_name = {r.identity: r for r in reports}
    assert by_name["diagonal-count-vs-enumeration"].checks == 10
    assert by_name["diagonal-closed-vs-double-sum-vs-2fib"].checks == 10
    assert by_name["diagonal-partition"].checks == 9  # n = 2..10


def test_randomized_suites_are_reproducible():
    first = run_suite("lemma3_3", n_max=12, k_max=4)
    second = run_suite("lemma3_3", n_max=12, k_max=4)
    assert first == second
    reseeded = run_suite("lemma3_3", n_max=12, k_max=4, seed=DEFAULT_SEED + 1)
    assert all(r.passed for r in reseeded)
    assert reseeded[0].params != first[0].params  # seed is part of the range label


def test_lemma_suites_pass_on_reduced_ranges():
    for name in ("lemma3_3", "lemma3_4"):
        reports = run_suite(name, n_max=20, k_max=6)
        assert all(r.passed for r in reports), name


def test_identity_suite_passes():
    reports = run_suite("identities", n_max=25)
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_corrupted_fibonacci_cache_is_caught():
    core.fib(30)  # make sure the cache covers the corrupted index
    saved = core._FIB[10]
    core._FIB[10] = saved + 1
    try:
        reports = run_suite("identities", n_max=20)
    finally:
        core._FIB[10] = saved
    failed = [r for r in reports if not r.passed]
    assert failed, "corruption went unnoticed"
    assert any(r.counterexample for r in failed)
    assert all(r.passed for r in run_suite("identities", n_max=20))


def _record_scans(monkeypatch):
    """Record every naive scan the enumeration oracles make as the masks it
    visits: (seen, n, what) for the masks from 2**seen up to 2**n."""
    scans = []
    masks = enumeration._scan

    def recording(seen, n, what):
        scans.append((seen, n, what))
        return masks(seen, n, what)

    monkeypatch.setattr(enumeration, "_scan", recording)
    monkeypatch.setattr(verify, "_scan", recording)
    return scans


def test_thm1_2_fills_its_grid_from_one_scan(monkeypatch):
    scans = _record_scans(monkeypatch)
    assert all(r.passed for r in run_suite("thm1_2"))
    assert scans == [(0, 20, "count_family_a_grid")]


def test_thm1_4_scans_each_pinned_level_once(monkeypatch):
    # The naive oracle scans each pinned level the checks read once, for
    # the cross-check of the structured level; the partitions read those
    # scans.  The structured route builds every level exactly once.
    scans = _record_scans(monkeypatch)
    built = []
    members = verify.stream_family_k

    def recording(n):
        built.append(n)
        return members(n)

    monkeypatch.setattr(verify, "stream_family_k", recording)
    assert all(r.passed for r in run_suite("thm1_4"))
    assert scans == [(n - 1, n, "enumerate_family_k") for n in range(2, 20)]
    assert built == list(range(2, 24))


def test_thm1_4_holds_at_most_one_compared_level(monkeypatch):
    # thm1_4 lists a level only to compare it with the oracle, levels 2..19,
    # and streams the rest.  So at most level 19's F(18) = 2,584 members are
    # alive at once, with the min-2 member each of the 16 claims may keep;
    # level 23 alone has F(22) = 17,711.
    live = peak = 0

    class Member(tuple):
        def __new__(cls, elements):
            nonlocal live, peak
            live += 1
            peak = max(peak, live)
            return super().__new__(cls, elements)

        def __del__(self):
            nonlocal live
            live -= 1

    stream = verify.stream_family_k

    def counted(n):
        count, members = stream(n)
        return count, map(Member, members)

    monkeypatch.setattr(verify, "stream_family_k", counted)
    assert all(r.passed for r in run_suite("thm1_4"))
    assert core.fib(18) <= peak <= core.fib(18) + 16
    assert live == 0


def _stream_fault(level, mangle):
    """A fault that passes level ``level`` of the structured stream through
    ``mangle``."""

    def fault(monkeypatch):
        stream = verify.stream_family_k

        def faulty(n):
            count, members = stream(n)
            return count, (mangle(members) if n == level else members)

        monkeypatch.setattr(verify, "stream_family_k", faulty)

    return fault


def _count_fault(monkeypatch):
    count = verify.family_k_count
    monkeypatch.setattr(verify, "family_k_count", lambda n: count(n) + (n == 20))


def _case_fault(monkeypatch):
    def moved(n):
        c = closed_forms.family_k_case_counts(n)
        if n != 12:
            return c
        return c._replace(with_both=c.with_both + 1, with_neither=c.with_neither - 1)

    monkeypatch.setattr(verify, "family_k_case_counts", moved)


def _partition_fault(monkeypatch):
    # Members of size 4 or more, first met at level 8, leave every codomain.
    step = bijections._two_level_step_mask

    def broken(m, n):
        return step(m, n) | (1 << (n + 3) if m.bit_count() >= 4 else 0)

    monkeypatch.setattr(bijections, "_two_level_step_mask", broken)


@pytest.mark.parametrize(
    "fault, failures",
    [
        pytest.param(
            _count_fault,
            {"pinned-count-vs-enumeration": "n=20: got 4181, expected 4182"},
            id="count-past-the-oracle",
        ),
        pytest.param(
            _case_fault,
            {
                "pinned-case-split": "n=12: got (1, 0, 9, 134), expected CaseCounts("
                "with_both=2, with_two_only=0, with_three_only=9, with_neither=133)",
            },
            id="case-split",
        ),
        pytest.param(
            _partition_fault,
            {"pinned-partition": "n=9: got False, expected True"},
            id="partition",
        ),
        pytest.param(
            _stream_fault(10, lambda members: (E for E in members if E != (2, 3, 10))),
            {
                "pinned-count-vs-enumeration": "n=10: got (33, False), expected (34, True)",
                "pinned-case-split": "n=9: got (0, 0, 6, 27), expected CaseCounts("
                "with_both=1, with_two_only=0, with_three_only=6, with_neither=27)",
                "pinned-min2-members": "n=11: got [], expected [(2, 3, 10)]",
            },
            id="min2-member-dropped",
        ),
        pytest.param(
            _stream_fault(9, lambda members: ((3, 4, 5, 9) if E == (3, 4, 9) else E for E in members)),
            {
                "pinned-count-vs-enumeration": "n=9: got (21, False), expected (21, True)",
                "pinned-min3-members": "n=10: got [4, 3, 3, 3, 3], expected [3, 3, 3, 3, 3]",
            },
            id="min3-member-grown",
        ),
    ],
)
def test_thm1_4_names_the_first_counterexample_of_each_report(monkeypatch, fault, failures):
    # Each fault is first seen at the level named; the reports it does not
    # reach still pass.
    fault(monkeypatch)
    reports = run_suite("thm1_4")
    assert [r.checks for r in reports] == [21, 60, 16, 16, 16]
    assert {r.identity: r.counterexample for r in reports if not r.passed} == failures


@pytest.mark.parametrize("name", ["all", "thm1_4"])
def test_suites_build_finite_sets_only_for_oracle_listings(monkeypatch, name):
    # Both listing routes give element tuples, which thm1_4 compares as
    # they are on its oracle levels 2..19, so a suite that passes builds no
    # FiniteSet at all.
    built = 0
    check = FiniteSet.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(FiniteSet, "__post_init__", counted)
    assert all(r.passed for r in run_suite(name))
    assert built == 0
    FiniteSet((1,))  # the counter counts
    assert built == 1


def test_thm1_1_reads_its_diagonal_off_one_scan(monkeypatch):
    # The partitions grow one candidate scan to {1..17}, and the diagonal's
    # mask counts for n <= 17 read it; each a(n, n), n = 1..22, is also a
    # split tally of two half scans.  That is 2**17 - 1 + 14,285 masks, not
    # the 2**22 - 1 of a candidate scan grown to 22.
    scans = _record_scans(monkeypatch)
    assert all(r.passed for r in run_suite("thm1_1"))
    assert scans == [(n - 1, n, "partitions thm1_1") for n in range(1, 18)] + [
        half
        for n in range(1, 23)
        for half in ((0, n // 2, "count_family_a"), (0, n - n // 2, "count_family_a"))
    ]
    masks = sum((1 << n) - (1 << seen) for seen, n, _ in scans)
    assert masks == 145_356 <= 2**18


def test_prop3_1_reads_its_oracle_counts_off_one_scan(monkeypatch):
    # Each oracle count is a split tally: two half scans, no candidate scan.
    scans = _record_scans(monkeypatch)
    assert all(r.passed for r in run_suite("prop3_1"))
    assert scans == [
        half
        for n in range(1, 15)
        for _k in (n + 1, n + 3)
        for half in ((0, n // 2, "count_family_a"), (0, n - n // 2, "count_family_a"))
    ]


def test_eq1_2_names_the_first_instance_a_broken_rule_fails(monkeypatch):
    # The oracle's weight rule with >= in place of >: {1} then joins the
    # weight-2 family although it is maximal and does not hold 2.
    def broken(S, n, masks):
        weighted = ~sum(1 << (s - 1) for s in S if 1 <= s <= n)
        return [m for m in masks if (m & -m).bit_length() >= (m & weighted).bit_count()]

    monkeypatch.setattr(enumeration, "_zero_weight_masks", broken)
    monkeypatch.setattr(verify, "_zero_weight_masks", broken)
    [report] = run_suite("eq1_2")
    assert report.render() == (
        "FAIL weighted-family-decomposition [k=1..10, E within {1..14}] "
        "(163840 checks): first counterexample k=2 E={1}: got True, expected False"
    )


def test_eq1_2_takes_each_oracle_row_from_a_scan(monkeypatch):
    scans = _record_scans(monkeypatch)
    assert all(r.passed for r in run_suite("eq1_2"))
    assert scans == [(0, 14, "suite eq1_2")] * 10


def test_rec3_1_tests_two_levels_per_check(monkeypatch):
    # Each check runs the member predicate on A(k, n) and A(k - 1, n - 2);
    # A(k, n - 1) is read off A(k, n) below 2**(n-1).
    passes = []
    rule = enumeration._zero_weight_masks

    def recording(S, n, masks):
        passes.append((S, n))
        return rule(S, n, masks)

    monkeypatch.setattr(enumeration, "_zero_weight_masks", recording)
    assert all(r.passed for r in run_suite("rec3_1"))
    assert passes == [
        level
        for k in range(2, 9)
        for n in range(max(k, 2) + 1, 17)
        for level in (((k,), n), ((k - 1,), n - 2))
    ]
    assert len(passes) == 154


@pytest.mark.parametrize("suite, kind", [("thm1_1", "thm1_1"), ("rec3_1", "rec3_1")])
def test_family_a_partitions_read_one_scan(monkeypatch, suite, kind):
    # Family A's candidates grow universe by universe, so each mask of the
    # largest universe is visited once: thm1_1's partitions grow one scan of
    # {1..17}, which its diagonal's mask counts read, and rec3_1's grow one
    # scan of {1..16}.  thm1_1's split tallies scan their halves apart.
    scans = _record_scans(monkeypatch)
    assert all(r.passed for r in run_suite(suite))
    halves = [(seen, n) for seen, n, what in scans if what == "count_family_a"]
    steps = [(seen, n) for seen, n, what in scans if what != "count_family_a"]
    top = 17 if kind == "thm1_1" else 16
    assert steps[0][0] == 0 and steps[-1][1] == top
    assert all(seen == n for (_, n), (seen, _) in zip(steps, steps[1:]))
    assert {what for _, _, what in scans} - {"count_family_a"} == {f"partitions {kind}"}
    assert len(halves) == (44 if kind == "thm1_1" else 0)
    assert all(seen == 0 and n <= 11 for seen, n in halves)


def test_mpq_splits_each_oracle_count(monkeypatch):
    # Each of the nine families' oracle counts at level n scans the two
    # halves of {1..n-1}, and ratio_recurrence seeds its first p + q - 1
    # terms from part sums, scanning nothing.
    scans = _record_scans(monkeypatch)
    assert all(r.passed for r in run_suite("mpq"))
    assert scans == [
        (0, width, "count_ratio_family")
        for p in (1, 2, 3)
        for q in (1, 2, 3)
        for n in range(1, 19)
        for width in ((n - 1) // 2, n - 1 - (n - 1) // 2)
    ]
    scans.clear()
    assert closed_forms.ratio_recurrence(13, 14, 40) == 119_724_514
    assert scans == []


def test_all_runs_eq1_2_and_eq3_10_once(monkeypatch):
    runs = Counter()
    for name in ("eq1_2", "eq3_10"):

        def recording(n_max=None, k_max=None, seed=None, suite=SUITES[name], name=name):
            runs[name] += 1
            return suite(n_max=n_max, k_max=k_max, seed=seed)

        monkeypatch.setitem(SUITES, name, recording)
    reports = run_suite("all", n_max=6, k_max=3)
    assert runs == {"eq1_2": 1, "eq3_10": 1}
    names = [r.identity for r in reports]
    assert names.count("weighted-family-decomposition") == 2
    assert names.count("fib-binom-collapse") == 2
    runs.clear()
    assert len(run_suite("identities", n_max=6, k_max=3)) == 4
    assert runs == {"eq1_2": 1, "eq3_10": 1}
    runs.clear()
    # eq1_2 within identities keeps its universe at 14 at most, a different
    # range from the one all runs with a larger n_max, so it runs again.
    run_suite("all", n_max=15, k_max=1)
    assert runs == {"eq1_2": 2, "eq3_10": 1}


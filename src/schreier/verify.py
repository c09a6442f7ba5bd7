"""Named verification suites: every identity re-checked on its stated range.

Each suite runs one or more checks and yields a ``Report`` per check: the
identity's name, the parameter range actually covered, how many instances
were evaluated, and the first counterexample if any instance failed.  The
suites never trust a formula: one side of every comparison is either a
brute-force oracle or an independently computed route.

Each suite that reads a full naive scan reads it inside one
``enumeration.scan_once`` block, so every scan is made once per suite run:
thm1_1's partitions read one scan of family A's candidates, grown to the
largest universe they read, {1..17} by default, and so do rec3_1's.
thm1_1 checks each diagonal count a(n, n) of ``count_family_a``'s split
tally against 2F(n), and up to that universe against the count its
candidate scan gives too.  thm1_4 scans each pinned level once for its
cross-checks and partitions.  A block never spans two suites.  The oracle
counts of prop3_1 and mpq are split tallies, whose half scans are small
and never kept, so those suites open no block: mpq counts the masks of all
its 9 x n_max tallies against the size cap before the first.  eq1_2 tests
the oracle's own mask rule against the Schreier classes worked out from the
bits of every subset of its universe, one whole row of masks per k; only a
row that differs is searched, for the first failing (E, k) with E outside
and k inside.
``all`` runs every suite once: the eq3_10 and eq1_2 reports that identities
includes are served from the runs ``all`` has just made whenever their
ranges are the same.

Every listing route, structured or naive, gives its members as plain
element tuples, which the suites compare as they are: thm1_4 checks each
pinned level of ``stream_family_k`` against ``enumerate_family_k``.  So a
suite builds a ``FiniteSet`` only to name a counterexample.

The randomized checks (the seeded partial-sum difference lemmas) draw their
seed vectors and input sequences from ``random.Random`` with the fixed
default seed below, so failures reproduce; the seed can be overridden.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .bijections import _set_of, verify_partition
from .closed_forms import (
    band_count,
    closed_count,
    closed_table,
    diagonal_count,
    diagonal_double_sum,
    family_k_case_counts,
    family_k_count,
    ratio_recurrence,
    recurrence_table,
)
from .core import binom, fib, fib_binom_convolution
from .enumeration import (
    _a_member_masks,
    _scan,
    _split_parts,
    _zero_weight_masks,
    count_family_a,
    count_family_a_grid,
    count_ratio_family,
    enumerate_family_k,
    require_scan_within_cap,
    require_within_cap,
    scan_once,
    stream_family_a,
    stream_family_k,
)
from .errors import DomainError
from .partial_sums import (
    fib_partial_sum_closed,
    iterated_partial_sum,
    repeated_partial_sum,
)

DEFAULT_SEED = 170339
RANDOM_TRIALS = 50
ENTRY_RANGE = 100  # pseudo-random entries are drawn from [-100, 100]


@dataclass(frozen=True)
class Report:
    """Outcome of one verification check over a parameter range."""

    identity: str
    params: str
    passed: bool
    checks: int
    counterexample: Optional[str] = None

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.identity} [{self.params}] ({self.checks} checks)"
        if not self.passed and self.counterexample:
            line += f": first counterexample {self.counterexample}"
        return line


def _mismatch(desc: str, got: object, want: object) -> str:
    """How a report names its first failing instance."""
    return f"{desc}: got {got}, expected {want}"


def _run_checks(
    identity: str, params: str, cases: Iterable[tuple]
) -> Report:
    """Evaluate (description, got, want) triples; first mismatch wins.  A
    range with no instance in it checks nothing, so it does not pass."""
    checks = 0
    failure: Optional[str] = None
    for desc, got, want in cases:
        checks += 1
        if failure is None and got != want:
            failure = _mismatch(desc, got, want)
    if checks == 0:
        failure = "no instance in range"
    return Report(identity, params, failure is None, checks, failure)


# -- individual suites -------------------------------------------------------


def suite_thm1_1(n_max=None, k_max=None, seed=None) -> list[Report]:
    enum_top = n_max if n_max is not None else 22
    formula_top = n_max if n_max is not None else 500
    part_top = n_max if n_max is not None else 16
    # The partition at level n scans the (n+1)-diagonal; the split tallies
    # of the diagonal counts check their own cap.
    scan_top = part_top + 1
    require_scan_within_cap(scan_top, "suite thm1_1")

    def diagonal_cases():
        # The split tally's count, and up to scan_top the candidate scan's.
        for n in range(1, enum_top + 1):
            got, want = count_family_a(n, n), diagonal_count(n)
            if n <= scan_top:
                masks = _a_member_masks(n, n, "suite thm1_1")
                got, want = (got, len(masks)), (want, want)
            yield (f"n={n}", got, want)

    # The partitions and the diagonal's mask counts read one scan of family
    # A's candidates.
    with scan_once():
        partition = _run_checks(
            "diagonal-partition",
            f"n=2..{part_top}",
            (
                (f"n={n}", verify_partition("thm1_1", n).ok, True)
                for n in range(2, part_top + 1)
            ),
        )
        diagonal = _run_checks(
            "diagonal-count-vs-enumeration", f"n=1..{enum_top}", diagonal_cases()
        )
    return [
        diagonal,
        _run_checks(
            "diagonal-closed-vs-double-sum-vs-2fib",
            f"n=1..{formula_top}",
            (
                (
                    f"n={n}",
                    (closed_count(n, n), diagonal_double_sum(n)),
                    (2 * fib(n), 2 * fib(n)),
                )
                for n in range(1, formula_top + 1)
            ),
        ),
        partition,
    ]


def suite_thm1_2(n_max=None, k_max=None, seed=None) -> list[Report]:
    n_top = n_max if n_max is not None else 20
    k_top = k_max if k_max is not None else 12

    def cases():
        # closed_table is the route `table` serves; each cell is also checked.
        grid = count_family_a_grid(k_top, n_top)
        served = closed_table(k_top, n_top)
        for k in range(1, k_top + 1):
            for n in range(1, n_top + 1):
                want = grid[k - 1][n - 1]
                got = (closed_count(k, n), served[k - 1][n - 1], stream_family_a(k, n)[0])
                yield (f"k={k} n={n}", got, (want, want, want))

    expansion = _run_checks(
        "worked-expansion-(4,10)",
        "k=4 n=10",
        [
            ("convolution part", 2 * sum(binom(6, i) * fib(4 - i) for i in range(3)), 60),
            ("top binomial part", 2 * binom(6, 3), 40),
            ("tail part j=5", binom(5, 5), 1),
            ("tail part j=6", binom(6, 4), 15),
            ("tail other j", sum(binom(j, 10 - j) for j in (1, 2, 3, 4)), 0),
            ("total", closed_count(4, 10), 116),
        ],
    )
    return [
        _run_checks("closed-vs-both-oracles", f"k=1..{k_top} n=1..{n_top}", cases()),
        expansion,
    ]


def suite_thm1_3(n_max=None, k_max=None, seed=None) -> list[Report]:
    l_top = n_max if n_max is not None else 30
    k_top = k_max if k_max is not None else 400

    def cases():
        for l in range(0, l_top + 1):
            for k in range(l + 2, k_top + 1):
                want = 2 * fib(k + l)
                yield (
                    f"k={k} l={l}",
                    (band_count(k, l), closed_count(k, k + l)),
                    (want, want),
                )

    return [_run_checks("band-vs-closed-vs-2fib", f"l=0..{l_top} k=l+2..{k_top}", cases())]


def suite_thm1_4(n_max=None, k_max=None, seed=None) -> list[Report]:
    count_top = n_max if n_max is not None else 22
    case_top = n_max if n_max is not None else 22
    part_top = n_max if n_max is not None else 18
    claim_top = n_max if n_max is not None else 18
    # The checks read pinned levels 2..level_top: counts at n, case splits
    # at n + 1, claims at n - 1.  The partition at n scans levels up to
    # n + 1 with the naive oracle, the largest scan the suite makes.
    level_top = max(count_top, case_top + 1, claim_top - 1)
    require_scan_within_cap(part_top, "suite thm1_4")
    # The structured levels are checked against the oracle on the levels
    # that the partitions scan anyway.
    oracle_top = min(count_top, part_top + 1)

    # Each level is built once, as element tuples; only these small facts
    # outlive it.  The oracle's pinned levels are kept for the partitions.
    sizes, agrees, splits, min2_members, min3_sizes = {}, {}, {}, {}, {}
    with scan_once():
        for n in range(2, level_top + 1):
            members = list(stream_family_k(n)[1])
            if n <= oracle_top:
                agrees[n] = members == enumerate_family_k(n)
            has = Counter((2 in E, 3 in E) for E in members)
            sizes[n] = len(members)
            splits[n] = (has[True, True], has[True, False], has[False, True], has[False, False])
            min2_members[n] = [E for E in members if len(E) > 1 and E[0] == 2]
            min3_sizes[n] = [len(E) for E in members if len(E) > 1 and E[0] == 3]
            del members
        partition = _run_checks(
            "pinned-partition",
            f"n=3..{part_top}",
            (
                (f"n={n}", verify_partition("thm1_4", n).ok, True)
                for n in range(3, part_top + 1)
            ),
        )

    def case_cases():
        for n in range(3, case_top + 1):
            want = family_k_case_counts(n)
            yield (f"n={n}", splits[n + 1], want)
            yield (f"n={n} total", want.total, fib(n))
            yield (f"n={n} nonneg", min(want) >= 0, True)

    def claim_min2():
        for n in range(3, claim_top + 1):
            if n < 5:
                yield (f"n={n} vacuous", min2_members[n - 1], [])
            else:
                yield (f"n={n}", min2_members[n - 1], [(2, 3, n - 1)])

    def claim_min3():
        for n in range(3, claim_top + 1):
            got = min3_sizes[n - 1]
            if n < 6:
                yield (f"n={n} vacuous", got, [])
            else:
                yield (f"n={n}", got, [3] * len(got))

    def count_cases():
        for n in range(2, count_top + 1):
            want = family_k_count(n)
            if n in agrees:
                yield (f"n={n}", (sizes[n], agrees[n]), (want, True))
            else:
                yield (f"n={n}", sizes[n], want)

    return [
        _run_checks("pinned-count-vs-enumeration", f"n=2..{count_top}", count_cases()),
        _run_checks("pinned-case-split", f"n=3..{case_top}", case_cases()),
        partition,
        _run_checks("pinned-min2-members", f"n=3..{claim_top}", claim_min2()),
        _run_checks("pinned-min3-members", f"n=3..{claim_top}", claim_min3()),
    ]


def suite_prop3_1(n_max=None, k_max=None, seed=None) -> list[Report]:
    closed_top = n_max if n_max is not None else 300
    oracle_top = min(14, closed_top)

    def closed_cases():
        for n in range(1, closed_top + 1):
            for k in (n + 1, n + 2, 2 * n + 1):
                yield (f"k={k} n={n}", closed_count(k, n), fib(n + 1))

    def oracle_cases():
        for n in range(1, oracle_top + 1):
            for k in (n + 1, n + 3):
                want = fib(n + 1)
                yield (
                    f"k={k} n={n}",
                    (count_family_a(k, n), stream_family_a(k, n)[0]),
                    (want, want),
                )

    return [
        _run_checks("beyond-diagonal-closed", f"n=1..{closed_top}, k>n", closed_cases()),
        _run_checks("beyond-diagonal-oracle", f"n=1..{oracle_top}, k>n", oracle_cases()),
    ]


def suite_rec3_1(n_max=None, k_max=None, seed=None) -> list[Report]:
    table_k = k_max if k_max is not None else 12
    table_n = n_max if n_max is not None else 40
    part_k = k_max if k_max is not None else 8
    part_n = n_max if n_max is not None else 16
    if part_k >= 2 and part_n >= 3:
        require_scan_within_cap(part_n, "suite rec3_1")

    def table_cases():
        grid = recurrence_table(table_k, table_n)
        for k in range(2, table_k + 1):
            for n in range(max(k, 2) + 1, table_n + 1):
                yield (f"k={k} n={n}", grid[k - 1][n - 1], closed_count(k, n))

    def part_cases():
        for k in range(2, part_k + 1):
            for n in range(max(k, 2) + 1, part_n + 1):
                yield (f"k={k} n={n}", verify_partition("rec3_1", n, k=k).ok, True)

    table = _run_checks(
        "recurrence-interior-vs-closed",
        f"k=2..{table_k} n=1..{table_n}",
        table_cases(),
    )
    with scan_once():
        partition = _run_checks("column-partition", f"k=2..{part_k} n<= {part_n}", part_cases())
    return [table, partition]


def _random_vectors(seed: int, k_top: int, n_top: int):
    rng = random.Random(seed)
    for trial in range(RANDOM_TRIALS):
        b = [rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(k_top)]
        a = [rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n_top + 1)]
        yield trial, b, a


def suite_lemma3_3(n_max=None, k_max=None, seed=None) -> list[Report]:
    n_top = n_max if n_max is not None else 60
    k_top = k_max if k_max is not None else 12
    rng_seed = seed if seed is not None else DEFAULT_SEED

    def cases():
        for trial, b, a in _random_vectors(rng_seed, k_top, n_top):
            zero_route = {
                k: repeated_partial_sum(a, k) for k in range(1, k_top + 1)
            }
            for k in range(1, k_top + 1):
                seeds = b[:k]
                seeded = iterated_partial_sum(seeds, a)
                plain = zero_route[k]
                for n in range(0, n_top + 1):
                    want = sum(binom(n, i) * seeds[k - 1 - i] for i in range(k))
                    yield (
                        f"trial={trial} k={k} n={n}",
                        seeded[n] - plain[n],
                        want,
                    )

    return [
        _run_checks(
            "seeded-difference",
            f"k=1..{k_top} n=0..{n_top} trials={RANDOM_TRIALS} seed={rng_seed}",
            cases(),
        )
    ]


def suite_lemma3_4(n_max=None, k_max=None, seed=None) -> list[Report]:
    n_top = n_max if n_max is not None else 60
    k_top = k_max if k_max is not None else 12
    rng_seed = seed if seed is not None else DEFAULT_SEED

    def cases():
        for trial, _b, a in _random_vectors(rng_seed, k_top, n_top):
            bumped = [x + 1 for x in a]
            for k in range(1, k_top + 1):
                base = repeated_partial_sum(a, k)
                lifted = repeated_partial_sum(bumped, k)
                for m in range(0, n_top + 1):
                    yield (
                        f"trial={trial} k={k} m={m}",
                        lifted[m] - base[m],
                        binom(m, k),
                    )

    return [
        _run_checks(
            "term-bump-difference",
            f"k=1..{k_top} m=0..{n_top} trials={RANDOM_TRIALS} seed={rng_seed}",
            cases(),
        )
    ]


def suite_lemma3_5(n_max=None, k_max=None, seed=None) -> list[Report]:
    l_top = n_max if n_max is not None else 60
    k_top = k_max if k_max is not None else 12
    fib_prefix = [fib(i) for i in range(l_top + 2)]
    shifted = [fib(i + 2) for i in range(l_top + 1)]

    def cases():
        for k in range(0, k_top + 1):
            plain = repeated_partial_sum(fib_prefix, k)
            lifted = repeated_partial_sum(shifted, k)
            for l in range(0, l_top + 1):
                yield (f"k={k} l={l}", lifted[l], plain[l] + plain[l + 1])

    return [_run_checks("shifted-fib-transform", f"k=0..{k_top} l=0..{l_top}", cases())]


def suite_eq3_8(n_max=None, k_max=None, seed=None) -> list[Report]:
    l_top = n_max if n_max is not None else 20
    k_top = k_max if k_max is not None else 10
    first_row = [closed_count(1, j + 1) for j in range(l_top + 1)]

    def cases():
        for k in range(2, k_top + 1):
            transformed = repeated_partial_sum(first_row, k - 1)
            for l in range(0, l_top + 1):
                want = sum(
                    binom(l, i) * closed_count(k - i, k - i) for i in range(k - 1)
                )
                yield (
                    f"k={k} l={l}",
                    closed_count(k, k + l) - transformed[l],
                    want,
                )

    return [
        _run_checks(
            "column-minus-transformed-first-row",
            f"k=2..{k_top} l=0..{l_top}",
            cases(),
        )
    ]


def suite_eq3_9(n_max=None, k_max=None, seed=None) -> list[Report]:
    l_top = n_max if n_max is not None else 60
    k_top = k_max if k_max is not None else 12
    fib_prefix = [fib(i) for i in range(l_top + 1)]

    def cases():
        for k in range(0, k_top + 1):
            route = repeated_partial_sum(fib_prefix, k)
            for l in range(0, l_top + 1):
                yield (f"k={k} l={l}", fib_partial_sum_closed(k, l), route[l])

    return [
        _run_checks(
            "fib-transform-closed-vs-operator", f"k=0..{k_top} l=0..{l_top}", cases()
        )
    ]


def suite_eq1_2(n_max=None, k_max=None, seed=None) -> list[Report]:
    universe = n_max if n_max is not None else 14
    k_top = k_max if k_max is not None else 10
    require_scan_within_cap(universe, "suite eq1_2")
    checks = require_within_cap(
        (k_top << universe,), f"suite eq1_2: {k_top} x 2^{universe} membership checks"
    )
    # The decomposition, read off the bits: the empty set and the
    # nonmaximal sets (min > size) are members for every k, a maximal set
    # (min = size) for the k it holds.
    settled, maximal = {0}, []
    for m in range(1, 1 << universe):
        low, size = (m & -m).bit_length(), m.bit_count()
        if low > size:
            settled.add(m)
        elif low == size:
            maximal.append(m)

    # Each k compares the oracle's whole row with the decomposition's; a
    # row that differs offers its least mask, and the least (mask, k) is the
    # first failure with E outside and k inside.
    first, failure = 1 << universe, None
    for k in range(1, k_top + 1):
        got = {0, *_zero_weight_masks((k,), universe, _scan(0, universe, "suite eq1_2"))}
        want = settled.union(m for m in maximal if m >> (k - 1) & 1)
        if got != want and (m := min(got ^ want)) < first:
            first, failure = m, _mismatch(f"k={k} E={_set_of(m)}", m in got, m in want)
    return [
        Report(
            "weighted-family-decomposition",
            f"k=1..{k_top}, E within {{1..{universe}}}",
            failure is None,
            checks,
            failure,
        )
    ]


def suite_eq3_10(n_max=None, k_max=None, seed=None) -> list[Report]:
    l_top = n_max if n_max is not None else 25
    k_desc = str(k_max) if k_max is not None else "l+200"

    def cases():
        for l in range(0, l_top + 1):
            k_top = k_max if k_max is not None else l + 200
            for k in range(l + 2, k_top + 1):
                yield (f"k={k} l={l}", fib_binom_convolution(k, l), fib(k + l))

    return [
        _run_checks("fib-binom-collapse", f"l=0..{l_top} k=l+2..{k_desc}", cases())
    ]


def suite_mpq(n_max=None, k_max=None, seed=None) -> list[Report]:
    n_top = n_max if n_max is not None else 18
    families = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
    # Each family's oracle count at level n is a split tally of {1..n-1}.
    require_within_cap(
        (len(families) * part for n in range(1, n_top + 1) for part in _split_parts(n - 1)),
        f"suite mpq: {len(families)} x {n_top} split scans",
    )
    return [
        _run_checks(
            f"ratio-recurrence-p{p}q{q}",
            f"n=1..{n_top}",
            (
                (f"p={p} q={q} n={n}", ratio_recurrence(p, q, n), count_ratio_family(p, q, n))
                for n in range(1, n_top + 1)
            ),
        )
        for p, q in families
    ]


def _identities(
    n_max: Optional[int],
    k_max: Optional[int],
    run: Callable[[str, Optional[int], Optional[int]], list[Report]],
) -> list[Report]:
    """The identities suite, with ``run(name, n_max, k_max)`` giving the
    reports of the suites it includes."""
    hs_top = n_max if n_max is not None else 60
    diag_top = n_max if n_max is not None else 200

    def hockey_cases():
        for n in range(0, hs_top + 1):
            for m in range(0, n + 1):
                yield (
                    f"m={m} n={n}",
                    sum(binom(i, m) for i in range(m, n + 1)),
                    binom(n + 1, m + 1),
                )

    def diagonal_cases():
        for n in range(0, diag_top + 1):
            yield (
                f"n={n}",
                sum(binom(n - k, k) for k in range(0, n // 2 + 1)),
                fib(n + 1),
            )

    reports = [
        _run_checks("hockey-stick", f"0<=m<=n<={hs_top}", hockey_cases()),
        _run_checks("fib-antidiagonal", f"n=0..{diag_top}", diagonal_cases()),
    ]
    reports.extend(run("eq3_10", n_max, k_max))
    reports.extend(run("eq1_2", min(n_max, 14) if n_max is not None else None, k_max))
    return reports


def suite_identities(n_max=None, k_max=None, seed=None) -> list[Report]:
    return _identities(n_max, k_max, lambda name, n, k: SUITES[name](n_max=n, k_max=k))


def suite_all(n_max=None, k_max=None, seed=None) -> list[Report]:
    # identities includes eq3_10 and eq1_2; their reports are served from
    # the runs made here whenever the ranges are the same.
    runs: dict[tuple[str, Optional[int], Optional[int]], list[Report]] = {}

    def run(name: str, n: Optional[int], k: Optional[int]) -> list[Report]:
        if (name, n, k) not in runs:
            runs[name, n, k] = SUITES[name](n_max=n, k_max=k, seed=seed)
        return runs[name, n, k]

    reports = []
    for name in SUITE_ORDER:
        if name == "identities":
            reports.extend(_identities(n_max, k_max, run))
        else:
            reports.extend(run(name, n_max, k_max))
    return reports


SUITES: dict[str, Callable[..., list[Report]]] = {
    "thm1_1": suite_thm1_1,
    "thm1_2": suite_thm1_2,
    "thm1_3": suite_thm1_3,
    "thm1_4": suite_thm1_4,
    "prop3_1": suite_prop3_1,
    "rec3_1": suite_rec3_1,
    "lemma3_3": suite_lemma3_3,
    "lemma3_4": suite_lemma3_4,
    "lemma3_5": suite_lemma3_5,
    "eq3_8": suite_eq3_8,
    "eq3_9": suite_eq3_9,
    "eq1_2": suite_eq1_2,
    "eq3_10": suite_eq3_10,
    "mpq": suite_mpq,
    "identities": suite_identities,
    "all": suite_all,
}
SUITE_ORDER = tuple(name for name in SUITES if name != "all")


def run_suite(
    name: str,
    n_max: Optional[int] = None,
    k_max: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[Report]:
    """Run a named suite and return its reports.  Range overrides must be >= 1."""
    if name not in SUITES:
        raise DomainError(f"run_suite: unknown suite {name!r}")
    for flag, value in (("n_max", n_max), ("k_max", k_max)):
        if value is not None and value < 1:
            raise DomainError(f"run_suite: {flag} must be >= 1, got {value}")
    return SUITES[name](n_max=n_max, k_max=k_max, seed=seed)

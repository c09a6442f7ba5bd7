"""Seeded request lists for the three benchmark workloads.

A pass is a fixed list of CLI requests made from the seed.  Each workload is
stratified: the parameter that sets the cost of each slot (table size band,
sequence length band, universe size n) is fixed, and the seed picks the rest
(k, p and q, exact sizes inside a band, output format, request order).  So
different seeds send different argument vectors while a pass costs about the
same, which keeps the end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``kind`` selects the output check, ``argv`` is
    what the program receives."""

    kind: str
    argv: tuple[str, ...]


def _table(k_max: int, n_max: int, source: str, fmt: str) -> Request:
    return Request(
        "table",
        ("table", "--k-max", str(k_max), "--n-max", str(n_max),
         "--source", source, "--format", fmt),
    )


def _sequence(name: str, n_max: int, fmt: str) -> Request:
    return Request("sequence", ("sequence", "--name", name, "--n-max", str(n_max), "--format", fmt))


GOLDEN = Request("golden", ("table", "--k-max", "7", "--n-max", "16", "--format", "csv"))


def verify_all(rng: random.Random) -> list[Request]:
    """The paper's central use: every suite at its default ranges."""
    return [Request("verify", ("verify", "--suite", "all", "--seed", str(rng.randrange(1, 10**6))))]


def counts(rng: random.Random) -> list[Request]:
    """Numbers served from formulas: tables from both sources, long
    sequences whose terms have thousands of digits, and the golden table."""
    # Five recurrence tables of like cost hold the median request, and the
    # mid closed table with the long sequences holds p75, so neither figure
    # jumps between request types from one seed to the next.
    reqs = [
        _table(rng.randint(245, 260), rng.randint(245, 260), "closed", rng.choice(FORMATS)),
        _table(rng.randint(150, 160), rng.randint(150, 160), "closed", rng.choice(FORMATS)),
    ]
    reqs += [
        _table(rng.randint(240, 260), rng.randint(240, 260), "recurrence", rng.choice(FORMATS))
        for _ in range(5)
    ]
    # The long a-diag sequence in json sets the pass's peak RSS (its terms are
    # fresh ints, where fib and k-count share cached ones), so it is sent
    # whatever the seed; the other formats are dealt out by the seed.
    long_fmts = ["json"] + rng.sample(("text", "csv"), 2)
    short_fmts = rng.sample(FORMATS, len(FORMATS))
    for name, long_fmt, short_fmt in zip(("a-diag", "k-count", "fib"), long_fmts, short_fmts):
        reqs.append(_sequence(name, rng.randint(11_800, 12_000), long_fmt))
        reqs.append(_sequence(name, rng.randint(2_000, 3_000), short_fmt))
    reqs += [
        _table(rng.randint(5, 40), rng.randint(5, 40),
               rng.choice(("closed", "recurrence")), rng.choice(FORMATS))
        for _ in range(4)
    ]
    reqs.append(GOLDEN)
    rng.shuffle(reqs)
    return reqs


def _enumerate(fmt: str, family: str, **params: int) -> Request:
    argv = ["enumerate", "--family", family]
    for key in ("k", "p", "q", "n"):
        if key in params:
            argv += [f"--{key}", str(params[key])]
    return Request("enumerate", tuple(argv + ["--format", fmt]))


def enumerate_mix(rng: random.Random) -> list[Request]:
    """Members built, sorted and rendered: family A on both sides of the
    naive/structured route switch at n = 24, family K, and all nine ratio
    families mpq(p, q) with p, q in 1..3.  The member count of mpq grows
    steeply with n and q/p, so n is fixed there."""
    # The member count of A(k, n) is within a few percent of flat for
    # k >= 6 (k >= 8 past n = 24), so a slot's cost and the pass's peak RSS,
    # set by the n = 26 request, do not swing with the seed.
    reqs = [_enumerate(rng.choice(FORMATS), "A", k=rng.randint(6, n), n=n) for n in range(18, 23)]
    reqs.append(_enumerate(rng.choice(FORMATS), "A", k=rng.randint(8, 16), n=25))
    reqs.append(_enumerate("json", "A", k=rng.randint(8, 16), n=26))
    reqs += [_enumerate(rng.choice(FORMATS), "K", n=n) for n in range(18, 23)]
    reqs += [
        _enumerate(rng.choice(FORMATS), "mpq", p=p, q=q, n=18)
        for p in (1, 2, 3)
        for q in (1, 2, 3)
    ]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "verify-all": verify_all,
    "counts": counts,
    "enumerate": enumerate_mix,
}


def requests_for(workload: str, seed: int) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

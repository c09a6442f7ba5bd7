"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import statistics
from collections import Counter

import pytest

import run
from checks import CheckError, Checker
from spans import layer_metrics, self_times
from workloads import WORKLOADS, Request, requests_for


def _request_type(req: Request) -> str:
    opts = dict(zip(req.argv[1::2], req.argv[2::2]))
    return ":".join([req.kind, opts.get("--family", opts.get("--name", ""))])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_request_list_is_made_from_the_seed(workload):
    first = json.dumps([r.argv for r in requests_for(workload, 7)])
    assert json.dumps([r.argv for r in requests_for(workload, 7)]) == first
    other = requests_for(workload, 8)
    assert json.dumps([r.argv for r in other]) != first
    assert Counter(map(_request_type, other)) == Counter(map(_request_type, requests_for(workload, 7)))


@pytest.fixture(scope="module")
def served():
    """Real responses, validated once by a checker of their own."""
    reqs = [
        Request("table", ("table", "--k-max", "9", "--n-max", "12", "--source", "closed", "--format", "text")),
        Request("sequence", ("sequence", "--name", "a-diag", "--n-max", "40", "--format", "csv")),
        Request("enumerate", ("enumerate", "--family", "A", "--k", "3", "--n", "9", "--format", "text")),
        Request("enumerate", ("enumerate", "--family", "K", "--n", "11", "--format", "csv")),
        Request("enumerate", ("enumerate", "--family", "mpq", "--p", "1", "--q", "2", "--n", "9", "--format", "json")),
    ]
    checker = Checker(run.ROOT)
    out = []
    for req in reqs:
        outcome = run.spawn(run.program_command(req.argv))
        assert checker.check(req, outcome.code, outcome.stdout) > 0
        out.append((req, outcome.stdout))
    return out


def _flip_last_digit(text: bytes) -> bytes:
    i = max(text.rfind(bytes([d])) for d in b"123456789")
    return text[:i] + (b"1" if text[i:i + 1] != b"1" else b"2") + text[i + 1:]


def test_a_flipped_digit_is_caught(served):
    for req, stdout in served:
        with pytest.raises(CheckError):
            Checker(run.ROOT).check(req, 0, _flip_last_digit(stdout))


def test_a_dropped_member_is_caught(served):
    for req, stdout in served:
        if req.kind != "enumerate":
            continue
        if b'"sets"' in stdout:
            payload = json.loads(stdout)
            del payload["sets"][len(payload["sets"]) // 2]
            payload["count"] -= 1
            broken = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        else:
            lines = stdout.splitlines(keepends=True)
            broken = b"".join(lines[:3] + lines[4:])
        with pytest.raises(CheckError):
            Checker(run.ROOT).check(req, 0, broken)


def test_a_repeated_request_must_repeat_its_output(served):
    checker = Checker(run.ROOT)
    req, stdout = served[0]
    checker.check(req, 0, stdout)
    with pytest.raises(CheckError):
        checker.check(req, 0, stdout.replace(b"  ", b" ", 1))


def test_known_defect_counts_as_a_failed_request():
    # str() of an int past 4300 digits raises ValueError on Python >= 3.11,
    # and the CLI exits 1 with a traceback, the code meant for a counterexample.
    req = Request("sequence", ("sequence", "--name", "fib", "--n-max", "21000", "--format", "text"))
    outcome, items, error = run.run_request(req, Checker(run.ROOT))
    assert outcome.code == 1 and b"ValueError" in outcome.stderr
    assert error is not None and items == 0
    result = run.run_pass([req], Checker(run.ROOT), traced=False, pass_no=0)
    assert result.failed == 1
    assert result.items == 0
    assert len(result.latencies) == 1


def test_self_times_add_up_to_each_request():
    argv = ["verify", "--suite", "thm1_4", "--n-max", "14"]
    traced = run.spawn(argv, trace_id="selftest")
    assert traced.code == 0 and traced.spans
    spans = traced.spans
    own = self_times(spans)
    root = spans[0][2] - spans[0][1]
    assert spans[0][0] == "cli.main"
    assert all(0 <= o <= end - start for o, (_, start, end, _, _) in zip(own, spans))
    assert sum(own) == root
    assert root / 1e9 <= traced.wall_s
    # Outside the root span the worker only starts, imports and wraps.
    startup = statistics.median(run.measure_setup(5)[0])
    assert traced.wall_s - root / 1e9 <= 3 * startup
    m = layer_metrics([(spans, 1.0)])
    assert m["verify.checks"] == (13 + 3 * 12 + 12 + 12 + 12, "count")
    assert m["bijections.calls.thm1_4"] == (12, "count")
    assert m["enumeration.naive_scans"][0] > 0
    assert m["closed_forms.closed_count_calls"] == (0, "count")

"""Benchmark of the ``schreier`` command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-all|counts|enumerate \\
        --seed N --seconds S --trace 0|1

One closed-loop client sends the seeded requests of a pass one after the
other, each in its own ``python -m schreier`` process, and repeats the pass
until the time is spent.  Every response is checked (see checks.py) after
the request has ended, so checking is outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, where each request runs in a worker that
records layer spans (see spans.py), and prints the per-layer metrics.  The
last line of stdout is one JSON object; the lines before it give every
figure with its unit, the sample sizes and the percentiles used.  The exit
code is 1 when any request failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import CheckError, Checker  # noqa: E402
from spans import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Request, requests_for  # noqa: E402

REQUEST_TIMEOUT_S = 120
# Times are reported at reference speed: scaled by REFERENCE_NS over the
# median time launch.py's reference loop took around the requests and set-up
# samples of the run.  Raw times are printed alongside.
REFERENCE_NS = 10_000_000
SETUP_PER_PASS = 6
TAIL_LADDER = (99, 95, 90, 75, 50)
SETUP_CODE = "import schreier.cli as c; c.build_parser()"


def request_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("SCHREIER_MAX_ORACLE_N", None)  # keep the default naive/structured switch
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as installed
    return env


@dataclass
class Outcome:
    """One finished process, as measured by launch.py."""

    code: int | None  # None when the harness had to kill it
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    speed: float  # REFERENCE_NS over the reference loop's time
    spans: list | None = None


def _drain(stream, sink: list) -> threading.Thread:
    def read():
        with stream:
            sink.append(stream.read())

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread


def spawn(cmd: list[str], trace_id: str | None = None) -> Outcome:
    """Run cmd through launch.py.  With ``trace_id``, cmd is a CLI argument
    vector that runs in the span worker, and the outcome carries its spans."""
    traced = trace_id is not None
    report_r, report_w = os.pipe()
    pass_fds = [report_w]
    if traced:
        span_r, span_w = os.pipe()
        pass_fds.append(span_w)
        cmd = [sys.executable, str(HERE / "spans.py"), str(span_w), trace_id, *cmd]
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(report_w), *cmd]
    proc = subprocess.Popen(
        launcher, stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds,
        env=request_env(), cwd=ROOT, start_new_session=True,
    )
    for fd in pass_fds:
        os.close(fd)
    out, err, span_data = [], [], []
    readers = [_drain(proc.stdout, out), _drain(proc.stderr, err)]
    if traced:
        readers.append(_drain(os.fdopen(span_r, "rb"), span_data))
    try:
        proc.wait(timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    for reader in readers:
        reader.join()
    with os.fdopen(report_r, "rb") as f:
        report = f.read().split()
    if len(report) != 6:
        return Outcome(None, out[0], err[0], float(REQUEST_TIMEOUT_S), 0.0, 0.0, 1.0)
    code, wall_ns, user, system, rss_kb, reference_ns = report
    spans = None
    if traced and span_data and span_data[0]:
        spans = json.loads(span_data[0])["spans"]
    return Outcome(
        int(code), out[0], err[0], int(wall_ns) / 1e9,
        float(user) + float(system), int(rss_kb) / 1024, REFERENCE_NS / int(reference_ns), spans,
    )


def program_command(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "schreier", *argv]


@dataclass
class PassResult:
    traced: bool
    raw_latencies: list[float] = field(default_factory=list)
    raw_cpus: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    items: int = 0
    out_bytes: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)  # (spans, raw wall_s) per traced request
    speed: float = 1.0  # the run's speed factor, set once the run has ended

    @property
    def latencies(self) -> list[float]:
        return [x * self.speed for x in self.raw_latencies]

    @property
    def cpus(self) -> list[float]:
        return [x * self.speed for x in self.raw_cpus]


def run_request(req: Request, checker: Checker, trace_id: str | None = None):
    """Send one request and check its response; returns (outcome, items, error)."""
    if trace_id is None:
        outcome = spawn(program_command(req.argv))
    else:
        outcome = spawn(list(req.argv), trace_id)
    try:
        items = checker.check(req, outcome.code, outcome.stdout)
    except CheckError as exc:
        return outcome, 0, f"{' '.join(req.argv)}: {exc}"
    return outcome, items, None


def run_pass(reqs: list[Request], checker: Checker, traced: bool, pass_no: int) -> PassResult:
    result = PassResult(traced)
    for i, req in enumerate(reqs):
        outcome, items, error = run_request(req, checker, f"{pass_no}.{i}" if traced else None)
        result.raw_latencies.append(outcome.wall_s)
        result.raw_cpus.append(outcome.cpu_s)
        result.speeds.append(outcome.speed)
        result.rss_mb = max(result.rss_mb, outcome.rss_mb)
        result.items += items
        result.out_bytes += len(outcome.stdout)
        if error is not None:
            result.failed += 1
            print(f"FAILED {error}", file=sys.stderr)
            if outcome.stderr:
                print(outcome.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
        if traced and outcome.spans is not None:
            result.spans.append((outcome.spans, outcome.wall_s))
    return result


def run_passes(reqs, checker, seconds: float, trace: bool) -> tuple[list[PassResult], list[float]]:
    """Repeat the pass (alternating untraced and traced when tracing) while
    another round is likely to end within ``seconds``.  Untraced runs sample
    set-up time before every pass and after the last, so its median spans
    the whole run.  The run's speed factor is the median over every
    reference-loop sample of the run."""
    kinds = (False, True) if trace else (False,)
    passes: list[PassResult] = []
    setup_rounds: list[tuple[list[float], list[float]]] = []
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not trace:
            setup_rounds.append(measure_setup(SETUP_PER_PASS))
        for traced in kinds:
            passes.append(run_pass(reqs, checker, traced, len(passes)))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) / 2 >= seconds:
            break
    if not trace:
        setup_rounds.append(measure_setup(SETUP_PER_PASS))
    speeds = [x for p in passes for x in p.speeds] + [x for _, sp in setup_rounds for x in sp]
    speed = statistics.median(speeds)
    for p in passes:
        p.speed = speed
    return passes, [t * speed for times, _ in setup_rounds for t in times]


def pass_time(passes: list[PassResult], attr: str = "latencies") -> float:
    """Time of one pass: the sum over its requests of each request's median
    over the passes, which damps bursts of machine noise within a run."""
    return sum(statistics.median(column) for column in zip(*(getattr(p, attr) for p in passes)))


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Raw wall times of fresh interpreters that import schreier and build
    the CLI parser, and the speed factor around each."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, speeds = [], []
    for _ in range(samples):
        outcome = spawn(cmd)
        if outcome.code != 0:
            raise SystemExit(f"set-up failed: {outcome.stderr.decode(errors='replace')}")
        times.append(outcome.wall_s)
        speeds.append(outcome.speed)
    return times, speeds


def tail_percentile(n: int) -> int | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return None


def _rank(p: int, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p in n samples."""
    return max(1, -(-p * n // 100))


def finite_set_replay(seed: int) -> tuple[float, float]:
    """ns per ``FiniteSet`` construction and per family predicate, replayed
    over a seeded sample of Schreier-shaped member tuples."""
    from schreier import FiniteSet, in_family_a, in_family_k, in_weighted_family

    rng = random.Random(f"finite_sets:{seed}")
    tuples = []
    for _ in range(4000):
        low = rng.randint(1, 12)
        rest = rng.sample(range(low + 1, 25), min(rng.randint(0, low), 24 - low))
        tuples.append(tuple([low] + sorted(rest)))
    ks = [rng.randint(1, 24) for _ in tuples]
    sets = [FiniteSet(t) for t in tuples]
    builds, predicates = [], []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for t in tuples:
            FiniteSet(t)
        t1 = time.perf_counter_ns()
        for E, k in zip(sets, ks):
            in_family_a(E, k, 24)
            in_family_k(E, E.max)
            in_weighted_family(E, k)
        t2 = time.perf_counter_ns()
        builds.append((t1 - t0) / len(tuples))
        predicates.append((t2 - t1) / (3 * len(sets)))
    return statistics.median(builds), statistics.median(predicates)


def end_to_end(passes: list[PassResult], setup: list[float]) -> tuple[dict, list[str]]:
    latencies = sorted(x for p in passes for x in p.latencies)
    n = len(latencies)
    tail = tail_percentile(n)
    tail_value = latencies[_rank(tail, n) - 1] if tail is not None else statistics.median(latencies)
    tail_label = f"p{tail}" if tail is not None else "the median (fewer than 20 requests)"
    wall = pass_time(passes)
    speeds = [x for p in passes for x in p.speeds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (pass_time(passes, "cpus"), "s"),
        "items_per_s": (statistics.median(p.items for p in passes) / wall, "1/s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    notes = [
        f"times at reference speed (launch.py's reference loop in {REFERENCE_NS / 1e6:g} ms): "
        f"raw times x the run's speed factor {passes[0].speed:.3f} (median of {len(speeds)} "
        f"request and {len(setup)} set-up samples; requests ranged {min(speeds):.3f}..{max(speeds):.3f}); "
        f"raw wall_s {pass_time(passes, 'raw_latencies'):.4g} s",
        f"setup_s: median of {len(setup)} interpreter starts",
        f"wall_s, cpu_s, items_per_s: per-request medians over {len(passes)} passes, summed",
        f"peak_rss_mb: median over {len(passes)} passes of the largest request",
        f"req_p50_s, req_tail_s: {n} request latencies; req_tail_s is {tail_label}",
    ]
    return metrics, notes


def per_layer(passes: list[PassResult], seed: int) -> tuple[dict, list[str]]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics([(spans, p.speed) for spans, _ in p.spans]) for p in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["cli.out_bytes"] = (statistics.median(p.out_bytes for p in traced), "bytes")
    build_ns, predicate_ns = finite_set_replay(seed)
    metrics["finite_sets.build_ns"] = (build_ns, "ns")
    metrics["finite_sets.predicate_ns"] = (predicate_ns, "ns")
    overhead = pass_time(traced) / pass_time(plain)
    metrics["trace.overhead"] = (overhead, "x")
    notes = [
        f"per-layer metrics: median over {len(traced)} traced passes "
        f"({sum(len(p.spans) for p in traced)} traced requests)",
        f"trace.overhead: traced over untraced wall_s, {len(plain)} untraced passes",
    ]
    notes += _span_consistency(traced)
    return metrics, notes


def _span_consistency(traced: list[PassResult]) -> list[str]:
    """Self times never exceed their span and add up to each request's root
    span; a request's root span never exceeds its wall time."""
    worst = 0.0
    for p in traced:
        for spans, wall in p.spans:
            own = self_times(spans)
            root = spans[0][2] - spans[0][1]
            if any(o < 0 or o > e - s for o, (_, s, e, _, _) in zip(own, spans)) or sum(own) != root:
                raise CheckError("span self times do not add up")
            if root / 1e9 > wall:
                raise CheckError("a root span is longer than its request")
            worst = max(worst, wall - root / 1e9)
    return [f"span check: self times add up per request; wall minus root span at most {worst:.4f} s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schreier" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'schreier'}", file=sys.stderr)
        return 2

    checker = Checker(ROOT)
    reqs = requests_for(args.workload, args.seed)
    measure_setup(1)  # may write bytecode caches; not counted
    passes, setup = run_passes(reqs, checker, args.seconds, bool(args.trace))
    attempted = sum(len(p.raw_latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics, notes = per_layer(passes, args.seed)
    else:
        metrics, notes = end_to_end(passes, setup)

    print(
        f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
        f"nproc {len(os.sched_getaffinity(0))}  trace {args.trace}  closed loop, 1 client"
    )
    print(f"{len(reqs)} requests per pass, {len(passes)} passes, {attempted} requests, "
          f"{failed} failed, fail_ratio {failed / attempted:g}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

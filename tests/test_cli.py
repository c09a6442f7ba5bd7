"""End-to-end CLI behaviour: golden output, formats, and exit codes."""

import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import schreier.core as core
from schreier import cli, enumeration
from schreier.closed_forms import ratio_recurrence
from schreier.enumeration import enumerate_family_a, enumerate_family_k, enumerate_ratio_family
from schreier.finite_sets import FiniteSet
from schreier.verify import SUITE_ORDER

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1.csv"
VERIFY_GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_all.txt"
VERIFY_SMALL_GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_all_small.txt"
ENUMERATE_GOLDENS = {
    "enumerate_a_3_9.txt": ["--family", "A", "--k", "3", "--n", "9", "--format", "text"],
    "enumerate_k_11.csv": ["--family", "K", "--n", "11", "--format", "csv"],
    "enumerate_mpq_1_2_9.json": ["--family", "mpq", "--p", "1", "--q", "2", "--n", "9",
                                 "--format", "json"],
}


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "schreier", *args],
        capture_output=True,
        timeout=120,
    )


def main_out(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table ---------------------------------------------------------------


@pytest.mark.parametrize("source", ["closed", "recurrence", "oracle"])
def test_table_csv_matches_golden_file(capsys, source):
    code, out, err = main_out(
        capsys,
        ["table", "--k-max", "7", "--n-max", "16", "--source", source, "--format", "csv"],
    )
    assert code == 0
    assert err == ""
    assert out == GOLDEN.read_text()


def test_table_subprocess_is_byte_stable():
    args = ["table", "--k-max", "7", "--n-max", "16", "--source", "closed", "--format", "csv"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout == GOLDEN.read_bytes()
    assert first.stdout.endswith(b"\n")
    assert b"\r" not in first.stdout


def test_table_json_layout(capsys):
    code, out, _ = main_out(
        capsys,
        ["table", "--k-max", "7", "--n-max", "16", "--format", "json"],
    )
    assert code == 0
    assert out.startswith('{"k_max":7,"n_max":16,"source":"closed","cells":[[')
    assert out.endswith("]]}\n")
    assert out.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_closed_table_equals_recurrence_table(capsys, fmt):
    def table(source):
        argv = ["table", "--k-max", "40", "--n-max", "45", "--source", source, "--format", fmt]
        code, out, err = main_out(capsys, argv)
        assert (code, err) == (0, ""), source
        return json.loads(out)["cells"] if fmt == "json" else out

    assert table("closed") == table("recurrence")


def test_table_text_single_cell(capsys):
    code, out, _ = main_out(
        capsys,
        ["table", "--k-max", "1", "--n-max", "1", "--source", "oracle", "--format", "text"],
    )
    assert code == 0
    assert out == "k\\n  1\n  1  2\n"


# -- enumerate -----------------------------------------------------------


def test_enumerate_family_a_formats(capsys):
    base = ["enumerate", "--family", "A", "--k", "2", "--n", "3"]
    code, out, _ = main_out(capsys, base)
    assert code == 0
    assert out == "{}\n{2}\n{3}\n{2,3}\n"

    code, out, _ = main_out(capsys, base + ["--format", "csv"])
    assert code == 0
    assert out == "\n2\n3\n2,3\n"

    code, out, _ = main_out(capsys, base + ["--format", "json"])
    assert code == 0
    assert out == '{"family":"A","k":2,"n":3,"count":4,"sets":[[],[2],[3],[2,3]]}\n'

    # A k past n weighs like none, however many bits it has.
    code, out, _ = main_out(capsys, ["enumerate", "--family", "A", "--k", str(10**12), "--n", "5"])
    assert code == 0
    assert len(out.splitlines()) == 8


def test_enumerate_family_k(capsys):
    code, out, _ = main_out(capsys, ["enumerate", "--family", "K", "--n", "5"])
    assert code == 0
    assert out == "{5}\n{2,3,5}\n{3,4,5}\n"

    code, out, _ = main_out(
        capsys, ["enumerate", "--family", "K", "--n", "6", "--format", "json"]
    )
    assert code == 0
    assert out == (
        '{"family":"K","n":6,"count":5,'
        '"sets":[[6],[2,3,6],[3,4,6],[3,5,6],[4,5,6]]}\n'
    )

    # Past the naive scan's reach (n = 25), served by the structured route.
    code, out, _ = main_out(
        capsys, ["enumerate", "--family", "K", "--n", "26", "--format", "csv"]
    )
    assert code == 0
    assert out.count("\n") == core.fib(25) == 75025


def test_enumerate_ratio_family(capsys):
    code, out, _ = main_out(
        capsys, ["enumerate", "--family", "mpq", "--p", "1", "--q", "1", "--n", "4"]
    )
    assert code == 0
    assert out == "{4}\n{2,4}\n{3,4}\n"

    # Past the naive scan's reach (n = 25), served by the structured route.
    code, out, _ = main_out(
        capsys,
        ["enumerate", "--family", "mpq", "--p", "3", "--q", "1", "--n", "30", "--format", "csv"],
    )
    assert code == 0
    assert out.count("\n") == ratio_recurrence(3, 1, 30)

    code, out, _ = main_out(
        capsys,
        ["enumerate", "--family", "mpq", "--p", "2", "--q", "1", "--n", "1", "--format", "json"],
    )
    assert code == 0
    assert out == '{"family":"mpq","p":2,"q":1,"n":1,"count":0,"sets":[]}\n'


def test_enumerate_renders_the_oracle_members(capsys):
    # Each format, written chunk by chunk, renders what the naive oracle
    # lists exactly as one json.dumps / str(FiniteSet) pass over it would.
    for argv, meta, members in (
        (["--family", "A", "--k", "3", "--n", "18"], {"family": "A", "k": 3, "n": 18},
         enumerate_family_a(3, 18)),
        (["--family", "K", "--n", "20"], {"family": "K", "n": 20},
         enumerate_family_k(20)),
        (["--family", "mpq", "--p", "1", "--q", "2", "--n", "16"],
         {"family": "mpq", "p": 1, "q": 2, "n": 16},
         enumerate_ratio_family(1, 2, 16)),
    ):
        assert len(members) > cli._CHUNK
        want = {
            "text": "".join(f"{FiniteSet(E)}\n" for E in members),
            "csv": "".join(",".join(str(x) for x in E) + "\n" for E in members),
            "json": json.dumps(
                {**meta, "count": len(members), "sets": [list(E) for E in members]},
                separators=(",", ":"),
            ) + "\n",
        }
        for fmt, text in want.items():
            code, out, _ = main_out(capsys, ["enumerate", *argv, "--format", fmt])
            assert (code, out) == (0, text), (argv, fmt)


@pytest.mark.parametrize("name", sorted(ENUMERATE_GOLDENS))
def test_enumerate_matches_golden_file(name):
    result = run_cli(["enumerate", *ENUMERATE_GOLDENS[name]])
    assert result.returncode == 0
    assert result.stdout == (GOLDEN.parent / name).read_bytes()


def test_enumerate_builds_no_finite_set(capsys, monkeypatch):
    # The command line renders the element tuples of the structured routes;
    # only the library's public stream_* wrap them in FiniteSets.
    built = 0
    check = FiniteSet.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(FiniteSet, "__post_init__", counted)
    for argv in (
        ["--family", "A", "--k", "3", "--n", "12"],
        ["--family", "K", "--n", "14"],
        ["--family", "mpq", "--p", "1", "--q", "2", "--n", "12"],
    ):
        for fmt in ("text", "csv", "json"):
            code, out, _ = main_out(capsys, ["enumerate", *argv, "--format", fmt])
            assert code == 0 and out, (argv, fmt)
    assert built == 0
    FiniteSet.of(1)  # the counter is live
    assert built == 1


class _Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "A", "--k", "8", "--n", "24", "--format", "json"],
        ["--family", "K", "--n", "26", "--format", "csv"],
        ["--family", "mpq", "--p", "1", "--q", "3", "--n", "18", "--format", "text"],
    ],
)
def test_enumerate_memory_stays_bounded(argv):
    # Members are written chunk by chunk as they are built, so the traced
    # heap stays at one chunk while the output runs to megabytes.
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            code = cli.main(["enumerate", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20, peak


def test_enumerate_into_a_closed_pipe_exits_zero():
    # The reader stops after one line of about 2.5 MB (`| head -1`); exit 1
    # would claim a counterexample.
    with subprocess.Popen(
        [sys.executable, "-m", "schreier", "enumerate", "--family", "A", "--k", "8", "--n", "24"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline() == b"{}\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize(
    "argv, want",
    [
        (["verify", "--suite", "thm1_4", "--n-max", "1"], 1),
        (["verify", "--suite", "eq3_9", "--n-max", "10", "--k-max", "3"], 0),
        (["table", "--k-max", "3", "--n-max", "5"], 0),
    ],
)
def test_a_closed_reader_changes_no_exit_code(argv, want):
    # Stdout is a pipe whose reader is gone before the first write: a suite
    # that found a counterexample still exits 1, and one that passed exits 0.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "schreier", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (want, b""), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "lemma3_5", "--n-max", "3000000", "--k-max", "1"],
        ["verify", "--suite", "thm1_3", "--n-max", "1", "--k-max", "1000000000"],
    ],
)
def test_running_out_of_memory_exits_3(argv):
    # Each request outgrows a 400 MB address space; exit 1 with a traceback
    # would claim a counterexample.
    limit = 400 << 20
    result = subprocess.run(
        [sys.executable, "-m", "schreier", *argv],
        capture_output=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (result.returncode, result.stdout) == (3, b""), argv
    assert b"Traceback" not in result.stderr
    assert result.stderr == b"schreier: out of memory\n"


# -- sequence ------------------------------------------------------------


def test_sequence_fib_text(capsys):
    code, out, _ = main_out(capsys, ["sequence", "--name", "fib", "--n-max", "5"])
    assert code == 0
    assert out == "0 0\n1 1\n2 1\n3 2\n4 3\n5 5\n"


def test_sequence_k_count_starts_at_two(capsys):
    code, out, _ = main_out(capsys, ["sequence", "--name", "k-count", "--n-max", "6"])
    assert code == 0
    assert out == "2 1\n3 1\n4 2\n5 3\n6 5\n"


def test_sequence_a_diag_csv(capsys):
    code, out, _ = main_out(
        capsys, ["sequence", "--name", "a-diag", "--n-max", "5", "--format", "csv"]
    )
    assert code == 0
    assert out == "n,value\n1,2\n2,2\n3,4\n4,6\n5,10\n"


def test_sequence_json(capsys):
    code, out, _ = main_out(
        capsys, ["sequence", "--name", "fib", "--n-max", "3", "--format", "json"]
    )
    assert code == 0
    assert out == '{"name":"fib","start":0,"values":[0,1,1,2]}\n'


def test_the_value_cap_admits_the_largest_benchmark_requests(capsys):
    for argv in (
        ["table", "--k-max", "260", "--n-max", "260", "--source", "closed", "--format", "csv"],
        ["table", "--k-max", "260", "--n-max", "260", "--source", "recurrence", "--format", "csv"],
        ["sequence", "--name", "a-diag", "--n-max", "12000", "--format", "json"],
    ):
        code, _, err = main_out(capsys, argv)
        assert (code, err) == (0, ""), argv
    # F(21000) has more than 4,300 digits, so only the values are built here.
    assert len(cli._sequence_values("fib", 21000)[1]) == 21001


# -- verify --------------------------------------------------------------


def test_verify_suite_passes(capsys):
    code, out, _ = main_out(
        capsys, ["verify", "--suite", "eq3_9", "--n-max", "10", "--k-max", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS fib-transform-closed-vs-operator")
    assert lines[-1] == "suite eq3_9: 1/1 checks passed (44 instances) OK"


def test_verify_all_matches_golden_file():
    result = run_cli(["verify", "--suite", "all"])
    assert result.returncode == 0
    assert result.stdout == VERIFY_GOLDEN.read_bytes()


def test_verify_all_with_range_overrides_matches_golden_file():
    # The overrides move thm1_1's scan and eq1_2's universe and k range off
    # their defaults.
    result = run_cli(["verify", "--suite", "all", "--n-max", "10", "--k-max", "4"])
    assert result.returncode == 0
    assert result.stdout == VERIFY_SMALL_GOLDEN.read_bytes()


def test_verify_identities_forwards_k_max_to_both_included_suites(capsys):
    code, out, _ = main_out(capsys, ["verify", "--suite", "identities", "--k-max", "3"])
    assert code == 0
    params = [line.split(" [")[1].split("]")[0] for line in out.splitlines()[:-1]]
    assert params[2:] == ["l=0..25 k=l+2..3", "k=1..3, E within {1..14}"]


def test_verify_failure_sets_exit_code(capsys):
    core.fib(30)
    saved = core._FIB[10]
    core._FIB[10] = saved + 1
    try:
        code, out, _ = main_out(
            capsys, ["verify", "--suite", "identities", "--n-max", "20"]
        )
    finally:
        core._FIB[10] = saved
    assert code == 1
    assert "FAIL" in out
    assert "first counterexample" in out
    assert out.rstrip().endswith("FAILED")


def test_verify_with_no_instance_in_range_fails(capsys):
    code, out, _ = main_out(capsys, ["verify", "--suite", "thm1_4", "--n-max", "1"])
    assert code == 1
    assert "(0 checks): first counterexample no instance in range" in out
    assert out.rstrip().endswith("FAILED")


def test_verify_rejects_range_overrides_below_one(capsys):
    for flag in ("--n-max", "--k-max"):
        for value in ("0", "-1"):
            code, out, err = main_out(
                capsys, ["verify", "--suite", "eq1_2", flag, value]
            )
            assert code == 2
            assert out == ""
            assert err.startswith("schreier: run_suite: ")


def test_suite_choices_are_the_suite_order_and_all():
    # The parser spells its suites out; the library derives them from SUITES.
    assert cli._SUITES == SUITE_ORDER + ("all",)
    help_text = run_cli(["verify", "--help"]).stdout.decode()
    assert "{" + ",".join(SUITE_ORDER + ("all",)) + "}" in help_text


# -- what each command loads ---------------------------------------------

# The modules that only verification reads.
_VERIFY_CHAIN = {
    "schreier.verify",
    "schreier.bijections",
    "schreier.partial_sums",
    "schreier.finite_sets",
}
_RUN_AND_LIST_MODULES = """
import contextlib, io, sys
from schreier import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sys.modules)
"""


def _modules_after(*args):
    """The exit code and sys.modules of a fresh interpreter run with args."""
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, check=True
    )
    code, *modules = result.stdout.split()
    return int(code), set(modules)


@pytest.fixture(scope="module")
def bare_modules():
    """The modules of a bare interpreter, before it runs anything."""
    return _modules_after("-c", "import sys; print(0, *sys.modules)")[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--family", "A", "--k", "3", "--n", "9"],
        ["enumerate", "--family", "K", "--n", "11", "--format", "csv"],
        ["enumerate", "--family", "mpq", "--p", "1", "--q", "2", "--n", "9", "--format", "json"],
        ["table", "--k-max", "4", "--n-max", "10", "--source", "closed"],
        ["table", "--k-max", "4", "--n-max", "10", "--source", "recurrence"],
        ["table", "--k-max", "4", "--n-max", "10", "--source", "oracle"],
        ["sequence", "--name", "a-diag", "--n-max", "30"],
        ["sequence", "--name", "k-count", "--n-max", "30"],
        ["sequence", "--name", "fib", "--n-max", "30"],
    ],
)
def test_commands_other_than_verify_load_no_verify_chain(argv, bare_modules):
    code, modules = _modules_after("-c", _RUN_AND_LIST_MODULES, *argv)
    assert code == 0
    assert "schreier.enumeration" in modules
    assert not modules & _VERIFY_CHAIN
    assert not (modules - bare_modules) & {"dataclasses", "inspect"}


_DRAIN_LISTINGS_AND_LIST_MODULES = """
import sys
from schreier.enumeration import (
    enumerate_family_a, enumerate_family_k, enumerate_ratio_family,
    stream_family_a, stream_family_k, stream_ratio_family,
)
listings = [
    list(stream_family_a(3, 9)[1]), list(stream_family_k(11)[1]),
    list(stream_ratio_family(1, 2, 9)[1]),
    enumerate_family_a(3, 9), enumerate_family_k(11), enumerate_ratio_family(1, 2, 9),
]
assert all(listings)
print(sum(type(E) is not tuple for members in listings for E in members), *sys.modules)
"""


def test_listing_routes_yield_element_tuples_and_load_no_finite_sets(bare_modules):
    # Every library listing, structured and naive, gives plain tuples, so
    # draining all six loads neither finite_sets nor dataclasses.
    non_tuples, modules = _modules_after("-c", _DRAIN_LISTINGS_AND_LIST_MODULES)
    assert non_tuples == 0
    assert "schreier.enumeration" in modules
    assert "schreier.finite_sets" not in modules
    assert "dataclasses" not in modules - bare_modules


def test_verify_loads_the_verify_chain():
    code, modules = _modules_after(
        "-c", _RUN_AND_LIST_MODULES, "verify", "--suite", "eq3_8", "--n-max", "10"
    )
    assert code == 0
    assert _VERIFY_CHAIN <= modules


# -- exit codes ----------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    code, _, err = main_out(capsys, ["enumerate", "--family", "A", "--n", "5"])
    assert code == 2
    assert err.startswith("schreier: ")

    code, _, err = main_out(
        capsys, ["enumerate", "--family", "K", "--n", "5", "--k", "2"]
    )
    assert code == 2
    assert "only --n" in err


def test_argparse_rejects_unknown_suite():
    result = run_cli(["verify", "--suite", "nope"])
    assert result.returncode == 2
    assert b"invalid choice" in result.stderr


def test_size_limit_exits_three(capsys):
    start = time.perf_counter()
    code, out, err = main_out(
        capsys, ["table", "--k-max", "1", "--n-max", "25", "--source", "oracle"]
    )
    assert time.perf_counter() - start < 1  # refused before the first cell
    assert code == 3
    assert out == ""
    assert err.startswith("schreier: ")


def test_mpq_suite_counts_its_split_scans_before_the_first(capsys, monkeypatch):
    # The nine families' split tallies of {1..n-1}, n <= n_max, visit more
    # than 2^24 masks in all from n_max = 38 on (16,515,027 at 37).
    scans = []
    monkeypatch.setattr(enumeration, "_scan", lambda *args: scans.append(args))
    for n_max in ("38", str(10**12)):
        start = time.perf_counter()
        code, out, err = main_out(capsys, ["verify", "--suite", "mpq", "--n-max", n_max])
        assert time.perf_counter() - start < 1, n_max
        assert (code, out) == (3, ""), n_max
        assert err.startswith("schreier: suite mpq: 9 x "), n_max
    assert scans == []


def test_oracle_table_is_counted_over_its_whole_grid(capsys, monkeypatch):
    # Before its one scan the grid counts the scan's 2**n_max subsets, then
    # its k_max * (F(n_max+2) - 1) predicate tests: 17016 * 986 is past the
    # cap, 3000 * 986 is not.
    scans = []
    masks = enumeration._scan
    monkeypatch.setattr(enumeration, "_scan", lambda *args: scans.append(args) or masks(*args))
    for k_max, n_max in (("1", "25"), ("17016", "14")):
        start = time.perf_counter()
        code, out, err = main_out(
            capsys,
            ["table", "--k-max", k_max, "--n-max", n_max, "--source", "oracle"],
        )
        assert time.perf_counter() - start < 1, (k_max, n_max)
        assert (code, out) == (3, ""), (k_max, n_max)
        assert err.startswith("schreier: count_family_a_grid: "), (k_max, n_max)
    assert scans == []
    tables = [
        main_out(capsys, ["table", "--k-max", "3000", "--n-max", "14", "--source", source])
        for source in ("oracle", "closed")
    ]
    assert tables[0][0] == 0
    assert tables[0][1] == tables[1][1]


@pytest.mark.parametrize("family", ["A", "K", "mpq"])
@pytest.mark.parametrize("flag", ["--k", "--p", "--q"])
def test_enumerate_rejects_each_missing_or_extra_flag(capsys, family, flag):
    takes = {"A": ("--k",), "K": (), "mpq": ("--p", "--q")}[family]
    given = set(takes) ^ {flag}  # the family's flags, with flag left out or added
    argv = ["enumerate", "--family", family, "--n", "5"]
    for f in sorted(given):
        argv += [f, "2"]
    code, out, err = main_out(capsys, argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith(f"schreier: enumerate: family {family} takes only "), argv


def test_oversized_requests_are_refused_before_any_work(capsys):
    for argv in (
        ["enumerate", "--family", "A", "--k", "1", "--n", "36"],
        ["enumerate", "--family", "A", "--k", "1", "--n", "1000000"],
        ["enumerate", "--family", "A", "--k", "1", "--n", str(10**12)],
        ["enumerate", "--family", "A", "--k", str(10**12), "--n", str(10**12)],
        ["enumerate", "--family", "K", "--n", "38"],
        ["enumerate", "--family", "mpq", "--p", "1", "--q", "1", "--n", "37"],
        ["enumerate", "--family", "mpq", "--p", "1", "--q", "1", "--n", str(10**12)],
        ["verify", "--suite", "eq1_2", "--n-max", "25"],
        # eq1_2 makes 2^n membership checks for each k.
        ["verify", "--suite", "eq1_2", "--n-max", "5", "--k-max", str(10**12)],
        # Each suite checks its largest scan before its first one.
        ["verify", "--suite", "thm1_4", "--n-max", "25"],
        ["verify", "--suite", "thm1_1", "--n-max", "24"],
        ["verify", "--suite", "rec3_1", "--n-max", "25", "--k-max", "3"],
        # The formula routes are bounded by the bits of the values they hold.
        ["table", "--source", "recurrence", "--k-max", "100000", "--n-max", "100000"],
        ["table", "--source", "closed", "--k-max", "2", "--n-max", "1000000"],
        ["sequence", "--name", "k-count", "--n-max", "100000000"],
    ):
        start = time.perf_counter()
        code, out, err = main_out(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (3, ""), argv
        assert err.startswith("schreier: "), argv


# The flags each command accepts, and those it must have to reach its
# handler; verify always gets both range overrides, so no default (and slow)
# range runs.
_ACCEPTED = {
    "table": ("--k-max", "--n-max", "--source", "--format"),
    "enumerate": ("--family", "--k", "--n", "--p", "--q", "--format"),
    "verify": ("--suite", "--n-max", "--k-max", "--seed"),
    "sequence": ("--name", "--n-max", "--format"),
}
_REQUIRED = {
    "table": ("--k-max", "--n-max"),
    "enumerate": ("--family", "--n"),
    "verify": ("--suite", "--n-max", "--k-max"),
    "sequence": ("--name", "--n-max"),
}
_CHOICES = {
    "--source": ("closed", "recurrence", "oracle"),
    "--family": ("A", "K", "mpq"),
    "--suite": SUITE_ORDER + ("all",),
    "--name": ("a-diag", "k-count", "fib"),
    "--format": ("csv", "json", "text"),
}
_ALL_FLAGS = sorted({flag for flags in _ACCEPTED.values() for flag in flags})


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(_ACCEPTED)))
    flags = [
        flag
        for flag in _REQUIRED[command]
        if flag in ("--n-max", "--k-max") and command == "verify"
        or draw(st.integers(0, 9)) > 0  # now and then leave a required flag out
    ]
    flags += draw(st.lists(st.sampled_from(_ACCEPTED[command]), max_size=3))
    if draw(st.integers(0, 9)) == 0:  # now and then a flag of any command
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        if flag in _CHOICES:
            value = draw(st.sampled_from(_CHOICES[flag]))
        else:
            value = str(draw(st.integers(-3, 10)))
        argv += [flag, value]
    return argv


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(argument_vectors())
def test_every_argument_vector_gets_a_defined_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the vector
            assert exc.code == 2, argv
            code = 2
    if code == 1:
        # exit 1 means a counterexample, which only verify can report
        assert argv[0] == "verify", argv
        summary = out.getvalue().splitlines()[-1]
        assert summary.startswith("suite ") and summary.endswith(" FAILED"), argv
    else:
        assert code in (0, 2, 3), (argv, code)

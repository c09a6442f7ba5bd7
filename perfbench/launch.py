"""Run one command and report its exit code, wall time, resource usage and
the machine's speed around it.

Usage: python -S launch.py REPORT_FD PROGRAM [ARG ...]

Writes "exit_code wall_ns user_s system_s maxrss_kb reference_ns" to
REPORT_FD once the command has ended.  ``reference_ns`` is the mean time of
a fixed pure-Python loop run just before and just after the command, on the
same CPU: on a shared machine the speed of a core drifts by up to a factor
of two over minutes, and the harness divides that drift out.

A child's peak RSS as read from wait4 starts at its parent's peak RSS, so
requests are started from this small interpreter (``-S``, standard modules
only) rather than from the harness, whose memory grows while it checks
large outputs.
"""

import os
import sys
import time

REFERENCE_ITERATIONS = 60_000


def reference_loop() -> int:
    """ns taken by a fixed loop of integer arithmetic and dict stores."""
    start = time.perf_counter_ns()
    total, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter_ns() - start


def main() -> None:
    report_fd = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report_fd, False)
    # One CPU for the reference loops and the command alike.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    before = reference_loop()
    start = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall_ns = time.perf_counter_ns() - start
    reference_ns = (before + reference_loop()) // 2
    report = (
        f"{os.waitstatus_to_exitcode(status)} {wall_ns} "
        f"{usage.ru_utime!r} {usage.ru_stime!r} {usage.ru_maxrss} {reference_ns}\n"
    )
    os.write(report_fd, report.encode())


if __name__ == "__main__":
    main()

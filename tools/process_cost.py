"""Where the time of one fresh schurlab process goes.

    python tools/process_cost.py [--runs N] COMMAND...

runs ``schurlab COMMAND...`` N times (default 20), each in a fresh
interpreter that enters through ``schurlab.cli.run`` as ``python -m
schurlab`` does, and prints the median of each stage in milliseconds:

    start    spawn to the first line of Python (interpreter start-up)
    imports  ``import schurlab.cli``
    main     ``cli.main``, its lazy imports included
    exit     main's return to the reap of the process by this one
    total    spawn to reap

The stages are cut by CLOCK_MONOTONIC stamps, taken here before the
spawn and after the reap and in the child at each stage boundary,
written to a pipe as they are taken.  The child's output is discarded.
The child imports schurlab from this checkout's ``src``.  Unlike
perfbench's tracer, which calls ``main`` in-process, this sees the
process around ``main``.  Standard library only; Linux and other POSIX
systems.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("start", "imports", "main", "exit")

# the child: stamp, import the entry module, stamp, and stamp again
# when main returns or raises, then leave through cli.run
CHILD = """\
import os, sys, time
fd = int(sys.argv.pop(1))
def stamp():
    os.write(fd, b"%d\\n" % time.clock_gettime_ns(time.CLOCK_MONOTONIC))
stamp()
import schurlab.cli as cli
stamp()
main = cli.main
def stamped(argv=None):
    try:
        return main(argv)
    finally:
        stamp()
cli.main = stamped
cli.run()
"""


def _now():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def stamps(command):
    """One fresh run of ``schurlab COMMAND``: the five stamps, in ns,
    that bound the stages, and the exit code."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe:
        try:
            spawned = _now()
            child = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(write_end), *command],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=env, pass_fds=[write_end])
        finally:
            os.close(write_end)
        code = child.wait()
        reaped = _now()
        inside = [int(line) for line in pipe.read().split()]
    if len(inside) != 3:
        raise RuntimeError(f"schurlab {' '.join(command)}: the child wrote "
                           f"{len(inside)} of 3 stamps (exit code {code})")
    return [spawned, *inside, reaped], code


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--runs N] COMMAND...")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if not args.command or args.runs < 1:
        parser.error("give a schurlab command and at least one run")
    runs, codes = [], set()
    for _ in range(args.runs):
        marks, code = stamps(args.command)
        runs.append([b - a for a, b in zip(marks, marks[1:])])
        codes.add(code)
    print(f"schurlab {' '.join(args.command)}: median ms of {args.runs} "
          f"runs, exit code {', '.join(map(str, sorted(codes)))}")
    for k, name in enumerate(STAGES):
        print(f"{name:<8} {statistics.median(r[k] for r in runs) / 1e6:8.2f}")
    print(f"{'total':<8} {statistics.median(sum(r) for r in runs) / 1e6:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

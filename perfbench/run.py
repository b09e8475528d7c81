"""Benchmark of the schurlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py``, or ``all``, which interleaves every workload pass by
pass.  Each invocation is ``python -m schurlab ... --format json`` in a
fresh process, one at a time from one client (a closed loop).  Passes
repeat until the next one would end after S seconds; there is always at
least one.  Every answer is checked after its process has ended,
outside the timed region.

--trace 0 reports, per workload (medians over passes):
  wall_s       seconds for one full pass over the invocations
  setup_s      seconds for ``info --name "A(1)"`` in a fresh process,
               three probes beside every pass
  peak_rss_mb  the largest ru_maxrss of any child in a pass

--trace 1 alternates untraced passes with passes run through
``tracer.py``, which adds per-module spans, and reports the per-layer
metrics of the traced passes, including the tracing overhead (traced
minus untraced pass time).

Machine speed.  On a shared host the same pass can take 1x or 2x as
long, in phases of seconds to minutes, and CPU time moves with it; each
CPU speeds up and slows down on its own.  A thread of this process
therefore times a fixed stdlib-only Fraction loop by its own CPU time
every 0.1 s while the children run, pinned for that moment to the CPU
the running child last ran on (about 3% of one core; CPU time, so it
does not read as slow when the program keeps both cores busy).  Every
time above is the measured wall time scaled to a reference speed,
``wall * REFERENCE_SAMPLE_S / mean sample`` over the samples taken
while the process ran.  The unscaled times and the samples are in the
diagnostics line.

An invocation fails on a nonzero exit, a timeout, or a wrong checked
field; ``failed``/``attempted`` in the last line is the error rate.
The last line of standard output is the result; the line before it
holds the diagnostics.  --smoke runs small inputs (``sweep --max-dim
4``, one small file per file workload) so the harness is tested in
seconds.
"""

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WHY)
SETUP_PROBES = 3  # setup probes beside each pass
INVOCATION_TIMEOUT = 60.0  # seconds; the longest full invocation takes about 10 s
RUN_LIMIT = 150.0  # no invocation may run past this many seconds into a run
SAMPLE_EVERY = 0.1  # seconds between machine-speed samples
REFERENCE_SAMPLE_S = 0.002  # CPU seconds of one sample at the reference speed

_CALLS = {
    "liealg.bracket_calls": "liealg.LieAlgebra.bracket",
    "hall.product_calls": "hall.FreeNilpotentAlgebra.product",
    "linalg.kernel_basis_calls": "linalg.kernel_basis",
    "linalg.spanbuilder_add_calls": "linalg.SpanBuilder.add",
    "multiplier.present_minimal_calls": "multiplier.present_minimal",
    "bounds.gamma_images_calls": "bounds.gamma_images",
}
UNITS = {
    **dict.fromkeys(tracer.MAX_COUNTERS + tracer.SUM_COUNTERS + tuple(_CALLS), "count"),
    # after the counters, so these override their "count"
    "peak_rss_mb": "MB", "dsl.bytes": "bytes", "linalg.max_entry_bits": "bits",
    "linalg.spanbuilder_rank_gain_ratio": "ratio",
}


def cpu_of(pid):
    """The CPU that process ``pid`` last ran on, or None if unknown."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def calibration_loop():
    """CPU seconds of this thread for a fixed Fraction loop."""
    start = time.thread_time()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 97, i % 89 + 1)
    return time.thread_time() - start


class SpeedSampler(threading.Thread):
    """Times ``calibration_loop`` every SAMPLE_EVERY seconds on the CPU
    of the running child (``child``, a pid or None)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stamps, self.samples = [], []
        self.child = None
        self._cpus = os.sched_getaffinity(0)
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(SAMPLE_EVERY):
            self._sample()

    def _sample(self):
        # A CPU's speed says little about the other's, so time the loop
        # where the child runs; pid 0 is this thread.
        pid = self.child
        cpu = cpu_of(pid) if pid is not None else None
        if cpu in self._cpus:
            os.sched_setaffinity(0, {cpu})
        try:
            sample = calibration_loop()
        finally:
            os.sched_setaffinity(0, self._cpus)
        self.samples.append(sample)
        self.stamps.append(time.perf_counter())

    def stop(self):
        self._stop_event.set()
        self.join()
        if not self.samples:  # a run shorter than one period
            self._sample()

    def mean_sample(self, start, end):
        """Mean sample taken while [start, end] ran, give or take one period."""
        lo = bisect.bisect_left(self.stamps, start - SAMPLE_EVERY)
        hi = bisect.bisect_right(self.stamps, end + SAMPLE_EVERY)
        if lo == hi:  # no sample that close: use the nearest one
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        return statistics.fmean(self.samples[lo:hi])

    def scale(self, rec):
        """Factor taking the wall time of ``rec`` to the reference speed."""
        return REFERENCE_SAMPLE_S / self.mean_sample(rec["start"], rec["end"])

    def scaled(self, records):
        """Wall time of ``records`` at the reference speed."""
        return sum((r["end"] - r["start"]) * self.scale(r) for r in records)


class Runner:
    def __init__(self, workdir, smoke, sampler):
        self.workdir = workdir
        self.sampler = sampler
        self.env = dict(os.environ)
        self.env.pop("SCHURLAB_LOG", None)
        self.env["PYTHONHASHSEED"] = "0"  # so the traced counts repeat exactly
        src = os.path.abspath("src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.started = time.perf_counter()
        self.timeout = 10.0 if smoke else INVOCATION_TIMEOUT
        self._count = 0

    def spawn(self, argv):
        """Run one child to its end; returns (exit code or None on
        timeout, start, end, rusage, stdout path, stderr path)."""
        self._count += 1
        out = os.path.join(self.workdir, f"out-{self._count}.txt")
        err = os.path.join(self.workdir, f"err-{self._count}.txt")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        left = RUN_LIMIT - (time.perf_counter() - self.started)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                             file_actions=actions)
        self.sampler.child = pid

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(1.0, min(self.timeout, left)), kill)
        timer.start()
        # wait without reaping, so the timer never signals a reused pid
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        end = time.perf_counter()
        self.sampler.child = None
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(pid, 0)
        code = None if state["killed"] else os.waitstatus_to_exitcode(status)
        return code, start, end, usage, out, err

    def invoke(self, inv, trace_out=None):
        """One checked invocation; returns its record."""
        if trace_out is None:
            argv = ["-m", "schurlab"] + inv.argv
        else:
            argv = [os.path.join(HERE, "tracer.py"), trace_out] + inv.argv
        code, start, end, usage, out, err = self.spawn(argv)
        rec = {"start": start, "end": end, "rss_kb": usage.ru_maxrss,
               "cpu": usage.ru_utime + usage.ru_stime, "error": None}
        if code is None:
            rec["error"] = f"timed out: {' '.join(inv.argv)}"
        else:
            with open(out, encoding="utf-8") as handle:
                stdout = handle.read()
            try:
                inv.check(code, stdout)
            except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                with open(err, encoding="utf-8") as handle:
                    tail = handle.read()[-300:]
                rec["error"] = f"{' '.join(inv.argv)}: {exc} {tail}".strip()
        if trace_out is not None and rec["error"] is None:
            with open(trace_out, encoding="utf-8") as handle:
                rec["trace"] = json.load(handle)
        return rec


def layer_metrics(records, scales):
    """Per-layer metrics of one traced pass, summed over its invocations;
    times are scaled to the reference speed like the wall times."""
    spans = {}
    counters = dict.fromkeys(tracer.MAX_COUNTERS + tracer.SUM_COUNTERS, 0)
    process = 0.0
    for rec, scale in zip(records, scales):
        trace = rec["trace"]
        for span, (calls, self_s) in trace["spans"].items():
            total = spans.setdefault(span, [0, 0.0])
            total[0] += calls
            total[1] += self_s * scale
        for key in tracer.MAX_COUNTERS:
            counters[key] = max(counters[key], trace["counters"][key])
        for key in tracer.SUM_COUNTERS:
            counters[key] += trace["counters"][key]
        process += (rec["end"] - rec["start"] - trace["main_s"]) * scale

    def self_s(names):
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    out = {f"{group}_s": self_s(names) for group, names in tracer.SPANS.items()}
    out["cli.main_s"] = self_s([tracer.MAIN_SPAN])
    out["cli.process_s"] = process
    for metric, span in _CALLS.items():
        out[metric] = spans.get(span, (0, 0.0))[0]
    out.update(counters)
    adds = out["linalg.spanbuilder_add_calls"]
    out["linalg.spanbuilder_rank_gain_ratio"] = (
        counters["linalg.spanbuilder_rows_kept"] / adds if adds else 0.0)
    # The self times of all spans, the size-reading hooks included, add
    # up to the in-process time of cli.main, so with cli.process_s they
    # make up the traced pass time.
    check = {"traced_pass_s": sum((r["end"] - r["start"]) * k for r, k in zip(records, scales)),
             "self_sum_s": sum(s for _, s in spans.values()),
             "process_s": process,
             "hooks_s": self_s([tracer.HOOK_SPAN]),
             "missing": sorted({m for r in records for m in r["trace"]["missing"]})}
    return out, check


class Workload:
    """The invocations of one workload and their records over a run."""

    def __init__(self, name, invocations):
        self.name = name
        self.invocations = invocations
        self.passes = []  # (traced, records)
        self.probes = []
        self.attempted = 0
        self.errors = []

    def _record(self, records):
        self.attempted += len(records)
        self.errors += [r["error"] for r in records if r["error"]]

    def run_pass(self, runner, traced):
        records = []
        for k, inv in enumerate(self.invocations):
            trace_out = None
            if traced:
                trace_out = os.path.join(runner.workdir, f"trace-{k}.json")
                if os.path.exists(trace_out):
                    os.remove(trace_out)
            records.append(runner.invoke(inv, trace_out))
        self._record(records)
        self.passes.append((traced, records))

    def run_probes(self, runner):
        inv = workloads.setup_invocation()
        records = [runner.invoke(inv) for _ in range(SETUP_PROBES)]
        self._record(records)
        self.probes += records

    def metrics(self, trace, sampler):
        scaled = sampler.scaled
        med = statistics.median
        plain = [recs for traced, recs in self.passes if not traced]
        if not trace:
            values = {"wall_s": med(scaled(recs) for recs in plain),
                      "setup_s": med(scaled([r]) for r in self.probes),
                      "peak_rss_mb": med(max(r["rss_kb"] for r in recs) / 1024
                                         for recs in plain)}
        else:
            traced = [recs for t, recs in self.passes
                      if t and all("trace" in r for r in recs)]
            if not traced:
                return {}
            layers = [layer_metrics(recs, [sampler.scale(r) for r in recs])[0] for recs in traced]
            # counts and sizes take a value that occurred, so they stay whole
            values = {k: (statistics.median_low if k in UNITS else med)(
                          layer[k] for layer in layers) for k in layers[0]}
            values["trace.overhead_s"] = (med(scaled(recs) for recs in traced)
                                          - med(scaled(recs) for recs in plain))
        return {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in values.items()}

    def diagnostics(self, sampler):
        def raw(records):
            return sum(r["end"] - r["start"] for r in records)

        out = {"passes": [], "setup_raw_s": [raw([r]) for r in self.probes],
               "errors": self.errors[:5]}
        for traced, recs in self.passes:
            row = {"traced": traced, "raw_wall_s": raw(recs),
                   "wall_s": sampler.scaled(recs),
                   "cpu_s": sum(r["cpu"] for r in recs),
                   "mean_sample_s": sampler.mean_sample(recs[0]["start"], recs[-1]["end"])}
            if traced and all("trace" in r for r in recs):
                row["trace_additivity"] = layer_metrics(
                    recs, [sampler.scale(r) for r in recs])[1]
            out["passes"].append(row)
        return out


def run(args, runner, loads):
    deadline = runner.started + args.seconds
    iteration = 0
    while True:
        began = time.perf_counter()
        shift = iteration % len(loads)
        for load in loads[shift:] + loads[:shift]:
            if args.trace:
                # alternate which side goes first
                for traced in ((False, True) if iteration % 2 == 0 else (True, False)):
                    load.run_pass(runner, traced)
            else:
                load.run_probes(runner)
                load.run_pass(runner, False)
        iteration += 1
        now = time.perf_counter()
        if now + (now - began) > deadline or now - runner.started > RUN_LIMIT / 2:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for testing the harness")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "schurlab", "__main__.py")):
        print("perfbench: run from the root of a schurlab checkout (src/schurlab not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import schurlab

    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(workdir)
    sampler = SpeedSampler()
    try:
        names = WORKLOADS if args.workload == "all" else [args.workload]
        loads = [Workload(name, workloads.build(name, args.seed, os.path.relpath(workdir),
                                                args.smoke, schurlab))
                 for name in names]
        runner = Runner(workdir, args.smoke, sampler)
        sampler.start()
        runner.invoke(workloads.setup_invocation())  # warm-up, writes bytecode caches
        runner.started = time.perf_counter()
        run(args, runner, loads)
    finally:
        if sampler.is_alive():
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(load.attempted for load in loads)
    failed = sum(len(load.errors) for load in loads)
    for load in loads:
        for error in load.errors[:5]:
            print(f"perfbench: {load.name}: {error}", file=sys.stderr)
    if len(loads) == 1:
        metrics = loads[0].metrics(args.trace, sampler)
    else:
        metrics = {f"{load.name}/{k}": v for load in loads
                   for k, v in load.metrics(args.trace, sampler).items()}
    print(json.dumps({"diagnostics": {load.name: load.diagnostics(sampler) for load in loads}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

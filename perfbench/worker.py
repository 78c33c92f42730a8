"""One workload in one fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]
    python3 perfbench/worker.py --workload NAME --setup-only

Imports monomod from the src/ directory next to this benchmark, builds the
workload's fixed algebras (timed: setup_s), then runs whole rounds of ops
until the next round would end past --seconds of wall time (at least one
round).  Each op is timed alone; its inputs are built outside its timed
span.  A round's results are checked, in op order, in a forked child, so
that the checks' own memory and caches stay out of this process and its
peak_rss_kb is the ops' alone.  Prints one JSON object on its last line.

On a shared host the speed a process is given can change by up to half
within seconds, so an untraced worker also samples that speed: every
SAMPLE_EVERY_S of CPU time a profiling-timer signal runs speed_kernel(), a
fixed integer loop that shares no code with monomod, and records its CPU
interval.  Op times exclude the kernel intervals inside them, and each op's
time is rescaled to the reference speed, at which the kernel takes
REFERENCE_KERNEL_S, by the kernels run within LOCAL_S of it (README.md,
"Timing").  Set-up is rescaled by kernels run just before and after it.  CPU
times come from the thread clock: the worker runs one thread, and while a
profiling timer is armed the process clock moves only at scheduler ticks.
"""

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from collections import Counter
from statistics import fmean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE_EVERY_S = 0.1   # CPU seconds between speed samples in a timed run
LOCAL_S = 0.5          # an op is rescaled by the kernels this near it in CPU time
SETUP_SAMPLES = 5      # speed samples just before and just after set-up
REFERENCE_KERNEL_S = 0.003   # speed_kernel() time at the reference speed


def speed_kernel():
    """Run a fixed pure-integer loop (about 3 ms); its CPU interval."""
    start = time.thread_time()
    s = 0
    for i in range(30000):
        s += i * i % 7
    return start, time.thread_time()


class SpeedSampler:
    """speed_kernel() intervals taken on a CPU-time timer while ops run."""

    def __init__(self):
        self.intervals = []

    def _tick(self, _signum, _frame):
        self.intervals.append(speed_kernel())

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def inside(self, first, t0, t1):
        """CPU time of the kernels run within [t0, t1], looking from index
        first on; a kernel runs whole between two bytecodes, so it lies
        either inside the interval or outside it."""
        return sum(e - b for b, e in self.intervals[first:] if t0 <= b and e <= t1)

    def scales(self, windows):
        """For each (t0, t1) CPU interval of an op, the factor that turns its
        CPU time into time at the reference speed."""
        starts = [b for b, _e in self.intervals]
        took = [e - b for b, e in self.intervals]
        out = []
        for t0, t1 in windows:
            lo = bisect.bisect_left(starts, t0 - LOCAL_S)
            hi = bisect.bisect_right(starts, t1 + LOCAL_S)
            out.append(REFERENCE_KERNEL_S / fmean(took[lo:hi]))
        return out


def _import_monomod_from_src():
    """Put the checkout's src/ first and make sure that is what loads."""
    sys.path.insert(0, SRC)
    import monomod

    where = os.path.dirname(os.path.abspath(monomod.__file__))
    if where != os.path.join(SRC, "monomod"):
        raise SystemExit(f"monomod loaded from {where}, not from {SRC}")


def check_round(checked):
    """Run the checks of one round's (op, result) pairs in a forked child;
    the problems they found, one message each."""
    from checks import CheckFailed

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: check, report through the pipe, exit at once
        os.close(read_fd)
        problems = []
        try:
            for op, result in checked:
                try:
                    op.check(result)
                except (CheckFailed, AssertionError) as exc:
                    problems.append(f"{op.kind}: check failed: {exc}")
                except Exception as exc:  # a check that cannot run is a failed check
                    problems.append(f"{op.kind}: check raised {type(exc).__name__}: {exc}\n"
                                    + traceback.format_exc(limit=6))
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(problems, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        payload = fh.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return [f"the check process of a round ended with status {status}"]
    return json.loads(payload)


def run_rounds(workload, ctx, seed, seconds, recorder=None, sampler=None):
    from monomod.errors import DimensionCapExceeded

    from workloads import round_rng

    op_times = []          # CPU seconds per completed op
    round_op_s = []        # timed CPU seconds per round (failed ops included)
    windows = []           # (start, end, CPU seconds, completed) of every op
    failures = Counter()   # (kind, exception type, message) -> count
    broken = []            # unexpected failures and failed checks
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        done = len(round_op_s)
        if done:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break
        ops = workload.make_round(ctx, round_rng(workload.name, seed, done), done)
        timed = 0.0
        checked = []       # (op, result) of the round's completed ops
        for op in ops:
            attempted += 1
            span = recorder.begin_op() if recorder is not None else None
            first = len(sampler.intervals) if sampler is not None else 0
            t0 = time.thread_time()
            try:
                result = op.run()
            except Exception as exc:  # every op failure is counted and reported
                t1 = time.thread_time()
                if span is not None:
                    recorder.end_op(span)
                took = t1 - t0 - (sampler.inside(first, t0, t1) if sampler else 0.0)
                timed += took
                windows.append((t0, t1, took, False))
                failed += 1
                key = (op.kind, type(exc).__name__, str(exc))
                failures[key] += 1
                expected = op.cap_fault and isinstance(exc, DimensionCapExceeded)
                if not expected and failures[key] == 1:  # one traceback per failure
                    broken.append(f"{op.kind}: unexpected {type(exc).__name__}: {exc}\n"
                                  + traceback.format_exc(limit=6))
                continue
            t1 = time.thread_time()
            if span is not None:
                recorder.end_op(span)
            took = t1 - t0 - (sampler.inside(first, t0, t1) if sampler else 0.0)
            timed += took
            windows.append((t0, t1, took, True))
            op_times.append(took)
            checked.append((op, result))
        round_op_s.append(timed)
        broken += check_round(checked)
    out = {
        "rounds": len(round_op_s),
        "attempted": attempted,
        "failed": failed,
        "op_times": op_times,
        "round_op_s": round_op_s,
        "wall_s": time.perf_counter() - start,
        "failures": [[k, t, m, n] for (k, t, m), n in sorted(failures.items())],
        "broken": broken,
    }
    if sampler is not None:
        scaled = [(took * k, ok) for (_t0, _t1, took, ok), k
                  in zip(windows, sampler.scales([w[:2] for w in windows]))]
        out["op_ref_s"] = [t for t, ok in scaled if ok]
        out["ref_total_s"] = sum(t for t, _ok in scaled)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not args.setup_only and args.seconds is None:
        ap.error("--seconds is required unless --setup-only")

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    before = [speed_kernel() for _ in range(SETUP_SAMPLES)]
    t0 = time.thread_time()
    _import_monomod_from_src()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        span = recorder.begin_op("bench.setup")
    ctx = workload.setup()
    if recorder is not None:
        recorder.end_op(span)
    setup_s = time.thread_time() - t0
    after = [speed_kernel() for _ in range(SETUP_SAMPLES)]
    out = {"workload": workload.name, "setup_s": setup_s,
           "setup_ref_s": setup_s * REFERENCE_KERNEL_S / fmean(e - b for b, e in before + after)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx["workdir"] = workdir
    sampler = None if args.trace else SpeedSampler()
    try:
        if sampler is not None:
            sampler.start()
        out.update(run_rounds(workload, ctx, args.seed, args.seconds, recorder, sampler))
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if sampler is not None:
        out["kernel_s"] = [e - b for b, e in sampler.intervals]
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        out["layers"] = recorder.metrics()
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"{workload.name}-seed{args.seed}.spans")
        recorder.write(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
        out["spans"] = len(recorder.span_name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

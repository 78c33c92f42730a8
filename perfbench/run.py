"""monomod benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py                          # all workloads, seed 1
    python3 perfbench/run.py --workload x-family-sgp --seed 7
    python3 perfbench/run.py --workload classify-sampled --trace 1

Each workload runs in its own fresh interpreter (perfbench/worker.py), one
after another, started from this single process; there are no worker
threads.  With --trace 0 (the default) nothing is wrapped and the end-to-end
metrics of BENCHMARK.json are reported, as CPU times rescaled to a reference
host speed (see worker.py); setup_s is the median over 21 fresh
interpreters.  A run measures run_seconds of BENCHMARK.json; --seconds
is accepted so that the benchmark can be invoked with its run length spelled
out, and must equal it.  With --trace 1 the same ops run once untraced
and then again with every monomod layer wrapped from outside, and the
per-layer metrics are reported together with the tracing overhead.

The last line of standard output is one JSON object: for one workload
{"correct", "attempted", "failed", "metrics"}; for all of them, one such
object per workload under "workloads".  The lines before it are the report:
every metric by name and unit, and every failed op with its exception.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0     # a whole invocation for one workload ends within this
SETUPS = 21            # fresh interpreters whose set-up time gives setup_s


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class ChildFailed(Exception):
    pass


def run_child(args, deadline):
    """Run worker.py to its end (killed at the deadline); its JSON result."""
    env = dict(os.environ)
    env.pop("MONOMOD_CONFIG", None)
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args, cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {' '.join(args)} ran past the deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def end_to_end(res, setups):
    """The end-to-end metrics of one untraced run, at the reference speed;
    with no completed op (the run is then not correct) the op times are left
    out."""
    ops = res["op_ref_s"]
    out = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / res["ref_total_s"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    if ops:
        out["op_p50_ms"] = statistics.median(ops) * 1000.0
    if len(ops) >= 100:
        out["op_p90_ms"] = statistics.quantiles(ops, n=10)[-1] * 1000.0
    return out


def tracing_overhead(untraced, traced):
    """Traced minus untraced op time over the rounds both runs completed."""
    k = min(untraced["rounds"], traced["rounds"])
    base = sum(untraced["round_op_s"][:k])
    extra = sum(traced["round_op_s"][:k]) - base
    return {"trace.overhead_s": extra, "trace.overhead_frac": extra / base}


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    res = run_child(common, deadline)
    result = {"workload": name, "seed": seed, "run": res}
    if trace:
        traced = run_child(common + ["--trace"], deadline)
        result["traced"] = traced
        layers = dict(traced["layers"])
        layers.update(tracing_overhead(res, traced))
        result["metrics"] = layers
        counted = traced
    else:
        times = [res["setup_ref_s"]]
        for _ in range(SETUPS - 1):
            times.append(run_child(["--workload", name, "--setup-only"], deadline)["setup_ref_s"])
        result["setup_samples"] = times
        result["metrics"] = end_to_end(res, times)
        counted = res
    result["attempted"] = counted["attempted"]
    result["failed"] = counted["failed"]
    result["failures"] = counted["failures"]
    result["broken"] = res["broken"] + (result["traced"]["broken"] if trace else [])
    result["correct"] = not result["broken"] and bool(res["op_times"])
    return result


def units(spec, trace):
    if trace:
        from spans import LAYER_METRICS

        out = dict(LAYER_METRICS)
        out.update({"trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
        return out
    out = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out["op_p90_ms"] = "ms"
    return out


def report(result, unit_of, trace):
    res = result["traced"] if trace else result["run"]
    lines = [
        f"== {result['workload']}  seed {result['seed']}  "
        f"{'traced' if trace else 'untraced'}  rounds {res['rounds']}  "
        f"ops attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {str(result['correct']).lower()}"
    ]
    for key, val in result["metrics"].items():
        lines.append(f"  {key:42s} {val:14.6g} {unit_of.get(key, '')}")
    if not trace:
        n = len(res["op_times"])
        kernel = res["kernel_s"]
        lines.append(f"  setup_s is the median of {len(result['setup_samples'])} fresh "
                     f"interpreters; op times from {n} completed ops")
        lines.append(f"  op time {sum(res['round_op_s']):.3f} s of CPU, "
                     f"{res['ref_total_s']:.3f} s at the reference speed; speed kernel "
                     f"{statistics.fmean(kernel) * 1000:.3f} ms mean over {len(kernel)} samples")
        if n == 0:
            lines.append("  no op completed: op_p50_ms not reported")
        elif n < 100:
            lines.append(f"  op_p90_ms not reported: {n} ops in this run, under 100")
    else:
        lines.append(f"  {result['traced']['spans']} spans written to "
                     f"{result['traced']['spans_file']}")
    if result["failures"]:
        lines.append("  failed ops (count x op: exception: message):")
        for kind, exc_type, message, count in result["failures"]:
            lines.append(f"    {count} x {kind}: {exc_type}: {message}")
    for problem in result["broken"]:
        lines.append("  BROKEN: " + problem.rstrip().replace("\n", "\n    "))
    return "\n".join(lines)


def summary(result, names):
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": result["metrics"][k], "unit": u}
            for k, u in names.items() if k in result["metrics"]
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "monomod", "__init__.py")):
        print(f"no monomod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        print(f"unknown workload {args.workload!r}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"--seconds {args.seconds}: the benchmark measures {seconds} s "
              "(run_seconds of BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metric_units = {m["name"]: m["unit"] for m in listed}
    unit_of = units(spec, args.trace)

    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, seconds, args.trace, deadline)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        print(report(result, unit_of, args.trace), flush=True)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(summary(results[0], metric_units)))
    else:
        for r in results:
            print(json.dumps({"workload": r["workload"], **summary(r, metric_units)}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "workloads": {r["workload"]: summary(r, metric_units) for r in results},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

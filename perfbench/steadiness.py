"""Are two independent sets of benchmark runs of one commit in agreement?

    python3 perfbench/steadiness.py

Each of two sets runs perfbench/run.py once per workload and seed (set 1 on
seeds 1..10, set 2 on seeds 101..110), one run after another.  For every
end-to-end metric and workload it reports each set's median and quartiles
and the spread (third minus first quartile, as a share of the median), and
says whether the spread stays within the metric's bound in BENCHMARK.json,
whether the second median is no worse than the first by more than the bound,
and whether both sets failed the same share of their ops.  Raw results go to .perfbench_out/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10              # seeds per set


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if better == "lower":
        return second / first - 1.0
    return 1.0 - second / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    raw = {}
    for s in range(2):
        for w in workloads:
            for i in range(RUNS):
                seed = 100 * s + i + 1
                raw.setdefault(w, [[], []])[s].append(one_run(w, seed))
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        sets = raw[w]
        print(f"== {w}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        same_share = all(len(sh) == 1 for sh in shares) and len({sh[0] for sh in shares}) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share per set {shares}  same: {same_share}  all correct: {correct}")
        ok &= same_share and correct
        for m in spec["end_to_end"]:
            values = [[r["metrics"].get(m["name"], {}).get("value") for r in runs]
                      for runs in sets]
            if any(v is None for vals in values for v in vals):
                print(f"  {m['name']:12s} missing from some runs")
                ok = False
                continue
            stats = [spread(vals) for vals in values]
            within = all(st["spread"] <= m["bound"] for st in stats)
            line = f"  {m['name']:12s} bound {m['bound']:.2f}"
            for k, st in enumerate(stats, start=1):
                line += (f" | set {k}: median {st['median']:.6g} q1 {st['q1']:.6g}"
                         f" q3 {st['q3']:.6g} spread {st['spread']:.3f}")
            drift = worse_by(stats[0]["median"], stats[1]["median"], m["better"])
            agree = drift <= m["bound"]
            line += f" | second worse by {drift:+.3f}: {'agree' if agree else 'DISAGREE'}"
            ok &= agree
            line += "" if within else "  SPREAD OVER BOUND"
            ok &= within
            print(line)
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    benchmark/compare.py BASE_DIR NEW_DIR [--manifest BENCHMARK.json]

Each directory holds the results JSON files that benchmark/run.sh writes
(build-benchmark/out/ by default), from at least ten untraced runs per
workload and side, made in alternating order (base, new, new, base, ...).

Two kinds of metric are judged.  The end-to-end metrics of BENCHMARK.json
are timings, judged against their bounds there.  For each, the script
prints each side's median and quartiles, the new side's win fraction over
pairs matched by seed, and a verdict:

  gain        the new side wins at least 9/10 of the pairs and the medians
              differ by more than the base side's quartile spread;
  regression  the new median is worse than the base median by more than
              the metric's bound;
  unresolved  a side's quartile spread, relative to its median, is wider
              than the bound and not every new run beats every base run,
              or a side has fewer than ten runs;
  no-change   otherwise.

The quality metrics in EXACT are a function of the seed alone, so they are
judged seed by seed on the workloads that report them (nonzero on some
run): regression when any seed is worse by more than EXACT_BOUND relative,
gain when the new side is better on at least 9/10 of the seeds, unresolved
when no seed ran on both sides.

The last stdout line is a JSON verdict; the exit status is 1 when any
metric regressed or any run reported incorrect output.
"""
import argparse
import json
import math
import pathlib
import statistics
import sys

MIN_RUNS = 10
EXACT = ("sa_objective", "imbalance_eq2", "rejection_rate", "cache_hit_ratio")
EXACT_BOUND = 1e-9


def load(directory):
    """Untraced, full-size results by workload, in file-name order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        if result.get("trace") or result.get("quick"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def seed_pairs(base, new):
    """(base, new) runs matched by seed."""
    by_seed = {}
    for r in base:
        by_seed.setdefault(r["seed"], []).append(r)
    return [(by_seed[r["seed"]].pop(0), r) for r in new
            if by_seed.get(r["seed"])]


def value(run, name):
    return run["metrics"][name]["value"]


def worsening(metric, old, new):
    """How much worse `new` is than `old`, relative to `old`."""
    worse = new - old if metric["better"] == "lower" else old - new
    if old:
        return worse / abs(old)
    return math.copysign(math.inf, worse) if worse else 0.0


def judge(metric, base, new):
    name, bound = metric["name"], metric["bound"]
    a = [value(r, name) for r in base]
    b = [value(r, name) for r in new]
    aq, bq = quartiles(a), quartiles(b)
    better = (lambda x, y: x < y) if metric["better"] == "lower" else (
        lambda x, y: x > y)
    matched = seed_pairs(base, new) or list(zip(base, new))
    wins = sum(better(value(n, name), value(o, name)) for o, n in matched)
    win_fraction = wins / len(matched) if matched else 0.0
    worse = worsening(metric, aq[1], bq[1])
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (aq, bq))
    all_better = all(better(y, x) for x in a for y in b)
    if min(len(a), len(b)) < MIN_RUNS:
        verdict = "unresolved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif (win_fraction >= 0.9 and better(bq[1], aq[1])
          and abs(bq[1] - aq[1]) > aq[2] - aq[0]):
        verdict = "gain"
    else:
        verdict = "no-change"
    return {"metric": name, "base": aq, "new": bq, "runs": [len(a), len(b)],
            "win_fraction": win_fraction, "worse_by": worse,
            "spread": f"{100 * spread:6.1f}%", "verdict": verdict}


def judge_exact(metric, base, new):
    name = metric["name"]
    matched = seed_pairs(base, new)
    worse = [worsening(metric, value(o, name), value(n, name))
             for o, n in matched]
    wins = sum(w < -EXACT_BOUND for w in worse)
    win_fraction = wins / len(matched) if matched else 0.0
    if not matched:
        verdict = "unresolved"
    elif max(worse) > EXACT_BOUND:
        verdict = "regression"
    elif win_fraction >= 0.9:
        verdict = "gain"
    else:
        verdict = "no-change"
    return {"metric": name,
            "base": quartiles([value(r, name) for r in base]),
            "new": quartiles([value(r, name) for r in new]),
            "runs": [len(base), len(new)], "win_fraction": win_fraction,
            "worse_by": max(worse, default=0.0), "spread": " exact",
            "verdict": verdict}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--manifest", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    manifest = json.loads(pathlib.Path(args.manifest).read_text())
    exact = [m for m in manifest["per_layer"] if m["name"] in EXACT]
    base, new = load(args.base), load(args.new)

    summary = {"gain": [], "regression": [], "unresolved": [], "incorrect": []}
    print(f"{'workload':12} {'metric':16} {'base q1/median/q3':>32} "
          f"{'new q1/median/q3':>32} {'runs':>7} {'win':>5} {'worse':>7} "
          f"{'spread':>7}  verdict")
    for workload in [w["name"] for w in manifest["workloads"]]:
        a, b = base.get(workload, []), new.get(workload, [])
        for side, runs in (("base", a), ("new", b)):
            if any(not r["correct"] for r in runs):
                summary["incorrect"].append(f"{workload}/{side}")
        if not a or not b:
            summary["unresolved"].append(f"{workload}/*")
            print(f"{workload:12} (no results on one side)")
            continue
        rows = [judge(metric, a, b) for metric in manifest["end_to_end"]]
        rows += [judge_exact(metric, a, b) for metric in exact
                 if any(value(r, metric["name"]) for r in a + b)]
        for row in rows:
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{workload:12} {row['metric']:16} {fmt(row['base']):>32} "
                  f"{fmt(row['new']):>32} {row['runs'][0]:>3}/{row['runs'][1]:<3} "
                  f"{row['win_fraction']:5.2f} {100 * row['worse_by']:+6.1f}% "
                  f"{row['spread']:>7}  {row['verdict']}")
            if row["verdict"] != "no-change":
                summary[row["verdict"]].append(f"{workload}/{row['metric']}")

    if summary["regression"] or summary["incorrect"]:
        verdict = "fail"
    elif summary["unresolved"]:
        verdict = "unresolved"
    else:
        verdict = "pass"
    print(json.dumps({"verdict": verdict, **summary}))
    return 1 if verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())

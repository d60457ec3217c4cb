#!/usr/bin/env python3
"""Compare two result files of bench/e2e/run.py (written with --out).

    python3 bench/e2e/compare.py BASE.json NEW.json

For each workload and end-to-end metric of BENCHMARK.json it prints the
two medians and a verdict against the metric's bound:

  ok          the change is within the bound
  regression  NEW is worse than BASE by more than the bound
  improved    NEW is better than BASE by more than the bound
  unresolved  either side's quartile spread is wider than the bound, or
              the machine.calib_s medians differ by more than 10%, so the
              host, not the code, may have moved

A file holding several runs of one workload (say ten seeds) is summarized
over the runs' medians; a single run over its own repetitions.  Exits 1
on any regression or on any rise in the share of failed invocations.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import ROOT, load_json, summarize  # noqa: E402

CALIB_DRIFT = 0.10


def by_workload(doc):
    out = {}
    for run in doc["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def metric(runs, name):
    """median/q1/q3/n of a metric over the runs (or one run's repetitions)."""
    if len(runs) == 1:
        return runs[0]["metrics"].get(name)
    return summarize([r["metrics"][name]["median"] for r in runs
                      if r["metrics"].get(name)])


def spread(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def fail_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def verdict(base, new, bound, better, drifted):
    worse = (new["median"] - base["median"]) / base["median"]
    if better == "higher":
        worse = -worse
    if drifted or spread(base) > bound or spread(new) > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regression"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base_doc, new_doc = (load_json(p) for p in sys.argv[1:])
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    base, new = by_workload(base_doc), by_workload(new_doc)
    bad = False
    print(f"{'workload':13} {'metric':14} {'base':>12} {'new':>12} {'worse':>8}  verdict")
    for w in [w for w in base if w in new]:
        cb, cn = metric(base[w], "machine.calib_s"), metric(new[w], "machine.calib_s")
        drifted = bool(cb and cn and abs(cn["median"] / cb["median"] - 1) > CALIB_DRIFT)
        for m in spec:
            b, n = metric(base[w], m["name"]), metric(new[w], m["name"])
            if not b or not n:
                continue
            worse, v = verdict(b, n, m["bound"], m["better"], drifted)
            bad |= v == "regression"
            print(f"{w:13} {m['name']:14} {b['median']:12.6g} {n['median']:12.6g} "
                  f"{worse:+8.1%}  {v}")
        fb, fn = fail_frac(base[w]), fail_frac(new[w])
        rose = fn > fb
        bad |= rose
        print(f"{w:13} {'fail_frac':14} {fb:12.6g} {fn:12.6g} {'':8}  "
              f"{'regression' if rose else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the zeusc command-line tool.

Run from the root of the repository:

    python3 bench/e2e/run.py --workload sim-dense --seed 1 --seconds 18 --trace 0

It builds zeusc and the benchmark's OCaml half with dune, generates the
workload's inputs from the seed under .bench_e2e/, runs zeusc on them one
process at a time for --seconds, checks every output against a reference
and prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (an in-process traced pass plus a
few extra zeusc runs).  --workload all interleaves the five workloads
round-robin.  --out FILE appends the full result (every metric's median,
quartiles, sample count and the run's provenance) to FILE for compare.py.
--write-expected regenerates bench/e2e/expected/seed-N.json with the
firing engine on the whole decks.  See bench/e2e/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(ROOT, ".bench_e2e")
EXPECTED = os.path.join(HERE, "expected")
ZEUSC = os.path.join(ROOT, "_build", "default", "bin", "zeusc.exe")
E2E = os.path.join(ROOT, "_build", "default", "bench", "e2e", "e2e.exe")

# Budgets: a zeusc invocation that runs longer than INVOCATION_TIMEOUT is
# killed and counted as failed; no new invocation starts once a
# measurement has overrun its --seconds by OVERRUN.
INVOCATION_TIMEOUT = 20.0
REFERENCE_TIMEOUT = 60.0
EXPECTED_TIMEOUT = 1800.0
OVERRUN = 40.0
MIN_ITERATIONS = 3

# The runtime prints its GC counters at exit, top_heap_words among them.
ZEUSC_ENV = dict(os.environ, OCAMLRUNPARAM="v=0x400")
TOP_HEAP = re.compile(rb"top_heap_words: (\d+)")
RUN_LINE = re.compile(r"^run (\d+):(.*)$")
ERROR_LINE = re.compile(r"^runtime error \(run (\d+), cycle \d+\)")


class Overrun(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics


def summarize(samples):
    """Median, quartiles (as statistics.quantiles(n=4) gives them) and n."""
    xs = sorted(samples)
    if not xs:
        return None
    med = statistics.median(xs)
    q1, q3 = (med, med) if len(xs) < 2 else statistics.quantiles(xs, n=4)[::2]
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def calibrate():
    """Seconds of e2e.exe's fixed calibration job: they drift with the
    shared host's speed, never with zeusc's code (compare.py reads them)."""
    t = time.perf_counter()
    subprocess.run([E2E, "calib"], check=True)
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# Running zeusc


def zeusc(argv, cwd, timeout=INVOCATION_TIMEOUT):
    """Run zeusc once: (seconds, exit code or None on timeout, stdout, heap MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [ZEUSC] + argv, cwd=cwd, env=ZEUSC_ENV,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        rc = None
    seconds = time.perf_counter() - t0
    heaps = TOP_HEAP.findall(err[-4096:])
    heap = int(heaps[-1]) * 8 / 2**20 if heaps else None
    return seconds, rc, out, heap


def md5(data):
    return hashlib.md5(data).hexdigest()


def sim_summary(stdout):
    """Per run: the watched values and the runtime-error count, digested."""
    watched, errors = {}, Counter()
    for line in stdout.decode(errors="replace").splitlines():
        m = RUN_LINE.match(line)
        if m:
            watched[int(m[1])] = m[2].strip()
            continue
        m = ERROR_LINE.match(line)
        if m:
            errors[int(m[1])] += 1
    if sorted(watched) != list(range(len(watched))):
        return None
    runs = [f"{watched[i]} errors={errors[i]}" for i in range(len(watched))]
    return {"runs": len(runs), "errors": sum(errors.values()),
            "digest": md5("\n".join(runs).encode())}


def verify_summary(argv, rc, stdout):
    """What must not change: exit code plus lint's conflict count, prove's
    witness count or the export's text."""
    last = stdout.decode(errors="replace").strip().rsplit("\n", 1)[-1]
    s = {"exit": rc}
    if argv[0] == "lint":
        m = re.search(r"(\d+) conflict,", last)
        s["conflicts"] = int(m[1]) if m else None
    elif argv[0] == "prove":
        m = re.search(r"(\d+) witness", last)
        s["witnesses"] = int(m[1]) if m else None
    elif argv[0] == "export":
        s["md5"] = md5(stdout)
    return s


def key(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------
# One workload


def run_tool(args, what, env=None):
    proc = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{what} failed (exit {proc.returncode})")


def build():
    # no shared dune cache: the benchmark writes only inside the checkout
    run_tool(["dune", "build", "--root", ROOT, "bin/zeusc.exe", "bench/e2e/e2e.exe"],
             "build", env=dict(os.environ, DUNE_CACHE="disabled"))


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def save_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


class Workload:
    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.dir = os.path.join(WORK, f"{name}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        run_tool([E2E, "gen", name, str(seed), self.dir], f"gen {name}")
        self.manifest = load_json(os.path.join(self.dir, "manifest.json"))
        self.is_verify = not self.manifest["reference"]
        self.samples = {k: [] for k in
                        ("setup", "wall", "item", "heap", "calib", "zero", "process")}
        self.attempted = self.failed = 0
        self.expected = None

    # -- references --------------------------------------------------------

    def sim_reference(self, argvs, timeout):
        """The firing engine's summaries of [argvs]; None if it fails, so
        that every check against it fails too."""
        out = []
        for argv in argvs:
            secs, rc, stdout, _ = zeusc(argv, self.dir, timeout)
            s = sim_summary(stdout) if rc == 0 else None
            if s is None:
                log(f"{self.name}: FAILED reference {key(argv)} (exit {rc})")
                return None
            log(f"{self.name}: firing reference in {secs:.2f}s")
            out.append(s)
        return out

    def load_expected(self):
        """The committed file for this seed; else the firing engine on the
        decks cut to what the outputs depend on (cached per seed)."""
        committed = load_json(os.path.join(EXPECTED, f"seed-{self.seed}.json"))
        if committed and self.name in committed:
            self.expected = committed[self.name]
        elif self.is_verify:
            # the verify designs do not depend on the seed (only their order does)
            committed = load_json(os.path.join(EXPECTED, "seed-1.json"))
            if not committed or "verify" not in committed:
                raise SystemExit("verify: no expected results; run --write-expected")
            self.expected = committed["verify"]
        else:
            cache = os.path.join(WORK, "reference", f"{self.name}-{self.seed}.json")
            self.expected = load_json(cache)
            if self.expected is None:
                self.expected = self.sim_reference(self.manifest["reference"],
                                                   REFERENCE_TIMEOUT)
                if self.expected is not None:
                    save_json(cache, self.expected)

    def compute_expected(self):
        """Expected results from scratch: the firing engine on the whole
        decks; for verify, the outputs of this zeusc."""
        if not self.is_verify:
            return self.sim_reference(self.manifest["full_reference"], EXPECTED_TIMEOUT)
        out = {}
        for argv in self.manifest["run"]:
            _, rc, stdout, _ = zeusc(argv, self.dir, EXPECTED_TIMEOUT)
            out[key(argv)] = verify_summary(argv, rc, stdout)
        return out

    # -- measurement -------------------------------------------------------

    def invoke(self, argv, check, deadline):
        if time.perf_counter() > deadline:
            raise Overrun()
        secs, rc, stdout, heap = zeusc(argv, self.dir)
        self.attempted += 1
        ok = rc is not None and check(argv, rc, stdout)
        if not ok:
            self.failed += 1
            log(f"{self.name}: FAILED {key(argv)} (exit {rc})")
        return secs, heap

    def check_run(self, index):
        def check(argv, rc, stdout):
            if self.is_verify:
                return verify_summary(argv, rc, stdout) == self.expected.get(key(argv))
            return (rc == 0 and self.expected is not None
                    and sim_summary(stdout) == self.expected[index])
        return check

    @staticmethod
    def check_exit0(argv, rc, stdout):
        return rc == 0

    def iteration(self, deadline, trace):
        """A calibration, one set-up repetition and one full repetition,
        back to back."""
        self.samples["calib"].append(calibrate())
        setup = sum(self.invoke(a, self.check_exit0, deadline)[0]
                    for a in self.manifest["setup"])
        wall, heap, lat = 0.0, 0.0, []
        for i, argv in enumerate(self.manifest["run"]):
            secs, h = self.invoke(argv, self.check_run(i), deadline)
            wall += secs
            heap = max(heap, h or 0.0)
            lat.append(secs)
        if trace:
            zero = sum(self.invoke(a, self.check_exit0, deadline)[0]
                       for a in self.manifest["zero"])
            self.samples["zero"].append(zero)
            self.samples["process"].append(
                self.invoke(["--version"], self.check_exit0, deadline)[0])
        self.samples["setup"].append(setup)
        self.samples["wall"].append(wall)
        self.samples["heap"].append(heap)
        if self.is_verify:
            self.samples["item"].append(statistics.median(lat) * 1e6)
        else:
            self.samples["item"].append((wall - setup) / self.manifest["items"] * 1e6)

    def trace_pass(self):
        spans = os.path.join(WORK, "spans", f"{self.name}-{self.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        proc = subprocess.run([E2E, "trace", self.name, str(self.seed), self.dir, spans],
                              stdout=subprocess.PIPE, stderr=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{self.name}: traced pass failed (exit {proc.returncode})")
        log(f"{self.name}: spans written to {os.path.relpath(spans, ROOT)}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])

    def metrics(self, layer):
        """Every metric as a summary of its samples; with [layer], the
        in-process pass's numbers, the per-layer metrics too."""
        s = {k: summarize(v) for k, v in self.samples.items()}
        out = {"setup_s": s["setup"], "wall_s": s["wall"], "item_us": s["item"],
               "peak_heap_mb": s["heap"], "machine.calib_s": s["calib"]}
        if layer is None:
            return out
        med = {k: (v["median"] if v else 0.0) for k, v in s.items()}
        derived = dict(layer)
        derived.update({
            "zeusc.deck_s": 0.0 if self.is_verify else med["zero"] - med["setup"],
            "zeusc.eval_s": 0.0 if self.is_verify else med["wall"] - med["zero"],
            "zeusc.process_s": med["process"],
            "zeusc.unattributed_s": med["wall"] - layer["inprocess.total_s"],
        })
        out.update({k: {"median": v, "n": 1} for k, v in derived.items()})
        return out

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Result files


def provenance():
    def cmd(args):
        try:
            return subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]),
        "commit": cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(
            os.path.join(ROOT, ".git")) else "unknown",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def append_result(path, entries):
    doc = load_json(path) or {"runs": []}
    doc["runs"].extend(entries)
    save_json(path, doc)


# ---------------------------------------------------------------------------


def write_expected(names, seed):
    path = os.path.join(EXPECTED, f"seed-{seed}.json")
    doc = load_json(path) or {}
    for name in names:
        w = Workload(name, seed)
        t = time.perf_counter()
        doc[name] = w.compute_expected()
        if doc[name] is None:
            raise SystemExit(f"{name}: no expected results written")
        log(f"{name}: expected results in {time.perf_counter() - t:.1f}s")
        w.cleanup()
    save_json(path, doc)
    log(f"wrote {os.path.relpath(path, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the full result to this JSON file")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate bench/e2e/expected/seed-SEED.json")
    args = ap.parse_args()

    for f in ("dune-project", os.path.join("bin", "zeusc.ml"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, f)):
            log(f"{f} not found under {ROOT}: run from the root of a zeus checkout")
            return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            log(f"unknown workload {args.workload}; one of {', '.join(names)} or all")
            return 2
        names = [args.workload]
    build()
    if args.write_expected:
        write_expected(names, args.seed)
        return 0

    workloads = [Workload(n, args.seed) for n in names]
    for w in workloads:
        w.load_expected()
    # the traced pass counts against --seconds, so traced runs last as long
    start = time.perf_counter()
    layers = {w.name: w.trace_pass() for w in workloads} if args.trace else {}

    # round-robin: iteration k of every workload before iteration k+1
    soft = start + args.seconds * len(workloads)
    hard = soft + OVERRUN
    k = 0
    try:
        while k < MIN_ITERATIONS or time.perf_counter() < soft:
            for w in workloads:
                w.iteration(hard, args.trace)
            k += 1
    except Overrun:
        log(f"measurement overran its budget after {k} iterations")

    reported = spec["per_layer" if args.trace else "end_to_end"]
    results, printed, prov = [], {}, provenance()
    for w in workloads:
        full = w.metrics(layers.get(w.name))
        for m in reported:
            v = full[m["name"]]
            if v is None:
                raise SystemExit(f"{w.name}: no repetition completed")
            label = m["name"] if len(workloads) == 1 else f"{w.name}.{m['name']}"
            printed[label] = {"value": v["median"], "unit": m["unit"]}
            log(f"{w.name:13} {m['name']:24} {v['median']:14.6g} {m['unit']}")
        results.append({
            "workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "iterations": k, "attempted": w.attempted,
            "failed": w.failed, "metrics": full, "provenance": prov})
        w.cleanup()
    if args.out:
        append_result(args.out, results)
    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

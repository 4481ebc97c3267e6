#!/usr/bin/env python3
"""The repository benchmark: build, run, record, compare.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \\
        --trace 0|1

builds the benchmark from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, prints its table and,
as the last line, {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric with --trace 0, every per-layer metric with --trace 1.
Exit status 0 only when every correctness check passed.

A result set (repetitions over seeds, with provenance and spread):

    python3 perfbench/run.py sweep [--workloads W1,W2] --seeds 1-10 \\
        --seconds S [--trace 0|1] --out SET.json

Compare two result sets, one row per (metric, workload):

    python3 perfbench/run.py compare BASE.json CHANGE.json

See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCHEMA = "perfbench/results.schema.json"
WORKLOADS = ("paper-apps", "server-zipf", "server-phase-shift")
RUN_TIMEOUT_S = 175
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    configured = (out / "CMakeCache.txt").exists()
    if not configured:
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=CONFIGURE_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (record, table_text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--refs", str(BENCH_DIR / "refs")]
    if trace:
        cmd += ["--spans-out",
                str(build_dir() / f"spans-{workload}-{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        raise RuntimeError(
            f"benchmark exited {proc.returncode} without a result")
    if proc.returncode not in (0, 1) or (proc.returncode == 1) == record[
            "correct"]:
        raise RuntimeError(f"benchmark exited {proc.returncode}")
    return record, "\n".join(lines[:-1])


def check_names(record, spec):
    """The binary must report exactly the metrics BENCHMARK.json names."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise RuntimeError(f"{kind} metrics do not match BENCHMARK.json: "
                           f"missing {missing}, extra {extra}, "
                           f"unit mismatch {units}")


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def provenance(record):
    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=30).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        describe = "not a git checkout"
    return {
        "git_describe": describe,
        "source_sha256": source_digest(),
        "build_flags": record["build_flags"],
        "nproc": record["nproc"],
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def quartiles(values):
    """Median and quartiles as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs):
    """Per (workload, metric): median, quartiles and count across runs."""
    out = {}
    for run in runs:
        per = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            s = per.setdefault(name, {"unit": m["unit"], "values": [],
                                      "seeds": []})
            s["values"].append(m["value"])
            s["seeds"].append(run["seed"])
    for per in out.values():
        for s in per.values():
            q1, med, q3 = quartiles(s["values"])
            s.update(median=med, q1=q1, q3=q3, n=len(s["values"]))
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cmd_run(args):
    spec = load_spec()
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    try:
        record, table = run_once(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
        check_names(record, spec)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"run.py: {e}")
        return 1
    print(table)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def cmd_sweep(args):
    spec = load_spec()
    binary = build()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    failed = False
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            record, _ = run_once(binary, workload, seed, args.seconds,
                                 args.trace)
            check_names(record, spec)
            runs.append(record)
            failed |= not record["correct"]
            log(f"{workload} seed {seed}: {record['passes']} passes, "
                f"{record['failed']} failed checks, "
                f"{time.monotonic() - start:.0f} s")
    result_set = {"schema": SCHEMA, "provenance": provenance(runs[0]),
                  "run_seconds": args.seconds, "runs": runs,
                  "summary": summarize(runs)}
    Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    print(f"{'workload':12} {'metric':40} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  n")
    for workload, per in result_set["summary"].items():
        for name, s in per.items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"{workload:12} {name:40} {s['median']:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}  "
                  f"{s['n']} {mark}")
    return 1 if failed else 0


def verdict(base, change, better, bound):
    """choosing-metrics §8: better, worse, within bound, or unresolved."""
    a, b = base["values"], change["values"]
    med_a, med_b = base["median"], change["median"]
    sign = 1 if better == "lower" else -1
    if med_a == 0:
        return "unresolved", 0.0
    worse_by = sign * (med_b - med_a) / med_a
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    iqr_a = base["q3"] - base["q1"]
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > iqr_a \
            and worse_by < 0:
        return "better", worse_by
    if bound is not None and worse_by > bound:
        return "worse", worse_by
    spread = max(iqr_a / med_a,
                 (change["q3"] - change["q1"]) / med_b if med_b else 0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if bound is not None and spread > bound and not all_better:
        return "unresolved", worse_by
    return "within bound", worse_by


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    for label, s in (("base", base), ("change", change)):
        p = s["provenance"]
        print(f"{label}: {p['git_describe']} src {p['source_sha256'][:12]} "
              f"nproc {p['nproc']} run_seconds {s['run_seconds']} "
              f"runs {len(s['runs'])}")
    print(f"{'workload':12} {'metric':36} {'base median [q1, q3] n':>38} "
          f"{'change median [q1, q3] n':>38} {'worse by':>9} {'bound':>6} "
          f"verdict")
    worse = False
    for workload, per in base["summary"].items():
        for name, a in per.items():
            b = change["summary"].get(workload, {}).get(name)
            m = metrics.get(name)
            if b is None or m is None:
                continue
            v, by = verdict(a, b, m.get("better", "lower"), m.get("bound"))
            worse |= v == "worse"

            def fmt(s):
                return (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                        f"{s['n']}")
            print(f"{workload:12} {name:36} {fmt(a):>38} {fmt(b):>38} "
                  f"{100 * by:8.2f}% {m.get('bound', ''):>6} {v}")
    return 1 if worse else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("sweep", "compare"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "sweep":
            p.add_argument("--workloads", default=",".join(
                w["name"] for w in load_spec()["workloads"]))
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--seconds", type=int,
                           default=load_spec()["run_seconds"])
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--out", required=True)
            return cmd_sweep(p.parse_args(argv[1:]))
        p.add_argument("base")
        p.add_argument("change")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

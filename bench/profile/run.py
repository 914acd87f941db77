#!/usr/bin/env python3
"""Entry point of the (k, E) pipeline benchmark.

Builds omenx_profile from the checkout's sources (once; rebuilt when a source
is newer than the binary), runs it, and turns its output into one result line.

  run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run.  The last stdout line is
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
      the end-to-end metrics untraced, the per-layer metrics traced.

  run.py --collect runs.jsonl --seed <n> [--workload <name|all>] [--seconds s]
      Append one untraced run record per workload to a JSON-lines file.

  run.py --calibrate [--seeds 1-10] [--seconds s] [--out baseline.json]
      Untraced runs of every workload for each seed, summarised per
      (workload, metric) as median, Q1, Q3, n and spread (Q3 - Q1) / median,
      with the machine and build they ran on.

  run.py --compare parent.jsonl change.jsonl [--claim workload:metric ...]
      The paired comparison rule: one row per workload.

Runs only inside the checkout: the build goes to build/profile, traces to
build/profile/trace.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "profile"
EXE = BUILD / "omenx_profile"
WORKLOADS = ["utb_kspace", "wire_long", "fet_iv", "dephasing"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def newest_source_mtime():
    paths = [ROOT / "CMakeLists.txt"]
    paths += [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    paths += [p for p in HERE.iterdir() if p.suffix in (".cpp", ".hpp", ".txt")]
    return max(p.stat().st_mtime for p in paths)


def ensure_built():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT} (need CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if EXE.is_file() and EXE.stat().st_mtime >= newest_source_mtime():
            return
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
        ]
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    """One omenx_profile run; returns its JSON result (or exits)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        (BUILD / "trace").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(BUILD / "trace")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("{")]
    for line in lines:
        if not line.startswith("{"):
            print(line)
    if not results:
        fail(f"{workload} seed {seed}: omenx_profile exited "
             f"{proc.returncode} without a result")
    return json.loads(results[-1])


def contract_line(result):
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }


def record(result):
    return {"workload": result["workload"], "seed": result["seed"],
            "attempted": result["attempted"], "failed": result["failed"],
            "digest": result["digest"], "build": result["build"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "info": {k: m["value"] for k, m in result["info"].items()}}


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def benchmark_definition():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def calibrate(args):
    seeds = seed_list(args.seeds)
    runs = []
    for i, seed in enumerate(seeds):
        # Alternate the workload order so no workload always runs first.
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            runs.append(record(run_binary(w, seed, args.seconds, False)))
    failed = sum(r["failed"] for r in runs)
    bounds = {m["name"]: m["bound"]
              for m in benchmark_definition().get("end_to_end", [])}
    table = {}
    for w in WORKLOADS:
        mine = [r for r in runs if r["workload"] == w]
        table[w] = {name: summary([{**r["metrics"], **r["info"]}[name]
                                   for r in mine])
                    for name in {**mine[0]["metrics"], **mine[0]["info"]}}
    print(f"{'workload':<12} {'metric':<12} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    worst = {}
    for w, metrics in table.items():
        for name, s in metrics.items():
            worst[name] = max(worst.get(name, 0.0), s["spread"])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  spread above a third of the bound"
            print(f"{w:<12} {name:<12} {s['median']:>12.6g} "
                  f"{s['spread']:>8.4f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
    baseline = {
        "meta": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "build": runs[0]["build"], "run_seconds": args.seconds,
                 "seeds": seeds, "failed_operations": failed},
        "workloads": table,
        # Smallest bound that keeps the worst observed spread under a third
        # of it, floored at 5% and capped at the 25% a bound may not exceed.
        "suggested_bounds": {name: min(0.25, max(0.05, round(3.0 * s + 0.005, 2)))
                             for name, s in worst.items()
                             if name in runs[0]["metrics"]},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if failed == 0 else 1


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r)
    return runs


def compare(args):
    """Paired comparison of two sets of runs of the same benchmark.

    A claimed gain needs >= 9/10 pair wins (ties count for neither side) and
    medians further apart than the parent's Q3 - Q1.  An unclaimed metric
    passes when the change's median is no worse than the parent's by more
    than the metric's bound; when the parent's own spread exceeds the bound
    it is "unresolved" unless every change run beats every parent run.  The
    error rate may not rise.
    """
    parent, change = load_runs(args.parent), load_runs(args.change)
    definition = {m["name"]: m for m in benchmark_definition().get("end_to_end", [])}
    claims = set(args.claim or [])
    ok = True
    for w in WORKLOADS:
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        if not p_runs or not c_runs:
            continue
        pairs = min(len(p_runs), len(c_runs))
        cells = []
        if pairs < 10:
            cells.append(f"only {pairs} pairs (need 10)")
            ok = False
        for name, d in definition.items():
            p = [r["metrics"][name] for r in p_runs[:pairs]]
            c = [r["metrics"][name] for r in c_runs[:pairs]]
            lower = d["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(better(cv, pv) for pv, cv in zip(p, c))
            q1, pm, q3 = statistics.quantiles(p, n=4) if pairs >= 2 else (p[0],) * 3
            cm = statistics.median(c)
            worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
            if f"{w}:{name}" in claims:
                verdict = ("gain" if wins >= 0.9 * pairs and abs(cm - pm) > q3 - q1
                           and worse < 0 else "CLAIM NOT MET")
            elif pm and (q3 - q1) / pm > d["bound"]:
                verdict = ("better" if all(better(cv, pv) for cv in c for pv in p)
                           else "unresolved")
            else:
                verdict = "REGRESSION" if worse > d["bound"] else "ok"
            ok = ok and verdict not in ("REGRESSION", "CLAIM NOT MET")
            cells.append(f"{name} {verdict} ({-worse:+.1%}, {wins}/{pairs} wins)")
        p_err = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_err = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        err_ok = c_err <= p_err
        ok = ok and err_ok
        cells.append(f"error_rate {'ok' if err_ok else 'REGRESSION'} "
                     f"({p_err:.3g} -> {c_err:.3g})")
        print(f"{w:<11} " + " | ".join(cells))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    # The default is BENCHMARK.json's run_seconds, so collected runs compare.
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--collect", metavar="RUNS_JSONL")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--claim", action="append", metavar="WORKLOAD:METRIC")
    args = ap.parse_args()

    if args.compare:
        args.parent, args.change = args.compare
        return compare(args)
    if args.workload not in WORKLOADS + ["all"]:
        fail(f"unknown workload '{args.workload}' (one of {', '.join(WORKLOADS)})")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    ensure_built()
    if args.calibrate:
        return calibrate(args)
    if args.collect:
        with open(args.collect, "a") as f:
            for w in names:
                f.write(json.dumps(record(run_binary(w, args.seed, args.seconds,
                                                     False))) + "\n")
        return 0
    if len(names) != 1:
        fail("--workload must name one workload")
    print(json.dumps(contract_line(run_binary(names[0], args.seed, args.seconds,
                                              args.trace == 1))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

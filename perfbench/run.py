#!/usr/bin/env python3
"""Run one workload of the fbfly benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  The script builds the benchmark program
(perfbench/CMakeLists.txt, which compiles the fbfly library from src/)
into .bench_build/perfbench, runs it for the time budget in a
process of its own, checks the simulated results, and prints:

  * a `build-record` line: CPU, cores, compiler, build type and flags,
    git revision and dirty flag;
  * as the last line, one JSON object with the keys `correct`,
    `attempted`, `failed` and `metrics`.  --trace 0 reports the
    end-to-end metrics, --trace 1 the per-layer metrics (README.md).

The raw measurements and the build record of every run are kept in
.bench_build/results/.  Build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "fbfly_perfbench"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper1k_uniform", "paper1k_worstcase", "xscale32k",
             "design_search")
# The seed whose simulated results reference.json pins.
DEFAULT_SEED = 2007
# Seconds the program may run beyond its budget before it is killed.
GRACE_S = 120


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the program; exit on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fbfly sources under {ROOT / 'src'}")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "fbfly_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def run_program(args):
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        fail("fbfly_perfbench timed out")
    if proc.returncode != 0:
        fail(f"fbfly_perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout)


def git(*argv):
    proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def build_record(doc):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": doc["build"]["compiler"],
            "build_type": doc["build"]["type"],
            "flags": doc["build"]["flags"],
            "git_sha": sha or "unknown (not a git checkout)",
            "git_dirty": dirty}


def calls(doc):
    """Every timed call of the run: (traced?, call record)."""
    for rep in doc["reps"]:
        yield False, rep["untraced"]
        if "traced" in rep:
            yield True, rep["traced"]


def timed(doc):
    """The repetitions whose times count: all but the first, which
    warms the caches and the allocator (unless it is the only one)."""
    return doc["reps"][1:] or doc["reps"]


def sim_stats(stats):
    """The simulated statistics the reference pins."""
    out = {"sim_latency_cycles": stats["avg_latency"],
           "sim_p99_latency_cycles": stats["p99_latency"],
           "sim_accepted": stats["accepted"],
           "sim.measured_packets": stats["measured_packets"],
           "sim.avg_hops": stats["avg_hops"]}
    if "frontier" in stats:
        out.update({"search.candidates": stats["candidates"],
                    "search.pruned": stats["pruned"],
                    "search.swept": stats["swept"],
                    "search.frontier": stats["frontier"]})
    return out


def check(doc, reference):
    """Problems with the run's outputs (empty when all is well)."""
    problems = []
    first = doc["reps"][0]["untraced"]["stats"]
    for i, (traced, call) in enumerate(calls(doc)):
        if call["stats"] != first:
            kind = "traced" if traced else "untraced"
            problems.append(f"{kind} call {i} simulated different "
                            f"statistics than call 0")
    if first.get("status", "delivered") != "delivered":
        problems.append(f"load point ended {first['status']}")
    if not first.get("oracle_clean", True):
        problems.append("delivery oracle flagged the run")
    if first["attempted"] < 1 or first["failed"] > 0:
        problems.append(f"{first['failed']} of {first['attempted']} "
                        f"operations failed")
    if "frontier" in first:
        if any(rep["setup"]["candidates"] != first["candidates"]
               for rep in doc["reps"]):
            problems.append("enumerateDesignCandidates and "
                            "runDesignSearch disagree")
    if doc["seed"] == DEFAULT_SEED:
        got = sim_stats(first)
        for key, want in reference[doc["workload"]].items():
            if got.get(key) != want:
                problems.append(f"{key} = {got.get(key)!r}, reference "
                                f"{want!r}")
    return problems


def median(values):
    return statistics.median(list(values))


def end_to_end(doc):
    first = doc["reps"][0]["untraced"]["stats"]
    setups = [rep["setup"] for rep in timed(doc)]
    if "frontier" in first:
        setup_s = median(s["enumerate_s"] for s in setups)
    else:
        setup_s = median(s["topology_s"] + s["routing_s"] + s["network_s"]
                         for s in setups)
    return {
        "cpu_s": median(rep["untraced"]["cpu_s"] for rep in timed(doc)),
        "setup_s": setup_s,
        "peak_rss_mb": doc["peak_rss_bytes"] / 1e6,
        "sim_latency_cycles": first["avg_latency"],
        "sim_p99_latency_cycles": first["p99_latency"],
        "sim_accepted": first["accepted"],
    }


def per_layer(doc):
    """Per-layer metrics of the layers the workload reaches from
    outside the library.  Build and call times are CPU seconds; the
    decorators' busy_s spans are wall time, but each lasts well under
    a microsecond, so the process seldom loses its core inside one."""
    reps = timed(doc)
    first = reps[0]["untraced"]["stats"]
    setups = [rep["setup"] for rep in reps]
    untraced_cpu = median(rep["untraced"]["cpu_s"] for rep in reps)
    m = {"sim.measured_packets": first["measured_packets"],
         "sim.avg_hops": first["avg_hops"]}
    if "frontier" in first:
        enumerate_s = median(s["enumerate_s"] for s in setups)
        sweep_s = untraced_cpu - enumerate_s
        m.update({
            "search.candidates": first["candidates"],
            "search.swept": first["swept"],
            "search.frontier": len(first["frontier"]),
            "search.enumerate_s": enumerate_s,
            "search.sweep_s": sweep_s,
            "search.s_per_point": sweep_s / first["attempted"],
        })
        return m

    traced = [rep["traced"] for rep in reps]
    network_build = median(s["network_s"] for s in setups)
    routing_calls = traced[0]["routing"]["calls"]
    traffic_calls = traced[0]["traffic"]["calls"]
    routing_busy = median(t["routing"]["busy_s"] for t in traced)
    traffic_busy = median(t["traffic"]["busy_s"] for t in traced)
    self_s = median(t["cpu_s"] - t["routing"]["busy_s"] -
                    t["traffic"]["busy_s"] - network_build
                    for t in traced)
    m.update({
        "topology.build_s": median(s["topology_s"] for s in setups),
        "routing.build_s": median(s["routing_s"] for s in setups),
        "routing.calls": routing_calls,
        "routing.busy_s": routing_busy,
        "routing.ns_per_call": routing_busy / routing_calls * 1e9,
        "routing.drop_frac": traced[0]["routing"]["drops"] / routing_calls,
        "traffic.dest_calls": traffic_calls,
        "traffic.busy_s": traffic_busy,
        "traffic.ns_per_call": traffic_busy / traffic_calls * 1e9,
        "network.build_s": network_build,
        "network.self_s": self_s,
        "network.ns_per_hop": self_s / routing_calls * 1e9,
        "network.bytes_per_terminal":
            max(rep["setup"]["network_bytes"] for rep in doc["reps"]) /
            doc["terminals"],
        "trace.overhead_frac":
            median(t["cpu_s"] for t in traced) / untraced_cpu - 1.0,
    })
    return m


def result(doc, reference, spec):
    """The benchmark's result object for a fbfly_perfbench document.
    Names and units come from BENCHMARK.json (`spec`); a per-layer
    metric of a layer the workload does not reach reports 0
    (README.md)."""
    problems = check(doc, reference)
    for p in problems:
        print(f"run.py: check failed: {p}", file=sys.stderr)
    attempted = sum(c["stats"]["attempted"] for _, c in calls(doc))
    failed = sum(c["stats"]["failed"] for _, c in calls(doc))
    if doc["trace"]:
        listed, values = spec["per_layer"], per_layer(doc)
    else:
        listed, values = spec["end_to_end"], end_to_end(doc)
        assert len(values) == len(listed)
    assert set(values) <= {m["name"] for m in listed}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                    "unit": m["unit"]}
                        for m in listed}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    build()
    doc = run_program(args)
    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    record = build_record(doc)
    out = result(doc, reference, spec)

    results_dir = ROOT / ".bench_build" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w", encoding="utf-8") as f:
        json.dump({"record": record, "result": out, "raw": doc}, f,
                  indent=1)
    print("build-record " + json.dumps(record))
    print(json.dumps(out))


if __name__ == "__main__":
    main()

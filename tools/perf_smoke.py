#!/usr/bin/env python3
"""Perf smoke check: compare a fresh micro_kernel run to the
committed baseline.

Usage: perf_smoke.py CURRENT.json [BASELINE.json]

Reads the serial step-loop rates (``step_rate_cycles_per_sec_*``
metadata keys of the fbfly-sweep-v1 document) from both files and
fails when any load point of the current run falls below
``THRESHOLD`` times the committed baseline.

Documents without step_rate metadata (e.g. BENCH_churn_sweep.json)
fall back to per-point simulated-cycles-per-wall-second rates derived
from the ``warmup_cycles``/``horizon_cycles`` metadata and each
point's ``wall_seconds`` — the same parachute, one lane per sweep
point.  Churn sweeps (points of ``kind: churn``) additionally take an
exact-equality lane: the sweep is deterministic for any --threads, so
every point must equal the baseline's on all fields but
``wall_seconds``.  Inside ``metrics`` every baseline counter, gauge
and series must be present with an equal value; gauges and series
the baseline lacks are allowed (new observability never invalidates
the pinned results), new counters are not.

Degradation and resilience sweeps (``bench: degradation_sweep`` or
``resilience_sweep``, e.g. the committed BENCH_degradation_sweep.json
and BENCH_resilience_sweep.json) carry no rate data at all; the same
exact-equality lane is their whole check — every point's throughput,
latency, status, link-retry counters and delivery audit under the
deterministic fault sets and error rates must equal the baseline's.
Figure 5 (``bench: fig05_dynamic_response``, the committed
BENCH_fig05_dynamic_response.json) takes the same lane: every batch
point's completion cycle, normalized latency, status and delivery
audit must equal the baseline's.

Documents carrying xscale metadata (``xscale_shard_speedup_8`` from
bench/xscale_sweep) additionally get two self-relative lanes that
need no baseline at all: the peak-RSS-per-terminal ceiling (the
memory-lean budget of the sharded step engine) and, when the machine
actually has >= 8 hardware threads (``hw_threads`` metadata), the
>= 3x 8-shard speedup floor.  On smaller machines the speedup lane is
reported but skipped — a 2-core runner physically cannot show an
8-way win, and the engine's bit-identical-results contract means the
shard count never changes what is being measured.

Design-search documents (``schema: fbfly-pareto-v1`` from
bench/design_search) take a dedicated lane instead of the rate
comparison: the run's metadata must be internally consistent
(candidates >= survivors >= frontier >= 1, pruned + swept =
enumerated, every required family swept), and every top-level field
but ``git`` (spec, seed, metadata, candidates, points, frontier) must
equal the committed BENCH_design_search.json exactly — the document
is bit-identical for any --threads/--shards, so any drift is a real
behavior change, not noise.

The committed baseline (BENCH_micro_kernel.json) is recorded on a
quiet dedicated machine; CI runners are slower and noisy, so the
threshold is deliberately generous — this is a parachute against
order-of-magnitude regressions (e.g. the active-set kernel silently
degrading to a full per-cycle scan), not a precision gate.  Track
fine-grained trends via the uploaded JSON artifacts instead.
"""

import json
import sys

THRESHOLD = 0.35  # fail below 35% of the committed baseline
XSCALE_SPEEDUP_FLOOR = 3.0  # 8-shard self-relative, >= 8 cores only
XSCALE_MIN_THREADS = 8
XSCALE_RSS_CEILING = 16 * 1024  # bytes per terminal
# Benches whose documents carry no rate data: the exact-equality lane
# is their whole check.
EXACT_ONLY_BENCHES = ("degradation_sweep", "resilience_sweep",
                      "fig05_dynamic_response")


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def step_rates(path, doc=None):
    if doc is None:
        doc = load_doc(path)
    meta = doc.get("metadata", {})
    rates = {
        key: float(value)
        for key, value in meta.items()
        if key.startswith("step_rate_cycles_per_sec_")
        or (key.startswith("xscale_shard")
            and key.endswith("_cycles_per_sec"))
    }
    if not rates:
        rates = point_rates(doc, meta, path)
    if not rates:
        sys.exit(f"error: no rate data derivable from {path}")
    return rates


def point_rates(doc, meta, path):
    """Fallback lane per sweep point: simulated cycles / wall second,
    for documents (churn sweeps) that carry no step_rate metadata."""
    try:
        cycles = float(meta["warmup_cycles"]) + float(
            meta["horizon_cycles"])
    except (KeyError, ValueError):
        return {}
    if cycles <= 0:
        return {}
    rates = {}
    for point in doc.get("points", []):
        wall = point.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall <= 0:
            print(f"note: skipping point {point.get('index')} of "
                  f"{path} (no usable wall_seconds)")
            continue
        key = f"point_{point.get('index')}_{point.get('series', '')}"
        rates[key] = cycles / wall
    return rates


def xscale_checks(meta):
    """Self-relative lanes of an xscale document: the peak-RSS
    budget always, the 8-shard speedup floor only on machines with
    enough hardware threads to show one."""
    failures = []

    rss = meta.get("peak_rss_per_terminal_bytes")
    if isinstance(rss, (int, float)) and rss > 0:
        status = "ok" if rss < XSCALE_RSS_CEILING else "FAIL"
        print(f"{status:>4}  peak_rss_per_terminal_bytes: {rss:.0f} "
              f"(ceiling {XSCALE_RSS_CEILING})")
        if rss >= XSCALE_RSS_CEILING:
            failures.append(
                f"peak_rss_per_terminal_bytes: {rss:.0f} >= "
                f"{XSCALE_RSS_CEILING}")
    else:
        failures.append("peak_rss_per_terminal_bytes: missing")

    speedup = meta.get("xscale_shard_speedup_8")
    threads = meta.get("hw_threads", 0)
    if not isinstance(speedup, (int, float)):
        failures.append("xscale_shard_speedup_8: missing")
    elif threads >= XSCALE_MIN_THREADS:
        status = ("ok" if speedup >= XSCALE_SPEEDUP_FLOOR
                  else "FAIL")
        print(f"{status:>4}  xscale_shard_speedup_8: {speedup:.2f}x "
              f"(floor {XSCALE_SPEEDUP_FLOOR}x, "
              f"hw_threads {threads:.0f})")
        if speedup < XSCALE_SPEEDUP_FLOOR:
            failures.append(
                f"xscale_shard_speedup_8: {speedup:.2f} < "
                f"{XSCALE_SPEEDUP_FLOOR}")
    else:
        print(f"skip  xscale_shard_speedup_8: {speedup:.2f}x "
              f"(only {threads:.0f} hardware thread(s), floor "
              f"needs >= {XSCALE_MIN_THREADS})")
    return failures


def equality_checks(doc, base_doc):
    """Exact lane (churn, degradation, resilience and Figure 5
    sweeps): every point equals the baseline's point exactly, apart from wall_seconds and metric
    gauges/series the baseline does not have."""
    failures = []
    if doc.get("bench") != base_doc.get("bench"):
        return [f"bench: {doc.get('bench')!r} != baseline "
                f"{base_doc.get('bench')!r}"]
    points = doc.get("points", [])
    base_points = base_doc.get("points", [])
    if len(points) != len(base_points):
        return [f"points: {len(points)} vs baseline "
                f"{len(base_points)}"]
    for cur, base in zip(points, base_points):
        label = f"point_{base.get('index')}_{base.get('series', '')}"
        diffs = []
        for key in sorted(set(cur) | set(base)):
            if key in ("wall_seconds", "metrics"):
                continue
            if cur.get(key) != base.get(key):
                diffs.append(f"{key}: {cur.get(key)!r} != baseline "
                             f"{base.get(key)!r}")
        cur_m = cur.get("metrics") or {}
        base_m = base.get("metrics") or {}
        for kind in ("counters", "gauges", "series"):
            have = cur_m.get(kind, {})
            for name, value in base_m.get(kind, {}).items():
                if name not in have:
                    diffs.append(f"metrics.{kind}.{name}: missing")
                elif have[name] != value:
                    diffs.append(f"metrics.{kind}.{name}: "
                                 f"{have[name]!r} != baseline "
                                 f"{value!r}")
        for name in cur_m.get("counters", {}):
            if name not in base_m.get("counters", {}):
                diffs.append(f"metrics.counters.{name}: not in "
                             f"baseline")
        if diffs:
            print(f"FAIL  {label}: {len(diffs)} field(s) differ "
                  f"from baseline")
        else:
            print(f"  ok  {label}: equal to baseline "
                  f"(wall_seconds aside)")
        failures += [f"{label}: {d}" for d in diffs]
    return failures


PARETO_COUNT_KEYS = ("candidates_enumerated", "candidates_pruned",
                     "survivors_swept", "frontier_size")
PARETO_REQUIRED_FAMILIES = ("fbfly", "dragonfly", "slimfly")
# The only top-level field of a design-search document that may
# differ from the baseline: the source revision it was built from.
PARETO_UNPINNED_FIELDS = ("git",)


def first_difference(cur, base, path):
    """Path and values of the first place two JSON values differ."""
    if isinstance(cur, dict) and isinstance(base, dict):
        for key in sorted(set(cur) | set(base)):
            if cur.get(key) != base.get(key):
                return first_difference(cur.get(key), base.get(key),
                                        f"{path}.{key}")
    if (isinstance(cur, list) and isinstance(base, list)
            and len(cur) == len(base)):
        for i, (c, b) in enumerate(zip(cur, base)):
            if c != b:
                return first_difference(c, b, f"{path}[{i}]")
    return f"{path}: {cur!r} != baseline {base!r}"


def pareto_checks(doc, base_doc):
    """Design-search lane: metadata sanity plus exact agreement with
    the committed baseline on every top-level field but ``git`` (the
    document is deterministic)."""
    failures = []
    meta = doc.get("metadata", {})
    counts = {}
    for key in PARETO_COUNT_KEYS:
        value = meta.get(key)
        if not isinstance(value, (int, float)):
            failures.append(f"{key}: missing or non-numeric")
            continue
        counts[key] = int(value)
    if len(counts) == len(PARETO_COUNT_KEYS):
        enumerated = counts["candidates_enumerated"]
        pruned = counts["candidates_pruned"]
        swept = counts["survivors_swept"]
        frontier = counts["frontier_size"]
        ok = (enumerated >= swept >= frontier >= 1
              and pruned + swept == enumerated)
        status = "ok" if ok else "FAIL"
        print(f"{status:>4}  pareto counts: {enumerated} enumerated "
              f"= {pruned} pruned + {swept} swept, "
              f"frontier {frontier}")
        if not ok:
            failures.append(
                f"inconsistent pareto counts: enumerated "
                f"{enumerated}, pruned {pruned}, swept {swept}, "
                f"frontier {frontier}")
    families = meta.get("families", "")
    family_set = set(families.split(",")) if families else set()
    for fam in PARETO_REQUIRED_FAMILIES:
        status = "ok" if fam in family_set else "FAIL"
        print(f"{status:>4}  family swept: {fam}")
        if fam not in family_set:
            failures.append(f"family '{fam}' missing from "
                            f"families '{families}'")
    for key in sorted(set(doc) | set(base_doc)):
        if key in PARETO_UNPINNED_FIELDS:
            continue
        if key not in base_doc:
            failures.append(f"{key}: missing from baseline")
            continue
        same = doc.get(key) == base_doc[key]
        status = "ok" if same else "FAIL"
        print(f"{status:>4}  {key}: "
              f"{'equal to' if same else 'differs from'} baseline")
        if not same:
            failures.append(first_difference(doc.get(key),
                                             base_doc[key], key))
    return failures


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(f"usage: {argv[0]} CURRENT.json [BASELINE.json]")
    current_doc = load_doc(argv[1])
    if current_doc.get("schema") == "fbfly-pareto-v1":
        if len(argv) != 3:
            sys.exit(f"usage: {argv[0]} CURRENT.json BASELINE.json "
                     "(pareto documents need the baseline)")
        baseline_doc = load_doc(argv[2])
        return report(pareto_checks(current_doc, baseline_doc))
    baseline_path = argv[2] if len(argv) == 3 else \
        "BENCH_micro_kernel.json"
    baseline_doc = load_doc(baseline_path)

    failures = []
    exact_only = baseline_doc.get("bench") in EXACT_ONLY_BENCHES
    if exact_only or any(p.get("kind") == "churn"
                         for p in baseline_doc.get("points", [])):
        failures += equality_checks(current_doc, baseline_doc)
    if exact_only:
        return report(failures)
    current = step_rates(argv[1], current_doc)
    baseline = step_rates(baseline_path, baseline_doc)
    current_meta = current_doc.get("metadata", {})
    if "xscale_shard_speedup_8" in current_meta or \
            "peak_rss_per_terminal_bytes" in current_meta:
        failures += xscale_checks(current_meta)
    for key, base in sorted(baseline.items()):
        if key not in current:
            failures.append(f"{key}: missing from current run")
            continue
        cur = current[key]
        ratio = cur / base if base > 0 else float("inf")
        status = "ok" if ratio >= THRESHOLD else "FAIL"
        print(f"{status:>4}  {key}: {cur:.0f} vs baseline "
              f"{base:.0f} ({ratio:.2f}x, floor {THRESHOLD}x)")
        if ratio < THRESHOLD:
            failures.append(
                f"{key}: {cur:.0f} < {THRESHOLD} * {base:.0f}")
    return report(failures)


def report(failures):
    if failures:
        print("\nperf smoke FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""A/A check: two sets of runs of one build on the same seeds.

Usage: aa.py [runs] [seconds]      (from the root of the checkout; see aa.sh)

Every run is the `command` of BENCHMARK.json with the driver's arguments, so
the first one builds. Runs every workload `runs` times per set (default 10),
each time on another seed, the hold-out seed excluded, workloads taking turns
so that a slow phase of the host is shared between them. Untraced runs
measure for `seconds` (default: run_seconds of BENCHMARK.json); traced runs,
of which only the counts are judged, measure the fewest reps a run allows.
Writes benchmark/AA.md (and every run's values to benchmark/out/aa_runs.json)
and exits non-zero unless

 (a) per seed, the simulated metrics and every per-layer count are bit-equal
     between the sets;
 (b) each host metric's set medians differ by less than its bound;
 (c) each end-to-end metric's quartile spread over the seeds is within its
     bound on every workload (setup_s exempt);
 (d) every end-to-end metric takes at least two distinct values over the
     seeds on every workload, none of them 0 and no percentage exactly 100.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HOLD_OUT = 7
HOST_METRICS = ["setup_s", "peak_heap_mb", "allocs_m"]
# Wall time of a rep: per-layer, so shown but not judged.
RUN_S = "bench.run_s"


def run(command, workload, seed, seconds, trace):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    manifest = json.load(open("BENCHMARK.json"))
    command = manifest["command"]
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seconds = int(sys.argv[2]) if len(sys.argv) > 2 else manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]
    e2e = manifest["end_to_end"]
    simulated = [m["name"] for m in e2e if m["name"] not in HOST_METRICS]
    counts = [m["name"] for m in manifest["per_layer"]
              if m["unit"] == "count" and not m["name"].startswith("bench.")]
    seeds = [s for s in range(1, runs + 2) if s != HOLD_OUT][:runs]

    started = time.time()
    # results[set][workload][seed] = (end-to-end values, per-layer values)
    results = [{w: {} for w in workloads} for _ in range(2)]
    for s, per_set in enumerate(results):
        for seed in seeds:
            for w in workloads:
                per_set[w][seed] = (run(command, w, seed, seconds, 0),
                                    run(command, w, seed, 1, 1))
                print(f"set {'AB'[s]} seed {seed} {w} done "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)

    # Every run made, for whoever wants more than the medians below.
    os.makedirs("benchmark/out", exist_ok=True)
    json.dump(results, open("benchmark/out/aa_runs.json", "w"), indent=1)

    failures = []
    lines = [
        "# A/A: two sets of runs of one build on the same seeds",
        "",
        f"`benchmark/aa.sh {runs} {seconds}`: {runs} seeds ({', '.join(map(str, seeds))}; "
        f"seed {HOLD_OUT} is the hold-out and is never used here), {seconds} s per untraced "
        f"run, workloads taking turns, {time.time() - started:.0f} s in all. "
        "Spread is the distance between the first and third quartile of a set's values over "
        "the seeds (`statistics.quantiles(values, n=4)`) as a share of their median; the two "
        "numbers are set A and set B. `diff` is how far set B's median is from set A's, as a "
        "share of set A's; for simulated metrics it is 0 by check (a). The last row of each "
        f"table is the wall time of a rep from the traced runs (`{RUN_S}`, the cheaper of their "
        "two untraced reps), which has no bound: it shows what the host did meanwhile.",
        "",
    ]

    # (a) bit-equal simulated side.
    unequal = []
    for w in workloads:
        for seed in seeds:
            (ea, la), (eb, lb) = results[0][w][seed], results[1][w][seed]
            for name in simulated:
                if ea[name] != eb[name]:
                    unequal.append(f"{w} seed {seed} {name}: {ea[name]} vs {eb[name]}")
            for name in counts:
                if la[name] != lb[name]:
                    unequal.append(f"{w} seed {seed} {name}: {la[name]} vs {lb[name]}")
    lines.append(f"**(a) simulated side bit-equal between the sets:** "
                 f"{len(simulated)} end-to-end metrics and {len(counts)} per-layer counts, "
                 f"{len(workloads) * len(seeds)} (workload, seed) pairs — "
                 + ("pass" if not unequal else f"FAIL ({len(unequal)} differences)"))
    lines.append("")
    failures += unequal

    for w in workloads:
        lines += [f"## {w}", "",
                  "| metric | median A | median B | diff | spread A, B | bound | distinct | verdict |",
                  "|---|---|---|---|---|---|---|---|"]
        for m in e2e:
            name, bound = m["name"], m["bound"]
            sets = [[results[s][w][seed][0][name] for seed in seeds] for s in range(2)]
            med = [statistics.median(v) for v in sets]
            diff = abs(med[1] - med[0]) / med[0]
            spreads = [spread(v) for v in sets]
            distinct = len(set(sets[0]))
            problems = []
            if name in HOST_METRICS and diff >= bound:
                problems.append("(b) medians differ")
            if name != "setup_s" and max(spreads) > bound:
                problems.append("(c) spread")
            if distinct < 2 or any(v == 0 for v in sets[0] + sets[1]):
                problems.append("(d) constant or 0")
            if m["unit"] == "%" and any(v == 100 for v in sets[0] + sets[1]):
                problems.append("(d) exactly 100 %")
            failures += [f"{w} {name}: {p}" for p in problems]
            lines.append(
                f"| `{name}` | {med[0]:.6g} | {med[1]:.6g} | {diff:.4f} | "
                f"{spreads[0]:.4f}, {spreads[1]:.4f} | {bound} | {distinct} | "
                f"{'; '.join(problems) or 'ok'} |")
        sets = [[results[s][w][seed][1][RUN_S] for seed in seeds] for s in range(2)]
        med = [statistics.median(v) for v in sets]
        lines.append(
            f"| `{RUN_S}` | {med[0]:.6g} | {med[1]:.6g} | {abs(med[1] - med[0]) / med[0]:.4f} | "
            f"{spread(sets[0]):.4f}, {spread(sets[1]):.4f} | none | {len(set(sets[0]))} | "
            "per-layer: not judged |")
        lines.append("")

    lines.append("## Verdict")
    lines.append("")
    lines.append("All four checks pass." if not failures
                 else "FAILED:\n\n" + "\n".join(f"- {f}" for f in failures))
    lines.append("")
    open("benchmark/AA.md", "w").write("\n".join(lines))
    print(f"wrote benchmark/AA.md: {'pass' if not failures else 'FAIL'}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

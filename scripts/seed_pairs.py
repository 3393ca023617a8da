#!/usr/bin/env python3
"""Judge a change over seeds: run two prebuilt benchmark binaries (the
parent's and the change's) on the same workloads and seeds, and tally every
end-to-end metric seed by seed.

Each (workload, seed) runs once per side with `--seconds 1 --trace 0`, two
runs at a time. The simulated metrics, `peak_heap_mb` and `allocs_m` are
byte and count readings of a deterministic program, so one run per side
settles a seed. `setup_s` is host-timed and is left out: judge it with
alternating paired runs instead.

For each workload and metric it prints the seeds the change is better on
(wins), worse on (losses) and equal on (ties), the median paired delta
(change minus parent, in the metric's unit and in per cent of the
parent), the seed with the worst delta (unit and per cent), and the
two-sided sign-test p
over the seeds that are not ties.
The rule the ledger applies (docs/PERF_LEDGER.md, header):
- a metric is claimed only if it is better on a clear majority of seeds,
  sign test p < 0.05 ("claim");
- no end-to-end metric may be worse on a majority of seeds on any
  workload ("WORSE");
- regime seeds (`--regime`) are left out of the tally and printed on
  their own line.

Each binary is run in a scratch directory holding the manifest it prints
itself (`--manifest`); the script reads no file of the checkout and
writes nothing under `benchmark/`.

Usage:
  python3 scripts/seed_pairs.py PARENT_BIN CHANGE_BIN [--seeds 1-30]
      [--workloads a,b] [--regime 12 ...]
An A/A run (one binary as both sides) must print only ties.
"""
import argparse, json, math, os, statistics, subprocess, sys, tempfile
from concurrent.futures import ThreadPoolExecutor

HOST_TIMED = {"setup_s"}


def manifest(binary, cwd):
    """The binary's own manifest, written where it will run."""
    text = subprocess.run([binary, "--manifest"], capture_output=True, text=True, check=True).stdout
    with open(os.path.join(cwd, "BENCHMARK.json"), "w") as f:
        f.write(text)
    return json.loads(text)


def run(binary, cwd, workload, seed):
    """One untraced run: its metrics, or the reason it failed."""
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    p = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, f"exit {p.returncode}: {p.stderr.strip()[:200]}"
    doc = json.loads(lines[-1])
    if not doc.get("correct") or doc.get("failed", 0) != 0:
        return None, f"failed {doc.get('failed')} of {doc.get('attempted')}"
    return {k: v["value"] for k, v in doc["metrics"].items()}, None


def sign_p(wins, losses):
    """Two-sided sign test: the chance of a split at least this uneven."""
    n, k = wins + losses, max(wins, losses)
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n
    return min(1.0, 2 * tail)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", default="1-30", help="inclusive range, e.g. 1-30")
    ap.add_argument("--workloads", help="comma-separated; default: every workload")
    ap.add_argument("--regime", type=int, action="append", default=[],
                    help="a seed reported on its own line, outside the tally")
    a = ap.parse_args()
    seeds = seeds_of(a.seeds)
    with tempfile.TemporaryDirectory() as pdir, tempfile.TemporaryDirectory() as cdir:
        sides = {"parent": (os.path.abspath(a.parent), pdir), "change": (os.path.abspath(a.change), cdir)}
        man = {side: manifest(b, d) for side, (b, d) in sides.items()}
        better = {m["name"]: m["better"] for m in man["change"]["end_to_end"]}
        workloads = [w["name"] for w in man["change"]["workloads"]]
        if a.workloads:
            workloads = a.workloads.split(",")
        jobs = [(side, w, s) for w in workloads for s in seeds for side in sides]
        with ThreadPoolExecutor(max_workers=2) as pool:
            outs = pool.map(lambda j: (j, run(*sides[j[0]], j[1], j[2])), jobs)
            results = {}
            for (side, w, s), (metrics, err) in outs:
                if err:
                    print(f"# {side} {w} seed {s}: {err}", file=sys.stderr)
                results[(side, w, s)] = metrics
    failed = 0
    print(f"seeds {a.seeds}" + (f", regime seeds {a.regime} apart" if a.regime else ""))
    print(f"{'workload':<15} {'metric':<17} {'wins':>4} {'loss':>4} {'ties':>4} "
          f"{'median Δ':>11} {'Δ %':>8} {'worst':>22} {'sign p':>7}  verdict")
    for w in workloads:
        pairs = []
        for s in seeds:
            p, c = results[("parent", w, s)], results[("change", w, s)]
            if p is None or c is None:
                failed += 1
            elif s not in a.regime:
                pairs.append((s, p, c))
        for m, dirn in better.items():
            if m in HOST_TIMED:
                continue
            sign = 1 if dirn == "higher" else -1
            deltas = [(s, c[m] - p[m]) for s, p, c in pairs]
            parent = {s: p[m] for s, p, _ in pairs}
            wins = sum(1 for _, d in deltas if d * sign > 0)
            losses = sum(1 for _, d in deltas if d * sign < 0)
            ties = len(deltas) - wins - losses
            med = statistics.median(d for _, d in deltas) if deltas else 0.0
            rel = [100 * (c[m] - p[m]) / p[m] for _, p, c in pairs if p[m]]
            med_pct = statistics.median(rel) if rel else 0.0
            worst_s, worst_d = min(deltas, key=lambda x: (x[1] * sign, x[0])) if deltas else (None, 0)
            worst = "-"
            if worst_d * sign < 0:
                pct = f" ({100 * worst_d / parent[worst_s]:+.2g} %)" if parent[worst_s] else ""
                worst = f"{worst_d:+.4g}{pct}@{worst_s}"
            pval = sign_p(wins, losses)
            verdict = ("WORSE" if losses * 2 > len(deltas)
                       else "claim" if wins > losses and pval < 0.05
                       else "")
            print(f"{w:<15} {m:<17} {wins:>4} {losses:>4} {ties:>4} {med:>+11.4g} {med_pct:>+8.3g} "
                  f"{worst:>22} {pval:>7.3g}  {verdict}")
        for s in a.regime:
            p, c = results.get(("parent", w, s)), results.get(("change", w, s))
            if p and c:
                cells = " ".join(f"{m} {c[m] - p[m]:+.4g}" for m in better if m not in HOST_TIMED)
                print(f"{w:<15} regime seed {s}: {cells}")
    if failed:
        print(f"{failed} (workload, seed) pairs had a failed run; see stderr", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Regenerate BENCH_baseline.json — the checked-in perf trajectory.

Runs the pinned-seed (--smoke) grids of the scale, overload, control,
HA, SLO, placement and grade experiments, of the three session-lifecycle
experiments (fig4: pause/resume; faults: crash-and-rebuild timing; migrate:
suspend and grace), and of the eleven paper experiments (fig1, fig2, fig3,
fig5, tab1, skew, window, admit, concur, ablate, search: the lip-sync
tolerance, buffer watermarks, flow lead, presentation floors, admission
shedding and feedback cadence they exercise), with `--json` and merges the
documents into one file. Every run is deterministic and no row is
host-timed (exp_fig1 prints its host timing only in its text output), so the file is a pure function of the source: a diff against
the checked-in baseline is a real behaviour change, never noise, and CI
fails on one (`git diff --exit-code BENCH_baseline.json` after this
script). Re-run after a PR that moves these numbers and commit the diff
alongside the change that explains it. Host cost is measured by `bash
benchmark/run.sh`, not here.

Usage: python3 scripts/gen_bench_baseline.py
"""
import json, subprocess, sys, tempfile, os

EXPERIMENTS = ["exp_scale", "exp_overload", "exp_control", "exp_ha", "exp_slo", "exp_placement",
               "exp_grade", "exp_fig4", "exp_faults", "exp_migrate",
               "exp_fig1", "exp_fig2", "exp_fig3", "exp_fig5", "exp_tab1", "exp_skew",
               "exp_window", "exp_admit", "exp_concur", "exp_ablate", "exp_search"]
OUT = "BENCH_baseline.json"

def main():
    doc = {
        "_comment": "Pinned-seed experiment baselines; regenerate with "
                    "python3 scripts/gen_bench_baseline.py",
        "command": "cargo run --release -p hermes-bench --bin <exp> -- "
                   "--smoke --json <out>",
        "experiments": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for e in EXPERIMENTS:
            path = os.path.join(tmp, f"{e}.json")
            r = subprocess.run(
                ["cargo", "run", "--release", "-q", "-p", "hermes-bench",
                 "--bin", e, "--", "--smoke", "--json", path],
                stdout=subprocess.DEVNULL)  # stderr through: a failure shows its reason
            if r.returncode != 0:
                sys.exit(f"{e} FAILED (exit {r.returncode})")
            with open(path) as f:
                doc["experiments"][e] = json.load(f)
            print(e, "OK")
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(OUT, "written")

if __name__ == "__main__":
    main()

//! Run every experiment binary in sequence (the full EXPERIMENTS.md
//! regeneration). Exits non-zero if any experiment fails.

use hermes_bench::ExpOpts;
use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_tab1",
    "exp_fig1",
    "exp_fig2",
    "exp_fig3",
    "exp_fig4",
    "exp_fig5",
    "exp_skew",
    "exp_window",
    "exp_grade",
    "exp_admit",
    "exp_search",
    "exp_migrate",
    "exp_ablate",
    "exp_concur",
    "exp_faults",
    "exp_overload",
    "exp_control",
    "exp_ha",
    "exp_placement",
    "exp_scale",
    "exp_obs",
    "exp_chaos",
    "exp_slo",
];

fn main() {
    let opts = ExpOpts::parse();
    let mut sink = opts.sink();
    let forwarded = opts.forwarded_args();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for name in EXPERIMENTS {
        sink.line(&format!("\n################ {name} ################"));
        let path = dir.join(name);
        let status = Command::new(&path)
            .args(&forwarded)
            .status()
            .unwrap_or_else(|e| {
                eprintln!(
                    "cannot launch {}: {e}\nexp_all runs its sibling binaries; build them \
                     first: cargo build --release -p hermes-bench --bins",
                    path.display()
                );
                std::process::exit(2);
            });
        if !status.success() {
            failed.push(*name);
        }
    }
    sink.line("\n################ summary ################");
    if failed.is_empty() {
        sink.line(&format!("all {} experiments passed ✓", EXPERIMENTS.len()));
    } else {
        sink.line(&format!("FAILED: {failed:?}"));
        std::process::exit(1);
    }
}

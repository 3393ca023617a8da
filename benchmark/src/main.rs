//! The repo benchmark: four seeded fleet workloads driven through the public
//! API of `hermes-service` / `hermes-simnet` / `hermes-obs` from one thread.
//! See `README.md` beside this package.

mod heap;
mod kernels;
mod metrics;
mod rep;
mod schedule;
mod spans;
mod stats;
mod workloads;

use metrics::{Metric, RunData, Values, END_TO_END, PER_LAYER};
use spans::SpanLog;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static GLOBAL: heap::TrackingAlloc = heap::TrackingAlloc;

const USAGE: &str =
    "usage: hermes-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       hermes-benchmark --check      reduced-size run of every workload with all checks
       hermes-benchmark --manifest   print the text of BENCHMARK.json";

/// Fewest reps in a run: the minimum over them discards a cold first rep.
const MIN_REPS: usize = 3;

enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Check,
    Manifest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    match args {
        [flag] if flag == "--check" => return Ok(Command::Check),
        [flag] if flag == "--manifest" => return Ok(Command::Manifest),
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
    }
}

/// `BENCHMARK.json` in the working directory (the root of the checkout) must
/// be exactly what this binary's metric and workload lists generate: every
/// name it declares is printed, and nothing is printed that it does not name.
fn check_manifest(workloads: &[Workload]) -> Result<(), String> {
    let on_disk = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    if on_disk == metrics::manifest(workloads) {
        Ok(())
    } else {
        Err("BENCHMARK.json differs from `hermes-benchmark --manifest`".into())
    }
}

/// Reps of one seed: untraced only, or untraced and traced taking turns.
/// Every rep must produce the same simulated side.
fn run_reps(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_reps: usize,
    log: &mut SpanLog,
) -> Result<RunData, String> {
    let started = Instant::now();
    let mut data: Option<RunData> = None;
    let mut longest = 0f64;
    for n in 0.. {
        let left = seconds - started.elapsed().as_secs_f64();
        if n >= min_reps && left < longest {
            break;
        }
        let traced = trace && n % 2 == 1;
        log.set_rep(n as u32);
        let t = Instant::now();
        let rep = rep::run(w, seed, traced.then_some(&mut *log))?;
        longest = longest.max(t.elapsed().as_secs_f64());
        let d = data.get_or_insert_with(|| RunData {
            counts: rep.counts.clone(),
            untraced: Vec::new(),
            traced: Vec::new(),
        });
        if rep.counts != d.counts {
            return Err(format!(
                "rep {n} is not the computation rep 0 was:\n{}",
                first_difference(&d.counts, &rep.counts)
            ));
        }
        if traced {
            &mut d.traced
        } else {
            &mut d.untraced
        }
        .push(rep.host);
    }
    Ok(data.expect("at least one rep ran"))
}

fn first_difference(a: &rep::Counts, b: &rep::Counts) -> String {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    a.lines()
        .zip(b.lines())
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("  rep 0:{x}\n  later:{y}"))
        .unwrap_or_default()
}

/// `name value unit` per metric, in the order of the declared list. Fails if
/// the computed names are not exactly the declared ones.
fn render(declared: &[Metric], values: &Values) -> Result<(String, String), String> {
    let extra: Vec<&str> = values
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| declared.iter().all(|m| m.name != *n))
        .collect();
    if !extra.is_empty() {
        return Err(format!("metrics computed but not declared: {extra:?}"));
    }
    let (mut lines, mut json) = (String::new(), Vec::new());
    for m in declared {
        let &(_, v) = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .ok_or(format!("metric {} declared but not computed", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a number: {v}", m.name));
        }
        lines.push_str(&format!("{} {} {}\n", m.name, v, m.unit));
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, v, m.unit
        ));
    }
    Ok((lines, json.join(", ")))
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let all = workloads::all();
    check_manifest(&all)?;
    let w = all
        .iter()
        .find(|w| w.name == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    let mut log = SpanLog::new();
    let data = run_reps(w, seed, seconds, trace, MIN_REPS, &mut log)?;
    let (declared, values) = if trace {
        (PER_LAYER, metrics::per_layer(&data))
    } else {
        (END_TO_END, metrics::end_to_end(&data))
    };
    let (lines, json) = render(declared, &values)?;
    if trace {
        std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
        let path = format!("benchmark/out/{workload}.spans.jsonl");
        std::fs::write(&path, spans::to_jsonl(log.spans()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# spans written to {path}");
    }
    let c = &data.counts;
    let reps = data.untraced.len() + data.traced.len();
    println!(
        "# {workload} seed {seed}: {reps} reps, {} arrivals each: {} completed, {} refused, {} unfinished; {} invariant violations{}",
        c.arrivals,
        c.completed,
        c.refused,
        c.unfinished,
        c.violations,
        if c.violations > 0 { format!(", first: {}", c.first_violation) } else { String::new() },
    );
    // Counters issue 13 names that read 0 on every workload on all but one
    // of the seeds tried, so they cannot be listed metrics; printed so that a
    // change shows.
    println!(
        "# unlisted: admit_rejected {}, glitch ticks {}, control.fence_drops {}; {} attributions",
        c.admit_rejected, c.glitches, c.ctrl_fence_drops, c.attributions
    );
    print!("{lines}");
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{json}}}}}",
        c.arrivals * reps as u64
    );
    Ok(())
}

/// Every workload at a quarter of its length, one untraced and one traced
/// rep, with every output check and both name lists.
fn check() -> Result<(), String> {
    let all = workloads::all();
    check_manifest(&all)?;
    let mut log = SpanLog::new();
    for w in all {
        let w = w.reduced();
        let t = Instant::now();
        let data =
            run_reps(&w, 1, 0.0, true, 2, &mut log).map_err(|e| format!("{}: {e}", w.name))?;
        render(END_TO_END, &metrics::end_to_end(&data))?;
        render(PER_LAYER, &metrics::per_layer(&data))?;
        let c = &data.counts;
        println!(
            "{}: ok in {:.1} s ({} arrivals: {} completed, {} refused, {} unfinished; {} violations)",
            w.name,
            t.elapsed().as_secs_f64(),
            c.arrivals,
            c.completed,
            c.refused,
            c.unfinished,
            c.violations
        );
    }
    let own = spans::self_times(log.spans());
    println!(
        "spans: {} recorded, {} ns of self time",
        own.len(),
        own.iter().sum::<u64>()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(e) => Err(format!("{e}\n{USAGE}")),
        Ok(Command::Manifest) => {
            print!("{}", metrics::manifest(&workloads::all()));
            Ok(())
        }
        Ok(Command::Check) => check(),
        Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => run(&workload, seed, seconds, trace),
    };
    if let Err(e) = outcome {
        eprintln!("hermes-benchmark: {e}");
        std::process::exit(1);
    }
}

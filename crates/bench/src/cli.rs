//! Tiny shared argument parsing for the `exp_*` binaries.
//!
//! Every experiment accepts the same flags, so CI and local sweeps can
//! vary them without editing constants:
//!
//! - `--seed N` — override the experiment's base RNG seed,
//! - `--out PATH` — additionally write every caption/table/comment line
//!   to `PATH` (stdout is unaffected),
//! - `--smoke` — run a reduced grid where the experiment supports one
//!   (used by the CI determinism gate),
//! - `--trace PATH` — where experiments that export observability traces
//!   (EXP-OBS) write them: `PATH.jsonl` (event log) and `PATH.trace.json`
//!   (Chrome trace-event / Perfetto),
//! - `--chaos-seeds N` — how many fault-plan seeds the chaos harness
//!   (EXP-CHAOS) sweeps,
//! - `--chaos-intensity X` — scales the chaos fault-injection rate
//!   (1.0 = the profile as written).
//!
//! No external crates: flag parsing is a few lines and the binaries need
//! nothing fancier.

use crate::tables::Table;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Parsed common experiment options.
#[derive(Debug, Clone, Default)]
pub struct ExpOpts {
    /// `--seed N`: base-seed override.
    pub seed: Option<u64>,
    /// `--out PATH`: tee experiment output into this file.
    pub out: Option<PathBuf>,
    /// `--smoke`: reduced grid for CI.
    pub smoke: bool,
    /// `--trace PATH`: trace-export path prefix (experiments that export
    /// observability traces write `PATH.jsonl` and `PATH.trace.json`).
    pub trace: Option<PathBuf>,
    /// `--json PATH`: additionally write every table the experiment emits
    /// as a machine-readable JSON document to `PATH` (the pinned-seed
    /// baseline workflow diffs these).
    pub json: Option<PathBuf>,
    /// `--chaos-seeds N`: fault-plan seeds for the chaos harness to sweep.
    pub chaos_seeds: Option<u64>,
    /// `--chaos-intensity X`: multiplier on the chaos incident rate.
    pub chaos_intensity: Option<f64>,
}

impl ExpOpts {
    /// Parse the process arguments; prints usage and exits on anything
    /// unrecognised.
    pub fn parse() -> Self {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(e) => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(
                    err,
                    "{e}\nusage: [--seed N] [--out PATH] [--json PATH] [--smoke] \
                     [--trace PATH] [--chaos-seeds N] [--chaos-intensity X]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list (testable core of
    /// [`parse`](Self::parse)).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = ExpOpts::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    opts.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a path")?;
                    opts.out = Some(PathBuf::from(v));
                }
                "--smoke" => opts.smoke = true,
                "--trace" => {
                    let v = it.next().ok_or("--trace needs a path")?;
                    opts.trace = Some(PathBuf::from(v));
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    opts.json = Some(PathBuf::from(v));
                }
                "--chaos-seeds" => {
                    let v = it.next().ok_or("--chaos-seeds needs a value")?;
                    let n: u64 = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
                    if n == 0 {
                        return Err("--chaos-seeds must be at least 1".into());
                    }
                    opts.chaos_seeds = Some(n);
                }
                "--chaos-intensity" => {
                    let v = it.next().ok_or("--chaos-intensity needs a value")?;
                    let x: f64 = v.parse().map_err(|_| format!("bad intensity {v:?}"))?;
                    if !x.is_finite() || x <= 0.0 {
                        return Err("--chaos-intensity must be a positive number".into());
                    }
                    opts.chaos_intensity = Some(x);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// The base seed, falling back to the experiment's default.
    pub fn seed(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// A seed list of the same length as `defaults`: the defaults
    /// themselves, or consecutive seeds from the `--seed` override.
    pub fn seeds(&self, defaults: &[u64]) -> Vec<u64> {
        match self.seed {
            Some(base) => (0..defaults.len() as u64).map(|i| base + i).collect(),
            None => defaults.to_vec(),
        }
    }

    /// The output sink honouring `--out` and `--json`.
    pub fn sink(&self) -> Sink {
        Sink::with_json(self.out.as_deref(), self.json.clone())
    }

    /// The flags to forward to a child experiment process (everything
    /// except `--out` and `--trace`, which must stay per-process to avoid
    /// clobbering).
    pub fn forwarded_args(&self) -> Vec<String> {
        let mut v = Vec::new();
        if let Some(s) = self.seed {
            v.push("--seed".into());
            v.push(s.to_string());
        }
        if self.smoke {
            v.push("--smoke".into());
        }
        if let Some(n) = self.chaos_seeds {
            v.push("--chaos-seeds".into());
            v.push(n.to_string());
        }
        if let Some(x) = self.chaos_intensity {
            v.push("--chaos-intensity".into());
            v.push(x.to_string());
        }
        v
    }

    /// Chaos seed count, falling back to the experiment's default.
    pub fn chaos_seeds(&self, default: u64) -> u64 {
        self.chaos_seeds.unwrap_or(default)
    }

    /// Chaos intensity multiplier (default 1.0).
    pub fn chaos_intensity(&self) -> f64 {
        self.chaos_intensity.unwrap_or(1.0)
    }
}

/// Writes experiment output to stdout and, when `--out` was given, to a
/// file as well. With `--json`, every table is additionally accumulated
/// and written as one JSON document when the sink drops (a failed write is
/// reported on stderr) or on an explicit [`finish`](Self::finish), which
/// panics instead.
pub struct Sink {
    file: Option<File>,
    json_path: Option<PathBuf>,
    json_tables: Vec<(String, String)>,
}

impl Sink {
    /// A sink teeing into `path` (if any) and accumulating tables for
    /// `json` (if any). Panics if the file cannot be created — a misspelled
    /// `--out` should fail loudly, not silently drop results.
    pub fn with_json(path: Option<&Path>, json: Option<PathBuf>) -> Self {
        Sink {
            file: path.map(|p| {
                File::create(p).unwrap_or_else(|e| panic!("cannot create {}: {e}", p.display()))
            }),
            json_path: json,
            json_tables: Vec::new(),
        }
    }

    /// Emit one line (commentary, workload description).
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        if let Some(f) = &mut self.file {
            writeln!(f, "{s}").expect("write --out file");
        }
    }

    /// Emit a table under a `== caption ==` line.
    pub fn table(&mut self, caption: &str, t: &Table) {
        self.line(&format!("\n== {caption} =="));
        self.line(&t.render());
        if self.json_path.is_some() {
            self.json_tables.push((caption.to_string(), t.to_json()));
        }
    }

    fn render_json(&self) -> String {
        let tables: Vec<String> = self
            .json_tables
            .iter()
            .map(|(caption, rows)| {
                let esc: String = caption
                    .chars()
                    .map(|c| match c {
                        '"' => "\\\"".to_string(),
                        '\\' => "\\\\".to_string(),
                        c => c.to_string(),
                    })
                    .collect();
                format!("  {{\n    \"caption\": \"{esc}\",\n    \"rows\": {rows}\n  }}")
            })
            .collect();
        format!("[\n{}\n]\n", tables.join(",\n"))
    }

    /// Write the `--json` document once (the path is taken, so a second
    /// call is a no-op); the error names the path it could not write.
    fn write_json(&mut self) -> Result<(), String> {
        let Some(p) = self.json_path.take() else {
            return Ok(());
        };
        std::fs::write(&p, self.render_json())
            .map_err(|e| format!("cannot write --json {}: {e}", p.display()))
    }

    /// Write the accumulated `--json` document now, failing loudly.
    pub fn finish(&mut self) {
        self.write_json().unwrap_or_else(|e| panic!("{e}"));
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        // Most experiments never call finish(); a destructor must not
        // panic, so a failed write is reported and the run goes on.
        if let Err(e) = self.write_json() {
            let _ = writeln!(std::io::stderr(), "{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let o = ExpOpts::from_args(args(&[
            "--seed", "9", "--out", "/tmp/x", "--smoke", "--trace", "/tmp/t",
        ]))
        .unwrap();
        assert_eq!(o.seed, Some(9));
        assert_eq!(o.out.as_deref(), Some(Path::new("/tmp/x")));
        assert!(o.smoke);
        assert_eq!(o.trace.as_deref(), Some(Path::new("/tmp/t")));
        // `--out`/`--trace` stay per-process; only seed and smoke forward.
        assert_eq!(o.forwarded_args(), args(&["--seed", "9", "--smoke"]));
    }

    #[test]
    fn trace_needs_a_path() {
        assert!(ExpOpts::from_args(args(&["--trace"])).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_forward() {
        let o =
            ExpOpts::from_args(args(&["--chaos-seeds", "64", "--chaos-intensity", "2.5"])).unwrap();
        assert_eq!(o.chaos_seeds(200), 64);
        assert_eq!(o.chaos_intensity(), 2.5);
        assert_eq!(
            o.forwarded_args(),
            args(&["--chaos-seeds", "64", "--chaos-intensity", "2.5"])
        );
        let d = ExpOpts::default();
        assert_eq!(d.chaos_seeds(200), 200);
        assert_eq!(d.chaos_intensity(), 1.0);
    }

    #[test]
    fn chaos_flags_reject_nonsense() {
        assert!(ExpOpts::from_args(args(&["--chaos-seeds", "0"])).is_err());
        assert!(ExpOpts::from_args(args(&["--chaos-seeds", "x"])).is_err());
        assert!(ExpOpts::from_args(args(&["--chaos-intensity", "-1"])).is_err());
        assert!(ExpOpts::from_args(args(&["--chaos-intensity", "nan"])).is_err());
        assert!(ExpOpts::from_args(args(&["--chaos-intensity"])).is_err());
    }

    #[test]
    fn rejects_unknown_and_missing_values() {
        assert!(ExpOpts::from_args(args(&["--nope"])).is_err());
        assert!(ExpOpts::from_args(args(&["--seed"])).is_err());
        assert!(ExpOpts::from_args(args(&["--seed", "x"])).is_err());
    }

    #[test]
    fn seed_helpers_honour_override() {
        let o = ExpOpts::from_args(args(&["--seed", "100"])).unwrap();
        assert_eq!(o.seed(7), 100);
        assert_eq!(o.seeds(&[1, 2, 3]), vec![100, 101, 102]);
        let d = ExpOpts::default();
        assert_eq!(d.seed(7), 7);
        assert_eq!(d.seeds(&[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn json_flag_parses_and_sink_writes_document() {
        let o = ExpOpts::from_args(args(&["--json", "/tmp/j.json"])).unwrap();
        assert_eq!(o.json.as_deref(), Some(Path::new("/tmp/j.json")));
        // Per-process like --out: never forwarded to child experiments.
        assert!(o.forwarded_args().is_empty());
        assert!(ExpOpts::from_args(args(&["--json"])).is_err());

        let path = std::env::temp_dir().join("hermes-bench-json-test.json");
        let mut sink = Sink::with_json(None, Some(path.clone()));
        let mut t = Table::new(vec!["mode", "p99"]);
        t.row(vec!["off", "12.5"]);
        t.row(vec!["full \"x\"", "0.1"]);
        sink.table("CAP", &t);
        sink.finish();
        drop(sink);
        let got = std::fs::read_to_string(&path).unwrap();
        assert!(got.contains("\"caption\": \"CAP\""));
        assert!(got.contains("\"mode\": \"off\""));
        assert!(got.contains("\"p99\": \"12.5\""));
        assert!(got.contains("full \\\"x\\\""), "{got}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_json_path_is_reported() {
        let path = std::env::temp_dir().join("hermes-bench-no-such-dir/j.json");
        let mut sink = Sink::with_json(None, Some(path.clone()));
        let err = sink.write_json().unwrap_err();
        assert!(err.contains("cannot write --json"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        // The path was taken: the drop that follows has nothing to retry.
        assert_eq!(sink.write_json(), Ok(()));
    }

    #[test]
    fn sink_tees_to_file() {
        let path = std::env::temp_dir().join("hermes-bench-cli-test.txt");
        let mut sink = Sink::with_json(Some(&path), None);
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1"]);
        sink.line("hello");
        sink.table("cap", &t);
        drop(sink);
        let got = std::fs::read_to_string(&path).unwrap();
        assert!(got.contains("hello"));
        assert!(got.contains("== cap =="));
        assert!(got.contains('1'));
        let _ = std::fs::remove_file(&path);
    }
}

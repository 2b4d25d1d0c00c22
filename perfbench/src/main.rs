//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the product code paths, checks that
//! its outputs are correct, and prints as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`. A
//! failed correctness check makes the exit code non-zero. See
//! `README.md` for the workloads and metrics.

mod dist;
mod fleet;
mod probes;
mod report;
mod stats;
mod trace;
mod train;

use report::{peak_rss_mb, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workload names: those of `BENCHMARK.json`, in its order, then
/// `train-resnet32`, which runs by hand only (see `README.md`).
const WORKLOADS: &[&str] = &[
    "train-smallbatch",
    "fleet-light",
    "fleet-slo",
    "dist-ps",
    "train-resnet32",
];

/// Set-up runs at least this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// ... and until this many seconds have gone into it, so that a set-up of
/// a few milliseconds is timed hundreds of times, not five.
const SETUP_MIN_S: f64 = 0.5;
/// ... but never more than this many times.
const SETUP_MAX_REPS: usize = 500;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `build` at least [`SETUP_REPS`] times and until [`SETUP_MIN_S`]
/// have passed (at most [`SETUP_MAX_REPS`] times), and keeps the last
/// result; returns it with the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_MAX_REPS);
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("set-up runs at least once"),
        stats::median(times),
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let setup_s = match args.workload.as_str() {
        "train-resnet32" | "train-smallbatch" => {
            let (tasks, setup_s) = timed_setup(|| {
                if args.workload == "train-resnet32" {
                    train::tasks(args.seed, train::RESNET32_TASKS, train::resnet32_task)
                } else {
                    train::tasks(args.seed, train::SMALLBATCH_TASKS, train::smallbatch_task)
                }
            });
            if args.trace {
                train::measure_traced(&tasks[0], &mut report);
            } else {
                train::measure(&tasks, args, &mut report);
            }
            setup_s
        }
        "fleet-light" | "fleet-slo" => {
            let rate = if args.workload == "fleet-light" {
                fleet::LIGHT_RPS
            } else {
                fleet::HEAVY_RPS
            };
            let (task, setup_s) = timed_setup(|| fleet::FleetTask::new(args.seed));
            fleet::measure(&task, rate, args, &mut report)?;
            setup_s
        }
        "dist-ps" => {
            let dir =
                PathBuf::from("perfbench/out").join(format!("dist-shards-{}", std::process::id()));
            let (task, setup_s) = timed_setup(|| dist::DistTask::new(args.seed, &dir));
            let measured = task.and_then(|task| dist::measure(&task, args, &mut report));
            let _ = std::fs::remove_dir_all(&dir);
            measured?;
            setup_s
        }
        other => unreachable!("workload {other} passed validation"),
    };
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !report.spans.is_empty() {
        let path = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match trace::write_spans(&path, &report.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let values = report.values(catalogue);
    for (name, v, unit) in &values {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", report.result_line(&values));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The `dist-ps` workload: a `Coordinator` with two in-process
//! `run_worker_with_data` threads over loopback TCP, parameter-server
//! topology, SMA, on the demo task's model and sizes (a 6→16→4 MLP, a
//! 4-class mixture split 400 train / 80 test, b = 8, data drawn from the
//! seed).
//!
//! It runs in index mode, the `dist-train --data-dir` path: set-up packs
//! the training split into shards, the coordinator trains from the
//! mmap-backed `ShardedDataset` and ships sample indices, and each worker
//! gathers its batches from its own copy of that dataset.
//!
//! A round is the interval between consecutive `SyncAlgorithm::step`
//! calls on the coordinator; the job is one run from `Coordinator::run`
//! until its last step.

use crate::probes::{intervals_us, StepClock, TracedGradients, TracedSource};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::{breakdown, durations_us, ratio, Tracer};
use crate::Args;
use crossbow::comms::{
    checksum_params, demo_algo, run_worker_with_data, Coordinator, DistConfig, DistReport,
    Topology, WorkerConfig,
};
use crossbow::data::synth::gaussian_mixture;
use crossbow::data::{Dataset, PartitionPlan, SampleSource};
use crossbow::nn::zoo::mlp;
use crossbow::nn::Network;
use crossbow::shard::{pack_source, PackConfig, ShardedDataset};
use crossbow::sync::{train_with_source, LocalGradients, TrainerConfig};
use crossbow::telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;
const BATCH: usize = 8;
/// Epochs per run: 25 rounds each.
const EPOCHS: usize = 200;

/// The packed task, built in set-up.
pub struct DistTask {
    net: Network,
    train_ram: Dataset,
    test: Dataset,
    shards: Arc<ShardedDataset>,
    trainer: TrainerConfig,
    seed: u64,
}

impl DistTask {
    /// Generates the data from `seed` and packs the training split into
    /// a fresh shard directory `dir`.
    pub fn new(seed: u64, dir: &Path) -> Result<Self, String> {
        let net = mlp(6, &[16], 4);
        let (train_ram, test) = gaussian_mixture(4, 6, 480, 0.35, seed)
            .split_at(400)
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(dir);
        pack_source(dir, &train_ram, PackConfig::default()).map_err(|e| format!("pack: {e}"))?;
        let shards =
            ShardedDataset::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let trainer = TrainerConfig::new(BATCH, EPOCHS)
            .with_seed(seed)
            .with_partition(PartitionPlan::even(train_ram.len(), WORKERS));
        Ok(DistTask {
            net,
            train_ram,
            test,
            shards: Arc::new(shards),
            trainer,
            seed,
        })
    }
}

/// One cluster run.
struct ClusterRun {
    report: DistReport,
    started: Instant,
    steps: Vec<Instant>,
    returned: Instant,
    /// When every worker thread had exited.
    joined: Instant,
}

impl ClusterRun {
    fn done_s(&self) -> f64 {
        let last = self.steps.last().copied().unwrap_or(self.returned);
        last.duration_since(self.started).as_secs_f64()
    }

    /// Training samples processed per second of [`Self::done_s`].
    fn samples_per_s(&self) -> f64 {
        ratio(self.report.curve.samples_processed as f64, self.done_s())
    }
}

/// Forms a fresh cluster and trains the task to its epoch budget. With a
/// tracer, the coordinator's training set, the workers' datasets and the
/// algorithm are wrapped and `Coordinator::run` is the root span `run`.
fn run_cluster(task: &DistTask, tracer: Option<&Arc<Tracer>>) -> Result<ClusterRun, String> {
    let dist = DistConfig::new(Topology::Ps, WORKERS).with_index_work();
    let coordinator = Coordinator::bind("127.0.0.1:0", dist, Telemetry::disabled())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let shards: Arc<dyn SampleSource> = task.shards.clone();
    let worker_data: Arc<dyn SampleSource> = match tracer {
        Some(t) => Arc::new(TracedSource::new(
            Arc::clone(&shards),
            Arc::clone(t),
            "data.worker_gather",
        )),
        None => Arc::clone(&shards),
    };
    let mut algo = demo_algo(&task.net, WORKERS, "sma", task.seed);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (net, data, addr) = (&task.net, Arc::clone(&worker_data), addr.clone());
                scope.spawn(move || {
                    run_worker_with_data(
                        net,
                        Some(data),
                        &WorkerConfig::new(addr),
                        &Telemetry::disabled(),
                        &|_| {},
                    )
                })
            })
            .collect();
        let mut clock = StepClock::new(algo.as_mut(), tracer.cloned());
        let started = Instant::now();
        let report = match tracer {
            None => coordinator.run(
                &task.net,
                shards.as_ref(),
                &task.test,
                &mut clock,
                &task.trainer,
            ),
            Some(t) => t.span("run", None, || {
                let train = TracedSource::new(Arc::clone(&shards), Arc::clone(t), "data.gather");
                coordinator.run(&task.net, &train, &task.test, &mut clock, &task.trainer)
            }),
        };
        let returned = Instant::now();
        for w in workers {
            w.join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker failed: {e}"))?;
        }
        Ok(ClusterRun {
            report,
            started,
            steps: clock.steps().to_vec(),
            returned,
            joined: Instant::now(),
        })
    })
}

/// The in-process `train()` of the same task and configuration on the
/// RAM copy of the data; returns its model checksum and, when traced,
/// the median `LocalGradients` round in microseconds. The traced run
/// computes with one gradient thread, so its round is the learners'
/// compute alone rather than the cost of spawning threads for it.
fn local_reference(task: &DistTask, traced: bool) -> (u64, f64) {
    let mut algo = demo_algo(&task.net, WORKERS, "sma", task.seed);
    if !traced {
        let mut source = LocalGradients::new(&task.net, WORKERS, &task.trainer);
        train_with_source(
            &task.net,
            &task.train_ram,
            &task.test,
            algo.as_mut(),
            &task.trainer,
            &mut source,
        );
        return (checksum_params(algo.consensus()), 0.0);
    }
    let tracer = Arc::new(Tracer::default());
    let config = TrainerConfig {
        threads: 1,
        ..task.trainer.clone()
    };
    let mut source = TracedGradients::new(
        LocalGradients::new(&task.net, WORKERS, &config),
        Arc::clone(&tracer),
    );
    train_with_source(
        &task.net,
        &task.train_ram,
        &task.test,
        algo.as_mut(),
        &config,
        &mut source,
    );
    let round = Summary::of(durations_us(&tracer.spans(), "nn.round"));
    (checksum_params(algo.consensus()), round.p50)
}

/// Counts a run's rounds and faults into `report`.
fn tally(run: &ClusterRun, report: &mut Report) {
    let faults = run.report.counters.retries + run.report.counters.evictions;
    report.attempted += run.report.curve.iterations;
    report.failed += faults;
    report.check(
        faults == 0,
        format!("{faults} rounds were retried or evicted"),
    );
    report.check(
        run.report.curve.epoch_loss.iter().all(|l| l.is_finite()),
        "non-finite training loss",
    );
}

pub fn measure(task: &DistTask, args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        return measure_traced(task, report);
    }
    let (reference, _) = local_reference(task, false);
    // Only per-run figures are kept, so memory (and `peak_rss_mb`) does
    // not grow with the number of clusters that fit in `--seconds`.
    let (mut round_p50s, mut done, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds_n = 0;
    let mut bytes;
    let started = Instant::now();
    loop {
        let run = run_cluster(task, None)?;
        tally(&run, report);
        report.check(
            run.report.model_checksum == reference,
            format!(
                "cluster model checksum {:016x} differs from the in-process train() {reference:016x}",
                run.report.model_checksum
            ),
        );
        let rounds = Summary::of(intervals_us(&run.steps));
        rounds_n += rounds.n;
        round_p50s.push(rounds.p50);
        done.push(run.done_s());
        rates.push(run.samples_per_s());
        bytes = bytes_per_round(&run.report);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let per_run = Summary::of(round_p50s);
    println!(
        "dist runs={} rounds={rounds_n} bytes_per_round={bytes:.1}",
        per_run.n
    );
    println!("{}", per_run.describe("per-run median round", 1e3, "ms"));
    report.set("throughput", median(rates));
    report.set("p50_ms", per_run.p50 / 1e3);
    report.set("done_s", median(done));
    Ok(())
}

fn bytes_per_round(r: &DistReport) -> f64 {
    ratio(
        (r.bytes_sent + r.bytes_recv) as f64,
        r.curve.iterations as f64,
    )
}

/// One plain and one traced cluster run, plus a traced in-process run
/// for the local compute time of a round.
fn measure_traced(task: &DistTask, report: &mut Report) -> Result<(), String> {
    let plain = run_cluster(task, None)?;
    tally(&plain, report);
    let tracer = Arc::new(Tracer::default());
    let traced = run_cluster(task, Some(&tracer))?;
    tally(&traced, report);
    let (reference, local_round_us) = local_reference(task, true);
    report.check(
        plain.report.model_checksum == reference && traced.report.model_checksum == reference,
        "cluster model checksums differ from the in-process train()",
    );
    let spans = tracer.spans();
    let root = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("the traced run records its root span");
    let b = breakdown(&spans, root);
    let rounds = Summary::of(intervals_us(&traced.steps));
    let step = Summary::of(durations_us(&spans, "sync.step"));
    let gather = Summary::of(durations_us(&spans, "data.gather"));
    let worker_gather = Summary::of(durations_us(&spans, "data.worker_gather"));
    let r = &traced.report;
    let iterations = r.curve.iterations as f64;
    let wall_s = traced.returned.duration_since(traced.started).as_secs_f64();
    let overhead_us = rounds.p50 - step.p50 - local_round_us;
    let first = traced.steps.first().copied().unwrap_or(traced.returned);
    let last = traced.steps.last().copied().unwrap_or(traced.returned);
    report.set("nn.round_local_us", local_round_us);
    report.set("sync.step_us", step.p50);
    report.set("sync.step_share", b.share("sync.step"));
    report.set("data.gather_us", gather.p50);
    report.set("data.gather_share", b.share("data.gather"));
    report.set("data.worker_gather_us", worker_gather.p50);
    report.set("comms.overhead_us", overhead_us);
    report.set("comms.share", ratio(overhead_us * iterations / 1e6, wall_s));
    report.set(
        "comms.bytes_sent_per_round",
        ratio(r.bytes_sent as f64, iterations),
    );
    report.set(
        "comms.bytes_recv_per_round",
        ratio(r.bytes_recv as f64, iterations),
    );
    report.set("comms.retries", r.counters.retries as f64);
    report.set("comms.evictions", r.counters.evictions as f64);
    // The first step closes the first round, so formation is what came
    // before that round.
    report.set(
        "dist.formation_s",
        first.duration_since(traced.started).as_secs_f64() - rounds.p50 / 1e6,
    );
    report.set(
        "dist.teardown_s",
        traced.joined.duration_since(last).as_secs_f64(),
    );
    report.set("trace.overhead_s", traced.done_s() - plain.done_s());
    report.set(
        "trace.overhead_share",
        ratio(traced.done_s() - plain.done_s(), plain.done_s()),
    );
    report.breakdown(&b);
    println!(
        "trace spans={} rounds n={} sync.step n={} data.gather n={} data.worker_gather n={}",
        spans.len(),
        rounds.n,
        step.n,
        gather.n,
        worker_gather.n
    );
    report.spans = spans;
    Ok(())
}

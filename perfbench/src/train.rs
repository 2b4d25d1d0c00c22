//! The two training workloads: `sync::trainer::train_with_source` with
//! `LocalGradients` and SMA, trained from scratch until the target.
//!
//! * `train-resnet32` — the ResNet-32 zoo model on `Benchmark::resnet32()`
//!   data and schedule; k = 2 learners, b = 16 per learner.
//! * `train-smallbatch` — a conv-free 32→64→8 MLP on a 16k-sample
//!   Gaussian mixture held in RAM; k = 32 learners, b = 2 per learner.
//!
//! A round is the interval between consecutive `SyncAlgorithm::step`
//! calls; the job is one training run, timed from building the gradient
//! source until the trainer stops at the target.

use crate::probes::{intervals_us, StepClock, TracedGradients, TracedSource};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::{breakdown, durations_us, ratio, Tracer};
use crate::Args;
use crossbow::data::synth::gaussian_mixture;
use crossbow::data::{Dataset, SampleSource};
use crossbow::nn::zoo::mlp;
use crossbow::nn::Network;
use crossbow::sync::{
    train_with_source, LocalGradients, LrSchedule, Sma, SmaConfig, TrainerConfig, TrainingCurve,
};
use crossbow::tensor::Rng;
use crossbow::Benchmark;
use std::sync::Arc;
use std::time::Instant;

/// Everything one training run needs, built in set-up.
pub struct TrainTask {
    net: Network,
    train: Arc<Dataset>,
    test: Dataset,
    init: Vec<f32>,
    k: usize,
    config: TrainerConfig,
}

/// Target accuracy of `train-resnet32`. `Benchmark::resnet32()` sets
/// 0.82, but at its constant learning rate some seeds oscillate below
/// that for good (the median of the last five epochs of seed 47 stays
/// under 0.82 for all 40 epochs); every seed measured reaches 0.80.
const RESNET32_TARGET: f64 = 0.80;
/// Epoch budget of `train-resnet32`: over three times the usual epochs
/// to target, and it keeps a task that never gets there within the run
/// time limit.
const RESNET32_EPOCHS: usize = 20;

/// ResNet-32 on the CIFAR-10-like task as `crossbow train --model
/// resnet-32` sets it up (network, data, schedule, initialisation), with
/// k = 2 and b = 16.
pub fn resnet32_task(seed: u64) -> TrainTask {
    let b = Benchmark::resnet32();
    let net = b.network();
    let (train, test) = b.dataset(seed);
    let init = net.init_params(&mut Rng::new(seed ^ 0xC0FFEE));
    let config = TrainerConfig::new(b.stat_batch, RESNET32_EPOCHS)
        .with_target(RESNET32_TARGET)
        .with_schedule(b.schedule())
        .with_seed(seed);
    TrainTask {
        net,
        train: Arc::new(train),
        test,
        init,
        k: 2,
        config,
    }
}

/// Samples in the small-batch task (train plus test).
const SMALL_SAMPLES: usize = 16_384;
/// Held-out samples of the small-batch task.
const SMALL_TEST: usize = 2_048;
/// Mixture spread: wide enough that the task takes several epochs.
const SMALL_SPREAD: f32 = 1.2;
/// Target accuracy of the small-batch task.
const SMALL_TARGET: f64 = 0.90;
/// Learning rate of the small-batch task.
const SMALL_LR: f32 = 0.002;

/// The many-replica, small-batch regime: a conv-free MLP trained by 32
/// SMA learners of 2 samples each.
pub fn smallbatch_task(seed: u64) -> TrainTask {
    let net = mlp(32, &[64], 8);
    let (train, test) = gaussian_mixture(8, 32, SMALL_SAMPLES, SMALL_SPREAD, seed)
        .split_at(SMALL_SAMPLES - SMALL_TEST)
        .expect("split is in range");
    let init = net.init_params(&mut Rng::new(seed ^ 0xC0FFEE));
    let config = TrainerConfig::new(2, 40)
        .with_target(SMALL_TARGET)
        .with_schedule(LrSchedule::Constant { lr: SMALL_LR })
        .with_seed(seed);
    TrainTask {
        net,
        train: Arc::new(train),
        test,
        init,
        k: 32,
        config,
    }
}

/// One training run's result.
struct RunOutcome {
    curve: TrainingCurve,
    wall_s: f64,
    steps: Vec<Instant>,
}

/// Trains `task` once from its initial parameters. With a tracer, the
/// training set, the gradient source and the algorithm are wrapped and
/// the whole call is the root span `run`.
fn run_once(task: &TrainTask, tracer: Option<&Arc<Tracer>>) -> RunOutcome {
    let mut sma = Sma::new(task.init.clone(), task.k, SmaConfig::default());
    let mut algo = StepClock::new(&mut sma, tracer.cloned());
    let started = Instant::now();
    let curve = match tracer {
        None => {
            let mut source = LocalGradients::new(&task.net, task.k, &task.config);
            train_with_source(
                &task.net,
                task.train.as_ref(),
                &task.test,
                &mut algo,
                &task.config,
                &mut source,
            )
        }
        Some(t) => t.span("run", None, || {
            let train: Arc<dyn SampleSource> = task.train.clone();
            let train = TracedSource::new(train, Arc::clone(t), "data.gather");
            let mut source = TracedGradients::new(
                LocalGradients::new(&task.net, task.k, &task.config),
                Arc::clone(t),
            );
            train_with_source(
                &task.net,
                &train,
                &task.test,
                &mut algo,
                &task.config,
                &mut source,
            )
        }),
    };
    let wall_s = started.elapsed().as_secs_f64();
    RunOutcome {
        curve,
        wall_s,
        steps: algo.steps().to_vec(),
    }
}

/// True when the run stopped at its target with finite losses.
fn reached_target(curve: &TrainingCurve) -> bool {
    curve.epochs_to_target.is_some() && curve.epoch_loss.iter().all(|l| l.is_finite())
}

/// Bit-level equality of two curves (f64/f32 compared by bits).
fn same_curve(a: &TrainingCurve, b: &TrainingCurve) -> bool {
    let acc = |c: &TrainingCurve| {
        c.epoch_accuracy
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    let loss = |c: &TrainingCurve| c.epoch_loss.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    acc(a) == acc(b)
        && loss(a) == loss(b)
        && a.epochs_to_target == b.epochs_to_target
        && a.iterations == b.iterations
        && a.samples_processed == b.samples_processed
        && a.final_accuracy.to_bits() == b.final_accuracy.to_bits()
        && a.rollbacks == b.rollbacks
}

/// Sub-seeds per run of `train-resnet32`: the mean over several training
/// tasks damps the seed-to-seed swing in epochs to target.
pub const RESNET32_TASKS: usize = 5;
/// Sub-seeds per run of `train-smallbatch`: each trains in about 0.7 s,
/// so all of them run about once in fifteen seconds. Epochs to target
/// differ from task to task (five to eight), and the mean over this many
/// tasks keeps that swing in `done_s` to a few percent between seeds.
pub const SMALLBATCH_TASKS: usize = 21;

/// The training tasks of one run: `n` tasks built by `build` from
/// sub-seeds `seed·n .. seed·n + n`, so distinct seeds never share one.
pub fn tasks(seed: u64, n: usize, build: fn(u64) -> TrainTask) -> Vec<TrainTask> {
    (0..n as u64)
        .map(|i| build(seed.wrapping_mul(n as u64).wrapping_add(i)))
        .collect()
}

/// The end-to-end run: trains the tasks round-robin, each from scratch
/// to its target, until every task has run once and `--seconds` have
/// passed. `done_s` is the mean over tasks of each task's median time to
/// target (epochs to target are small whole numbers, so a median over
/// tasks would jump by whole epochs); `throughput` the median over
/// training runs of samples processed per second of the run.
pub fn measure(tasks: &[TrainTask], args: &Args, report: &mut Report) {
    let started = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); tasks.len()];
    let mut curves: Vec<Option<TrainingCurve>> = vec![None; tasks.len()];
    let mut runs = 0;
    let mut rounds_us = Vec::new();
    let mut rates = Vec::new();
    for i in 0.. {
        let j = i % tasks.len();
        let out = run_once(&tasks[j], None);
        report.attempted += 1;
        if !reached_target(&out.curve) {
            report.failed += 1;
            report.check(
                false,
                format!(
                    "training task {j} missed its target or diverged: accuracy {:.3?}",
                    out.curve.epoch_accuracy
                ),
            );
        }
        match &curves[j] {
            None => curves[j] = Some(out.curve.clone()),
            Some(c) => report.check(
                same_curve(c, &out.curve),
                "repeated runs of one task gave different curves",
            ),
        }
        walls[j].push(out.wall_s);
        rates.push(out.curve.samples_processed as f64 / out.wall_s);
        runs += 1;
        rounds_us.extend(intervals_us(&out.steps));
        if i + 1 >= tasks.len() && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rounds = Summary::of(rounds_us);
    let epochs: Vec<Option<usize>> = curves
        .iter()
        .map(|c| c.as_ref().and_then(|c| c.epochs_to_target))
        .collect();
    println!("train runs={runs} epochs_to_target={epochs:?} walls={walls:.3?}");
    println!("{}", rounds.describe("round", 1e3, "ms"));
    let task_walls: Vec<f64> = walls.into_iter().map(median).collect();
    report.set("throughput", median(rates));
    report.set("p50_ms", rounds.p50 / 1e3);
    report.set(
        "done_s",
        task_walls.iter().sum::<f64>() / task_walls.len() as f64,
    );
}

/// The traced run: one plain and one traced training run of the first
/// task. Their curves must be bit-identical.
pub fn measure_traced(task: &TrainTask, report: &mut Report) {
    let plain = run_once(task, None);
    let tracer = Arc::new(Tracer::default());
    let traced = run_once(task, Some(&tracer));
    report.attempted += 2;
    for out in [&plain, &traced] {
        if !reached_target(&out.curve) {
            report.failed += 1;
            report.check(false, "training run missed its target or diverged");
        }
    }
    report.check(
        same_curve(&plain.curve, &traced.curve),
        "the traced run's curve differs from the plain run's",
    );
    let spans = tracer.spans();
    let root = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("the traced run records its root span");
    let b = breakdown(&spans, root);
    let round = Summary::of(durations_us(&spans, "nn.round"));
    let step = Summary::of(durations_us(&spans, "sync.step"));
    let gather = Summary::of(durations_us(&spans, "data.gather"));
    report.set("nn.round_us", round.p50);
    report.set("nn.round_share", b.share("nn.round"));
    report.set("nn.per_learner_us", round.p50 / task.k as f64);
    report.set("sync.step_us", step.p50);
    report.set("sync.step_share", b.share("sync.step"));
    report.set(
        "sync.epochs_to_target",
        traced.curve.epochs_to_target.unwrap_or(0) as f64,
    );
    report.breakdown(&b);
    report.set("data.gather_us", gather.p50);
    report.set("data.gather_share", b.share("data.gather"));
    report.set("trace.overhead_s", traced.wall_s - plain.wall_s);
    report.set(
        "trace.overhead_share",
        ratio(traced.wall_s - plain.wall_s, plain.wall_s),
    );
    println!(
        "trace spans={} nn.round n={} sync.step n={} data.gather n={}",
        spans.len(),
        round.n,
        step.n,
        gather.n
    );
    report.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny MLP task that trains to its target in a few epochs.
    fn tiny_task() -> TrainTask {
        let net = mlp(6, &[16], 4);
        let (train, test) = gaussian_mixture(4, 6, 480, 0.35, 7)
            .split_at(400)
            .expect("split is in range");
        let init = net.init_params(&mut Rng::new(3));
        let config = TrainerConfig::new(8, 6).with_target(0.8).with_seed(11);
        TrainTask {
            net,
            train: Arc::new(train),
            test,
            init,
            k: 2,
            config,
        }
    }

    #[test]
    fn wrapped_and_unwrapped_runs_give_the_same_curve() {
        let task = tiny_task();
        let plain = run_once(&task, None);
        let tracer = Arc::new(Tracer::default());
        let traced = run_once(&task, Some(&tracer));
        assert!(reached_target(&plain.curve), "{:?}", plain.curve);
        assert!(same_curve(&plain.curve, &traced.curve));
        // One step timestamp per applied iteration, on both runs.
        assert_eq!(plain.steps.len() as u64, plain.curve.iterations);
        assert_eq!(traced.steps.len(), plain.steps.len());
        // Every wrapped call left a span under the root.
        let spans = tracer.spans();
        let root = spans
            .iter()
            .position(|s| s.name == "run")
            .expect("root span");
        let b = breakdown(&spans, root);
        let iterations = plain.curve.iterations as usize;
        assert_eq!(b.layers["nn.round"].calls, iterations);
        assert_eq!(b.layers["sync.step"].calls, iterations);
        assert_eq!(b.layers["data.gather"].calls, iterations * task.k);
        assert_eq!(b.accounted_ns(), b.root_ns);
    }

    #[test]
    fn sub_seeds_of_distinct_seeds_never_collide() {
        let seeds = |seed| -> Vec<u64> {
            tasks(seed, 3, |s| TrainTask {
                config: TrainerConfig::new(1, 1).with_seed(s),
                ..tiny_task()
            })
            .iter()
            .map(|t| t.config.seed)
            .collect()
        };
        assert_eq!(seeds(1), vec![3, 4, 5]);
        assert_eq!(seeds(2), vec![6, 7, 8]);
    }
}

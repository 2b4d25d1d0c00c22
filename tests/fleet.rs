//! Integration tests for the serving fleet: micro-batching beats
//! per-request dispatch, hot swaps lose nothing, SLO-ordered shedding
//! under overload, lossless canary promotion mid-load, an autoscaler
//! that moves both ways, a live trainer feeding one model of a fleet,
//! and load flags the CLI refuses.

use crossbow::data::synth::gaussian_mixture;
use crossbow::fleet::{
    run_fleet_load, train_into_fleet, Arrival, AutoscalerConfig, BatchConfig, CandidateMode, Fleet,
    FleetConfig, FleetLoadReport, FleetTrainConfig, SloClass, StreamSpec,
};
use crossbow::nn::zoo::mlp;
use crossbow::nn::Network;
use crossbow::sync::sma::{Sma, SmaConfig};
use crossbow::sync::TrainerConfig;
use crossbow::telemetry::Telemetry;
use crossbow::tensor::{Precision, Rng, Shape, Tensor};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 6;

/// A fleet of `n` spec-compatible mlps, each with its own published v1.
fn fleet_of(n: usize, config: FleetConfig) -> (Fleet, Arc<Network>, Vec<String>) {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let names: Vec<String> = (0..n).map(|i| format!("model-{i}")).collect();
    let mut builder = Fleet::builder(config);
    for name in &names {
        builder = builder.model(name, Arc::clone(&net));
    }
    let fleet = builder.start();
    let mut rng = Rng::new(7);
    for name in &names {
        fleet
            .registry(name)
            .expect("just registered")
            .publish(net.init_params(&mut rng), 1)
            .expect("fresh registry accepts v1");
    }
    (fleet, net, names)
}

fn inputs(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed);
    (0..32)
        .map(|_| (0..DIM).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect()
}

/// Every stream got a terminal answer for every submission, and nothing
/// admitted was silently dropped.
fn all_answered(report: &FleetLoadReport) -> bool {
    report
        .streams
        .iter()
        .all(|s| s.failed == 0 && s.ok + s.shed + s.rejected == s.submitted)
}

fn closed(model: &str, class: SloClass, requests: usize, deadline_ms: u64) -> StreamSpec {
    StreamSpec {
        model: model.to_string(),
        class,
        arrival: Arrival::Closed,
        requests,
        deadline: Duration::from_millis(deadline_ms),
    }
}

/// A single-worker config with a fixed synthetic service time and a
/// small queue, so open-loop floods genuinely overload the pools.
fn tight_config() -> FleetConfig {
    FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_depth: 16,
        },
        initial_workers: 1,
        work_stealing: false,
        synthetic_delay: Some(Duration::from_millis(5)),
        autoscaler: None,
        telemetry: None,
    }
}

/// A one-model fleet of a wider mlp with v1 published, plus request
/// payloads for it.
fn served_mlp(seed: u64, config: FleetConfig) -> (Fleet, Arc<Network>, Vec<Vec<f32>>) {
    let net = Arc::new(mlp(64, &[256, 256], 10));
    let fleet = Fleet::builder(config)
        .model("mlp", Arc::clone(&net))
        .start();
    let mut rng = Rng::new(seed);
    fleet
        .registry("mlp")
        .expect("registered")
        .publish(net.init_params(&mut rng), 0)
        .expect("params fit the spec");
    let inputs: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..64).map(|_| rng.normal()).collect())
        .collect();
    (fleet, net, inputs)
}

/// Coalescing eight concurrent callers into one forward pass must beat
/// dispatching them one at a time. A fixed synthetic per-batch cost makes
/// the comparison deterministic: with one worker and a 2 ms charge per
/// batch, per-request dispatch pays the charge 320 times while an
/// 8-deep micro-batch pays it roughly 40 times.
#[test]
fn micro_batching_beats_per_request_dispatch() {
    let specs = vec![closed("mlp", SloClass::Standard, 40, 5_000); 8];
    let run = |batch: BatchConfig| {
        let (fleet, _, inputs) = served_mlp(7, {
            FleetConfig {
                batch,
                initial_workers: 1,
                synthetic_delay: Some(Duration::from_millis(2)),
                ..FleetConfig::default()
            }
        });
        let load = run_fleet_load(&fleet.client(), &inputs, &specs, 9);
        let report = fleet.shutdown();
        assert!(all_answered(&load), "{}", load.summary());
        assert_eq!(
            load.total_ok(),
            320,
            "the queue is deep enough for 8 callers"
        );
        let m = report.model("mlp").expect("registered").clone();
        let throughput = load.total_ok() as f64 / load.wall.as_secs_f64();
        (throughput, m.completed as f64 / m.batches as f64)
    };

    let (unbatched, unbatched_mean) = run(BatchConfig::unbatched());
    let (batched, batched_mean) = run(BatchConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        ..BatchConfig::default()
    });

    assert!((unbatched_mean - 1.0).abs() < 1e-9);
    assert!(
        batched_mean > 2.0,
        "coalescing happened: mean batch {batched_mean:.2}"
    );
    assert!(
        batched > unbatched,
        "micro-batching must beat batch=1: {batched:.0} vs {unbatched:.0} req/s"
    );
}

/// Publishing fresh snapshots in the middle of a load run must be
/// invisible to clients except as rising versions: nothing drops,
/// nothing fails, and no closed-loop caller ever sees a version regress.
#[test]
fn hot_swap_mid_load_loses_nothing() {
    let config = FleetConfig {
        initial_workers: 2,
        synthetic_delay: Some(Duration::from_micros(500)),
        ..FleetConfig::default()
    };
    let (fleet, net, inputs) = served_mlp(11, config);
    let registry = fleet.registry("mlp").expect("registered");
    let fresh = net.init_params(&mut Rng::new(99));
    let client = fleet.client();
    let specs = vec![closed("mlp", SloClass::Standard, 100, 5_000); 4];
    let load = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            for publication in 0..5 {
                std::thread::sleep(Duration::from_millis(10));
                registry
                    .publish(fresh.clone(), 10 * (publication + 1))
                    .expect("same shape republished");
            }
        });
        let load = run_fleet_load(&client, &inputs, &specs, 3);
        publisher.join().expect("publisher panicked");
        load
    });

    assert!(all_answered(&load), "{}", load.summary());
    assert_eq!(
        load.total_ok(),
        400,
        "zero dropped requests across hot swaps"
    );
    assert!(load.versions_monotonic(), "versions regressed mid-load");
    let min = load.streams.iter().map(|s| s.min_version).min().unwrap();
    let max = load.streams.iter().map(|s| s.max_version).max().unwrap();
    assert!(
        max > min,
        "the load must actually straddle a swap: saw only version {max}"
    );

    // After every publication, a fresh request is answered by the newest
    // snapshot.
    let latest = client
        .call(
            "mlp",
            inputs[0].clone(),
            SloClass::Standard,
            Duration::from_secs(5),
        )
        .expect("serving still up");
    assert_eq!(latest.version, registry.version());
    assert_eq!(registry.version(), 6);
    let report = fleet.shutdown();
    let m = report.model("mlp").expect("registered");
    assert_eq!((m.completed, m.rejected, m.shed), (401, 0, 0));
    assert_eq!(m.max_version, 6);
}

/// (a) + (b): under an open-loop Batch flood, every admitted request is
/// still answered, only the lowest class is shed or rejected, and the
/// higher classes keep the goodput they get from an unloaded fleet.
#[test]
fn overload_sheds_only_the_lowest_class_and_answers_everything() {
    let interactive = 20usize;
    let standard = 20usize;

    // Unloaded baseline: the same closed streams against an idle fleet.
    let (fleet, _, names) = fleet_of(2, tight_config());
    let specs: Vec<StreamSpec> = names
        .iter()
        .flat_map(|m| {
            [
                closed(m, SloClass::Interactive, interactive, 150),
                closed(m, SloClass::Standard, standard, 300),
            ]
        })
        .collect();
    let baseline = run_fleet_load(&fleet.client(), &inputs(3), &specs, 3);
    fleet.shutdown();
    assert!(all_answered(&baseline));

    // Overload: add a Batch flood past each single worker's capacity.
    let (fleet, _, names) = fleet_of(2, tight_config());
    let mut specs: Vec<StreamSpec> = Vec::new();
    for m in &names {
        specs.push(StreamSpec {
            model: m.clone(),
            class: SloClass::Batch,
            arrival: Arrival::Open { rps: 1500.0 },
            requests: 150,
            deadline: Duration::from_millis(50),
        });
        specs.push(closed(m, SloClass::Interactive, interactive, 150));
        specs.push(closed(m, SloClass::Standard, standard, 300));
    }
    let overload = run_fleet_load(&fleet.client(), &inputs(3), &specs, 3);
    let report = fleet.shutdown();

    assert!(all_answered(&overload), "{}", overload.summary());
    assert_eq!(
        overload.shed_for_class(SloClass::Interactive),
        0,
        "interactive is never shed"
    );
    assert_eq!(
        overload.shed_for_class(SloClass::Standard),
        0,
        "standard is never shed"
    );
    assert!(
        overload.shed_for_class(SloClass::Batch) > 0,
        "the flood must overflow the queue: {}",
        overload.summary()
    );
    assert!(
        report.total_shed() > 0,
        "shed events reach the fleet report"
    );
    for m in &names {
        for (class, unloaded) in [
            (
                SloClass::Interactive,
                baseline.goodput(m, SloClass::Interactive),
            ),
            (SloClass::Standard, baseline.goodput(m, SloClass::Standard)),
        ] {
            assert!(
                overload.goodput(m, class) >= unloaded,
                "{m}/{class} goodput fell under overload: {} < {unloaded}",
                overload.goodput(m, class)
            );
        }
    }
}

/// (c): a canary staged and promoted while closed streams run loses no
/// requests, and every client's observed versions stay monotone across
/// the promotion.
#[test]
fn canary_promotion_mid_load_is_lossless_and_monotone() {
    let config = FleetConfig {
        synthetic_delay: Some(Duration::from_millis(2)),
        ..FleetConfig::default()
    };
    let (fleet, net, names) = fleet_of(1, config);
    let model = names[0].clone();
    let specs = [
        closed(&model, SloClass::Standard, 120, 500),
        closed(&model, SloClass::Interactive, 120, 500),
    ];
    let client = fleet.client();
    let payload = inputs(5);
    let load = std::thread::scope(|scope| {
        let load = scope.spawn(|| run_fleet_load(&client, &payload, &specs, 5));
        // Stage mid-load, let the split serve for a while, then promote.
        std::thread::sleep(Duration::from_millis(60));
        let mut rng = Rng::new(99);
        fleet
            .stage_candidate(
                &model,
                net.init_params(&mut rng),
                CandidateMode::Canary { percent: 40 },
            )
            .expect("candidate fits the spec");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(fleet.promote(&model, 2).expect("model exists"), Some(2));
        load.join().expect("load thread panicked")
    });
    let report = fleet.shutdown();

    for s in &load.streams {
        assert_eq!(s.ok, s.submitted, "no request lost across the promotion");
        assert!(s.versions_monotonic, "versions went backwards: {s:?}");
    }
    let m = report.model(&model).expect("registered");
    assert_eq!(m.completed, 240);
    assert_eq!(m.shed + m.rejected + m.no_model, 0);
    assert_eq!(m.max_version, 2, "the promotion was observed");
}

/// (d): the autoscaler grows the pool under load and shrinks it again
/// under headroom, and both movements are visible in the report's
/// decision history and in the `fleet.*` metrics.
#[test]
fn autoscaler_scales_both_ways_visibly() {
    let telemetry = Telemetry::disabled();
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::ZERO,
            queue_depth: 256,
        },
        work_stealing: false,
        synthetic_delay: Some(Duration::from_millis(4)),
        autoscaler: Some(AutoscalerConfig {
            slo_p99: Duration::from_millis(10),
            queue_high_water: 4,
            shrink_margin: 0.9,
            min_workers: 1,
            max_workers: 3,
            cooldown_ticks: 0,
            interval: None,
        }),
        telemetry: Some(telemetry.clone()),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let model = names[0].clone();
    let client = fleet.client();

    // Overloaded interval: the flood blows the SLO and the queue.
    let flood = [StreamSpec {
        model: model.clone(),
        class: SloClass::Batch,
        arrival: Arrival::Open { rps: 2000.0 },
        requests: 64,
        deadline: Duration::from_millis(50),
    }];
    run_fleet_load(&client, &inputs(11), &flood, 11);
    let up = fleet.tick();
    assert_eq!(up.len(), 1, "overload grows the pool: {up:?}");
    assert!(up[0].to > up[0].from);

    // Calm-but-sampled interval: cheap closed traffic, empty queue.
    let calm = [closed(&model, SloClass::Standard, 8, 300)];
    run_fleet_load(&client, &inputs(11), &calm, 12);
    let down = fleet.tick();
    assert_eq!(down.len(), 1, "headroom shrinks the pool: {down:?}");
    assert!(down[0].to < down[0].from);

    let report = fleet.shutdown();
    assert!(report.scaled_both_ways());
    let m = report.model(&model).expect("registered");
    assert!(m.max_workers > 1 && m.final_workers == 1);

    // The same movements, through the metrics registry.
    let metrics = &telemetry.metrics;
    assert!(metrics.counter("fleet.scale_up").get() >= 1);
    assert!(metrics.counter("fleet.scale_down").get() >= 1);
    assert!(metrics.gauge(format!("fleet.{model}.workers")).max() >= 2);
    assert!(metrics.counter(format!("fleet.{model}.completed")).get() >= 72);
}

/// The train-and-serve path of the fleet: a live trainer publishes into
/// one model mid-load while a static sibling serves undisturbed; closed
/// clients must see strictly rising versions and lose nothing.
#[test]
fn a_live_trainer_feeds_one_fleet_model_mid_load() {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let (train_set, test_set) = gaussian_mixture(4, DIM, 1280, 0.25, 21)
        .split_at(1024)
        .expect("split in range");
    let fleet = Fleet::builder(FleetConfig::default())
        .model("live", Arc::clone(&net))
        .model("static", Arc::clone(&net))
        .start();
    let mut rng = Rng::new(21);
    fleet
        .registry("static")
        .expect("registered")
        .publish(net.init_params(&mut rng), 1)
        .expect("fresh registry accepts v1");
    let mut algo = Sma::new(net.init_params(&mut rng), 2, SmaConfig::default());
    let config = FleetTrainConfig {
        live_model: "live".into(),
        trainer: TrainerConfig::new(16, 2).with_seed(21),
        publish_every: 10,
        load: vec![
            closed("live", SloClass::Standard, 25, 500),
            closed("static", SloClass::Standard, 25, 500),
        ],
        seed: 21,
        precision: Precision::F32,
    };
    let report = train_into_fleet(fleet, &net, &train_set, &test_set, &mut algo, &config);

    assert!(all_answered(&report.load), "{}", report.load.summary());
    assert!(report.load.versions_monotonic());
    let live_streams = report.load.streams.iter().filter(|s| s.model == "live");
    let seen_min = live_streams.clone().map(|s| s.min_version).min().unwrap();
    let seen_max = live_streams.map(|s| s.max_version).max().unwrap();
    assert!(
        seen_max > seen_min,
        "training published fresh snapshots mid-load: versions {seen_min}..{seen_max}"
    );
    assert_eq!(report.fleet.total_completed(), report.load.total_ok());
    let live = report.fleet.model("live").expect("registered");
    assert_eq!(live.rejected + live.shed, 0);
    assert!(
        live.max_version > 1,
        "the trainer published mid-load: {live:?}"
    );
    let st = report.fleet.model("static").expect("registered");
    assert_eq!(
        (st.min_version, st.max_version),
        (1, 1),
        "the static sibling is undisturbed"
    );
    assert!(report.curve.iterations > 0);
}

/// The one-model shape `crossbow serve` runs: a live trainer publishes
/// fresh f32 snapshots under closed load, clients see monotonically
/// increasing versions and lose nothing, and the final model is
/// published at the requested int8 precision with a measured accuracy
/// delta.
#[test]
fn a_live_trainer_publishes_fresh_models_under_load() {
    // Big enough that training genuinely overlaps the load: the first
    // load round must complete requests while early versions are still
    // current, or the mid-load straddle below would be vacuous.
    let net = Arc::new(mlp(64, &[256, 256], 10));
    let (train_set, test_set) = gaussian_mixture(10, 64, 2176, 0.3, 5)
        .split_at(2048)
        .expect("split in range");
    let fleet = Fleet::builder(FleetConfig {
        initial_workers: 2,
        ..FleetConfig::default()
    })
    .model("mlp", Arc::clone(&net))
    .start();
    let registry = fleet.registry("mlp").expect("registered");
    let mut rng = Rng::new(5);
    let mut algo = Sma::new(net.init_params(&mut rng), 4, SmaConfig::default());
    let config = FleetTrainConfig {
        live_model: "mlp".into(),
        trainer: TrainerConfig::new(16, 4).with_seed(5),
        publish_every: 2,
        load: vec![closed("mlp", SloClass::Standard, 25, 5_000); 2],
        seed: 13,
        precision: Precision::Int8,
    };
    let report = train_into_fleet(fleet, &net, &train_set, &test_set, &mut algo, &config);

    assert!(report.curve.iterations > 0, "the trainer ran");
    assert!(all_answered(&report.load), "{}", report.load.summary());
    assert!(
        report.load.total_ok() >= 50,
        "at least one full round completed"
    );
    assert!(
        report.load.versions_monotonic(),
        "a client saw a version regress"
    );
    let streams = &report.load.streams;
    let seen_min = streams.iter().map(|s| s.min_version).min().unwrap();
    let seen_max = streams.iter().map(|s| s.max_version).max().unwrap();
    assert!(
        seen_max > seen_min,
        "training published fresh snapshots mid-load: versions {seen_min}..{seen_max}"
    );
    let m = report.fleet.model("mlp").expect("registered");
    assert_eq!(m.rejected + m.shed, 0);
    assert_eq!(m.completed, report.load.total_ok());
    assert!(m.max_version >= seen_max);
    let last = registry.current().expect("published");
    assert_eq!(last.precision, Precision::Int8);
    assert!(last.quant.is_some() && last.accuracy_delta.is_some());
}

/// An int8 candidate staged at 100% canary answers every request with
/// the exact-integer forward (bit-identical to a direct
/// `predict_quant`), and promotion turns it into a quantized primary
/// that keeps serving the same classes with its precision label.
#[test]
fn quantized_canary_serves_exactly_and_survives_promotion() {
    let (fleet, net, names) = fleet_of(1, FleetConfig::default());
    let model = names[0].clone();
    let params = fleet
        .registry(&model)
        .expect("registered")
        .current()
        .expect("published")
        .params
        .clone();
    let quant = Arc::new(net.quantize(&params, Precision::Int8));
    fleet
        .stage_quantized_candidate(
            &model,
            Arc::clone(&quant),
            Some(-0.005),
            CandidateMode::Canary { percent: 100 },
        )
        .expect("candidate fits the spec");

    let client = fleet.client();
    let mut scratch = net.scratch();
    for input in inputs(11) {
        let served = client
            .submit(
                &model,
                input.clone(),
                SloClass::Standard,
                Duration::from_secs(5),
            )
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(served.canary, "100% canary routes every request");
        let direct = net.predict_quant(
            &quant,
            &Tensor::from_vec(Shape::new(&[1, DIM]), input),
            &mut scratch,
        );
        assert_eq!(served.class, direct[0], "canary serves the int8 forward");
    }

    assert_eq!(fleet.promote(&model, 5).expect("model exists"), Some(2));
    let current = fleet
        .registry(&model)
        .expect("registered")
        .current()
        .expect("published");
    assert_eq!(current.precision, Precision::Int8);
    assert_eq!(current.accuracy_delta, Some(-0.005));
    assert!(current.quant.is_some());
    for input in inputs(12) {
        let served = client
            .submit(
                &model,
                input.clone(),
                SloClass::Standard,
                Duration::from_secs(5),
            )
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(!served.canary, "promoted model is the primary now");
        assert_eq!(served.version, 2);
        let direct = net.predict_quant(
            &quant,
            &Tensor::from_vec(Shape::new(&[1, DIM]), input),
            &mut scratch,
        );
        assert_eq!(served.class, direct[0], "primary serves the int8 forward");
    }
    let report = fleet.shutdown();
    let m = report.model(&model).expect("registered");
    assert_eq!(m.canary_served, 32, "exactly the pre-promotion requests");
}

/// Load flags that describe no runnable load are usage errors: the CLI
/// prints `error: ...` and exits 1 instead of panicking in a load thread.
#[test]
fn load_flags_that_cannot_run_are_usage_errors() {
    let cases: [&[&str]; 6] = [
        &["serve", "--mode", "open", "--rate", "0"],
        &["serve", "--requests", "0"],
        &["serve", "--clients", "0"],
        &["serve", "--mode", "open", "--rate", "NaN"],
        &["fleet", "--rate", "0"],
        &["fleet", "--rate", "-5"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_crossbow"))
            .args(args)
            .output()
            .expect("crossbow runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

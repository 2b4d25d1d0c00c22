//! Tour of the serving stack: snapshot hot-swap, micro-batching,
//! snapshot-file round-trips, the combined train-and-serve run, and a
//! quantized int8 candidate staged through the fleet's canary route.
//!
//! ```sh
//! cargo run --release -p crossbow --example serve_tour
//! ```
//!
//! Training's product is the central average model `z`; this example
//! deploys it. A [`SnapshotRegistry`] holds immutable versioned models
//! that can be swapped under load, a one-model [`Fleet`] coalesces
//! concurrent requests into micro-batches, and [`train_into_fleet`] runs
//! both halves at once — the trainer keeps publishing fresher `z`
//! snapshots while clients hammer the fleet. The finale quantizes the
//! trained model to int8, measures its accuracy delta against the f32
//! source, and walks it through canary staging and promotion
//! (DESIGN.md §16).

use crossbow::data::synth::gaussian_mixture;
use crossbow::fleet::{
    run_fleet_load, train_into_fleet, Arrival, BatchConfig, CandidateMode, Fleet, FleetConfig,
    FleetLoadReport, FleetTrainConfig, SloClass, StreamSpec,
};
use crossbow::nn::zoo::mlp;
use crossbow::serve::{export_quant_snapshot, load_quant_into, ModelSpec, SnapshotRegistry};
use crossbow::sync::sma::{Sma, SmaConfig};
use crossbow::sync::TrainerConfig;
use crossbow::tensor::{Precision, Rng};
use std::sync::Arc;
use std::time::Duration;

/// `clients` closed-loop callers of `requests` each against `model`.
fn closed(model: &str, clients: usize, requests: usize) -> Vec<StreamSpec> {
    let spec = StreamSpec {
        model: model.to_string(),
        class: SloClass::Standard,
        arrival: Arrival::Closed,
        requests,
        deadline: Duration::from_millis(100),
    };
    vec![spec; clients]
}

/// The observed snapshot version range of a load run.
fn versions(load: &FleetLoadReport) -> (u64, u64) {
    let min = load.streams.iter().map(|s| s.min_version).min();
    let max = load.streams.iter().map(|s| s.max_version).max();
    (min.unwrap_or(0), max.unwrap_or(0))
}

fn main() {
    println!("CROSSBOW serve tour");
    println!("===================");

    // -- 1. A registry of versioned snapshots ----------------------------
    let net = Arc::new(mlp(6, &[16], 4));
    let registry = Arc::new(SnapshotRegistry::new(ModelSpec::of(&net)));
    let mut rng = Rng::new(7);
    let v1 = registry
        .publish(net.init_params(&mut rng), 0)
        .expect("initial model fits");
    println!("published version {v1} ({} parameters)", net.param_len());

    // -- 2. A one-model fleet with micro-batching -----------------------
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            ..BatchConfig::default()
        },
        initial_workers: 2,
        ..FleetConfig::default()
    };
    let fleet = Fleet::builder(config)
        .model_with_registry("tour", Arc::clone(&net), Arc::clone(&registry))
        .start();
    let client = fleet.client();

    let (train_set, test_set) = gaussian_mixture(4, 6, 2304, 0.25, 8)
        .split_at(2048)
        .expect("demo split is in range");
    let sample_len = test_set.sample_len();
    let inputs: Vec<Vec<f32>> = test_set
        .images_tensor()
        .data()
        .chunks_exact(sample_len)
        .take(32)
        .map(<[f32]>::to_vec)
        .collect();

    let one = client
        .call(
            "tour",
            inputs[0].clone(),
            SloClass::Interactive,
            Duration::from_millis(100),
        )
        .expect("fleet up");
    println!(
        "one request     : class {} from snapshot v{} in {:?}",
        one.class, one.version, one.latency
    );

    // -- 3. Hot swap under load ------------------------------------------
    let v2 = registry
        .publish(net.init_params(&mut rng), 50)
        .expect("same shape republished");
    let load = run_fleet_load(&client, &inputs, &closed("tour", 4, 50), 3);
    let (lo, hi) = versions(&load);
    println!(
        "after swap to v{v2}: {} ok / {} submitted, versions {lo}..{hi} (monotonic: {})",
        load.total_ok(),
        load.streams.iter().map(|s| s.submitted).sum::<u64>(),
        load.versions_monotonic()
    );
    let report = fleet.shutdown();
    println!("fleet report    : {}", report.models[0].summary());

    // -- 4. Snapshots round-trip through a CBQS file ---------------------
    let dir = std::env::temp_dir().join(format!("crossbow-serve-tour-{}", std::process::id()));
    let snapshot = registry.current().expect("something published");
    let bytes = export_quant_snapshot(&dir, &net, &snapshot).expect("export");
    let restored = Arc::new(SnapshotRegistry::new(ModelSpec::of(&net)));
    let version = load_quant_into(&restored, &net, &dir)
        .expect("import")
        .expect("found");
    println!(
        "snapshot trip   : exported v{} ({} B, {}) -> fresh registry serves v{version}",
        snapshot.version, bytes, snapshot.precision
    );
    let _ = std::fs::remove_dir_all(&dir);

    // -- 5. Train and serve at once --------------------------------------
    let mut algo = Sma::new(net.init_params(&mut rng), 4, SmaConfig::default());
    let live = Fleet::builder(FleetConfig {
        initial_workers: 2,
        ..FleetConfig::default()
    })
    .model("live", Arc::clone(&net))
    .start();
    let ts_config = FleetTrainConfig {
        live_model: "live".into(),
        trainer: TrainerConfig::new(16, 4).with_seed(7),
        publish_every: 10,
        load: closed("live", 2, 50),
        seed: 13,
        precision: Precision::F32,
    };
    let combined = train_into_fleet(live, &net, &train_set, &test_set, &mut algo, &ts_config);
    let (lo, hi) = versions(&combined.load);
    println!();
    println!("train-and-serve:");
    println!(
        "  trained       : {} iterations, final accuracy {:.3}",
        combined.curve.iterations, combined.curve.final_accuracy
    );
    println!(
        "  load          : {} ok / {} submitted, versions {lo}..{hi} (monotonic: {})",
        combined.load.total_ok(),
        combined
            .load
            .streams
            .iter()
            .map(|s| s.submitted)
            .sum::<u64>(),
        combined.load.versions_monotonic()
    );
    println!("  fleet         : {}", combined.fleet.models[0].summary());

    // -- 6. An int8 candidate through the canary route -------------------
    // Serve the trained f32 model from a one-model fleet, quantize it to
    // int8 (per-output-channel scales, ~3.6x smaller snapshots), measure
    // the top-1 accuracy delta on the held-out set, and stage it as a
    // canary taking 25% of traffic. Promotion publishes the quantized
    // model as the next primary version — the precision label and the
    // measured delta ride along, so operators (and crossbow-fleet's
    // report) always know what is serving and what it cost in accuracy.
    let trained = algo.center_mut().to_vec();
    let fleet = Fleet::builder(FleetConfig::default())
        .model("tour", Arc::clone(&net))
        .start();
    let registry = fleet.registry("tour").expect("registered above");
    registry
        .publish(trained.clone(), combined.curve.iterations as u64)
        .expect("trained model fits");

    let quant = Arc::new(net.quantize(&trained, Precision::Int8));
    let delta = crossbow::nn::accuracy_delta(
        &net,
        &trained,
        &quant,
        &test_set.images_tensor(),
        test_set.labels(),
        64,
    );
    fleet
        .stage_quantized_candidate(
            "tour",
            quant,
            Some(delta),
            CandidateMode::Canary { percent: 25 },
        )
        .expect("spec matches");
    let client = fleet.client();
    let mut canary_hits = 0;
    for input in &inputs {
        let p = client
            .call(
                "tour",
                input.clone(),
                SloClass::Interactive,
                Duration::from_millis(100),
            )
            .expect("fleet up");
        canary_hits += usize::from(p.canary);
    }
    let promoted = fleet
        .promote("tour", combined.curve.iterations as u64 + 1)
        .expect("model exists")
        .expect("candidate staged");
    let snapshot = registry.current().expect("published above");
    println!();
    println!("int8 canary:");
    println!(
        "  staged        : accuracy delta vs f32 {delta:+.4}, {canary_hits}/{} requests \
         took the canary",
        inputs.len()
    );
    println!(
        "  promoted      : v{promoted} serves {} (delta recorded: {})",
        snapshot.precision,
        snapshot
            .accuracy_delta
            .map_or_else(|| "none".to_string(), |d| format!("{d:+.4}")),
    );
    assert_eq!(snapshot.precision, Precision::Int8);
    assert_eq!(snapshot.accuracy_delta, Some(delta));
    let fleet_report = fleet.shutdown();
    println!(
        "  fleet         : {} completed, {} shed",
        fleet_report.total_completed(),
        fleet_report.total_shed()
    );
}

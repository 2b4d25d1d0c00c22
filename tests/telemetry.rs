//! Integration tests for the telemetry subsystem against the product
//! runtimes: the trainer's span counts are deterministic, its spans
//! account for the wall time of the run, a traced `Session` exports a
//! trace that round-trips through the Chrome Trace Event parser, and the
//! session's simulated-GPU spans show Figure 8's sync–compute overlap.

use crossbow::data::synth::gaussian_mixture;
use crossbow::engine::{Session, SessionConfig, TrainingReport};
use crossbow::nn::zoo::mlp;
use crossbow::sync::{train, Sma, SmaConfig, TrainerConfig, TrainingCurve};
use crossbow::telemetry::{chrome, json::Json, SpanKind, Telemetry, Timeline, HOST_DEVICE};
use crossbow::tensor::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Trains SMA through `sync::train` with a wall-clock telemetry sink and
/// returns the sink, the curve and the seconds measured around the call.
fn traced_train(epochs: usize) -> (Telemetry, TrainingCurve, f64) {
    let net = mlp(6, &[32, 16], 4);
    let data = gaussian_mixture(4, 6, 480, 0.35, 7);
    let (train_set, test_set) = data.split_at(400).expect("split in range");
    let mut algo = Sma::new(net.init_params(&mut Rng::new(42)), 4, SmaConfig::default());
    let telemetry = Telemetry::wall();
    let cfg = TrainerConfig::new(8, epochs).with_telemetry(telemetry.clone());
    let start = Instant::now();
    let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
    let wall_s = start.elapsed().as_secs_f64();
    (telemetry, curve, wall_s)
}

/// Runs a two-GPU LeNet `Session` with a wall-clock telemetry sink.
fn traced_session() -> (Telemetry, TrainingReport) {
    let telemetry = Telemetry::wall();
    let config = SessionConfig::lenet_quick()
        .with_gpus(2)
        .with_telemetry(telemetry.clone());
    let report = Session::new(config).run().expect("no checkpointing");
    (telemetry, report)
}

/// Span *counts* are a pure function of the configuration — timing
/// moves spans around but cannot create or lose one.
#[test]
fn span_counts_are_deterministic_under_a_fixed_seed() {
    let (a, _, _) = traced_train(3);
    let (b, _, _) = traced_train(3);
    let (a, b) = (a.recorder.timeline(), b.recorder.timeline());
    assert!(!a.is_empty());
    for kind in SpanKind::ALL {
        assert_eq!(
            a.count(kind),
            b.count(kind),
            "span count for {} differs between identical runs",
            kind.name()
        );
    }
}

/// The spans and a stopwatch around the `train` call measure the same
/// run, so throughput derived from the timeline extent must agree with
/// throughput over the call's wall time. The extent lies inside the
/// call, so the derived figure is an upper bound.
#[test]
fn span_derived_throughput_matches_the_report() {
    let (telemetry, curve, wall_s) = traced_train(6);
    let timeline = telemetry.recorder.timeline();
    let (start, end) = timeline.extent_ns().expect("spans were recorded");
    let reported = curve.samples_processed as f64 / wall_s;
    let derived = curve.samples_processed as f64 / ((end - start) as f64 / 1e9);
    assert!(
        derived >= reported * 0.999,
        "span extent cannot exceed the call's own wall time: \
         derived {derived:.0}, reported {reported:.0}"
    );
    assert!(
        derived <= reported * 1.25,
        "derived throughput strayed too far from the report: \
         derived {derived:.0}, reported {reported:.0}"
    );
}

/// An exported session trace is valid Chrome Trace Event JSON: it parses
/// with the crate's own parser, every event carries the required fields,
/// and the host and every simulated GPU show up as pids with lanes.
#[test]
fn exported_trace_round_trips_through_the_parser() {
    let (telemetry, report) = traced_session();
    let timeline = telemetry.recorder.timeline();
    let json = chrome::to_chrome_json(
        timeline.spans(),
        &[(0, "gpu 0"), (1, "gpu 1"), (HOST_DEVICE, "host")],
    );
    let parsed = Json::parse(&json).expect("exporter emits valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top-level traceEvents array");
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), timeline.len());
    let mut lanes: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for e in &complete {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        let pid = e.get("pid").and_then(Json::as_f64).expect("pid") as u32;
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u32;
        lanes.entry(pid).or_default().insert(tid);
    }
    let pids: Vec<u32> = lanes.keys().copied().collect();
    assert_eq!(pids, vec![0, 1, HOST_DEVICE], "pids seen: {lanes:?}");
    assert!(!lanes[&HOST_DEVICE].is_empty());
    for gpu in 0..report.gpus as u32 {
        assert!(
            lanes[&gpu].len() > 1,
            "gpu {gpu} shows its streams as lanes: {lanes:?}"
        );
    }
}

/// Figure 8's overlap, observed on the product path: in a traced
/// `Session`, the simulated-GPU spans show global synchronisation running
/// while learning tasks run, and the ratio derived from the recorded
/// spans is the one the session reports.
#[test]
fn traced_session_overlaps_sync_with_learning() {
    let (telemetry, report) = traced_session();
    let gpu_spans: Vec<_> = telemetry
        .recorder
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.device != HOST_DEVICE)
        .cloned()
        .collect();
    let overlap = Timeline::from_spans(gpu_spans).overlap();
    assert!(overlap.ratio > 0.0, "{overlap}");
    assert_eq!(Some(overlap), report.sim.overlap);
}

//! Mixed-priority load generation against a fleet.
//!
//! A fleet load run is a set of concurrent *streams*, each pinned to
//! one (model, [`SloClass`]) pair with its own arrival mode, deadline
//! and request budget. Open streams pace arrivals at a fixed rate
//! regardless of completions (the model that exposes queueing collapse
//! under overload); closed streams issue call-after-reply, which gives
//! a per-stream happens-before chain — the served snapshot versions a
//! closed stream observes must be non-decreasing, even across a canary
//! promotion. Every stream reports *goodput* (replies that met their
//! deadline), not just throughput.

use crate::fleet::FleetClient;
use crate::request::{FleetError, FleetTicket, SloClass};
use crossbow_tensor::Rng;
use std::time::{Duration, Instant};

/// How long a stream waits for any single answer before giving up with
/// a counted failure; far above any sane service time, so one stuck
/// worker cannot hang the whole run.
const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// A stream's arrival model.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Pace arrivals at `rps` per second, collecting answers at the end.
    Open {
        /// Target arrival rate, requests per second.
        rps: f64,
    },
    /// Issue each request only after the previous one completed.
    Closed,
}

/// One load stream: a (model, class) pair under a fixed arrival model.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Target model name.
    pub model: String,
    /// Service class of every request in this stream.
    pub class: SloClass,
    /// Arrival model.
    pub arrival: Arrival,
    /// Requests to issue.
    pub requests: usize,
    /// Relative deadline attached to every request.
    pub deadline: Duration,
}

/// What one stream observed.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Target model name.
    pub model: String,
    /// Service class.
    pub class: SloClass,
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub ok: u64,
    /// Answered predictions that met their deadline — the goodput.
    pub goodput: u64,
    /// Requests answered [`FleetError::Shed`] (admitted, then evicted).
    pub shed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests that errored any other way.
    pub failed: u64,
    /// Predictions served by a canary candidate.
    pub canary: u64,
    /// Whether observed snapshot versions were non-decreasing. Closed
    /// streams check their happens-before chain (request `i+1` starts
    /// only after `i` completed); open streams report `true` vacuously —
    /// concurrent workers may answer their unordered completions against
    /// different snapshots.
    pub versions_monotonic: bool,
    /// Lowest snapshot version observed (`u64::MAX` when none).
    pub min_version: u64,
    /// Highest snapshot version observed (0 when none).
    pub max_version: u64,
}

impl StreamReport {
    fn new(model: &str, class: SloClass) -> Self {
        StreamReport {
            model: model.to_string(),
            class,
            submitted: 0,
            ok: 0,
            goodput: 0,
            shed: 0,
            rejected: 0,
            failed: 0,
            canary: 0,
            versions_monotonic: true,
            min_version: u64::MAX,
            max_version: 0,
        }
    }

    fn observe(
        &mut self,
        outcome: Result<crate::request::FleetPrediction, FleetError>,
        last_version: &mut u64,
        ordered: bool,
    ) {
        self.submitted += 1;
        match outcome {
            Ok(p) => {
                self.ok += 1;
                if p.met_deadline {
                    self.goodput += 1;
                }
                if p.canary {
                    self.canary += 1;
                }
                self.min_version = self.min_version.min(p.version);
                self.max_version = self.max_version.max(p.version);
                if ordered && p.version < *last_version {
                    self.versions_monotonic = false;
                }
                *last_version = (*last_version).max(p.version);
            }
            Err(FleetError::Shed) => self.shed += 1,
            Err(FleetError::Overloaded) => self.rejected += 1,
            Err(_) => self.failed += 1,
        }
    }
}

/// The merged observation of every stream in a run.
#[derive(Clone, Debug)]
pub struct FleetLoadReport {
    /// Per-stream reports, in spec order.
    pub streams: Vec<StreamReport>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl FleetLoadReport {
    /// Total goodput for a (model, class) pair across its streams.
    pub fn goodput(&self, model: &str, class: SloClass) -> u64 {
        self.streams
            .iter()
            .filter(|s| s.model == model && s.class == class)
            .map(|s| s.goodput)
            .sum()
    }

    /// Total requests shed or rejected for a class across all models.
    pub fn shed_for_class(&self, class: SloClass) -> u64 {
        self.streams
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.shed + s.rejected)
            .sum()
    }

    /// Whether every stream (closed ones meaningfully) observed
    /// non-decreasing versions.
    pub fn versions_monotonic(&self) -> bool {
        self.streams.iter().all(|s| s.versions_monotonic)
    }

    /// Sum of `ok` across streams.
    pub fn total_ok(&self) -> u64 {
        self.streams.iter().map(|s| s.ok).sum()
    }

    /// Appends a run that started after this one finished, against the
    /// same fleet. Registry versions only grow, so a later stream must
    /// not observe a version below one this run already saw on the same
    /// model; a stream that does is marked non-monotonic.
    pub fn followed_by(mut self, later: FleetLoadReport) -> FleetLoadReport {
        let seen = |model: &str| {
            self.streams
                .iter()
                .filter(|s| s.model == model)
                .map(|s| s.max_version)
                .max()
                .unwrap_or(0)
        };
        let later_streams: Vec<StreamReport> = later
            .streams
            .into_iter()
            .map(|mut s| {
                s.versions_monotonic &= s.min_version >= seen(&s.model);
                s
            })
            .collect();
        self.streams.extend(later_streams);
        self.wall += later.wall;
        self
    }

    /// One line per stream.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.streams {
            out.push_str(&format!(
                "{}/{}: {} submitted, {} ok ({} goodput, {} canary), \
                 {} shed, {} rejected, {} failed\n",
                s.model,
                s.class,
                s.submitted,
                s.ok,
                s.goodput,
                s.canary,
                s.shed,
                s.rejected,
                s.failed,
            ));
        }
        out
    }
}

/// Runs every stream concurrently to completion, drawing request
/// payloads from `inputs` uniformly at random (seeded per stream, so
/// the request mix is reproducible).
///
/// # Panics
/// Panics when `inputs` is empty or a spec requests zero work.
pub fn run_fleet_load(
    client: &FleetClient,
    inputs: &[Vec<f32>],
    specs: &[StreamSpec],
    seed: u64,
) -> FleetLoadReport {
    assert!(!inputs.is_empty(), "need at least one request payload");
    assert!(
        specs.iter().all(|s| s.requests > 0),
        "every stream must issue at least one request"
    );
    let started = Instant::now();
    let streams = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let client = client.clone();
                scope.spawn(move || {
                    run_stream(
                        &client,
                        inputs,
                        spec,
                        seed ^ (i as u64).wrapping_mul(0x9e37),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load stream panicked"))
            .collect()
    });
    FleetLoadReport {
        streams,
        wall: started.elapsed(),
    }
}

fn run_stream(
    client: &FleetClient,
    inputs: &[Vec<f32>],
    spec: &StreamSpec,
    seed: u64,
) -> StreamReport {
    let mut rng = Rng::new(seed);
    let mut report = StreamReport::new(&spec.model, spec.class);
    let mut last_version = 0u64;
    match spec.arrival {
        Arrival::Closed => {
            for _ in 0..spec.requests {
                let input = inputs[rng.below(inputs.len())].clone();
                let outcome = client
                    .submit(&spec.model, input, spec.class, spec.deadline)
                    .and_then(|t| t.wait_deadline(WAIT_LIMIT));
                report.observe(outcome, &mut last_version, true);
            }
        }
        Arrival::Open { rps } => {
            assert!(rps > 0.0, "open stream needs a positive rate");
            let interval = Duration::from_secs_f64(1.0 / rps);
            let base = Instant::now();
            let mut tickets: Vec<FleetTicket> = Vec::with_capacity(spec.requests);
            for i in 0..spec.requests {
                // Pace against the schedule, not the previous send, so a
                // slow submit does not silently lower the offered rate.
                let target = base + interval.mul_f64(i as f64);
                if let Some(wait) = target.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let input = inputs[rng.below(inputs.len())].clone();
                match client.submit(&spec.model, input, spec.class, spec.deadline) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(e) => report.observe(Err(e), &mut last_version, false),
                }
            }
            for ticket in tickets {
                report.observe(ticket.wait_deadline(WAIT_LIMIT), &mut last_version, false);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConfig};
    use crossbow_nn::zoo::mlp;
    use std::sync::Arc;

    fn serving() -> (Fleet, Vec<Vec<f32>>) {
        let net = Arc::new(mlp(4, &[8], 3));
        let fleet = Fleet::builder(FleetConfig {
            initial_workers: 2,
            ..FleetConfig::default()
        })
        .model("m", Arc::clone(&net))
        .start();
        fleet
            .registry("m")
            .expect("registered")
            .publish(net.init_params(&mut Rng::new(1)), 1)
            .expect("params fit");
        let inputs = (0..8).map(|i| vec![i as f32 * 0.1; 4]).collect();
        (fleet, inputs)
    }

    fn stream(arrival: Arrival, requests: usize) -> StreamSpec {
        StreamSpec {
            model: "m".into(),
            class: SloClass::Standard,
            arrival,
            requests,
            deadline: Duration::from_secs(5),
        }
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let (fleet, inputs) = serving();
        let specs = vec![stream(Arrival::Closed, 25); 4];
        let load = run_fleet_load(&fleet.client(), &inputs, &specs, 9);
        for s in &load.streams {
            assert_eq!((s.submitted, s.ok), (25, 25));
            assert_eq!(s.shed + s.rejected + s.failed, 0);
            assert_eq!((s.min_version, s.max_version), (1, 1));
        }
        assert!(load.versions_monotonic());
        assert_eq!(fleet.shutdown().total_completed(), 100);
    }

    #[test]
    fn open_loop_completes_every_request_at_a_feasible_rate() {
        let (fleet, inputs) = serving();
        let specs = [stream(Arrival::Open { rps: 2000.0 }, 60)];
        let load = run_fleet_load(&fleet.client(), &inputs, &specs, 9);
        assert_eq!(load.streams[0].submitted, 60);
        assert_eq!(load.total_ok(), 60);
        // Pacing 60 arrivals at 2000/s takes at least ~30ms.
        assert!(load.wall >= Duration::from_millis(25));
        fleet.shutdown();
    }

    #[test]
    fn merged_rounds_check_monotonicity_across_the_boundary() {
        let round = |model: &str, min_version: u64, max_version: u64| FleetLoadReport {
            streams: vec![StreamReport {
                ok: 10,
                min_version,
                max_version,
                ..StreamReport::new(model, SloClass::Standard)
            }],
            wall: Duration::from_millis(10),
        };
        let merged = round("m", 1, 3).followed_by(round("m", 3, 5));
        assert!(merged.versions_monotonic());
        assert_eq!(merged.total_ok(), 20);
        assert_eq!(merged.wall, Duration::from_millis(20));
        // A later round that saw an *older* version than the earlier
        // round's max breaks monotonicity...
        assert!(!round("m", 1, 3)
            .followed_by(round("m", 2, 5))
            .versions_monotonic());
        // ...but versions are per model: another model's registry counts
        // from its own start.
        assert!(round("m", 1, 3)
            .followed_by(round("other", 1, 1))
            .versions_monotonic());
    }
}

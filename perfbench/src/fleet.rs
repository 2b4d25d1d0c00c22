//! The fleet workloads: one `Fleet` with two pools (an f32 and an int8
//! copy of a 64→256→256→10 MLP, one worker each, no synthetic delay, no
//! autoscaler) under open-loop traffic from one generator thread over
//! three SLO classes.
//!
//! * `fleet-light` — [`LIGHT_RPS`], below one full batch per `max_delay`
//!   window, so the batching window sets latency;
//! * `fleet-slo` — [`HEAVY_RPS`], a quarter to a half of the rate where
//!   admission starts rejecting, so queueing and forward time set it.
//!
//! A request's latency runs from its due time: the generator's own
//! due→send lag plus the reply's admission→answer latency. A request is
//! good when that latency is within its class deadline.
//!
//! A request fails when the fleet answers it wrongly or not at all. A
//! late answer, or one refused at admission or shed for a higher class,
//! is the fleet's load handling rather than a failed operation: it counts
//! against `throughput` (good answers per second) and is printed, and the
//! traced run reports it per class (`fleet.goodput.*`, `fleet.shed`,
//! `fleet.rejected`). How many there are depends on host scheduling, so a
//! count of them would differ between runs of one seed.

use crate::report::Report;
use crate::stats::{percentile, sorted, Summary};
use crate::trace::{breakdown, durations_us, ratio, Tracer};
use crate::Args;
use crossbow::data::synth::gaussian_mixture;
use crossbow::fleet::{Fleet, FleetConfig, FleetError, FleetPrediction, FleetTicket, SloClass};
use crossbow::nn::zoo::mlp;
use crossbow::nn::{Network, QuantizedModel, Scratch};
use crossbow::tensor::{Precision, Rng, Shape, Tensor};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Offered load of `fleet-light`, requests per second.
pub const LIGHT_RPS: f64 = 2_000.0;
/// Offered load of `fleet-slo`, requests per second.
pub const HEAVY_RPS: f64 = 20_000.0;

const F32_MODEL: &str = "mlp-f32";
const INT8_MODEL: &str = "mlp-int8";
/// Distinct request inputs (cycled through by the schedule).
const INPUTS: usize = 4_096;
const INPUT_LEN: usize = 64;
const CLASSES: usize = 10;

/// How long the collector waits for any one answer before counting the
/// request as unanswered (every deadline is far shorter).
const ANSWER_LIMIT: Duration = Duration::from_secs(10);

/// The SLO classes with their share of requests and deadline, taken from
/// the repository's standard mixed-priority load (`crossbow fleet`'s
/// overload phase and `membench`'s fleet rows): per model, `requests`
/// Batch requests with a 50 ms deadline and `requests / 4` each of
/// Interactive (100 ms) and Standard (200 ms), i.e. 1 : 1 : 4.
const MIX: [(SloClass, f64, Duration); 3] = [
    (SloClass::Interactive, 1.0 / 6.0, Duration::from_millis(100)),
    (SloClass::Standard, 1.0 / 6.0, Duration::from_millis(200)),
    (SloClass::Batch, 4.0 / 6.0, Duration::from_millis(50)),
];

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
struct Planned {
    /// Due time, from the start of the schedule.
    due: Duration,
    int8: bool,
    /// Index into [`MIX`].
    class: usize,
    input: usize,
}

/// The published models and the request inputs, built in set-up.
pub struct FleetTask {
    net: Arc<Network>,
    params: Vec<f32>,
    quant: Arc<QuantizedModel>,
    inputs: Vec<Vec<f32>>,
    seed: u64,
}

/// Expected class of every input under the f32 and the int8 model: one
/// single-row `predict`/`predict_quant` call per input. Computed after
/// the measured pass, as part of the check rather than the set-up.
struct Expected {
    f32: Vec<usize>,
    int8: Vec<usize>,
}

impl FleetTask {
    pub fn new(seed: u64) -> Self {
        let net = Arc::new(mlp(INPUT_LEN, &[256, 256], CLASSES));
        let params = net.init_params(&mut Rng::new(seed ^ 0xF1EE7));
        let quant = Arc::new(net.quantize(&params, Precision::Int8));
        let data = gaussian_mixture(CLASSES, INPUT_LEN, INPUTS, 1.0, seed);
        let inputs: Vec<Vec<f32>> = (0..INPUTS)
            .map(|i| data.gather(&[i]).expect("index in range").0.into_vec())
            .collect();
        FleetTask {
            net,
            params,
            quant,
            inputs,
            seed,
        }
    }

    fn expected(&self) -> Expected {
        let mut scratch = self.net.scratch();
        let one = |x: &[f32]| Tensor::from_vec(Shape::new(&[1, INPUT_LEN]), x.to_vec());
        Expected {
            f32: (self.inputs.iter())
                .map(|x| self.net.predict(&self.params, &one(x), &mut scratch)[0])
                .collect(),
            int8: (self.inputs.iter())
                .map(|x| self.net.predict_quant(&self.quant, &one(x), &mut scratch)[0])
                .collect(),
        }
    }

    /// Poisson arrivals at `rate` for `seconds`, with a seeded model,
    /// class and input per request.
    fn schedule(&self, rate: f64, seconds: f64) -> Vec<Planned> {
        let mut rng = Rng::new(self.seed ^ 0x5C4ED);
        let mut t = 0.0f64;
        let mut plan = Vec::with_capacity((rate * seconds * 1.1) as usize);
        loop {
            // Exponential gap; 1 - u lies in (0, 1].
            t += -(1.0 - rng.next_f64()).ln() / rate;
            if t >= seconds {
                break;
            }
            let u = rng.next_f64();
            let class = if u < MIX[0].1 {
                0
            } else if u < MIX[0].1 + MIX[1].1 {
                1
            } else {
                2
            };
            plan.push(Planned {
                due: Duration::from_secs_f64(t),
                // Both models get the same traffic, as every model does
                // in the repository's standard load.
                int8: rng.bernoulli(0.5),
                class,
                input: rng.below(INPUTS),
            });
        }
        plan
    }

    fn start_fleet(&self) -> Fleet {
        let fleet = Fleet::builder(FleetConfig::default())
            .model(F32_MODEL, Arc::clone(&self.net))
            .model(INT8_MODEL, Arc::clone(&self.net))
            .start();
        fleet
            .registry(F32_MODEL)
            .expect("registered")
            .publish(self.params.clone(), 0)
            .expect("parameters fit the spec");
        fleet
            .registry(INT8_MODEL)
            .expect("registered")
            .publish_quantized(Arc::clone(&self.quant), 0, None)
            .expect("quantized model fits the spec");
        fleet
    }

    /// Median time of one `predict` (f32) and `predict_quant` (int8) call
    /// at `batch` rows.
    fn predict_us(&self, batch: usize) -> (f64, f64) {
        let batch = batch.clamp(1, INPUTS);
        let data: Vec<f32> = self.inputs[..batch].concat();
        let x = Tensor::from_vec(Shape::new(&[batch, INPUT_LEN]), data);
        let mut scratch: Scratch = self.net.scratch_with_plan(&self.net.plan(batch));
        let mut time = |f: &mut dyn FnMut(&mut Scratch) -> Vec<usize>| {
            let times: Vec<f64> = (0..400)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(f(&mut scratch));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            percentile(&sorted(times), 0.5)
        };
        let f32_us = time(&mut |s| self.net.predict(&self.params, &x, s));
        let int8_us = time(&mut |s| self.net.predict_quant(&self.quant, &x, s));
        (f32_us, int8_us)
    }
}

/// Latency of a request from its due time: the generator's due→send lag
/// plus the fleet's admission→answer latency.
fn from_due(lag: Duration, served: Duration) -> Duration {
    lag + served
}

/// Walks `dues` in order: waits until each request is due (unless the
/// generator is already late), then calls `send(i, lag)` with how late
/// the send is. A stall anywhere — in `wait_until`, in `send` — makes
/// every request due during it late, and that lateness is charged to
/// those requests through their lag.
fn run_schedule(
    dues: &[Duration],
    now: &mut dyn FnMut() -> Duration,
    wait_until: &mut dyn FnMut(Duration),
    send: &mut dyn FnMut(usize, Duration),
) {
    for (i, &due) in dues.iter().enumerate() {
        if now() < due {
            wait_until(due);
        }
        let lag = now().saturating_sub(due);
        send(i, lag);
    }
}

/// What one request came to.
struct Outcome {
    idx: usize,
    lag: Duration,
    /// Admission instant, for the traced reply span.
    admitted: Instant,
    result: Result<FleetPrediction, FleetError>,
}

/// One pass of the schedule through a fresh fleet.
struct Pass {
    outcomes: Vec<Outcome>,
    /// From the schedule's start to its last answer.
    makespan: Duration,
    completed: u64,
    batches: u64,
    stolen: u64,
    shed: u64,
    rejected: u64,
    queue_max: u64,
}

fn run_pass(task: &FleetTask, plan: &[Planned], tracer: Option<&Arc<Tracer>>) -> Pass {
    let fleet = task.start_fleet();
    let client = fleet.client();
    let dues: Vec<Duration> = plan.iter().map(|p| p.due).collect();
    let (tx, rx) = mpsc::channel::<(usize, Duration, Instant, Result<FleetTicket, FleetError>)>();
    // Start a little ahead so the first request is not already late.
    let start = Instant::now() + Duration::from_millis(5);
    let outcomes = std::thread::scope(|scope| {
        // The collector redeems tickets in send order, so the generator
        // never blocks on an answer and in-flight tickets stay bounded.
        let collector = scope.spawn(move || {
            let mut outcomes = Vec::with_capacity(plan.len());
            for (idx, lag, admitted, submitted) in rx {
                let result = submitted.and_then(|t| t.wait_deadline(ANSWER_LIMIT));
                outcomes.push(Outcome {
                    idx,
                    lag,
                    admitted,
                    result,
                });
            }
            outcomes
        });
        let mut now = move || Instant::now().saturating_duration_since(start);
        let mut wait_until = |due: Duration| loop {
            let n = Instant::now().saturating_duration_since(start);
            if n >= due {
                break;
            }
            let gap = due - n;
            if gap > Duration::from_micros(200) {
                std::thread::sleep(gap - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        };
        let mut send = move |i: usize, lag: Duration| {
            let p = plan[i];
            let (model, class, deadline) = (
                if p.int8 { INT8_MODEL } else { F32_MODEL },
                MIX[p.class].0,
                MIX[p.class].2,
            );
            let input = task.inputs[p.input].clone();
            let submit = || client.submit(model, input, class, deadline);
            let t = Instant::now();
            let submitted = match tracer {
                Some(tr) => tr.span("fleet.submit", Some(i as u64), submit),
                None => submit(),
            };
            tx.send((i, lag, t, submitted))
                .expect("collector outlives the generator");
        };
        let mut generate = || run_schedule(&dues, &mut now, &mut wait_until, &mut send);
        match tracer {
            Some(tr) => tr.span("run", None, generate),
            None => generate(),
        }
        drop(send);
        collector.join().expect("collector thread panicked")
    });
    let report = fleet.shutdown();
    let makespan = outcomes
        .iter()
        .filter_map(|o| {
            let served = o.result.as_ref().ok()?.latency;
            Some(plan[o.idx].due + from_due(o.lag, served))
        })
        .max()
        .unwrap_or_default();
    Pass {
        outcomes,
        makespan,
        completed: report.models.iter().map(|m| m.completed).sum(),
        batches: report.models.iter().map(|m| m.batches).sum(),
        stolen: report.models.iter().map(|m| m.stolen).sum(),
        shed: report.models.iter().map(|m| m.shed).sum(),
        rejected: report.models.iter().map(|m| m.rejected).sum(),
        queue_max: report
            .models
            .iter()
            .map(|m| m.max_queue_depth)
            .max()
            .unwrap_or(0),
    }
}

/// Per-pass tallies shared by the plain and the traced run.
struct Tally {
    /// From-due latency of every answered request, in microseconds.
    latency_us: Vec<f64>,
    good: u64,
    /// Answered after the class deadline.
    late: u64,
    /// Refused at admission or shed for a higher class.
    refused: u64,
    good_by_class: [u64; 3],
    sent_by_class: [u64; 3],
}

/// Checks every outcome and counts failures into `report`.
fn tally(expected: &Expected, plan: &[Planned], pass: &Pass, report: &mut Report) -> Tally {
    let mut t = Tally {
        latency_us: Vec::with_capacity(pass.outcomes.len()),
        good: 0,
        late: 0,
        refused: 0,
        good_by_class: [0; 3],
        sent_by_class: [0; 3],
    };
    report.check(
        pass.outcomes.len() == plan.len(),
        "the generator did not send every scheduled request",
    );
    let mut wrong = 0u64;
    let mut unanswered = 0u64;
    for o in &pass.outcomes {
        let p = plan[o.idx];
        report.attempted += 1;
        t.sent_by_class[p.class] += 1;
        match &o.result {
            Ok(pred) => {
                let want = if p.int8 {
                    expected.int8[p.input]
                } else {
                    expected.f32[p.input]
                };
                if pred.class != want {
                    wrong += 1;
                    report.failed += 1;
                }
                let latency = from_due(o.lag, pred.latency);
                t.latency_us.push(latency.as_secs_f64() * 1e6);
                if latency <= MIX[p.class].2 {
                    t.good += 1;
                    t.good_by_class[p.class] += 1;
                } else {
                    t.late += 1;
                }
            }
            Err(FleetError::Overloaded) | Err(FleetError::Shed) => t.refused += 1,
            Err(_) => {
                report.failed += 1;
                unanswered += 1;
            }
        }
    }
    report.check(
        wrong == 0,
        format!("{wrong} answers differ from predict/predict_quant on the same input"),
    );
    report.check(
        unanswered == 0,
        format!("{unanswered} admitted requests were not answered"),
    );
    report.check(
        pass.completed == t.latency_us.len() as u64,
        "the fleet's completed count disagrees with the answers received",
    );
    t
}

/// Runs the schedule at `rate` for `--seconds`: plainly with `--trace 0`;
/// plainly and then traced with `--trace 1`.
pub fn measure(
    task: &FleetTask,
    rate: f64,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let plan = task.schedule(rate, args.seconds);
    if plan.is_empty() {
        return Err("the schedule is empty; raise --seconds".into());
    }
    let span = plan.last().expect("non-empty").due.as_secs_f64();
    let plain = run_pass(task, &plan, None);
    let expected = task.expected();
    let t = tally(&expected, &plan, &plain, report);
    let latency = Summary::of(t.latency_us.clone());
    println!(
        "fleet rate={rate} sent={} answered={} good={} late={} refused={} batches={} rejected={} shed={}",
        plan.len(),
        latency.n,
        t.good,
        t.late,
        t.refused,
        plain.batches,
        plain.rejected,
        plain.shed
    );
    println!("{}", latency.describe("latency from due", 1e3, "ms"));
    if !args.trace {
        // Open-loop traffic: `throughput` stays at the offered rate until
        // requests miss their deadlines in bulk, and `done_s` is the
        // schedule's length plus the last request's latency. Both are
        // reported because every workload reports every end-to-end
        // metric; on the fleets, `p50_ms` is the figure that moves.
        report.set("throughput", t.good as f64 / span);
        report.set("p50_ms", latency.p50 / 1e3);
        report.set("done_s", plain.makespan.as_secs_f64());
        return Ok(());
    }
    let tracer = Arc::new(Tracer::default());
    let traced = run_pass(task, &plan, Some(&tracer));
    let tt = tally(&expected, &plan, &traced, report);
    // Reply spans: admission to answer, one per answered request.
    for o in &traced.outcomes {
        if let Ok(pred) = &o.result {
            let start = tracer.at_ns(o.admitted);
            tracer.record(
                "fleet.reply",
                start,
                start + pred.latency.as_nanos() as u64,
                Some(o.idx as u64),
            );
        }
    }
    let spans = tracer.spans();
    let root = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("the traced pass records its root span");
    let b = breakdown(&spans, root);
    let server = Summary::of(durations_us(&spans, "fleet.reply"));
    let submit = Summary::of(durations_us(&spans, "fleet.submit"));
    let lag = Summary::of(
        traced
            .outcomes
            .iter()
            .map(|o| o.lag.as_secs_f64() * 1e6)
            .collect(),
    );
    let batch_mean = ratio(traced.completed as f64, traced.batches as f64);
    let (f32_us, int8_us) = task.predict_us(batch_mean.round() as usize);
    report.set("fleet.server_p50_us", server.p50);
    report.set("fleet.server_p99_us", server.p99);
    report.set("fleet.latency_p99_us", Summary::of(tt.latency_us).p99);
    report.set("fleet.batch_mean", batch_mean);
    report.set("fleet.submit_p50_us", submit.p50);
    report.set("fleet.submit_p99_us", submit.p99);
    report.set("fleet.gen_lag_p50_us", lag.p50);
    report.set("fleet.gen_lag_p99_us", lag.p99);
    report.set("fleet.queue_max", traced.queue_max as f64);
    report.set("fleet.shed", traced.shed as f64);
    report.set("fleet.rejected", traced.rejected as f64);
    report.set(
        "fleet.stolen_share",
        ratio(traced.stolen as f64, traced.batches as f64),
    );
    for (c, name) in [
        "fleet.goodput.interactive",
        "fleet.goodput.standard",
        "fleet.goodput.batch",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(
            name,
            ratio(tt.good_by_class[c] as f64, tt.sent_by_class[c] as f64),
        );
    }
    report.set("nn.predict_f32_us", f32_us);
    report.set("nn.predict_int8_us", int8_us);
    let plain_s = plain.makespan.as_secs_f64();
    let traced_s = traced.makespan.as_secs_f64();
    report.set("trace.overhead_s", traced_s - plain_s);
    report.set("trace.overhead_share", ratio(traced_s - plain_s, plain_s));
    report.breakdown(&b);
    println!(
        "trace spans={} replies n={} submits n={} lag n={} batch_mean={batch_mean:.2}",
        spans.len(),
        server.n,
        submit.n,
        lag.n
    );
    report.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_queued_behind_it() {
        let ms = Duration::from_millis;
        // Due every millisecond; sending request 2 stalls the generator
        // for 5 ms.
        let dues: Vec<Duration> = (0..8).map(ms).collect();
        let clock = Cell::new(Duration::ZERO);
        let mut lags = Vec::new();
        run_schedule(
            &dues,
            &mut || clock.get(),
            &mut |due| clock.set(due),
            &mut |i, lag| {
                lags.push(lag);
                if i == 2 {
                    clock.set(clock.get() + ms(5));
                }
            },
        );
        // Requests 3..=6 fell due during the stall (2..7 ms) and went out
        // at 7 ms; request 7 was on time again.
        assert_eq!(
            lags,
            vec![ms(0), ms(0), ms(0), ms(4), ms(3), ms(2), ms(1), ms(0)]
        );
        // Each request's latency includes its share of the stall, on top
        // of what the server took.
        let served = Duration::from_micros(300);
        let latencies: Vec<Duration> = lags.iter().map(|&lag| from_due(lag, served)).collect();
        assert_eq!(latencies[3], ms(4) + served);
        assert_eq!(latencies[7], served);
    }

    #[test]
    fn schedules_are_seeded() {
        let task = FleetTask::new(3);
        let a = task.schedule(1000.0, 0.5);
        let b = task.schedule(1000.0, 0.5);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.input == y.input));
        assert!(
            (350..650).contains(&a.len()),
            "about rate × seconds requests"
        );
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }
}

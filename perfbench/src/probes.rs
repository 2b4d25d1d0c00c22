//! Pass-through wrappers around the public trait objects the product
//! code accepts. Each forwards every method to the wrapped object and
//! adds nothing but timing, so a wrapped run computes exactly what an
//! unwrapped one does (the traced run proves it by comparing curves).

use crate::trace::Tracer;
use crossbow::data::{DataError, SampleSource};
use crossbow::sync::{AlgoSnapshot, GradientSource, LearnerBatch, RoundStatus, SyncAlgorithm};
use crossbow::tensor::{Shape, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// A [`SampleSource`] whose `gather` calls are recorded as spans.
pub struct TracedSource {
    inner: Arc<dyn SampleSource>,
    tracer: Arc<Tracer>,
    name: &'static str,
}

impl TracedSource {
    pub fn new(inner: Arc<dyn SampleSource>, tracer: Arc<Tracer>, name: &'static str) -> Self {
        TracedSource {
            inner,
            tracer,
            name,
        }
    }
}

impl SampleSource for TracedSource {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn sample_shape(&self) -> &Shape {
        self.inner.sample_shape()
    }

    fn sample_len(&self) -> usize {
        self.inner.sample_len()
    }

    fn classes(&self) -> usize {
        self.inner.classes()
    }

    fn label(&self, i: usize) -> Result<usize, DataError> {
        self.inner.label(i)
    }

    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DataError> {
        self.tracer
            .span(self.name, None, || self.inner.gather(indices))
    }

    fn eval_tensors(&self) -> Result<(Tensor, Vec<usize>), DataError> {
        self.inner.eval_tensors()
    }
}

/// A [`GradientSource`] whose rounds are recorded as `nn.round` spans.
pub struct TracedGradients<G> {
    inner: G,
    tracer: Arc<Tracer>,
}

impl<G: GradientSource> TracedGradients<G> {
    pub fn new(inner: G, tracer: Arc<Tracer>) -> Self {
        TracedGradients { inner, tracer }
    }
}

impl<G: GradientSource> GradientSource for TracedGradients<G> {
    fn round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus {
        let inner = &mut self.inner;
        self.tracer.span("nn.round", None, || {
            inner.round(algo, batches, grads, losses)
        })
    }
}

/// A [`SyncAlgorithm`] that stores the instant of every `step` call (the
/// round clock: a round is the interval between consecutive steps) and,
/// when given a tracer, records each step as a `sync.step` span.
///
/// The end-to-end runs use it without a tracer: one `Instant::now()` per
/// step, pushed into a pre-sized vector.
pub struct StepClock<'a> {
    inner: &'a mut dyn SyncAlgorithm,
    tracer: Option<Arc<Tracer>>,
    steps: Vec<Instant>,
}

impl<'a> StepClock<'a> {
    pub fn new(inner: &'a mut dyn SyncAlgorithm, tracer: Option<Arc<Tracer>>) -> Self {
        StepClock {
            inner,
            tracer,
            steps: Vec::with_capacity(1 << 16),
        }
    }

    /// The instant each `step` call began, in call order.
    pub fn steps(&self) -> &[Instant] {
        &self.steps
    }
}

impl SyncAlgorithm for StepClock<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn replica(&self, j: usize) -> &[f32] {
        self.inner.replica(j)
    }

    fn step(&mut self, grads: &[Vec<f32>], lr: f32) {
        self.steps.push(Instant::now());
        match &self.tracer {
            Some(t) => t.span("sync.step", None, || self.inner.step(grads, lr)),
            None => self.inner.step(grads, lr),
        }
    }

    fn consensus(&self) -> &[f32] {
        self.inner.consensus()
    }

    fn on_lr_change(&mut self) {
        self.inner.on_lr_change();
    }

    fn add_replica(&mut self) -> bool {
        self.inner.add_replica()
    }

    fn remove_replica(&mut self) -> bool {
        self.inner.remove_replica()
    }

    fn snapshot(&self) -> Option<AlgoSnapshot> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &AlgoSnapshot) -> bool {
        self.inner.restore(snapshot)
    }
}

/// Microseconds between consecutive instants.
pub fn intervals_us(steps: &[Instant]) -> Vec<f64> {
    steps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e6)
        .collect()
}

//! The [`Layer`] trait and the layer library.
//!
//! Layers are **stateless topology**: parameters and gradients live in flat
//! external vectors owned by each learner, and everything a layer must
//! remember between forward and backward (inputs, masks, batch statistics)
//! is stashed in a per-learner [`Slot`]. This split is what allows one
//! network definition to be shared by dozens of learner threads while each
//! trains its own model replica — the heart of the paper's design.
//!
//! Conventions:
//! * shapes are **per-sample**; the batch dimension is implicit (a batch of
//!   `b` samples with per-sample shape `[c, h, w]` is a `[b, c, h, w]`
//!   tensor);
//! * `forward` pushes whatever it needs into its `Slot` in a layer-defined
//!   order; `backward` reads it back;
//! * `backward` *accumulates* into `grad_params` (callers zero it once per
//!   batch) and returns the gradient with respect to the layer input;
//!   `backward_params` accumulates the same parameter gradients without
//!   the input gradient (the network's first layer has no consumer for it).

pub mod activation;
pub mod conv2d;
pub mod dense;
pub mod norm;
pub mod pool;
pub mod residual;

pub use activation::{Relu, Tanh};
pub use conv2d::Conv2d;
pub use dense::{Dense, Flatten};
pub use norm::ChannelNorm;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::Residual;

use crossbow_tensor::{Rng, Shape, Tensor, Workspace};

/// Per-layer, per-learner storage for values carried from forward to
/// backward. Composite layers (e.g. [`Residual`]) use `children` to give
/// each inner layer its own slot.
#[derive(Clone, Debug, Default)]
pub struct Slot {
    /// Saved tensors, in a layer-defined order.
    pub tensors: Vec<Tensor>,
    /// Nested slots for composite layers.
    pub children: Vec<Slot>,
}

impl Slot {
    /// Clears saved values (keeps child structure).
    pub fn clear(&mut self) {
        self.tensors.clear();
        for c in &mut self.children {
            c.clear();
        }
    }

    /// Drains this slot's saved tensors back into the arena (children are
    /// left alone: composite layers recycle them through their inner
    /// layers' own forward passes). Layers call this at the top of a
    /// training forward so last iteration's stash backs this iteration's.
    pub fn recycle_tensors_into(&mut self, ws: &mut Workspace) {
        for t in self.tensors.drain(..) {
            ws.recycle(t);
        }
    }
}

/// Stashes an arena-backed copy of `t` into the slot.
pub(crate) fn stash_copy(slot: &mut Slot, ws: &mut Workspace, t: &Tensor) {
    let mut saved = ws.take_tensor(t.shape().clone());
    saved.copy_from(t);
    slot.tensors.push(saved);
}

/// A differentiable operator with externally stored parameters.
pub trait Layer: Send + Sync {
    /// Short name for traces, graphs and debugging.
    fn name(&self) -> &'static str;

    /// Number of parameters.
    fn param_len(&self) -> usize;

    /// Per-sample output shape for a given per-sample input shape.
    ///
    /// # Panics
    /// Panics if the input shape is incompatible with the layer.
    fn output_shape(&self, input: &Shape) -> Shape;

    /// Initialises this layer's slice of the parameter vector.
    fn init(&self, params: &mut [f32], rng: &mut Rng);

    /// Computes the layer output for a batch, saving whatever backward
    /// needs into `slot` when `train` is true. Scratch buffers (im2col
    /// columns, masks, statistics) and the output itself are checked out
    /// of `ws`, the learner's §4.5 arena, instead of freshly allocated.
    fn forward(
        &self,
        params: &[f32],
        input: &Tensor,
        slot: &mut Slot,
        ws: &mut Workspace,
        train: bool,
    ) -> Tensor;

    /// Accumulates parameter gradients into `grad_params` and returns the
    /// gradient with respect to the layer input (checked out of `ws`).
    fn backward(
        &self,
        params: &[f32],
        grad_params: &mut [f32],
        grad_output: &Tensor,
        slot: &Slot,
        ws: &mut Workspace,
    ) -> Tensor;

    /// Accumulates parameter gradients into `grad_params` exactly as
    /// [`Layer::backward`] does, for a layer whose input gradient nobody
    /// reads (the first layer of a network). Layers with a costly input
    /// gradient override it to skip that work; the default runs the full
    /// backward and recycles the input gradient.
    fn backward_params(
        &self,
        params: &[f32],
        grad_params: &mut [f32],
        grad_output: &Tensor,
        slot: &Slot,
        ws: &mut Workspace,
    ) {
        let grad_in = self.backward(params, grad_params, grad_output, slot, ws);
        ws.recycle(grad_in);
    }

    /// Rough FLOPs per sample of one forward pass (for cost profiles).
    fn flops_per_sample(&self, input: &Shape) -> u64;

    /// Upper bound on the arena elements this layer checks out during one
    /// training forward + backward for the given per-sample input shape
    /// and batch size — stashes, masks and kernel scratch, *excluding* the
    /// output activation and upstream gradient (the network accounts for
    /// those). Feeds [`crate::network::Network::plan`].
    fn scratch_len(&self, _input: &Shape, _batch: usize) -> usize {
        0
    }

    /// Number of primitive device operators this layer lowers to (for the
    /// operator-graph export; default 1 forward + 1 backward).
    fn op_count(&self) -> usize {
        2
    }

    /// Downcast hook for the quantized serving path: dense layers return
    /// themselves so [`crate::quant`] can swap their matrix product for
    /// the int8 kernel; every other layer runs its normal `f32` forward.
    fn as_dense(&self) -> Option<&Dense> {
        None
    }
}

/// Splits a batched tensor's first dimension: `(batch, per-sample length)`.
///
/// # Panics
/// Panics if the tensor is not divisible into samples of `sample_len`.
pub(crate) fn batch_of(input: &Tensor, sample_len: usize) -> usize {
    assert!(sample_len > 0, "zero-length samples");
    let total = input.len();
    assert_eq!(
        total % sample_len,
        0,
        "tensor of {total} elements is not a batch of {sample_len}-element samples"
    );
    total / sample_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_clear_preserves_children() {
        let mut s = Slot::default();
        s.tensors.push(Tensor::zeros([2]));
        s.children.push(Slot::default());
        s.children[0].tensors.push(Tensor::zeros([2]));
        s.clear();
        assert!(s.tensors.is_empty());
        assert_eq!(s.children.len(), 1);
        assert!(s.children[0].tensors.is_empty());
    }

    #[test]
    fn batch_of_divides() {
        let t = Tensor::zeros([4, 3]);
        assert_eq!(batch_of(&t, 3), 4);
    }

    #[test]
    #[should_panic(expected = "not a batch")]
    fn batch_of_rejects_ragged() {
        let t = Tensor::zeros([5]);
        let _ = batch_of(&t, 3);
    }
}

/// Finite-difference gradient checking shared by the layer tests.
#[cfg(test)]
pub(crate) mod gradcheck {
    use super::*;

    /// Checks `d loss / d params` and `d loss / d input` of a layer against
    /// central finite differences, where `loss = sum(output * probe)` for a
    /// fixed random probe (so the analytic grad_output is just `probe`).
    pub(crate) fn check_layer(layer: &dyn Layer, input_shape: &[usize], batch: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let per_sample = Shape::new(input_shape);
        let mut full_dims = vec![batch];
        full_dims.extend_from_slice(input_shape);
        let input = Tensor::randn(Shape::new(&full_dims), 1.0, &mut rng);
        let mut params = vec![0.0f32; layer.param_len()];
        layer.init(&mut params, &mut rng);
        // Nudge params away from symmetric points (e.g. all-zero biases are
        // fine, but norm layers at exactly 1/0 can hide errors).
        for p in params.iter_mut() {
            *p += 0.01 * rng.normal();
        }

        let out_shape = layer.output_shape(&per_sample);
        let probe = Tensor::randn(
            Shape::new(&{
                let mut d = vec![batch];
                d.extend_from_slice(out_shape.dims());
                d
            }),
            1.0,
            &mut rng,
        );

        let loss = |params: &[f32], input: &Tensor| -> f64 {
            let mut slot = Slot::default();
            let mut ws = Workspace::new();
            let out = layer.forward(params, input, &mut slot, &mut ws, true);
            out.data()
                .iter()
                .zip(probe.data())
                .map(|(&o, &p)| f64::from(o) * f64::from(p))
                .sum()
        };

        // Analytic gradients.
        let mut slot = Slot::default();
        let mut ws = Workspace::new();
        let _ = layer.forward(&params, &input, &mut slot, &mut ws, true);
        let mut grad_params = vec![0.0f32; params.len()];
        let grad_input = layer.backward(&params, &mut grad_params, &probe, &slot, &mut ws);

        let eps = 3e-3f32;
        // Parameter gradients: probe a subset for speed.
        let stride = (params.len() / 24).max(1);
        for i in (0..params.len()).step_by(stride) {
            let mut p1 = params.clone();
            p1[i] += eps;
            let mut p2 = params.clone();
            p2[i] -= eps;
            let num = (loss(&p1, &input) - loss(&p2, &input)) / (2.0 * f64::from(eps));
            let ana = f64::from(grad_params[i]);
            // f32 forward passes through deep composites accumulate ~1e-3
            // relative error per layer; 3% is the tightest tolerance that
            // stays reliable for the bottleneck block.
            let tol = 3e-2 * (1.0 + num.abs().max(ana.abs()));
            assert!(
                (num - ana).abs() < tol,
                "{}: param {i} grad mismatch: numeric {num} vs analytic {ana}",
                layer.name()
            );
        }
        // Input gradients. Coordinates within eps of zero are skipped:
        // piecewise-linear layers (ReLU, max-pool) have kinks there, where
        // central differences straddle two linear pieces and disagree with
        // the (one-sided) analytic derivative.
        let istride = (input.len() / 24).max(1);
        for i in (0..input.len()).step_by(istride) {
            if input.data()[i].abs() < 5.0 * eps {
                continue;
            }
            let mut x1 = input.clone();
            x1.data_mut()[i] += eps;
            let mut x2 = input.clone();
            x2.data_mut()[i] -= eps;
            let num = (loss(&params, &x1) - loss(&params, &x2)) / (2.0 * f64::from(eps));
            let ana = f64::from(grad_input.data()[i]);
            let tol = 3e-2 * (1.0 + num.abs().max(ana.abs()));
            assert!(
                (num - ana).abs() < tol,
                "{}: input {i} grad mismatch: numeric {num} vs analytic {ana}",
                layer.name()
            );
        }
    }
}

//! Fully-connected layers and the flatten adapter.

use super::{batch_of, stash_copy, Layer, Slot};
use crate::init::Init;
use crossbow_tensor::gemm::{gemm_at_ws, gemm_bt_ws, gemm_ws};
use crossbow_tensor::{Rng, Shape, Tensor, Workspace};

/// A fully-connected layer: `y = x @ W^T + b` with `W: out x in` and
/// `b: out`. Accepts any input whose per-sample element count equals
/// `in_features` (it flattens implicitly).
#[derive(Clone, Copy, Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    init: Init,
}

impl Dense {
    /// Creates a dense layer with He initialisation (for ReLU stacks).
    pub fn new(in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "zero-sized dense layer"
        );
        Dense {
            in_features,
            out_features,
            init: Init::HeNormal,
        }
    }

    /// Uses Xavier initialisation instead (for linear/tanh heads).
    pub fn with_xavier(mut self) -> Self {
        self.init = Init::XavierUniform;
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn weight_len(&self) -> usize {
        self.in_features * self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.out_features
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        assert_eq!(
            input.len(),
            self.in_features,
            "dense layer expects {} input features, got {input}",
            self.in_features
        );
        Shape::vector(self.out_features)
    }

    fn init(&self, params: &mut [f32], rng: &mut Rng) {
        let (w, b) = params.split_at_mut(self.weight_len());
        self.init.fill(w, self.in_features, self.out_features, rng);
        Init::Zeros.fill(b, 0, 0, rng);
    }

    fn forward(
        &self,
        params: &[f32],
        input: &Tensor,
        slot: &mut Slot,
        ws: &mut Workspace,
        train: bool,
    ) -> Tensor {
        let b = batch_of(input, self.in_features);
        let (w, bias) = params.split_at(self.weight_len());
        let mut out = ws.take_tensor([b, self.out_features]);
        // out = input @ W^T
        gemm_bt_ws(
            b,
            self.in_features,
            self.out_features,
            1.0,
            input.data(),
            w,
            0.0,
            out.data_mut(),
            ws,
        );
        for row in out.data_mut().chunks_exact_mut(self.out_features) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
        if train {
            slot.recycle_tensors_into(ws);
            stash_copy(slot, ws, input);
        }
        out
    }

    fn backward(
        &self,
        params: &[f32],
        grad_params: &mut [f32],
        grad_output: &Tensor,
        slot: &Slot,
        ws: &mut Workspace,
    ) -> Tensor {
        self.backward_params(params, grad_params, grad_output, slot, ws);
        let input = &slot.tensors[0];
        let b = batch_of(input, self.in_features);
        let (w, _) = params.split_at(self.weight_len());
        // dX = dY @ W
        let mut grad_in = ws.take_tensor(input.shape().clone());
        gemm_ws(
            b,
            self.out_features,
            self.in_features,
            1.0,
            grad_output.data(),
            w,
            0.0,
            grad_in.data_mut(),
            ws,
        );
        grad_in
    }

    fn backward_params(
        &self,
        _params: &[f32],
        grad_params: &mut [f32],
        grad_output: &Tensor,
        slot: &Slot,
        ws: &mut Workspace,
    ) {
        let input = &slot.tensors[0];
        let b = batch_of(input, self.in_features);
        let (gw, gb) = grad_params.split_at_mut(self.weight_len());
        // dW += dY^T @ X   (dY is b x out stored row-major = k x m for gemm_at)
        gemm_at_ws(
            self.out_features,
            b,
            self.in_features,
            1.0,
            grad_output.data(),
            input.data(),
            1.0,
            gw,
            ws,
        );
        // db += column sums of dY
        for row in grad_output.data().chunks_exact(self.out_features) {
            for (g, &d) in gb.iter_mut().zip(row) {
                *g += d;
            }
        }
    }

    fn flops_per_sample(&self, _input: &Shape) -> u64 {
        2 * (self.in_features * self.out_features) as u64
    }

    fn scratch_len(&self, _input: &Shape, batch: usize) -> usize {
        // The stashed input copy.
        batch * self.in_features
    }

    fn as_dense(&self) -> Option<&Dense> {
        Some(self)
    }
}

/// Reshapes any per-sample input to a flat vector. Carries no parameters;
/// included so network definitions read like the paper's figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flatten;

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn param_len(&self) -> usize {
        0
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        Shape::vector(input.len())
    }

    fn init(&self, _params: &mut [f32], _rng: &mut Rng) {}

    fn forward(
        &self,
        _params: &[f32],
        input: &Tensor,
        _slot: &mut Slot,
        ws: &mut Workspace,
        _train: bool,
    ) -> Tensor {
        let mut out = ws.take_tensor(input.shape().clone());
        out.copy_from(input);
        out
    }

    fn backward(
        &self,
        _params: &[f32],
        _grad_params: &mut [f32],
        grad_output: &Tensor,
        _slot: &Slot,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut out = ws.take_tensor(grad_output.shape().clone());
        out.copy_from(grad_output);
        out
    }

    fn flops_per_sample(&self, _input: &Shape) -> u64 {
        0
    }

    fn op_count(&self) -> usize {
        0 // pure view change, no device kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck::check_layer;

    #[test]
    fn forward_matches_hand_example() {
        let layer = Dense::new(2, 2);
        // W = [[1, 2], [3, 4]] (out x in), b = [10, 20]
        let params = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0];
        let x = Tensor::from_vec([1, 2], vec![5.0, 6.0]);
        let mut slot = Slot::default();
        let mut ws = Workspace::new();
        let y = layer.forward(&params, &x, &mut slot, &mut ws, false);
        // y = [5*1+6*2+10, 5*3+6*4+20] = [27, 59]
        assert_eq!(y.data(), &[27.0, 59.0]);
    }

    #[test]
    fn gradcheck_small() {
        check_layer(&Dense::new(4, 3), &[4], 5, 21);
    }

    #[test]
    fn gradcheck_xavier() {
        check_layer(&Dense::new(6, 2).with_xavier(), &[6], 2, 22);
    }

    #[test]
    fn accepts_multidim_input_of_matching_len() {
        let layer = Dense::new(12, 5);
        assert_eq!(
            layer.output_shape(&Shape::new(&[3, 2, 2])),
            Shape::vector(5)
        );
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn rejects_wrong_input_len() {
        let layer = Dense::new(4, 2);
        let _ = layer.output_shape(&Shape::vector(5));
    }

    #[test]
    fn param_layout_is_weights_then_bias() {
        let layer = Dense::new(3, 2);
        assert_eq!(layer.param_len(), 8);
        let mut rng = Rng::new(1);
        let mut params = vec![9.0; 8];
        layer.init(&mut params, &mut rng);
        assert!(params[..6].iter().any(|&w| w != 0.0), "weights initialised");
        assert_eq!(&params[6..], &[0.0, 0.0], "biases zeroed");
    }

    #[test]
    fn flatten_passes_through() {
        let mut slot = Slot::default();
        let mut ws = Workspace::new();
        let x = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = Flatten.forward(&[], &x, &mut slot, &mut ws, true);
        assert_eq!(y.data(), x.data());
        let g = Flatten.backward(&[], &mut [], &y, &slot, &mut ws);
        assert_eq!(g.data(), x.data());
        assert_eq!(Flatten.output_shape(&Shape::new(&[2, 3])), Shape::vector(6));
    }
}

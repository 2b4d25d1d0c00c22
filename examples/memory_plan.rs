//! Memory planning (paper §4.5): offline buffer reuse within a learning
//! task, online pool sharing across learners on one GPU — and the
//! *executable* plan that sizes each learner's arena and drives a real
//! training step with zero steady-state allocations.
//!
//! ```sh
//! cargo run --release -p crossbow --example memory_plan
//! ```

use crossbow::benchmark::Benchmark;
use crossbow::memory::{offline_plan, shared_plan};
use crossbow::nn::graph::OpGraph;
use crossbow_tensor::Rng;

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

fn main() {
    println!("Offline plan: reference-counted output-buffer reuse");
    println!();
    for benchmark in Benchmark::all() {
        let net = benchmark.network();
        let batch = benchmark.stat_batch;
        let graph = OpGraph::from_network(&net, batch);
        let plan = offline_plan(&graph);
        println!(
            "{:>10} (b = {batch:>3}): {:>7.2} MB without reuse -> {:>7.2} MB planned ({:.0}% saved), peak {:.2} MB",
            benchmark.name,
            mb(plan.bytes_without_reuse),
            mb(plan.bytes_allocated),
            plan.savings() * 100.0,
            mb(plan.peak_bytes),
        );
    }

    println!();
    println!("Online plan: m learners sharing one pool (ResNet-32 family)");
    println!();
    let bench = Benchmark::resnet32();
    let net = bench.network();
    let graph = OpGraph::from_network(&net, 16);
    let single = offline_plan(&graph);
    for m in [1usize, 2, 4] {
        // The task scheduler staggers learners; half a task apart is
        // typical steady state.
        let stagger = graph.ops.len() / 2;
        let shared = shared_plan(&graph, m, stagger);
        let private = m * single.peak_bytes;
        println!(
            "m = {m}: shared peak {:>7.2} MB vs {:>7.2} MB with private pools ({:.0}% saved)",
            mb(shared.peak_bytes),
            mb(private),
            (1.0 - shared.peak_bytes as f64 / private as f64) * 100.0,
        );
    }

    // The executable plan: size one arena per learner up front, then run
    // real training steps out of it. After the first (warm-up) step the
    // arena satisfies every checkout from its free lists — the allocation
    // counter stays flat, which is the property ci.sh asserts via
    // `membench --smoke`.
    println!();
    println!("Executable plan: 2 learners, real train steps from planned arenas");
    println!();
    let learners = 2usize;
    let batch = 16usize;
    let plan = net.plan(batch);
    println!(
        "planned arena: {:.2} MB per learner ({learners} learners)",
        mb(plan.arena_bytes()),
    );
    let mut scratches: Vec<_> = (0..learners)
        .map(|_| net.scratch_with_plan(&plan))
        .collect();
    let mut rng = Rng::new(42);
    let params = net.init_params(&mut rng);
    let mut grad = vec![0.0f32; net.param_len()];
    let (train, _) = bench.dataset(7);
    for step in 0..3 {
        for (l, scratch) in scratches.iter_mut().enumerate() {
            let base = (step * learners + l) * batch;
            let indices: Vec<usize> = (base..base + batch).map(|i| i % train.len()).collect();
            let (images, labels) = train.gather(&indices).expect("indices in range");
            let (loss, _) = net.loss_and_grad(&params, &images, &labels, &mut grad, scratch);
            let stats = scratch.workspace_stats();
            println!(
                "step {step} learner {l}: loss {loss:.4}, arena {:>5.2} MB high water, \
                 {} fresh allocs, {} reuse hits",
                mb(stats.high_water),
                stats.fresh_allocs,
                stats.reuse_hits,
            );
        }
    }
    println!();
    println!("fresh allocs stop growing after the warm-up step: the hot path");
    println!("runs entirely out of the planned arenas.");
}

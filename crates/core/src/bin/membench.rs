//! Micro-benchmarks for the §4.5 executable memory plans.
//!
//! Measures the packed GEMM against the naive kernel (serial and
//! multi-threaded) and the end-to-end CPU train-step throughput of the
//! product trainer (`sync::trainer`) on the ResNet-style zoo model, and
//! writes the results as JSON:
//!
//! * `BENCH_gemm.json` — ns/iter and GFLOP/s per kernel and size,
//!   including one row per SIMD micro-kernel tier (scalar/avx2/avx512)
//!   with a bits-match-scalar verdict, for square sizes and for the
//!   three GEMMs of each Dense layer of the benchmark's MLPs at batch
//!   sizes 1–16;
//! * `BENCH_infer.json` — quantized inference: eval samples/s, snapshot
//!   bytes and accuracy delta vs f32 for each serving precision, plus a
//!   scalar-fallback bit-identity verdict;
//! * `BENCH_train_step.json` — samples/s and ns per global step (median
//!   and interquartile range over five runs) and the arena counters,
//!   including an allocation-flatness verdict;
//! * `BENCH_data.json` — shard-pack MB/s, mmap vs in-memory batch-gather
//!   samples/s, and the prefetch io-wait overlap, including a
//!   bit-identity verdict for disk vs RAM gathers;
//! * `BENCH_serve.json` — fleet serving under mixed-priority load:
//!   per-SLO-class goodput for a 1-model vs a 3-model fleet with the
//!   autoscaler off and on, including an every-admitted-request-answered
//!   verdict.
//!
//! ```text
//! membench [--smoke] [--only gemm,infer,train,data,serve] [--out-dir DIR]
//! ```
//!
//! `--smoke` shrinks sizes and epochs so the run finishes in seconds; the
//! process exits non-zero if the arena allocation counter is not flat
//! across iterations, making the binary usable as a CI assertion
//! (`ci.sh` runs `membench --smoke`).

use crossbow::benchmark::Benchmark;
use crossbow::fleet::BatchConfig;
use crossbow::fleet::{
    run_fleet_load, Arrival, AutoscalerConfig, Fleet, FleetConfig, SloClass, StreamSpec,
};
use crossbow::nn::zoo::mlp;
use crossbow::sync::{train_with_source, LocalGradients, Sma, SmaConfig, TrainerConfig};
use crossbow_telemetry::Telemetry;
use crossbow_tensor::gemm::{
    gemm_at_ws, gemm_bt_ws, gemm_naive, gemm_parallel, gemm_ws, with_kernel,
};
use crossbow_tensor::{GemmKernel, Rng, Workspace};
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;

struct Measurement {
    ns_per_iter: f64,
    gflops: f64,
}

/// Times `f` adaptively: repeats until ~200 ms (or 25 ms in smoke mode)
/// of total work, then reports the mean per-iteration time.
fn time_it(smoke: bool, flops: f64, mut f: impl FnMut()) -> Measurement {
    // Warm-up.
    f();
    let budget_ns = if smoke { 25_000_000.0 } else { 200_000_000.0 };
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        if elapsed >= budget_ns || iters >= 1 << 20 {
            let ns = elapsed / iters as f64;
            return Measurement {
                ns_per_iter: ns,
                gflops: flops / ns,
            };
        }
        iters = iters.saturating_mul(2);
    }
}

/// Benchmarks the packed GEMM per micro-kernel tier and checks that
/// every supported SIMD tier is bit-identical to the scalar fallback.
/// Returns whether the tiers agreed — the divergence gate ci.sh asserts.
fn bench_gemm(smoke: bool, out_dir: &str) -> std::io::Result<bool> {
    let sizes: &[usize] = if smoke { &[48, 96] } else { &[64, 128, 256] };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let detected = GemmKernel::detected();
    let mut rows = Vec::new();
    let mut ws = Workspace::new();
    let mut tiers_identical = true;
    for &n in sizes {
        let mut rng = Rng::new(7);
        let a: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.0f32; n * n];
        let flops = 2.0 * (n as f64).powi(3);
        let naive = time_it(smoke, flops, || {
            gemm_naive(n, n, n, 1.0, &a, &b, 0.0, &mut c);
            std::hint::black_box(&c);
        });
        let packed = time_it(smoke, flops, || {
            gemm_ws(n, n, n, 1.0, &a, &b, 0.0, &mut c, &mut ws);
            std::hint::black_box(&c);
        });
        let parallel = time_it(smoke, flops, || {
            gemm_parallel(n, n, n, 1.0, &a, &b, 0.0, &mut c, threads, &mut ws);
            std::hint::black_box(&c);
        });

        // Per-tier packed GEMM: time each supported micro-kernel and
        // compare its output bits against the scalar fallback's.
        let tiers = per_tier(smoke, flops, &c, |c| {
            gemm_ws(n, n, n, 1.0, &a, &b, 0.0, c, &mut ws)
        });
        tiers_identical &= tiers.iter().all(|&(_, _, same)| same);
        let scalar_gflops = tiers[0].1.gflops;
        let best_simd_gflops = tiers[1..].iter().map(|t| t.1.gflops).fold(0.0, f64::max);
        let simd_speedup = if best_simd_gflops > 0.0 {
            best_simd_gflops / scalar_gflops
        } else {
            1.0 // scalar-only machine: no SIMD tier to compare
        };
        println!(
            "gemm {n}x{n}x{n}: naive {:.0} ns, packed {:.0} ns ({:.2}x), parallel({threads}) {:.0} ns ({:.2}x), \
             simd {simd_speedup:.2}x over scalar ({}identical)",
            naive.ns_per_iter,
            packed.ns_per_iter,
            naive.ns_per_iter / packed.ns_per_iter,
            parallel.ns_per_iter,
            naive.ns_per_iter / parallel.ns_per_iter,
            if tiers_identical { "" } else { "NOT " },
        );
        rows.push(format!(
            concat!(
                "    {{\"m\": {n}, \"k\": {n}, \"n\": {n},\n",
                "     \"naive\": {{\"ns_per_iter\": {:.1}, \"gflops\": {:.3}}},\n",
                "     \"packed\": {{\"ns_per_iter\": {:.1}, \"gflops\": {:.3}}},\n",
                "     \"parallel\": {{\"threads\": {threads}, \"ns_per_iter\": {:.1}, \"gflops\": {:.3}}},\n",
                "     \"kernels\": {{{kernels}}},\n",
                "     \"packed_vs_naive_speedup\": {:.3},\n",
                "     \"simd_vs_scalar_speedup\": {simd_speedup:.3}}}"
            ),
            naive.ns_per_iter,
            naive.gflops,
            packed.ns_per_iter,
            packed.gflops,
            parallel.ns_per_iter,
            parallel.gflops,
            naive.ns_per_iter / packed.ns_per_iter,
            n = n,
            threads = threads,
            kernels = kernels_json(&tiers),
            simd_speedup = simd_speedup,
        ));
    }
    let (dense_rows, dense_identical) = bench_dense_gemms(smoke, &mut ws);
    tiers_identical &= dense_identical;
    let stats = ws.stats();
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"gemm\",\n  \"smoke\": {},\n",
            "  \"kernel_detected\": \"{}\",\n",
            "  \"kernel_bit_identical\": {},\n",
            "  \"sizes\": [\n{}\n  ],\n",
            "  \"dense\": [\n{}\n  ],\n",
            "  \"arena\": {{\"fresh_allocs\": {}, \"reuse_hits\": {}, \"high_water_bytes\": {}}}\n}}\n"
        ),
        smoke,
        detected.name(),
        tiers_identical,
        rows.join(",\n"),
        dense_rows.join(",\n"),
        stats.fresh_allocs,
        stats.reuse_hits,
        stats.high_water,
    );
    let path = format!("{out_dir}/BENCH_gemm.json");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(tiers_identical)
}

/// Times `gemm` (which writes into the buffer it is given) on every
/// supported tier, scalar first, and compares each tier's output from
/// `c0` with the scalar tier's bits.
fn per_tier(
    smoke: bool,
    flops: f64,
    c0: &[f32],
    mut gemm: impl FnMut(&mut [f32]),
) -> Vec<(GemmKernel, Measurement, bool)> {
    let mut run = |kernel: GemmKernel, c: &mut [f32]| with_kernel(kernel, || gemm(c));
    let mut scalar = c0.to_vec();
    run(GemmKernel::Scalar, &mut scalar);
    let mut tiers = Vec::new();
    for kernel in GemmKernel::all().into_iter().filter(|k| k.supported()) {
        let mut c = c0.to_vec();
        run(kernel, &mut c);
        let same = c
            .iter()
            .zip(&scalar)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        let m = time_it(smoke, flops, || {
            run(kernel, &mut c);
            std::hint::black_box(&c);
        });
        tiers.push((kernel, m, same));
    }
    tiers
}

/// The members of a `"kernels"` JSON object: one per tier of `per_tier`.
fn kernels_json(tiers: &[(GemmKernel, Measurement, bool)]) -> String {
    tiers
        .iter()
        .map(|(kernel, m, same)| {
            format!(
                "\"{}\": {{\"ns_per_iter\": {:.1}, \"gflops\": {:.3}, \"bits_match_scalar\": {same}}}",
                kernel.name(),
                m.ns_per_iter,
                m.gflops,
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The Dense layers of the benchmark's models as `(model, in, out)`: the
/// `train-smallbatch` MLP (32→64→8) and the fleet's 64→256→256→10.
const DENSE_LAYERS: [(&str, usize, usize); 5] = [
    ("smallbatch-mlp", 32, 64),
    ("smallbatch-mlp", 64, 8),
    ("fleet-mlp", 64, 256),
    ("fleet-mlp", 256, 256),
    ("fleet-mlp", 256, 10),
];

/// The three GEMMs of a Dense layer at batch `b`, named by pass, with the
/// entry point each uses and its `(m, k, n)`.
fn dense_passes(b: usize, inp: usize, out: usize) -> [(&'static str, &'static str, [usize; 3]); 3] {
    [
        ("forward", "gemm_bt", [b, inp, out]),
        ("grad_weight", "gemm_at", [out, b, inp]),
        ("grad_input", "gemm", [b, out, inp]),
    ]
}

/// Runs one Dense-layer GEMM the way `Dense` does: `y = x W^T`,
/// `dW += dY^T x` and `dX = dY W`, with `x: b x in`, `w: out x in` and
/// `dy: b x out`.
#[allow(clippy::too_many_arguments)]
fn dense_gemm(
    pass: &str,
    [m, k, n]: [usize; 3],
    x: &[f32],
    w: &[f32],
    dy: &[f32],
    c: &mut [f32],
    ws: &mut Workspace,
) {
    match pass {
        "forward" => gemm_bt_ws(m, k, n, 1.0, x, w, 0.0, c, ws),
        "grad_weight" => gemm_at_ws(m, k, n, 1.0, dy, x, 1.0, c, ws),
        _ => gemm_ws(m, k, n, 1.0, dy, w, 0.0, c, ws),
    }
}

/// Times the Dense-layer GEMMs of [`DENSE_LAYERS`] at small batch sizes
/// on every supported tier, checking each tier's bits against the scalar
/// tier's. Returns the JSON rows and whether every tier agreed.
fn bench_dense_gemms(smoke: bool, ws: &mut Workspace) -> (Vec<String>, bool) {
    let batches: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 16] };
    let mut rows = Vec::new();
    let mut identical = true;
    for &b in batches {
        for (model, inp, out) in DENSE_LAYERS {
            let mut rng = Rng::new(11);
            let x: Vec<f32> = (0..b * inp).map(|_| rng.normal()).collect();
            let w: Vec<f32> = (0..out * inp).map(|_| rng.normal()).collect();
            let dy: Vec<f32> = (0..b * out).map(|_| rng.normal()).collect();
            for (pass, entry, mkn) in dense_passes(b, inp, out) {
                let c0: Vec<f32> = (0..mkn[0] * mkn[2]).map(|_| rng.normal()).collect();
                let flops = 2.0 * (b * inp * out) as f64;
                let tiers = per_tier(smoke, flops, &c0, |c| {
                    dense_gemm(pass, mkn, &x, &w, &dy, c, ws)
                });
                identical &= tiers.iter().all(|&(_, _, same)| same);
                println!(
                    "dense {model} b={b} {inp}->{out} {pass} ({entry}): {}",
                    tiers
                        .iter()
                        .map(|(k, m, same)| format!(
                            "{k} {:.2} us{}",
                            m.ns_per_iter / 1e3,
                            if *same { "" } else { " (bits DIFFER)" }
                        ))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                rows.push(format!(
                    "    {{\"model\": \"{model}\", \"batch\": {b}, \"in\": {inp}, \"out\": {out}, \
                     \"pass\": \"{pass}\", \"gemm\": \"{entry}\", \"m\": {}, \"k\": {}, \"n\": {},\n     \
                     \"kernels\": {{{}}}}}",
                    mkn[0],
                    mkn[1],
                    mkn[2],
                    kernels_json(&tiers),
                ));
            }
        }
    }
    (rows, identical)
}

/// Benchmarks the quantized inference path: trains a small classifier,
/// then for each precision (f32/bf16/int8) measures eval throughput,
/// quantized-snapshot bytes on disk, and the accuracy delta vs f32.
/// Also forces the scalar GEMM fallback and checks that f32 logits are
/// bit-identical to the SIMD tier's. Returns that bit-identity verdict.
fn bench_infer(smoke: bool, out_dir: &str) -> std::io::Result<bool> {
    use crossbow::data::synth::gaussian_mixture;
    use crossbow::nn::accuracy_delta;
    use crossbow::serve::{export_quant_snapshot, ModelSpec, SnapshotRegistry};
    use crossbow::sync::sma::{Sma, SmaConfig};
    use crossbow::sync::{train, TrainerConfig};
    use crossbow_tensor::{Precision, Shape, Tensor};

    let (hidden, samples, epochs): (&[usize], usize, usize) = if smoke {
        (&[32], 768, 2)
    } else {
        (&[128, 64], 4096, 4)
    };
    // Two eval batch sizes: the fleet's default max_batch (16), the
    // regime the quantized path is for — the f32 GEMM re-packs weights
    // every call while the int8 operator is pre-packed at quantize time
    // — and a large batch (64) where the packed f32 GEMM amortises.
    let (classes, dim, batch, big_batch) = (8usize, 32usize, 16usize, 64usize);
    let net = mlp(dim, hidden, classes);
    let (train_set, test_set) = gaussian_mixture(classes, dim, samples, 2.5, 29)
        .split_at(samples * 3 / 4)
        .expect("split in range");
    let mut rng = Rng::new(29);
    let mut algo = Sma::new(net.init_params(&mut rng), 4, SmaConfig::default());
    let cfg = TrainerConfig::new(16, epochs).with_seed(29);
    let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
    let params = algo.center_mut().to_vec();

    // One eval batch per size, reused by every precision's loop.
    let images = test_set.images_tensor();
    let sample_len = test_set.sample_len();
    let head = Tensor::from_vec(
        Shape::new(&[batch, dim]),
        images.data()[..batch * sample_len].to_vec(),
    );
    let big_head = Tensor::from_vec(
        Shape::new(&[big_batch, dim]),
        images.data()[..big_batch * sample_len].to_vec(),
    );
    let mut scratch = net.scratch();

    // Scalar-fallback bit-identity on the served logits: the dispatch
    // tier must never change what a model answers.
    let simd_logits = net.forward_eval(&params, &head, &mut scratch);
    let scalar_logits = with_kernel(GemmKernel::Scalar, || {
        net.forward_eval(&params, &head, &mut scratch)
    });
    let fallback_identical = simd_logits
        .data()
        .iter()
        .zip(scalar_logits.data())
        .all(|(x, y)| x.to_bits() == y.to_bits());

    let dir = std::env::temp_dir().join(format!("crossbow-membench-infer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let flops = 0.0; // throughput reported as samples/s, not GFLOP/s
    let mut rows = Vec::new();
    let mut int8_smaller_and_faster = true;
    let mut f32_bytes = 0u64;
    let mut f32_sps = 0.0f64;
    for precision in Precision::all() {
        let registry = SnapshotRegistry::new(ModelSpec::of(&net));
        let (delta, m, m_big) = match precision {
            Precision::F32 => {
                registry.publish(params.clone(), 1).expect("fresh registry");
                let m = time_it(smoke, flops, || {
                    let out = net.forward_eval(&params, &head, &mut scratch);
                    std::hint::black_box(&out);
                });
                let m_big = time_it(smoke, flops, || {
                    let out = net.forward_eval(&params, &big_head, &mut scratch);
                    std::hint::black_box(&out);
                });
                (0.0f32, m, m_big)
            }
            _ => {
                let model = Arc::new(net.quantize(&params, precision));
                let delta =
                    accuracy_delta(&net, &params, &model, &images, test_set.labels(), batch);
                registry
                    .publish_quantized(Arc::clone(&model), 1, Some(delta))
                    .expect("fresh registry");
                let m = time_it(smoke, flops, || {
                    let out = net.forward_eval_quant(&model, &head, &mut scratch);
                    std::hint::black_box(&out);
                });
                let m_big = time_it(smoke, flops, || {
                    let out = net.forward_eval_quant(&model, &big_head, &mut scratch);
                    std::hint::black_box(&out);
                });
                (delta, m, m_big)
            }
        };
        let snapshot = registry.current().expect("just published");
        let bytes = export_quant_snapshot(&dir.join(precision.name()), &net, &snapshot)
            .map_err(std::io::Error::other)?;
        let sps = batch as f64 * 1e9 / m.ns_per_iter;
        let sps_big = big_batch as f64 * 1e9 / m_big.ns_per_iter;
        match precision {
            Precision::F32 => {
                f32_bytes = bytes;
                f32_sps = sps;
            }
            Precision::Int8 => {
                int8_smaller_and_faster = bytes < f32_bytes && sps > f32_sps;
            }
            Precision::Bf16 => {}
        }
        println!(
            "infer {precision}: b{batch} {sps:.0} samples/s, b{big_batch} {sps_big:.0} samples/s, \
             snapshot {bytes} bytes, accuracy delta vs f32 {delta:+.4}",
        );
        rows.push(format!(
            concat!(
                "    {{\"precision\": \"{precision}\", ",
                "\"eval_samples_per_s\": {{\"batch{batch}\": {sps:.0}, ",
                "\"batch{big_batch}\": {sps_big:.0}}}, ",
                "\"snapshot_bytes\": {bytes}, ",
                "\"accuracy_delta_vs_f32\": {delta:.6}}}"
            ),
            precision = precision,
            batch = batch,
            big_batch = big_batch,
            sps = sps,
            sps_big = sps_big,
            bytes = bytes,
            delta = delta,
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "infer fallback: scalar logits {}bit-identical to {} \
         (int8 smaller & faster than f32: {int8_smaller_and_faster})",
        if fallback_identical { "" } else { "NOT " },
        GemmKernel::detected().name(),
    );
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"infer\",\n  \"smoke\": {smoke},\n",
            "  \"model\": {{\"dim\": {dim}, \"hidden\": {hidden:?}, \"classes\": {classes}, ",
            "\"params\": {plen}, \"trained_accuracy\": {acc:.4}}},\n",
            "  \"eval_batches\": [{batch}, {big_batch}],\n",
            "  \"kernel_detected\": \"{kernel}\",\n",
            "  \"scalar_fallback_bit_identical\": {fallback},\n",
            "  \"int8_smaller_and_faster_than_f32\": {smaller},\n",
            "  \"precisions\": [\n{rows}\n  ]\n}}\n"
        ),
        smoke = smoke,
        dim = dim,
        hidden = hidden,
        classes = classes,
        plen = net.param_len(),
        acc = curve.final_accuracy,
        batch = batch,
        big_batch = big_batch,
        kernel = GemmKernel::detected().name(),
        fallback = fallback_identical,
        smaller = int8_smaller_and_faster,
        rows = rows.join(",\n"),
    );
    let path = format!("{out_dir}/BENCH_infer.json");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(fallback_identical)
}

/// Trains the ResNet-32 zoo model with SMA through the product trainer
/// (`train_with_source` over `LocalGradients`, as `crossbow train` runs
/// it) and returns `(samples/s, ns per global step, arena allocation
/// count, arena high-water bytes, arena reuse hits)`. Wall time covers
/// building the gradient source through the trainer's return.
fn train_step_run(epochs: usize, learners: usize, batch: usize) -> (f64, f64, u64, u64, u64) {
    let bench = Benchmark::resnet32();
    let net = bench.network();
    let (train_set, test_set) = bench.dataset(9);
    let seed = 42;
    let init = net.init_params(&mut Rng::new(seed ^ 0xC0FFEE));
    let mut algo = Sma::new(init, learners, SmaConfig::default());
    let cfg = TrainerConfig::new(batch, epochs)
        .with_schedule(bench.schedule())
        .with_seed(seed);
    let start = Instant::now();
    let mut source = LocalGradients::new(&net, learners, &cfg);
    let curve = train_with_source(&net, &train_set, &test_set, &mut algo, &cfg, &mut source);
    let elapsed = start.elapsed().as_nanos() as f64;
    let arena = source.workspace_stats();
    (
        curve.samples_processed as f64 / (elapsed / 1e9),
        elapsed / curve.iterations.max(1) as f64,
        arena.fresh_allocs,
        arena.high_water as u64,
        arena.reuse_hits,
    )
}

/// Runs per `BENCH_train_step.json` figure: the file reports each
/// figure's median and interquartile range over these runs.
const TRAIN_STEP_RUNS: usize = 5;

/// `(first quartile, median, third quartile)` of `values`, nearest rank.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1];
    (rank(0.25), rank(0.5), rank(0.75))
}

/// A figure's median and spread as a JSON object.
fn spread_json(values: &[f64]) -> String {
    let (q1, median, q3) = quartiles(values);
    format!(
        "{{\"median\": {median:.2}, \"q1\": {q1:.2}, \"q3\": {q3:.2}, \"iqr\": {:.2}}}",
        q3 - q1
    )
}

fn bench_train_step(smoke: bool, out_dir: &str) -> std::io::Result<bool> {
    let (epochs, learners, batch) = if smoke { (1, 2, 16) } else { (4, 2, 16) };
    let runs: Vec<_> = (0..TRAIN_STEP_RUNS)
        .map(|_| train_step_run(epochs, learners, batch))
        .collect();
    let throughputs: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let ns_per_steps: Vec<f64> = runs.iter().map(|r| r.1).collect();
    let (_, _, allocs, arena_bytes, reuse) = runs[0];
    // Flatness: doubling the epoch count must not change the allocation
    // counter (§4.5: all steady-state buffers come from the arena).
    let (_, _, allocs_double, _, _) = train_step_run(2 * epochs, learners, batch);
    let flat = allocs > 0 && allocs == allocs_double;
    let (q1, throughput, q3) = quartiles(&throughputs);
    println!(
        "train-step (resnet-32 zoo, k={learners}, b={batch}, {TRAIN_STEP_RUNS} runs): \
         median {throughput:.1} samples/s (IQR {q1:.1}–{q3:.1}), \
         arena allocs {allocs} ({}flat)",
        if flat { "" } else { "NOT " },
    );
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"train_step\",\n",
            "  \"model\": \"resnet-32 (reduced zoo)\",\n",
            "  \"runtime\": \"sync::train_with_source + LocalGradients, SMA\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"learners\": {learners},\n",
            "  \"batch_per_learner\": {batch},\n",
            "  \"epochs\": {epochs},\n",
            "  \"runs\": {runs},\n",
            "  \"throughput_samples_per_s\": {throughput},\n",
            "  \"ns_per_step\": {ns_per_step},\n",
            "  \"arena\": {{\"alloc_events\": {allocs}, \"high_water_bytes\": {arena_bytes}, ",
            "\"reuse_hits\": {reuse}}},\n",
            "  \"allocation_flat\": {flat}\n}}\n"
        ),
        smoke = smoke,
        learners = learners,
        batch = batch,
        epochs = epochs,
        runs = TRAIN_STEP_RUNS,
        throughput = spread_json(&throughputs),
        ns_per_step = spread_json(&ns_per_steps),
        allocs = allocs,
        arena_bytes = arena_bytes,
        reuse = reuse,
        flat = flat,
    );
    let path = format!("{out_dir}/BENCH_train_step.json");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(flat)
}

/// Batch-gather throughput (samples/s) over a strided index stream that
/// touches every record page of `src`.
fn gather_rate(smoke: bool, src: &dyn crossbow::data::SampleSource, batch: usize) -> f64 {
    let n = src.len();
    let mut cursor = 0usize;
    let m = time_it(smoke, 0.0, || {
        // Stride 7 is coprime with the page size, so successive batches
        // walk the whole shard set rather than one hot page.
        let indices: Vec<usize> = (0..batch).map(|k| (cursor + k * 7) % n).collect();
        cursor = (cursor + batch * 7) % n;
        let got = src.gather(&indices).expect("indices in range");
        std::hint::black_box(&got);
    });
    batch as f64 * 1e9 / m.ns_per_iter
}

/// Benchmarks the shard data plane: ingestion (pack MB/s), mmap-backed
/// vs in-memory batch gather, and the prefetcher's io-wait overlap when
/// feeding from disk. Returns whether a disk gather was bit-identical to
/// the same gather from RAM — the determinism invariant ci.sh asserts.
fn bench_data(smoke: bool, out_dir: &str) -> std::io::Result<bool> {
    use crossbow::data::prefetch::PrefetchConfig;
    use crossbow::data::synth::gaussian_mixture;
    use crossbow::data::{Prefetcher, SampleSource};
    use crossbow::shard::{pack_source, PackConfig, ShardedDataset};
    use std::sync::Arc;

    let (classes, dim, samples) = if smoke {
        (8, 64, 2_048)
    } else {
        (8, 256, 16_384)
    };
    let batch = 64usize;
    let train = gaussian_mixture(classes, dim, samples, 0.35, 11);

    let dir = std::env::temp_dir().join(format!("crossbow-membench-data-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // Ingestion: every sample streamed through the bounded channel into
    // rotating shards; the elapsed wall time covers producer + writer.
    let cfg = PackConfig {
        samples_per_shard: (samples / 8).max(1),
        ..PackConfig::default()
    };
    let start = Instant::now();
    let pack = pack_source(&dir, &train, cfg).map_err(std::io::Error::other)?;
    let pack_mb_per_s = pack.bytes as f64 / 1e6 / start.elapsed().as_secs_f64();

    let disk = ShardedDataset::open(&dir).map_err(std::io::Error::other)?;
    let mmap = disk.fully_mmapped();

    // Determinism spot check: the same indices must gather bit-identical
    // images and labels from disk and from RAM.
    let probe: Vec<usize> = (0..256).map(|i| (i * 37) % samples).collect();
    let (mem_img, mem_lab) = train.gather(&probe).expect("probe in range");
    let (dsk_img, dsk_lab) = disk.gather(&probe).expect("probe in range");
    let identical = mem_lab == dsk_lab
        && mem_img
            .data()
            .iter()
            .zip(dsk_img.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());

    let mem_sps = gather_rate(smoke, &train, batch);
    let dsk_sps = gather_rate(smoke, &disk, batch);

    // Prefetch overlap: feed a consumer from disk through the double
    // buffer and measure how much of its wall time blocks on `next()`.
    let telemetry = Telemetry::disabled();
    let feeder = ShardedDataset::open(&dir).map_err(std::io::Error::other)?;
    let p = Prefetcher::spawn_with_metrics(
        Arc::new(feeder),
        PrefetchConfig::for_learners(batch, 2),
        23,
        &telemetry.metrics,
    );
    let rounds = if smoke { 64usize } else { 512 };
    let mut wait_ns = 0u128;
    let mut sink = 0.0f32;
    let consume = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        let b = p.next();
        wait_ns += t.elapsed().as_nanos();
        // Stand-in compute: a couple of passes over the batch, so the
        // pre-processor threads have something to overlap with.
        for _ in 0..2 {
            for v in b.images.data() {
                sink += *v * 0.5;
            }
        }
    }
    let consume_ns = consume.elapsed().as_nanos().max(1);
    std::hint::black_box(sink);
    let io_wait = wait_ns as f64 / consume_ns as f64;
    let wait_us = telemetry.metrics.histogram("prefetch.wait_us").snapshot();
    let wait_summary = wait_us.summary();
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "data pack ({samples}x{dim}): {} shards, {} bytes, {pack_mb_per_s:.1} MB/s",
        pack.shards, pack.bytes,
    );
    println!(
        "data gather (b={batch}): memory {mem_sps:.0} samples/s, mmap {dsk_sps:.0} samples/s \
         (mmap={mmap}, {}bit-identical)",
        if identical { "" } else { "NOT " },
    );
    println!(
        "data prefetch ({rounds} batches from disk): io-wait {:.1}% of consumer time, \
         wait p50 {:?} p95 {:?}",
        io_wait * 100.0,
        wait_summary.p50,
        wait_summary.p95,
    );
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"data\",\n  \"smoke\": {smoke},\n",
            "  \"dataset\": {{\"samples\": {samples}, \"dim\": {dim}, \"classes\": {classes}}},\n",
            "  \"pack\": {{\"shards\": {shards}, \"bytes\": {bytes}, ",
            "\"mb_per_s\": {pack_mb_per_s:.2}}},\n",
            "  \"gather\": {{\"batch\": {batch}, \"memory_samples_per_s\": {mem_sps:.0}, ",
            "\"mmap_samples_per_s\": {dsk_sps:.0}, \"mmap\": {mmap}, ",
            "\"bit_identical\": {identical}}},\n",
            "  \"prefetch\": {{\"batches\": {rounds}, \"io_wait_fraction\": {io_wait:.4}, ",
            "\"overlap_fraction\": {overlap:.4}, ",
            "\"wait_us_p50\": {p50}, \"wait_us_p95\": {p95}}}\n}}\n"
        ),
        smoke = smoke,
        samples = samples,
        dim = dim,
        classes = classes,
        shards = pack.shards,
        bytes = pack.bytes,
        pack_mb_per_s = pack_mb_per_s,
        batch = batch,
        mem_sps = mem_sps,
        dsk_sps = dsk_sps,
        mmap = mmap,
        identical = identical,
        rounds = rounds,
        io_wait = io_wait,
        overlap = 1.0 - io_wait,
        p50 = wait_summary.p50.as_micros(),
        p95 = wait_summary.p95.as_micros(),
    );
    let path = format!("{out_dir}/BENCH_data.json");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(identical)
}

/// What one fleet-serving run produced, per SLO class.
struct ClassStats {
    submitted: u64,
    ok: u64,
    goodput: u64,
    shed: u64,
    rejected: u64,
}

/// Drives one fleet (1 or 3 models, autoscaler off or on a 50 ms probe
/// interval) through the standard mixed-priority load: an open-loop
/// Batch flood past pool capacity plus closed Interactive/Standard
/// streams per model. Returns (per-class stats in [Interactive,
/// Standard, Batch] order, scale-ups, scale-downs, p99 µs, wall s,
/// every-admitted-request-answered).
fn fleet_serve_run(
    models: usize,
    autoscale: bool,
    smoke: bool,
) -> ([ClassStats; 3], u64, u64, u128, f64, bool) {
    let (requests, rps) = if smoke {
        (60usize, 900.0)
    } else {
        (150, 1200.0)
    };
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_depth: 32,
        },
        initial_workers: 1,
        work_stealing: true,
        // Fixed synthetic service time so the tiny model's pools can
        // actually saturate and the autoscaler has something to do.
        synthetic_delay: Some(Duration::from_millis(5)),
        autoscaler: autoscale.then(|| AutoscalerConfig {
            slo_p99: Duration::from_millis(25),
            queue_high_water: 8,
            shrink_margin: 0.5,
            min_workers: 1,
            max_workers: 4,
            cooldown_ticks: 1,
            interval: Some(Duration::from_millis(50)),
        }),
        telemetry: None,
    };
    let net = Arc::new(mlp(6, &[16], 4));
    let names: Vec<String> = (0..models).map(|i| format!("m{i}")).collect();
    let mut builder = Fleet::builder(config);
    for name in &names {
        builder = builder.model(name, Arc::clone(&net));
    }
    let fleet = builder.start();
    let mut rng = Rng::new(17);
    for name in &names {
        fleet
            .registry(name)
            .expect("registered")
            .publish(net.init_params(&mut rng), 1)
            .expect("fresh registry accepts v1");
    }
    let inputs: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..6).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect();
    let mut specs = Vec::new();
    for name in &names {
        specs.push(StreamSpec {
            model: name.clone(),
            class: SloClass::Batch,
            arrival: Arrival::Open { rps },
            requests,
            deadline: Duration::from_millis(50),
        });
        specs.push(StreamSpec {
            model: name.clone(),
            class: SloClass::Interactive,
            arrival: Arrival::Closed,
            requests: requests / 4,
            deadline: Duration::from_millis(100),
        });
        specs.push(StreamSpec {
            model: name.clone(),
            class: SloClass::Standard,
            arrival: Arrival::Closed,
            requests: requests / 4,
            deadline: Duration::from_millis(200),
        });
    }
    let load = run_fleet_load(&fleet.client(), &inputs, &specs, 17);
    let report = fleet.shutdown();
    let classes = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];
    let stats = classes.map(|class| {
        let streams = || load.streams.iter().filter(move |s| s.class == class);
        ClassStats {
            submitted: streams().map(|s| s.submitted).sum(),
            ok: streams().map(|s| s.ok).sum(),
            goodput: streams().map(|s| s.goodput).sum(),
            shed: streams().map(|s| s.shed).sum(),
            rejected: streams().map(|s| s.rejected).sum(),
        }
    });
    let up = report.decisions.iter().filter(|d| d.to > d.from).count() as u64;
    let down = report.decisions.iter().filter(|d| d.to < d.from).count() as u64;
    let p99 = report
        .models
        .iter()
        .map(|m| m.latency.p99.as_micros())
        .max()
        .unwrap_or(0);
    let answered = load
        .streams
        .iter()
        .all(|s| s.failed == 0 && s.ok + s.shed + s.rejected == s.submitted);
    (stats, up, down, p99, load.wall.as_secs_f64(), answered)
}

fn bench_serve(smoke: bool, out_dir: &str) -> std::io::Result<bool> {
    let mut rows = Vec::new();
    let mut all_answered = true;
    for (models, autoscale) in [(1usize, false), (1, true), (3, false), (3, true)] {
        let (stats, up, down, p99_us, wall_s, answered) = fleet_serve_run(models, autoscale, smoke);
        all_answered &= answered;
        let [i, s, b] = &stats;
        println!(
            "serve fleet (models={models}, autoscale={autoscale}): goodput \
             interactive {}/{}, standard {}/{}, batch {}/{} \
             (+{up}/-{down} scale, p99 {p99_us} us, {}answered)",
            i.goodput,
            i.submitted,
            s.goodput,
            s.submitted,
            b.goodput,
            b.submitted,
            if answered { "" } else { "NOT " },
        );
        let class_json = |c: &ClassStats| {
            format!(
                "{{\"submitted\": {}, \"ok\": {}, \"goodput\": {}, \
                 \"shed\": {}, \"rejected\": {}}}",
                c.submitted, c.ok, c.goodput, c.shed, c.rejected
            )
        };
        rows.push(format!(
            concat!(
                "    {{\"models\": {models}, \"autoscale\": {autoscale},\n",
                "     \"interactive\": {i},\n",
                "     \"standard\": {s},\n",
                "     \"batch\": {b},\n",
                "     \"scale_up\": {up}, \"scale_down\": {down}, ",
                "\"p99_us\": {p99}, \"wall_s\": {wall:.3}, \"all_answered\": {answered}}}"
            ),
            models = models,
            autoscale = autoscale,
            i = class_json(i),
            s = class_json(s),
            b = class_json(b),
            up = up,
            down = down,
            p99 = p99_us,
            wall = wall_s,
            answered = answered,
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"smoke\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        smoke,
        rows.join(",\n"),
    );
    let path = format!("{out_dir}/BENCH_serve.json");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(all_answered)
}

fn main() {
    let mut smoke = false;
    let mut out_dir = ".".to_string();
    let mut only: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out-dir" => {
                out_dir = args.next().unwrap_or_else(|| {
                    eprintln!("--out-dir needs a path");
                    std::process::exit(2);
                });
            }
            "--only" => {
                let list = args.next().unwrap_or_else(|| {
                    eprintln!("--only needs a comma-separated list");
                    std::process::exit(2);
                });
                only = Some(list.split(',').map(str::to_string).collect());
            }
            "--help" | "-h" => {
                println!("membench [--smoke] [--only gemm,infer,train,data,serve] [--out-dir DIR]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let runs = |name: &str| {
        only.as_ref()
            .is_none_or(|list| list.iter().any(|s| s == name))
    };
    let mut failed = false;
    if runs("gemm") && !bench_gemm(smoke, &out_dir).expect("write BENCH_gemm.json") {
        eprintln!("FAIL: a SIMD GEMM tier diverged from the scalar fallback");
        failed = true;
    }
    if runs("infer") && !bench_infer(smoke, &out_dir).expect("write BENCH_infer.json") {
        eprintln!("FAIL: forced-scalar inference diverged from the SIMD path");
        failed = true;
    }
    if runs("train") && !bench_train_step(smoke, &out_dir).expect("write BENCH_train_step.json") {
        eprintln!("FAIL: arena allocation counter grew with iteration count");
        failed = true;
    }
    if runs("data") && !bench_data(smoke, &out_dir).expect("write BENCH_data.json") {
        eprintln!("FAIL: mmap-shard gather differed from the in-memory gather");
        failed = true;
    }
    if runs("serve") && !bench_serve(smoke, &out_dir).expect("write BENCH_serve.json") {
        eprintln!("FAIL: a fleet run left an admitted request unanswered");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

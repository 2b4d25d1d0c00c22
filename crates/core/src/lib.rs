//! # CROSSBOW
//!
//! A reproduction of *“CROSSBOW: Scaling Deep Learning with Small Batch
//! Sizes on Multi-GPU Servers”* (VLDB 2019) as a Rust library.
//!
//! CROSSBOW trains a deep-learning model with the user's preferred batch
//! size — however small — while still scaling across the GPUs of a
//! server. It does so with three pieces, all implemented here:
//!
//! * **SMA** (synchronous model averaging): many independent *learners*
//!   each train a model replica; every iteration each replica is corrected
//!   toward a central average model, which advances with the corrections
//!   plus Polyak momentum ([`crossbow_sync::sma`], Algorithm 1).
//! * **Auto-tuned learners per GPU**: a small batch cannot saturate a GPU,
//!   so CROSSBOW trains several replicas per GPU, growing the count while
//!   throughput improves ([`autotuner`], Algorithm 2).
//! * **A concurrent task engine**: learning tasks and synchronisation
//!   tasks are issued to GPU streams with event dependencies so that
//!   global synchronisation overlaps the next iteration's learning
//!   ([`exec_sim`], Figure 8), with reference-counted buffer reuse
//!   ([`memory`], §4.5).
//!
//! ## How the reproduction is split
//!
//! No GPUs are available to this build, so the evaluation follows the
//! paper's own decomposition of time-to-accuracy (§2.1):
//!
//! * **statistical efficiency** (epochs to reach an accuracy) is measured
//!   by *really training* reduced models on synthetic datasets —
//!   [`benchmark`] wires the model zoo, datasets and algorithms together;
//! * **hardware efficiency** (time per epoch) is measured on a
//!   deterministic discrete-event GPU simulator driven by the real task
//!   engine — [`exec_sim`];
//! * [`engine`] combines both into `TTA(x)`, the paper's headline metric.
//!
//! ## Quickstart
//!
//! ```
//! use crossbow::engine::{Session, SessionConfig};
//!
//! let config = SessionConfig::lenet_quick() // a small, fast benchmark
//!     .with_gpus(2)
//!     .with_learners_per_gpu(2);
//! let report = Session::new(config).run().expect("no checkpointing configured");
//! assert!(report.curve.final_accuracy > 0.5);
//! println!("{}", report.summary());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autotuner;
pub mod benchmark;
pub mod engine;
pub mod exec_sim;
pub mod memory;

pub use autotuner::AutoTuner;
pub use benchmark::Benchmark;
pub use engine::{RobustnessConfig, Session, SessionConfig, TrainingReport};
pub use exec_sim::{
    simulate, simulate_robust, EngineKind, FaultCounters, RobustSimConfig, SimConfig, SimReport,
};
pub use memory::{offline_plan, shared_plan, MemoryPlan};

pub use crossbow_sync::CheckpointConfig;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use crossbow_checkpoint as checkpoint;
pub use crossbow_comms as comms;
pub use crossbow_data as data;
pub use crossbow_fleet as fleet;
pub use crossbow_gpu_sim as gpu_sim;
pub use crossbow_nn as nn;
pub use crossbow_serve as serve;
pub use crossbow_shard as shard;
pub use crossbow_sync as sync;
pub use crossbow_telemetry as telemetry;
pub use crossbow_tensor as tensor;

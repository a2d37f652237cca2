//! The six workloads, each a `setup` (timed as `setup_s`), a `measure`
//! phase bounded by a [`crate::run::Budget`], and the launch `shape` its
//! layer microbenches use.

pub mod block_churn;
pub mod graph_expand;
pub mod serve_replay;
pub mod slice_warm;

use crate::run::{Budget, Opts, Sample, Shape};

/// A workload as `main` runs it.
pub struct Workload<S> {
    /// Command-line name.
    pub name: &'static str,
    /// Whether its launches run under the deterministic coordinator.
    pub deterministic: bool,
    /// Build allocator and inputs, and warm up.
    pub setup: fn(&Opts) -> S,
    /// Run timed launches until the budget closes.
    pub measure: fn(&Opts, S, &Budget) -> Sample,
    /// Launch shape for the microbenches.
    pub shape: fn() -> Shape,
}

/// `slice-warm`.
pub const SLICE_WARM: Workload<slice_warm::State> = Workload {
    name: "slice-warm",
    deterministic: false,
    setup: slice_warm::setup,
    measure: slice_warm::measure,
    shape: slice_warm::shape,
};

/// `slice-cold`.
pub const SLICE_COLD: Workload<slice_warm::State> = Workload {
    name: "slice-cold",
    deterministic: false,
    setup: slice_warm::setup,
    measure: slice_warm::measure_cold,
    shape: slice_warm::shape,
};

/// `block-churn`.
pub const BLOCK_CHURN: Workload<block_churn::State> = Workload {
    name: "block-churn",
    deterministic: false,
    setup: block_churn::setup,
    measure: block_churn::measure,
    shape: block_churn::shape,
};

/// `graph-expand`.
pub const GRAPH_EXPAND: Workload<graph_expand::State> = Workload {
    name: "graph-expand",
    deterministic: false,
    setup: graph_expand::setup,
    measure: graph_expand::measure,
    shape: graph_expand::shape,
};

/// `graph-cold`.
pub const GRAPH_COLD: Workload<graph_expand::State> = Workload {
    name: "graph-cold",
    deterministic: false,
    setup: graph_expand::setup,
    measure: graph_expand::measure_cold,
    shape: graph_expand::shape,
};

/// `serve-replay`.
pub const SERVE_REPLAY: Workload<serve_replay::State> = Workload {
    name: "serve-replay",
    deterministic: true,
    setup: serve_replay::setup,
    measure: serve_replay::measure,
    shape: serve_replay::shape,
};

/// Every workload name. `BENCHMARK.json` lists the first two;
/// `workloads.json` says why it leaves out the others.
pub const NAMES: [&str; 6] =
    ["slice-cold", "graph-cold", "serve-replay", "slice-warm", "block-churn", "graph-expand"];

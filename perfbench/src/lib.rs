//! # perfbench: the free-running benchmark of the Gallatin stack
//!
//! One process runs one workload for a fixed time and prints its
//! end-to-end metrics (untraced) or its per-layer metrics (traced); see
//! `main.rs` for the command line and `workloads.json` for why each
//! workload exists and which layers it should and should not move.

pub mod guard;
pub mod heap;
pub mod micro;
pub mod report;
pub mod run;
pub mod timed;
pub mod trace;
pub mod workloads;

/// Tests that touch process-wide state (the span switch and store, the
/// panic hook's message list) hold this lock, since `cargo test` runs
/// tests on parallel threads.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// SplitMix64: the benchmark's own input generator, so a seed fixes every
/// generated request (graph batches come from `graph::gen`, seeded from
/// the same seed).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

//! The global allocator variant (paper Appendix A.2).
//!
//! For convenience, Gallatin ships a variant callable through static
//! device pointers: `init_global_allocator(num_bytes)` once on the host,
//! then `global_malloc` / `global_free` from any device function. This
//! module reproduces that interface over a process-wide instance — a
//! single [`Gallatin`] by default, or a sharded [`GallatinPool`] via
//! [`init_global_pool`].
//!
//! Initialization is once-only, as with the CUDA original where the
//! device pointer is set once: a second `init_*` call returns
//! [`AlreadyInitialized`] (carrying what the global already is) instead
//! of silently keeping the first instance.
//!
//! ```
//! use gallatin::global::{global_free, global_malloc, init_global_allocator};
//! use gpu_sim::{launch, DeviceConfig};
//!
//! init_global_allocator(64 << 20).expect("first init in this process");
//! launch(DeviceConfig::default(), 1024, |ctx| {
//!     let p = global_malloc(ctx, 64);
//!     assert!(!p.is_null());
//!     global_free(ctx, p);
//! });
//! ```

use crate::config::GallatinConfig;
use crate::device_pool::DevicePool;
use crate::gallatin::Gallatin;
use crate::pool::GallatinPool;
use gpu_sim::{DeviceAllocator, DevicePtr, LaneCtx};
use std::sync::OnceLock;

/// What the process-wide global allocator is backed by.
enum GlobalBackend {
    // All boxed: Gallatin inlines its per-class tree/buffer tables,
    // and the pools carry the shared table plus ownership/free-list
    // state inline.
    Single(Box<Gallatin>),
    Pool(Box<GallatinPool>),
    Device(Box<DevicePool>),
}

impl GlobalBackend {
    fn as_dyn(&self) -> &(dyn DeviceAllocator + Send + Sync) {
        match self {
            GlobalBackend::Single(g) => g.as_ref(),
            GlobalBackend::Pool(p) => p.as_ref(),
            GlobalBackend::Device(t) => t.as_ref(),
        }
    }
}

static GLOBAL: OnceLock<GlobalBackend> = OnceLock::new();

/// The global allocator was already initialized; the new configuration
/// was discarded. Carries a description of what the global already is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlreadyInitialized {
    /// `name()` of the backend that won the initialization race.
    pub existing: String,
}

impl std::fmt::Display for AlreadyInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global allocator already initialized (as {})", self.existing)
    }
}

impl std::error::Error for AlreadyInitialized {}

fn set_global(backend: GlobalBackend) -> Result<(), AlreadyInitialized> {
    GLOBAL
        .set(backend)
        .map_err(|_| AlreadyInitialized { existing: global_allocator().name().to_string() })
}

/// The default configuration for one of `instances` equal shares of
/// `num_bytes`, rounded down to whole default segments (16 MB) with a
/// one-segment floor.
fn share(num_bytes: u64, instances: u64) -> GallatinConfig {
    assert!(instances > 0, "a pool needs at least one instance");
    let heap_bytes = (num_bytes / instances / (16 << 20) * (16 << 20)).max(16 << 20);
    GallatinConfig { heap_bytes, ..GallatinConfig::default() }
}

/// Initialize the global allocator with `num_bytes` of device memory
/// (rounded down to whole segments, minimum one segment) and the default
/// configuration. Errors with [`AlreadyInitialized`] if the global was
/// already set, as the CUDA original's device pointer is set once.
pub fn init_global_allocator(num_bytes: u64) -> Result<(), AlreadyInitialized> {
    init_global_allocator_with(share(num_bytes, 1))
}

/// Initialize the global allocator with an explicit configuration.
pub fn init_global_allocator_with(cfg: GallatinConfig) -> Result<(), AlreadyInitialized> {
    set_global(GlobalBackend::Single(Box::new(Gallatin::new(cfg))))
}

/// Initialize the global allocator as a [`GallatinPool`] of `n`
/// instances sharing `num_bytes` in total: each instance gets
/// `num_bytes / n`, rounded down to whole default segments (minimum one
/// segment each). Placement, spilling, and free routing follow the pool
/// semantics (see [`GallatinPool`]).
pub fn init_global_pool(n: usize, num_bytes: u64) -> Result<(), AlreadyInitialized> {
    init_global_pool_with(n, share(num_bytes, n as u64))
}

/// Initialize the global allocator as a [`GallatinPool`] with an explicit
/// *per-instance* configuration.
pub fn init_global_pool_with(n: usize, cfg: GallatinConfig) -> Result<(), AlreadyInitialized> {
    set_global(GlobalBackend::Pool(Box::new(GallatinPool::new(n, cfg))))
}

/// Initialize the global allocator as a [`DevicePool`] spanning
/// `devices` devices of `width` instances each, sharing `num_bytes` in
/// total: each instance gets `num_bytes / (devices * width)`, rounded
/// down to whole default segments (minimum one segment each). Placement
/// is SM-affine to a device and an instance on it, frees route by
/// segment owner, and only a whole-device denial crosses the
/// interconnect (see [`DevicePool`]).
pub fn init_global_device_pool(
    devices: u32,
    width: usize,
    num_bytes: u64,
) -> Result<(), AlreadyInitialized> {
    init_global_device_pool_with(devices, width, share(num_bytes, devices as u64 * width as u64))
}

/// Initialize the global allocator as a [`DevicePool`] with an explicit
/// *per-instance* configuration.
pub fn init_global_device_pool_with(
    devices: u32,
    width: usize,
    cfg: GallatinConfig,
) -> Result<(), AlreadyInitialized> {
    set_global(GlobalBackend::Device(Box::new(DevicePool::new(devices, width, cfg))))
}

/// Whether any `init_global_*` call has succeeded.
pub fn global_allocator_initialized() -> bool {
    GLOBAL.get().is_some()
}

/// The global instance — a [`Gallatin`], a [`GallatinPool`], or a
/// [`DevicePool`], behind the common [`DeviceAllocator`] interface.
///
/// # Panics
/// Panics if the global allocator has not been initialized.
pub fn global_allocator() -> &'static (dyn DeviceAllocator + Send + Sync) {
    GLOBAL.get().expect("call init_global_allocator first").as_dyn()
}

/// The global pool, when [`init_global_pool`] initialized one — `None`
/// when the global is a single instance (or uninitialized). For
/// pool-specific introspection (per-instance metrics, spill counts).
pub fn global_pool() -> Option<&'static GallatinPool> {
    match GLOBAL.get() {
        Some(GlobalBackend::Pool(p)) => Some(p),
        _ => None,
    }
}

/// The global device pool, when [`init_global_device_pool`] initialized
/// one — `None` otherwise. For topology-specific introspection
/// (per-device pools, cross-device spill counts, local/peer traffic).
pub fn global_device_pool() -> Option<&'static DevicePool> {
    match GLOBAL.get() {
        Some(GlobalBackend::Device(t)) => Some(t),
        _ => None,
    }
}

/// Device-side `void* global_malloc(num_bytes)`.
pub fn global_malloc(ctx: &LaneCtx, num_bytes: u64) -> DevicePtr {
    global_allocator().malloc(ctx, num_bytes)
}

/// Device-side `void global_free(void* alloc)`.
pub fn global_free(ctx: &LaneCtx, alloc: DevicePtr) {
    global_allocator().free(ctx, alloc)
}

/// Run the invariant check on the global instance — the host-side
/// maintenance check, callable between launches the way
/// `cudaDeviceSynchronize` + a verifier kernel would be on the GPU. For
/// a pool this checks every instance plus the pool-wide ledger.
///
/// # Panics
/// Panics if the global allocator has not been initialized.
pub fn global_check_invariants() -> Result<(), String> {
    global_allocator().check_invariants()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Note: the global is process-wide, so all assertions live in one
    // test to avoid cross-test init races. (The pool-backed global is
    // exercised in the `pool_routing` integration test — its own
    // process.)
    #[test]
    fn global_variant_end_to_end() {
        assert!(!global_allocator_initialized());
        init_global_allocator(48 << 20).expect("first init succeeds");
        assert!(global_allocator_initialized());
        // Double init is an explicit error naming the existing backend,
        // and the first instance stays in place.
        let err = init_global_allocator(128 << 20).unwrap_err();
        assert_eq!(err.existing, "Gallatin");
        assert!(err.to_string().contains("already initialized"));
        let err = init_global_pool(2, 64 << 20).unwrap_err();
        assert_eq!(err.existing, "Gallatin");
        assert_eq!(global_allocator().heap_bytes(), 48 << 20);
        assert!(global_pool().is_none(), "the global is a single instance");

        let ok = AtomicU64::new(0);
        launch(DeviceConfig::default(), 10_000, |ctx| {
            let p = global_malloc(ctx, 32);
            assert!(!p.is_null());
            global_allocator().memory().write_stamp(p, ctx.global_tid());
            assert_eq!(global_allocator().memory().read_stamp(p), ctx.global_tid());
            global_free(ctx, p);
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 10_000);
        assert_eq!(global_allocator().stats().reserved_bytes, 0);
        global_check_invariants().expect("global heap consistent after the storm");
    }
}

//! In-memory spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own code: around each
//! warp of a benchmark kernel, around each graph update, around every
//! allocator call (through [`crate::timed::Timed`]) and around each
//! launch. Each thread keeps its spans in a local buffer together with a
//! stack of child time, so a span's *self* time (its duration minus the
//! time its child spans cover) is known when it closes. A thread's buffer
//! moves into one global store whenever its outermost span closes (the
//! end of a warp, of a launch, or of an allocator call made outside any
//! benchmark kernel), and the store is reduced into per-layer figures
//! when the run ends.
//!
//! With tracing off, [`span`] is one relaxed load and a branch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// The layer a span belongs to. Allocator spans carry the tier their
/// request size falls in (the tiers themselves are private modules of
/// the allocator, so they are named from the outside by size).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One kernel launch, measured on the launching thread (wall time).
    Launch,
    /// One warp of a benchmark kernel: payload stamps, checks, loops.
    Kernel,
    /// `DynamicGraph::insert_edge`.
    GraphInsert,
    /// `DynamicGraph::delete_edge`.
    GraphDelete,
    /// One `run_serve_engine` call.
    Serve,
    /// Allocator malloc in the slice tier (size ≤ `max_slice`).
    SliceMalloc,
    /// Allocator free of a slice-tier allocation.
    SliceFree,
    /// Allocator malloc in the block tier (size ≤ `segment_bytes`).
    BlockMalloc,
    /// Allocator free of a block-tier allocation.
    BlockFree,
    /// Allocator malloc in the segment tier (larger than a segment).
    SegmentMalloc,
    /// Allocator free of a segment-tier allocation.
    SegmentFree,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Launch,
        Layer::Kernel,
        Layer::GraphInsert,
        Layer::GraphDelete,
        Layer::Serve,
        Layer::SliceMalloc,
        Layer::SliceFree,
        Layer::BlockMalloc,
        Layer::BlockFree,
        Layer::SegmentMalloc,
        Layer::SegmentFree,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Launch => "gpu_sim.launch",
            Layer::Kernel => "kernel",
            Layer::GraphInsert => "graph.insert",
            Layer::GraphDelete => "graph.delete",
            Layer::Serve => "serve.engine",
            Layer::SliceMalloc => "core.slice.malloc",
            Layer::SliceFree => "core.slice.free",
            Layer::BlockMalloc => "core.block.malloc",
            Layer::BlockFree => "core.block.free",
            Layer::SegmentMalloc => "core.segment.malloc",
            Layer::SegmentFree => "core.segment.free",
        }
    }

    /// Whether this span times an allocator call.
    pub fn is_core(self) -> bool {
        self >= Layer::SliceMalloc
    }
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer of the call.
    pub layer: Layer,
    /// Operations the call performed (requesting lanes of a warp call).
    pub ops: u32,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off (between launches only).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span of `layer` covering `ops` operations.
#[inline]
pub fn span<R>(layer: Layer, ops: u32, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    LOCAL.with(|l| l.borrow_mut().open.push(0));
    let t0 = Instant::now();
    let r = f();
    close(layer, ops, t0.elapsed().as_nanos() as u64);
    r
}

/// Record a span measured by the caller (no children of its own).
pub fn record(layer: Layer, ops: u32, dur_ns: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().open.push(0));
        close(layer, ops, dur_ns);
    }
}

fn close(layer: Layer, ops: u32, dur_ns: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let child = l.open.pop().unwrap_or(0);
        if let Some(parent) = l.open.last_mut() {
            *parent += dur_ns;
        }
        l.spans.push(Span { layer, ops, dur_ns, self_ns: dur_ns.saturating_sub(child) });
        if l.open.is_empty() {
            // Outermost span closed: hand the buffer over, since launch
            // workers are short-lived threads whose locals die with them.
            let mut mine = std::mem::take(&mut l.spans);
            STORE.lock().expect("span store poisoned by a panicking flush").append(&mut mine);
        }
    });
}

/// Run one warp of a benchmark kernel in a [`Layer::Kernel`] span.
#[inline]
pub fn warp<R>(f: impl FnOnce() -> R) -> R {
    span(Layer::Kernel, 1, f)
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *STORE.lock().expect("span store poisoned by a panicking flush"))
}

/// Per-layer reduction of a span set.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Spans seen.
    pub calls: u64,
    /// Operations covered.
    pub ops: u64,
    /// Summed duration (thread time), ns.
    pub total_ns: u64,
    /// Summed self time (thread time), ns.
    pub self_ns: u64,
    /// Per-span duration divided by its operations, ns, sorted.
    pub per_op_ns: Vec<f64>,
}

/// Reduce spans to one [`LayerStats`] per layer, indexed like
/// [`Layer::ALL`].
pub fn reduce(spans: &[Span]) -> Vec<LayerStats> {
    let mut out = vec![LayerStats::default(); Layer::ALL.len()];
    for s in spans {
        let st = &mut out[s.layer as usize];
        st.calls += 1;
        st.ops += s.ops as u64;
        st.total_ns += s.dur_ns;
        st.self_ns += s.self_ns;
        st.per_op_ns.push(s.dur_ns as f64 / s.ops.max(1) as f64);
    }
    for st in &mut out {
        st.per_op_ns.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let _serial = crate::serial();
        std::thread::spawn(|| {
            set_enabled(true);
            span(Layer::GraphInsert, 1, || {
                span(Layer::SliceMalloc, 1, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        })
        .join()
        .expect("span thread");
        set_enabled(false);
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| matches!(s.layer, Layer::GraphInsert | Layer::SliceMalloc))
            .collect();
        assert_eq!(spans.len(), 2);
        let (child, parent) = (spans[0], spans[1]);
        assert_eq!(child.layer, Layer::SliceMalloc);
        assert_eq!(parent.self_ns, parent.dur_ns - child.dur_ns);
        assert!(child.self_ns >= 2_000_000);
    }
}

//! RAII span guards, the thread-local span stack, and cross-thread
//! collection.
//!
//! Each thread records into its own [`SpanTree`] behind a thread-owned
//! mutex that is shared with a process-wide registry. The mutex is
//! uncontended on the recording path (only its own thread locks it
//! until collection), and registration makes a thread's measurements
//! visible to [`collect`] the moment each span closes — deliberately
//! *not* relying on thread-local destructors, which `std::thread::scope`
//! does not guarantee to have run by the time the scope returns.
//! [`collect`] merges every registered tree; per the key-ordered merge
//! contract the result is independent of worker count and finish order.

use crate::alloc;
use crate::tree::{SpanSample, SpanTree};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Whether span recording is on. Off costs one relaxed load per
/// [`SpanGuard::enter`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Every thread's tree, registered on that thread's first span.
static REGISTRY: Mutex<Vec<Arc<Mutex<SpanTree>>>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned lock only means some thread panicked mid-record; the
    // trees are additive counters and stay usable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One live span on a thread's stack.
struct Frame {
    /// The span's node in this thread's tree.
    node: usize,
    start: Instant,
    /// Inclusive ns of direct children that have already closed.
    child_ns: u64,
    /// Allocation counters at entry, and the children's share so far.
    allocs_at: u64,
    bytes_at: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// Per-thread recording state.
struct Local {
    /// This thread's registered tree; created on the first span.
    tree: Option<Arc<Mutex<SpanTree>>>,
    stack: Vec<Frame>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { tree: None, stack: Vec::new() })
    };
}

/// Turns span recording on (allocation counting is a separate toggle —
/// see [`crate::set_alloc_counting`]).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off. Spans already on a stack still record when
/// they close, so enable/disable edges never unbalance the stack.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span recording is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discards everything recorded so far: every registered tree is
/// cleared, and trees whose threads have exited are dropped from the
/// registry. Call between profiles, with no spans open anywhere.
pub fn reset() {
    let mut registry = lock(&REGISTRY);
    registry.retain(|tree| {
        lock(tree).clear();
        // Only the registry holds the Arc once its thread is gone.
        Arc::strong_count(tree) > 1
    });
}

/// Merges every registered tree into one snapshot. Does not consume
/// anything — call [`reset`] to start a fresh profile.
///
/// The intended shape is "enable → run (workers join inside) → disable
/// → collect", which every sweep/shard/serve runner in this workspace
/// follows; a thread's closed spans are visible here immediately, open
/// ones only once they close.
pub fn collect() -> SpanTree {
    let registry = lock(&REGISTRY);
    let mut out = SpanTree::new();
    for tree in registry.iter() {
        out.merge_from(&lock(tree));
    }
    out
}

/// An open profiling span; closes (and records) on drop.
///
/// Prefer the [`crate::span!`] macro. Guards must be dropped in LIFO
/// order, which scoping guarantees — don't `mem::forget` one.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Opens a span named `name` under the innermost open span of this
    /// thread (or at top level). When profiling is disabled this is one
    /// relaxed atomic load and the guard is inert.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return SpanGuard { armed: false };
        }
        Self::enter_slow(name)
    }

    #[cold]
    fn enter_slow(name: &'static str) -> SpanGuard {
        let ok = LOCAL
            .try_with(|l| {
                let mut l = l.borrow_mut();
                if l.tree.is_none() {
                    let tree = Arc::new(Mutex::new(SpanTree::new()));
                    lock(&REGISTRY).push(Arc::clone(&tree));
                    l.tree = Some(tree);
                }
                let parent = l.stack.last().map(|f| f.node);
                let tree = Arc::clone(l.tree.as_ref().expect("just initialized"));
                let mut tree = lock(&tree);
                let parent = parent.unwrap_or_else(|| tree.ensure_root());
                let node = tree.child_of(parent, name);
                drop(tree);
                let (allocs_at, bytes_at) = alloc::thread_totals();
                l.stack.push(Frame {
                    node,
                    start: Instant::now(),
                    child_ns: 0,
                    allocs_at,
                    bytes_at,
                    child_allocs: 0,
                    child_bytes: 0,
                });
            })
            .is_ok();
        SpanGuard { armed: ok }
    }

    /// Pops this thread's innermost frame and records it.
    #[cold]
    fn exit_slow() {
        let (allocs_now, bytes_now) = alloc::thread_totals();
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            let frame = l
                .stack
                .pop()
                .expect("span stack discipline: armed guard has a frame");
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let allocs_in = allocs_now.wrapping_sub(frame.allocs_at);
            let bytes_in = bytes_now.wrapping_sub(frame.bytes_at);
            if let Some(tree) = &l.tree {
                lock(tree).record_at(
                    frame.node,
                    &SpanSample {
                        count: 1,
                        incl_ns: elapsed,
                        // The monotonic clock makes the children's
                        // disjoint sub-intervals sum to at most
                        // `elapsed`; saturate anyway so a hostile clock
                        // can't underflow.
                        excl_ns: elapsed.saturating_sub(frame.child_ns),
                        allocs: allocs_in.saturating_sub(frame.child_allocs),
                        alloc_bytes: bytes_in.saturating_sub(frame.child_bytes),
                    },
                );
            }
            if let Some(parent) = l.stack.last_mut() {
                parent.child_ns += elapsed;
                parent.child_allocs += allocs_in;
                parent.child_bytes += bytes_in;
            }
        });
    }
}

impl Drop for SpanGuard {
    /// Closing an inert guard is one inlined branch; only an armed guard
    /// pays the call into the recording path.
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            Self::exit_slow();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag and trees are process-global; serialize the
    /// tests that touch them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_profiling<R>(f: impl FnOnce() -> R) -> (R, SpanTree) {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        let r = f();
        disable();
        let tree = collect();
        reset();
        (r, tree)
    }

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert!(!enabled());
        {
            crate::span!("ghost");
            spin(1_000);
        }
        assert!(collect().is_empty());
    }

    #[test]
    fn nested_spans_build_paths_and_keep_time_invariants() {
        let (_, tree) = with_profiling(|| {
            for _ in 0..3 {
                crate::span!("outer");
                spin(40_000);
                {
                    crate::span!("inner");
                    spin(40_000);
                }
                {
                    crate::span!("inner");
                    spin(40_000);
                }
            }
        });
        let outer = tree.node_at(&["outer"]).expect("outer recorded");
        let inner = tree.node_at(&["outer", "inner"]).expect("nested path");
        assert_eq!(outer.sample.count, 3);
        assert_eq!(inner.sample.count, 6);
        assert!(tree.node_at(&["inner"]).is_none(), "inner is not top-level");
        // Invariants: exclusive <= inclusive; children sum <= parent
        // inclusive; and the parent spent real exclusive time spinning.
        assert!(outer.sample.excl_ns <= outer.sample.incl_ns);
        assert!(inner.sample.excl_ns <= inner.sample.incl_ns);
        assert!(inner.sample.incl_ns <= outer.sample.incl_ns);
        assert!(outer.sample.excl_ns > 0);
        assert_eq!(
            outer.sample.excl_ns,
            outer.sample.incl_ns - inner.sample.incl_ns
        );
    }

    #[test]
    fn worker_threads_flush_and_merge_key_ordered() {
        let (_, tree) = with_profiling(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..5 {
                            crate::span!("worker");
                            {
                                crate::span!("job");
                                spin(5_000);
                            }
                        }
                    });
                }
            });
            crate::span!("main");
            spin(5_000);
        });
        assert_eq!(tree.node_at(&["worker"]).unwrap().sample.count, 20);
        assert_eq!(tree.node_at(&["worker", "job"]).unwrap().sample.count, 20);
        assert_eq!(tree.node_at(&["main"]).unwrap().sample.count, 1);
        let names: Vec<_> = tree.children_of_root().map(|n| n.name).collect();
        assert_eq!(names, ["main", "worker"], "root children in name order");
    }

    #[test]
    fn disable_mid_span_still_closes_cleanly() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        {
            crate::span!("straddler");
            disable();
            spin(1_000);
        }
        let tree = collect();
        reset();
        assert_eq!(tree.node_at(&["straddler"]).unwrap().sample.count, 1);
    }

    #[test]
    fn reset_clears_recorded_data() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        {
            crate::span!("ephemeral");
        }
        disable();
        assert!(!collect().is_empty());
        reset();
        assert!(collect().is_empty());
    }
}

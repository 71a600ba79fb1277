//! Disabled telemetry must be allocation-free: hot loops across the
//! workspace (per-tree fits, router rounds, serve flushes) call `span` /
//! `counter` / `Counter::add` unconditionally, so the disabled path has to
//! be nothing but a relaxed load. A counting global allocator makes that a hard assertion
//! rather than a code-review promise.
//!
//! This lives in its own integration-test binary so the allocator override
//! cannot interfere with the unit tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_and_counters_do_not_allocate() {
    drcshap_telemetry::disable();
    assert!(!drcshap_telemetry::is_enabled());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let owned = drcshap_telemetry::Counter::new("alloc_test/owned");
    for i in 0..10_000u64 {
        let _span = drcshap_telemetry::span("alloc_test/span");
        let _nested = drcshap_telemetry::span_with("alloc_test/detail", || {
            unreachable!("detail closure must not run while disabled")
        });
        drcshap_telemetry::counter("alloc_test/count", i);
        owned.add(i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(owned.get(), (0..10_000).sum::<u64>(), "the owner still counts");

    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated {} times in 10k span/counter calls",
        after - before
    );
}

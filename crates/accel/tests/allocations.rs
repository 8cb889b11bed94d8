//! Heap allocations of one `attention_cost` call, counted by a global
//! allocator: every buffer of a call — DRAM queues, lane queues, arrival
//! counters, estimator tables — is sized once from the context and the
//! configuration, so a call allocates the same number of times at any
//! context and in any mode. A queue that grows per token or per lane, or a
//! sort that takes a scratch buffer past some length, changes the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
use topick_core::{PrecisionConfig, QMatrix, QVector};
use topick_model::{SynthInstance, SynthProfile};

/// Counts the allocations (fresh or grown) made on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per call at the paper's configuration, in every mode and at
/// every context: fixed by the DRAM channel count and the buffers a call
/// sizes once, never by the context or by what survives.
const PER_CALL: u64 = 64;

#[test]
fn attention_cost_allocates_a_fixed_number_of_times_at_any_context() {
    let pc = PrecisionConfig::paper();
    let mut counts = Vec::new();
    for n in [1, 17, 256, 4096] {
        let inst = SynthInstance::generate(&SynthProfile::realistic(n, 64), 7);
        let query = QVector::quantize(&inst.query, pc);
        let keys = QMatrix::quantize_flat(inst.keys().data(), 64, pc).unwrap();
        for mode in [
            AccelMode::Baseline,
            AccelMode::EstimateOnly,
            AccelMode::OutOfOrder,
            AccelMode::Blocking,
        ] {
            let accel = ToPickAccelerator::new(AccelConfig::paper(mode, 1e-3).unwrap());
            let before = ALLOCATIONS.with(Cell::get);
            let cost = accel.attention_cost(&query, &keys).unwrap();
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            assert!(!cost.kept.is_empty());
            counts.push((mode, n, allocations));
        }
    }
    for &(mode, n, allocations) in &counts {
        assert_eq!(allocations, PER_CALL, "{mode:?} at context {n}: {counts:?}");
    }
}

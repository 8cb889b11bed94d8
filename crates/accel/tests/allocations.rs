//! Heap allocations of `attention_cost` calls, counted by a global
//! allocator. Every buffer of a call — DRAM queues, lane queues, arrival
//! counters, estimator tables — is sized once from the context and the
//! configuration, so a thread's first call allocates the same number of
//! times at any context and in any mode. The thread keeps those buffers
//! and resets them, so a later call that fits them allocates only its own
//! result and the estimator's per-call lists: a fixed count in every mode.
//! A queue that grows per token or per lane, a sort that takes a scratch
//! buffer past some length, or a buffer rebuilt instead of reset changes
//! a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread;

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

/// Allocations of a thread's first call at the paper's configuration, in
/// every mode and at every context: fixed by the DRAM channel count and
/// the buffers a call sizes once, never by the context or by what
/// survives.
const FIRST_CALL: u64 = 64;

/// Allocations of every later call on the thread, in every mode, once its
/// kept buffers fit the context: the cost's kept list and its two
/// prune-statistics tables, the estimator's margin table and survivor
/// list, the scores and their softmax.
const LATER_CALL: u64 = 7;

const MODES: [AccelMode; 4] = [
    AccelMode::Baseline,
    AccelMode::EstimateOnly,
    AccelMode::OutOfOrder,
    AccelMode::Blocking,
];

const CONTEXTS: [usize; 4] = [1, 17, 256, 4096];

fn operands(n: usize) -> (QVector, QMatrix) {
    let pc = PrecisionConfig::paper();
    let inst = SynthInstance::generate(&SynthProfile::realistic(n, 64), 7);
    let query = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), 64, pc).unwrap();
    (query, keys)
}

/// Allocations made by one `attention_cost` call on the current thread.
fn allocations(mode: AccelMode, query: &QVector, keys: &QMatrix) -> u64 {
    let accel = ToPickAccelerator::new(AccelConfig::paper(mode, 1e-3).unwrap());
    let before = ALLOCATIONS.with(Cell::get);
    let cost = accel.attention_cost(query, keys).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(!cost.kept.is_empty());
    allocations
}

#[test]
fn attention_cost_allocates_a_fixed_number_of_times_at_any_context() {
    let instances: Vec<_> = CONTEXTS.iter().map(|&n| (n, operands(n))).collect();
    // A thread's first call builds every buffer it keeps.
    let mut first = Vec::new();
    for (n, (query, keys)) in &instances {
        for mode in MODES {
            let count = thread::scope(|s| s.spawn(|| allocations(mode, query, keys)).join());
            first.push((mode, *n, count.unwrap()));
        }
    }
    for &(mode, n, count) in &first {
        assert_eq!(count, FIRST_CALL, "{mode:?} at context {n}: {first:?}");
    }
    // After one call per mode at the largest context, every buffer the
    // thread keeps fits every call, in any order of contexts and modes.
    let (_, (query, keys)) = instances.last().unwrap();
    for mode in MODES {
        allocations(mode, query, keys);
    }
    let mut later = Vec::new();
    for (n, (query, keys)) in &instances {
        for mode in MODES {
            later.push((mode, *n, allocations(mode, query, keys)));
        }
    }
    for &(mode, n, count) in &later {
        assert_eq!(count, LATER_CALL, "{mode:?} at context {n}: {later:?}");
    }
}

//! A global allocator that counts allocations while switched on.
//!
//! Off (the untraced runs) it costs one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn tally(&self) {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every operation is forwarded unchanged to `System`; the only
// addition is a relaxed counter update that touches no memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with counting on and returns its result and the number of
/// allocations made meanwhile (by any thread).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNT.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_while_on() {
        let (b, n) = super::count(|| std::hint::black_box(Box::new(5u64)));
        assert!(n >= 1);
        drop(b);
    }
}

//! The v2 frame decoder sizes nothing past what a frame's bytes can hold.
//!
//! A counting global allocator records the largest single request the armed
//! thread makes.  The flag is thread-local, so tests running on other
//! threads do not count.  A frame whose clock length or run count is larger
//! than its bytes can describe must be refused before it sizes a buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsm_mem::wire::{decode_frame_v2, encode_frame_v2, FrameV2, CLOCK_MODE_FULL};
use dsm_mem::{put_varint, BufferPool, CompactClock};

/// Records the largest request of the armed thread; delegates to the
/// system allocator.
struct LargestRequest;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only reads and writes two
// const-initialised thread-local cells, which never allocate.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// The largest single allocation request `f` makes on this thread.
fn largest_request(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    LARGEST.with(Cell::get)
}

#[test]
fn frames_size_nothing_past_their_bytes() {
    let mut pool = BufferPool::new();
    // Ten bytes whose full-mode clock record claims 2^28 entries: taken on
    // trust, the receiver's baseline would grow to 1 GiB.
    let mut huge_clock = vec![0, 1, CLOCK_MODE_FULL];
    put_varint(&mut huge_clock, 1 << 28);
    // No clock runs, no publish runs.
    huge_clock.extend([0, 0]);

    // Ten bytes claiming 2^29 - 1 runs: a run table sized on trust would
    // reserve 4 GiB.  Each run takes at least two bytes.
    let mut huge_runs = vec![0, 1, CLOCK_MODE_FULL, 0, 0];
    put_varint(&mut huge_runs, (1 << 29) - 1);
    for frame in [huge_clock, huge_runs] {
        assert_eq!(frame.len(), 10);
        let mut codec = CompactClock::new();
        let largest = largest_request(|| {
            assert!(decode_frame_v2(&frame, &mut codec, &mut pool).is_none());
        });
        assert!(largest <= 64, "a 10-byte frame requested {largest} bytes");
        assert!(codec.baseline().is_empty(), "no baseline grown");
    }

    // The widest clock the system uses (the scaling sweep's 256 nodes)
    // still decodes.
    let clock: Vec<u32> = (1..=256).collect();
    let mut wide = Vec::new();
    let f = FrameV2 {
        region: 0,
        seq: 1,
        clock: &clock,
        full: true,
        runs: &[],
        data: &[],
    };
    encode_frame_v2(&f, &mut CompactClock::new(), &mut wide);
    let mut codec = CompactClock::new();
    assert!(decode_frame_v2(&wide, &mut codec, &mut pool).is_some());
    assert_eq!(codec.baseline(), &clock[..]);
}

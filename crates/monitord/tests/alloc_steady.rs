//! The return lane's property, counted rather than timed: once a feed is
//! in steady state the decoder allocates nothing per snapshot, and nothing
//! it allocated is freed by the service worker — the cross-thread
//! `malloc`/`free` pairs that used to serialize the two stages on the
//! allocator's arena lock. The worker allocates nothing for a clean
//! stream's snapshot either: it judges the cells in place, and an alarming
//! stream's snapshot allocates for its alarms only.
//!
//! A counting `#[global_allocator]` tags every block with the role of the
//! thread that allocated it. The reader feeding `feed_lines` holds each
//! line back until the worker has returned the previous snapshot, so the
//! number of snapshots in flight — and with it every count below — does
//! not depend on how the two threads are scheduled, and the worker's
//! allocations are counted against the line it is processing. One test
//! per binary: any other thread allocating while the counts are armed
//! would be taken for the worker.

use flowpulse::snapshot::CounterSnapshot;
use fp_monitord::{feed_lines, snapshot_line, IngestHandle, Monitord, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const STREAMS: u32 = 32;
/// Three iterations of every stream: the baseline is learned from
/// iteration 0, and iteration 2's snapshots close the first iteration it
/// judges, which sizes the monitor's reused buffers.
const WARMUP: usize = 3 * STREAMS as usize;
const STEADY_ITERS: u32 = 40;

/// Tag of a block allocated by the thread that runs `feed_lines`.
const DECODER: usize = 1;

thread_local! {
    /// `DECODER` on the feeding thread, 0 on every other.
    static ROLE: Cell<usize> = const { Cell::new(0) };
}

/// What `ARMED` holds: counts off, or on for a line of a clean stream or
/// of an alarming one.
const OFF: usize = 0;
const CLEAN: usize = 1;
const ALARMING: usize = 2;

static ARMED: AtomicUsize = AtomicUsize::new(OFF);
static DECODER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static CROSS_FREES: AtomicU64 = AtomicU64::new(0);
/// Worker allocations while a `CLEAN` / an `ALARMING` line is armed.
static WORKER_ALLOCS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

/// Hands out `System` blocks with the allocating thread's role stored in
/// a header in front of them.
struct Tagging;

/// Room for the tag in front of a block, keeping the block's alignment.
fn header(layout: Layout) -> usize {
    layout.align().max(std::mem::size_of::<usize>())
}

fn with_header(layout: Layout) -> Layout {
    let align = layout.align().max(std::mem::align_of::<usize>());
    Layout::from_size_align(layout.size() + header(layout), align).expect("layout fits")
}

// SAFETY: every block comes from `System` with a layout that is the
// caller's grown by `header(layout)` bytes at the caller's alignment (or
// `usize`'s, if larger), so the pointer handed out, `header(layout)` bytes
// in, is aligned for the caller and has `layout.size()` bytes behind it;
// the tag is written inside the part the caller never sees. `dealloc`
// recomputes the same header and layout from the `layout` the caller must
// pass back unchanged, and returns the original pointer to `System`.
// `realloc` is the default alloc-copy-dealloc, which goes through both.
unsafe impl GlobalAlloc for Tagging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let role = ROLE.with(Cell::get);
        let armed = ARMED.load(Ordering::Relaxed);
        if armed != OFF {
            let count = if role == DECODER {
                &DECODER_ALLOCS
            } else {
                &WORKER_ALLOCS[armed - 1]
            };
            count.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `with_header(layout)` has a non-zero size.
        let base = unsafe { System.alloc(with_header(layout)) };
        if base.is_null() {
            return base;
        }
        // SAFETY: `base` is aligned for `usize` and at least
        // `header(layout) >= size_of::<usize>()` bytes long.
        unsafe {
            base.cast::<usize>().write(role);
            base.add(header(layout))
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`, so the
        // block starts `header(layout)` bytes earlier with the tag first.
        let base = unsafe { ptr.sub(header(layout)) };
        // SAFETY: as above; the tag was written by `alloc`.
        let tag = unsafe { base.cast::<usize>().read() };
        if tag == DECODER && ROLE.with(Cell::get) != DECODER && ARMED.load(Ordering::Relaxed) != OFF
        {
            CROSS_FREES.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `base` is what `System.alloc(with_header(layout))` gave.
        unsafe { System.dealloc(base, with_header(layout)) }
    }
}

#[global_allocator]
static ALLOC: Tagging = Tagging;

/// Serves the wire one line at a time, each only once the service has
/// finished with the previous one, and sets `ARMED` to `arm[line]` while
/// that line is decoded and processed.
struct LockStep<'a> {
    wire: &'a [u8],
    handle: IngestHandle,
    served: usize,
    arm: &'a [usize],
}

impl LockStep<'_> {
    fn line_end(&self) -> usize {
        self.wire
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.wire.len(), |i| i + 1)
    }
}

impl Read for LockStep<'_> {
    fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
        unreachable!("feed_lines reads through BufRead")
    }
}

impl BufRead for LockStep<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        // The worker puts a snapshot on the return lane when it comes back
        // for the next one, and the push that follows an empty stash takes
        // the lane's contents: a non-empty lane means the last push has
        // been processed and handed back.
        while self.served > 0 && self.handle.spare_buffers() == 0 {
            std::thread::yield_now();
        }
        ARMED.store(
            self.arm.get(self.served).map_or(OFF, |&a| a),
            Ordering::SeqCst,
        );
        Ok(&self.wire[..self.line_end()])
    }

    fn consume(&mut self, n: usize) {
        assert_eq!(n, self.line_end(), "feed_lines takes whole lines");
        self.wire = &self.wire[n..];
        self.served += 1;
    }
}

fn snapshot(stream: u32, iter: u32, last: bool) -> CounterSnapshot {
    CounterSnapshot {
        fabric: format!("fabric-{stream:03}"),
        job: 1,
        iter,
        n_leaves: 16,
        n_vspines: 8,
        t_ns: 1_000 * u64::from(iter),
        // Odd streams sag on one ring cable from iteration 10 on.
        bytes: (0..128u64)
            .map(|p| {
                let sag = stream % 2 == 1 && iter >= 10 && (p == 8 || p == 16);
                524_288 + (p * 7 + u64::from(iter)) % 200 - if sag { 40_000 } else { 0 }
            })
            .collect(),
        last,
    }
}

#[test]
fn steady_feed_allocates_nothing_and_frees_nothing_across_threads() {
    let total_iters = WARMUP as u32 / STREAMS + STEADY_ITERS + 1;
    let mut wire = Vec::new();
    for iter in 0..total_iters {
        for stream in 0..STREAMS {
            let line = snapshot_line(&snapshot(stream, iter, iter + 1 == total_iters));
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');
        }
    }
    let steady = (STREAMS * STEADY_ITERS) as usize;
    // The lines after the warm-up and before the closing tail, each counted
    // by the kind of stream it belongs to.
    let arm: Vec<usize> = (0..(STREAMS * total_iters) as usize)
        .map(|line| match line {
            _ if !(WARMUP..WARMUP + steady).contains(&line) => OFF,
            _ if line as u32 % STREAMS % 2 == 1 => ALARMING,
            _ => CLEAN,
        })
        .collect();

    // The periodic metrics line is a cost per emission, not per snapshot;
    // with one snapshot per batch here it would land on every 16th line.
    let svc = Monitord::spawn(ServiceConfig {
        metrics_every_batches: 0,
        ..ServiceConfig::default()
    });
    let reader = LockStep {
        wire: &wire,
        handle: svc.handle(),
        served: 0,
        arm: &arm,
    };
    ROLE.with(|r| r.set(DECODER));
    let stats = feed_lines(reader, &svc.handle()).unwrap();
    ARMED.store(OFF, Ordering::SeqCst);
    ROLE.with(|r| r.set(0));
    let report = svc.shutdown();

    assert_eq!(stats.lines, u64::from(STREAMS * total_iters));
    assert_eq!((stats.malformed, stats.rejected), (0, 0));
    assert_eq!(report.snapshots, stats.lines);
    assert_eq!(report.streams.len(), STREAMS as usize);
    for (k, s) in report.streams.iter().enumerate() {
        assert!(s.closed);
        assert_eq!(s.alarms.is_empty(), k % 2 == 0, "stream {}", s.fabric);
    }
    // A snapshot of iteration `i` closes, and so judges, iteration `i - 1`.
    let armed_iters = WARMUP as u32 / STREAMS..WARMUP as u32 / STREAMS + STEADY_ITERS;
    let alarms = report
        .streams
        .iter()
        .flat_map(|s| &s.alarms)
        .filter(|a| armed_iters.contains(&(a.iter + 1)))
        .count() as u64;

    let clean = WORKER_ALLOCS[CLEAN - 1].load(Ordering::Relaxed);
    let alarming = WORKER_ALLOCS[ALARMING - 1].load(Ordering::Relaxed);
    println!(
        "{steady} steady snapshots: {} decoder allocations, {} decoder blocks freed \
         elsewhere; worker allocations: {clean} on clean streams, {alarming} on alarming \
         streams, which raised {alarms} alarms",
        DECODER_ALLOCS.load(Ordering::Relaxed),
        CROSS_FREES.load(Ordering::Relaxed),
    );
    assert_eq!(
        DECODER_ALLOCS.load(Ordering::Relaxed),
        0,
        "allocations on the decoder thread over {steady} steady snapshots"
    );
    assert_eq!(
        CROSS_FREES.load(Ordering::Relaxed),
        0,
        "decoder-allocated blocks freed on another thread"
    );
    assert_eq!(clean, 0, "worker allocations for clean streams' snapshots");
    // Each alarm owns its deviation list — which also shows the worker's
    // count is armed — and the rest is the alarm log and the hysteresis
    // map growing: far below one more per alarm.
    assert!(alarms > 0);
    assert!(
        (alarms..=2 * alarms).contains(&alarming),
        "{alarming} worker allocations for {alarms} alarms"
    );
}

//! Host-speed calibration.
//!
//! On a shared host the simulator's CPU time per pass drifts by up to 2×
//! over seconds to minutes, as neighbours contend for the caches, the
//! memory bus and the core: an ALU-bound loop barely moves while the
//! simulator slows. A calibration slice is a fixed piece of work with the
//! simulator's memory behaviour, run between the steps of every pass. It
//! has two halves of about equal time, because each half follows the
//! drift only in some of the host's slow modes (see README.md):
//!
//! * an event loop: an event heap, a hash map and random access to a
//!   4 MiB task table, like event dispatch;
//! * a scan: UTF-8 validation of the rest of a snapshot-sized text from
//!   many offsets, streaming from the core's own cache, like
//!   `json::parse` on a snapshot.
//!
//! Each stretch of a pass between two slices is divided by the mean CPU
//! time of those two slices, which cancels most of the drift; the ratios
//! are summed and reported in seconds of a host on which one slice takes
//! [`REF_SLICE_S`] ([`measure`]).
//!
//! The slice is the benchmark's yardstick: changing it changes every
//! `run_s` and `setup_s`, so it must stay as it is.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use crate::trace::cpu_s;

/// CPU seconds of one slice on the reference host, about what a slice
/// takes on an unloaded 2-vCPU Xeon host.
pub const REF_SLICE_S: f64 = 0.015;

const TASKS: usize = 1 << 16;
const EVENTS: u64 = 60_000;

/// Bytes of the scanned text: a little more than the `replay` snapshot.
const TEXT_BYTES: usize = 430_000;
/// UTF-8 validations per slice, from offsets spread evenly over the text.
const SCANS: usize = 800;

/// The process CPU time at which one slice started and ended.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub start: f64,
    pub end: f64,
}

impl Mark {
    fn cpu_s(&self) -> f64 {
        self.end - self.start
    }
}

struct State {
    tasks: Vec<[u64; 8]>,
    text: Vec<u8>,
    marks: Vec<Mark>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        tasks: vec![[1; 8]; TASKS],
        text: {
            let pattern = b"{\"k\": 12345, ";
            (0..TEXT_BYTES).map(|i| pattern[i % pattern.len()]).collect()
        },
        marks: Vec::new(),
    });
}

/// Runs one calibration slice and records when it ran.
pub fn slice() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let start = cpu_s();
        std::hint::black_box(work(&mut s.tasks));
        std::hint::black_box(scan(&s.text));
        let end = cpu_s();
        s.marks.push(Mark { start, end });
    });
}

/// The slices run since the last call, in order.
pub fn take() -> Vec<Mark> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().marks))
}

/// The CPU time in `[from, to]` outside the slices `marks`, in this
/// host's seconds and in reference seconds. The first mark must end by
/// `from` and the last start at or after `to`; each stretch between two
/// consecutive slices is scaled by their mean.
pub fn measure(marks: &[Mark], from: f64, to: f64) -> (f64, f64) {
    assert!(
        marks.len() >= 2 && marks[0].end <= from && to <= marks[marks.len() - 1].start,
        "slices must bracket the measured span"
    );
    marks
        .windows(2)
        .fold((0.0, 0.0), |(host, reference), pair| {
            let stretch = (pair[1].start.min(to) - pair[0].end.max(from)).max(0.0);
            let slice_s = (pair[0].cpu_s() + pair[1].cpu_s()) / 2.0;
            (host + stretch, reference + stretch * REF_SLICE_S / slice_s)
        })
}

/// CPU seconds of one set-up run just before slice `mark`, in reference
/// seconds.
pub fn setup_reference_s(setup_cpu_s: f64, mark: &Mark) -> f64 {
    setup_cpu_s * REF_SLICE_S / mark.cpu_s()
}

/// A miniature discrete-event loop: pop the earliest event, touch a
/// random task's cache line, count into a hash map, schedule a successor.
fn work(tasks: &mut [[u64; 8]]) -> u64 {
    let mut heap = BinaryHeap::with_capacity(4096);
    // A fixed hasher, so every slice does the same work in every process.
    let mut counts: HashMap<u32, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let n = tasks.len() as u64;
    for i in 0..4096u64 {
        heap.push(Reverse((i * 7919 % 10_007, (i % n) as u32)));
    }
    let (mut x, mut acc) = (99u64, 0u64);
    for _ in 0..EVENTS {
        let Reverse((t, id)) = heap.pop().expect("the heap never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let task = &mut tasks[id as usize];
        task[(x % 8) as usize] = task[0].wrapping_add(t);
        acc = acc.wrapping_add(task[3]);
        *counts.entry((x % 20_000) as u32).or_insert(0) += 1;
        heap.push(Reverse((t + 1 + (x >> 50), (x % n) as u32)));
    }
    acc.wrapping_add(counts.len() as u64)
}

/// Validates the rest of `text` as UTF-8 from [`SCANS`] offsets spread
/// evenly over it.
fn scan(text: &[u8]) -> u64 {
    let step = text.len() / SCANS;
    (0..SCANS)
        .map(|k| {
            let rest = std::hint::black_box(&text[k * step..]);
            std::str::from_utf8(rest).map_or(0, |r| r.len() as u64)
        })
        .sum()
}

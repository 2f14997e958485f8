//! Host-time measurement: process CPU time, peak RSS, and the span
//! recorder the traced run uses.
//!
//! Spans are recorded only in this benchmark's own code, around the
//! public calls it makes into each layer. They stay in memory and are
//! written out once the run ends. Finer layers (event dispatch, frequency
//! model, scheduler scans, probe fan-out) come from the program's own
//! opt-in profiler, `nest_simcore::profile`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process (all threads), in seconds.
///
/// `/proc/self/stat` only resolves 10 ms, which is several percent of a
/// short pass, so this reads the kernel's nanosecond process clock.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Pins this thread, and every thread it starts afterwards, to the CPU it
/// runs on, so that calibration slices and passes share one core and its
/// private caches. Returns the CPU, or `None` if pinning failed.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit `cpu_set_t` of the size passed,
    // which the kernel only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One recorded span: a call into a layer, made by this benchmark.
struct Span {
    name: &'static str,
    pass: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    pass: u32,
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns(r: &mut Recorder) -> u64 {
    r.origin
        .get_or_insert_with(Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Turns recording on or off and sets the id shared by the spans of the
/// next pass.
pub fn set_recording(on: bool, pass: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.pass = pass;
    });
}

/// Closes its span when dropped.
pub struct Guard {
    idx: Option<usize>,
}

/// Opens a span named `name`, a child of the innermost open span.
/// Costs one thread-local read when recording is off.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard { idx: None };
        }
        let start_ns = now_ns(&mut r);
        let span = Span {
            name,
            pass: r.pass,
            parent: r.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        };
        r.spans.push(span);
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Guard { idx: Some(idx) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = now_ns(&mut r);
                r.spans[idx].end_ns = end;
                r.open.pop();
            });
        }
    }
}

/// Self time in seconds of every span name, per pass id: each span's
/// duration minus the time its direct children cover.
pub fn self_seconds_by_pass() -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, child) in r.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.pass).or_default().entry(s.name).or_default() += self_ns as f64 * 1e-9;
        }
        out
    })
}

/// Every recorded span as a JSON array, one object per line.
pub fn spans_json() -> String {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::from("[\n");
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < r.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.pass, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    })
}

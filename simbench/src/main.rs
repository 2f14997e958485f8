//! End-to-end and per-layer benchmark of the Nest simulator.
//!
//! ```text
//! nest-simbench --workload <paper|scale1024|serve_fleet|replay> --seed <n>
//!               --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! One workload per process, single-threaded apart from the one harness
//! worker of the `paper` matrix. A run repeats short passes: the first is
//! a warm-up whose outputs become the reference and whose time is thrown
//! away, then passes repeat until `--seconds` have gone by. Host time is
//! the median over passes of one pass's CPU time scaled by calibration
//! slices run beside it (`calib.rs`), because host speed drifts by up to
//! 2× over seconds to minutes (see README.md).
//!
//! Every pass checks its results; a cell that fails a check counts as
//! failed. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod calib;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use nest_simcore::profile::{self, Subsystem};

/// A run measures at least this many passes after the warm-up, however
/// short `--seconds` is.
const MIN_PASSES: usize = 2;

/// Set-up takes microseconds to milliseconds, so an untraced pass repeats
/// it for at least this much CPU time and records the time per set-up.
const SETUP_BATCH_S: f64 = 0.01;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("--{k} is required"));
    let workload = take("workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must lie in [0, 3600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let spans = kv.remove("spans");
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
    })
}

/// Host-time and work records of one pass.
struct PassRecord {
    traced: bool,
    /// CPU time of one set-up, in reference seconds (see `calib.rs`).
    setup_ref_s: f64,
    /// CPU time of the pass, in reference seconds.
    run_ref_s: f64,
    /// CPU time of the pass, in this host's seconds.
    cpu_s: f64,
    wall_s: f64,
    prof: profile::Snapshot,
    counts: BTreeMap<&'static str, f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nest-simbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The profiler is on only for traced passes, whatever NEST_PROFILE says.
    profile::force_enabled(false);
    // A pass measured on one core against slices measured on another
    // follows neither core's drift.
    if trace::pin_to_current_cpu().is_none() {
        eprintln!("nest-simbench: cannot pin to one CPU; host times will be noisier");
    }

    let mut records: Vec<PassRecord> = Vec::new();
    let mut reference = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut traced_calls: Option<Vec<u64>> = None;
    let mut window: Option<Instant> = None;
    let mut pass_id = 0u32;
    loop {
        let measured = records.len().saturating_sub(1);
        if let Some(started) = window {
            if measured >= MIN_PASSES && started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        // In a traced run, passes alternate traced and untraced after the
        // warm-up, so the run can report its own overhead.
        let traced = args.trace && pass_id % 2 == 1;
        trace::set_recording(traced, pass_id);
        profile::force_enabled(traced);
        let c0 = trace::cpu_s();
        let mut setups = 0;
        let prepared = loop {
            let prepared = {
                let _s = trace::span("setup");
                workloads::setup(&args.workload, args.seed).expect("workload name was checked")
            };
            setups += 1;
            // One set-up per traced pass keeps its spans per pass.
            if traced || trace::cpu_s() - c0 >= SETUP_BATCH_S {
                break prepared;
            }
        };
        let setup_cpu_s = (trace::cpu_s() - c0) / setups as f64;
        // Slices bracket the pass, and the pass runs more between its
        // steps; each stretch of the pass is scaled by the slices around it.
        calib::slice();
        let p0 = profile::snapshot();
        let w0 = Instant::now();
        let c1 = trace::cpu_s();
        let pass = {
            let _s = trace::span("pass");
            prepared.pass()
        };
        let c2 = trace::cpu_s();
        let wall_s = w0.elapsed().as_secs_f64();
        let prof = profile::snapshot().since(&p0);
        profile::force_enabled(false);
        trace::set_recording(false, pass_id);
        drop(prepared);
        calib::slice();
        let marks = calib::take();
        let (cpu_s, run_ref_s) = calib::measure(&marks, c1, c2);

        // Simulated outputs, event counts and work counts repeat exactly.
        let digest = (pass.digest, prof.events, pass.counts.clone());
        let mut ok = pass.failed == 0;
        match &reference {
            None => reference = Some((digest, pass.sim)),
            Some((want, _)) => ok &= *want == digest,
        }
        if traced {
            let calls: Vec<u64> = prof.subsystems.iter().map(|t| t.calls).collect();
            match &traced_calls {
                None => traced_calls = Some(calls),
                Some(want) => ok &= *want == calls,
            }
        }
        attempted += pass.cells;
        failed += if ok { 0 } else { pass.failed.max(1) };
        if !ok {
            eprintln!("nest-simbench: pass {pass_id} failed its checks");
        }
        records.push(PassRecord {
            traced,
            setup_ref_s: calib::setup_reference_s(setup_cpu_s, &marks[0]),
            run_ref_s,
            cpu_s,
            wall_s,
            prof,
            counts: pass.counts,
        });
        if window.is_none() {
            window = Some(Instant::now());
        }
        pass_id += 1;
    }

    let measured = &records[1..];
    let sim = reference.expect("the warm-up pass ran").1;
    let untraced: Vec<&PassRecord> = measured.iter().filter(|r| !r.traced).collect();
    let run: Vec<f64> = untraced.iter().map(|r| r.run_ref_s).collect();
    let cpu: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
    let wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "nest-simbench: {} seed {}: {} passes after warm-up ({} untraced); median of one \
         pass: {:.4} reference s, {:.4} host CPU s, {:.4} wall s (for information only)",
        args.workload,
        args.seed,
        measured.len(),
        untraced.len(),
        trace::median(&run),
        trace::median(&cpu),
        trace::median(&wall),
    );
    eprintln!("nest-simbench: reference s of each untraced pass: {run:.4?}");
    eprintln!("nest-simbench: host CPU s of each untraced pass: {cpu:.4?}");

    let metrics = if args.trace {
        let traced: Vec<&PassRecord> = measured.iter().filter(|r| r.traced).collect();
        let m = per_layer(&traced, &untraced);
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, trace::spans_json()) {
                eprintln!("nest-simbench: cannot write spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        m
    } else {
        let setup: Vec<f64> = measured.iter().map(|r| r.setup_ref_s).collect();
        vec![
            ("run_s", trace::median(&run), "s"),
            ("setup_s", trace::median(&setup), "s"),
            ("peak_rss_mb", trace::peak_rss_mb(), "MB"),
            ("sim_time_s", sim.time_s, "sim_s"),
            ("sim_energy_j", sim.energy_j, "sim_J"),
            ("sim_p99_ms", sim.p99_ms, "sim_ms"),
            ("sim_goodput_per_s", sim.goodput_per_s, "1/sim_s"),
        ]
    };
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics: medians over the traced passes. Span times are
/// self times; profiler times are the profiler's per-subsystem totals.
fn per_layer(
    traced: &[&PassRecord],
    untraced: &[&PassRecord],
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = trace::self_seconds_by_pass();
    // Spans are recorded in traced passes only.
    let per_pass: Vec<&BTreeMap<&str, f64>> = spans.values().collect();
    let span_s = |name: &str| {
        trace::median(
            &per_pass
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let sub = |s: Subsystem| {
        let calls = traced[0].prof.subsystems[s as usize].calls as f64;
        let secs: Vec<f64> = traced
            .iter()
            .map(|r| r.prof.subsystems[s as usize].nanos as f64 * 1e-9)
            .collect();
        (calls, trace::median(&secs))
    };
    let count = |name: &str| traced[0].counts.get(name).copied().unwrap_or(0.0);

    let events = traced[0].prof.events as f64;
    let (_, dispatch_s) = sub(Subsystem::EventDispatch);
    let (model_calls, model_s) = sub(Subsystem::FreqModel);
    let (power_calls, power_s) = sub(Subsystem::FreqPower);
    let (fork_calls, fork_s) = sub(Subsystem::CfsFork);
    let (primary_calls, primary_s) = sub(Subsystem::NestPrimaryScan);
    let (deliveries, fanout_s) = sub(Subsystem::TraceProbes);
    let fleet_run_s = span_s("fleet.run");
    let matrix_s = span_s("harness.matrix");
    let untraced_cpu: Vec<f64> = untraced.iter().map(|r| r.run_ref_s).collect();
    let traced_cpu: Vec<f64> = traced.iter().map(|r| r.run_ref_s).collect();
    let overhead_pct = 100.0 * (trace::median(&traced_cpu) / trace::median(&untraced_cpu) - 1.0);
    // A layer that does not run in this workload reports 0 self time.
    let minus_dispatch = |outer: f64| if outer > 0.0 { outer - dispatch_s } else { 0.0 };

    vec![
        ("engine.events", events, "count"),
        ("engine.dispatch_s", dispatch_s, "s"),
        (
            "engine.ns_per_event",
            dispatch_s * 1e9 / events.max(1.0),
            "ns",
        ),
        ("freq.model_calls", model_calls, "count"),
        ("freq.model_s", model_s, "s"),
        ("freq.power_calls", power_calls, "count"),
        ("freq.power_s", power_s, "s"),
        ("sched.cfs_fork_calls", fork_calls, "count"),
        ("sched.cfs_fork_s", fork_s, "s"),
        ("sched.cfs_wakeup_s", sub(Subsystem::CfsWakeup).1, "s"),
        ("sched.nest_primary_calls", primary_calls, "count"),
        ("sched.nest_primary_s", primary_s, "s"),
        (
            "sched.nest_reserve_s",
            sub(Subsystem::NestReserveScan).1,
            "s",
        ),
        ("sched.load_balance_s", sub(Subsystem::LoadBalance).1, "s"),
        ("sched.socket_stats_s", sub(Subsystem::SocketStats).1, "s"),
        ("sched.tick_s", sub(Subsystem::TickLoop).1, "s"),
        ("probes.deliveries", deliveries, "count"),
        ("probes.fanout_s", fanout_s, "s"),
        ("metrics.summarize_s", span_s("metrics.summarize"), "s"),
        ("serve.requests", count("serve.requests"), "count"),
        ("serve.materialize_s", span_s("serve.materialize"), "s"),
        ("fleet.run_s", fleet_run_s, "s"),
        ("fleet.self_s", minus_dispatch(fleet_run_s), "s"),
        ("fleet.retries", count("fleet.retries"), "count"),
        ("fleet.hedges", count("fleet.hedges"), "count"),
        (
            "fleet.hedge_win_ratio",
            count("fleet.hedge_win_ratio"),
            "ratio",
        ),
        ("scenario.parse_s", span_s("scenario.parse"), "s"),
        ("topology.build_s", span_s("topology.build"), "s"),
        ("snapshot.bytes", count("snapshot.bytes"), "bytes"),
        ("snapshot.encode_s", span_s("snapshot.encode"), "s"),
        ("snapshot.restore_s", span_s("snapshot.restore"), "s"),
        ("snapshot.resume_s", span_s("snapshot.resume"), "s"),
        ("json.parse_s", span_s("json.parse"), "s"),
        ("harness.matrix_s", matrix_s, "s"),
        ("harness.self_s", minus_dispatch(matrix_s), "s"),
        ("harness.codec_s", span_s("harness.codec"), "s"),
        (
            "harness.cells_failed",
            count("harness.cells_failed"),
            "count",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

//! `nest-sim`: compose and run one scheduling scenario from the command
//! line — any (machine, policy, governor, workload) combination the
//! registries can express, not just the combinations the figure binaries
//! hard-code.
//!
//! ```text
//! nest-sim list [machines|policies|governors|workloads]
//! nest-sim id  --machine 5218 --policy nest --governor perf --workload hackbench
//! nest-sim run --machine i80 --policy nest:spin=off --governor performance \
//!              --workload hackbench --runs 10
//! nest-sim trace --machine 5218 --policy nest --governor schedutil \
//!                --workload configure:gdb --out trace.json
//! nest-sim stats --machine 5218 --policy nest --governor schedutil \
//!                --workload configure:gdb
//! ```
//!
//! `run` accepts `--policy` and `--governor` more than once; the rows of
//! the resulting comparison are the policy-major cartesian product, with
//! the first row as the speedup baseline. Results land in the standard
//! `results/<name>.json` artifact plus its `.telemetry.json` sidecar,
//! exactly like the figure binaries (`NEST_RESULTS_DIR`, `NEST_CACHE`,
//! `NEST_JOBS` all apply).
//!
//! `trace` runs one scenario once with a [`TraceCollector`] attached and
//! exports the capture as Chrome trace-event JSON — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. `stats` runs a
//! scenario and prints its aggregated [`DecisionMetrics`] as a
//! human-readable table. Both are pure observers: they reuse the exact
//! simulation the figure binaries run, so tracing a scenario cannot
//! change its results.

use nest_core::experiment::format_table;
use nest_core::{run_many, run_once_with};
use nest_harness::{Artifact, Json, Matrix};
use nest_metrics::{FleetMetrics, PhaseMetrics, ServeMetrics, PHASE_NAMES};
use nest_obs::{chrome_trace_with_timeseries, DecisionMetrics, EventClass, TraceCollector};
use nest_scenario::{Scenario, DEFAULT_RUNS, DEFAULT_SEED};
use nest_simcore::json::obj;
use nest_simcore::{PlacementPath, Time};

const USAGE: &str = "\
nest-sim: compose and run one scheduling scenario

USAGE:
    nest-sim list [machines|policies|governors|workloads]
    nest-sim id  --machine <key> --policy <spec> --governor <key> --workload <spec>
                 [--seed <n>] [--runs <n>] [--horizon <secs>]
    nest-sim run --machine <key> --policy <spec> [--policy <spec>]...
                 --governor <key> [--governor <key>]... --workload <spec>
                 [--seed <n>] [--runs <n>] [--horizon <secs>] [--out <name>]
                 [--faults <spec>]
    nest-sim trace --machine <key> --policy <spec> --governor <key> --workload <spec>
                 [--seed <n>] [--horizon <secs>] [--out <file>]
                 [--window <lo:hi>] [--events <class,...>] [--capacity <n>]
    nest-sim stats --machine <key> --policy <spec> --governor <key> --workload <spec>
                 [--seed <n>] [--runs <n>] [--horizon <secs>] [--json]
    nest-sim diff <A.telemetry.json> <B.telemetry.json>
                 [--threshold <pct>] [--json]
    nest-sim replay --machine <key> --policy <spec> --governor <key> --workload <spec>
                 [--seed <n>] [--horizon <secs>] [--faults <spec>]
                 --at <secs> [--snap <file>] [--out <name>]
    nest-sim replay --from <file> [--faults <spec>] [--policy <spec>] [--out <name>]

EXAMPLES:
    nest-sim list workloads
    nest-sim run --machine i80 --policy nest:spin=off --governor performance \\
                 --workload hackbench --runs 10
    nest-sim run --machine 5220 --policy cfs --policy smove --governor perf \\
                 --workload schbench:mt=2,w=2 --out smove_tail
    nest-sim run --machine 6130-4 --policy nest --governor schedutil \\
                 --workload configure:gdb \\
                 --faults hotplug=8@100ms:2s,throttle=s0:0.8
    nest-sim trace --machine 5218 --policy nest --governor schedutil \\
                 --workload configure:gdb --out trace.json --window 0:2 \\
                 --events run,placement,nest
    nest-sim stats --machine 5218 --policy nest --governor schedutil \\
                 --workload configure:gdb --runs 3
    nest-sim replay --machine 5218 --policy nest --governor schedutil \\
                 --workload configure:gdb --at 0.05 --snap warm.snap
    nest-sim replay --from warm.snap --faults \"hotplug=8@100ms:1s\"

`replay --at T` runs a scenario until every event at or before T has
been dispatched, writes a versioned snapshot (schema, scenario
identity, FNV checksum), then continues to completion — the artifact is
byte-identical to an unpaused run. `replay --from FILE` restores a
snapshot and continues; restoring onto the wrong scenario, schema, or a
corrupted file exits 2 with a typed error. `--faults`/`--policy` with
`--from` branch a what-if future at the pause point (same simulated
prefix, different remainder) — compare the branched artifact against
the unbranched one to isolate the effect of the injected change.

`trace` writes Chrome trace-event JSON (open in https://ui.perfetto.dev
or chrome://tracing); `--window` bounds are simulated seconds, and
`--events` takes classes from: task, placement, run, freq, spin, nest,
runnable. `stats` prints the scheduler's decision metrics (placement
paths, wakeup latency, migrations, spinning, nest occupancy) — plus
request tail latency (p50/p99/p999), SLO goodput, and energy per
request when the workload includes a `serve:` stream
(e.g. --workload \"serve:rate=500,dist=lognorm,slo=2ms\"), and the
per-request latency-phase breakdown (arrival queueing, runqueue wait,
service at fmax, frequency-ramp penalty, spin overlap, migration
stall, fan-out merge wait). `--json` emits the same metrics as one
machine-readable JSON document instead of tables.

`diff` compares two `.telemetry.json` sidecars (as written by `run` or
the figure binaries): decision metrics, serving percentiles, and the
phase breakdown, each with its relative delta. A change past
`--threshold` (percent, default 5) in the regression direction —
latency up, goodput down — exits 1, so CI can gate on it. `--json`
emits the comparison as a JSON document.

`--faults` injects a seeded fault plan into every row (grammar:
`hotplug=N@TIME[:DUR]`, `throttle=sK:F[@TIME[:DUR]]` joined with '+',
`jitter=TIME`, `stragglers=N[@TIME[:DUR]]`; clauses comma-separated —
see README \"Fault injection\"). It applies to `run`, `id`, `trace`,
and `stats` alike; the fault plan is part of the scenario identity, so
faulted results never collide with fault-free caches.

`nest-sim list` prints every registry key a flag accepts; unknown keys
fail with the list of valid entries.";

fn fail(msg: &str) -> ! {
    eprintln!("nest-sim: {msg}");
    eprintln!("(run `nest-sim list` to see the registries, or `nest-sim --help`)");
    std::process::exit(2);
}

fn list(section: Option<&str>) {
    let want = |s: &str| section.is_none_or(|w| w == s);
    if !["machines", "policies", "governors", "workloads"]
        .iter()
        .any(|s| want(s))
    {
        fail(&format!(
            "unknown list section \"{}\"; valid: machines, policies, governors, workloads",
            section.unwrap_or_default()
        ));
    }
    if want("machines") {
        println!("machines (--machine):");
        for e in nest_scenario::machine_entries() {
            let alias = if e.aliases.is_empty() {
                String::new()
            } else {
                format!(" (aliases: {})", e.aliases.join(", "))
            };
            println!("  {:<10} {}{}", e.key, e.summary, alias);
        }
    }
    if want("policies") {
        println!("policies (--policy, parameters as key=value after ':'):");
        for (key, summary) in nest_scenario::policy_entries() {
            println!("  {key:<10} {summary}");
        }
    }
    if want("governors") {
        println!("governors (--governor):");
        for (key, _, summary) in nest_scenario::governor_entries() {
            println!("  {key:<12} {summary}");
        }
    }
    if want("workloads") {
        println!("workloads (--workload, '+' combines, knobs as key=value):");
        for (key, summary) in nest_scenario::workload_entries() {
            println!("  {key:<10} {summary}");
        }
    }
}

#[derive(Default)]
struct RunArgs {
    machine: Option<String>,
    policies: Vec<String>,
    governors: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    runs: Option<usize>,
    horizon: Option<u64>,
    out: Option<String>,
    faults: Option<String>,
    window: Option<(Time, Time)>,
    events: Option<Vec<EventClass>>,
    capacity: Option<usize>,
    at: Option<Time>,
    snap: Option<String>,
    from: Option<String>,
    json: bool,
}

impl RunArgs {
    /// Rejects the trace-only flags for subcommands that ignore them.
    fn no_trace_flags(&self, subcommand: &str) {
        if self.window.is_some() || self.events.is_some() || self.capacity.is_some() {
            fail(&format!(
                "--window/--events/--capacity apply to `nest-sim trace`, not `{subcommand}`"
            ));
        }
    }

    /// Rejects the replay-only flags for subcommands that ignore them.
    fn no_replay_flags(&self, subcommand: &str) {
        if self.at.is_some() || self.snap.is_some() || self.from.is_some() {
            fail(&format!(
                "--at/--snap/--from apply to `nest-sim replay`, not `{subcommand}`"
            ));
        }
    }

    /// Rejects `--json` for subcommands without a JSON surface.
    fn no_json_flag(&self, subcommand: &str) {
        if self.json {
            fail(&format!(
                "--json applies to `nest-sim stats` and `nest-sim diff`, not `{subcommand}`"
            ));
        }
    }
}

/// Parses a `--window lo:hi` bound pair (simulated seconds, fractions
/// allowed) into the half-open time window `[lo, hi)`.
fn parse_window(spec: &str) -> (Time, Time) {
    let (lo, hi) = spec
        .split_once(':')
        .unwrap_or_else(|| fail("--window needs the form lo:hi (simulated seconds)"));
    let secs = |s: &str| -> f64 {
        s.parse()
            .unwrap_or_else(|_| fail("--window bounds must be numbers (simulated seconds)"))
    };
    let (lo, hi) = (secs(lo), secs(hi));
    if !(lo >= 0.0 && hi > lo) {
        fail("--window needs 0 <= lo < hi");
    }
    (
        Time::from_nanos((lo * 1e9) as u64),
        Time::from_nanos((hi * 1e9) as u64),
    )
}

/// Parses a `--events` comma list of [`EventClass`] names.
fn parse_events(spec: &str) -> Vec<EventClass> {
    spec.split(',')
        .map(|name| {
            EventClass::parse(name.trim()).unwrap_or_else(|| {
                let valid: Vec<&str> = EventClass::ALL.iter().map(|c| c.name()).collect();
                fail(&format!(
                    "unknown event class \"{name}\"; valid: {}",
                    valid.join(", ")
                ))
            })
        })
        .collect()
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let mut value = || {
            inline.clone().unwrap_or_else(|| {
                it.next()
                    .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                    .clone()
            })
        };
        match flag {
            "--machine" => out.machine = Some(value()),
            "--policy" => out.policies.push(value()),
            "--governor" => out.governors.push(value()),
            "--workload" => out.workload = Some(value()),
            "--seed" => {
                out.seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--seed needs an integer")),
                )
            }
            "--runs" => {
                let n: usize = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--runs needs an integer"));
                if n == 0 {
                    fail("--runs must be at least 1");
                }
                out.runs = Some(n);
            }
            "--horizon" => {
                out.horizon = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--horizon needs seconds")),
                )
            }
            "--out" => out.out = Some(value()),
            "--faults" => out.faults = Some(value()),
            "--window" => out.window = Some(parse_window(&value())),
            "--events" => out.events = Some(parse_events(&value())),
            "--capacity" => {
                let n: usize = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--capacity needs an integer"));
                if n == 0 {
                    fail("--capacity must be at least 1");
                }
                out.capacity = Some(n);
            }
            "--at" => {
                let secs: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--at needs simulated seconds (fractions allowed)"));
                if secs.is_nan() || secs <= 0.0 {
                    fail("--at must be positive");
                }
                out.at = Some(Time::from_nanos((secs * 1e9) as u64));
            }
            "--snap" => out.snap = Some(value()),
            "--from" => out.from = Some(value()),
            "--json" => out.json = true,
            other => fail(&format!("unknown flag \"{other}\"")),
        }
    }
    out
}

/// The policy-major cartesian product of the requested rows, validated
/// through the registries.
fn scenarios_of(a: &RunArgs) -> Vec<Scenario> {
    let machine = a
        .machine
        .as_deref()
        .unwrap_or_else(|| fail("--machine is required"));
    let workload = a
        .workload
        .as_deref()
        .unwrap_or_else(|| fail("--workload is required"));
    if a.policies.is_empty() {
        fail("at least one --policy is required");
    }
    if a.governors.is_empty() {
        fail("at least one --governor is required");
    }
    let mut scenarios = Vec::new();
    for policy in &a.policies {
        for governor in &a.governors {
            let mut s = Scenario::parse(machine, policy, governor, workload)
                .unwrap_or_else(|e| fail(&e.to_string()))
                .with_seed(a.seed.unwrap_or(DEFAULT_SEED))
                .with_runs(a.runs.unwrap_or(DEFAULT_RUNS));
            if let Some(h) = a.horizon {
                s = s.with_horizon_s(h);
            }
            if let Some(f) = &a.faults {
                s = s.with_faults(f).unwrap_or_else(|e| fail(&e.to_string()));
            }
            scenarios.push(s);
        }
    }
    scenarios
}

/// The single scenario `trace` and `stats` operate on.
fn single_scenario(a: &RunArgs, subcommand: &str) -> Scenario {
    let mut scenarios = scenarios_of(a);
    if scenarios.len() != 1 {
        fail(&format!(
            "`nest-sim {subcommand}` takes exactly one --policy and one --governor"
        ));
    }
    scenarios.remove(0)
}

fn run(args: &[String]) {
    let a = parse_run_args(args);
    a.no_trace_flags("run");
    a.no_replay_flags("run");
    a.no_json_flag("run");
    let scenarios = scenarios_of(&a);
    let first = &scenarios[0];
    let name = a.out.as_deref().unwrap_or("nest_sim");

    println!("machine:  {}", first.resolve_machine().name);
    println!("workload: {}", first.workload());
    println!(
        "seed {} × {} runs, horizon {}s",
        first.seed(),
        first.runs(),
        first.horizon_s()
    );
    if !first.faults().is_empty() {
        println!("faults:   {}", first.faults());
    }
    for s in &scenarios {
        println!("  row: {}", s.identity());
    }

    let mut m = Matrix::new(name, first.seed());
    m.add_scenarios(&scenarios)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let (comps, telemetry) = m.run();
    for c in &comps {
        print!("\n{}", format_table(c));
    }

    let mut artifact = Artifact::new(name, first.seed());
    artifact.push("runs_per_config", Json::usize(first.runs()));
    artifact.push(
        "scenarios",
        Json::Arr(scenarios.iter().map(|s| s.to_json()).collect()),
    );
    artifact.comparisons(&comps);
    match artifact.write() {
        Ok(path) => println!("\nartifact: {}", path.display()),
        Err(e) => fail(&format!("could not write artifact: {e}")),
    }
    match artifact.write_telemetry(&telemetry) {
        Ok(path) => println!("telemetry: {}", path.display()),
        Err(e) => fail(&format!("could not write telemetry: {e}")),
    }
    if telemetry.invariants.violations > 0 {
        eprintln!(
            "nest-sim: {} invariant violation(s) detected (see telemetry)",
            telemetry.invariants.violations
        );
        std::process::exit(1);
    }
    if !telemetry.all_cells_ok() {
        for f in &telemetry.failures {
            eprintln!("nest-sim: cell failed: {}: {}", f.cell, f.message);
        }
        std::process::exit(1);
    }
}

fn id(args: &[String]) {
    let a = parse_run_args(args);
    a.no_trace_flags("id");
    a.no_replay_flags("id");
    a.no_json_flag("id");
    for s in scenarios_of(&a) {
        println!("{}", s.identity());
    }
}

/// Writes the deterministic single-run replay artifact. The pause point
/// is deliberately *not* recorded: the paper's determinism contract says
/// run-to-end equals snapshot-and-continue byte-for-byte, so the
/// artifact must not depend on where (or whether) the run was paused —
/// CI diffs these files across pause points to enforce exactly that.
fn write_replay_artifact(name: &str, scenario: &Scenario, result: &nest_core::RunResult) {
    let mut artifact = Artifact::new(name, scenario.seed());
    artifact.push("scenario", scenario.to_json());
    artifact.push(
        "summary",
        nest_harness::cache::summary_to_json(&result.summarize()),
    );
    match artifact.write() {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => fail(&format!("could not write artifact: {e}")),
    }
}

/// `replay --at T`: run the scenario to the pause point, snapshot it,
/// then continue to completion.
fn replay_pause(a: &RunArgs, at: Time) {
    let s = single_scenario(a, "replay");
    let name = a.out.as_deref().unwrap_or("replay");
    let snap_path = a.snap.clone().unwrap_or_else(|| {
        nest_harness::results_dir()
            .join(format!("{name}.snap"))
            .display()
            .to_string()
    });
    println!("scenario: {}", s.identity());
    let workload = s.build_workload();
    match nest_core::run_until(&s.sim_config(), workload.as_ref(), at) {
        nest_core::Progress::Done(r) => {
            eprintln!(
                "nest-sim: run finished at {:.3}s, before the {:.3}s pause point; \
                 no snapshot written",
                r.time_s,
                at.as_secs_f64()
            );
            write_replay_artifact(name, &s, &r);
        }
        nest_core::Progress::Paused(p) => {
            let text = p
                .snapshot(&s.identity(), s.to_json())
                .unwrap_or_else(|e| fail(&e.to_string()));
            if let Some(dir) = std::path::Path::new(&snap_path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(&snap_path, &text) {
                fail(&format!("could not write {snap_path}: {e}"));
            }
            println!(
                "snapshot: {snap_path} ({} events dispatched by {:.3}s)",
                p.events_dispatched(),
                p.now().as_secs_f64()
            );
            let r = p.resume();
            println!("run completed in {:.3}s simulated", r.time_s);
            write_replay_artifact(name, &s, &r);
        }
    }
}

/// `replay --from FILE`: restore a snapshot and continue, optionally
/// branching the future with a different fault plan or policy parameters.
fn replay_restore(a: &RunArgs, path: &str) {
    if a.machine.is_some()
        || a.workload.is_some()
        || !a.governors.is_empty()
        || a.seed.is_some()
        || a.horizon.is_some()
        || a.snap.is_some()
    {
        fail(
            "--from restores the snapshot's own scenario; \
             only --faults and --policy may override it (branching)",
        );
    }
    if a.policies.len() > 1 {
        fail("`replay --from` takes at most one --policy override");
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("could not read {path}: {e}")));
    // One parse serves the header, the embedded scenario and the restore.
    let snapshot = nest_core::Snapshot::parse(&text).unwrap_or_else(|e| fail(&e.to_string()));
    let base = Scenario::from_json(snapshot.scenario())
        .unwrap_or_else(|e| fail(&format!("snapshot's embedded scenario: {e}")));

    // Branch overrides are re-validated through the registries, exactly
    // like fresh flags. The *identity check* below still uses the base
    // scenario: the snapshot prefix was simulated under it, and the
    // engine applies the branched future from the pause point onward.
    let mut branched = base.clone();
    if let Some(policy) = a.policies.first() {
        branched = Scenario::parse(base.machine(), policy, base.governor(), base.workload())
            .unwrap_or_else(|e| fail(&e.to_string()))
            .with_seed(base.seed())
            .with_runs(base.runs())
            .with_horizon_s(base.horizon_s())
            .with_faults(base.faults())
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    if let Some(faults) = &a.faults {
        branched = branched
            .with_faults(faults)
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    let branchinfo = if branched == base {
        String::new()
    } else {
        format!(
            " (branched: policy={}, faults={:?})",
            branched.policy(),
            branched.faults()
        )
    };

    println!("scenario: {}{branchinfo}", base.identity());
    let workload = base.build_workload();
    let paused = snapshot
        .restore(&branched.sim_config(), workload.as_ref(), &base.identity())
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "restored at {:.3}s ({} events skipped)",
        paused.now().as_secs_f64(),
        snapshot.header().events
    );
    let r = paused.resume();
    println!("run completed in {:.3}s simulated", r.time_s);
    let name = a.out.as_deref().unwrap_or("replay");
    // An unbranched continue writes the base scenario (byte-identical to
    // the `--at` artifact); a branched one records what actually ran.
    write_replay_artifact(name, &branched, &r);
}

fn replay(args: &[String]) {
    let a = parse_run_args(args);
    a.no_trace_flags("replay");
    a.no_json_flag("replay");
    if a.runs.is_some() {
        fail("--runs applies to `run` and `stats`; `replay` is a single-run surface");
    }
    match (&a.from, a.at) {
        (Some(_), Some(_)) => fail("--from and --at are mutually exclusive"),
        (None, None) => fail(
            "`replay` needs either --at <secs> (pause a scenario and snapshot) \
             or --from <file> (restore a snapshot and continue)",
        ),
        (None, Some(at)) => replay_pause(&a, at),
        (Some(path), None) => replay_restore(&a, &path.clone()),
    }
}

fn trace(args: &[String]) {
    let a = parse_run_args(args);
    a.no_replay_flags("trace");
    a.no_json_flag("trace");
    if a.runs.is_some() {
        fail("--runs applies to `run` and `stats`; `trace` captures a single run");
    }
    let s = single_scenario(&a, "trace");
    let out_path = a.out.as_deref().unwrap_or("trace.json");

    let capacity = a.capacity.unwrap_or(TraceCollector::DEFAULT_CAPACITY);
    let (mut collector, log) = TraceCollector::new(capacity);
    if let Some((lo, hi)) = a.window {
        collector = collector.with_window(lo, hi);
    }
    if let Some(classes) = &a.events {
        collector = collector.with_classes(classes);
    }

    println!("scenario: {}", s.identity());
    let workload = s.build_workload();
    let result = run_once_with(
        &s.sim_config(),
        workload.as_ref(),
        vec![Box::new(collector)],
    );

    let log = log.borrow();
    // Per-core spans/counters from the trace ring, plus the run's
    // machine-level time series as extra counter tracks (power,
    // utilization, frequency, nest occupancy, runnable depth).
    let json = chrome_trace_with_timeseries(&log, &result.timeseries);
    let mut text = json.to_pretty();
    text.push('\n');
    // Self-check before writing: the exporter's output must parse with
    // the same codec the artifacts use (CI relies on this).
    let back = nest_simcore::json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("exported trace does not re-parse: {e}")));
    let n_records = back
        .get("traceEvents")
        .and_then(|j| j.as_arr())
        .map_or(0, |a| a.len());
    if let Err(e) = std::fs::write(out_path, &text) {
        fail(&format!("could not write {out_path}: {e}"));
    }

    println!(
        "captured {} events over {:.3}s simulated ({} evicted by the ring)",
        log.events.len(),
        log.duration.as_secs_f64(),
        log.dropped
    );
    println!("run completed in {:.3}s simulated", result.time_s);
    println!("trace: {out_path} ({n_records} trace records; open in https://ui.perfetto.dev)");
}

/// Formats a nanosecond quantity with a readable unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn fmt_opt_pct(x: Option<f64>) -> String {
    x.map_or_else(|| "n/a".to_string(), |v| format!("{:.2}%", v * 100.0))
}

/// Renders one scenario's aggregated [`DecisionMetrics`] as a table.
fn stats_report(s: &Scenario, m: &DecisionMetrics) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    line(format!("scenario: {}", s.identity()));
    line(format!("{} run(s), {:.3}s simulated", m.runs, m.sim_secs()));

    line(String::new());
    line(format!("{:<28}{:>12}{:>9}", "placements", "count", "share"));
    let total = m.total_placements();
    for path in PlacementPath::ALL {
        let count = m.placement_count(path);
        if count == 0 {
            continue;
        }
        let share = count as f64 / total.max(1) as f64 * 100.0;
        line(format!(
            "  {:<26}{count:>12}{share:>8.1}%",
            format!("{path:?}")
        ));
    }
    line(format!("  {:<26}{total:>12}{:>9}", "total", "100.0%"));
    line(format!(
        "nest fallback rate: {}",
        fmt_opt_pct(m.nest_fallback_rate())
    ));
    line(format!(
        "migrations: {} ({})",
        m.migrations,
        m.migrations_per_sec()
            .map_or_else(|| "n/a".to_string(), |r| format!("{r:.1}/s"))
    ));
    let rate = |r: Option<f64>| r.map_or_else(|| "n/a".to_string(), |r| format!("{r:.1}/s"));
    line(format!(
        "  cross-CCX: {} ({}), cross-socket: {} ({})",
        m.cross_ccx_migrations,
        rate(m.cross_ccx_migrations_per_sec()),
        m.cross_socket_migrations,
        rate(m.cross_socket_migrations_per_sec())
    ));

    line(String::new());
    line(format!(
        "wakeup→run latency: {} samples, mean {}",
        m.latency_samples,
        m.mean_latency_ns()
            .map_or_else(|| "n/a".to_string(), fmt_ns)
    ));
    let peak = m.latency_counts.iter().copied().max().unwrap_or(0);
    for (i, &count) in m.latency_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let label = match nest_obs::LATENCY_BUCKET_EDGES_NS.get(i) {
            Some(&edge) => format!("≤ {}", fmt_ns(edge as f64)),
            None => format!(
                "> {}",
                fmt_ns(*nest_obs::LATENCY_BUCKET_EDGES_NS.last().unwrap() as f64)
            ),
        };
        let bar = "#".repeat((count * 40).div_ceil(peak.max(1)) as usize);
        line(format!("  {label:<12}{count:>10}  {bar}"));
    }

    line(String::new());
    let busiest = (0..m.spin_ns.len()).max_by_key(|&i| m.spin_ns[i]);
    line(format!(
        "idle spinning: total {}, duty cycle {}{}",
        fmt_ns(m.spin_total_ns() as f64),
        fmt_opt_pct(m.spin_duty_cycle()),
        busiest
            .filter(|&i| m.spin_ns[i] > 0)
            .map_or_else(String::new, |i| format!(
                " (busiest core {i}: {})",
                fmt_opt_pct(m.spin_duty_of(i))
            ))
    ));
    let mean = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.2}"));
    line(format!(
        "nest occupancy: primary mean {} (max {}), reserve mean {} (max {})",
        mean(m.mean_nest_primary()),
        m.nest_primary_max,
        mean(m.mean_nest_reserve()),
        m.nest_reserve_max
    ));
    line(format!(
        "nest transitions: {} ({} compactions)",
        m.nest_transitions, m.nest_compactions
    ));
    if m.nest_ccx_primary_ns.iter().any(|&ns| ns > 0) {
        let per_ccx: Vec<String> = (0..m.nest_ccx_primary_ns.len())
            .map(|i| format!("x{i} {}", mean(m.mean_nest_primary_in_ccx(i))))
            .collect();
        line(format!("nest occupancy by CCX: {}", per_ccx.join(", ")));
    }
    out
}

/// Renders the per-request latency-phase breakdown; empty when the
/// scenario carries no `serve:` stream.
fn phase_report(m: &PhaseMetrics) -> String {
    if m.requests == 0 {
        return String::new();
    }
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(String::new());
    line(format!(
        "latency attribution: {} requests, {} identity violation(s)",
        m.requests, m.identity_violations
    ));
    let q = |h: &nest_metrics::TailHistogram, p: f64| {
        h.quantile(p)
            .map_or_else(|| "n/a".to_string(), |ns| fmt_ns(ns as f64))
    };
    line(format!(
        "{:<18}{:>12}{:>12}{:>12}{:>9}",
        "phase", "p50", "p99", "p999", "share"
    ));
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        let h = &m.phases[i];
        line(format!(
            "  {:<16}{:>12}{:>12}{:>12}{:>9}",
            name,
            q(h, 0.50),
            q(h, 0.99),
            q(h, 0.999),
            fmt_opt_pct(m.share(i))
        ));
    }
    line(format!(
        "  {:<16}{:>12}{:>12}{:>12}{:>9}",
        "total",
        q(&m.total, 0.50),
        q(&m.total, 0.99),
        q(&m.total, 0.999),
        "100.0%"
    ));
    out
}

/// Renders the serving tail-latency lens; empty when the scenario
/// carries no `serve:` stream.
fn serve_report(m: &ServeMetrics) -> String {
    if m.offered == 0 {
        return String::new();
    }
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    let or_na = |v: Option<String>| v.unwrap_or_else(|| "n/a".to_string());
    line(String::new());
    line(format!(
        "serving: {} requests offered ({:.1}/s), {} completed, {} within SLO ({})",
        m.offered,
        m.offered_per_s().unwrap_or(0.0),
        m.completed,
        m.within_slo,
        fmt_opt_pct(m.slo_fraction())
    ));
    let q = |p: f64| or_na(m.hist.quantile(p).map(|ns| fmt_ns(ns as f64)));
    line(format!(
        "request latency: p50 {}, p99 {}, p999 {} (mean {}, SLO {})",
        q(0.50),
        q(0.99),
        q(0.999),
        or_na(m.hist.mean().map(fmt_ns)),
        fmt_ns(m.slo_ns as f64)
    ));
    line(format!(
        "SLO goodput: {}, energy per request: {}",
        or_na(m.goodput_per_s().map(|g| format!("{g:.1}/s"))),
        or_na(
            m.energy_per_request_j()
                .map(|e| format!("{:.3} mJ", e * 1e3))
        )
    ));
    out
}

/// Renders the multi-host fleet lens; empty unless the scenario ran
/// under a `fleet:` front-end.
fn fleet_report(m: &FleetMetrics) -> String {
    if m.runs == 0 {
        return String::new();
    }
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    let or_na = |v: Option<String>| v.unwrap_or_else(|| "n/a".to_string());
    line(String::new());
    line(format!(
        "fleet: {} host(s), {} offered, {} completed, {} failed, {} shed",
        m.hosts, m.offered, m.completed, m.failed, m.shed
    ));
    line(format!(
        "robustness: {} timeout(s), {} retr{}, {} hedge(s) ({} won), {} late completion(s)",
        m.timeouts,
        m.retries,
        if m.retries == 1 { "y" } else { "ies" },
        m.hedges,
        m.hedge_wins,
        m.late_completions
    ));
    let q = |p: f64| or_na(m.hist.quantile(p).map(|ns| fmt_ns(ns as f64)));
    line(format!(
        "fleet latency: p50 {}, p99 {}, p999 {} (mean {})",
        q(0.50),
        q(0.99),
        q(0.999),
        or_na(m.hist.mean().map(fmt_ns))
    ));
    line(format!(
        "goodput: {}, retries: {}, shed rate: {}",
        or_na(m.goodput_per_s().map(|g| format!("{g:.1}/s"))),
        or_na(m.retries_per_s().map(|r| format!("{r:.2}/s"))),
        fmt_opt_pct(m.shed_rate())
    ));
    if m.crashes > 0 {
        line(format!(
            "failover: {} crash(es), {} restart(s), {} request(s) lost in flight, time-to-warm {}",
            m.crashes,
            m.restarts,
            m.in_flight_lost,
            or_na(m.time_to_warm_ns().map(fmt_ns))
        ));
    }
    out
}

fn stats(args: &[String]) {
    let a = parse_run_args(args);
    a.no_trace_flags("stats");
    a.no_replay_flags("stats");
    let s = single_scenario(&a, "stats");
    let runs = a.runs.unwrap_or(1);

    let workload = s.build_workload();
    let results = run_many(&s.sim_config(), workload.as_ref(), runs);
    let mut merged = DecisionMetrics::default();
    let mut serve = ServeMetrics::default();
    let mut phases = PhaseMetrics::default();
    let mut fleet = FleetMetrics::default();
    for r in &results {
        merged.merge(&r.decision);
        serve.merge(&r.serve);
        phases.merge(&r.phases);
        if let Some(f) = &r.fleet {
            fleet.merge(&f.metrics);
        }
    }
    if a.json {
        let mut fields = vec![
            ("scenario", s.to_json()),
            ("runs", Json::usize(runs)),
            ("decision_metrics", merged.to_json()),
        ];
        if serve.runs > 0 {
            fields.push(("serve_metrics", serve.to_json()));
        }
        if phases.runs > 0 {
            fields.push(("phase_metrics", phases.to_json()));
        }
        if fleet.runs > 0 {
            fields.push(("fleet_metrics", fleet.to_json()));
        }
        println!("{}", obj(fields).to_pretty());
        return;
    }
    print!("{}", stats_report(&s, &merged));
    print!("{}", serve_report(&serve));
    print!("{}", phase_report(&phases));
    print!("{}", fleet_report(&fleet));
}

/// Which direction of change counts as a regression for one metric.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Worse {
    /// An increase past the threshold is a regression (latencies).
    Higher,
    /// A decrease past the threshold is a regression (goodput).
    Lower,
    /// Informational only; never gates.
    Info,
}

/// The telemetry metrics `diff` compares, as dotted paths into the
/// `.telemetry.json` document (`stats --json` documents share the same
/// block names, so those diff too).
fn diff_metrics() -> Vec<(String, Worse)> {
    let mut m: Vec<(String, Worse)> = [
        ("decision_metrics.wakeup_latency.mean_ns", Worse::Higher),
        ("decision_metrics.migrations", Worse::Info),
        ("decision_metrics.cross_ccx_migrations", Worse::Info),
        ("decision_metrics.cross_socket_migrations", Worse::Info),
        ("decision_metrics.spin.total_ns", Worse::Info),
        ("decision_metrics.nest.mean_primary", Worse::Info),
        ("decision_metrics.nest.transitions", Worse::Info),
        ("serve_metrics.latency.p50_ns", Worse::Higher),
        ("serve_metrics.latency.p99_ns", Worse::Higher),
        ("serve_metrics.latency.p999_ns", Worse::Higher),
        ("serve_metrics.latency.mean_ns", Worse::Higher),
        ("serve_metrics.slo_fraction", Worse::Lower),
        ("serve_metrics.goodput_per_s", Worse::Lower),
        ("serve_metrics.energy_per_request_j", Worse::Higher),
        ("phase_metrics.total.p99_ns", Worse::Higher),
        ("phase_metrics.total.p999_ns", Worse::Higher),
        ("phase_metrics.identity_violations", Worse::Higher),
        ("fleet_metrics.latency.p99_ns", Worse::Higher),
        ("fleet_metrics.latency.p999_ns", Worse::Higher),
        ("fleet_metrics.goodput_per_s", Worse::Lower),
        ("fleet_metrics.retries_per_s", Worse::Higher),
        ("fleet_metrics.shed_rate", Worse::Higher),
        ("fleet_metrics.timeouts", Worse::Higher),
        ("fleet_metrics.hedges", Worse::Info),
        ("fleet_metrics.time_to_warm_ns", Worse::Info),
    ]
    .iter()
    .map(|&(p, w)| (p.to_string(), w))
    .collect();
    for name in PHASE_NAMES {
        m.push((format!("phase_metrics.phases.{name}.p99_ns"), Worse::Higher));
        m.push((
            format!("phase_metrics.phases.{name}.mean_ns"),
            Worse::Higher,
        ));
        m.push((format!("phase_metrics.phases.{name}.share"), Worse::Info));
    }
    m
}

/// Walks a dotted path into a JSON document, returning the numeric leaf.
fn lookup_num(doc: &Json, path: &str) -> Option<f64> {
    let mut cur = doc;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    cur.as_f64()
}

/// One compared metric: both values present, with the relative delta.
struct DiffRow {
    metric: String,
    a: f64,
    b: f64,
    delta_pct: f64,
    regression: bool,
}

/// Relative change from `a` to `b` in percent. A zero baseline with a
/// nonzero comparison is an unbounded change, pinned at 100%.
fn delta_pct(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        100.0 * (b - a).signum()
    } else {
        (b - a) / a.abs() * 100.0
    }
}

fn diff(args: &[String]) {
    let mut files: Vec<String> = Vec::new();
    let mut threshold = 5.0_f64;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        match flag {
            "--threshold" => {
                let v = inline.clone().unwrap_or_else(|| {
                    it.next()
                        .unwrap_or_else(|| fail("--threshold needs a value"))
                        .clone()
                });
                threshold = v
                    .parse()
                    .unwrap_or_else(|_| fail("--threshold needs a percentage (e.g. 5)"));
                if !(threshold >= 0.0 && threshold.is_finite()) {
                    fail("--threshold must be a non-negative percentage");
                }
            }
            "--json" => json = true,
            f if f.starts_with("--") => fail(&format!("unknown flag \"{f}\"")),
            _ => files.push(arg.clone()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        fail("`nest-sim diff` takes exactly two telemetry files (A B)");
    };
    let read = |path: &str| -> Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("could not read {path}: {e}")));
        nest_simcore::json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
    };
    let (doc_a, doc_b) = (read(a_path), read(b_path));

    let mut rows: Vec<DiffRow> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for (metric, worse) in diff_metrics() {
        let (va, vb) = (lookup_num(&doc_a, &metric), lookup_num(&doc_b, &metric));
        match (va, vb) {
            (Some(a), Some(b)) => {
                let d = delta_pct(a, b);
                let regression = match worse {
                    Worse::Higher => d > threshold,
                    Worse::Lower => d < -threshold,
                    Worse::Info => false,
                };
                rows.push(DiffRow {
                    metric,
                    a,
                    b,
                    delta_pct: d,
                    regression,
                });
            }
            (None, None) => {}
            _ => skipped.push(metric),
        }
    }
    if rows.is_empty() {
        fail("the two files share no comparable metrics (are they telemetry files?)");
    }
    let regressions = rows.iter().filter(|r| r.regression).count();

    if json {
        let doc = obj(vec![
            ("a", Json::str(a_path)),
            ("b", Json::str(b_path)),
            ("threshold_pct", Json::f64(threshold)),
            ("regressions", Json::usize(regressions)),
            (
                "metrics",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            obj(vec![
                                ("metric", Json::str(&r.metric)),
                                ("a", Json::f64(r.a)),
                                ("b", Json::f64(r.b)),
                                ("delta_pct", Json::f64(r.delta_pct)),
                                ("regression", Json::Bool(r.regression)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "skipped",
                Json::Arr(skipped.iter().map(|s| Json::str(s)).collect()),
            ),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!("diff: A = {a_path}");
        println!("      B = {b_path}");
        println!("{:<44}{:>14}{:>14}{:>10}", "metric", "A", "B", "delta");
        let fmt_v = |v: f64| {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v:.4}")
            }
        };
        for r in &rows {
            println!(
                "  {:<42}{:>14}{:>14}{:>+9.1}%{}",
                r.metric,
                fmt_v(r.a),
                fmt_v(r.b),
                r.delta_pct,
                if r.regression { "  REGRESSION" } else { "" }
            );
        }
        for s in &skipped {
            println!("  {s:<42} (present in only one file; skipped)");
        }
        println!(
            "{regressions} regression(s) past the ±{threshold}% threshold over {} metrics",
            rows.len()
        );
    }
    if regressions > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(args.get(1).map(String::as_str)),
        Some("id") => id(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => println!("{USAGE}"),
        Some(other) => fail(&format!(
            "unknown subcommand \"{other}\"; valid: list, id, run, trace, stats, diff, replay"
        )),
    }
}

//! The four benchmark workloads.
//!
//! Each one turns the command-line seed into fixed scenario strings
//! ([`setup`], the part timed as `setup_s`), then runs one pass through
//! the public APIs ([`Prepared::pass`], the part timed as `run_s`) and
//! checks what the pass produced. A pass runs a calibration slice
//! between its steps (see `calib.rs`), outside every span.
//!
//! Why these four (the same reasons are stored in `BENCHMARK.json`):
//!
//! * `paper`: the fig04_underload matrix as users regenerate a figure;
//!   host time goes to the frequency model, probes, ticks and CFS forks.
//! * `scale1024`: one 1024-core machine, where the O(n_cores) power and
//!   Nest scan paths dominate.
//! * `serve_fleet`: a 4-host fleet with retries, hedging and a host
//!   crash; the co-simulation driver and serve set-up dominate.
//! * `replay`: pause, snapshot, restore and resume serve cells, then
//!   round-trip the summaries through the harness cache codec; the JSON
//!   parser and snapshot codec dominate.

use std::collections::BTreeMap;

use nest_core::{
    run_once, run_seed, run_until, Progress, RunResult, RunSummary, SimConfig, Topology,
};
use nest_harness::cache::{summary_from_json, summary_to_json};
use nest_harness::{json, Cache, Matrix};
use nest_metrics::FleetMetrics;
use nest_scenario::Scenario;
use nest_workloads::Workload;

use crate::calib;
use crate::trace::span;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper", "scale1024", "serve_fleet", "replay"];

/// Runs per scheduler setup in the `paper` matrix. One run keeps a pass
/// short, so a run holds many passes.
const PAPER_RUNS: usize = 1;
const PAPER_PAIRS: [(&str, &str); 4] = [
    ("cfs", "schedutil"),
    ("cfs", "performance"),
    ("nest", "schedutil"),
    ("nest", "performance"),
];

const SCALE_MACHINE: &str = "synth:sockets=8,ccx=8,cores=16,numa=ring";
const SCALE_POLICIES: [&str; 2] = ["nest", "nest:domain=ccx"];
/// `fig_scale`'s 1024-core schbench load (64 message threads, 15 workers
/// each), with fewer requests per worker so that one pass stays short.
const SCALE_WORKLOAD: &str = "schbench:mt=64,w=15,requests=10";

const FLEET_WORKLOAD: &str = "fleet:hosts=4,lb=warmth,retry=3,timeout=3ms,hedge=p95,\
                              hostdown=1@100ms:100ms+serve:rate=4000,dist=lognorm,requests=1500";

/// The `replay` cell and its pause point. Early in the run the snapshot
/// holds nearly every request as a pending arrival, so its size (about
/// 350 KB) barely moves with the seed; that size makes one restore take
/// about a second on a 2-vCPU host at the revision that introduced this
/// benchmark, with JSON parsing dominating. A narrow service-time spread
/// keeps the modelled p99 steady from seed to seed.
const REPLAY_WORKLOAD: &str = "serve:rate=2000,dist=lognorm,sigma=0.3,requests=600";
/// 10 ms into the 300 ms arrival window.
const REPLAY_PAUSE_NS: u64 = 10_000_000;

/// The modelled outputs a user of the simulator reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sim {
    /// Modelled completion time, simulated seconds.
    pub time_s: f64,
    /// Modelled CPU energy, joules.
    pub energy_j: f64,
    /// Modelled p99 latency, simulated milliseconds.
    pub p99_ms: f64,
    /// Modelled completions per simulated second.
    pub goodput_per_s: f64,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Simulation cells run (each one is checked).
    pub cells: u64,
    /// Cells whose checks failed.
    pub failed: u64,
    /// The pass's simulated outputs.
    pub sim: Sim,
    /// Digest of every simulated output; equal across passes of one run.
    pub digest: u64,
    /// Exact per-layer work counts of this workload.
    pub counts: BTreeMap<&'static str, f64>,
}

/// A workload whose inputs are built and ready to run.
pub trait Prepared {
    /// Runs one pass and checks its results.
    fn pass(&self) -> Pass;
}

/// Builds workload `name`'s inputs from `seed` (`None` for an unknown
/// name).
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Prepared>> {
    Some(match name {
        "paper" => Box::new(Paper::new(seed)),
        "scale1024" => Box::new(Scale::new(seed)),
        "serve_fleet" => Box::new(Fleet::new(seed)),
        "replay" => Box::new(Replay::new(seed)),
        _ => return None,
    })
}

/// FNV-1a over 64-bit words: an exact fingerprint of simulated outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        self.add_bytes(&v.to_le_bytes());
    }

    fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    fn add_summary(&mut self, s: &RunSummary) {
        self.add_f64(s.time_s);
        self.add_f64(s.energy_j);
        self.add_f64(s.underload_per_s);
        self.add(s.total_underload);
        self.add(s.total_tasks as u64);
        self.add(s.total_placements());
        self.add(s.latency.p99_ns.unwrap_or(u64::MAX));
        self.add(s.latency.samples as u64);
    }
}

fn scenario(machine: &str, policy: &str, workload: &str, seed: u64) -> Scenario {
    Scenario::parse(machine, policy, "schedutil", workload)
        .unwrap_or_else(|e| panic!("benchmark scenario invalid: {e}"))
        .with_seed(seed)
}

/// The always-on checks every single-host or fleet result must pass:
/// no kernel-state invariant broken, the phase identity intact, and the
/// run neither aborted nor cut short by the horizon.
fn result_ok(r: &RunResult) -> bool {
    r.invariants.violations == 0
        && r.phases.identity_violations == 0
        && !r.aborted
        && !r.hit_horizon
}

fn ns_to_ms(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e6)
}

// ---- paper ----------------------------------------------------------------

/// The fig04_underload matrix: the four paper machines × the configure
/// suite × CFS/Nest under schedutil and performance, one harness job,
/// cache off. Each machine's scheduler setup is one `Matrix`, so that
/// calibration slices can run between them; cell seeds hash the cell's
/// coordinates, so the cells are the same as in one matrix.
struct Paper {
    matrices: Vec<Matrix>,
}

impl Paper {
    fn new(seed: u64) -> Paper {
        let members = nest_scenario::suite_members("configure").expect("configure is registered");
        let mut matrices = Vec::new();
        for machine in nest_scenario::paper_machine_keys() {
            for (policy, governor) in PAPER_PAIRS {
                let mut matrix = Matrix::new("simbench-paper", seed)
                    .with_jobs(1)
                    .with_cache(Cache::disabled())
                    .with_progress(nest_harness::Progress::quiet())
                    .with_warm_start(None);
                for member in &members {
                    let scenario = {
                        let _s = span("scenario.parse");
                        Scenario::parse(machine, policy, governor, &format!("configure:{member}"))
                            .unwrap_or_else(|e| panic!("benchmark scenario invalid: {e}"))
                            .with_seed(seed)
                            .with_runs(PAPER_RUNS)
                    };
                    matrix
                        .add_scenarios(&[scenario])
                        .unwrap_or_else(|e| panic!("benchmark scenario block invalid: {e}"));
                }
                matrices.push(matrix);
            }
        }
        Paper { matrices }
    }
}

impl Prepared for Paper {
    fn pass(&self) -> Pass {
        let mut d = Digest::new();
        let (mut time_s, mut energy_j, mut tasks) = (0.0, 0.0, 0u64);
        let mut p99s = Vec::new();
        let (mut cells, mut failed, mut cells_failed) = (0u64, 0u64, 0u64);
        for matrix in &self.matrices {
            let (comparisons, telemetry) = {
                let _s = span("harness.matrix");
                matrix.run()
            };
            calib::slice();
            for s in comparisons
                .iter()
                .flat_map(|c| &c.rows)
                .flat_map(|r| &r.runs)
            {
                d.add_summary(s);
                time_s += s.time_s;
                energy_j += s.energy_j;
                tasks += s.total_tasks as u64;
                p99s.extend(s.latency.p99_ns);
            }
            let mut bad = telemetry.failures.len() as u64 + telemetry.cells_aborted as u64;
            if telemetry.invariants.violations > 0
                || !telemetry.invariants.completed
                || telemetry.phase_metrics.identity_violations > 0
            {
                // Merged telemetry cannot name the cell; count at least one.
                bad = bad.max(1);
            }
            cells += telemetry.cells_total as u64;
            failed += bad;
            cells_failed += telemetry.failures.len() as u64;
        }
        let mut counts = BTreeMap::new();
        counts.insert("harness.cells_failed", cells_failed as f64);
        Pass {
            cells,
            failed,
            sim: Sim {
                time_s,
                energy_j,
                p99_ms: p99s.iter().sum::<u64>() as f64 / p99s.len() as f64 / 1e6,
                goodput_per_s: tasks as f64 / time_s,
            },
            digest: d.0,
            counts,
        }
    }
}

// ---- scale1024 ------------------------------------------------------------

/// Nest and domain-local Nest on a 1024-core synthetic machine.
struct Scale {
    cells: Vec<(SimConfig, Box<dyn Workload>)>,
}

impl Scale {
    fn new(seed: u64) -> Scale {
        let cells: Vec<(SimConfig, Box<dyn Workload>)> = {
            let _s = span("scenario.parse");
            SCALE_POLICIES
                .iter()
                .map(|p| {
                    let s = scenario(SCALE_MACHINE, p, SCALE_WORKLOAD, seed);
                    (s.sim_config(), s.build_workload())
                })
                .collect()
        };
        let topo = {
            let _s = span("topology.build");
            Topology::new(cells[0].0.machine.clone())
        };
        assert_eq!(topo.n_cores(), 1024, "scale1024 runs on 1024 cores");
        Scale { cells }
    }
}

impl Prepared for Scale {
    fn pass(&self) -> Pass {
        let mut d = Digest::new();
        let mut pass = Pass::default();
        let (mut tasks, mut p99_sum) = (0u64, 0.0);
        for (cfg, wl) in &self.cells {
            let r = {
                let _s = span("core.run_once");
                run_once(cfg, wl.as_ref())
            };
            calib::slice();
            let s = {
                let _s = span("metrics.summarize");
                r.summarize()
            };
            d.add_summary(&s);
            d.add(r.decision.migrations);
            pass.cells += 1;
            pass.failed += u64::from(!result_ok(&r));
            pass.sim.time_s += s.time_s;
            pass.sim.energy_j += s.energy_j;
            tasks += s.total_tasks as u64;
            p99_sum += ns_to_ms(s.latency.p99_ns);
        }
        pass.sim.p99_ms = p99_sum / self.cells.len() as f64;
        pass.sim.goodput_per_s = tasks as f64 / pass.sim.time_s;
        pass.digest = d.0;
        pass
    }
}

// ---- serve_fleet ----------------------------------------------------------

/// Fleet runs per pass. One run's host cost moves with the seed (hedges
/// and timeouts are costly and their count is random), so a pass runs
/// several short runs with seeds derived from the command-line seed.
const FLEET_RUNS: u64 = 8;

/// A 4-host fleet on 5218 under Nest: warmth-aware balancing, retries,
/// timeouts, p95 hedging and one host crash, over a lognormal stream.
struct Fleet {
    runs: Vec<(SimConfig, Box<dyn Workload>)>,
    requests: u64,
}

impl Fleet {
    fn new(seed: u64) -> Fleet {
        let runs: Vec<(SimConfig, Box<dyn Workload>)> = {
            let _s = span("scenario.parse");
            (0..FLEET_RUNS)
                .map(|k| {
                    let s = scenario("5218", "nest", FLEET_WORKLOAD, run_seed(seed, k as usize));
                    (s.sim_config(), s.build_workload())
                })
                .collect()
        };
        {
            let _s = span("topology.build");
            std::hint::black_box(Topology::new(runs[0].0.machine.clone()));
        }
        let requests = {
            let _s = span("serve.materialize");
            runs.iter()
                .flat_map(|(cfg, wl)| {
                    wl.serve_specs()
                        .into_iter()
                        .enumerate()
                        .map(|(plan, spec)| nest_serve::materialize(&spec, plan, cfg.seed).len())
                })
                .sum::<usize>() as u64
        };
        Fleet { runs, requests }
    }
}

impl Prepared for Fleet {
    fn pass(&self) -> Pass {
        let mut d = Digest::new();
        let mut merged = FleetMetrics::default();
        let mut pass = Pass::default();
        for (cfg, wl) in &self.runs {
            let r = {
                let _s = span("fleet.run");
                run_once(cfg, wl.as_ref())
            };
            calib::slice();
            let s = {
                let _s = span("metrics.summarize");
                r.summarize()
            };
            let f = &r
                .fleet
                .as_ref()
                .expect("fleet workloads return fleet stats")
                .metrics;
            d.add_summary(&s);
            for v in [
                f.offered,
                f.completed,
                f.failed,
                f.shed,
                f.timeouts,
                f.retries,
                f.hedges,
                f.hedge_wins,
                f.crashes,
                f.restarts,
                f.in_flight_lost,
                f.time_to_warm_ns_total,
            ] {
                d.add(v);
            }
            for q in [0.5, 0.99, 0.999] {
                d.add(f.hist.quantile(q).unwrap_or(u64::MAX));
            }
            // Every offered request ends exactly one way.
            let identity = f.completed + f.failed + f.shed == f.offered;
            pass.cells += 1;
            pass.failed += u64::from(!(result_ok(&r) && identity));
            pass.sim.time_s += r.time_s;
            pass.sim.energy_j += r.energy_j;
            merged.merge(f);
        }
        pass.failed += u64::from(merged.offered != self.requests);
        pass.sim.p99_ms = ns_to_ms(merged.hist.quantile(0.99));
        pass.sim.goodput_per_s = merged.goodput_per_s().unwrap_or(f64::NAN);
        pass.digest = d.0;
        pass.counts.insert("serve.requests", self.requests as f64);
        pass.counts.insert("fleet.retries", merged.retries as f64);
        pass.counts.insert("fleet.hedges", merged.hedges as f64);
        pass.counts.insert(
            "fleet.hedge_win_ratio",
            merged.hedge_wins as f64 / merged.hedges.max(1) as f64,
        );
        pass
    }
}

// ---- replay ---------------------------------------------------------------

/// Replay cells per pass. The snapshot's size, and so the cost of
/// parsing it, moves a few percent with the seed, so a pass replays
/// cells with seeds derived from the command-line seed.
const REPLAY_CELLS: usize = 2;

/// `serve:` cells on 5218 under Nest, each run straight through and also
/// paused, snapshotted, restored and resumed.
struct Replay {
    cells: Vec<ReplayCell>,
}

struct ReplayCell {
    scenario: Scenario,
    cfg: SimConfig,
    workload: Box<dyn Workload>,
}

impl Replay {
    fn new(seed: u64) -> Replay {
        let _s = span("scenario.parse");
        let cells = (0..REPLAY_CELLS)
            .map(|k| {
                let scenario = scenario("5218", "nest", REPLAY_WORKLOAD, run_seed(seed, k));
                ReplayCell {
                    cfg: scenario.sim_config(),
                    workload: scenario.build_workload(),
                    scenario,
                }
            })
            .collect();
        Replay { cells }
    }
}

/// Encodes `s` with the harness cache codec, decodes it back and
/// re-encodes it; `None` if the round trip changes a byte.
fn codec_round_trip(s: &RunSummary) -> Option<String> {
    let _s = span("harness.codec");
    let text = summary_to_json(s).to_pretty();
    let back = summary_from_json(&json::parse(&text).ok()?)?;
    (summary_to_json(&back).to_pretty() == text).then_some(text)
}

impl Prepared for Replay {
    /// Sums the cells' times, energies and counts; averages their p99s
    /// and goodputs.
    fn pass(&self) -> Pass {
        let mut d = Digest::new();
        let mut pass = Pass::default();
        for cell in &self.cells {
            let c = cell.run();
            d.add(c.digest);
            pass.cells += c.cells;
            pass.failed += c.failed;
            pass.sim.time_s += c.sim.time_s;
            pass.sim.energy_j += c.sim.energy_j;
            pass.sim.p99_ms += c.sim.p99_ms / REPLAY_CELLS as f64;
            pass.sim.goodput_per_s += c.sim.goodput_per_s / REPLAY_CELLS as f64;
            for (name, v) in c.counts {
                *pass.counts.entry(name).or_insert(0.0) += v;
            }
        }
        pass.digest = d.0;
        pass
    }
}

impl ReplayCell {
    fn run(&self) -> Pass {
        let wl = self.workload.as_ref();
        let identity = self.scenario.identity();
        let straight = {
            let _s = span("core.run_once");
            run_once(&self.cfg, wl)
        };
        let paused = {
            let _s = span("snapshot.run_until");
            match run_until(
                &self.cfg,
                wl,
                nest_simcore::Time::from_nanos(REPLAY_PAUSE_NS),
            ) {
                Progress::Paused(p) => p,
                Progress::Done(_) => panic!("the replay cell finishes before its pause point"),
            }
        };
        let text = {
            let _s = span("snapshot.encode");
            paused
                .snapshot(&identity, self.scenario.to_json())
                .expect("serve cells support snapshots")
        };
        let header_ok = {
            // What `nest-sim replay --from` reads before restoring: the
            // header and the embedded scenario.
            let _s = span("json.parse");
            json::parse(&text).is_ok_and(|doc| {
                let events = doc.get("nest_snapshot").and_then(|h| h.get("events"));
                let scenario = doc.get("scenario").map(Scenario::from_json);
                events.and_then(|e| e.as_u64()) == Some(paused.events_dispatched())
                    && matches!(scenario, Some(Ok(s)) if s == self.scenario)
            })
        };
        drop(paused);
        calib::slice();
        let restored = {
            let _s = span("snapshot.restore");
            nest_core::restore(&self.cfg, wl, &text, &identity).expect("own snapshot restores")
        };
        calib::slice();
        let resumed = {
            let _s = span("snapshot.resume");
            restored.resume()
        };
        let (s0, s1) = {
            let _s = span("metrics.summarize");
            (straight.summarize(), resumed.summarize())
        };
        let (c0, c1) = (codec_round_trip(&s0), codec_round_trip(&s1));
        // The resumed run must be byte-equal to the straight run.
        let same = c0.is_some() && c0 == c1;
        let serve = s1.serve.clone().unwrap_or_default();
        let mut d = Digest::new();
        d.add_summary(&s1);
        d.add_bytes(text.as_bytes());
        for v in [serve.offered, serve.completed, serve.within_slo] {
            d.add(v);
        }
        let mut counts = BTreeMap::new();
        counts.insert("snapshot.bytes", text.len() as f64);
        counts.insert("serve.requests", serve.offered as f64);
        Pass {
            cells: 2,
            failed: u64::from(!result_ok(&straight))
                + u64::from(!(result_ok(&resumed) && header_ok && same)),
            sim: Sim {
                time_s: s1.time_s,
                energy_j: s1.energy_j,
                p99_ms: ns_to_ms(serve.p99_ns),
                goodput_per_s: serve.goodput_per_s.unwrap_or(f64::NAN),
            },
            digest: d.0,
            counts,
        }
    }
}

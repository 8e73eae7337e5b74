//! The repository's benchmark: four workloads driven through the stack's
//! public API from outside it, every output checked, end-to-end metrics
//! from untraced runs and per-layer metrics from traced ones.
//!
//! Layers are named after the crates and modules they live in
//! (`simnet.fabric`, `core.qp`, `socket`, `apps.sip`, …). Per-layer
//! numbers come from two sources only: spans the benchmark records around
//! its own calls into a layer ([`span`]), and deltas of the stack's public
//! telemetry [`iwarp_telemetry::Snapshot`]. Nothing is instrumented
//! inside the stack, and no process-wide default or A/B knob is set: the
//! benchmark measures what `::default()` gives.

pub mod data;
pub mod layers;
pub mod probe;
pub mod reliable;
pub mod report;
pub mod sip;
pub mod small_rpc;
pub mod span;
pub mod ud_stream;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use iwarp_telemetry::Snapshot;

use crate::data::Plant;
use crate::probe::Lats;
use crate::span::Trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "small_rpc",
    "ud_stream_lossy",
    "reliable_lossy",
    "sip_calls",
];

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUPS: usize = 11;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// Measured time (split in thirds, untraced/traced/untraced, under
    /// `trace`).
    pub seconds: f64,
    pub trace: bool,
    pub plant: Plant,
}

/// What one measured phase of a workload observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed a correctness check (content, order, status).
    pub failed: u64,
    /// Ops that delivered at least one verified byte (for SIP: calls set
    /// up and torn down with 200s).
    pub delivered: u64,
    /// Per-op latency, µs, by op class.
    pub lat: Lats,
    /// Verified payload bytes.
    pub verified_bytes: u64,
    /// Payload bytes handed to the stack.
    pub posted_bytes: u64,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// The workload's throughput figure (ops resolved per second; for SIP
    /// the highest ladder rung that met its limit).
    pub ops_per_s: f64,
    /// Ops concurrently in flight at the memory sample.
    pub in_flight: f64,
    /// memacct-tracked bytes at the memory sample.
    pub mem_tracked: u64,
    /// RSS growth up to the memory sample; a phase that takes no sample
    /// leaves it 0 and gets the whole run's growth.
    pub rss_delta: f64,
    pub threads: u64,
    /// Telemetry delta over the phase.
    pub snap: Snapshot,
    /// Workload-specific per-layer values (`gen.lag_us_p99`, `mem.*`, …).
    pub layer: BTreeMap<String, f64>,
    /// Per-workload figures and context for the report file.
    pub cells: Vec<(String, f64, &'static str)>,
    /// The first few failed checks, described.
    pub errors: Vec<String>,
    pub trace: Trace,
}

impl Phase {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    pub fn cell(&mut self, name: &str, value: f64, unit: &'static str) {
        self.cells.push((name.to_string(), value, unit));
    }

    /// Adds the latency cells `<prefix>_p50`/`_p99` and each
    /// class's p50/p90/p99.
    pub fn lat_cells(&mut self, prefix: &str) {
        let (p50, p99) = (self.lat.p50(), self.lat.tail(0.99));
        self.cell(&format!("{prefix}_p50"), p50, "us");
        self.cell(&format!("{prefix}_p99"), p99, "us");
        for (class, l) in self.lat.classes.clone() {
            self.cell(&format!("{class}_lat_us_p50"), l.p(0.5), "us");
            self.cell(&format!("{class}_lat_us_p90"), l.tail(0.9), "us");
            self.cell(&format!("{class}_lat_us_p99"), l.tail(0.99), "us");
            self.cell(&format!("{class}_lat_samples"), l.count() as f64, "count");
        }
    }
}

/// A workload run: its set-up times and measured phases.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// One untraced phase, or untraced/traced/untraced thirds.
    pub phases: Vec<Phase>,
    /// Fabric conservation checks that failed.
    pub conservation: Vec<String>,
}

impl Outcome {
    pub fn untraced(&self) -> Vec<&Phase> {
        self.phases.iter().filter(|p| !p.traced).collect()
    }

    pub fn traced(&self) -> Option<&Phase> {
        self.phases.iter().find(|p| p.traced)
    }
}

/// Runs one workload on a rig: builds it (timed), runs the phases on
/// it, checks fabric conservation, then times `SETUPS - 1` more builds.
/// Those extra rigs stay alive until all are timed: a rig torn down
/// before the next is built hands its memory back to the allocator,
/// whose reuse policy (not the stack) would then set the next set-up's
/// cost. They are built after the phases so RSS figures see one rig.
pub fn run_rig<R>(
    cfg: &RunCfg,
    mut build: impl FnMut() -> Result<R, String>,
    fabric: impl Fn(&R) -> &simnet::Fabric,
    mut phase: impl FnMut(&R, Duration, bool) -> Result<Phase, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut timed_build = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let rig = build()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<R, String>(rig)
    };
    let rss0 = probe::rss_bytes();
    let rig = timed_build(&mut setup_s)?;
    let mut phases = run_phases(cfg, |d, traced| phase(&rig, d, traced))?;
    let rss = probe::rss_bytes().saturating_sub(rss0) as f64;
    for p in &mut phases {
        if p.rss_delta == 0.0 {
            p.rss_delta = rss;
        }
    }
    let conservation = check_conservation(&fabric(&rig).telemetry().snapshot())
        .into_iter()
        .collect();
    let mut more = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        more.push(timed_build(&mut setup_s)?);
    }
    drop(more);
    Ok(Outcome {
        setup_s,
        phases,
        conservation,
    })
}

/// Runs `phase` once untraced, or three times on the same rig with a
/// third of the time each: untraced, traced, untraced. Comparing the
/// traced third with the mean of the two around it gives the tracing
/// overhead with linear drift cancelled.
pub fn run_phases(
    cfg: &RunCfg,
    mut phase: impl FnMut(Duration, bool) -> Result<Phase, String>,
) -> Result<Vec<Phase>, String> {
    let plan: &[bool] = if cfg.trace {
        &[false, true, false]
    } else {
        &[false]
    };
    let d = Duration::from_secs_f64(cfg.seconds / plan.len() as f64);
    plan.iter()
        .map(|&traced| {
            let mut p = phase(d, traced)?;
            p.traced = traced;
            Ok(p)
        })
        .collect()
}

/// The conservation identity of a lossless-or-Bernoulli fabric with no
/// fault plan: every transmitted packet is delivered or counted dropped.
pub fn check_conservation(snap: &Snapshot) -> Option<String> {
    let g = |n: &str| snap.get(n).unwrap_or(0);
    let tx = g("simnet.fabric.tx_packets");
    let out = g("simnet.fabric.delivered")
        + g("simnet.fabric.dropped_loss")
        + g("simnet.fabric.dropped_unreachable");
    (tx != out)
        .then(|| format!("fabric conservation: tx_packets {tx} != delivered + dropped {out}"))
}

/// Measures one phase's process-level context: CPU, wall time, threads.
pub struct Meter {
    t0: Instant,
    cpu0: f64,
    snap0: Snapshot,
}

impl Meter {
    pub fn start(tel: &iwarp_telemetry::Telemetry) -> Self {
        Self {
            t0: Instant::now(),
            cpu0: probe::cpu_seconds(),
            snap0: tel.snapshot(),
        }
    }

    /// Fills the phase's elapsed time, CPU time, thread count and
    /// telemetry delta.
    pub fn finish(&self, tel: &iwarp_telemetry::Telemetry, p: &mut Phase) {
        p.elapsed_s = self.t0.elapsed().as_secs_f64();
        p.cpu_s = probe::cpu_seconds() - self.cpu0;
        p.threads = probe::threads();
        p.snap = tel.snapshot().delta(&self.snap0);
    }
}

/// A device with the default configuration, except that its per-QP and
/// per-connection state is accounted in `mem` (what `mem_per_op_bytes`
/// reads).
pub fn accounted_device(
    fabric: &simnet::Fabric,
    node: u16,
    mem: &iwarp_common::memacct::MemRegistry,
) -> iwarp::Device {
    let cfg = iwarp::DeviceConfig {
        mem: Some(mem.clone()),
        ..iwarp::DeviceConfig::default()
    };
    iwarp::Device::with_config(fabric, simnet::NodeId(node), cfg)
}

/// Dispatches a workload by name.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "small_rpc" => small_rpc::run(cfg),
        "ud_stream_lossy" => ud_stream::run(cfg),
        "reliable_lossy" => reliable::run(cfg),
        "sip_calls" => sip::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

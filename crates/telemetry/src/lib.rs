//! Stack-wide observability for the datagram-iWARP reproduction.
//!
//! The paper's whole evaluation story is loss-dependent behaviour —
//! buffer recovery on datagram loss, Write-Record partial placement, the
//! 64 KiB fragmentation cliff — and none of it is assertable from
//! end-of-run throughput numbers alone. This crate gives every layer one
//! shared, cheap place to count what actually happened on the wire:
//!
//! - [`Telemetry`]: a cloneable handle created per [`simnet`] fabric and
//!   threaded down through devices, QPs, and the socket shim. Not a
//!   global: tests run concurrently in one process, and per-fabric
//!   isolation is what keeps seeded runs reproducible.
//! - [`Counter`]: lock-free named counters (`simnet.fabric.pkts_dropped`,
//!   `core.qp.wr_record.partial_placements`, …). Handles are resolved
//!   once and cached by the instrumented layer, so the per-packet cost is
//!   a single relaxed `fetch_add`.
//! - [`Histogram`]: fixed 64-bucket log2 histograms for message sizes and
//!   latencies. Bucketing is deterministic, so snapshots reproduce under
//!   a seed.
//! - [`Tracer`]: a bounded ring buffer of per-packet events
//!   (enqueue/tx/rx/drop/retransmit/placement/CQE), enabled per endpoint
//!   and near-zero-cost when off (one relaxed load). Dump it when a lossy
//!   test fails to see the packet timeline instead of re-deriving it.
//! - [`Snapshot`]: point-in-time export of everything above (plus
//!   [`iwarp_common::memacct`] scopes) to text or CSV, with `delta` for
//!   before/after comparisons.
//!
//! `simnet`, `core`, and `socket` are instrumented out of the box; the
//! `figures` binary's `--telemetry` flag writes a counter CSV next to
//! every figure CSV. Counter names are documented in the README's
//! Observability section.

#![warn(missing_docs)]

mod counters;
mod hist;
mod snapshot;
mod trace;

pub use counters::Counter;
pub use hist::Histogram;
pub use snapshot::Snapshot;
pub use trace::{EndpointId, EventKind, PacketEvent, TraceDump, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use iwarp_common::memacct::MemRegistry;
use iwarp_common::pool::PoolStats;
use iwarp_common::slab::SlabStats;
use parking_lot::RwLock;

use counters::Registry;

/// Shared observability state for one fabric and everything built on it.
///
/// Cloning is cheap (an `Arc` bump); every layer of the stack holds a
/// clone and resolves its counter/histogram handles once at setup time.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

struct Inner {
    counters: Registry<Counter>,
    histograms: Registry<Histogram>,
    tracer: Tracer,
    /// Wall-clock origin so event timestamps are small and monotonic.
    epoch: Instant,
    /// Manual clock override for deterministic tests (nanoseconds).
    manual_nanos: AtomicU64,
    manual: std::sync::atomic::AtomicBool,
    /// Memory registries folded into snapshots alongside the counters.
    mem: RwLock<Vec<MemRegistry>>,
    /// Buffer-pool stats folded into snapshots under `pool.*` (summed if
    /// several pools are attached to one domain).
    pools: RwLock<Vec<PoolStats>>,
    /// Slab-allocator stats folded into snapshots under `mem.slab.*`
    /// (summed if several slab-stat handles are attached to one domain).
    slabs: RwLock<Vec<SlabStats>>,
}

impl Telemetry {
    /// Creates an empty telemetry domain (normally done by
    /// `simnet::Fabric::new`; everything downstream clones the fabric's).
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                counters: Registry::new(),
                histograms: Registry::new(),
                tracer: Tracer::new(trace::DEFAULT_CAPACITY),
                epoch: Instant::now(),
                manual_nanos: AtomicU64::new(0),
                manual: std::sync::atomic::AtomicBool::new(false),
                mem: RwLock::new(Vec::new()),
                pools: RwLock::new(Vec::new()),
                slabs: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Resolves (creating on first use) the counter named `name`.
    ///
    /// Dotted lower-case names, `subsystem.component.event`, e.g.
    /// `simnet.fabric.tx_packets`. Resolve once, cache the handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.counters.get_or_insert(name, Counter::new)
    }

    /// Resolves (creating on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.histograms.get_or_insert(name, Histogram::new)
    }

    /// Spawns a named stack thread counted in this domain: the
    /// monotonic `core.threads.spawned` and the gauge
    /// `core.threads.live`, which drops when the thread body returns or
    /// unwinds. Tests assert on these instead of process-wide procfs
    /// thread counts, which sibling tests perturb.
    pub fn spawn<F, T>(&self, name: String, f: F) -> std::io::Result<std::thread::JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        struct Live(Counter);
        impl Drop for Live {
            fn drop(&mut self) {
                self.0.sub(1);
            }
        }
        let live = self.counter("core.threads.live");
        live.inc();
        let guard = Live(live);
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            let _live = guard;
            f()
        })?;
        self.counter("core.threads.spawned").inc();
        Ok(handle)
    }

    /// The packet-event tracer shared by every layer in this domain.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Nanoseconds since this domain was created (or the manual clock
    /// value when one has been installed for a deterministic test).
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        if self.inner.manual.load(Ordering::Relaxed) {
            self.inner.manual_nanos.load(Ordering::Relaxed)
        } else {
            self.inner.epoch.elapsed().as_nanos() as u64
        }
    }

    /// Switches this domain to a manually advanced clock (for tests that
    /// need bit-identical latency histograms run-to-run).
    pub fn set_manual_clock(&self, nanos: u64) {
        self.inner.manual_nanos.store(nanos, Ordering::Relaxed);
        self.inner.manual.store(true, Ordering::Relaxed);
    }

    /// Registers a memory-accounting registry whose scopes appear in
    /// every [`Snapshot`] under `mem.<scope>.{current,peak}`.
    pub fn attach_mem(&self, reg: MemRegistry) {
        self.inner.mem.write().push(reg);
    }

    /// Registers a buffer pool whose hit/miss/recycle counters appear in
    /// every [`Snapshot`] as `pool.{hits,misses,recycled}` (summed when
    /// several pools share the domain). The datapath's `pool.bytes_copied`
    /// counter lives in the ordinary counter registry; together they make
    /// copy elimination measurable.
    pub fn attach_pool(&self, stats: PoolStats) {
        self.inner.pools.write().push(stats);
    }

    /// Registers a slab-allocator stats handle whose counters and gauges
    /// appear in every [`Snapshot`] as
    /// `mem.slab.{allocs,frees,reuses,stale_rejected,live,slots}` (summed
    /// when several handles share the domain). `live`/`slots` are gauges —
    /// `live / slots` is slab occupancy, the health ratio the scale bench
    /// reports at each ramp checkpoint.
    pub fn attach_slab(&self, stats: SlabStats) {
        self.inner.slabs.write().push(stats);
    }

    /// Captures the current value of every counter, histogram, and
    /// attached memory scope.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        for (name, c) in self.inner.counters.iter_entries() {
            entries.push((name, c.get()));
        }
        for (name, h) in self.inner.histograms.iter_entries() {
            h.export(&name, &mut entries);
        }
        for reg in self.inner.mem.read().iter() {
            for (scope, current, peak) in reg.snapshot() {
                entries.push((format!("mem.{scope}.current"), current));
                entries.push((format!("mem.{scope}.peak"), peak));
            }
        }
        {
            let pools = self.inner.pools.read();
            if !pools.is_empty() {
                let (mut hits, mut misses, mut recycled) = (0u64, 0u64, 0u64);
                let (mut retained, mut in_flight) = (0u64, 0u64);
                for p in pools.iter() {
                    hits += p.hits();
                    misses += p.misses();
                    recycled += p.recycled();
                    retained += p.retained_bytes();
                    in_flight += p.lent_bytes();
                }
                entries.push(("pool.hits".into(), hits));
                entries.push(("pool.misses".into(), misses));
                entries.push(("pool.recycled".into(), recycled));
                // Reported separately on purpose: retained is pool
                // overhead (free-listed storage), in_flight is datapath
                // working set lent out as live `Bytes`. Summing them —
                // or adding either to `mem.*` scopes that already track
                // the consumer — double-counts.
                entries.push(("pool.retained_bytes".into(), retained));
                entries.push(("pool.in_flight_bytes".into(), in_flight));
            }
        }
        {
            let slabs = self.inner.slabs.read();
            if !slabs.is_empty() {
                let mut sums = [0u64; 6];
                for s in slabs.iter() {
                    sums[0] += s.allocs();
                    sums[1] += s.frees();
                    sums[2] += s.reuses();
                    sums[3] += s.stale_rejected();
                    sums[4] += s.live();
                    sums[5] += s.slots();
                }
                let names = [
                    "mem.slab.allocs",
                    "mem.slab.frees",
                    "mem.slab.reuses",
                    "mem.slab.stale_rejected",
                    "mem.slab.live",
                    "mem.slab.slots",
                ];
                for (name, v) in names.iter().zip(sums) {
                    entries.push(((*name).into(), v));
                }
            }
        }
        entries.sort();
        Snapshot::from_entries(entries)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("counters", &self.inner.counters.len())
            .field("histograms", &self.inner.histograms.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::new();
        let c = t.counter("a.b.c");
        c.inc();
        c.add(4);
        // Same name resolves to the same underlying cell.
        t.counter("a.b.c").inc();
        assert_eq!(t.counter("a.b.c").get(), 6);
        let snap = t.snapshot();
        assert_eq!(snap.get("a.b.c"), Some(6));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn snapshot_folds_memacct() {
        let t = Telemetry::new();
        let reg = MemRegistry::new();
        let guard = reg.track("sip_call", 1024);
        t.attach_mem(reg);
        let snap = t.snapshot();
        assert_eq!(snap.get("mem.sip_call.current"), Some(1024));
        assert_eq!(snap.get("mem.sip_call.peak"), Some(1024));
        drop(guard);
    }

    #[test]
    fn snapshot_folds_slab_and_pool_bytes() {
        let t = Telemetry::new();
        let stats = SlabStats::new();
        let mut slab = iwarp_common::slab::Slab::new().with_stats(stats.clone());
        t.attach_slab(stats);
        let a = slab.insert(7u64);
        let _b = slab.insert(8u64);
        slab.remove(a);
        let snap = t.snapshot();
        assert_eq!(snap.get("mem.slab.allocs"), Some(2));
        assert_eq!(snap.get("mem.slab.frees"), Some(1));
        assert_eq!(snap.get("mem.slab.live"), Some(1));
        assert_eq!(snap.get("mem.slab.slots"), Some(2));

        let pool = iwarp_common::pool::BufPool::new();
        t.attach_pool(pool.stats());
        let buf = pool.get(100); // 128 B class
        let frozen = buf.freeze();
        drop(pool.get(64)); // 64 B class, retained
        let snap = t.snapshot();
        assert_eq!(snap.get("pool.in_flight_bytes"), Some(128));
        assert_eq!(snap.get("pool.retained_bytes"), Some(64));
        drop(frozen);
    }

    #[test]
    fn manual_clock_overrides_wall_clock() {
        let t = Telemetry::new();
        t.set_manual_clock(42);
        assert_eq!(t.now_nanos(), 42);
        t.set_manual_clock(99);
        assert_eq!(t.now_nanos(), 99);
    }

    #[test]
    fn delta_reports_only_changes() {
        let t = Telemetry::new();
        let c = t.counter("x.y");
        c.add(10);
        let before = t.snapshot();
        c.add(5);
        t.counter("x.z").inc();
        let after = t.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.get("x.y"), Some(5));
        assert_eq!(delta.get("x.z"), Some(1));
    }
}

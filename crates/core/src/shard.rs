//! Sharded receive engines: the many-QP scale-out datapath.
//!
//! The per-QP RX thread of the baseline stack ([`QpConfig::poll_mode`]
//! false) is faithful to a 2-node microbenchmark and fatal at the
//! ROADMAP's "millions of users" scale: a thousand concurrent calls
//! would mean a thousand threads, each waking on a 5 ms tick to poll an
//! almost-always-empty queue. A [`ShardMap`] replaces them with a fixed
//! pool of engines: QPs are assigned to shards by hashing their QP
//! number, each shard runs one worker that parks on an inbox condvar,
//! and the fabric's delivery path marks a QP's conduit *ready* in its
//! shard's inbox (via [`simnet::RxNotify`]) instead of waking a
//! dedicated thread. Ready QPs are then drained in batches —
//! [`crate::qp::dgram::rx_drain`] — which is where delivery batching
//! happens: one wakeup serves every packet that queued since the last.
//!
//! Determinism: sharding never reorders *within* a QP (the conduit queue
//! is FIFO and exactly one shard drains it), but interleaves processing
//! *across* QPs nondeterministically. The chaos replay harness therefore
//! keeps its QPs in caller-driven poll mode — equivalent to a single
//! shard serviced in program order — and its byte-identical traces are
//! unaffected by this module (guarded by `tests/chaos.rs`).
//!
//! Lock order (must hold pairwise, never reversed):
//! fabric control → shard inbox → conduit reassembly → RX-core maps
//! → CQ queue → completion channel. The fabric invokes arrival
//! notifiers outside every fabric lock (see DESIGN.md §9), so the first
//! edge never actually nests; it is listed for the audit trail.
//!
//! [`QpConfig::poll_mode`]: crate::qp::QpConfig::poll_mode

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use iwarp_telemetry::{Counter, Telemetry};
use parking_lot::{Condvar, Mutex};

use crate::qp::dgram::{expire_tick, rx_drain, DgInner};

/// Shard-pool configuration (part of
/// [`DeviceConfig`](crate::device::DeviceConfig)).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shard RX engines. `0` disables sharding entirely — QPs
    /// keep their per-QP engine thread (or stay caller-driven in poll
    /// mode), byte-for-byte the pre-scale-out behaviour.
    pub shards: usize,
    /// Datagrams drained per QP per wakeup before the QP is re-queued
    /// behind its shard siblings (fairness bound).
    pub batch: usize,
    /// Housekeeping tick: how long an idle shard worker sleeps between
    /// wake-ups when no QP is ready.
    pub idle_tick: Duration,
    /// Minimum interval between TTL expiry sweeps over the shard's QPs.
    /// Sweeping touches every assigned engine (a Weak upgrade plus a
    /// throttle-lock probe each), so on an idle shard with thousands of
    /// QPs the sweep — not the parked wait — is the CPU floor; it is
    /// therefore rate-limited independently of `idle_tick`. Worst-case
    /// expiry latency grows by this amount on top of the QP TTLs
    /// (default 500 ms), which keeps it well inside the same order.
    pub sweep_every: Duration,
    /// Pin shard worker `i` to CPU core `i % host_cpus` via
    /// [`iwarp_common::affinity::pin_to_core`]. Advisory: on platforms
    /// without `sched_setaffinity` workers run unpinned and the
    /// `core.shard.pinned` counter stays below `shards`. Default off —
    /// pinning helps steady-state scaling benchmarks and hurts
    /// oversubscribed hosts.
    pub pin_cores: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            batch: 64,
            idle_tick: Duration::from_millis(20),
            sweep_every: Duration::from_millis(100),
            pin_cores: false,
        }
    }
}

impl ShardConfig {
    /// A pool of `n` shards with default batching.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        Self {
            shards: n,
            ..Self::default()
        }
    }
}

/// Telemetry handles shared by every shard of a map (`core.shard.*`).
struct ShardTel {
    wakeups: Counter,
    batches: Counter,
    requeues: Counter,
    expiry_sweeps: Counter,
    registered: Counter,
    /// Workers whose `sched_setaffinity` pin actually took effect.
    pinned: Counter,
}

struct ShardState {
    /// Ready QPs in notification order; coalesced via `queued`.
    ready: VecDeque<u32>,
    queued: HashSet<u32>,
    /// Engines assigned to this shard. Weak: the QP owns its engine; a
    /// dead entry is reaped on next touch.
    engines: HashMap<u32, Weak<DgInner>>,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Shard {
    fn mark_ready(&self, qpn: u32) {
        let mut st = self.state.lock();
        if st.queued.insert(qpn) {
            st.ready.push_back(qpn);
            drop(st);
            self.cv.notify_one();
        }
    }
}

/// A pool of shard RX engines plus the QP→shard assignment.
///
/// Created by [`Device::with_config`](crate::device::Device::with_config)
/// when [`ShardConfig::shards`] is non-zero; threaded-mode UD QPs built
/// on that device are then engine-less and drained by their shard.
pub struct ShardMap {
    shards: Vec<Arc<Shard>>,
    cfg: ShardConfig,
    tel: Arc<ShardTel>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardMap {
    /// Spawns `cfg.shards` worker threads (`iwarp-shard-<i>`).
    #[must_use]
    pub fn new(cfg: ShardConfig, telemetry: &Telemetry) -> Arc<Self> {
        let tel = Arc::new(ShardTel {
            wakeups: telemetry.counter("core.shard.wakeups"),
            batches: telemetry.counter("core.shard.batches"),
            requeues: telemetry.counter("core.shard.requeues"),
            expiry_sweeps: telemetry.counter("core.shard.expiry_sweeps"),
            registered: telemetry.counter("core.shard.registered"),
            pinned: telemetry.counter("core.shard.pinned"),
        });
        let shards: Vec<Arc<Shard>> = (0..cfg.shards.max(1))
            .map(|_| {
                Arc::new(Shard {
                    state: Mutex::new(ShardState {
                        ready: VecDeque::new(),
                        queued: HashSet::new(),
                        engines: HashMap::new(),
                    }),
                    cv: Condvar::new(),
                    shutdown: AtomicBool::new(false),
                })
            })
            .collect();
        let workers = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let shard_tel = Arc::clone(&tel);
                let batch = cfg.batch.max(1);
                let tick = cfg.idle_tick;
                let sweep_every = cfg.sweep_every;
                let pin = cfg.pin_cores;
                telemetry
                    .spawn(format!("iwarp-shard-{i}"), move || {
                        if pin && iwarp_common::affinity::pin_to_core(i) {
                            shard_tel.pinned.inc();
                        }
                        worker(&shard, batch, tick, sweep_every, &shard_tel);
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        Arc::new(Self {
            shards,
            cfg,
            tel,
            workers: Mutex::new(workers),
        })
    }

    /// Number of shards in the pool.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a QP number maps to (stable hash, so tests can place
    /// QPs deliberately).
    #[must_use]
    pub fn shard_of(&self, qpn: u32) -> usize {
        (iwarp_common::rng::mix64(u64::from(qpn)) % self.shards.len() as u64) as usize
    }

    /// Assigns `engine` to its shard and installs the conduit's arrival
    /// notifier. Returns `false` (no assignment) when the LLP has no
    /// notify hook — RD QPs keep their own engine thread.
    pub(crate) fn register(self: &Arc<Self>, engine: &Arc<DgInner>) -> bool {
        let qpn = engine.qpn();
        let shard = Arc::clone(&self.shards[self.shard_of(qpn)]);
        let notify_shard = Arc::clone(&shard);
        let hooked = engine.set_notify(Some(Arc::new(move |_addr| {
            notify_shard.mark_ready(qpn);
        })));
        if !hooked {
            return false;
        }
        shard
            .state
            .lock()
            .engines
            .insert(qpn, Arc::downgrade(engine));
        self.tel.registered.inc();
        // Catch anything delivered before the notifier was installed.
        shard.mark_ready(qpn);
        true
    }

    /// Removes a QP from its shard (called on QP drop; the notifier dies
    /// with the conduit's endpoint).
    pub(crate) fn unregister(&self, qpn: u32) {
        let shard = &self.shards[self.shard_of(qpn)];
        let mut st = shard.state.lock();
        st.engines.remove(&qpn);
        st.queued.remove(&qpn);
        st.ready.retain(|q| *q != qpn);
    }

    /// QPs currently assigned across all shards (diagnostic).
    #[must_use]
    pub fn registered(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().engines.len()).sum()
    }

    /// The batch bound workers drain per QP per wakeup.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.cfg.batch.max(1)
    }
}

impl Drop for ShardMap {
    fn drop(&mut self) {
        for s in &self.shards {
            s.shutdown.store(true, Ordering::SeqCst);
            s.cv.notify_one();
        }
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards())
            .field("registered", &self.registered())
            .finish()
    }
}

/// Shard worker body: park on the inbox, drain ready QPs in batches,
/// sweep for expirations when idle (rate-limited to `sweep_every`).
fn worker(shard: &Shard, batch: usize, tick: Duration, sweep_every: Duration, tel: &ShardTel) {
    let mut last_sweep = std::time::Instant::now();
    loop {
        // Claim the next ready QP (or sleep until one appears).
        let claimed = {
            let mut st = shard.state.lock();
            loop {
                if shard.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(qpn) = st.ready.pop_front() {
                    st.queued.remove(&qpn);
                    let eng = st.engines.get(&qpn).and_then(Weak::upgrade);
                    if eng.is_none() {
                        st.engines.remove(&qpn);
                        continue;
                    }
                    break Some((qpn, eng.expect("checked")));
                }
                let timed_out = shard.cv.wait_for(&mut st, tick).timed_out();
                if timed_out && st.ready.is_empty() {
                    break None; // idle tick: housekeeping below
                }
            }
        };
        match claimed {
            Some((qpn, engine)) => {
                tel.wakeups.inc();
                tel.batches.inc();
                if rx_drain(&engine, batch) {
                    // Budget exhausted with more pending: requeue behind
                    // the QP's shard siblings.
                    tel.requeues.inc();
                    shard.mark_ready(qpn);
                }
            }
            None => {
                // Idle: sweep every assigned QP so recv/record/read TTLs
                // fire without traffic. Collect strong refs first — the
                // sweep must run outside the inbox lock.
                if last_sweep.elapsed() < sweep_every {
                    continue;
                }
                last_sweep = std::time::Instant::now();
                tel.expiry_sweeps.inc();
                let engines: Vec<Arc<DgInner>> = {
                    let mut st = shard.state.lock();
                    st.engines.retain(|_, w| w.strong_count() > 0);
                    st.engines.values().filter_map(Weak::upgrade).collect()
                };
                for e in engines {
                    expire_tick(&e);
                }
            }
        }
    }
}

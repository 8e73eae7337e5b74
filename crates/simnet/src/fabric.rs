//! The in-memory switch connecting wire endpoints.
//!
//! A [`Fabric`] plays the role of the paper's testbed network: NICs, the
//! 10GbE switch, and the `tc` loss-injection queue. Endpoints bind
//! [`Addr`]esses and exchange [`WirePacket`]s of at most one MTU; the
//! fabric applies the configured loss model, propagation delay, and
//! link-rate pacing to every packet independently — exactly the layer at
//! which the paper's FIFO drop queue operates.
//!
//! # Concurrency model (see DESIGN.md §9)
//!
//! Every bound destination link owns its entire datapath state: a
//! lock-free [`RingChannel`] delivery ring, its loss-model RNG (seeded
//! `derive_seed(cfg.seed, link_id)` so the draw sequence on one link is
//! independent of traffic on every other link), its [`ChaosState`] fault
//! streams, its pacing clock, and its propagation-delay queue. The hot
//! transmit path on a default fabric (no loss, no chaos, no pacing)
//! touches **zero shared locks**: resolve the destination link through
//! the sender's route cache, push onto the destination's ring, done.
//! Shared state — the address map, multicast groups, the installed fault
//! plan, retired fault traces — lives behind one cold `RwLock` taken
//! only on bind/unbind/group/plan changes and on route-cache misses.
//!
//! Lock order: `control` → `link.tx` / `link.delay` → (leaf). The
//! per-link `notify` RwLock and the pump condvar are leaves. Arrival
//! notifiers always run outside every fabric lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_telemetry::{Counter, EndpointId, EventKind, Histogram, Telemetry};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::SmallRng;

use iwarp_common::pool::BufPool;
use iwarp_common::rng::{derive_seed, small_rng};
use iwarp_common::sg::SgBytes;

use crate::chaos::{ChaosSnapshot, ChaosState, FaultEvent, FaultKind, FaultPlan};
use crate::error::{NetError, NetResult};
use crate::loss::{LossModel, LossState};
use crate::ring::{PopError, PushOutcome, RingChannel};
use crate::wire::{Addr, NodeId, WireConfig, WirePacket, WIRE_HEADER_BYTES};

/// Counters describing fabric activity — used by tests to verify loss
/// rates and by the harness to report wire-level statistics.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Packets handed to the fabric for transmission.
    pub tx_packets: AtomicU64,
    /// Payload bytes handed to the fabric.
    pub tx_bytes: AtomicU64,
    /// Packets dropped by the loss model.
    pub dropped_loss: AtomicU64,
    /// Packets dropped because no endpoint was bound at the destination.
    pub dropped_unreachable: AtomicU64,
    /// Packets delivered to a bound endpoint.
    pub delivered: AtomicU64,
}

impl FabricStats {
    /// Fraction of transmitted packets dropped by the loss model.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        let tx = self.tx_packets.load(Ordering::Relaxed);
        if tx == 0 {
            return 0.0;
        }
        self.dropped_loss.load(Ordering::Relaxed) as f64 / tx as f64
    }
}

/// Telemetry handles the fabric keeps resolved so the per-packet path
/// never touches the registry (counter adds are single relaxed RMWs).
struct FabricTel {
    tel: Telemetry,
    tx_packets: Counter,
    tx_bytes: Counter,
    delivered: Counter,
    dropped_loss: Counter,
    dropped_unreachable: Counter,
    pkts_dropped: Counter,
    pkt_bytes: Histogram,
    /// Packets enqueued onto per-link delivery rings (fast path + spill).
    ring_enqueues: Counter,
    /// Times a producer found a link's lock-free ring full and the packet
    /// took the mutex-guarded overflow spill instead.
    ring_full_retries: Counter,
    /// Ring + spill occupancy observed at each enqueue.
    ring_occupancy: Histogram,
}

impl FabricTel {
    fn new() -> Self {
        let tel = Telemetry::new();
        Self {
            tx_packets: tel.counter("simnet.fabric.tx_packets"),
            tx_bytes: tel.counter("simnet.fabric.tx_bytes"),
            delivered: tel.counter("simnet.fabric.delivered"),
            dropped_loss: tel.counter("simnet.fabric.dropped_loss"),
            dropped_unreachable: tel.counter("simnet.fabric.dropped_unreachable"),
            pkts_dropped: tel.counter("simnet.fabric.pkts_dropped"),
            pkt_bytes: tel.histogram("simnet.fabric.pkt_bytes"),
            ring_enqueues: tel.counter("simnet.fabric.ring_enqueues"),
            ring_full_retries: tel.counter("simnet.fabric.ring_full_retries"),
            ring_occupancy: tel.histogram("simnet.fabric.ring_occupancy"),
            tel,
        }
    }
}

fn endpoint_id(addr: Addr) -> EndpointId {
    EndpointId::new(addr.node.0, addr.port)
}

/// A link's identity in seed derivation: `(node << 16) | port` of the
/// destination address. Stable across bind/unbind cycles so a given
/// `(fabric seed, address)` pair always yields the same RNG stream.
fn link_id(addr: Addr) -> u64 {
    (u64::from(addr.node.0) << 16) | u64::from(addr.port)
}

/// Callback invoked (outside fabric locks) after a packet lands in an
/// endpoint's receive queue. Installed by batch consumers — the shard RX
/// engines — to mark the endpoint ready in their inbox instead of having a
/// thread parked on every queue. The callback must be cheap and must not
/// call back into the fabric (lock order: every fabric lock is released
/// before it runs, but `transmit` may still be on the caller's stack).
pub type RxNotify = Arc<dyn Fn(Addr) + Send + Sync>;

/// Per-destination-link transmit-side state: everything the old global
/// fabric lock protected, now owned by the link it describes. Locked only
/// when the fabric has TX work (loss model, chaos plan, or pacing) —
/// never on the default fast path.
struct TxState {
    /// Loss-model RNG, seeded `derive_seed(cfg.seed, link_id)`.
    rng: SmallRng,
    loss: LossState,
    /// This link's fault streams under the installed plan, if any.
    /// (A `ChaosState` keys streams by `(src, dst)` internally, so each
    /// transmitting peer still gets the stream seeded exactly as the old
    /// global adversary seeded it.)
    chaos: Option<ChaosState>,
    /// When this link's ingress is next free, for serialization pacing.
    free_at: Option<Instant>,
}

impl TxState {
    fn new(cfg: &WireConfig, plan: Option<&FaultPlan>, id: u64) -> Self {
        Self {
            rng: small_rng(derive_seed(cfg.seed, id)),
            loss: LossState::default(),
            chaos: plan.map(|p| ChaosState::new(p.clone())),
            free_at: None,
        }
    }
}

/// One bound endpoint as the switch sees it. The `Arc<Link>` is the unit
/// of routing: senders cache it and push straight onto `q`.
struct Link {
    addr: Addr,
    /// The delivery ring — the consumer side is the endpoint's receive
    /// queue.
    q: RingChannel<WirePacket>,
    tx: Mutex<TxState>,
    /// Propagation-delay queue `(due, pkt)`, used only when
    /// `cfg.latency > 0`; drained by the pump thread.
    delay: Mutex<VecDeque<(Instant, WirePacket)>>,
    notify: RwLock<Option<RxNotify>>,
    /// Fast no-notifier check so the hot path skips the RwLock.
    has_notify: AtomicBool,
}

/// A multicast group: members plus its own TX state (fault streams keyed
/// by `(src, group)`, pacing on the group address) and delay queue.
/// Membership is resolved at delivery time, as a real switch would.
struct McastGroup {
    members: Vec<Addr>,
    tx: Arc<Mutex<TxState>>,
    delay: Arc<Mutex<VecDeque<(Instant, WirePacket)>>>,
}

/// Fault trace + stats of a link that was unbound while a plan was
/// installed, preserved so `fault_trace()` stays complete across endpoint
/// lifecycles (harnesses read traces after dropping their QPs).
struct RetiredChaos {
    trace: Vec<FaultEvent>,
    stats: ChaosSnapshot,
}

/// Everything behind the cold control lock: taken on bind/unbind, group
/// membership and plan changes, route-cache misses, and trace/stat
/// aggregation — never on the hot transmit path.
struct Control {
    endpoints: HashMap<Addr, Arc<Link>>,
    groups: HashMap<Addr, McastGroup>,
    plan: Option<FaultPlan>,
    retired: Vec<RetiredChaos>,
}

/// Wakeup channel for the propagation-delay pump thread (spawned only
/// when `cfg.latency > 0`).
struct DelayPump {
    state: Mutex<PumpState>,
    cv: Condvar,
}

#[derive(Default)]
struct PumpState {
    dirty: bool,
    shutdown: bool,
}

struct FabricInner {
    cfg: WireConfig,
    control: RwLock<Control>,
    /// True once a fault plan has ever been installed — the hot path's
    /// lock-free "is chaos on?" check.
    chaos_installed: AtomicBool,
    stats: FabricStats,
    next_ephemeral: AtomicU32,
    pump: Option<Arc<DelayPump>>,
    tel: FabricTel,
    /// Buffer pool shared by every conduit on this fabric (header
    /// buffers, reassembly buffers, rx staging). Per-fabric so pooled
    /// stats in snapshots are not polluted across concurrent tests.
    pool: BufPool,
}

/// A shared handle to the simulated network. Cloning is cheap; all clones
/// refer to the same switch.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Creates a fabric with the given link configuration.
    #[must_use]
    pub fn new(cfg: WireConfig) -> Self {
        let pump = if cfg.latency > Duration::ZERO {
            Some(Arc::new(DelayPump {
                state: Mutex::new(PumpState::default()),
                cv: Condvar::new(),
            }))
        } else {
            None
        };
        let tel = FabricTel::new();
        let pool = BufPool::new();
        tel.tel.attach_pool(pool.stats());
        let inner = Arc::new(FabricInner {
            cfg,
            control: RwLock::new(Control {
                endpoints: HashMap::new(),
                groups: HashMap::new(),
                plan: None,
                retired: Vec::new(),
            }),
            chaos_installed: AtomicBool::new(false),
            stats: FabricStats::default(),
            next_ephemeral: AtomicU32::new(49_152),
            pump,
            tel,
            pool,
        });
        if let Some(p) = &inner.pump {
            let p = Arc::clone(p);
            let weak = Arc::downgrade(&inner);
            inner
                .tel
                .tel
                .spawn("simnet-delay".into(), move || delay_pump(&p, &weak))
                .expect("spawn delay-pump thread");
        }
        Self { inner }
    }

    /// Creates a fabric with all-default, loss-free, unpaced links —
    /// the configuration used by most tests.
    #[must_use]
    pub fn loopback() -> Self {
        Self::new(WireConfig::default())
    }

    /// This fabric's link configuration.
    #[must_use]
    pub fn config(&self) -> &WireConfig {
        &self.inner.cfg
    }

    /// Wire-level statistics.
    #[must_use]
    pub fn stats(&self) -> &FabricStats {
        &self.inner.stats
    }

    /// The buffer pool shared by conduits on this fabric. Its
    /// hit/miss/recycle stats are folded into telemetry snapshots as
    /// `pool.*`.
    #[must_use]
    pub fn pool(&self) -> &BufPool {
        &self.inner.pool
    }

    /// The telemetry domain for everything running over this fabric:
    /// wire counters land here, and upper layers (conduits, devices, QPs,
    /// the socket shim) register theirs in the same domain so one
    /// snapshot covers the whole stack.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.tel.tel
    }

    /// Packets accepted by [`transmit`](Endpoint::send_to) but not yet
    /// delivered or dropped — the occupancy of the per-link
    /// propagation-delay queues. Zero on latency-free fabrics, where
    /// delivery is synchronous. Together with the telemetry counters this
    /// gives packet conservation:
    /// `tx_packets == delivered + dropped + in_flight`.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        if self.inner.pump.is_none() {
            return 0;
        }
        let c = self.inner.control.read();
        c.endpoints
            .values()
            .map(|l| l.delay.lock().len())
            .sum::<usize>()
            + c.groups
                .values()
                .map(|g| g.delay.lock().len())
                .sum::<usize>()
    }

    /// Installs (or replaces) a chaos [`FaultPlan`]. Stages run after the
    /// baseline loss model, before the delay queue; every injected fault
    /// is appended to the trace returned by [`fault_trace`]. With
    /// duplication and reordering active, packet conservation becomes:
    /// `tx_packets + duplicated == delivered + dropped_loss +
    /// dropped_unreachable + chaos_swallowed + in_flight + chaos_held`.
    ///
    /// Each live link (and multicast group) gets its own [`ChaosState`]
    /// rooted at the plan seed; per-`(src, dst)` fault streams are
    /// byte-identical to the old single-adversary fabric because streams
    /// were always keyed and seeded per link pair.
    ///
    /// [`fault_trace`]: Fabric::fault_trace
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let mut c = self.inner.control.write();
        for link in c.endpoints.values() {
            link.tx.lock().chaos = Some(ChaosState::new(plan.clone()));
        }
        for g in c.groups.values() {
            g.tx.lock().chaos = Some(ChaosState::new(plan.clone()));
        }
        c.retired.clear();
        c.plan = Some(plan);
        self.inner.chaos_installed.store(true, Ordering::Release);
    }

    /// The injected-fault trace so far: retired links first (in unbind
    /// order), then live links in address order, then multicast groups in
    /// address order — a deterministic aggregation for deterministic
    /// workloads. Per-link event order is exact injection order. Empty
    /// when no plan is installed.
    #[must_use]
    pub fn fault_trace(&self) -> Vec<FaultEvent> {
        let c = self.inner.control.read();
        let mut out: Vec<FaultEvent> = Vec::new();
        for r in &c.retired {
            out.extend_from_slice(&r.trace);
        }
        let mut live: Vec<&Arc<Link>> = c.endpoints.values().collect();
        live.sort_by_key(|l| l.addr);
        for link in live {
            if let Some(chaos) = &link.tx.lock().chaos {
                out.extend(chaos.trace());
            }
        }
        let mut groups: Vec<(&Addr, &McastGroup)> = c.groups.iter().collect();
        groups.sort_by_key(|(a, _)| **a);
        for (_, g) in groups {
            if let Some(chaos) = &g.tx.lock().chaos {
                out.extend(chaos.trace());
            }
        }
        out
    }

    /// Injection totals for the installed plan, if any — summed across
    /// retired links, live links, and multicast groups.
    #[must_use]
    pub fn chaos_stats(&self) -> Option<ChaosSnapshot> {
        if !self.inner.chaos_installed.load(Ordering::Acquire) {
            return None;
        }
        let c = self.inner.control.read();
        let mut sum = ChaosSnapshot::default();
        let mut add = |s: &ChaosSnapshot| {
            sum.dropped += s.dropped;
            sum.partitioned += s.partitioned;
            sum.duplicated += s.duplicated;
            sum.reordered += s.reordered;
            sum.corrupted += s.corrupted;
            sum.truncated += s.truncated;
            sum.held += s.held;
        };
        for r in &c.retired {
            add(&r.stats);
        }
        for link in c.endpoints.values() {
            if let Some(chaos) = &link.tx.lock().chaos {
                add(&chaos.stats);
            }
        }
        for g in c.groups.values() {
            if let Some(chaos) = &g.tx.lock().chaos {
                add(&chaos.stats);
            }
        }
        Some(sum)
    }

    /// Packets currently held back by reorder stages.
    #[must_use]
    pub fn chaos_held(&self) -> u64 {
        if !self.inner.chaos_installed.load(Ordering::Acquire) {
            return 0;
        }
        let c = self.inner.control.read();
        c.endpoints
            .values()
            .filter_map(|l| l.tx.lock().chaos.as_ref().map(ChaosState::held))
            .sum::<u64>()
            + c.groups
                .values()
                .filter_map(|g| g.tx.lock().chaos.as_ref().map(ChaosState::held))
                .sum::<u64>()
    }

    /// Releases every packet still held by reorder stages (delivering
    /// them in deterministic per-link order). Call before checking packet
    /// conservation or final protocol state.
    pub fn chaos_flush(&self) {
        if !self.inner.chaos_installed.load(Ordering::Acquire) {
            return;
        }
        let mut unicast: Vec<(Arc<Link>, Vec<WirePacket>)> = Vec::new();
        let mut mcast: Vec<WirePacket> = Vec::new();
        {
            let c = self.inner.control.read();
            for link in c.endpoints.values() {
                let mut ts = link.tx.lock();
                if let Some(chaos) = &mut ts.chaos {
                    let released = chaos.drain_held();
                    if !released.is_empty() {
                        unicast.push((Arc::clone(link), released));
                    }
                }
            }
            for g in c.groups.values() {
                let mut ts = g.tx.lock();
                if let Some(chaos) = &mut ts.chaos {
                    mcast.extend(chaos.drain_held());
                }
            }
        }
        for (link, pkts) in unicast {
            for p in pkts {
                self.forward_to(&link, p);
            }
        }
        for p in mcast {
            self.forward_mcast(p);
        }
    }

    /// Binds an endpoint at `addr`. Fails with [`NetError::AddrInUse`] if
    /// the address is taken.
    pub fn bind(&self, addr: Addr) -> NetResult<Endpoint> {
        let link = {
            let mut c = self.inner.control.write();
            if c.endpoints.contains_key(&addr) {
                return Err(NetError::AddrInUse(addr));
            }
            let link = Arc::new(Link {
                addr,
                q: RingChannel::new(self.inner.cfg.ring_capacity),
                tx: Mutex::new(TxState::new(
                    &self.inner.cfg,
                    c.plan.as_ref(),
                    link_id(addr),
                )),
                delay: Mutex::new(VecDeque::new()),
                notify: RwLock::new(None),
                has_notify: AtomicBool::new(false),
            });
            c.endpoints.insert(addr, Arc::clone(&link));
            link
        };
        Ok(Endpoint {
            fabric: self.clone(),
            addr,
            link,
            routes: Mutex::new(Vec::new()),
        })
    }

    /// Binds an endpoint on `node` at a fresh ephemeral port.
    pub fn bind_ephemeral(&self, node: NodeId) -> NetResult<Endpoint> {
        loop {
            let port = (self.inner.next_ephemeral.fetch_add(1, Ordering::Relaxed) % 65_536) as u16;
            let addr = Addr { node, port };
            match self.bind(addr) {
                Ok(ep) => return Ok(ep),
                Err(NetError::AddrInUse(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// True when some endpoint is bound at `addr`.
    #[must_use]
    pub fn is_bound(&self, addr: Addr) -> bool {
        self.inner.control.read().endpoints.contains_key(&addr)
    }

    /// Installs (or clears, with `None`) the arrival notifier for the
    /// endpoint bound at `addr`. Returns `false` when nothing is bound
    /// there. The callback fires after each delivered packet, outside
    /// every fabric lock; see [`RxNotify`] for its constraints.
    pub fn set_notify(&self, addr: Addr, notify: Option<RxNotify>) -> bool {
        let link = self.inner.control.read().endpoints.get(&addr).cloned();
        match link {
            Some(link) => {
                link.has_notify.store(notify.is_some(), Ordering::Release);
                *link.notify.write() = notify;
                true
            }
            None => false,
        }
    }

    fn unbind(&self, addr: Addr) {
        let link = {
            let mut c = self.inner.control.write();
            let link = c.endpoints.remove(&addr);
            for members in c.groups.values_mut() {
                members.members.retain(|m| *m != addr);
            }
            if let Some(link) = &link {
                // Retire this link's fault trace so `fault_trace()` stays
                // complete after the endpoint is gone; its held packets
                // can never be delivered now, so account them as
                // unreachable (conservation: held → dropped_unreachable).
                if let Some(mut chaos) = link.tx.lock().chaos.take() {
                    for p in chaos.drain_held() {
                        self.count_unreachable(&p);
                    }
                    c.retired.push(RetiredChaos {
                        trace: chaos.trace(),
                        stats: chaos.stats,
                    });
                }
            }
            link
        };
        if let Some(link) = link {
            // Packets still in propagation can no longer land anywhere.
            let stranded: Vec<(Instant, WirePacket)> = link.delay.lock().drain(..).collect();
            for (_, p) in stranded {
                self.count_unreachable(&p);
            }
            link.q.close();
        }
    }

    /// The node id reserved for multicast group addresses: packets sent to
    /// `Addr { node: MCAST_NODE, port: group }` fan out to every member.
    pub const MCAST_NODE: NodeId = NodeId(0xFFFF);

    /// True when `addr` names a multicast group rather than an endpoint.
    #[must_use]
    pub fn is_multicast(addr: Addr) -> bool {
        addr.node == Self::MCAST_NODE
    }

    /// Subscribes the endpoint bound at `member` to `group` (idempotent).
    pub fn join_multicast(&self, group: Addr, member: Addr) -> NetResult<()> {
        if !Self::is_multicast(group) {
            return Err(NetError::Protocol("not a multicast address"));
        }
        let mut c = self.inner.control.write();
        let (cfg, plan) = (&self.inner.cfg, c.plan.clone());
        let g = c.groups.entry(group).or_insert_with(|| McastGroup {
            members: Vec::new(),
            tx: Arc::new(Mutex::new(TxState::new(
                cfg,
                plan.as_ref(),
                link_id(group),
            ))),
            delay: Arc::new(Mutex::new(VecDeque::new())),
        });
        if !g.members.contains(&member) {
            g.members.push(member);
        }
        Ok(())
    }

    /// Removes `member` from `group`.
    pub fn leave_multicast(&self, group: Addr, member: Addr) {
        if let Some(g) = self.inner.control.write().groups.get_mut(&group) {
            g.members.retain(|m| *m != member);
        }
    }

    /// True when transmits must take the destination's TX lock: a loss
    /// model or an installed chaos plan draws from the link-owned RNG.
    #[inline]
    fn tx_work(&self) -> bool {
        !matches!(self.inner.cfg.loss, LossModel::None)
            || self.inner.chaos_installed.load(Ordering::Acquire)
    }

    /// Serialization-delay pacing against the destination link's clock:
    /// the link accepts one packet at a time at `bandwidth_bps`. The
    /// reservation is made under the link's TX lock; the wait happens
    /// with no lock held.
    fn pace(&self, tx: &Mutex<TxState>, wire_len: usize) {
        let cfg = &self.inner.cfg;
        if cfg.bandwidth_bps == 0 {
            return;
        }
        let wire_bits = ((wire_len + WIRE_HEADER_BYTES) * 8) as u64;
        let tx_nanos = wire_bits
            .saturating_mul(1_000_000_000)
            .checked_div(cfg.bandwidth_bps)
            .unwrap_or(0);
        let tx_time = Duration::from_nanos(tx_nanos);
        let until = {
            let mut ts = tx.lock();
            let now = Instant::now();
            let start = ts.free_at.map_or(now, |f| f.max(now));
            let free = start + tx_time;
            ts.free_at = Some(free);
            free
        };
        precise_wait_until(until);
    }

    /// Runs the destination's loss roll and chaos stages for one packet.
    /// Returns the packets to forward (empty when swallowed). Caller
    /// holds the link's TX lock.
    fn adversary(&self, ts: &mut TxState, pkt: WirePacket) -> Vec<WirePacket> {
        let cfg = &self.inner.cfg;
        let tel = &self.inner.tel;
        if ts.loss.should_drop(&cfg.loss, &mut ts.rng) {
            self.inner
                .stats
                .dropped_loss
                .fetch_add(1, Ordering::Relaxed);
            tel.dropped_loss.inc();
            tel.pkts_dropped.inc();
            if tel.tel.tracer().armed() {
                tel.tel.tracer().record(
                    tel.tel.now_nanos(),
                    endpoint_id(pkt.dst),
                    EventKind::Drop,
                    pkt.wire_len() as u64,
                    endpoint_id(pkt.src).0.into(),
                );
            }
            return Vec::new();
        }
        match &mut ts.chaos {
            Some(chaos) => {
                let before = chaos.trace_len();
                let out = chaos.apply(pkt);
                let injected = chaos.trace_tail(before);
                self.trace_faults(&injected);
                out.forward
            }
            None => vec![pkt],
        }
    }

    /// Per-packet TX bookkeeping shared by both transmit paths.
    fn count_tx(&self, pkt: &WirePacket, wire_len: usize) {
        let tel = &self.inner.tel;
        tel.pkt_bytes.record(wire_len as u64);
        if tel.tel.tracer().armed() {
            tel.tel.tracer().record(
                tel.tel.now_nanos(),
                endpoint_id(pkt.src),
                EventKind::Tx,
                wire_len as u64,
                endpoint_id(pkt.dst).0.into(),
            );
        }
    }

    /// Transmits one wire packet to a pre-resolved destination link
    /// (`None` = nothing bound there, or a multicast destination).
    /// Applies pacing, loss, chaos and latency, then delivers onto the
    /// destination's ring. Undeliverable packets vanish silently (UDP
    /// semantics); loss and unreachability are counted in
    /// [`FabricStats`].
    fn transmit_one(&self, link: Option<&Arc<Link>>, pkt: WirePacket) -> NetResult<()> {
        let cfg = &self.inner.cfg;
        let wire_len = pkt.wire_len();
        if wire_len > cfg.mtu {
            return Err(NetError::TooBig {
                len: wire_len,
                max: cfg.mtu,
            });
        }
        let stats = &self.inner.stats;
        stats.tx_packets.fetch_add(1, Ordering::Relaxed);
        stats.tx_bytes.fetch_add(wire_len as u64, Ordering::Relaxed);
        let tel = &self.inner.tel;
        tel.tx_packets.inc();
        tel.tx_bytes.add(wire_len as u64);
        self.count_tx(&pkt, wire_len);

        if Self::is_multicast(pkt.dst) {
            return self.transmit_mcast(pkt, wire_len);
        }
        let Some(link) = link else {
            self.count_unreachable(&pkt);
            return Ok(());
        };
        self.pace(&link.tx, wire_len);
        if !self.tx_work() {
            // Hot path: no loss, no chaos — straight onto the dst ring.
            self.forward_to(link, pkt);
            return Ok(());
        }
        let forwards = {
            let mut ts = link.tx.lock();
            self.adversary(&mut ts, pkt)
        };
        for p in forwards {
            self.forward_to(link, p);
        }
        Ok(())
    }

    /// The multicast tail of [`transmit_one`](Fabric::transmit_one): the
    /// group owns its own pacing clock and fault streams; membership is
    /// resolved at delivery time.
    fn transmit_mcast(&self, pkt: WirePacket, wire_len: usize) -> NetResult<()> {
        let group = {
            let c = self.inner.control.read();
            c.groups
                .get(&pkt.dst)
                .map(|g| (Arc::clone(&g.tx), Arc::clone(&g.delay)))
        };
        let Some((tx, delay)) = group else {
            self.count_unreachable(&pkt);
            return Ok(());
        };
        self.pace(&tx, wire_len);
        let forwards = if self.tx_work() {
            let mut ts = tx.lock();
            self.adversary(&mut ts, pkt)
        } else {
            vec![pkt]
        };
        for p in forwards {
            if self.inner.pump.is_some() {
                let due = Instant::now() + self.inner.cfg.latency;
                delay.lock().push_back((due, p));
                self.signal_pump();
            } else {
                self.forward_mcast(p);
            }
        }
        Ok(())
    }

    /// Transmits a burst of pre-resolved `(link, packet)` pairs.
    ///
    /// Per-packet semantics are preserved byte-for-byte: every packet
    /// runs the exact [`transmit_one`](Fabric::transmit_one) pipeline —
    /// MTU check, pacing, loss roll, chaos stages — and because loss and
    /// fault RNG state is owned per destination link, grouping the burst
    /// by destination (preserving per-destination order, the only order
    /// the wire guarantees) draws each link's RNG in exactly the sequence
    /// N single transmits would. What the burst amortizes is the
    /// *bookkeeping*: one TX-lock round per destination, batched counter
    /// updates, one ring-occupancy sample and one arrival notification
    /// per destination. An oversized packet stops the burst exactly where
    /// N single transmits would: earlier packets still go out, the error
    /// propagates.
    fn transmit_burst(&self, items: Vec<(Option<Arc<Link>>, WirePacket)>) -> NetResult<()> {
        if items.is_empty() {
            return Ok(());
        }
        if items.len() == 1 {
            let (link, pkt) = items.into_iter().next().expect("len checked");
            return self.transmit_one(link.as_ref(), pkt);
        }
        let cfg = &self.inner.cfg;
        let tel = &self.inner.tel;
        let stats = &self.inner.stats;

        // Stage 1: validate, trace and pace in packet order before any
        // TX-state lock (pacing sleeps must not hold one).
        let mut accepted: Vec<(Option<Arc<Link>>, WirePacket)> = Vec::with_capacity(items.len());
        let mut result = Ok(());
        let mut tx_bytes = 0u64;
        for (link, pkt) in items {
            let wire_len = pkt.wire_len();
            if wire_len > cfg.mtu {
                result = Err(NetError::TooBig {
                    len: wire_len,
                    max: cfg.mtu,
                });
                break;
            }
            tx_bytes += wire_len as u64;
            self.count_tx(&pkt, wire_len);
            if cfg.bandwidth_bps > 0 {
                if let Some(l) = &link {
                    self.pace(&l.tx, wire_len);
                }
            }
            accepted.push((link, pkt));
        }
        stats
            .tx_packets
            .fetch_add(accepted.len() as u64, Ordering::Relaxed);
        stats.tx_bytes.fetch_add(tx_bytes, Ordering::Relaxed);
        tel.tx_packets.add(accepted.len() as u64);
        tel.tx_bytes.add(tx_bytes);
        if accepted.is_empty() {
            return result;
        }

        // Stage 2: group by destination link, preserving per-destination
        // order. Bursts touch a handful of destinations, so a linear scan
        // beats hashing. Multicast and unreachable packets are handled
        // inline, in order.
        let mut groups: Vec<(Arc<Link>, Vec<WirePacket>)> = Vec::new();
        for (link, pkt) in accepted {
            if Self::is_multicast(pkt.dst) {
                let wire_len = pkt.wire_len();
                self.transmit_mcast(pkt, wire_len)?;
                continue;
            }
            let Some(link) = link else {
                self.count_unreachable(&pkt);
                continue;
            };
            match groups.iter_mut().find(|(l, _)| Arc::ptr_eq(l, &link)) {
                Some((_, v)) => v.push(pkt),
                None => groups.push((link, vec![pkt])),
            }
        }

        // Stage 3: one TX-lock round per destination, then batched
        // delivery onto that destination's ring.
        let work = self.tx_work();
        for (link, pkts) in groups {
            if !work {
                self.forward_batch(&link, pkts);
                continue;
            }
            let forwards = {
                let mut ts = link.tx.lock();
                let mut fwd = Vec::with_capacity(pkts.len());
                for pkt in pkts {
                    fwd.extend(self.adversary(&mut ts, pkt));
                }
                fwd
            };
            self.forward_batch(&link, forwards);
        }
        result
    }

    /// The post-adversary tail of the transmit paths: per-link delay
    /// queue when latency is configured, synchronous ring delivery
    /// otherwise.
    fn forward_to(&self, link: &Arc<Link>, pkt: WirePacket) {
        if self.inner.pump.is_some() {
            let due = Instant::now() + self.inner.cfg.latency;
            link.delay.lock().push_back((due, pkt));
            self.signal_pump();
            return;
        }
        self.deliver_to_link(link, pkt);
    }

    /// Batched [`forward_to`](Fabric::forward_to): one delay-queue lock
    /// (or one notify + occupancy sample) per destination per burst.
    fn forward_batch(&self, link: &Arc<Link>, pkts: Vec<WirePacket>) {
        if pkts.is_empty() {
            return;
        }
        if self.inner.pump.is_some() {
            let due = Instant::now() + self.inner.cfg.latency;
            link.delay.lock().extend(pkts.into_iter().map(|p| (due, p)));
            self.signal_pump();
            return;
        }
        let tel = &self.inner.tel;
        let tracing = tel.tel.tracer().armed();
        let meta: Vec<(Addr, Addr, usize)> = if tracing {
            pkts.iter().map(|p| (p.src, p.dst, p.wire_len())).collect()
        } else {
            Vec::new()
        };
        let count = pkts.len() as u64;
        let mut batch: VecDeque<WirePacket> = pkts.into();
        let Some((_, spilled)) = link.q.push_batch(&mut batch) else {
            // Receiver torn down mid-burst: unreachable, exactly as the
            // per-packet path counts it.
            for pkt in batch {
                self.count_unreachable(&pkt);
            }
            return;
        };
        // `push_batch` consumed the whole batch on success.
        debug_assert!(batch.is_empty());
        self.inner.stats.delivered.fetch_add(count, Ordering::Relaxed);
        tel.delivered.add(count);
        tel.ring_enqueues.add(count);
        if spilled > 0 {
            tel.ring_full_retries.add(spilled as u64);
        }
        tel.ring_occupancy.record(link.q.len() as u64);
        if tracing {
            for (src, dst, wire_len) in &meta {
                tel.tel.tracer().record(
                    tel.tel.now_nanos(),
                    endpoint_id(*dst),
                    EventKind::Rx,
                    *wire_len as u64,
                    endpoint_id(*src).0.into(),
                );
            }
        }
        self.notify_link(link);
    }

    /// Delivers one post-adversary, post-delay packet onto `link`'s ring
    /// and fires its arrival notifier (outside all fabric locks).
    fn deliver_to_link(&self, link: &Arc<Link>, pkt: WirePacket) {
        let (src, dst, wire_len) = (pkt.src, pkt.dst, pkt.wire_len());
        match link.q.push(pkt) {
            Ok(outcome) => {
                self.inner.stats.delivered.fetch_add(1, Ordering::Relaxed);
                let tel = &self.inner.tel;
                tel.ring_enqueues.inc();
                if outcome == PushOutcome::Spilled {
                    tel.ring_full_retries.inc();
                }
                tel.ring_occupancy.record(link.q.len() as u64);
                self.trace_rx(src, dst, wire_len);
                self.notify_link(link);
            }
            Err(closed) => self.count_unreachable(&closed.0),
        }
    }

    fn notify_link(&self, link: &Arc<Link>) {
        if link.has_notify.load(Ordering::Acquire) {
            let notify = link.notify.read().clone();
            if let Some(n) = notify {
                n(link.addr);
            }
        }
    }

    /// Multicast fan-out: one wire packet reaches every group member
    /// (the switch replicates, as IGMP-snooping Ethernet switches do).
    /// `delivered` counts once per wire packet when any member received
    /// it, matching unicast accounting.
    fn forward_mcast(&self, pkt: WirePacket) {
        let members: Vec<Arc<Link>> = {
            let c = self.inner.control.read();
            match c.groups.get(&pkt.dst) {
                Some(g) => g
                    .members
                    .iter()
                    .filter_map(|m| c.endpoints.get(m).cloned())
                    .collect(),
                None => Vec::new(),
            }
        };
        let tel = &self.inner.tel;
        let mut any = false;
        let mut wake: Vec<Arc<Link>> = Vec::new();
        for link in members {
            if let Ok(outcome) = link.q.push(pkt.clone()) {
                any = true;
                tel.ring_enqueues.inc();
                if outcome == PushOutcome::Spilled {
                    tel.ring_full_retries.inc();
                }
                tel.ring_occupancy.record(link.q.len() as u64);
                wake.push(link);
            }
        }
        if any {
            self.inner.stats.delivered.fetch_add(1, Ordering::Relaxed);
            self.trace_rx(pkt.src, pkt.dst, pkt.wire_len());
        } else {
            self.count_unreachable(&pkt);
        }
        for link in wake {
            self.notify_link(&link);
        }
    }

    /// Mirrors freshly injected faults into the telemetry tracer (for
    /// forensic dumps) without perturbing the canonical fault trace.
    fn trace_faults(&self, injected: &[FaultEvent]) {
        let tel = &self.inner.tel;
        if injected.is_empty() || !tel.tel.tracer().armed() {
            return;
        }
        for f in injected {
            let kind = match f.kind {
                FaultKind::Drop => EventKind::ChaosDrop,
                FaultKind::Partition => EventKind::Partition,
                FaultKind::Duplicate => EventKind::Duplicate,
                FaultKind::Reorder => EventKind::Reorder,
                FaultKind::Corrupt => EventKind::Corrupt,
                FaultKind::Truncate => EventKind::Truncate,
            };
            tel.tel.tracer().record(
                tel.tel.now_nanos(),
                endpoint_id(f.dst),
                kind,
                f.detail,
                f.pkt,
            );
        }
    }

    fn trace_rx(&self, src: Addr, dst: Addr, wire_len: usize) {
        let tel = &self.inner.tel;
        tel.delivered.inc();
        if tel.tel.tracer().armed() {
            tel.tel.tracer().record(
                tel.tel.now_nanos(),
                endpoint_id(dst),
                EventKind::Rx,
                wire_len as u64,
                endpoint_id(src).0.into(),
            );
        }
    }

    fn count_unreachable(&self, pkt: &WirePacket) {
        self.inner
            .stats
            .dropped_unreachable
            .fetch_add(1, Ordering::Relaxed);
        let tel = &self.inner.tel;
        tel.dropped_unreachable.inc();
        tel.pkts_dropped.inc();
        if tel.tel.tracer().armed() {
            tel.tel.tracer().record(
                tel.tel.now_nanos(),
                endpoint_id(pkt.dst),
                EventKind::Drop,
                pkt.wire_len() as u64,
                endpoint_id(pkt.src).0.into(),
            );
        }
    }

    fn signal_pump(&self) {
        if let Some(p) = &self.inner.pump {
            let mut st = p.state.lock();
            st.dirty = true;
            p.cv.notify_one();
        }
    }
}

impl Drop for FabricInner {
    fn drop(&mut self) {
        if let Some(p) = &self.pump {
            let mut st = p.state.lock();
            st.shutdown = true;
            p.cv.notify_all();
        }
    }
}

/// A shared per-link (or per-group) delay queue of (due, packet) pairs.
type DelayQueue = Arc<Mutex<VecDeque<(Instant, WirePacket)>>>;

/// Pump thread for latency emulation: releases packets from per-link
/// delay queues onto their rings when the propagation delay has elapsed.
fn delay_pump(pump: &DelayPump, fabric: &std::sync::Weak<FabricInner>) {
    loop {
        let earliest = {
            let Some(inner) = fabric.upgrade() else { return };
            let fab = Fabric { inner };
            let now = Instant::now();
            let mut earliest: Option<Instant> = None;
            let (links, groups): (Vec<Arc<Link>>, Vec<(Addr, DelayQueue)>) = {
                let c = fab.inner.control.read();
                (
                    c.endpoints.values().cloned().collect(),
                    c.groups
                        .iter()
                        .map(|(a, g)| (*a, Arc::clone(&g.delay)))
                        .collect(),
                )
            };
            for link in &links {
                let due_pkts: Vec<WirePacket> = {
                    let mut dq = link.delay.lock();
                    let mut out = Vec::new();
                    while let Some((due, _)) = dq.front() {
                        if *due <= now {
                            out.push(dq.pop_front().expect("peeked").1);
                        } else {
                            earliest = Some(earliest.map_or(*due, |e| e.min(*due)));
                            break;
                        }
                    }
                    out
                };
                for pkt in due_pkts {
                    fab.deliver_to_link(link, pkt);
                }
            }
            for (_, delay) in &groups {
                let due_pkts: Vec<WirePacket> = {
                    let mut dq = delay.lock();
                    let mut out = Vec::new();
                    while let Some((due, _)) = dq.front() {
                        if *due <= now {
                            out.push(dq.pop_front().expect("peeked").1);
                        } else {
                            earliest = Some(earliest.map_or(*due, |e| e.min(*due)));
                            break;
                        }
                    }
                    out
                };
                for pkt in due_pkts {
                    fab.forward_mcast(pkt);
                }
            }
            earliest
            // `fab` (and its Arc) drops here, so an idle pump never keeps
            // the fabric alive.
        };
        let mut st = pump.state.lock();
        if st.shutdown {
            return;
        }
        if st.dirty {
            st.dirty = false;
            continue;
        }
        match earliest {
            Some(due) => {
                let now = Instant::now();
                if due <= now {
                    continue;
                }
                let wait = due - now;
                if wait <= Duration::from_micros(200) {
                    // OS timer slack (~50 µs) would dominate short
                    // propagation delays; spin out the remainder.
                    drop(st);
                    precise_wait_until(due);
                } else {
                    pump.cv.wait_for(&mut st, wait);
                }
            }
            None => {
                pump.cv.wait_for(&mut st, Duration::from_millis(50));
            }
        }
    }
}

/// Sleeps until `deadline` with microsecond-ish precision: OS sleep for the
/// bulk, spin for the tail (OS sleep granularity is far coarser than the
/// 1.2 µs serialization time of a 1500-byte packet at 10 Gbit/s).
fn precise_wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One packet of a burst queued through [`Endpoint::send_burst`]:
/// `header` ++ `payload` bound for `dst`, exactly the shape of one
/// [`Endpoint::send_sg`] call.
pub struct SgSend {
    /// Destination endpoint address.
    pub dst: Addr,
    /// Contiguous header bytes (sent first).
    pub header: Bytes,
    /// Scatter-gather payload chained after the header.
    pub payload: SgBytes,
}

/// A bound wire endpoint: the raw "NIC queue" interface. Upper layers
/// (datagram/stream conduits) build services on top of this.
///
/// The endpoint owns the consumer side of its link's delivery ring and a
/// small route cache of destination links it has sent to, so steady-state
/// sends never touch the fabric's control lock.
pub struct Endpoint {
    fabric: Fabric,
    addr: Addr,
    link: Arc<Link>,
    /// Destination route cache: `Addr → Weak<Link>`. Weak so a cached
    /// route never keeps an unbound link alive; refreshed on miss, on
    /// upgrade failure, and on rebind (closed ring).
    routes: Mutex<Vec<(Addr, std::sync::Weak<Link>)>>,
}

impl Endpoint {
    /// The address this endpoint is bound to.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.addr
    }

    /// The fabric this endpoint belongs to.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Maximum payload of a single wire packet.
    #[must_use]
    pub fn mtu(&self) -> usize {
        self.fabric.inner.cfg.mtu
    }

    /// Resolves `dst` to its bound link, consulting this endpoint's route
    /// cache first. `None` for multicast destinations (routed through the
    /// group table) and unbound addresses.
    fn resolve(&self, dst: Addr) -> Option<Arc<Link>> {
        if Fabric::is_multicast(dst) {
            return None;
        }
        {
            let routes = self.routes.lock();
            if let Some((_, weak)) = routes.iter().find(|(a, _)| *a == dst) {
                if let Some(link) = weak.upgrade() {
                    if !link.q.is_closed() {
                        return Some(link);
                    }
                }
            }
        }
        // Miss / stale: consult the cold control map and refresh.
        let link = self
            .fabric
            .inner
            .control
            .read()
            .endpoints
            .get(&dst)
            .cloned();
        let mut routes = self.routes.lock();
        routes.retain(|(a, _)| *a != dst);
        if let Some(l) = &link {
            routes.push((dst, Arc::downgrade(l)));
        }
        link
    }

    /// Sends one wire packet (≤ MTU bytes) to `dst` as a single
    /// contiguous frame.
    pub fn send_to(&self, dst: Addr, payload: Bytes) -> NetResult<()> {
        let link = self.resolve(dst);
        self.fabric
            .transmit_one(link.as_ref(), WirePacket::contiguous_frame(self.addr, dst, payload))
    }

    /// Sends one scatter-gather wire packet (`header` ++ `payload` ≤ MTU
    /// bytes) to `dst` without flattening it.
    pub fn send_sg(&self, dst: Addr, header: Bytes, payload: SgBytes) -> NetResult<()> {
        let link = self.resolve(dst);
        self.fabric
            .transmit_one(link.as_ref(), WirePacket::sg(self.addr, dst, header, payload))
    }

    /// Sends a burst of scatter-gather wire packets through
    /// [`Fabric::transmit_burst`]: per-packet loss/fault semantics are
    /// byte-identical to calling [`send_sg`] N times under the same seed
    /// (RNG state is owned per destination link, and the burst preserves
    /// per-destination order), but TX-state locking, counter updates and
    /// arrival notifications are amortized per destination per burst.
    ///
    /// [`send_sg`]: Endpoint::send_sg
    pub fn send_burst(&self, sends: Vec<SgSend>) -> NetResult<()> {
        self.fabric.transmit_burst(
            sends
                .into_iter()
                .map(|s| {
                    let link = self.resolve(s.dst);
                    (link, WirePacket::sg(self.addr, s.dst, s.header, s.payload))
                })
                .collect(),
        )
    }

    /// Receives up to `max` wire packets from this endpoint's delivery
    /// ring, blocking at most `timeout` (`None` = don't block) for the
    /// first. Returns an empty vector when nothing arrives in time.
    #[must_use]
    pub fn recv_burst(&self, max: usize, timeout: Option<Duration>) -> Vec<WirePacket> {
        if max == 0 {
            return Vec::new();
        }
        let first = match timeout {
            None => self.link.q.try_pop(),
            Some(t) => self.link.q.pop_wait(Some(t)).ok(),
        };
        let Some(first) = first else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(max.min(64));
        out.push(first);
        if max > 1 {
            self.link.q.pop_batch(&mut out, max - 1);
        }
        out
    }

    /// Receives the next wire packet, blocking at most `timeout`
    /// (`None` = block indefinitely).
    pub fn recv(&self, timeout: Option<Duration>) -> NetResult<WirePacket> {
        self.link.q.pop_wait(timeout).map_err(|e| match e {
            PopError::Timeout => NetError::Timeout,
            PopError::Closed => NetError::Closed,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> NetResult<WirePacket> {
        match self.link.q.try_pop() {
            Some(p) => Ok(p),
            None if self.link.q.is_closed() => Err(NetError::Closed),
            None => Err(NetError::Timeout),
        }
    }

    /// Number of packets waiting in the delivery ring (including any
    /// overflow spill).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.link.q.len()
    }

    /// Installs (or clears) this endpoint's arrival notifier; see
    /// [`Fabric::set_notify`].
    pub fn set_notify(&self, notify: Option<RxNotify>) {
        self.link
            .has_notify
            .store(notify.is_some(), Ordering::Release);
        *self.link.notify.write() = notify;
    }

    /// Subscribes this endpoint to a multicast `group`.
    pub fn join_multicast(&self, group: Addr) -> NetResult<()> {
        self.fabric.join_multicast(group, self.addr)
    }

    /// Unsubscribes this endpoint from `group`.
    pub fn leave_multicast(&self, group: Addr) {
        self.fabric.leave_multicast(group, self.addr);
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.fabric.unbind(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt_bytes(n: usize) -> Bytes {
        Bytes::from(vec![0xABu8; n])
    }

    #[test]
    fn bind_send_recv() {
        let fab = Fabric::loopback();
        let a = fab.bind(Addr::new(0, 10)).unwrap();
        let b = fab.bind(Addr::new(1, 20)).unwrap();
        a.send_to(b.local_addr(), pkt_bytes(100)).unwrap();
        let p = b.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p.src, a.local_addr());
        assert_eq!(p.wire_len(), 100);
    }

    #[test]
    fn double_bind_rejected() {
        let fab = Fabric::loopback();
        let _a = fab.bind(Addr::new(0, 10)).unwrap();
        assert!(matches!(
            fab.bind(Addr::new(0, 10)),
            Err(NetError::AddrInUse(_))
        ));
    }

    #[test]
    fn rebind_after_drop() {
        let fab = Fabric::loopback();
        let addr = Addr::new(0, 10);
        drop(fab.bind(addr).unwrap());
        assert!(fab.bind(addr).is_ok());
    }

    #[test]
    fn rebind_reroutes_cached_senders() {
        // A sender's cached route must not deliver into a dead ring after
        // the destination is dropped and rebound.
        let fab = Fabric::loopback();
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let dst = Addr::new(1, 1);
        let b1 = fab.bind(dst).unwrap();
        a.send_to(dst, pkt_bytes(8)).unwrap();
        assert_eq!(b1.pending(), 1);
        drop(b1);
        let b2 = fab.bind(dst).unwrap();
        a.send_to(dst, pkt_bytes(8)).unwrap();
        assert_eq!(b2.pending(), 1, "send after rebind must reach new ring");
        assert_eq!(fab.stats().dropped_unreachable.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn oversized_packet_rejected() {
        let fab = Fabric::loopback();
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let err = a.send_to(Addr::new(0, 2), pkt_bytes(1501)).unwrap_err();
        assert!(matches!(err, NetError::TooBig { len: 1501, max: 1500 }));
    }

    #[test]
    fn unreachable_counts_but_succeeds() {
        let fab = Fabric::loopback();
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        a.send_to(Addr::new(9, 9), pkt_bytes(10)).unwrap();
        assert_eq!(
            fab.stats().dropped_unreachable.load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn recv_timeout_fires() {
        let fab = Fabric::loopback();
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let err = a.recv(Some(Duration::from_millis(10))).unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn loss_model_drops_expected_fraction() {
        let fab = Fabric::new(WireConfig::with_loss(0.25, 7));
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let b = fab.bind(Addr::new(1, 1)).unwrap();
        let n = 20_000;
        for _ in 0..n {
            a.send_to(b.local_addr(), pkt_bytes(8)).unwrap();
        }
        let got = b.pending();
        let rate = 1.0 - got as f64 / f64::from(n);
        assert!((rate - 0.25).abs() < 0.02, "observed loss {rate}");
        assert!((fab.stats().loss_rate() - 0.25).abs() < 0.02);
    }

    #[test]
    fn per_link_loss_draws_are_isolated() {
        // Link A's drop pattern under a fixed fabric seed must be
        // identical whether or not link B carries interleaved traffic —
        // the per-link RNG ownership contract. (The old global-RNG fabric
        // fails this: B's rolls advance A's stream.)
        let drops_at_a = |with_b_traffic: bool| -> Vec<bool> {
            let fab = Fabric::new(WireConfig::with_loss(0.2, 0xD00D));
            let a = fab.bind(Addr::new(0, 1)).unwrap();
            let b = fab.bind(Addr::new(1, 1)).unwrap();
            let c = fab.bind(Addr::new(2, 1)).unwrap();
            let mut pattern = Vec::new();
            for _ in 0..500 {
                let before = b.pending();
                a.send_to(b.local_addr(), pkt_bytes(16)).unwrap();
                pattern.push(b.pending() == before);
                if with_b_traffic {
                    a.send_to(c.local_addr(), pkt_bytes(16)).unwrap();
                }
            }
            pattern
        };
        assert_eq!(drops_at_a(false), drops_at_a(true));
    }

    #[test]
    fn small_ring_spills_without_loss() {
        // A ring far smaller than the backlog must spill, not drop, and
        // must preserve FIFO across the ring/spill boundary.
        let cfg = WireConfig {
            ring_capacity: 8,
            ..WireConfig::default()
        };
        let fab = Fabric::new(cfg);
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let b = fab.bind(Addr::new(1, 1)).unwrap();
        let n = 1000u32;
        for i in 0..n {
            a.send_to(b.local_addr(), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        assert_eq!(b.pending(), n as usize);
        let retries = fab
            .telemetry()
            .counter("simnet.fabric.ring_full_retries")
            .get();
        assert!(retries > 0, "an 8-slot ring must spill under 1000 sends");
        for i in 0..n {
            let p = b.recv(Some(Duration::from_secs(1))).unwrap();
            assert_eq!(p.contiguous()[..4], i.to_le_bytes());
        }
    }

    #[test]
    fn hot_path_takes_no_shared_lock_round() {
        // The retired shared-lock counter must be gone from the snapshot
        // entirely while the ring counters account every delivery.
        let fab = Fabric::loopback();
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let b = fab.bind(Addr::new(1, 1)).unwrap();
        for _ in 0..100 {
            a.send_to(b.local_addr(), pkt_bytes(32)).unwrap();
        }
        let tel = fab.telemetry();
        assert_eq!(tel.snapshot().get("simnet.fabric.lock_acquisitions"), None);
        assert_eq!(tel.counter("simnet.fabric.ring_enqueues").get(), 100);
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = WireConfig {
            latency: Duration::from_millis(20),
            ..WireConfig::default()
        };
        let fab = Fabric::new(cfg);
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let b = fab.bind(Addr::new(1, 1)).unwrap();
        let t0 = Instant::now();
        a.send_to(b.local_addr(), pkt_bytes(10)).unwrap();
        b.recv(Some(Duration::from_secs(1))).unwrap();
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(18), "latency not applied: {dt:?}");
    }

    #[test]
    fn latency_preserves_order() {
        let cfg = WireConfig {
            latency: Duration::from_millis(2),
            ..WireConfig::default()
        };
        let fab = Fabric::new(cfg);
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let b = fab.bind(Addr::new(1, 1)).unwrap();
        for i in 0..50u8 {
            a.send_to(b.local_addr(), Bytes::from(vec![i])).unwrap();
        }
        for i in 0..50u8 {
            let p = b.recv(Some(Duration::from_secs(1))).unwrap();
            assert_eq!(p.contiguous()[0], i);
        }
    }

    #[test]
    fn pacing_limits_rate() {
        // 8 Mbit/s link; 100 packets of 1000 B payload ≈ (1000+54)*8*100
        // bits ≈ 843k bits ⇒ ≥ 100 ms on the wire.
        let cfg = WireConfig {
            bandwidth_bps: 8_000_000,
            ..WireConfig::default()
        };
        let fab = Fabric::new(cfg);
        let a = fab.bind(Addr::new(0, 1)).unwrap();
        let b = fab.bind(Addr::new(1, 1)).unwrap();
        let t0 = Instant::now();
        for _ in 0..100 {
            a.send_to(b.local_addr(), pkt_bytes(1000)).unwrap();
        }
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(90), "pacing too fast: {dt:?}");
        assert_eq!(b.pending(), 100);
    }

    #[test]
    fn ephemeral_ports_unique() {
        let fab = Fabric::loopback();
        let e1 = fab.bind_ephemeral(NodeId(0)).unwrap();
        let e2 = fab.bind_ephemeral(NodeId(0)).unwrap();
        assert_ne!(e1.local_addr(), e2.local_addr());
    }
}

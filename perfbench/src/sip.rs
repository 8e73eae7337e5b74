//! `sip_calls`: an open-loop SipStone workload over the socket shim (UD
//! transport). One generator thread issues INVITE → 200 → ACK on a
//! fixed schedule, holds each dialog, then sends BYE → 200. Each call is
//! timed from when it was *due*, so a stalled generator or server shows
//! up as latency. The offered rate climbs a fixed geometric ladder; one
//! reference rung supplies the latency and memory-per-call figures.
//!
//! Both stacks run a shard pool of `nproc` workers through
//! `DeviceConfig.shard` (the per-QP-thread default would put one thread
//! per socket on the host and measure its scheduler).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use iwarp::{DeviceConfig, ShardConfig};
use iwarp_apps::sip::codec::{make_ack, make_bye, make_invite, SipMethod, SipView};
use iwarp_apps::sip::{SipServer, SipServerConfig};
use iwarp_common::memacct::MemRegistry;
use iwarp_socket::{DgramProfile, DgramSocket, SocketConfig, SocketStack};
use simnet::{Addr, Fabric, NodeId, WireConfig};

use crate::data::{Plant, Rng};
use crate::probe::{percentile, Lat};
use crate::span::SpanLog;
use crate::{Meter, Outcome, Phase, RunCfg};

/// Offered rates, calls/s, one rung each, in order.
pub const LADDER: [f64; 3] = [250.0, 500.0, 1000.0];
/// Latency class names of the rungs.
const RUNG_NAMES: [&str; LADDER.len()] = ["rung0", "rung1", "rung2"];
/// The rung whose plateau gives the latency and memory figures.
pub const REFERENCE: usize = 1;
/// Mean dialog hold time (each call draws ±10 % around it).
const HOLD: Duration = Duration::from_secs(2);
// The limits of a passing rung. They sit above the scheduling jitter of
// small shared hosts (a 0.5 ms sleep overshoots by 2-3 ms at p99 on an
// idle 2-CPU VM), so a rung fails on overload, not on a stray stall.
/// INVITE→200 p99 limit.
const SLO: Duration = Duration::from_millis(50);
/// Generator lag p99 limit.
const LAG_LIMIT: Duration = Duration::from_millis(10);
/// Share of calls that may go unanswered (a dropped datagram is legal
/// UDP behaviour; SIP over UDP would retransmit).
const LOST_LIMIT: f64 = 0.001;
/// A request unanswered this long loses its call.
const TIMEOUT: Duration = Duration::from_secs(2);
const SERVER: Addr = Addr {
    node: NodeId(1),
    port: 5060,
};

struct Rig {
    fabric: Fabric,
    client: SocketStack,
    server_mem: MemRegistry,
    server: Option<SipServer>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            let _ = s.stop();
        }
    }
}

fn setup(seed: u64) -> Result<Rig, String> {
    let fabric = Fabric::new(WireConfig {
        seed,
        ..WireConfig::default()
    });
    let stack = |node, mem: &MemRegistry| {
        SocketStack::with_config(
            &fabric,
            NodeId(node),
            DeviceConfig {
                mem: Some(mem.clone()),
                shard: ShardConfig::with_shards(crate::probe::nproc()),
                ..DeviceConfig::default()
            },
            SocketConfig::default(),
        )
    };
    let server_mem = MemRegistry::new();
    let client = stack(0, &MemRegistry::new());
    let server = SipServer::spawn(stack(1, &server_mem), SipServerConfig::default())
        .map_err(|e| format!("SIP server: {e}"))?;
    Ok(Rig {
        fabric,
        client,
        server_mem,
        server: Some(server),
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum St {
    Inviting,
    Held,
    Byeing,
}

struct Call {
    n: u64,
    rung: usize,
    st: St,
    sock: DgramSocket,
    peer: Addr,
    call_id: String,
    from: String,
    /// When the current request was due.
    due: Instant,
    hold: Duration,
}

/// One rung's observations.
#[derive(Default, Debug)]
struct Rung {
    calls: u64,
    /// Calls whose request or reply was dropped (timed out).
    lost: u64,
    setup: Lat,
    lag_us: Vec<f64>,
    /// Calls still awaiting their 200 when the rung ended.
    backlog_end: usize,
    held_end: usize,
}

impl Rung {
    fn passes(&self, rate: f64) -> bool {
        let backlog_limit = (rate * 0.05).max(8.0) as usize;
        self.calls > 0
            && self.lost as f64 <= LOST_LIMIT * self.calls as f64
            && self.setup.p(0.99) <= SLO.as_secs_f64() * 1e6
            && percentile(&self.lag_us, 0.99) <= LAG_LIMIT.as_secs_f64() * 1e6
            && self.backlog_end <= backlog_limit
    }
}

struct Gen<'a> {
    rig: &'a Rig,
    seed: u64,
    plant: Plant,
    calls: Vec<Option<Call>>,
    free: Vec<usize>,
    by_fd: HashMap<u32, usize>,
    /// BYEs due: `(when, slot, call number)`.
    byes: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    rungs: Vec<Rung>,
    p: Phase,
    log: SpanLog,
    waits: u64,
    ready: u64,
    sip_bytes: u64,
    lost: u64,
    byes_sent: u64,
}

enum End {
    Done,
    Lost,
    Bad(String),
}

impl Gen<'_> {
    fn send(&mut self, slot: usize, method: SipMethod) -> Result<(), String> {
        let c = self.calls[slot].as_ref().expect("live call");
        let msg = match method {
            SipMethod::Invite => make_invite(&c.call_id, &c.from, "uas@server.example", 1),
            SipMethod::Ack => make_ack(&c.call_id, &c.from, "uas@server.example", 1),
            _ => make_bye(&c.call_id, &c.from, "uas@server.example", 2),
        };
        let wire = self.log.time("apps.sip.encode", c.n, || msg.encode());
        self.sip_bytes += wire.len() as u64;
        self.log
            .time("socket.send_to", c.n, || c.sock.send_to(&wire, c.peer))
            .map_err(|e| format!("call {}: send {method:?}: {e}", c.n))
    }

    fn start_call(&mut self, n: u64, rung: usize, due: Instant) -> Result<(), String> {
        let mut r = Rng::for_item(self.seed, n);
        let sock = self
            .log
            .time("socket.open", n, || {
                self.rig.client.dgram_with(DgramProfile::compact())
            })
            .map_err(|e| format!("call {n}: socket: {e}"))?;
        let call = Call {
            n,
            rung,
            st: St::Inviting,
            peer: SERVER,
            call_id: format!("{:016x}-{n}@perfbench", r.next_u64()),
            from: format!("ua{n}@client.example"),
            due,
            hold: HOLD.mul_f64(0.9 + 0.2 * r.unit()),
            sock,
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.calls.push(None);
            self.calls.len() - 1
        });
        self.by_fd.insert(call.sock.fd(), slot);
        self.calls[slot] = Some(call);
        self.rungs[rung].calls += 1;
        self.p.attempted += 1;
        self.send(slot, SipMethod::Invite)?;
        self.rungs[rung]
            .lag_us
            .push(due.elapsed().as_secs_f64() * 1e6);
        Ok(())
    }

    /// Retires a call: completed, lost, or failed a check.
    fn end_call(&mut self, slot: usize, end: End) {
        let c = self.calls[slot].take().expect("live call");
        self.by_fd.remove(&c.sock.fd());
        self.free.push(slot);
        match end {
            End::Done => self.p.delivered += 1,
            End::Lost => {
                self.rungs[c.rung].lost += 1;
                self.lost += 1;
            }
            End::Bad(why) => {
                self.rungs[c.rung].lost += 1;
                self.p.fail(format!("call {}: {why}", c.n));
            }
        }
    }

    fn on_reply(&mut self, slot: usize, src: Addr, raw: &[u8]) -> Result<(), String> {
        let Some(c) = self.calls[slot].as_ref() else {
            return Ok(());
        };
        let n = c.n;
        let mut planted;
        let raw = if self.plant.flip_op == Some(n) {
            planted = raw.to_vec();
            self.plant.apply(n, &mut planted);
            &planted[..]
        } else {
            raw
        };
        let parsed = self.log.time("apps.sip.parse", n, || {
            SipView::parse(raw).ok().map(|v| {
                (
                    v.status(),
                    v.call_id() == Some(c.call_id.as_str()),
                    v.cseq(),
                )
            })
        });
        let want = match c.st {
            St::Inviting => (1, SipMethod::Invite),
            St::Byeing => (2, SipMethod::Bye),
            St::Held => {
                self.end_call(slot, End::Bad("unsolicited message while held".into()));
                return Ok(());
            }
        };
        match parsed {
            Some((Some(200), true, Some(cseq))) if cseq == want => {}
            other => {
                self.end_call(
                    slot,
                    End::Bad(format!("bad reply to {:?}: {other:?}", want.1)),
                );
                return Ok(());
            }
        }
        self.sip_bytes += raw.len() as u64;
        let c = self.calls[slot].as_mut().expect("live call");
        if c.st == St::Inviting {
            let (due, rung, hold) = (c.due, c.rung, c.hold);
            self.rungs[rung]
                .setup
                .push(due.elapsed().as_secs_f64() * 1e6);
            c.peer = src;
            c.st = St::Held;
            self.send(slot, SipMethod::Ack)?;
            self.byes.push(Reverse((due + hold, slot, n)));
        } else {
            self.end_call(slot, End::Done);
        }
        Ok(())
    }

    /// Receives everything waiting on the ready sockets.
    fn poll(&mut self, timeout: Duration) -> Result<(), String> {
        let fds = self.log.time("socket.wait_ready", 0, || {
            self.rig.client.wait_ready(timeout)
        });
        self.waits += 1;
        self.ready += fds.len() as u64;
        for fd in fds {
            while let Some(&slot) = self.by_fd.get(&fd) {
                let c = self.calls[slot].as_ref().expect("live call");
                let got = self
                    .log
                    .time("socket.recv", c.n, || c.sock.try_recv_bytes())
                    .map_err(|e| format!("call {}: recv: {e}", c.n))?;
                let Some((src, raw)) = got else { break };
                self.on_reply(slot, src, &raw)?;
            }
        }
        Ok(())
    }

    /// Fails calls whose request has gone unanswered too long.
    fn expire(&mut self, now: Instant) {
        let stale: Vec<usize> = (0..self.calls.len())
            .filter(|&i| {
                self.calls[i].as_ref().is_some_and(|c| {
                    c.st != St::Held && now.saturating_duration_since(c.due) > TIMEOUT
                })
            })
            .collect();
        for i in stale {
            self.end_call(i, End::Lost);
        }
    }
}

struct Sample {
    held: f64,
    mem: u64,
    rows: Vec<(&'static str, u64)>,
    rss: f64,
    slab: (u64, u64),
    pool_retained: u64,
}

fn phase(
    rig: &Rig,
    cfg: &RunCfg,
    first: &mut u64,
    d: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let tel = rig.fabric.telemetry();
    let meter = Meter::start(tel);
    let stats = rig.server.as_ref().expect("server running").stats();
    let invites0 = stats.invites.load(Ordering::Relaxed);
    let byes0 = stats.byes.load(Ordering::Relaxed);
    let rss0 = crate::probe::rss_bytes();
    let rung_len = d / LADDER.len() as u32;
    let mut g = Gen {
        rig,
        seed: cfg.seed,
        plant: cfg.plant,
        calls: Vec::new(),
        free: Vec::new(),
        by_fd: HashMap::new(),
        byes: BinaryHeap::new(),
        rungs: LADDER.iter().map(|_| Rung::default()).collect(),
        p: Phase::default(),
        log: SpanLog::new(traced, epoch, 0),
        waits: 0,
        ready: 0,
        sip_bytes: 0,
        lost: 0,
        byes_sent: 0,
    };
    let mut n = *first;
    let mut sample = None;
    let (mut rung, mut k) = (0usize, 0u64);
    let end_of = |r: usize| epoch + rung_len * (r as u32 + 1);
    loop {
        let now = Instant::now();
        // Rung boundaries: record the backlog, sample the reference plateau.
        while rung < LADDER.len() && now >= end_of(rung) {
            let r = &mut g.rungs[rung];
            r.backlog_end = g
                .calls
                .iter()
                .flatten()
                .filter(|c| c.st == St::Inviting)
                .count();
            r.held_end = g
                .calls
                .iter()
                .flatten()
                .filter(|c| c.st == St::Held)
                .count();
            if rung == REFERENCE {
                let snap = tel.snapshot();
                sample = Some(Sample {
                    held: stats.active_calls.load(Ordering::Relaxed) as f64,
                    mem: rig.server_mem.total_current(),
                    rows: rig
                        .server_mem
                        .snapshot()
                        .into_iter()
                        .map(|(c, cur, _)| (c, cur))
                        .collect(),
                    rss: crate::probe::rss_bytes().saturating_sub(rss0) as f64,
                    slab: (
                        snap.get("mem.slab.live").unwrap_or(0),
                        snap.get("mem.slab.slots").unwrap_or(0),
                    ),
                    pool_retained: snap.get("pool.retained_bytes").unwrap_or(0),
                });
            }
            rung += 1;
            k = 0;
        }
        // Due INVITEs of the current rung.
        while rung < LADDER.len() {
            let due =
                epoch + rung_len * rung as u32 + Duration::from_secs_f64(k as f64 / LADDER[rung]);
            if due > now || due >= end_of(rung) {
                break;
            }
            g.start_call(n, rung, due)?;
            n += 1;
            k += 1;
        }
        // Due BYEs.
        while let Some(&Reverse((due, slot, call))) = g.byes.peek() {
            if due > now {
                break;
            }
            g.byes.pop();
            // The dialog may have ended (and its slot been reused) since.
            let Some(c) = g.calls[slot]
                .as_mut()
                .filter(|c| c.n == call && c.st == St::Held)
            else {
                continue;
            };
            c.st = St::Byeing;
            c.due = due;
            let r = c.rung;
            g.send(slot, SipMethod::Bye)?;
            g.byes_sent += 1;
            g.rungs[r].lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        }
        if rung >= LADDER.len() && g.calls.iter().all(Option::is_none) {
            break;
        }
        g.expire(now);
        let next_invite = (rung < LADDER.len()).then(|| {
            epoch + rung_len * rung as u32 + Duration::from_secs_f64(k as f64 / LADDER[rung])
        });
        let next_bye = g.byes.peek().map(|r| r.0 .0);
        let until = [next_invite, next_bye, Some(now + Duration::from_millis(5))]
            .into_iter()
            .flatten()
            .min()
            .expect("a deadline");
        g.poll(until.saturating_duration_since(Instant::now()))?;
    }
    let mut p = std::mem::take(&mut g.p);
    p.trace
        .absorb(std::mem::replace(&mut g.log, SpanLog::new(false, epoch, 0)));
    meter.finish(tel, &mut p);
    *first = n;

    // Server-side cross-check: every INVITE and BYE was answered once
    // (a dropped request or reply loosens equality to bounds).
    // The server counts a request just after sending its reply, so give
    // the count a moment to catch up with the last replies seen.
    let settle = Instant::now() + Duration::from_secs(1);
    while stats.byes.load(Ordering::Relaxed) - byes0 < p.delivered && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(1));
    }
    let invites = stats.invites.load(Ordering::Relaxed) - invites0;
    let byes = stats.byes.load(Ordering::Relaxed) - byes0;
    let exact = invites == p.attempted && byes == p.delivered;
    let bounded = invites <= p.attempted && (p.delivered..=g.byes_sent).contains(&byes);
    if !(exact || g.lost > 0 && bounded) {
        p.fail(format!(
            "server answered {invites} INVITEs and {byes} BYEs for {} calls ({} completed, {} lost)",
            p.attempted, p.delivered, g.lost
        ));
    }
    if stats.parse_errors.load(Ordering::Relaxed) > 0 {
        p.fail("server saw unparsable messages".into());
    }

    let rr = &g.rungs[REFERENCE];
    let best = LADDER
        .iter()
        .zip(&g.rungs)
        .filter(|(&rate, r)| r.passes(rate))
        .map(|(&rate, _)| rate)
        .fold(0.0, f64::max);
    p.ops_per_s = best;
    // Every rung's INVITE→200 times, each rung its own latency class.
    for (name, r) in RUNG_NAMES.into_iter().zip(&g.rungs) {
        p.lat.classes.push((name, r.setup.clone()));
    }
    p.verified_bytes = g.sip_bytes;
    p.posted_bytes = g.sip_bytes;
    let s = sample.ok_or("reference rung never ended")?;
    p.in_flight = s.held.max(1.0);
    p.mem_tracked = s.mem;
    p.rss_delta = s.rss;
    for (cat, bytes) in &s.rows {
        p.layer
            .insert(format!("mem.{cat}_per_call"), *bytes as f64 / p.in_flight);
    }
    p.layer.insert("mem.slab.live".into(), s.slab.0 as f64);
    p.layer.insert("mem.slab.slots".into(), s.slab.1 as f64);
    p.layer
        .insert("pool.retained_bytes".into(), s.pool_retained as f64);
    let lag: Vec<f64> = g
        .rungs
        .iter()
        .flat_map(|r| r.lag_us.iter().copied())
        .collect();
    p.layer
        .insert("gen.lag_us_p99".into(), percentile(&lag, 0.99));
    p.layer.insert(
        "socket.ready_per_wake".into(),
        g.ready as f64 / g.waits.max(1) as f64,
    );
    p.lat_cells("call_setup_all_rungs_us");
    p.cell("call_setup_us_p50", rr.setup.p(0.5), "us");
    p.cell("call_setup_us_p99", rr.setup.tail(0.99), "us");
    p.cell("sip_max_calls_per_s", best, "1/s");
    p.cell("mem_per_call_bytes", s.mem as f64 / p.in_flight, "B");
    p.cell("rss_per_call_bytes", s.rss / p.in_flight, "B");
    p.cell("reference_held_dialogs", s.held, "count");
    for (i, (rate, r)) in LADDER.iter().zip(&g.rungs).enumerate() {
        let name = |m: &str| format!("{}.{m}", RUNG_NAMES[i]);
        p.cell(&name("offered_per_s"), *rate, "1/s");
        p.cell(&name("calls"), r.calls as f64, "count");
        p.cell(&name("lost"), r.lost as f64, "count");
        p.cell(&name("setup_us_p50"), r.setup.p(0.5), "us");
        p.cell(&name("setup_us_p99"), r.setup.p(0.99), "us");
        p.cell(&name("lag_us_p99"), percentile(&r.lag_us, 0.99), "us");
        p.cell(&name("backlog_end"), r.backlog_end as f64, "count");
        p.cell(&name("held_end"), r.held_end as f64, "count");
        p.cell(
            &name("passes"),
            f64::from(u8::from(r.passes(*rate))),
            "bool",
        );
    }
    Ok(p)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut next = 0;
    crate::run_rig(
        cfg,
        || setup(cfg.seed),
        |rig| &rig.fabric,
        |rig, d, traced| phase(rig, cfg, &mut next, d, traced),
    )
}

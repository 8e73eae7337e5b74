//! `ud_stream_lossy`: a one-way UD stream under 1 % Bernoulli wire loss.
//! Message sizes are log-uniform from 4 KiB to 1 MiB, on both sides of
//! the 64 KiB datagram cliff; messages alternate send/recv and
//! Write-Record with a fixed window in flight.
//!
//! Flow control lives in the benchmark. A message is *resolved* when its
//! terminal completion arrives, or when a later message's completion (or
//! a probe's) arrives first: the link is FIFO for one sender and one
//! engine drains the QP in order, so nothing of an earlier message can
//! arrive after that. Each Write-Record lands in its own sink slot, which
//! is reused only once its previous message is resolved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, Cqe, CqeStatus, Device, MemoryRegion, QpConfig, UdQp};
use iwarp_common::memacct::MemRegistry;
use simnet::{Fabric, LossModel, WireConfig};

use crate::data::{Pattern, Plant, Rng};
use crate::span::SpanLog;
use crate::{Meter, Outcome, Phase, RunCfg};

pub const LOSS: f64 = 0.01;
const MIN: usize = 4 << 10;
const MAX: usize = 1 << 20;
/// Messages in flight.
pub const WINDOW: u64 = 8;
/// Write-Record sink slots (message `n` uses slot `n % SLOTS`).
const SLOTS: u64 = 2 * WINDOW;
/// Posted receive buffers of `MAX` bytes.
const RECVS: u64 = 16;
/// How long a full window waits for progress before probing.
const PROBE_AFTER: Duration = Duration::from_millis(5);
/// How long the end of a phase may take to resolve its last messages.
const DRAIN: Duration = Duration::from_secs(5);
const PROBE_WR: u64 = u64::MAX;
/// Probe landing slots (8 B each), used round-robin: a probe's value is
/// read after its completion, so it must not share a slot with the next
/// few probes.
const PROBE_SLOTS: u64 = 256;

/// Size of message `n`.
pub fn size_of(seed: u64, n: u64) -> usize {
    Rng::for_item(seed, n).log_uniform(MIN, MAX)
}

/// Even messages are send/recv, odd ones Write-Record.
fn is_write_record(n: u64) -> bool {
    n % 2 == 1
}

struct Rig {
    fabric: Fabric,
    mem: MemRegistry,
    tx: UdQp,
    rx: UdQp,
    tx_cqs: (Cq, Cq),
    rx_cq: Cq,
    sink: MemoryRegion,
    probe: MemoryRegion,
    recv_bufs: Vec<MemoryRegion>,
    _devs: (Device, Device),
}

pub fn wire(seed: u64) -> WireConfig {
    WireConfig {
        loss: LossModel::bernoulli(LOSS),
        seed,
        ..WireConfig::default()
    }
}

fn setup(seed: u64) -> Result<Rig, String> {
    let fabric = Fabric::new(wire(seed));
    let mem = MemRegistry::new();
    let (da, db) = (
        crate::accounted_device(&fabric, 0, &mem),
        crate::accounted_device(&fabric, 1, &mem),
    );
    let tx_cqs = (Cq::new(1024), Cq::new(16));
    let rx_cq = Cq::new(1024);
    let rx_send_cq = Cq::new(16);
    let tx = da
        .create_ud_qp(None, &tx_cqs.0, &tx_cqs.1, QpConfig::default())
        .map_err(|e| format!("create UD QP: {e}"))?;
    let rx = db
        .create_ud_qp(None, &rx_send_cq, &rx_cq, QpConfig::default())
        .map_err(|e| format!("create UD QP: {e}"))?;
    let recv_bufs: Vec<MemoryRegion> = (0..RECVS)
        .map(|_| db.register(MAX, Access::Local))
        .collect();
    for (i, mr) in recv_bufs.iter().enumerate() {
        rx.post_recv(RecvWr::whole(i as u64, mr))
            .map_err(|e| format!("post recv: {e}"))?;
    }
    Ok(Rig {
        sink: db.register(SLOTS as usize * MAX, Access::RemoteWrite),
        probe: db.register(PROBE_SLOTS as usize * 8, Access::RemoteWrite),
        fabric,
        mem,
        tx,
        rx,
        tx_cqs,
        rx_cq,
        recv_bufs,
        _devs: (da, db),
    })
}

/// Sender → receiver bookkeeping for messages in flight.
struct Shared {
    /// Messages `0..resolved` are resolved (receiver-owned, sender waits).
    resolved: Mutex<u64>,
    progress: Condvar,
    /// Messages `0..posted` have been handed to the stack.
    posted: AtomicU64,
    /// Post time (ns since the phase epoch) of message `n`, at `n % SLOTS`.
    post_ns: Vec<AtomicU64>,
    stop: AtomicBool,
}

/// The receiver thread's state and tallies.
struct Rx {
    seed: u64,
    plant: Plant,
    epoch: Instant,
    log: SpanLog,
    /// Where arrived bytes are copied to be checked.
    scratch: Vec<u8>,
    p: Phase,
    lost: u64,
    expired: u64,
    /// `(delivered, lost)` messages of each method.
    sr: (u64, u64),
    wr: (u64, u64),
    /// Write-Record `(verified, sent)` bytes.
    wr_bytes: (u64, u64),
}

impl Rx {
    /// Resolves messages up to (excluding) `upto`; `hit` is the message
    /// whose completion resolved them, if any; the rest are lost.
    fn resolve(&mut self, sh: &Shared, upto: u64, hit: Option<u64>) {
        let mut r = sh.resolved.lock().expect("resolved lock");
        if upto <= *r {
            return;
        }
        for n in *r..upto {
            if is_write_record(n) {
                self.wr_bytes.1 += size_of(self.seed, n) as u64;
            }
            if Some(n) != hit {
                self.lost += 1;
                if is_write_record(n) {
                    self.wr.1 += 1;
                } else {
                    self.sr.1 += 1;
                }
            }
        }
        *r = upto;
        sh.progress.notify_all();
    }

    /// Records message `n` delivered with `valid` verified bytes.
    fn delivered(&mut self, sh: &Shared, n: u64, valid: u64) {
        let post = sh.post_ns[(n % SLOTS) as usize].load(Ordering::Acquire);
        let now = self.epoch.elapsed().as_nanos() as u64;
        let class = if is_write_record(n) {
            "write_record"
        } else {
            "send_recv"
        };
        self.p
            .lat
            .push(class, now.saturating_sub(post) as f64 / 1e3);
        self.p.delivered += 1;
        self.p.verified_bytes += valid;
        if is_write_record(n) {
            self.wr.0 += 1;
            self.wr_bytes.0 += valid;
        } else {
            self.sr.0 += 1;
        }
    }
}

fn on_cqe(rig: &Rig, sh: &Shared, cqe: &Cqe, rx: &mut Rx) -> Result<(), String> {
    match &cqe.write_record {
        Some(info) if info.stag == rig.probe.stag() => {
            let mut v = [0u8; 8];
            rig.probe
                .read_into(info.base_to, &mut v)
                .map_err(|e| e.to_string())?;
            let upto = u64::from_le_bytes(v);
            if upto > sh.posted.load(Ordering::Acquire) {
                rx.p.fail(format!("probe claims {upto} messages posted"));
            } else {
                rx.resolve(sh, upto, None);
            }
        }
        Some(info) => {
            let slot = info.base_to / MAX as u64;
            let r = *sh.resolved.lock().expect("resolved lock");
            // The unresolved Write-Record message that owns this slot.
            let n = (r..sh.posted.load(Ordering::Acquire))
                .find(|&n| is_write_record(n) && n % SLOTS == slot)
                .filter(|_| info.stag == rig.sink.stag() && info.base_to == slot * MAX as u64);
            let Some(n) = n else {
                rx.p.fail(format!(
                    "{:?} Write-Record of {} B at {} matches no message in flight (resolved {r})",
                    cqe.status, info.total_len, info.base_to
                ));
                return Ok(());
            };
            if info.total_len as usize != size_of(rx.seed, n)
                || !matches!(cqe.status, CqeStatus::Success | CqeStatus::Partial)
            {
                rx.p.fail(format!(
                    "message {n}: {:?}, {} B of {}",
                    cqe.status,
                    info.total_len,
                    size_of(rx.seed, n)
                ));
            } else {
                let pat = Pattern::new(rx.seed, n);
                let ok = rx.log.time("bench.verify", n, || -> Result<bool, String> {
                    let mut ok = true;
                    for (i, (start, end)) in info.absolute_runs().into_iter().enumerate() {
                        let buf = &mut rx.scratch[..(end - start) as usize];
                        rig.sink.read_into(start, buf).map_err(|e| e.to_string())?;
                        if i == 0 {
                            rx.plant.apply(n, buf);
                        }
                        ok &= pat.matches_at(start - info.base_to, buf);
                    }
                    Ok(ok)
                })?;
                if ok {
                    rx.delivered(sh, n, info.valid_bytes());
                } else {
                    rx.p.fail(format!("message {n}: Write-Record content mismatch"));
                }
            }
            rx.resolve(sh, n + 1, Some(n));
        }
        None => {
            let mr = rig
                .recv_bufs
                .get(cqe.wr_id as usize)
                .ok_or_else(|| format!("unknown receive {}", cqe.wr_id))?;
            match cqe.status {
                CqeStatus::Success => {
                    let len = cqe.byte_len as usize;
                    let buf = &mut rx.scratch[..len];
                    mr.read_into(0, buf).map_err(|e| e.to_string())?;
                    let r = *sh.resolved.lock().expect("resolved lock");
                    // Which unresolved send/recv message this is: the one
                    // whose size and leading bytes match.
                    let n = (r..sh.posted.load(Ordering::Acquire)).find(|&n| {
                        !is_write_record(n)
                            && size_of(rx.seed, n) == len
                            && Pattern::new(rx.seed, n).matches_at(0, &buf[..len.min(16)])
                    });
                    match n {
                        Some(n) => {
                            rx.plant.apply(n, buf);
                            if rx.log.time("bench.verify", n, || {
                                Pattern::new(rx.seed, n).matches_at(0, buf)
                            }) {
                                rx.delivered(sh, n, len as u64);
                            } else {
                                rx.p.fail(format!("message {n}: send/recv content mismatch"));
                            }
                            rx.resolve(sh, n + 1, Some(n));
                        }
                        None => {
                            rx.p.fail(format!("{len} B receive matches no message in flight"))
                        }
                    }
                }
                CqeStatus::Expired => rx.expired += 1,
                other => rx.p.fail(format!("receive completed {other:?}")),
            }
            rx.log
                .time("core.qp.post_recv", cqe.wr_id, || {
                    rig.rx.post_recv(RecvWr::whole(cqe.wr_id, mr))
                })
                .map_err(|e| format!("repost: {e}"))?;
        }
    }
    Ok(())
}

fn receiver(
    rig: &Rig,
    sh: &Shared,
    cfg: &RunCfg,
    epoch: Instant,
    traced: bool,
) -> Result<Rx, String> {
    let mut rx = Rx {
        seed: cfg.seed,
        plant: cfg.plant,
        epoch,
        log: SpanLog::new(traced, epoch, 1),
        scratch: vec![0u8; MAX],
        p: Phase::default(),
        lost: 0,
        expired: 0,
        sr: (0, 0),
        wr: (0, 0),
        wr_bytes: (0, 0),
    };
    while !sh.stop.load(Ordering::Acquire) {
        let Ok(cqe) = rx.log.time("core.cq.wait", 0, || {
            rig.rx_cq.poll_timeout(Duration::from_millis(10))
        }) else {
            continue;
        };
        on_cqe(rig, sh, &cqe, &mut rx)?;
    }
    Ok(rx)
}

/// Sends messages `first..` for `d`, then waits until all are resolved.
fn sender(
    rig: &Rig,
    sh: &Shared,
    cfg: &RunCfg,
    first: u64,
    d: Duration,
    epoch: Instant,
    log: &mut SpanLog,
) -> Result<(u64, u64), String> {
    let (mut n, mut bytes) = (first, 0u64);
    let probes = std::cell::Cell::new(0u64);
    // A probe carries the number of messages posted before it; its
    // completion proves every earlier message has been processed.
    let probe = |upto: u64, log: &mut SpanLog| {
        let to = (probes.get() % PROBE_SLOTS) * 8;
        probes.set(probes.get() + 1);
        log.time("core.qp.post_write_record", PROBE_WR, || {
            rig.tx.post_write_record(
                PROBE_WR,
                upto.to_le_bytes().to_vec(),
                rig.rx.dest(),
                rig.probe.stag(),
                to,
            )
        })
        .map_err(|e| format!("probe: {e}"))
    };
    // Waits until fewer than `room` messages are unresolved, probing when
    // the window stalls (every message in it may have vanished).
    let wait = |room: u64, n: u64, log: &mut SpanLog, deadline: Instant| -> Result<(), String> {
        let mut r = sh.resolved.lock().expect("resolved lock");
        while n - *r >= room {
            if Instant::now() > deadline {
                return Err(format!("messages {}..{n} unresolved after {DRAIN:?}", *r));
            }
            let before = *r;
            r = log.time("bench.window_wait", n, || {
                sh.progress
                    .wait_timeout(r, PROBE_AFTER)
                    .expect("resolved lock")
                    .0
            });
            if *r == before {
                drop(r);
                probe(n, log)?;
                r = sh.resolved.lock().expect("resolved lock");
            }
        }
        Ok(())
    };
    while epoch.elapsed() < d {
        wait(WINDOW, n, log, Instant::now() + DRAIN)?;
        let size = size_of(cfg.seed, n);
        let msg = Pattern::new(cfg.seed, n).bytes(size);
        sh.posted.store(n + 1, Ordering::Release);
        sh.post_ns[(n % SLOTS) as usize]
            .store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
        let r = if is_write_record(n) {
            let to = (n % SLOTS) * MAX as u64;
            log.time("core.qp.post_write_record", n, || {
                rig.tx
                    .post_write_record(n, msg, rig.rx.dest(), rig.sink.stag(), to)
            })
        } else {
            log.time("core.qp.post_send", n, || {
                rig.tx.post_send(n, msg, rig.rx.dest())
            })
        };
        r.map_err(|e| format!("message {n}: post: {e}"))?;
        bytes += size as u64;
        n += 1;
        while let Some(c) = rig.tx_cqs.0.poll() {
            if c.status != CqeStatus::Success && c.wr_id != PROBE_WR {
                return Err(format!(
                    "message {}: send completed {:?}",
                    c.wr_id, c.status
                ));
            }
        }
    }
    wait(1, n, log, Instant::now() + DRAIN)?;
    Ok((n - first, bytes))
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
    let sh = Shared {
        resolved: Mutex::new(*first),
        progress: Condvar::new(),
        posted: AtomicU64::new(*first),
        post_ns: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
        stop: AtomicBool::new(false),
    };
    let (sent, rx, logs) = std::thread::scope(|s| {
        let recv = s.spawn(|| receiver(rig, &sh, cfg, epoch, traced));
        let mut log = SpanLog::new(traced, epoch, 0);
        let sent = sender(rig, &sh, cfg, *first, d, epoch, &mut log);
        sh.stop.store(true, Ordering::Release);
        let rx = recv.join().expect("receiver thread");
        (sent, rx, log)
    });
    let (count, bytes) = sent?;
    let rx = rx?;
    let mut p = rx.p;
    p.trace.absorb(logs);
    p.trace.absorb(rx.log);
    meter.finish(tel, &mut p);
    *first += count;
    p.attempted = count;
    p.posted_bytes = bytes;
    p.ops_per_s = count as f64 / p.elapsed_s;
    p.in_flight = WINDOW as f64;
    p.mem_tracked = rig.mem.total_current();
    let ratio = |(ok, lost): (u64, u64)| ok as f64 / (ok + lost).max(1) as f64;
    p.cell("send_recv_delivered_ratio", ratio(rx.sr), "ratio");
    p.cell("write_record_delivered_ratio", ratio(rx.wr), "ratio");
    p.cell(
        "write_record_salvaged_byte_ratio",
        rx.wr_bytes.0 as f64 / rx.wr_bytes.1.max(1) as f64,
        "ratio",
    );
    p.cell("lost_messages", rx.lost as f64, "count");
    p.cell("expired_receives", rx.expired as f64, "count");
    p.lat_cells("msg_lat_us");
    p.cell(
        "goodput_mb_s",
        p.verified_bytes as f64 / p.elapsed_s / 1e6,
        "MB/s",
    );
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

/// The op sequence and loss count of a fixed number of messages posted
/// back to back, for the reproducibility self-test: message sizes and
/// methods, then the fabric's `dropped_loss`.
pub fn replay_fingerprint(seed: u64, messages: u64) -> Result<(Vec<(usize, bool)>, u64), String> {
    let rig = setup(seed)?;
    let ops: Vec<(usize, bool)> = (0..messages)
        .map(|n| (size_of(seed, n), is_write_record(n)))
        .collect();
    for (n, &(size, wr)) in ops.iter().enumerate() {
        let n = n as u64;
        let msg = Pattern::new(seed, n).bytes(size);
        if wr {
            let to = (n % SLOTS) * MAX as u64;
            rig.tx
                .post_write_record(n, msg, rig.rx.dest(), rig.sink.stag(), to)
        } else {
            rig.tx.post_send(n, msg, rig.rx.dest())
        }
        .map_err(|e| e.to_string())?;
        while rig.tx_cqs.0.poll().is_some() {}
    }
    let dropped = rig
        .fabric
        .telemetry()
        .snapshot()
        .get("simnet.fabric.dropped_loss")
        .unwrap_or(0);
    Ok((ops, dropped))
}

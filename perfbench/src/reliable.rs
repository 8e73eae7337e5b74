//! `reliable_lossy`: an RC send/recv stream and an RD send/recv stream,
//! posted strictly alternately under 1 % wire loss, sizes log-uniform from 1 B to
//! 64 KiB, each stream with a fixed window in flight. Every message must
//! arrive exactly once and in order; loss recovery (the `cc` scoreboard,
//! RTO, congestion window) does the work no other workload exercises.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeStatus, Device, MemoryRegion, QpConfig, RcQp, RdQp};
use iwarp_common::memacct::MemRegistry;
use simnet::{Addr, Fabric};

use crate::data::{Pattern, Rng};
use crate::span::SpanLog;
use crate::{Meter, Outcome, Phase, RunCfg};

const MAX: usize = 64 << 10;
/// Messages in flight per stream; also the receives each stream keeps
/// posted, so a reliable sender never outruns them.
const WINDOW: u64 = 8;
const PORT: u16 = 7100;
/// How long the end of a phase may take to deliver its last messages.
const DRAIN: Duration = Duration::from_secs(20);
const NAMES: [&str; 2] = ["rc", "rd"];

/// Size of message `k` of stream `q` (0 = RC, 1 = RD).
fn size_of(seed: u64, q: usize, k: u64) -> usize {
    Rng::for_item(seed, msg_id(q, k)).log_uniform(1, MAX)
}

fn msg_id(q: usize, k: u64) -> u64 {
    (k << 1) | q as u64
}

struct Rig {
    fabric: Fabric,
    mem: MemRegistry,
    rc: (RcQp, RcQp),
    rd: (RdQp, RdQp),
    tx_cq: Cq,
    rx_cq: Cq,
    /// Receive buffers per stream; `wr_id = q << 32 | index`.
    bufs: [Vec<MemoryRegion>; 2],
    _cqs: (Cq, Cq),
    _devs: (Device, Device),
}

impl Rig {
    fn post_recv(&self, q: usize, i: usize) -> iwarp::IwarpResult<()> {
        let wr = RecvWr::whole(((q as u64) << 32) | i as u64, &self.bufs[q][i]);
        if q == 0 {
            self.rc.1.post_recv(wr)
        } else {
            self.rd.1.post_recv(wr)
        }
    }
}

fn setup(seed: u64) -> Result<Rig, String> {
    let fabric = Fabric::new(crate::ud_stream::wire(seed));
    let mem = MemRegistry::new();
    let (da, db) = (
        crate::accounted_device(&fabric, 0, &mem),
        crate::accounted_device(&fabric, 1, &mem),
    );
    // Senders share one CQ pair, receivers another; unused directions
    // get their own small CQs.
    let (tx_cq, rx_cq) = (Cq::new(1024), Cq::new(1024));
    let (tx_idle, rx_idle) = (Cq::new(64), Cq::new(64));
    let listener = db.rc_listen(PORT).map_err(|e| format!("listen: {e}"))?;
    let rc = std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener.accept(
                Duration::from_secs(5),
                &rx_idle,
                &rx_cq,
                QpConfig::default(),
            )
        });
        let cli = da.rc_connect(Addr::new(1, PORT), &tx_cq, &tx_idle, QpConfig::default());
        (cli, srv.join().expect("accept thread"))
    });
    let rc = (
        rc.0.map_err(|e| format!("connect: {e}"))?,
        rc.1.map_err(|e| format!("accept: {e}"))?,
    );
    let rd = (
        da.create_rd_qp(None, &tx_cq, &tx_idle, QpConfig::default())
            .map_err(|e| format!("create RD QP: {e}"))?,
        db.create_rd_qp(None, &rx_idle, &rx_cq, QpConfig::default())
            .map_err(|e| format!("create RD QP: {e}"))?,
    );
    let bufs = [0, 1].map(|_| {
        (0..WINDOW)
            .map(|_| db.register(MAX, Access::Local))
            .collect()
    });
    let rig = Rig {
        fabric,
        mem,
        rc,
        rd,
        tx_cq,
        rx_cq,
        bufs,
        _cqs: (tx_idle, rx_idle),
        _devs: (da, db),
    };
    for q in 0..2 {
        for i in 0..WINDOW as usize {
            rig.post_recv(q, i).map_err(|e| format!("post recv: {e}"))?;
        }
    }
    Ok(rig)
}

/// Per-stream progress shared by sender and receiver.
struct Shared {
    /// `[stream] = messages consumed (verified and receive reposted)`.
    consumed: Mutex<[u64; 2]>,
    progress: Condvar,
    /// Post time of message `k` of stream `q`, at `[q][k % WINDOW]`.
    post_at: Mutex<[[Option<Instant>; WINDOW as usize]; 2]>,
    stop: std::sync::atomic::AtomicBool,
}

fn receiver(
    rig: &Rig,
    sh: &Shared,
    cfg: &RunCfg,
    first: [u64; 2],
    epoch: Instant,
    traced: bool,
) -> Result<(Phase, SpanLog), String> {
    use std::sync::atomic::Ordering;
    let mut log = SpanLog::new(traced, epoch, 1);
    let mut p = Phase::default();
    let mut next = first;
    let mut buf = vec![0u8; MAX];
    while !sh.stop.load(Ordering::Acquire) {
        let Ok(cqe) = log.time("core.cq.wait", 0, || {
            rig.rx_cq.poll_timeout(Duration::from_millis(10))
        }) else {
            continue;
        };
        let (q, i) = (
            (cqe.wr_id >> 32) as usize,
            (cqe.wr_id & 0xFFFF_FFFF) as usize,
        );
        let Some(mr) = rig.bufs.get(q).and_then(|b| b.get(i)) else {
            return Err(format!("unknown receive {:#x}", cqe.wr_id));
        };
        let k = next[q];
        let (size, id) = (size_of(cfg.seed, q, k), msg_id(q, k));
        if cqe.status != CqeStatus::Success || cqe.byte_len as usize != size {
            // Loss, duplication or reordering all surface here: the next
            // message in order has a known size.
            p.fail(format!(
                "{} message {k}: {:?} of {} B, expected {size}",
                NAMES[q], cqe.status, cqe.byte_len
            ));
        } else {
            let got = &mut buf[..size];
            mr.read_into(0, got).map_err(|e| e.to_string())?;
            cfg.plant.apply(id, got);
            if log.time("bench.verify", id, || {
                Pattern::new(cfg.seed, id).matches_at(0, got)
            }) {
                let posted = sh.post_at.lock().expect("post_at lock")[q][(k % WINDOW) as usize];
                if let Some(t0) = posted {
                    p.lat.push(NAMES[q], t0.elapsed().as_secs_f64() * 1e6);
                }
                p.delivered += 1;
                p.verified_bytes += size as u64;
            } else {
                p.fail(format!(
                    "{} message {k}: content mismatch (duplicate or out of order)",
                    NAMES[q]
                ));
            }
        }
        next[q] += 1;
        log.time("core.qp.post_recv", id, || rig.post_recv(q, i))
            .map_err(|e| format!("repost: {e}"))?;
        sh.consumed.lock().expect("consumed lock")[q] = next[q];
        sh.progress.notify_all();
    }
    Ok((p, log))
}

/// Posts messages alternately on the two streams for `d` (message `n`
/// goes to stream `n % 2`), each within its window, then waits for all
/// of them. Returns the per-stream message counts reached and the bytes.
fn sender(
    rig: &Rig,
    sh: &Shared,
    cfg: &RunCfg,
    first: [u64; 2],
    d: Duration,
    epoch: Instant,
    log: &mut SpanLog,
) -> Result<([u64; 2], u64), String> {
    let mut next = first;
    let mut bytes = 0u64;
    // Waits until `done` holds for the consumed counts.
    let wait = |done: &dyn Fn(&[u64; 2]) -> bool, log: &mut SpanLog| -> Result<(), String> {
        let deadline = Instant::now() + DRAIN;
        let mut c = sh.consumed.lock().expect("consumed lock");
        while !done(&c) {
            if Instant::now() > deadline {
                return Err(format!("streams stalled at {:?} consumed", *c));
            }
            c = log
                .time("bench.window_wait", 0, || {
                    sh.progress.wait_timeout(c, Duration::from_millis(50))
                })
                .expect("consumed lock")
                .0;
        }
        Ok(())
    };
    // Stream 0 goes first, so after an even number of messages per phase
    // the alternation continues across phases.
    let mut q = usize::from(next[1] < next[0]);
    while epoch.elapsed() < d {
        let k = next[q];
        wait(&|c| k < c[q] + WINDOW, log)?;
        let (size, id) = (size_of(cfg.seed, q, k), msg_id(q, k));
        let msg = Pattern::new(cfg.seed, id).bytes(size);
        sh.post_at.lock().expect("post_at lock")[q][(k % WINDOW) as usize] = Some(Instant::now());
        let r = if q == 0 {
            log.time("core.qp.post_send", id, || rig.rc.0.post_send(id, msg))
        } else {
            log.time("core.qp.post_send", id, || {
                rig.rd.0.post_send(id, msg, rig.rd.1.dest())
            })
        };
        r.map_err(|e| format!("{} message {k}: post: {e}", NAMES[q]))?;
        bytes += size as u64;
        next[q] += 1;
        q = 1 - q;
        while let Some(c) = rig.tx_cq.poll() {
            if c.status != CqeStatus::Success {
                return Err(format!(
                    "message {}: send completed {:?}",
                    c.wr_id, c.status
                ));
            }
        }
    }
    wait(&|c| *c == next, log)?;
    Ok((next, bytes))
}

fn phase(
    rig: &Rig,
    cfg: &RunCfg,
    first: &mut [u64; 2],
    d: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let tel = rig.fabric.telemetry();
    let meter = Meter::start(tel);
    let sh = Shared {
        consumed: Mutex::new(*first),
        progress: Condvar::new(),
        post_at: Mutex::new([[None; WINDOW as usize]; 2]),
        stop: false.into(),
    };
    let start = *first;
    let (sent, rx, log) = std::thread::scope(|s| {
        let recv = s.spawn(|| receiver(rig, &sh, cfg, start, epoch, traced));
        let mut log = SpanLog::new(traced, epoch, 0);
        let sent = sender(rig, &sh, cfg, start, d, epoch, &mut log);
        sh.stop.store(true, std::sync::atomic::Ordering::Release);
        (sent, recv.join().expect("receiver thread"), log)
    });
    let (end, bytes) = sent?;
    let (mut p, rlog) = rx?;
    p.trace.absorb(log);
    p.trace.absorb(rlog);
    meter.finish(tel, &mut p);
    *first = end;
    p.attempted = (end[0] - start[0]) + (end[1] - start[1]);
    p.posted_bytes = bytes;
    p.ops_per_s = p.attempted as f64 / p.elapsed_s;
    p.in_flight = 2.0 * WINDOW as f64;
    p.mem_tracked = rig.mem.total_current();
    p.cell("rc_messages", (end[0] - start[0]) as f64, "count");
    p.cell("rd_messages", (end[1] - start[1]) as f64, "count");
    p.lat_cells("msg_lat_us");
    p.cell(
        "goodput_mb_s",
        p.verified_bytes as f64 / p.elapsed_s / 1e6,
        "MB/s",
    );
    Ok(p)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut next = [0u64; 2];
    crate::run_rig(
        cfg,
        || setup(cfg.seed),
        |rig| &rig.fabric,
        |rig, d, traced| phase(rig, cfg, &mut next, d, traced),
    )
}

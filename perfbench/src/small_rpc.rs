//! `small_rpc`: a closed loop of 64 B UD requests and replies, one request
//! outstanding, alternating two-sided send/recv and one-sided
//! Write-Record, over the lossless unpaced fabric with default
//! `Device`/`QpConfig`. Per-message fixed cost (post → ring → engine wake
//! → CQE → reap) is the whole latency.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, Cqe, CqeStatus, Device, MemoryRegion, QpConfig, UdQp};
use iwarp_common::memacct::MemRegistry;
use simnet::{Fabric, WireConfig};

use crate::data::Pattern;
use crate::span::SpanLog;
use crate::{Meter, Outcome, Phase, RunCfg};

const MSG: usize = 64;
/// Where Write-Records land in the peer's sink.
const SLOT: u64 = 0;
/// Receive buffers each side keeps posted.
const RECVS: u64 = 4;
const POLL: Duration = Duration::from_secs(5);
/// How often an idle responder re-checks the stop flag.
const IDLE: Duration = Duration::from_millis(20);

struct Side {
    qp: UdQp,
    recv_cq: Cq,
    send_cq: Cq,
    /// Write-Record landing zone.
    sink: MemoryRegion,
    recv_bufs: Vec<MemoryRegion>,
}

struct Rig {
    fabric: Fabric,
    mem: MemRegistry,
    a: Side,
    b: Side,
    _devs: (Device, Device),
}

fn side(dev: &Device) -> Result<Side, String> {
    let (send_cq, recv_cq) = (Cq::new(256), Cq::new(256));
    let qp = dev
        .create_ud_qp(None, &send_cq, &recv_cq, QpConfig::default())
        .map_err(|e| format!("create UD QP: {e}"))?;
    let recv_bufs: Vec<MemoryRegion> = (0..RECVS)
        .map(|_| dev.register(MSG, Access::Local))
        .collect();
    for (i, mr) in recv_bufs.iter().enumerate() {
        qp.post_recv(RecvWr::whole(i as u64, mr))
            .map_err(|e| format!("post recv: {e}"))?;
    }
    Ok(Side {
        qp,
        recv_cq,
        send_cq,
        sink: dev.register(MSG, Access::RemoteWrite),
        recv_bufs,
    })
}

fn setup(seed: u64) -> Result<Rig, String> {
    let fabric = Fabric::new(WireConfig {
        seed,
        ..WireConfig::default()
    });
    let mem = MemRegistry::new();
    let (da, db) = (
        crate::accounted_device(&fabric, 0, &mem),
        crate::accounted_device(&fabric, 1, &mem),
    );
    Ok(Rig {
        a: side(&da)?,
        b: side(&db)?,
        fabric,
        mem,
        _devs: (da, db),
    })
}

/// Even ops are send/recv, odd ones Write-Record.
fn is_write_record(op: u64) -> bool {
    op % 2 == 1
}

fn class(op: u64) -> &'static str {
    if is_write_record(op) {
        "write_record"
    } else {
        "send_recv"
    }
}

/// Message ids: request of op `i` is `2i`, its reply `2i + 1`.
fn req_id(op: u64) -> u64 {
    2 * op
}

/// Sends `msg` from `from` to `to` by the op's method, inside a span.
fn post(from: &Side, to: &Side, op: u64, msg: Vec<u8>, log: &mut SpanLog) -> Result<(), String> {
    let r = if is_write_record(op) {
        log.time("core.qp.post_write_record", op, || {
            from.qp
                .post_write_record(op, msg, to.qp.dest(), to.sink.stag(), SLOT)
        })
    } else {
        log.time("core.qp.post_send", op, || {
            from.qp.post_send(op, msg, to.qp.dest())
        })
    };
    r.map_err(|e| format!("op {op}: post: {e}"))
}

/// Checks one arrived message of op `op` against pattern `id`, reposting
/// the receive it consumed. Returns the verified byte count.
fn take(
    side: &Side,
    cqe: &Cqe,
    op: u64,
    id: u64,
    cfg: &RunCfg,
    p: &mut Phase,
    log: &mut SpanLog,
) -> Result<u64, String> {
    let buf = &mut [0u8; MSG];
    if cqe.status != CqeStatus::Success || cqe.byte_len as usize != MSG {
        p.fail(format!("op {op}: {:?} of {} B", cqe.status, cqe.byte_len));
        return Ok(0);
    }
    match &cqe.write_record {
        Some(info) => {
            if !is_write_record(op) || info.base_to != SLOT || !info.is_complete() {
                p.fail(format!(
                    "op {op}: Write-Record at {} complete={}",
                    info.base_to,
                    info.is_complete()
                ));
                return Ok(0);
            }
            side.sink
                .read_into(info.base_to, buf)
                .map_err(|e| e.to_string())?;
        }
        None => {
            if is_write_record(op) {
                p.fail(format!(
                    "op {op}: send/recv completion for a Write-Record op"
                ));
            }
            let mr = side
                .recv_bufs
                .get(cqe.wr_id as usize)
                .ok_or_else(|| format!("op {op}: unknown receive {}", cqe.wr_id))?;
            mr.read_into(0, buf).map_err(|e| e.to_string())?;
            log.time("core.qp.post_recv", op, || {
                side.qp.post_recv(RecvWr::whole(cqe.wr_id, mr))
            })
            .map_err(|e| format!("repost: {e}"))?;
        }
    }
    cfg.plant.apply(id, buf);
    if log.time("bench.verify", op, || {
        Pattern::new(cfg.seed, id).matches_at(0, buf)
    }) {
        Ok(MSG as u64)
    } else {
        p.fail(format!("op {op}: message {id} content mismatch"));
        Ok(0)
    }
}

/// Drains a send CQ, failing any unsuccessful send completion.
fn reap_sends(side: &Side, p: &mut Phase) {
    while let Some(c) = side.send_cq.poll() {
        if c.status != CqeStatus::Success {
            p.fail(format!("send completion {:?}", c.status));
        }
    }
}

fn phase(
    rig: &Rig,
    cfg: &RunCfg,
    first_op: &mut u64,
    d: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let tel = rig.fabric.telemetry();
    let stop = AtomicBool::new(false);
    let meter = Meter::start(tel);
    let (seed, op0) = (cfg.seed, *first_op);

    let (p, responder) = std::thread::scope(|s| {
        let responder = s.spawn(|| -> Result<(Phase, SpanLog), String> {
            let mut log = SpanLog::new(traced, epoch, 1);
            let mut rp = Phase::default();
            let mut op = op0;
            while !stop.load(Ordering::Relaxed) {
                let Ok(cqe) = rig.b.recv_cq.poll_timeout(IDLE) else {
                    continue;
                };
                take(&rig.b, &cqe, op, req_id(op), cfg, &mut rp, &mut log)?;
                post(
                    &rig.b,
                    &rig.a,
                    op,
                    Pattern::new(seed, req_id(op) + 1).bytes(MSG),
                    &mut log,
                )?;
                reap_sends(&rig.b, &mut rp);
                op += 1;
            }
            Ok((rp, log))
        });

        let mut log = SpanLog::new(traced, epoch, 0);
        let mut p = Phase::default();
        let mut op = op0;
        let result = (|| -> Result<(), String> {
            while epoch.elapsed() < d {
                let msg = Pattern::new(seed, req_id(op)).bytes(MSG);
                log.open("op", op);
                let t0 = Instant::now();
                p.attempted += 1;
                post(&rig.a, &rig.b, op, msg, &mut log)?;
                let cqe = log
                    .time("core.cq.wait", op, || rig.a.recv_cq.poll_timeout(POLL))
                    .map_err(|e| format!("op {op}: no reply: {e}"))?;
                let lat = t0.elapsed();
                let got = take(&rig.a, &cqe, op, req_id(op) + 1, cfg, &mut p, &mut log)?;
                log.close();
                if got > 0 {
                    p.delivered += 1;
                    p.verified_bytes += 2 * got;
                    p.lat.push(class(op), lat.as_secs_f64() * 1e6);
                }
                p.posted_bytes += 2 * MSG as u64;
                reap_sends(&rig.a, &mut p);
                op += 1;
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        p.trace.absorb(log);
        (
            result.map(|()| p),
            responder.join().expect("responder thread"),
        )
    });
    let mut p = p?;
    let (rp, rlog) = responder?;
    // A request the responder rejected counts against its op too.
    p.failed += rp.failed;
    p.errors.extend(rp.errors);
    p.trace.absorb(rlog);
    *first_op += p.attempted;
    meter.finish(tel, &mut p);
    p.ops_per_s = p.attempted as f64 / p.elapsed_s;
    p.in_flight = 1.0;
    p.mem_tracked = rig.mem.total_current();
    p.lat_cells("rpc_lat_us");
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

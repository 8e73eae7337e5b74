//! Metric definitions: the end-to-end set every untraced run prints and
//! the per-layer set every traced run prints, each computed from a
//! measured [`Phase`]. A metric a workload does not exercise reads 0.

use crate::{probe, Phase};

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_lat_us_p50", "us"),
    ("ops_per_s", "1/s"),
    ("goodput_mb_s", "MB/s"),
    ("delivered_ratio", "ratio"),
    ("cpu_us_per_op", "us"),
    ("mem_per_op_bytes", "B"),
    ("rss_per_op_bytes", "B"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("core.qp.post_send_us", "us"),
    ("core.qp.post_write_record_us", "us"),
    ("core.qp.post_recv_us", "us"),
    ("core.qp.post_busy_share", "ratio"),
    ("core.qp.post_us_per_mib", "us"),
    ("core.cq.wait_us", "us"),
    ("core.cq.cqe_partial_ratio", "ratio"),
    ("core.chan.wakeups_per_op", "count"),
    ("core.shard.msgs_per_batch", "count"),
    ("core.rx.crc_errors", "count"),
    ("core.rx.dropped_no_rq", "count"),
    ("proc.threads", "count"),
    ("simnet.fabric.ring_spill_ratio", "ratio"),
    ("simnet.fabric.ring_occupancy_mean", "count"),
    ("simnet.fabric.pkts_per_op", "count"),
    ("simnet.fabric.useful_byte_ratio", "ratio"),
    ("simnet.dgram.fragments_per_datagram", "count"),
    ("simnet.dgram.partials_expired_per_op", "count"),
    ("pool.bytes_copied_per_byte", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.retained_bytes", "B"),
    ("cc.retransmits_per_op", "count"),
    ("cc.rto_fired", "count"),
    ("cc.spurious_rto_ratio", "ratio"),
    ("socket.open_us", "us"),
    ("socket.send_to_us", "us"),
    ("socket.recv_us", "us"),
    ("socket.wait_ready_us", "us"),
    ("socket.ready_per_wake", "count"),
    ("apps.sip.encode_us", "us"),
    ("apps.sip.parse_us", "us"),
    ("gen.lag_us_p99", "us"),
    ("mem.qp_dgram_per_call", "B"),
    ("mem.socket_buffers_per_call", "B"),
    ("mem.fd_table_per_call", "B"),
    ("mem.sip_call_per_call", "B"),
    ("mem.sip_call_table_per_call", "B"),
    ("mem.slab.live", "count"),
    ("mem.slab.slots", "count"),
    ("bench.verify_us", "us"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_pct", "%"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(setup_s: &[f64], p: &Phase) -> Vec<(&'static str, f64, &'static str)> {
    let ops = p.attempted as f64;
    let values = [
        probe::median(setup_s),
        p.lat.p50(),
        p.ops_per_s,
        ratio(p.verified_bytes as f64, p.elapsed_s) / 1e6,
        ratio(p.delivered as f64, ops),
        ratio(p.cpu_s * 1e6, ops),
        ratio(p.mem_tracked as f64, p.in_flight),
        ratio(p.rss_delta, p.in_flight),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

/// The per-layer metrics of a traced phase; `untraced` are the phases
/// run around it, for the tracing overhead.
pub fn per_layer(p: &Phase, untraced: &[&Phase]) -> Vec<(&'static str, f64, &'static str)> {
    let c = |n: &str| p.snap.get(n).unwrap_or(0) as f64;
    let ops = p.attempted.max(1) as f64;
    let span_p50 = |n: &str| p.trace.agg(n).map_or(0.0, |a| a.p50_us());
    let span_self = |n: &str| p.trace.agg(n).map_or(0, |a| a.self_ns) as f64;
    let post_self = span_self("core.qp.post_send")
        + span_self("core.qp.post_write_record")
        + span_self("core.qp.post_recv");
    let spans: usize = p.trace.by_name.values().map(|a| a.durations_ns.len()).sum();
    let lat_plain =
        untraced.iter().map(|u| u.lat.p50()).sum::<f64>() / untraced.len().max(1) as f64;
    let value = |name: &str| -> f64 {
        match name {
            "core.qp.post_send_us" => span_p50("core.qp.post_send"),
            "core.qp.post_write_record_us" => span_p50("core.qp.post_write_record"),
            "core.qp.post_recv_us" => span_p50("core.qp.post_recv"),
            "core.qp.post_busy_share" => ratio(post_self, p.elapsed_s * 1e9),
            "core.qp.post_us_per_mib" => {
                ratio(post_self / 1e3, p.posted_bytes as f64 / f64::from(1 << 20))
            }
            "core.cq.wait_us" => span_p50("core.cq.wait"),
            "core.cq.cqe_partial_ratio" => ratio(c("core.cq.cqe_partial"), c("core.cq.cqes")),
            "core.chan.wakeups_per_op" => c("core.chan.wakeups") / ops,
            "core.shard.msgs_per_batch" => ratio(c("core.rx.segments"), c("core.shard.batches")),
            "core.rx.crc_errors" => c("core.rx.crc_errors"),
            "core.rx.dropped_no_rq" => c("core.rx.dropped_no_rq"),
            "proc.threads" => p.threads as f64,
            "simnet.fabric.ring_spill_ratio" => ratio(
                c("simnet.fabric.ring_full_retries"),
                c("simnet.fabric.ring_enqueues"),
            ),
            "simnet.fabric.ring_occupancy_mean" => ratio(
                c("simnet.fabric.ring_occupancy.sum"),
                c("simnet.fabric.ring_occupancy.count"),
            ),
            "simnet.fabric.pkts_per_op" => c("simnet.fabric.tx_packets") / ops,
            "simnet.fabric.useful_byte_ratio" => {
                ratio(p.verified_bytes as f64, c("simnet.fabric.tx_bytes"))
            }
            "simnet.dgram.fragments_per_datagram" => ratio(
                c("simnet.dgram.tx_fragments"),
                c("simnet.dgram.tx_datagrams"),
            ),
            "simnet.dgram.partials_expired_per_op" => c("simnet.dgram.partials_expired") / ops,
            "pool.bytes_copied_per_byte" => ratio(c("pool.bytes_copied"), p.posted_bytes as f64),
            "pool.hit_ratio" => ratio(c("pool.hits"), c("pool.hits") + c("pool.misses")),
            "cc.retransmits_per_op" => c("cc.retransmits") / ops,
            "cc.rto_fired" => c("cc.rto_fired"),
            "cc.spurious_rto_ratio" => ratio(c("cc.spurious_rto"), c("cc.rto_fired")),
            "socket.open_us" => span_p50("socket.open"),
            "socket.send_to_us" => span_p50("socket.send_to"),
            "socket.recv_us" => span_p50("socket.recv"),
            "socket.wait_ready_us" => span_p50("socket.wait_ready"),
            "apps.sip.encode_us" => span_p50("apps.sip.encode"),
            "apps.sip.parse_us" => span_p50("apps.sip.parse"),
            "bench.verify_us" => span_p50("bench.verify"),
            "bench.spans" => spans as f64,
            "bench.trace_overhead_pct" => ratio(p.lat.p50() - lat_plain, lat_plain) * 100.0,
            other => p.layer.get(other).copied().unwrap_or(0.0),
        }
    };
    PER_LAYER.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

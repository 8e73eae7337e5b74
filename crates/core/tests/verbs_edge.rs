//! Edge-case tests for the verbs layer: error paths, limits, teardown.

use std::time::Duration;

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeOpcode, CqeStatus, Device, IwarpError, QpConfig};
use simnet::{Addr, Fabric, NetError, NodeId};

const TO: Duration = Duration::from_secs(5);

#[test]
fn oversized_message_rejected_at_post() {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(0));
    let (s, r) = (Cq::new(16), Cq::new(16));
    let cfg = QpConfig {
        max_msg_size: 1024,
        ..QpConfig::default()
    };
    let qp = dev.create_ud_qp(None, &s, &r, cfg).unwrap();
    let err = qp
        .post_send(1, vec![0u8; 2048], qp.dest())
        .unwrap_err();
    assert!(matches!(err, IwarpError::MessageTooLong { len: 2048, max: 1024 }));
    let err = qp
        .post_write_record(1, vec![0u8; 2048], qp.dest(), 0x100, 0)
        .unwrap_err();
    assert!(matches!(err, IwarpError::MessageTooLong { .. }));
}

#[test]
fn fixed_port_conflict_is_reported() {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(0));
    let (s, r) = (Cq::new(16), Cq::new(16));
    let _qp = dev.create_ud_qp(Some(4444), &s, &r, QpConfig::default()).unwrap();
    let err = dev
        .create_ud_qp(Some(4444), &s, &r, QpConfig::default())
        .unwrap_err();
    assert!(matches!(err, IwarpError::Net(NetError::AddrInUse(_))));
}

#[test]
fn write_record_to_invalid_stag_is_counted_not_fatal() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let qa = a.create_ud_qp(None, &a_s, &a_r, QpConfig::default()).unwrap();
    let qb = b.create_ud_qp(None, &b_s, &b_r, QpConfig::default()).unwrap();
    qa.post_write_record(1, &b"ghost"[..], qb.dest(), 0xDEAD_BEEF, 0)
        .unwrap();
    assert!(b_r.poll_timeout(Duration::from_millis(150)).is_err());
    assert!(
        qb.stats()
            .access_violations
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn rc_posts_fail_after_peer_disappears() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let listener = b.rc_listen(4700).unwrap();
    let (qa, qb) = std::thread::scope(|s| {
        let srv = s.spawn(|| listener.accept(TO, &b_s, &b_r, QpConfig::default()).unwrap());
        let qa = a
            .rc_connect(Addr::new(1, 4700), &a_s, &a_r, QpConfig::default())
            .unwrap();
        (qa, srv.join().unwrap())
    });
    drop(qb); // peer tears down: FIN reaches qa's engine
    let deadline = std::time::Instant::now() + TO;
    loop {
        match qa.post_send(1, Bytes::from_static(b"x")) {
            Err(_) => break, // error state reached
            Ok(()) => {
                assert!(std::time::Instant::now() < deadline, "QP never errored");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn ud_read_of_oversized_sink_range_rejected_locally() {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(0));
    let (s, r) = (Cq::new(16), Cq::new(16));
    let qp = dev.create_ud_qp(None, &s, &r, QpConfig::default()).unwrap();
    let sink = dev.register(100, Access::Local);
    let err = qp
        .post_read(1, &sink, 50, 100, qp.dest(), 0x100, 0)
        .unwrap_err();
    assert!(matches!(err, IwarpError::AccessViolation { .. }));
}

#[test]
fn duplicate_datagrams_complete_receive_once() {
    // Two identical single-segment messages consume two receives (UDP
    // duplication is the application's problem), but a *duplicated wire
    // segment* of one message must not double-complete.
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let qa = a.create_ud_qp(None, &a_s, &a_r, QpConfig::default()).unwrap();
    let qb = b.create_ud_qp(None, &b_s, &b_r, QpConfig::default()).unwrap();
    let sink = b.register(1024, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, &b"once"[..], qb.dest()).unwrap();
    let cqe = b_r.poll_timeout(TO).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert!(b_r.poll_timeout(Duration::from_millis(100)).is_err());
}

#[test]
fn send_cq_and_recv_cq_can_be_shared() {
    // One CQ for everything: a common verbs pattern.
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let shared_a = Cq::new(64);
    let shared_b = Cq::new(64);
    let qa = a.create_ud_qp(None, &shared_a, &shared_a, QpConfig::default()).unwrap();
    let qb = b.create_ud_qp(None, &shared_b, &shared_b, QpConfig::default()).unwrap();
    let sink = b.register(64, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, &b"shared"[..], qb.dest()).unwrap();
    // qa's shared CQ sees the send completion...
    let send_cqe = shared_a.poll_timeout(TO).unwrap();
    assert_eq!(send_cqe.opcode, CqeOpcode::Send);
    // ...and qb's sees the receive.
    let recv_cqe = shared_b.poll_timeout(TO).unwrap();
    assert_eq!(recv_cqe.opcode, CqeOpcode::Recv);
}

#[test]
fn poll_mode_qp_progress_drives_everything() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qa = a.create_ud_qp(None, &a_s, &a_r, cfg.clone()).unwrap();
    let qb = b.create_ud_qp(None, &b_s, &b_r, cfg).unwrap();
    let sink = b.register(64, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, &b"poll"[..], qb.dest()).unwrap();
    // Nothing arrives until someone drives the engine.
    assert!(b_r.poll().is_none());
    qb.progress(Duration::from_millis(100));
    let cqe = b_r.poll().expect("progress performed placement");
    assert_eq!(cqe.status, CqeStatus::Success);
}

#[test]
fn rd_qp_read_extension_works_reliably() {
    let fab = Fabric::new(simnet::WireConfig::with_loss(0.02, 9));
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let qa = a.create_rd_qp(None, &a_s, &a_r, QpConfig::default()).unwrap();
    let qb = b.create_rd_qp(None, &b_s, &b_r, QpConfig::default()).unwrap();
    let _ = (&b_s, &b_r);
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let remote = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(64 * 1024, Access::Local);
    qa.post_read(1, &sink, 0, data.len() as u32, qb.dest(), remote.stag(), 0)
        .unwrap();
    // Reliable datagrams: the read must complete despite 2% wire loss.
    let cqe = a_r.poll_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
}

#[test]
fn ud_multicast_send_reaches_every_member_qp() {
    // The paper's motivation: "a multicast capable iWARP solution would
    // be useful in providing high bandwidth media" (§IV.A). One send,
    // every member QP completes a receive.
    let fab = Fabric::loopback();
    let group = Addr {
        node: Fabric::MCAST_NODE,
        port: 50,
    };
    let sender_dev = Device::new(&fab, NodeId(0));
    let (s_cq, r_cq) = (Cq::new(16), Cq::new(16));
    let sender = sender_dev
        .create_ud_qp(None, &s_cq, &r_cq, QpConfig::default())
        .unwrap();

    let mut members = Vec::new();
    for n in 1..=5u16 {
        let dev = Device::new(&fab, NodeId(n));
        let (scq, rcq) = (Cq::new(16), Cq::new(16));
        let qp = dev.create_ud_qp(None, &scq, &rcq, QpConfig::default()).unwrap();
        qp.join_multicast(group).unwrap();
        let sink = dev.register(1024, Access::Local);
        qp.post_recv(RecvWr::whole(1, &sink)).unwrap();
        members.push((dev, qp, rcq, sink));
    }

    sender
        .post_send(
            1,
            &b"one datagram, many receivers"[..],
            iwarp::UdDest { addr: group, qpn: 0 },
        )
        .unwrap();

    for (i, (_, _, rcq, sink)) in members.iter().enumerate() {
        let cqe = rcq.poll_timeout(TO).unwrap();
        assert_eq!(cqe.status, CqeStatus::Success, "member {i}");
        assert_eq!(
            sink.read_vec(0, cqe.byte_len as usize).unwrap(),
            b"one datagram, many receivers"
        );
    }

    // RD QPs refuse multicast.
    let rd_dev = Device::new(&fab, NodeId(20));
    let (scq, rcq) = (Cq::new(4), Cq::new(4));
    let rd = rd_dev.create_rd_qp(None, &scq, &rcq, QpConfig::default()).unwrap();
    assert!(rd.join_multicast(group).is_err());
}

#[test]
fn mpa_request_delayed_past_accept_poll_still_yields_qp() {
    // A server polling `accept` with a short timeout (as the SIP RC loop
    // does) must not drop a connection whose MPA Request arrives after
    // that poll expired: the poll bounds only the wait for a connection.
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(1));
    let listener = dev.rc_listen(4400).unwrap();
    let (s, r) = (Cq::new(16), Cq::new(16));
    std::thread::scope(|sc| {
        let cli = sc.spawn(|| {
            let stream = simnet::StreamConduit::connect(
                &fab,
                NodeId(0),
                Addr::new(1, 4400),
                simnet::stream::StreamConfig::default(),
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(50));
            iwarp::cm::mpa_connect(&stream, 77, iwarp::mpa::MpaConfig::default(), TO)
        });
        let deadline = std::time::Instant::now() + TO;
        let qp = loop {
            match listener.accept(Duration::from_millis(1), &s, &r, QpConfig::default()) {
                Ok(qp) => break qp,
                Err(e) => assert!(std::time::Instant::now() < deadline, "no QP: {e}"),
            }
        };
        assert_eq!(qp.peer_qpn(), 77);
        let (server_qpn, _) = cli.join().unwrap().expect("client MPA handshake");
        assert_eq!(server_qpn, qp.qpn());
    });
}

//! Connection management for RC queue pairs: the MPA start-up handshake.
//!
//! After the stream (TCP) connection is established, iWARP peers exchange
//! MPA Request/Reply frames to negotiate marker use, CRC use, and — in this
//! implementation — their QP numbers (carried as MPA private data). Only
//! then does the connection enter RDMA mode.
//!
//! Datagram QPs need none of this: "there is no initial set up of operating
//! conditions exchanged when the QP is created; the operation conditions
//! are set locally" (paper §IV.B item 6). The absence of this round-trip is
//! part of datagram-iWARP's connection-economy.

use std::time::Duration;

use bytes::{BufMut, BytesMut};
use simnet::StreamConduit;

use crate::error::{IwarpError, IwarpResult};
use crate::mpa::MpaConfig;

const REQ_MAGIC: &[u8; 8] = b"MPAIDReq";
const REP_MAGIC: &[u8; 8] = b"MPAIDRep";
const FLAG_MARKERS: u8 = 0x01;
const FLAG_CRC: u8 = 0x02;

/// Encoded handshake frame length: magic(8) + flags(1) + qpn(4).
const FRAME_LEN: usize = 13;

/// How long either side of an RC connection waits for the peer's MPA
/// frame once the stream is up. Independent of the listener's accept
/// poll: a passive side polling `accept` with a short timeout must still
/// give a slow requester this long to send its MPA Request.
pub const MPA_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

fn encode(magic: &[u8; 8], cfg: MpaConfig, qpn: u32) -> BytesMut {
    let mut b = BytesMut::with_capacity(FRAME_LEN);
    b.extend_from_slice(magic);
    let mut flags = 0u8;
    if cfg.markers {
        flags |= FLAG_MARKERS;
    }
    if cfg.crc {
        flags |= FLAG_CRC;
    }
    b.put_u8(flags);
    b.put_u32(qpn);
    b
}

fn decode(raw: &[u8; FRAME_LEN], magic: &[u8; 8]) -> IwarpResult<(MpaConfig, u32)> {
    if &raw[..8] != magic {
        return Err(IwarpError::Connection("bad MPA magic"));
    }
    let flags = raw[8];
    let qpn = u32::from_be_bytes(raw[9..13].try_into().expect("sized"));
    Ok((
        MpaConfig {
            markers: flags & FLAG_MARKERS != 0,
            crc: flags & FLAG_CRC != 0,
        },
        qpn,
    ))
}

/// Active side of the MPA handshake. Sends a Request with the desired
/// `cfg` and our `qpn`; returns the peer's QP number and the negotiated
/// configuration (the responder echoes our requested flags).
pub fn mpa_connect(
    stream: &StreamConduit,
    qpn: u32,
    cfg: MpaConfig,
    timeout: Duration,
) -> IwarpResult<(u32, MpaConfig)> {
    stream.write_all(&encode(REQ_MAGIC, cfg, qpn))?;
    let mut buf = [0u8; FRAME_LEN];
    stream.read_exact(&mut buf, Some(timeout))?;
    let (negotiated, peer_qpn) = decode(&buf, REP_MAGIC)?;
    Ok((peer_qpn, negotiated))
}

/// Passive side of the MPA handshake. Reads the Request, intersects the
/// requester's flags with our `local` preferences (a feature is used only
/// when both sides enable it), replies with the result and our `qpn`, and
/// returns the peer's QP number plus the negotiated configuration.
pub fn mpa_accept(
    stream: &StreamConduit,
    qpn: u32,
    local: MpaConfig,
    timeout: Duration,
) -> IwarpResult<(u32, MpaConfig)> {
    let mut buf = [0u8; FRAME_LEN];
    stream.read_exact(&mut buf, Some(timeout))?;
    let (requested, peer_qpn) = decode(&buf, REQ_MAGIC)?;
    let negotiated = MpaConfig {
        markers: requested.markers && local.markers,
        crc: requested.crc && local.crc,
    };
    stream.write_all(&encode(REP_MAGIC, negotiated, qpn))?;
    Ok((peer_qpn, negotiated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Addr, Fabric, NodeId, StreamListener};

    #[test]
    fn handshake_negotiates() {
        let fab = Fabric::loopback();
        let listener =
            StreamListener::bind(&fab, Addr::new(1, 40), simnet::stream::StreamConfig::default())
                .unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| {
                let stream = listener.accept(Some(Duration::from_secs(2))).unwrap();
                let (peer_qpn, cfg) =
                    mpa_accept(&stream, 7, MpaConfig::default(), Duration::from_secs(2)).unwrap();
                assert_eq!(peer_qpn, 3);
                assert!(cfg.markers);
                assert!(cfg.crc);
                stream
            });
            let stream = StreamConduit::connect(
                &fab,
                NodeId(0),
                Addr::new(1, 40),
                simnet::stream::StreamConfig::default(),
            )
            .unwrap();
            let (peer_qpn, cfg) =
                mpa_connect(&stream, 3, MpaConfig::default(), Duration::from_secs(2)).unwrap();
            assert_eq!(peer_qpn, 7);
            assert_eq!(cfg, MpaConfig::default());
            drop(srv.join().unwrap());
        });
    }

    #[test]
    fn markerless_request_echoed() {
        let fab = Fabric::loopback();
        let listener =
            StreamListener::bind(&fab, Addr::new(1, 41), simnet::stream::StreamConfig::default())
                .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let stream = listener.accept(Some(Duration::from_secs(2))).unwrap();
                let (_, cfg) =
                    mpa_accept(&stream, 1, MpaConfig::default(), Duration::from_secs(2)).unwrap();
                assert!(!cfg.markers);
            });
            let stream = StreamConduit::connect(
                &fab,
                NodeId(0),
                Addr::new(1, 41),
                simnet::stream::StreamConfig::default(),
            )
            .unwrap();
            let req = MpaConfig {
                markers: false,
                crc: true,
            };
            let (_, cfg) = mpa_connect(&stream, 2, req, Duration::from_secs(2)).unwrap();
            assert_eq!(cfg, req);
        });
    }

    #[test]
    fn bad_magic_rejected() {
        let raw = [0u8; FRAME_LEN];
        assert!(decode(&raw, REQ_MAGIC).is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let enc = encode(REQ_MAGIC, MpaConfig { markers: true, crc: false }, 99);
        let arr: [u8; FRAME_LEN] = enc[..].try_into().unwrap();
        let (cfg, qpn) = decode(&arr, REQ_MAGIC).unwrap();
        assert!(cfg.markers && !cfg.crc);
        assert_eq!(qpn, 99);
    }
}

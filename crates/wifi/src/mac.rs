//! Minimal 802.11 MAC: just enough framing for the BackFi protocol.
//!
//! The BackFi AP "transmits a CTS_to_SELF packet to force other WiFi devices
//! to keep silent" (§4.1) and then sends an ordinary data frame to its client
//! — that data frame is the backscatter excitation. This module builds and
//! parses those two frame types (with real FCS).

use backfi_coding::crc::{crc32_append, crc32_check};

/// A 48-bit MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A deterministic locally-administered address derived from an id.
    pub fn local(id: u16) -> MacAddr {
        let [a, b] = id.to_be_bytes();
        MacAddr([0x02, 0x00, 0x00, 0x00, a, b])
    }
}

/// Frame types this MAC understands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A CTS frame addressed to the sender itself, reserving the medium for
    /// `duration_us` microseconds.
    CtsToSelf {
        /// The address that sent (and is addressed by) the CTS.
        addr: MacAddr,
        /// NAV duration in microseconds.
        duration_us: u16,
    },
    /// A data frame carrying an LLC payload.
    Data {
        /// Destination address.
        dst: MacAddr,
        /// Source address.
        src: MacAddr,
        /// Sequence number (12 bits used).
        seq: u16,
        /// Payload bytes.
        payload: Vec<u8>,
    },
}

/// Frame-control constants (type/subtype packed little-endian like 802.11).
const FC_CTS: u16 = 0b1100_0100; // control / CTS
const FC_DATA: u16 = 0b0000_1000; // data / data

impl Frame {
    /// Serialize to a PSDU including the 4-byte FCS.
    pub fn to_psdu(&self) -> Vec<u8> {
        let mut b: Vec<u8> = Vec::new();
        match self {
            Frame::CtsToSelf { addr, duration_us } => {
                b.extend_from_slice(&FC_CTS.to_le_bytes());
                b.extend_from_slice(&duration_us.to_le_bytes());
                b.extend_from_slice(&addr.0);
            }
            Frame::Data {
                dst,
                src,
                seq,
                payload,
            } => {
                b.extend_from_slice(&FC_DATA.to_le_bytes());
                b.extend_from_slice(&0u16.to_le_bytes()); // duration handled by NAV of CTS
                b.extend_from_slice(&dst.0);
                b.extend_from_slice(&src.0);
                b.extend_from_slice(&MacAddr::BROADCAST.0); // BSSID placeholder
                b.extend_from_slice(&(seq << 4).to_le_bytes());
                b.extend_from_slice(payload);
            }
        }
        crc32_append(&b)
    }

    /// Parse a PSDU; returns `None` when the FCS fails or the frame is
    /// malformed.
    pub fn from_psdu(psdu: &[u8]) -> Option<Frame> {
        if !crc32_check(psdu) {
            return None;
        }
        let body = &psdu[..psdu.len() - 4];
        if body.len() < 4 {
            return None;
        }
        let fc = u16::from_le_bytes([body[0], body[1]]);
        match fc {
            FC_CTS => {
                if body.len() != 10 {
                    return None;
                }
                let duration_us = u16::from_le_bytes([body[2], body[3]]);
                let mut addr = [0u8; 6];
                addr.copy_from_slice(&body[4..10]);
                Some(Frame::CtsToSelf {
                    addr: MacAddr(addr),
                    duration_us,
                })
            }
            FC_DATA => {
                if body.len() < 24 {
                    return None;
                }
                let mut dst = [0u8; 6];
                dst.copy_from_slice(&body[4..10]);
                let mut src = [0u8; 6];
                src.copy_from_slice(&body[10..16]);
                let seq = u16::from_le_bytes([body[22], body[23]]) >> 4;
                Some(Frame::Data {
                    dst: MacAddr(dst),
                    src: MacAddr(src),
                    seq,
                    payload: body[24..].to_vec(),
                })
            }
            _ => None,
        }
    }
}

/// Check the FCS of a received PSDU (convenience re-export for receivers that
/// don't need full parsing).
pub fn check_fcs(psdu: &[u8]) -> bool {
    crc32_check(psdu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cts_roundtrip() {
        let f = Frame::CtsToSelf {
            addr: MacAddr::local(7),
            duration_us: 1234,
        };
        let psdu = f.to_psdu();
        assert_eq!(psdu.len(), 14);
        assert_eq!(Frame::from_psdu(&psdu), Some(f));
    }

    #[test]
    fn data_roundtrip() {
        let f = Frame::Data {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            seq: 0x123,
            payload: b"hello backscatter world".to_vec(),
        };
        let psdu = f.to_psdu();
        assert_eq!(Frame::from_psdu(&psdu), Some(f));
    }

    #[test]
    fn fcs_rejects_corruption() {
        let f = Frame::Data {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            seq: 1,
            payload: vec![0u8; 64],
        };
        let mut psdu = f.to_psdu();
        for i in [0usize, 10, 30, psdu.len() - 1] {
            psdu[i] ^= 0x80;
            assert_eq!(Frame::from_psdu(&psdu), None, "byte {i}");
            psdu[i] ^= 0x80;
        }
        assert!(Frame::from_psdu(&psdu).is_some());
    }

    #[test]
    fn addresses() {
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
        assert_eq!(MacAddr::local(9), MacAddr::local(9));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert_eq!(Frame::from_psdu(&[1, 2, 3]), None);
        let good = Frame::CtsToSelf {
            addr: MacAddr::local(0),
            duration_us: 1,
        }
        .to_psdu();
        assert_eq!(Frame::from_psdu(&good[..10]), None);
    }
}

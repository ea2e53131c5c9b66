//! Minimal DNS message builder/parser.
//!
//! BehavIoT annotates flows with destination domain names extracted from DNS
//! responses observed at the gateway (§4.1). We implement enough of RFC 1035
//! to build queries/responses for A records and to parse responses back into
//! `(name, ip)` pairs, including compression-pointer handling on the parse
//! side (with loop protection).

use crate::{NetError, Result};
use std::net::Ipv4Addr;

/// Record type A (host address).
pub const TYPE_A: u16 = 1;
/// Class IN.
pub const CLASS_IN: u16 = 1;

/// A parsed DNS answer of type A.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsAnswer {
    /// The owner name, lowercase, without trailing dot.
    pub name: String,
    /// The address the name resolves to.
    pub addr: Ipv4Addr,
    /// Time to live.
    pub ttl: u32,
}

/// A parsed DNS message (only the parts BehavIoT consumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// Is this a response (QR bit)?
    pub is_response: bool,
    /// Question names (lowercase, no trailing dot).
    pub questions: Vec<String>,
    /// A-record answers.
    pub answers: Vec<DnsAnswer>,
}

fn encode_name(name: &str, out: &mut Vec<u8>) -> Result<()> {
    for label in name.trim_end_matches('.').split('.') {
        if label.is_empty() || label.len() > 63 {
            return Err(NetError::Invalid {
                what: "dns name",
                reason: "bad label length",
            });
        }
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    Ok(())
}

/// Build an A-record query for `name` with transaction id `id`.
pub fn build_query(id: u16, name: &str) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(17 + name.len());
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&0x0100u16.to_be_bytes()); // RD
    out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]); // AN/NS/AR
    encode_name(name, &mut out)?;
    out.extend_from_slice(&TYPE_A.to_be_bytes());
    out.extend_from_slice(&CLASS_IN.to_be_bytes());
    Ok(out)
}

/// Build a response resolving `name` to `addrs` (one A record each).
pub fn build_response(id: u16, name: &str, addrs: &[Ipv4Addr], ttl: u32) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&0x8180u16.to_be_bytes()); // QR, RD, RA
    out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out.extend_from_slice(&(addrs.len() as u16).to_be_bytes()); // ANCOUNT
    out.extend_from_slice(&[0, 0, 0, 0]); // NS/AR
    encode_name(name, &mut out)?;
    out.extend_from_slice(&TYPE_A.to_be_bytes());
    out.extend_from_slice(&CLASS_IN.to_be_bytes());
    for addr in addrs {
        // Compression pointer to the question name at offset 12.
        out.extend_from_slice(&0xc00cu16.to_be_bytes());
        out.extend_from_slice(&TYPE_A.to_be_bytes());
        out.extend_from_slice(&CLASS_IN.to_be_bytes());
        out.extend_from_slice(&ttl.to_be_bytes());
        out.extend_from_slice(&4u16.to_be_bytes());
        out.extend_from_slice(&addr.octets());
    }
    Ok(out)
}

fn parse_name(bytes: &[u8], mut pos: usize) -> Result<(String, usize)> {
    let mut labels: Vec<String> = Vec::new();
    let mut jumped = false;
    let mut end_pos = pos;
    let mut hops = 0;
    loop {
        let len = *bytes.get(pos).ok_or(NetError::Truncated {
            what: "dns name",
            needed: pos + 1,
            got: bytes.len(),
        })? as usize;
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            let b2 = *bytes.get(pos + 1).ok_or(NetError::Truncated {
                what: "dns pointer",
                needed: pos + 2,
                got: bytes.len(),
            })? as usize;
            let target = ((len & 0x3f) << 8) | b2;
            // Every pointer must point strictly backwards, to bytes before
            // itself; this also rules out pointer loops.
            if target >= pos {
                return Err(NetError::Invalid {
                    what: "dns name",
                    reason: "forward pointer",
                });
            }
            if !jumped {
                end_pos = pos + 2;
                jumped = true;
            }
            hops += 1;
            if hops > 16 {
                return Err(NetError::Invalid {
                    what: "dns name",
                    reason: "too many compression pointers",
                });
            }
            pos = target;
            continue;
        }
        if len == 0 {
            if !jumped {
                end_pos = pos + 1;
            }
            break;
        }
        if len > 63 {
            return Err(NetError::Invalid {
                what: "dns name",
                reason: "label too long",
            });
        }
        let start = pos + 1;
        let stop = start + len;
        if stop > bytes.len() {
            return Err(NetError::Truncated {
                what: "dns label",
                needed: stop,
                got: bytes.len(),
            });
        }
        labels.push(String::from_utf8_lossy(&bytes[start..stop]).to_lowercase());
        if labels.len() > 128 {
            return Err(NetError::Invalid {
                what: "dns name",
                reason: "too many labels",
            });
        }
        pos = stop;
    }
    Ok((labels.join("."), end_pos))
}

/// Parse a DNS message (header, questions, A answers; other record types are
/// skipped gracefully).
pub fn parse(bytes: &[u8]) -> Result<DnsMessage> {
    if bytes.len() < 12 {
        return Err(NetError::Truncated {
            what: "dns header",
            needed: 12,
            got: bytes.len(),
        });
    }
    let id = u16::from_be_bytes([bytes[0], bytes[1]]);
    let flags = u16::from_be_bytes([bytes[2], bytes[3]]);
    let qdcount = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    let ancount = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
    if qdcount > 32 || ancount > 256 {
        return Err(NetError::Invalid {
            what: "dns",
            reason: "implausible record counts",
        });
    }
    let mut pos = 12;
    let mut questions = Vec::with_capacity(qdcount);
    for _ in 0..qdcount {
        let (name, next) = parse_name(bytes, pos)?;
        pos = next + 4; // qtype + qclass
        if pos > bytes.len() {
            return Err(NetError::Truncated {
                what: "dns question",
                needed: pos,
                got: bytes.len(),
            });
        }
        questions.push(name);
    }
    let mut answers = Vec::new();
    for _ in 0..ancount {
        let (name, next) = parse_name(bytes, pos)?;
        pos = next;
        if pos + 10 > bytes.len() {
            return Err(NetError::Truncated {
                what: "dns answer",
                needed: pos + 10,
                got: bytes.len(),
            });
        }
        let rtype = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
        let ttl = u32::from_be_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let rdlen = u16::from_be_bytes([bytes[pos + 8], bytes[pos + 9]]) as usize;
        pos += 10;
        if pos + rdlen > bytes.len() {
            return Err(NetError::Truncated {
                what: "dns rdata",
                needed: pos + rdlen,
                got: bytes.len(),
            });
        }
        if rtype == TYPE_A && rdlen == 4 {
            let addr = Ipv4Addr::new(bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]);
            answers.push(DnsAnswer { name, addr, ttl });
        }
        pos += rdlen;
    }
    Ok(DnsMessage {
        id,
        is_response: flags & 0x8000 != 0,
        questions,
        answers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = build_query(0x1234, "devs.tplinkcloud.com").unwrap();
        let msg = parse(&q).unwrap();
        assert_eq!(msg.id, 0x1234);
        assert!(!msg.is_response);
        assert_eq!(msg.questions, vec!["devs.tplinkcloud.com".to_string()]);
        assert!(msg.answers.is_empty());
    }

    #[test]
    fn response_roundtrip_with_compression() {
        let addrs = [Ipv4Addr::new(52, 1, 2, 3), Ipv4Addr::new(52, 1, 2, 4)];
        let r = build_response(7, "Example.COM", &addrs, 300).unwrap();
        let msg = parse(&r).unwrap();
        assert!(msg.is_response);
        assert_eq!(msg.questions, vec!["example.com".to_string()]);
        assert_eq!(msg.answers.len(), 2);
        assert_eq!(msg.answers[0].name, "example.com");
        assert_eq!(msg.answers[0].addr, addrs[0]);
        assert_eq!(msg.answers[1].addr, addrs[1]);
        assert_eq!(msg.answers[0].ttl, 300);
    }

    #[test]
    fn rejects_empty_label() {
        assert!(build_query(1, "bad..name").is_err());
    }

    #[test]
    fn pointer_loop_detected() {
        // Header + a name that is a pointer to itself at offset 12.
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1; // QDCOUNT = 1
        bytes.extend_from_slice(&[0xc0, 0x0c]); // pointer to offset 12 (itself)
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(parse(&bytes), Err(NetError::Invalid { .. })));
    }

    #[test]
    fn forward_pointer_in_answer_name_rejected() {
        // The answer's owner name points past itself, at a name appended
        // after the record.
        let mut bytes = build_response(3, "a.io", &[Ipv4Addr::new(1, 2, 3, 4)], 60).unwrap();
        let at = bytes.windows(2).position(|w| w == [0xc0, 0x0c]).unwrap();
        let ahead = 0xc000 | bytes.len() as u16;
        bytes[at..at + 2].copy_from_slice(&ahead.to_be_bytes());
        bytes.extend_from_slice(b"\x04evil\x02io\x00");
        assert!(matches!(
            parse(&bytes),
            Err(NetError::Invalid {
                reason: "forward pointer",
                ..
            })
        ));
        // Pointing back at the question name, the same message parses.
        bytes[at..at + 2].copy_from_slice(&0xc00cu16.to_be_bytes());
        assert_eq!(parse(&bytes).unwrap().answers[0].name, "a.io");
    }

    #[test]
    fn backward_pointer_chain_is_capped() {
        // A name of 17 pointers, each to the one before it, ending in the
        // root label at offset 12: every hop points backwards, and the
        // 17th exceeds the cap.
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1; // QDCOUNT = 1
        bytes.push(0);
        for i in 0..17u16 {
            let prev = if i == 0 { 12 } else { 13 + 2 * (i - 1) };
            bytes.extend_from_slice(&(0xc000 | prev).to_be_bytes());
        }
        let start = bytes.len() - 2;
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(parse_name(&bytes, 13).unwrap().0, "");
        assert!(matches!(
            parse_name(&bytes, start),
            Err(NetError::Invalid {
                reason: "too many compression pointers",
                ..
            })
        ));
    }

    #[test]
    fn truncated_messages() {
        assert!(parse(&[0u8; 5]).is_err());
        let q = build_query(1, "a.b").unwrap();
        assert!(parse(&q[..q.len() - 2]).is_err());
    }

    #[test]
    fn implausible_counts_rejected() {
        let mut bytes = vec![0u8; 12];
        bytes[6] = 0xff;
        bytes[7] = 0xff; // ANCOUNT = 65535
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn non_a_records_skipped() {
        // Build a response then flip the answer type to AAAA (28).
        let r = build_response(9, "x.io", &[Ipv4Addr::new(1, 2, 3, 4)], 60).unwrap();
        let mut r2 = r.clone();
        // answer starts right after question; find the 0xc00c pointer
        let idx = r2.windows(2).position(|w| w == [0xc0, 0x0c]).unwrap();
        r2[idx + 3] = 28;
        let msg = parse(&r2).unwrap();
        assert!(msg.answers.is_empty());
    }
}

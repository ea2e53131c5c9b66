//! Lossy-tolerant capture ingest: pcap bytes → packets + domains + report.
//!
//! The batch pipeline historically assumed trusted, self-generated captures:
//! `PcapReader::read_all` + `parse_frame`, aborting on the first malformed
//! record. Real gateway captures are hostile — truncated records, mangled
//! headers, duplicated and reordered packets, clock steps. This module is
//! the hardened front door: it scans the capture with a
//! [`behaviot_net::pcap::PcapScan`] (the recovery-mode reader over bytes in
//! memory), gates each record through
//!
//! 1. a **backwards-clock-skew gate** (records far behind the accepted
//!    high-water mark are dropped; the high-water mark never advances on a
//!    dropped record, so one spurious far-future record cannot poison the
//!    gate either),
//! 2. a bounded **duplicate window** (capture setups with port mirroring
//!    duplicate records back-to-back; a record whose timestamp bits and
//!    frame bytes both equal those of one of the last `dedup_window`
//!    accepted records is dropped — an exact comparison, so two different
//!    frames are never mistaken for each other),
//! 3. **frame classification** ([`classify_frame`]): well-formed IPv4
//!    TCP/UDP frames become pipeline packets and contribute DNS/SNI naming,
//!    non-IP chatter is skipped silently, corrupt frames are counted,
//!
//! and accounts every decision in an [`IngestReport`]. On clean input the
//! report is all-zero and the result is identical to the strict path.
//!
//! Frames are never copied: each one borrows the caller's buffer from the
//! scan through the duplicate window to [`classify_frame`], whose TCP and
//! UDP checksum checks sum around the checksum field rather than over a
//! zeroed copy (the acceptance rule is unchanged). Recovery therefore works
//! on a capture held in memory; a capture on disk is read whole first, and
//! an I/O error surfaces there, before any record is scanned.
//!
//! Surviving packets are stably sorted by timestamp before being returned,
//! so bounded reordering upstream cannot change flow assembly downstream —
//! this is what makes the differential guarantee (corrupted run == clean
//! run restricted to surviving packets) hold exactly.

use crate::domain::DomainTable;
use crate::packet::{classify_frame, FrameClass, GatewayPacket};
use behaviot_net::pcap::PcapScan;
use behaviot_net::{IngestCategory, IngestReport, NetError, Result};

/// Tuning knobs for the lossy ingest path.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Drop a record whose timestamp is more than this many seconds behind
    /// the accepted high-water mark (backwards clock jump). Reordering
    /// below the threshold is absorbed (and counted as `reordered`).
    pub skew_tolerance: f64,
    /// How many recently accepted records the exact-duplicate window
    /// remembers (0 disables duplicate dropping).
    pub dedup_window: usize,
    /// Error budget: fail with [`NetError::BudgetExceeded`] when more than
    /// this fraction of records is dropped. `None` disables the check.
    pub max_drop_frac: Option<f64>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            skew_tolerance: 30.0,
            dedup_window: 8,
            max_drop_frac: None,
        }
    }
}

/// Everything a capture yields once ingested.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// Surviving flow packets, stably sorted by timestamp.
    pub packets: Vec<GatewayPacket>,
    /// DNS/SNI naming knowledge learned from surviving frames.
    pub domains: DomainTable,
    /// Accounting of everything the ingest ignored (all-zero when clean).
    pub report: IngestReport,
    /// Records the stream carried: yielded by the reader plus records lost
    /// at the reader level (denominator for the drop-fraction budget).
    pub records_seen: u64,
}

/// Ingest a complete pcap byte buffer through the lossy-tolerant path.
///
/// Records are scanned in place ([`PcapScan`]): every frame is read where
/// it lies in `bytes`, from the reader through the duplicate window to
/// [`classify_frame`], and never copied.
pub fn ingest_pcap_bytes(bytes: &[u8], opts: &IngestOptions) -> Result<Ingested> {
    let mut scan = PcapScan::new(bytes)?;
    let mut span = behaviot_obs::span!("ingest.pcap");
    let mut report = IngestReport::new();
    let mut packets: Vec<GatewayPacket> = Vec::new();
    let mut domains = DomainTable::new();
    // `(timestamp bits, frame)` of the last `dedup_window` accepted records.
    let mut window: Vec<(u64, &[u8])> = Vec::with_capacity(opts.dedup_window);
    let mut window_next = 0usize;
    let mut highwater: Option<f64> = None;
    let mut prev_ts: Option<f64> = None;
    let mut yielded: u64 = 0;

    for rec in &mut scan {
        let index = yielded;
        yielded += 1;

        // 1. Backwards-clock-skew gate. The high-water mark only ever
        // advances on *accepted* records, so the dropped run cannot drag
        // it around.
        if let Some(hw) = highwater {
            if rec.ts < hw - opts.skew_tolerance {
                report.note(
                    IngestCategory::ClockSkew,
                    index,
                    rec.ts,
                    "timestamp far behind stream high-water mark",
                );
                continue;
            }
        }

        // 2. Bounded exact-duplicate window: same timestamp bits and the
        // same frame bytes (slice equality compares lengths first).
        let id = (rec.ts.to_bits(), rec.data);
        if opts.dedup_window > 0 {
            if window.contains(&id) {
                report.note(
                    IngestCategory::Duplicate,
                    index,
                    rec.ts,
                    "exact duplicate of a recent record",
                );
                continue;
            }
            if window.len() < opts.dedup_window {
                window.push(id);
            } else {
                window[window_next] = id;
                window_next = (window_next + 1) % opts.dedup_window;
            }
        }

        // The record is accepted into the stream: account ordering, then
        // advance the anchors.
        if let Some(prev) = prev_ts {
            if rec.ts < prev {
                report.note(
                    IngestCategory::Reordered,
                    index,
                    rec.ts,
                    "accepted out of timestamp order",
                );
            }
        }
        prev_ts = Some(rec.ts);
        highwater = Some(highwater.map_or(rec.ts, |hw| hw.max(rec.ts)));

        // 3. Frame classification.
        match classify_frame(rec.ts, rec.data) {
            FrameClass::Flow(parsed) => {
                for (ip, name) in &parsed.dns_mappings {
                    domains.learn_dns(*ip, name);
                }
                if let Some(host) = &parsed.sni {
                    domains.learn_sni(parsed.packet.dst, host);
                }
                packets.push(parsed.packet);
            }
            FrameClass::NonIp => {}
            FrameClass::Corrupt(reason) => {
                report.note(IngestCategory::CorruptFrame, index, rec.ts, reason);
            }
        }
    }

    // Fold in what the reader itself skipped (bad headers, resyncs,
    // truncated tail).
    let reader_report = scan.take_report();
    let records_seen = yielded + reader_report.bad_record_headers + reader_report.truncated_tail;
    report.merge(&reader_report);

    // Bounded reordering upstream must not change flow assembly: restore
    // chronological order exactly (stable, total order on f64 bits).
    sort_chronological(&mut packets);

    // Publish run totals once — the per-record loop above never touches the
    // registry. Published even when the budget check below fails: the run
    // still happened and its drop profile is exactly what a dashboard wants.
    report.emit_metrics();
    let m = behaviot_obs::metrics();
    m.counter("ingest.records_seen").add(records_seen);
    m.counter("ingest.packets").add(packets.len() as u64);
    span.record("records_seen", records_seen);
    span.record("packets", packets.len());
    span.record("dropped", report.dropped_records());

    if let Some(frac) = opts.max_drop_frac {
        let dropped = report.dropped_records();
        if records_seen > 0 && dropped as f64 > frac * records_seen as f64 {
            return Err(NetError::BudgetExceeded {
                dropped,
                total: records_seen,
            });
        }
    }

    Ok(Ingested {
        packets,
        domains,
        report,
        records_seen,
    })
}

/// Adjacent swaps [`sort_chronological`] makes per packet, on average,
/// before it hands the rest of the work to a merge sort.
const INSERTION_SWAPS_PER_PACKET: usize = 8;

/// Stable sort by timestamp (`f64::total_cmp`). A capture arrives in order
/// but for a few displaced records, so an insertion pass puts those back
/// with no scratch buffer, where `sort_by` allocates one of half to all of
/// the slice (about 1 MiB on an hour of home traffic). Past a budget of
/// swaps the slice is finished with `sort_by`. Neither step moves a
/// packet past one with an equal timestamp, so the result is the stable
/// sort's in both cases.
fn sort_chronological(packets: &mut [GatewayPacket]) {
    let mut budget = packets.len() * INSERTION_SWAPS_PER_PACKET;
    for i in 1..packets.len() {
        let mut j = i;
        while j > 0 && packets[j - 1].ts.total_cmp(&packets[j].ts).is_gt() {
            if budget == 0 {
                packets.sort_by(|a, b| a.ts.total_cmp(&b.ts));
                return;
            }
            budget -= 1;
            packets.swap(j - 1, j);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use behaviot_net::pcap::{PcapRecord, PcapWriter};
    use behaviot_net::{ethernet, ipv4, tcp, MacAddr};
    use std::net::Ipv4Addr;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const SRV: Ipv4Addr = Ipv4Addr::new(52, 10, 20, 30);

    fn tcp_frame(seq: u32) -> Vec<u8> {
        let seg = tcp::encode(
            DEV,
            SRV,
            40000,
            443,
            seq,
            0,
            tcp::TcpFlags::DATA,
            b"payload",
        );
        ethernet::encode(
            MacAddr::from_index(0),
            MacAddr::from_index(1),
            ethernet::ETHERTYPE_IPV4,
            &ipv4::encode(DEV, SRV, 6, seq as u16, &seg),
        )
    }

    fn capture(n: u32) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.write_record(&PcapRecord {
                ts: 100.0 + i as f64 * 0.5,
                data: tcp_frame(i),
            })
            .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn clean_capture_all_zero_report() {
        let bytes = capture(20);
        let ing = ingest_pcap_bytes(&bytes, &IngestOptions::default()).unwrap();
        assert_eq!(ing.packets.len(), 20);
        assert_eq!(ing.records_seen, 20);
        assert!(ing.report.is_clean(), "clean input dirtied: {}", ing.report);
    }

    #[test]
    fn duplicate_record_dropped_and_counted() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..6u32 {
            let rec = PcapRecord {
                ts: 100.0 + i as f64,
                data: tcp_frame(i),
            };
            w.write_record(&rec).unwrap();
            if i == 3 {
                w.write_record(&rec).unwrap(); // mirror-port duplicate
            }
        }
        let bytes = w.finish().unwrap();
        let ing = ingest_pcap_bytes(&bytes, &IngestOptions::default()).unwrap();
        assert_eq!(ing.packets.len(), 6);
        assert_eq!(ing.report.duplicates, 1);
        assert_eq!(ing.report.dropped_records(), 1);
    }

    /// Ingest `(ts, frame)` records written in order.
    fn ingest_records(records: &[(f64, &[u8])], opts: &IngestOptions) -> Ingested {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (ts, data) in records {
            w.write_record(&PcapRecord {
                ts: *ts,
                data: data.to_vec(),
            })
            .unwrap();
        }
        ingest_pcap_bytes(&w.finish().unwrap(), opts).unwrap()
    }

    #[test]
    fn same_timestamp_and_length_with_different_bytes_is_kept() {
        let (a, b) = (tcp_frame(1), tcp_frame(2));
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        let ing = ingest_records(&[(100.0, &a), (100.0, &b)], &IngestOptions::default());
        assert_eq!(ing.packets.len(), 2);
        assert!(ing.report.is_clean(), "{}", ing.report);
    }

    #[test]
    fn repeat_dropped_only_while_original_is_in_the_window() {
        let opts = IngestOptions {
            dedup_window: 3,
            ..IngestOptions::default()
        };
        let f: Vec<Vec<u8>> = (0..4).map(tcp_frame).collect();
        let [a, b, c, d]: [(f64, &[u8]); 4] =
            std::array::from_fn(|i| (100.0 + i as f64, &f[i][..]));

        // The original is among the last three accepted records.
        let ing = ingest_records(&[a, b, c, a], &opts);
        assert_eq!((ing.packets.len(), ing.report.duplicates), (3, 1));

        // A dropped repeat is not accepted, so it does not push the
        // original out of the window.
        let ing = ingest_records(&[a, b, c, c, a], &opts);
        assert_eq!((ing.packets.len(), ing.report.duplicates), (3, 2));

        // Three newer records were accepted: the repeat is kept (and
        // counted as reordered, being older than its predecessor).
        let ing = ingest_records(&[a, b, c, d, a], &opts);
        assert_eq!((ing.packets.len(), ing.report.duplicates), (5, 0));
        assert_eq!(ing.report.reordered, 1);
    }

    #[test]
    fn zero_dedup_window_keeps_every_repeat() {
        let opts = IngestOptions {
            dedup_window: 0,
            ..IngestOptions::default()
        };
        let a = tcp_frame(7);
        let ing = ingest_records(&[(100.0, &a), (100.0, &a), (100.0, &a)], &opts);
        assert_eq!(ing.packets.len(), 3);
        assert!(ing.report.is_clean(), "{}", ing.report);
    }

    #[test]
    fn backwards_jump_dropped_without_poisoning_highwater() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        // Normal records at t≈500, a run stamped 400 s in the past, then
        // normal again.
        for i in 0..4u32 {
            w.write_record(&PcapRecord {
                ts: 500.0 + i as f64,
                data: tcp_frame(i),
            })
            .unwrap();
        }
        for i in 4..7u32 {
            w.write_record(&PcapRecord {
                ts: 100.0 + i as f64,
                data: tcp_frame(i),
            })
            .unwrap();
        }
        for i in 7..10u32 {
            w.write_record(&PcapRecord {
                ts: 503.0 + i as f64,
                data: tcp_frame(i),
            })
            .unwrap();
        }
        let bytes = w.finish().unwrap();
        let ing = ingest_pcap_bytes(&bytes, &IngestOptions::default()).unwrap();
        assert_eq!(ing.report.clock_skew_drops, 3);
        assert_eq!(ing.packets.len(), 7);
        // The post-run records were accepted: the dropped run did not
        // poison the high-water mark.
        assert_eq!(ing.report.reordered, 0);
    }

    #[test]
    fn small_reorder_accepted_and_counted() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let ts = [100.0, 101.0, 100.4, 102.0];
        for (i, t) in ts.iter().enumerate() {
            w.write_record(&PcapRecord {
                ts: *t,
                data: tcp_frame(i as u32),
            })
            .unwrap();
        }
        let bytes = w.finish().unwrap();
        let ing = ingest_pcap_bytes(&bytes, &IngestOptions::default()).unwrap();
        assert_eq!(ing.packets.len(), 4);
        assert_eq!(ing.report.reordered, 1);
        assert_eq!(ing.report.dropped_records(), 0);
        // Output is chronologically sorted regardless.
        assert!(ing.packets.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn chronological_sort_is_the_stable_sort() {
        // `bytes` numbers each packet in arrival order, so a tie broken
        // differently from the stable sort shows up as a mismatch.
        let packets = |ts: &[f64]| -> Vec<GatewayPacket> {
            ts.iter()
                .enumerate()
                .map(|(i, &ts)| GatewayPacket {
                    ts,
                    src: DEV,
                    dst: SRV,
                    src_port: 40000,
                    dst_port: 443,
                    proto: behaviot_net::Proto::Tcp,
                    bytes: i as u32,
                })
                .collect()
        };
        // Compared by timestamp bits, since a NaN is not equal to itself.
        let order = |p: &[GatewayPacket]| -> Vec<(u64, u32)> {
            p.iter().map(|p| (p.ts.to_bits(), p.bytes)).collect()
        };
        let check = |ts: &[f64]| {
            let mut got = packets(ts);
            sort_chronological(&mut got);
            let mut want = packets(ts);
            want.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            assert_eq!(order(&got), order(&want), "{ts:?}");
        };
        check(&[]);
        check(&[5.0]);
        // A few displaced records among ties, a NaN and an infinity.
        check(&[1.0, 3.0, 2.0, 2.0, 4.0, 3.0, 3.0, 7.0, 5.0, 6.0, 6.0]);
        check(&[2.0, f64::NAN, 1.0, f64::INFINITY, 1.0, -0.0, 0.0]);
        // Reversed with ties: far past the swap budget, so the merge sort
        // finishes a partly sorted slice.
        let reversed: Vec<f64> = (0..400).rev().map(|i| (i / 3) as f64).collect();
        check(&reversed);
    }

    #[test]
    fn corrupt_frame_counted() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..5u32 {
            let mut data = tcp_frame(i);
            if i == 2 {
                data[30] ^= 0xff; // break a checksum
            }
            w.write_record(&PcapRecord {
                ts: 100.0 + i as f64,
                data,
            })
            .unwrap();
        }
        let bytes = w.finish().unwrap();
        let ing = ingest_pcap_bytes(&bytes, &IngestOptions::default()).unwrap();
        assert_eq!(ing.packets.len(), 4);
        assert_eq!(ing.report.corrupt_frames, 1);
    }

    #[test]
    fn budget_exceeded_fails_loudly() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..4u32 {
            let mut data = tcp_frame(i);
            if i >= 2 {
                data[30] ^= 0xff;
            }
            w.write_record(&PcapRecord {
                ts: 100.0 + i as f64,
                data,
            })
            .unwrap();
        }
        let bytes = w.finish().unwrap();
        let opts = IngestOptions {
            max_drop_frac: Some(0.25),
            ..IngestOptions::default()
        };
        match ingest_pcap_bytes(&bytes, &opts) {
            Err(NetError::BudgetExceeded {
                dropped: 2,
                total: 4,
            }) => {}
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A generous budget passes.
        let opts = IngestOptions {
            max_drop_frac: Some(0.5),
            ..IngestOptions::default()
        };
        assert!(ingest_pcap_bytes(&bytes, &opts).is_ok());
    }

    #[test]
    fn learns_domains_like_strict_path() {
        use behaviot_net::{dns, udp};
        let resp = dns::build_response(1, "devs.tplinkcloud.com", &[SRV], 300).unwrap();
        let dg = udp::encode(Ipv4Addr::new(192, 168, 1, 1), DEV, 53, 5353, &resp);
        let frame = ethernet::encode(
            MacAddr::from_index(2),
            MacAddr::from_index(0),
            ethernet::ETHERTYPE_IPV4,
            &ipv4::encode(Ipv4Addr::new(192, 168, 1, 1), DEV, 17, 9, &dg),
        );
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: 50.0,
            data: frame,
        })
        .unwrap();
        w.write_record(&PcapRecord {
            ts: 51.0,
            data: tcp_frame(1),
        })
        .unwrap();
        let bytes = w.finish().unwrap();
        let ing = ingest_pcap_bytes(&bytes, &IngestOptions::default()).unwrap();
        assert_eq!(ing.domains.resolve_str(SRV), Some("devs.tplinkcloud.com"));
        assert_eq!(ing.packets.len(), 2);
    }
}

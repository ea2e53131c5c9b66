//! Property tests for the recovering pcap reader: arbitrary byte
//! mutations of a valid capture must never panic the reader, never make it
//! loop forever, and every record it does yield must round-trip: written
//! again with [`PcapWriter`] and re-read through [`PcapScan`], the records
//! come back the same with a clean report. The in-memory scan must agree
//! with the reader record for record and report for report.

use behaviot_net::pcap::{PcapReader, PcapRecord, PcapScan, PcapWriter};
use behaviot_net::IngestReport;
use proptest::prelude::*;
use std::io::Cursor;

/// Serialize base records into a valid pcap buffer.
fn write_capture(records: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (ts, data) in records {
        w.write_record(&PcapRecord {
            ts: *ts as f64 * 0.01,
            data: data.clone(),
        })
        .unwrap();
    }
    w.finish().unwrap()
}

/// One byte-level mutation, decoded from a `(kind, pos, value)` triple.
fn apply_mutation(buf: &mut Vec<u8>, kind: u8, pos: usize, value: u8) {
    if buf.is_empty() {
        return;
    }
    let pos = pos % buf.len();
    match kind % 3 {
        0 => buf[pos] ^= value | 1, // flip bits (never a no-op)
        1 => buf.insert(pos, value),
        _ => buf.truncate(pos.max(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reading is total over mutated captures: no panic, bounded yield
    /// count (termination), and every yielded record re-serializes into
    /// bytes the scan reads back identically, ignoring nothing.
    #[test]
    fn mutated_capture_never_panics_and_yields_roundtrip_records(
        // Frame payloads are at least Ethernet-header sized: the recovery
        // plausibility predicate intentionally rejects sub-14-byte records,
        // so smaller ones would (correctly) not survive even a clean read.
        base in proptest::collection::vec(
            (0u32..100_000, proptest::collection::vec(any::<u8>(), 14..120)),
            0..30
        ),
        mutations in proptest::collection::vec(
            (any::<u8>(), 0usize..200_000, any::<u8>()),
            0..20
        )
    ) {
        let mut buf = write_capture(&base);
        for (kind, pos, value) in &mutations {
            apply_mutation(&mut buf, *kind, *pos, *value);
        }

        check_mutated(buf);

        // On the unmutated capture the same reader is exact and clean, and
        // so is the scan.
        let clean = write_capture(&base);
        let mut clean_reader = PcapReader::new_recovering(Cursor::new(clean.clone())).unwrap();
        let mut clean_records = 0;
        while clean_reader.next_record_borrowed().unwrap().is_some() {
            clean_records += 1;
        }
        prop_assert_eq!(clean_records, base.len());
        prop_assert!(clean_reader.take_report().is_clean());
        let mut clean_scan = PcapScan::new(&clean).unwrap();
        prop_assert_eq!(clean_scan.by_ref().count(), base.len());
        prop_assert!(clean_scan.report().is_clean());
    }
}

/// Every record `bytes` yields through a [`PcapScan`], and the report.
fn scan_all(bytes: &[u8]) -> (Vec<PcapRecord>, IngestReport) {
    let mut scan = PcapScan::new(bytes).expect("the global header was written");
    let records = scan
        .by_ref()
        .map(|v| PcapRecord {
            ts: v.ts,
            data: v.data.to_vec(),
        })
        .collect();
    (records, scan.take_report())
}

/// The properties of one mutated capture. (A plain function, so that the
/// early return on a rejected global header ends this case only.)
fn check_mutated(buf: Vec<u8>) {
    let total = buf.len();
    let scan = PcapScan::new(&buf);
    let mut reader = match PcapReader::new_recovering(Cursor::new(buf.clone())) {
        Ok(r) => r,
        // Mutations hit the global header: rejecting it is the correct
        // non-panicking outcome, and the scan rejects it too.
        Err(_) => {
            assert!(scan.is_err(), "scan accepted a header the reader refused");
            return;
        }
    };
    let mut scan = scan.expect("scan refused a header the reader accepted");

    let mut yielded: Vec<PcapRecord> = Vec::new();
    loop {
        match reader.next_record_borrowed() {
            Ok(Some(view)) => yielded.push(PcapRecord {
                ts: view.ts,
                data: view.data.to_vec(),
            }),
            Ok(None) => break,
            // Only real I/O errors may surface, and only at open.
            Err(e) => panic!("recovery reader errored on mutated bytes: {e}"),
        }
        // Termination bound: each yield consumes at least a 16-byte
        // header, so a reader that yields more than len/16 + 1 records
        // is looping.
        assert!(
            yielded.len() <= total / 16 + 1,
            "reader yielded {} records from {} bytes",
            yielded.len(),
            total
        );
    }

    // The scan over the same bytes yields the same records and accounts
    // for the same damage.
    let mut scanned = 0;
    for (view, rec) in scan.by_ref().zip(&yielded) {
        assert_eq!(view.ts, rec.ts);
        assert_eq!(view.data, &rec.data[..]);
        scanned += 1;
    }
    assert_eq!(scanned, yielded.len());
    assert!(
        scan.next().is_none(),
        "scan yielded more records than the reader"
    );
    assert_eq!(scan.report(), &reader.take_report());

    // Every yielded record round-trips: written again and re-read through
    // the scan, it comes back the same, and nothing is ignored. (Records
    // whose mutated timestamp sits at the very top of the u32 second range
    // are excluded: PcapWriter correctly refuses them when microsecond
    // rounding would overflow the field.)
    yielded.retain(|r| r.ts + 1.0 < u32::MAX as f64);
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for r in &yielded {
        w.write_record(r).unwrap();
    }
    let (back, report) = scan_all(&w.finish().unwrap());
    assert_eq!(back, yielded);
    assert!(report.is_clean(), "re-read of yielded records: {report}");
}

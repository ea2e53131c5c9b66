//! Byte-level integration: pcap write/read → frame classification
//! (checksums) → in-band naming (DNS + SNI) → flow assembly. This is the
//! path a real gateway deployment uses; the simulator's reverse-DNS shortcut
//! is deliberately not used here.

use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, classify_frame, FlowConfig, FrameClass};
use behaviot_net::pcap::{PcapScan, PcapWriter};
use behaviot_sim::gen::{capture_to_frames, GenOptions, ScheduledEvent, TrafficGenerator};
use behaviot_sim::{write_pcap, Catalog};

fn frames_for_window(seconds: f64) -> (Catalog, Vec<behaviot_net::pcap::PcapRecord>) {
    let catalog = Catalog::standard();
    let generator = TrafficGenerator::new(&catalog, 5);
    let dev = catalog.device_index("Wemo Plug").unwrap();
    let events = vec![ScheduledEvent {
        ts: seconds / 2.0,
        device: dev,
        activity: "on_off".into(),
    }];
    let capture = generator.generate(0.0, seconds, &events, &GenOptions::default());
    let frames = capture_to_frames(&capture, &catalog);
    (catalog, frames)
}

#[test]
fn pcap_roundtrip_preserves_frames() {
    let (_, frames) = frames_for_window(300.0);
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for f in &frames {
        w.write_record(f).unwrap();
    }
    let bytes = w.finish().unwrap();
    let mut scan = PcapScan::new(&bytes).unwrap();
    let mut n = 0;
    for (a, b) in scan.by_ref().zip(&frames) {
        assert_eq!(a.data, &b.data[..]);
        assert!((a.ts - b.ts).abs() < 2e-6);
        n += 1;
    }
    assert_eq!(n, frames.len());
    assert!(scan.next().is_none());
    assert!(scan.report().is_clean(), "{}", scan.report());
}

#[test]
fn frames_parse_and_flows_get_inband_names() {
    let (catalog, frames) = frames_for_window(900.0);
    let ingested = ingest_pcap_bytes(&write_pcap(&frames), &IngestOptions::default()).unwrap();
    // ARP and ICMP chatter is skipped; TCP/UDP frames all parse.
    assert!(ingested.report.is_clean(), "{}", ingested.report);
    assert_eq!(ingested.records_seen, frames.len() as u64);
    let (packets, domains) = (ingested.packets, ingested.domains);
    assert!(!packets.is_empty() && packets.len() < frames.len());
    assert!(domains.len() > 50, "learned {} names", domains.len());

    let flows = assemble_flows(&packets, &domains, &FlowConfig::default());
    assert!(!flows.is_empty());
    let named = flows.iter().filter(|f| f.domain.is_some()).count();
    assert!(
        named * 10 >= flows.len() * 9,
        "only {named}/{} flows named in-band",
        flows.len()
    );
    // Every flow belongs to a catalog device.
    for f in &flows {
        assert!(
            catalog.device_of_ip(f.device).is_some(),
            "foreign device {}",
            f.device
        );
    }
    // The user event produced a flow near its scheduled time.
    let dev_ip = catalog.device_ip(catalog.device_index("Wemo Plug").unwrap());
    assert!(flows
        .iter()
        .any(|f| f.device == dev_ip && (f.start - 450.0).abs() < 2.0));
}

#[test]
fn corrupted_frames_are_skipped_not_fatal() {
    let (_, mut frames) = frames_for_window(120.0);
    // Corrupt a third of the frames at random-ish offsets.
    for (i, f) in frames.iter_mut().enumerate() {
        if i % 3 == 0 && f.data.len() > 30 {
            let off = 14 + (i * 7) % (f.data.len() - 14);
            f.data[off] ^= 0xff;
        }
    }
    let mut parsed = 0;
    for f in &frames {
        if matches!(classify_frame(f.ts, &f.data), FrameClass::Flow(_)) {
            parsed += 1;
        }
    }
    // Most corrupted frames fail checksums and are skipped; intact ones
    // survive (ARP/ICMP chatter never parses). Either way: no panic.
    assert!(parsed >= frames.len() * 2 / 5);
    assert!(parsed < frames.len());
}

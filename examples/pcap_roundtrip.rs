//! End-to-end byte-level pipeline: simulate a capture, render it as raw
//! Ethernet frames into a real `.pcap` file, read it back and ingest it —
//! every frame classified with checksum validation, destination names
//! learned from in-band DNS answers and TLS SNI — and assemble annotated
//! flows, without touching the simulator's reverse-DNS shortcut.
//!
//! ```sh
//! cargo run --release --example pcap_roundtrip
//! ```

use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_net::pcap::PcapWriter;
use behaviot_sim::gen::{capture_to_frames, GenOptions, TrafficGenerator};
use behaviot_sim::Catalog;

fn main() {
    let catalog = Catalog::standard();
    let generator = TrafficGenerator::new(&catalog, 42);
    let capture = generator.generate(0.0, 900.0, &[], &GenOptions::default());
    println!(
        "simulated {} packets over 15 minutes",
        capture.packets.len()
    );

    // ---- write a real pcap ---------------------------------------------
    let frames = capture_to_frames(&capture, &catalog);
    let mut writer = PcapWriter::new(Vec::new()).expect("pcap header");
    for f in &frames {
        writer.write_record(f).expect("pcap record");
    }
    let bytes = writer.finish().expect("flush");
    let path = std::env::temp_dir().join("behaviot_demo.pcap");
    std::fs::write(&path, &bytes).expect("write pcap");
    println!(
        "wrote {} ({} bytes) — open it in Wireshark if you like",
        path.display(),
        bytes.len()
    );

    // ---- read it back and ingest every frame -----------------------------
    let read = std::fs::read(&path).expect("read pcap");
    let ingested = ingest_pcap_bytes(&read, &IngestOptions::default()).expect("pcap magic");
    let (packets, domains) = (ingested.packets, ingested.domains); // named purely in-band
    println!(
        "ingested {} of {} records as flow packets, {} named servers ({})",
        packets.len(),
        ingested.records_seen,
        domains.len(),
        ingested.report
    );

    // ---- assemble annotated flows ---------------------------------------
    let flows = assemble_flows(&packets, &domains, &FlowConfig::default());
    let named = flows.iter().filter(|f| f.domain.is_some()).count();
    println!(
        "assembled {} flow bursts ({named} with in-band domain names)",
        flows.len()
    );
    for f in flows.iter().filter(|f| f.domain.is_some()).take(5) {
        println!(
            "  t={:>6.1}s {} {} -> {} ({} pkts, {} bytes)",
            f.start,
            f.proto,
            f.device,
            f.domain_str().unwrap_or("-"),
            f.n_packets,
            f.total_bytes
        );
    }
}

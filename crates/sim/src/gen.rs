//! The traffic generator: turns the catalog plus a schedule into gateway
//! packets and ground truth.
//!
//! Occurrence timing is *window-independent*: every periodic occurrence is
//! derived from a hash of `(master seed, device, endpoint, occurrence
//! index)`, so generating `[0, 86400)` twice, or as two half-day windows,
//! yields identical traffic. This is what lets the uncontrolled dataset be
//! streamed day by day over 87 simulated days.

use crate::catalog::Catalog;
use crate::types::{PacketPattern, TruthEvent, TruthLabel};
use behaviot_flows::{DomainTable, GatewayPacket};
use behaviot_intern::{FxHashMap, FxHashSet, Symbol};
use behaviot_net::{dns, ethernet, ipv4, pcap::PcapRecord, tcp, tls, udp, MacAddr, Proto};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// A generated capture slice: packets, ground truth, and naming info.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Flow-level packets, sorted by timestamp.
    pub packets: Vec<GatewayPacket>,
    /// Ground-truth events, sorted by timestamp.
    pub truth: Vec<TruthEvent>,
    /// Domain knowledge (reverse-DNS preloaded from the catalog, as the
    /// paper's pipeline falls back to rDNS lookups).
    pub domains: DomainTable,
    /// Window start (seconds).
    pub start: f64,
    /// Window end (seconds).
    pub end: f64,
}

/// An outage/removal window: no traffic from the affected device (or the
/// whole testbed) is produced inside it.
#[derive(Debug, Clone, Copy)]
pub struct Outage {
    /// Start time.
    pub from: f64,
    /// End time.
    pub to: f64,
    /// Affected device index; `None` silences the whole testbed (network
    /// outage).
    pub device: Option<usize>,
}

/// One scheduled user interaction.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the interaction happens.
    pub ts: f64,
    /// Device index.
    pub device: usize,
    /// Activity name (must exist on the device).
    pub activity: String,
}

/// Generator options for one window.
#[derive(Debug, Clone, Default)]
pub struct GenOptions {
    /// Outage windows.
    pub outages: Vec<Outage>,
    /// Probability that a periodic occurrence is delayed by congestion.
    pub congestion_prob: f64,
    /// Devices whose periodic/aperiodic traffic is suppressed entirely
    /// (device removed from testbed).
    pub removed_devices: Vec<usize>,
}

/// The traffic generator. Cheap to construct; all state is derived.
pub struct TrafficGenerator<'a> {
    catalog: &'a Catalog,
    seed: u64,
}

fn mix(mut h: u64) -> u64 {
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

impl<'a> TrafficGenerator<'a> {
    /// Create a generator over a catalog with a master seed.
    pub fn new(catalog: &'a Catalog, seed: u64) -> Self {
        Self { catalog, seed }
    }

    /// The catalog driving this generator.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    fn occurrence_rng(&self, device: usize, endpoint: usize, k: u64) -> StdRng {
        let h = mix(self
            .seed
            .wrapping_add(mix((device as u64) << 32 | endpoint as u64))
            .wrapping_add(mix(k)));
        StdRng::seed_from_u64(h)
    }

    /// Length of the drop run starting at occurrence `k` of an endpoint
    /// (0 = no run starts here). Geometric lengths 1..=4 with p = 1/2,
    /// derived from a cheap hash so the check is window-independent and
    /// fast.
    fn drop_run_len(&self, device: usize, endpoint: usize, k: u64, prob: f64) -> u64 {
        let h = mix(self
            .seed
            .wrapping_add(mix(((device as u64) << 32) | (endpoint as u64 + 10_000)))
            .wrapping_add(mix(k ^ 0xD409)));
        if (h >> 11) as f64 / (1u64 << 53) as f64 >= prob {
            return 0;
        }
        match h & 0x7 {
            0..=3 => 1,
            4 | 5 => 2,
            6 => 3,
            _ => 4,
        }
    }

    fn in_outage(outages: &[Outage], device: usize, t: f64) -> bool {
        outages
            .iter()
            .any(|o| t >= o.from && t < o.to && o.device.is_none_or(|d| d == device))
    }

    /// Generate all traffic in `[start, end)`.
    ///
    /// `user_events` outside the window are ignored; events on removed
    /// devices or during outages are dropped (the interaction is lost,
    /// which is exactly the §5.3 "event loss" deviation).
    pub fn generate(
        &self,
        start: f64,
        end: f64,
        user_events: &[ScheduledEvent],
        opts: &GenOptions,
    ) -> Capture {
        assert!(end >= start, "window end before start");
        let mut packets: Vec<GatewayPacket> = Vec::new();
        let mut truth: Vec<TruthEvent> = Vec::new();

        for (di, dev) in self.catalog.devices.iter().enumerate() {
            if opts.removed_devices.contains(&di) {
                continue;
            }
            let dev_ip = self.catalog.device_ip(di);

            // ---- periodic endpoints ------------------------------------
            for (ei, spec) in dev.periodic.iter().enumerate() {
                let phase = (mix(self.seed ^ mix((di as u64) << 16 | ei as u64)) % 100_000) as f64
                    / 100_000.0
                    * spec.period;
                let k0 = if start <= phase {
                    0
                } else {
                    ((start - phase) / spec.period) as u64
                };
                let mut k = k0;
                loop {
                    let base_t = phase + k as f64 * spec.period;
                    if base_t >= end {
                        break;
                    }
                    let mut rng = self.occurrence_rng(di, ei, k);
                    let jitter = (rng.gen::<f64>() - 0.5) * spec.jitter_frac * spec.period;
                    let t = base_t + jitter;
                    // Congestion/loss: heartbeats are occasionally dropped
                    // in short runs (geometric length, up to 4 consecutive
                    // occurrences — e.g. a Wi-Fi retry storm). The
                    // occurrence-indexed derivation keeps this window-
                    // independent: occurrence k is dropped iff some
                    // occurrence k-j started a run longer than j.
                    if opts.congestion_prob > 0.0 {
                        let dropped = (0..=4u64).any(|j| {
                            j <= k && self.drop_run_len(di, ei, k - j, opts.congestion_prob) > j
                        });
                        if dropped {
                            k += 1;
                            continue;
                        }
                    }
                    k += 1;
                    if t < start || t >= end {
                        continue;
                    }
                    if Self::in_outage(&opts.outages, di, t) {
                        continue;
                    }
                    let server = self.catalog.ip_of_domain(&spec.domain);
                    let dport = 30000 + ei as u16; // stable: long-lived connection
                    emit_pattern(
                        &mut packets,
                        t,
                        dev_ip,
                        dport,
                        server,
                        spec.port,
                        spec.proto,
                        &spec.pattern,
                        0.0,
                        &mut rng,
                    );
                    truth.push(TruthEvent {
                        ts: t,
                        device: di,
                        label: TruthLabel::Periodic(Symbol::intern(&spec.domain), spec.proto),
                    });
                }
            }

            // ---- local peer polling (hub <-> device LAN chatter) --------
            for (pi, (peer_name, period, pattern)) in dev.local_peers.iter().enumerate() {
                let Some(peer_idx) = self.catalog.device_index(peer_name) else {
                    continue;
                };
                if opts.removed_devices.contains(&peer_idx) {
                    continue;
                }
                let peer_ip = self.catalog.device_ip(peer_idx);
                let ei = 5000 + pi; // occurrence-rng namespace for local polls
                let phase = (mix(self.seed ^ mix((di as u64) << 16 | ei as u64)) % 100_000) as f64
                    / 100_000.0
                    * period;
                let k0 = if start <= phase {
                    0
                } else {
                    ((start - phase) / period) as u64
                };
                let mut k = k0;
                loop {
                    let base_t = phase + k as f64 * period;
                    if base_t >= end {
                        break;
                    }
                    let mut rng = self.occurrence_rng(di, ei, k);
                    let t = base_t + (rng.gen::<f64>() - 0.5) * 0.02 * period;
                    k += 1;
                    if t < start || t >= end {
                        continue;
                    }
                    if Self::in_outage(&opts.outages, di, t)
                        || Self::in_outage(&opts.outages, peer_idx, t)
                    {
                        continue;
                    }
                    emit_pattern(
                        &mut packets,
                        t,
                        dev_ip,
                        (32000 + pi) as u16,
                        peer_ip,
                        8443,
                        Proto::Tcp,
                        pattern,
                        0.0,
                        &mut rng,
                    );
                    truth.push(TruthEvent {
                        ts: t,
                        device: di,
                        label: TruthLabel::Periodic(Symbol::intern_ipv4(peer_ip), Proto::Tcp),
                    });
                }
            }

            // ---- aperiodic background ----------------------------------
            if dev.aperiodic_per_day > 0.0 && !dev.aperiodic_domains.is_empty() {
                let days = (end - start) / 86400.0;
                let lambda = dev.aperiodic_per_day * days;
                let mut rng = StdRng::seed_from_u64(mix(self.seed
                    ^ mix(0xA9E0 ^ (di as u64) << 8)
                    ^ (start.to_bits())));
                let n = poisson(lambda, &mut rng);
                for _ in 0..n {
                    let t = start + rng.gen::<f64>() * (end - start);
                    if Self::in_outage(&opts.outages, di, t) {
                        continue;
                    }
                    // Echo Show 5 pathology: some idle flows mimic the voice
                    // activity signature and destination.
                    let mimic = dev
                        .aperiodic_mimic
                        .as_ref()
                        .filter(|_| rng.gen::<f64>() < 0.3)
                        .and_then(|a| dev.activity(a));
                    if let Some(act) = mimic {
                        let server = self.catalog.ip_of_domain(&act.domain);
                        let sport = 42000 + (rng.gen::<u16>() % 8000);
                        emit_pattern(
                            &mut packets,
                            t,
                            dev_ip,
                            sport,
                            server,
                            act.port,
                            act.proto,
                            &act.pattern,
                            act.size_noise,
                            &mut rng,
                        );
                    } else {
                        let (domain, _, _) =
                            &dev.aperiodic_domains[rng.gen_range(0..dev.aperiodic_domains.len())];
                        let server = self.catalog.ip_of_domain(domain);
                        let n_out = rng.gen_range(2..8);
                        let pattern = PacketPattern {
                            out_sizes: (0..n_out).map(|_| 80 + rng.gen::<u32>() % 900).collect(),
                            in_sizes: (0..n_out).map(|_| 80 + rng.gen::<u32>() % 1300).collect(),
                            intra_gap: 0.04,
                        };
                        let sport = 50000 + (rng.gen::<u16>() % 8000);
                        emit_pattern(
                            &mut packets,
                            t,
                            dev_ip,
                            sport,
                            server,
                            443,
                            Proto::Tcp,
                            &pattern,
                            0.0,
                            &mut rng,
                        );
                    }
                    truth.push(TruthEvent {
                        ts: t,
                        device: di,
                        label: TruthLabel::Aperiodic,
                    });
                }
            }
        }

        // ---- scheduled user events --------------------------------------
        for (si, ev) in user_events.iter().enumerate() {
            if ev.ts < start || ev.ts >= end {
                continue;
            }
            if opts.removed_devices.contains(&ev.device)
                || Self::in_outage(&opts.outages, ev.device, ev.ts)
            {
                continue;
            }
            let dev = &self.catalog.devices[ev.device];
            let Some(act) = dev.activity(&ev.activity) else {
                panic!("device {} has no activity {}", dev.name, ev.activity);
            };
            let dev_ip = self.catalog.device_ip(ev.device);
            let mut rng = StdRng::seed_from_u64(mix(self.seed ^ mix(0x05E4 + si as u64)));
            let server = self.catalog.ip_of_domain(&act.domain);
            let sport = if act.hides_in_background {
                // Reuses the device's long-lived cloud connection: same
                // 5-tuple as its first TCP periodic endpoint.
                let ei = dev
                    .periodic
                    .iter()
                    .position(|p| p.proto == Proto::Tcp)
                    .unwrap_or(0) as u16;
                30000 + ei
            } else {
                40000 + (rng.gen::<u16>() % 2000)
            };
            // When hiding in background, the destination is the background
            // endpoint too, and the sizes are the heartbeat's sizes.
            let (target, port, pattern, noise) = if act.hides_in_background {
                let p = dev
                    .periodic
                    .iter()
                    .find(|p| p.proto == Proto::Tcp)
                    .expect("background TCP endpoint");
                (
                    self.catalog.ip_of_domain(&p.domain),
                    p.port,
                    p.pattern.clone(),
                    0.0,
                )
            } else {
                (server, act.port, act.pattern.clone(), act.size_noise)
            };
            emit_pattern(
                &mut packets,
                ev.ts,
                dev_ip,
                sport,
                target,
                port,
                act.proto,
                &pattern,
                noise,
                &mut rng,
            );
            truth.push(TruthEvent {
                ts: ev.ts,
                device: ev.device,
                label: TruthLabel::User(Symbol::intern(&ev.activity)),
            });
        }

        packets.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap());
        truth.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap());
        let mut domains = DomainTable::new();
        domains.preload_rdns(self.catalog.rdns_entries());
        Capture {
            packets,
            truth,
            domains,
            start,
            end,
        }
    }
}

/// Emit one burst following `pattern`: outbound/inbound packets
/// interleaved, `intra_gap` apart, with optional Gaussian-ish size noise.
#[allow(clippy::too_many_arguments)]
fn emit_pattern(
    out: &mut Vec<GatewayPacket>,
    t0: f64,
    dev_ip: Ipv4Addr,
    dev_port: u16,
    server: Ipv4Addr,
    server_port: u16,
    proto: Proto,
    pattern: &PacketPattern,
    size_noise: f64,
    rng: &mut StdRng,
) {
    let mut t = t0;
    let noisy = |s: u32, rng: &mut StdRng| -> u32 {
        if size_noise <= 0.0 {
            return s;
        }
        // Sum of 3 uniforms ≈ bell curve; cheap and dependency-free.
        let u = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) / 1.5 - 1.0;
        ((s as f64) + u * size_noise).max(60.0) as u32
    };
    let n = pattern.out_sizes.len().max(pattern.in_sizes.len());
    for i in 0..n {
        if let Some(&s) = pattern.out_sizes.get(i) {
            out.push(GatewayPacket {
                ts: t,
                src: dev_ip,
                dst: server,
                src_port: dev_port,
                dst_port: server_port,
                proto,
                bytes: noisy(s, rng),
            });
            t += pattern.intra_gap;
        }
        if let Some(&s) = pattern.in_sizes.get(i) {
            out.push(GatewayPacket {
                ts: t,
                src: server,
                dst: dev_ip,
                src_port: server_port,
                dst_port: dev_port,
                proto,
                bytes: noisy(s, rng),
            });
            t += pattern.intra_gap;
        }
    }
}

/// Knuth Poisson sampler (fine for the small per-window rates we use).
fn poisson(lambda: f64, rng: &mut StdRng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // guard against pathological lambda
        }
    }
}

/// Render a capture as raw Ethernet frames (pcap records) so the byte-level
/// pipeline (`behaviot_flows::ingest::ingest_pcap_bytes` over the
/// [`crate::write_pcap`] bytes) can be exercised end to end.
/// DNS flows carry real DNS messages; the first outbound packet of each TCP
/// 443 flow carries a TLS ClientHello with the destination's SNI.
///
/// Intended for demos/tests on small captures — frame payloads are
/// synthesized, so per-packet sizes follow the embedded protocol messages
/// rather than the abstract pattern sizes.
pub fn capture_to_frames(cap: &Capture, catalog: &Catalog) -> Vec<PcapRecord> {
    let mut seen_tls_flow: FxHashSet<(Ipv4Addr, u16, Ipv4Addr, u16)> = FxHashSet::default();
    let mut out = Vec::with_capacity(cap.packets.len());
    let gw_mac = MacAddr::from_index(0xffff);
    let gw_ip = Ipv4Addr::new(192, 168, 1, 1);
    let mut ident: u16 = 1;

    // LAN chatter a real capture contains: each device gratuitously ARPs
    // once at the start, and the gateway pings it once a minute. The
    // pipeline's frame parser skips both (non-TCP/UDP), exactly as the
    // paper scopes its modeling to IP flows.
    for (di, _) in catalog.devices.iter().enumerate() {
        let dev_ip = catalog.device_ip(di);
        let dev_mac = MacAddr::from_index(di as u32);
        let arp = behaviot_net::arp::encode(
            behaviot_net::arp::Operation::Request,
            dev_mac,
            dev_ip,
            MacAddr([0; 6]),
            gw_ip,
        );
        out.push(PcapRecord {
            ts: cap.start + di as f64 * 0.001,
            data: ethernet::encode(MacAddr::BROADCAST, dev_mac, ethernet::ETHERTYPE_ARP, &arp),
        });
        let mut t = cap.start + 30.0 + di as f64 * 0.01;
        let mut seq = 0u16;
        while t < cap.end {
            let echo = behaviot_net::icmp::encode_echo(
                behaviot_net::icmp::EchoKind::Request,
                di as u16,
                seq,
                b"gw-liveness",
            );
            let ip_pkt = ipv4::encode(gw_ip, dev_ip, 1, ident, &echo);
            ident = ident.wrapping_add(1);
            out.push(PcapRecord {
                ts: t,
                data: ethernet::encode(dev_mac, gw_mac, ethernet::ETHERTYPE_IPV4, &ip_pkt),
            });
            seq = seq.wrapping_add(1);
            t += 60.0;
        }
    }
    // Reverse map ip -> domain for DNS/SNI payloads.
    let rdns: FxHashMap<Ipv4Addr, String> = catalog.rdns_entries().into_iter().collect();

    for p in &cap.packets {
        let dev_idx = catalog
            .device_of_ip(p.src)
            .or_else(|| catalog.device_of_ip(p.dst))
            .unwrap_or(0);
        let dev_mac = MacAddr::from_index(dev_idx as u32);
        let (src_mac, dst_mac) = if catalog.device_of_ip(p.src).is_some() {
            (dev_mac, gw_mac)
        } else {
            (gw_mac, dev_mac)
        };
        let payload: Vec<u8> = match p.proto {
            Proto::Udp if p.dst_port == 53 => {
                let name = rdns.get(&p.dst).cloned().unwrap_or_default();
                dns::build_query(
                    ident,
                    if name.is_empty() {
                        "unknown.local"
                    } else {
                        &name
                    },
                )
                .unwrap_or_default()
            }
            Proto::Udp if p.src_port == 53 => {
                // The resolver answers with the *device's* periodic target —
                // we do not know which query this answers, so answer with
                // the server's own name/IP (self-referential but realistic
                // enough for the naming pipeline).
                let name = rdns.get(&p.src).cloned().unwrap_or_default();
                dns::build_response(
                    ident,
                    if name.is_empty() {
                        "unknown.local"
                    } else {
                        &name
                    },
                    &[p.src],
                    300,
                )
                .unwrap_or_default()
            }
            Proto::Udp if p.dst_port == 123 || p.src_port == 123 => {
                let mode = if p.dst_port == 123 {
                    behaviot_net::ntp::Mode::Client
                } else {
                    behaviot_net::ntp::Mode::Server
                };
                behaviot_net::ntp::encode(mode, if p.dst_port == 123 { 0 } else { 2 }, p.ts)
            }
            Proto::Udp => vec![0u8; (p.bytes as usize).saturating_sub(28).max(1)],
            Proto::Tcp => {
                let key = (p.src, p.src_port, p.dst, p.dst_port);
                let is_dev_out = catalog.device_of_ip(p.src).is_some();
                if is_dev_out && p.dst_port == 443 && seen_tls_flow.insert(key) {
                    let host = rdns.get(&p.dst).cloned().unwrap_or_default();
                    tls::build_client_hello(
                        if host.is_empty() {
                            "unknown.local"
                        } else {
                            &host
                        },
                        ident as u64,
                    )
                } else {
                    let mut v = vec![0u8; (p.bytes as usize).saturating_sub(40).max(1)];
                    v[0] = 23; // TLS application data marker
                    v
                }
            }
        };
        let transport = match p.proto {
            Proto::Tcp => tcp::encode(
                p.src,
                p.dst,
                p.src_port,
                p.dst_port,
                1,
                1,
                tcp::TcpFlags::DATA,
                &payload,
            ),
            Proto::Udp => udp::encode(p.src, p.dst, p.src_port, p.dst_port, &payload),
        };
        let ip_pkt = ipv4::encode(p.src, p.dst, p.proto.number(), ident, &transport);
        ident = ident.wrapping_add(1);
        out.push(PcapRecord {
            ts: p.ts,
            data: ethernet::encode(dst_mac, src_mac, ethernet::ETHERTYPE_IPV4, &ip_pkt),
        });
    }
    out.sort_by(|a, b| a.ts.partial_cmp(&b.ts).expect("NaN frame ts"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog_window(seed: u64, start: f64, end: f64) -> Capture {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, seed);
        g.generate(start, end, &[], &GenOptions::default())
    }

    #[test]
    fn deterministic_generation() {
        let a = small_catalog_window(7, 0.0, 3600.0);
        let b = small_catalog_window(7, 0.0, 3600.0);
        assert_eq!(a.packets.len(), b.packets.len());
        assert_eq!(a.packets, b.packets);
    }

    #[test]
    fn window_splitting_is_seamless() {
        let whole = small_catalog_window(9, 0.0, 7200.0);
        let h1 = small_catalog_window(9, 0.0, 3600.0);
        let h2 = small_catalog_window(9, 3600.0, 7200.0);
        // Periodic packets must be identical across the split. Aperiodic
        // draws are per-window, so compare only periodic truth counts.
        let per = |c: &Capture| {
            c.truth
                .iter()
                .filter(|t| matches!(t.label, TruthLabel::Periodic(..)))
                .count()
        };
        let diff = (per(&whole) as i64 - (per(&h1) + per(&h2)) as i64).abs();
        assert!(diff <= 2, "periodic count differs by {diff}");
    }

    #[test]
    fn periodic_occurrences_have_right_period() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 3);
        let cap = g.generate(0.0, 43200.0, &[], &GenOptions::default());
        let plug = catalog.device_index("TPLink Plug").unwrap();
        let mut times: Vec<f64> = cap
            .truth
            .iter()
            .filter(|t| {
                t.device == plug
                    && matches!(&t.label, TruthLabel::Periodic(d, _) if d.as_str().contains("tplinkcloud"))
            })
            .map(|t| t.ts)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(times.len() > 100, "{} occurrences", times.len());
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let med = {
            let mut g = gaps.clone();
            g.sort_by(|a, b| a.partial_cmp(b).unwrap());
            g[g.len() / 2]
        };
        assert!((med - 236.0).abs() < 10.0, "median gap {med}");
    }

    #[test]
    fn user_events_emitted_and_labeled() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 5);
        let dev = catalog.device_index("TPLink Bulb").unwrap();
        let events = vec![
            ScheduledEvent {
                ts: 100.0,
                device: dev,
                activity: "on_off".into(),
            },
            ScheduledEvent {
                ts: 200.0,
                device: dev,
                activity: "color".into(),
            },
        ];
        let cap = g.generate(0.0, 300.0, &events, &GenOptions::default());
        let users: Vec<_> = cap
            .truth
            .iter()
            .filter(|t| matches!(t.label, TruthLabel::User(_)))
            .collect();
        assert_eq!(users.len(), 2);
        // Packets exist at those times from the device.
        let ip = catalog.device_ip(dev);
        assert!(cap
            .packets
            .iter()
            .any(|p| p.src == ip && (p.ts - 100.0).abs() < 1.0));
    }

    #[test]
    fn outage_suppresses_traffic() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 5);
        let opts = GenOptions {
            outages: vec![Outage {
                from: 0.0,
                to: 7200.0,
                device: None,
            }],
            ..Default::default()
        };
        let cap = g.generate(0.0, 7200.0, &[], &opts);
        assert!(cap.packets.is_empty());
        assert!(cap.truth.is_empty());
    }

    #[test]
    fn device_removal() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 5);
        let gone = catalog.device_index("Wyze Camera").unwrap();
        let opts = GenOptions {
            removed_devices: vec![gone],
            ..Default::default()
        };
        let cap = g.generate(0.0, 7200.0, &[], &opts);
        let ip = catalog.device_ip(gone);
        assert!(cap.packets.iter().all(|p| p.src != ip && p.dst != ip));
    }

    #[test]
    fn hides_in_background_shares_five_tuple() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 5);
        let st = catalog.device_index("SmartThings Hub").unwrap();
        let events = vec![ScheduledEvent {
            ts: 50.0,
            device: st,
            activity: "on_off_zigbee".into(),
        }];
        let cap = g.generate(0.0, 100.0, &events, &GenOptions::default());
        let ip = catalog.device_ip(st);
        let user_pkts: Vec<_> = cap
            .packets
            .iter()
            .filter(|p| p.src == ip && (p.ts - 50.0).abs() < 0.5)
            .collect();
        assert!(!user_pkts.is_empty());
        // Port is in the periodic range (30000+), not the ephemeral range.
        assert!(user_pkts
            .iter()
            .all(|p| (30000..31000).contains(&p.src_port)));
    }

    #[test]
    fn frames_roundtrip_through_parser() {
        use behaviot_flows::{classify_frame, FrameClass};
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 11);
        let cap = g.generate(0.0, 600.0, &[], &GenOptions::default());
        let frames = capture_to_frames(&cap, &catalog);
        // Frames = IP flow packets + ARP/ICMP LAN chatter.
        assert!(frames.len() > cap.packets.len());
        let mut parsed = 0;
        let mut snis = 0;
        for f in &frames {
            if let FrameClass::Flow(pf) = classify_frame(f.ts, &f.data) {
                parsed += 1;
                if pf.sni.is_some() {
                    snis += 1;
                }
            }
        }
        // Every TCP/UDP frame parses; ARP/ICMP are skipped by design.
        assert_eq!(parsed, cap.packets.len(), "all flow frames must parse");
        assert!(snis > 0, "expected some ClientHello frames");
    }

    #[test]
    fn poisson_mean_approx() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        let total: usize = (0..n).map(|_| poisson(3.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }
}

#[cfg(test)]
mod local_peer_tests {
    use super::*;

    #[test]
    fn hub_polls_peer_over_lan() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 8);
        let cap = g.generate(0.0, 3600.0, &[], &GenOptions::default());
        let hub = catalog.device_ip(catalog.device_index("Philips Hub").unwrap());
        let bulb = catalog.device_ip(catalog.device_index("Philips Bulb").unwrap());
        let polls: Vec<&GatewayPacket> = cap
            .packets
            .iter()
            .filter(|p| p.src == hub && p.dst == bulb)
            .collect();
        // ~60 polls in an hour at T=60s.
        assert!(polls.len() >= 50, "{} local polls", polls.len());
        // Truth labels carry the peer address as the group key.
        assert!(cap.truth.iter().any(|t| matches!(
            &t.label,
            TruthLabel::Periodic(d, Proto::Tcp) if *d == bulb.to_string().as_str()
        )));
    }

    #[test]
    fn local_flows_have_local_features() {
        use behaviot_flows::{assemble_flows, FlowConfig};
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 8);
        let cap = g.generate(0.0, 1800.0, &[], &GenOptions::default());
        let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
        let hub = catalog.device_ip(catalog.device_index("Philips Hub").unwrap());
        let local: Vec<_> = flows
            .iter()
            .filter(|f| f.device == hub && f.features[14] > 0.0) // network_local
            .collect();
        assert!(!local.is_empty(), "no local-feature flows for the hub");
        assert!(local.iter().all(|f| f.features[13] == 0.0)); // not external
    }

    #[test]
    fn removed_peer_stops_local_polling() {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 8);
        let bulb_idx = catalog.device_index("Philips Bulb").unwrap();
        let opts = GenOptions {
            removed_devices: vec![bulb_idx],
            ..Default::default()
        };
        let cap = g.generate(0.0, 3600.0, &[], &opts);
        let bulb = catalog.device_ip(bulb_idx);
        assert!(cap.packets.iter().all(|p| p.src != bulb && p.dst != bulb));
    }
}

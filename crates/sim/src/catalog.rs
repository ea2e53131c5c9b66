//! The 49-device testbed catalog (Table 1), with per-device periodic
//! endpoints, user activities, and the destination/party map.
//!
//! The catalog is deterministic: [`Catalog::standard`] always produces the
//! same devices, domains, and addresses, independent of dataset seeds. The
//! per-category endpoint counts follow the shapes of Tables 4 and 5 (smart
//! speakers carry the most periodic models; Echo Show 5 has the maximum).

use crate::types::{ActivitySpec, Category, DeviceSpec, PacketPattern, Party, PeriodicSpec};
use behaviot_intern::FxHashMap;
use behaviot_net::Proto;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Number of devices in the testbed.
pub const N_DEVICES: usize = 49;

/// The assembled testbed: devices plus the endpoint universe.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// All device specifications.
    pub devices: Vec<DeviceSpec>,
    domain_ip: FxHashMap<String, Ipv4Addr>,
    domain_party: FxHashMap<String, Party>,
    domain_essential: FxHashMap<String, bool>,
    /// LAN subnet of the testbed.
    pub subnet: Ipv4Addr,
    /// LAN prefix length.
    pub prefix_len: u8,
}

/// `(name, category)` for the 49 devices of Table 1.
pub const DEVICE_TABLE: [(&str, Category); N_DEVICES] = [
    // Cameras & doorbells (11)
    ("D-Link Camera", Category::Camera),
    ("iCSee Doorbell", Category::Camera),
    ("LeFun Camera", Category::Camera),
    ("Microseven Camera", Category::Camera),
    ("Ring Camera", Category::Camera),
    ("Ring Doorbell", Category::Camera),
    ("Tuya Camera", Category::Camera),
    ("Ubell Doorbell", Category::Camera),
    ("Wansview Camera", Category::Camera),
    ("Yi Camera", Category::Camera),
    ("Wyze Camera", Category::Camera),
    // Smart speakers (11)
    ("Echo Dot", Category::SmartSpeaker),
    ("Echo Dot3", Category::SmartSpeaker),
    ("Echo Dot4", Category::SmartSpeaker),
    ("Echo Flex", Category::SmartSpeaker),
    ("Echo Plus", Category::SmartSpeaker),
    ("Echo Show5", Category::SmartSpeaker),
    ("Echo Spot", Category::SmartSpeaker),
    ("Google Home Mini", Category::SmartSpeaker),
    ("Google Nest Mini", Category::SmartSpeaker),
    ("Homepod Mini", Category::SmartSpeaker),
    ("Homepod", Category::SmartSpeaker),
    // Home automation & sensors (16)
    ("Amazon Plug", Category::HomeAuto),
    ("D-Link Sensor", Category::HomeAuto),
    ("Govee Bulb", Category::HomeAuto),
    ("Meross Dooropener", Category::HomeAuto),
    ("Nest Thermostat", Category::HomeAuto),
    ("Smartlife Bulb", Category::HomeAuto),
    ("TPLink Bulb", Category::HomeAuto),
    ("Keyco Air Sensor", Category::HomeAuto),
    ("Jinvoo Bulb", Category::HomeAuto),
    ("Gosund Bulb", Category::HomeAuto),
    ("Magichome Strip", Category::HomeAuto),
    ("Philips Bulb", Category::HomeAuto),
    ("Ring Chime", Category::HomeAuto),
    ("Wemo Plug", Category::HomeAuto),
    ("TPLink Plug", Category::HomeAuto),
    ("Thermopro Sensor", Category::HomeAuto),
    // Appliances (5)
    ("Behmor Brewer", Category::Appliance),
    ("Samsung Fridge", Category::Appliance),
    ("Smarter iKettle", Category::Appliance),
    ("GE Microwave", Category::Appliance),
    ("Anova Sousvide", Category::Appliance),
    // Hubs (6)
    ("Aqara Hub", Category::Hub),
    ("IKEA Hub", Category::Hub),
    ("SmartThings Hub", Category::Hub),
    ("SwitchBot Hub", Category::Hub),
    ("Philips Hub", Category::Hub),
    ("Wink Hub2", Category::Hub),
];

/// The 18 devices used in the routine dataset (Table 6).
pub const ROUTINE_DEVICES: [&str; 18] = [
    "Ring Doorbell",
    "Ring Camera",
    "D-Link Camera",
    "Wyze Camera",
    "Wemo Plug",
    "TPLink Plug",
    "Amazon Plug",
    "TPLink Bulb",
    "Gosund Bulb",
    "Nest Thermostat",
    "Govee Bulb",
    "Smartlife Bulb",
    "Jinvoo Bulb",
    "Magichome Strip",
    "Meross Dooropener",
    "SwitchBot Hub",
    "Smarter iKettle",
    "Echo Spot",
];

fn vendor_slug(name: &str) -> String {
    let first = name.split_whitespace().next().unwrap_or("dev");
    first
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase()
}

fn device_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

/// Cloud-endpoint counts per device: `(first, support, third)` periodic
/// endpoints in addition to DNS + NTP. Tuned to the shapes of Table 4
/// (periodic-model counts) and Table 5 (destination parties).
fn cloud_endpoint_plan(name: &str, category: Category) -> (usize, usize, usize) {
    match name {
        // Named maxima from Table 4.
        "Echo Show5" => (25, 2, 2),     // 31 total with DNS+NTP
        "Echo Spot" => (21, 2, 2),      // 27
        "Homepod Mini" => (21, 2, 2),   // 27
        "Samsung Fridge" => (17, 2, 1), // 22
        "Philips Hub" => (8, 2, 3),     // 15
        "iCSee Doorbell" => (4, 2, 2),  // 10
        "Nest Thermostat" => (4, 1, 1), // 8
        "TPLink Plug" => (1, 0, 0),     // cloud + DNS + NTP, as in §7.2
        _ => match category {
            Category::Camera => (1, 2, 1),
            Category::SmartSpeaker => (17, 2, 1),
            Category::HomeAuto => (1, 1, 0),
            Category::Appliance => (2, 1, 1),
            Category::Hub => (1, 1, 2),
        },
    }
}

const PERIOD_CHOICES: [f64; 10] = [
    60.0, 97.0, 120.0, 236.0, 300.0, 452.0, 600.0, 905.0, 1800.0, 2703.0,
];

impl Catalog {
    /// Build the standard 49-device testbed.
    pub fn standard() -> Self {
        let mut rng = StdRng::seed_from_u64(0xBE4A_0701);
        let mut cat = Catalog {
            devices: Vec::with_capacity(N_DEVICES),
            domain_ip: FxHashMap::default(),
            domain_party: FxHashMap::default(),
            domain_essential: FxHashMap::default(),
            subnet: Ipv4Addr::new(192, 168, 0, 0),
            prefix_len: 16,
        };
        for (di, &(name, category)) in DEVICE_TABLE.iter().enumerate() {
            let spec = cat.build_device(di, name, category, &mut rng);
            cat.devices.push(spec);
        }
        cat
    }

    fn register(&mut self, domain: &str, party: Party, essential: bool) {
        if self.domain_ip.contains_key(domain) {
            return;
        }
        // Deterministic address blocks per party: first 52.x, support 13.x,
        // third 104.x; special cases pinned below.
        let n = self.domain_ip.len() as u32;
        let ip = match domain {
            "dns.google" => Ipv4Addr::new(8, 8, 8, 8),
            "resolver.neu.edu" => Ipv4Addr::new(155, 33, 17, 1),
            _ => {
                let base = match party {
                    Party::First => 52u8,
                    Party::Support => 13u8,
                    Party::Third => 104u8,
                };
                Ipv4Addr::new(
                    base,
                    (n >> 16) as u8,
                    (n >> 8) as u8,
                    (n & 0xff).max(1) as u8,
                )
            }
        };
        self.domain_ip.insert(domain.to_string(), ip);
        self.domain_party.insert(domain.to_string(), party);
        self.domain_essential.insert(domain.to_string(), essential);
    }

    fn build_device(
        &mut self,
        di: usize,
        name: &str,
        category: Category,
        rng: &mut StdRng,
    ) -> DeviceSpec {
        let vendor = vendor_slug(name);
        let slug = device_slug(name);
        let mut periodic: Vec<PeriodicSpec> = Vec::new();

        // DNS: most devices query the network resolver; 6 devices also use
        // Google DNS (§6.1 finds exactly that).
        let dns_domain = "resolver.neu.edu".to_string();
        self.register(&dns_domain, Party::Support, true);
        periodic.push(PeriodicSpec {
            domain: dns_domain,
            proto: Proto::Udp,
            port: 53,
            period: 3603.0,
            jitter_frac: 0.02,
            party: Party::Support,
            essential: true,
            pattern: PacketPattern {
                out_sizes: vec![70],
                in_sizes: vec![102],
                intra_gap: 0.01,
            },
        });
        if di % 8 == 3 {
            self.register("dns.google", Party::Third, false);
            periodic.push(PeriodicSpec {
                domain: "dns.google".to_string(),
                proto: Proto::Udp,
                port: 53,
                period: 1800.0,
                jitter_frac: 0.02,
                party: Party::Third,
                essential: false,
                pattern: PacketPattern {
                    out_sizes: vec![70],
                    in_sizes: vec![102],
                    intra_gap: 0.01,
                },
            });
        }

        // NTP: 17 distinct servers across the fleet, some third-party.
        let ntp_pool = [
            ("pool.ntp.org", Party::Support),
            ("time.google.com", Party::Third),
            ("time.apple.com", Party::Third),
            ("ntp.amazon.com", Party::Third),
            ("0.de.pool.ntp.org", Party::Third),
            ("1.gr.pool.ntp.org", Party::Third),
            ("cn.ntp.org.cn", Party::Third),
        ];
        let (ntp_domain, ntp_party) = ntp_pool[di % ntp_pool.len()];
        self.register(ntp_domain, ntp_party, true);
        periodic.push(PeriodicSpec {
            domain: ntp_domain.to_string(),
            proto: Proto::Udp,
            port: 123,
            period: 3603.0,
            jitter_frac: 0.01,
            party: ntp_party,
            essential: true,
            pattern: PacketPattern {
                out_sizes: vec![76],
                in_sizes: vec![76],
                intra_gap: 0.01,
            },
        });

        // Cloud endpoints per the category/device plan.
        let (n_first, n_support, n_third) = cloud_endpoint_plan(name, category);
        let mut add_cloud = |party: Party, i: usize, slf: &mut Self| {
            let domain = match party {
                Party::First => {
                    if i == 0 {
                        format!("devs.{vendor}cloud.com")
                    } else {
                        format!("{slug}-api{i}.{vendor}.com")
                    }
                }
                Party::Support => format!("{slug}-{i}.cloudfront.net"),
                Party::Third => format!("metrics{i}.{slug}-analytics.io"),
            };
            let essential = match party {
                Party::First => true,
                Party::Support => i == 0,
                Party::Third => false,
            };
            slf.register(&domain, party, essential);
            // TP-Link Plug keeps its documented 236 s cloud heartbeat.
            let period = if name == "TPLink Plug" {
                236.0
            } else {
                PERIOD_CHOICES[rng.gen_range(0..PERIOD_CHOICES.len())]
            };
            let out = 90 + rng.gen_range(0..12) * 16;
            let inn = 120 + rng.gen_range(0..12) * 24;
            let n = rng.gen_range(1..4);
            periodic.push(PeriodicSpec {
                domain,
                proto: Proto::Tcp,
                port: 443,
                period,
                jitter_frac: 0.02,
                party,
                essential,
                pattern: PacketPattern::request_response(out as u32, inn as u32, n),
            });
        };
        for i in 0..n_first {
            add_cloud(Party::First, i, self);
        }
        for i in 0..n_support {
            add_cloud(Party::Support, i, self);
        }
        for i in 0..n_third {
            add_cloud(Party::Third, i, self);
        }

        let activities = self.build_activities(di, name, category, &vendor, &slug);

        // Aperiodic background: updates and irregular telemetry. Speakers
        // and hubs produce more (§6.1 attributes most aperiodic flows to
        // them).
        let (aperiodic_per_day, mut aperiodic_domains) = match category {
            Category::SmartSpeaker => (
                12.0,
                vec![
                    (format!("updates.{vendor}.com"), Party::First, true),
                    (format!("mas-sdk.{vendor}.com"), Party::First, false),
                    (format!("{slug}-cdn.cloudfront.net"), Party::Support, false),
                ],
            ),
            Category::Hub => (
                6.0,
                vec![
                    (format!("updates.{vendor}.com"), Party::First, true),
                    (format!("logs.{slug}-analytics.io"), Party::Third, false),
                ],
            ),
            _ => (
                1.5,
                vec![(format!("updates.{vendor}.com"), Party::First, false)],
            ),
        };
        // Echo Show 5 advertising endpoint called out in §6.1.
        if name == "Echo Show5" {
            aperiodic_domains.push(("mas-sdk.amazon.com".to_string(), Party::First, false));
        }
        for (d, p, e) in &aperiodic_domains {
            self.register(d, *p, *e);
        }

        // Hubs poll their paired devices over the LAN (the source of the
        // network_local features of Table 8).
        let local_peers: Vec<(String, f64, PacketPattern)> = match name {
            "Philips Hub" => vec![(
                "Philips Bulb".to_string(),
                60.0,
                PacketPattern::request_response(96, 128, 1),
            )],
            "SmartThings Hub" => vec![(
                "D-Link Sensor".to_string(),
                120.0,
                PacketPattern::request_response(110, 140, 1),
            )],
            "Aqara Hub" => vec![(
                "Keyco Air Sensor".to_string(),
                300.0,
                PacketPattern::request_response(88, 120, 1),
            )],
            "SwitchBot Hub" => vec![(
                "Magichome Strip".to_string(),
                180.0,
                PacketPattern::request_response(102, 134, 1),
            )],
            _ => Vec::new(),
        };
        DeviceSpec {
            name: name.to_string(),
            category,
            periodic,
            activities,
            aperiodic_per_day,
            aperiodic_domains,
            aperiodic_mimic: if name == "Echo Show5" {
                Some("voice".to_string())
            } else {
                None
            },
            local_peers,
        }
    }

    fn build_activities(
        &mut self,
        di: usize,
        name: &str,
        category: Category,
        vendor: &str,
        slug: &str,
    ) -> Vec<ActivitySpec> {
        // Activity sets per Table 1/Table 6. Binary on/off pairs are
        // aggregated into one "on_off" activity (§6.1: indistinguishable
        // for 13 of 18 devices).
        let names: Vec<&str> = match category {
            Category::Camera => {
                if name.contains("Doorbell") {
                    vec!["motion", "video", "ring"]
                } else {
                    vec!["motion", "video"]
                }
            }
            Category::SmartSpeaker => vec!["voice", "volume"],
            Category::HomeAuto => match name {
                "Nest Thermostat" => vec!["set", "on_off"],
                "Meross Dooropener" => vec!["open_close"],
                "TPLink Bulb" | "Govee Bulb" | "Jinvoo Bulb" => vec!["on_off", "color", "dim"],
                "Smartlife Bulb" | "Gosund Bulb" | "Magichome Strip" | "Philips Bulb" => {
                    vec!["on_off", "color"]
                }
                "D-Link Sensor" => vec!["motion"],
                "Keyco Air Sensor" | "Thermopro Sensor" => vec![],
                "Ring Chime" => vec!["ring"],
                _ => vec!["on_off"], // plugs
            },
            Category::Appliance => match name {
                "Smarter iKettle" => vec!["on_off", "boil"],
                "Samsung Fridge" | "GE Microwave" => vec![],
                _ => vec!["on_off"],
            },
            Category::Hub => match name {
                "SmartThings Hub" => vec!["on_off_zigbee"],
                "SwitchBot Hub" => vec!["on_off"],
                "Philips Hub" | "IKEA Hub" => vec!["on_off"],
                _ => vec![],
            },
        };

        // Per-device classification difficulty (Table 3: TP-Link Bulb
        // 96.15 %, Nest Thermostat 94.74 %, everything else 100 %).
        let size_noise = match name {
            "TPLink Bulb" => 22.0,
            "Nest Thermostat" => 14.0,
            _ => 4.0,
        };

        let mut out = Vec::new();
        for (ai, aname) in names.iter().enumerate() {
            let (domain, party, essential) =
                if matches!(category, Category::Camera) && *aname == "video" {
                    // Video upload rides on a support-party media cloud.
                    (format!("{slug}-media.awsmedia.com"), Party::Support, true)
                } else if di.is_multiple_of(3) && matches!(category, Category::HomeAuto) {
                    // A third of home-auto devices are cloud-controlled via AWS
                    // (drives Table 5's support-party share for user events).
                    (
                        format!("{slug}-ctl.iot.us-east-1.amazonaws.com"),
                        Party::Support,
                        true,
                    )
                } else {
                    (format!("devs.{vendor}cloud.com"), Party::First, true)
                };
            self.register(&domain, party, essential);
            // Distinct deterministic signature per (device, activity):
            // activity index shifts sizes; device index shifts the base.
            // User actions carry commands/payloads and sit well above the
            // small heartbeat exchanges (which top out around ~384 bytes),
            // as real activity bursts do.
            let base = 430 + ((di * 53) % 260) as u32;
            let out_sz = base + 24 * ai as u32;
            let in_sz = base + 90 + 32 * ai as u32;
            let n_exchanges = 2 + (ai + di) % 3;
            let hides = name == "SmartThings Hub";
            let pattern = if *aname == "video" {
                // Motion-triggered upload: several large outbound packets.
                PacketPattern {
                    out_sizes: vec![1380; 8],
                    in_sizes: vec![66; 4],
                    intra_gap: 0.03,
                }
            } else {
                PacketPattern::request_response(out_sz, in_sz, n_exchanges)
            };
            out.push(ActivitySpec {
                name: aname.to_string(),
                domain,
                proto: Proto::Tcp,
                port: 443,
                party,
                essential,
                pattern,
                size_noise,
                hides_in_background: hides,
            });
        }
        out
    }

    /// LAN address of a device: `192.168.1.(10+index)`.
    pub fn device_ip(&self, idx: usize) -> Ipv4Addr {
        assert!(idx < self.devices.len());
        Ipv4Addr::new(192, 168, 1, (10 + idx) as u8)
    }

    /// Reverse lookup from LAN address to device index.
    pub fn device_of_ip(&self, ip: Ipv4Addr) -> Option<usize> {
        let o = ip.octets();
        if o[0] == 192 && o[1] == 168 && o[2] == 1 && (o[3] as usize) >= 10 {
            let idx = o[3] as usize - 10;
            (idx < self.devices.len()).then_some(idx)
        } else {
            None
        }
    }

    /// Index of a device by exact name.
    pub fn device_index(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d.name == name)
    }

    /// Server address of an endpoint domain. Panics on unknown domains
    /// (the catalog registers every domain it hands out).
    pub fn ip_of_domain(&self, domain: &str) -> Ipv4Addr {
        self.domain_ip[domain]
    }

    /// Party operating a domain.
    pub fn party_of(&self, domain: &str) -> Option<Party> {
        self.domain_party.get(domain).copied()
    }

    /// Is a domain essential to device function?
    pub fn essential(&self, domain: &str) -> Option<bool> {
        self.domain_essential.get(domain).copied()
    }

    /// All `(ip, domain)` pairs, for preloading the reverse-DNS table,
    /// sorted by address: a table preloaded from them interns its domains
    /// in the same order in every process.
    pub fn rdns_entries(&self) -> Vec<(Ipv4Addr, String)> {
        let mut entries: Vec<(Ipv4Addr, String)> = self
            .domain_ip
            .iter()
            .map(|(d, &ip)| (ip, d.clone()))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Indices of the routine-dataset devices (Table 6).
    pub fn routine_device_indices(&self) -> Vec<usize> {
        ROUTINE_DEVICES
            .iter()
            .map(|n| self.device_index(n).expect("routine device missing"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_nine_devices() {
        let c = Catalog::standard();
        assert_eq!(c.devices.len(), 49);
        let by_cat = |cat: Category| c.devices.iter().filter(|d| d.category == cat).count();
        assert_eq!(by_cat(Category::Camera), 11);
        assert_eq!(by_cat(Category::SmartSpeaker), 11);
        assert_eq!(by_cat(Category::HomeAuto), 16);
        assert_eq!(by_cat(Category::Appliance), 5);
        assert_eq!(by_cat(Category::Hub), 6);
    }

    #[test]
    fn deterministic() {
        let a = Catalog::standard();
        let b = Catalog::standard();
        for (da, db) in a.devices.iter().zip(&b.devices) {
            assert_eq!(da.name, db.name);
            assert_eq!(da.periodic.len(), db.periodic.len());
            for (pa, pb) in da.periodic.iter().zip(&db.periodic) {
                assert_eq!(pa.domain, pb.domain);
                assert_eq!(pa.period, pb.period);
            }
        }
    }

    #[test]
    fn periodic_model_counts_follow_table4() {
        let c = Catalog::standard();
        let count = |n: &str| c.devices[c.device_index(n).unwrap()].periodic.len();
        assert_eq!(count("Echo Show5"), 31);
        assert_eq!(count("Echo Spot"), 27);
        assert_eq!(count("Samsung Fridge"), 22);
        assert_eq!(count("Philips Hub"), 15);
        // TP-Link Plug: cloud + DNS + NTP.
        assert_eq!(count("TPLink Plug"), 3);
        // Total near the paper's 454.
        let total: usize = c.devices.iter().map(|d| d.periodic.len()).sum();
        assert!((380..=520).contains(&total), "total {total}");
        // Speakers dominate.
        let speaker_avg: f64 = c
            .devices
            .iter()
            .filter(|d| d.category == Category::SmartSpeaker)
            .map(|d| d.periodic.len() as f64)
            .sum::<f64>()
            / 11.0;
        assert!(speaker_avg > 18.0, "speaker avg {speaker_avg}");
    }

    #[test]
    fn tplink_plug_matches_mud_example() {
        // §7.2: TCP-*.tplinkcloud.com-236, DNS-*.neu.edu-3603, NTP-3603.
        let c = Catalog::standard();
        let d = &c.devices[c.device_index("TPLink Plug").unwrap()];
        let cloud = d.periodic.iter().find(|p| p.proto == Proto::Tcp).unwrap();
        assert_eq!(cloud.period, 236.0);
        assert!(cloud.domain.contains("tplinkcloud"));
        assert!(d
            .periodic
            .iter()
            .any(|p| p.port == 53 && p.period == 3603.0));
        assert!(d
            .periodic
            .iter()
            .any(|p| p.port == 123 && p.period == 3603.0));
    }

    #[test]
    fn routine_devices_all_present_with_activities() {
        let c = Catalog::standard();
        let idxs = c.routine_device_indices();
        assert_eq!(idxs.len(), 18);
        for &i in &idxs {
            assert!(!c.devices[i].activities.is_empty(), "{}", c.devices[i].name);
        }
    }

    #[test]
    fn device_ip_roundtrip() {
        let c = Catalog::standard();
        for i in 0..c.devices.len() {
            assert_eq!(c.device_of_ip(c.device_ip(i)), Some(i));
        }
        assert_eq!(c.device_of_ip(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn domains_have_parties_and_unique_ips() {
        let c = Catalog::standard();
        let entries = c.rdns_entries();
        let ips: std::collections::HashSet<_> = entries.iter().map(|(ip, _)| ip).collect();
        assert_eq!(ips.len(), entries.len(), "IP collision in endpoint map");
        // Address order, whatever the map's hash order: every process
        // preloads (and so interns) the domains in the same sequence.
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        for d in &c.devices {
            for p in &d.periodic {
                assert_eq!(c.party_of(&p.domain), Some(p.party));
                assert!(c.essential(&p.domain).is_some());
            }
            for a in &d.activities {
                assert!(c.party_of(&a.domain).is_some());
            }
        }
    }

    #[test]
    fn smartthings_hides_and_echo_mimics() {
        let c = Catalog::standard();
        let st = &c.devices[c.device_index("SmartThings Hub").unwrap()];
        assert!(st.activities[0].hides_in_background);
        let es = &c.devices[c.device_index("Echo Show5").unwrap()];
        assert_eq!(es.aperiodic_mimic.as_deref(), Some("voice"));
    }

    #[test]
    fn activity_signatures_distinct_within_device() {
        let c = Catalog::standard();
        for d in &c.devices {
            for i in 0..d.activities.len() {
                for j in i + 1..d.activities.len() {
                    let a = &d.activities[i];
                    let b = &d.activities[j];
                    assert!(
                        a.pattern.out_sizes != b.pattern.out_sizes
                            || a.pattern.in_sizes != b.pattern.in_sizes,
                        "{}: {} vs {}",
                        d.name,
                        a.name,
                        b.name
                    );
                }
            }
        }
    }
}

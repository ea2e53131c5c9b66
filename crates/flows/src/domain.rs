//! Destination-domain resolution (§4.1 "Traffic partitioning and
//! annotation").
//!
//! Flows are annotated with a destination domain name derived, in priority
//! order, from (1) observed DNS answers, (2) TLS SNI, (3) a reverse-DNS
//! table. If none applies, the domain is left blank and the flow is keyed
//! by raw IP.
//!
//! Domains are stored as interned [`Symbol`]s: the same handful of cloud
//! endpoints recur across millions of flows, so each name is lowercased
//! and copied exactly once, and annotation/grouping afterwards is a 4-byte
//! copy instead of a `String` clone.

use behaviot_intern::{FxHashMap, FxHashSet, Symbol};
use std::net::Ipv4Addr;

/// Accumulates `IP → domain` knowledge while a capture is processed.
#[derive(Debug, Clone, Default)]
pub struct DomainTable {
    dns: FxHashMap<Ipv4Addr, Symbol>,
    sni: FxHashMap<Ipv4Addr, Symbol>,
    rdns: FxHashMap<Ipv4Addr, Symbol>,
}

/// Lowercase + intern, skipping the allocation when the name is already
/// lowercase (the common case for machine-emitted DNS/SNI).
fn intern_lower(name: &str) -> Symbol {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Symbol::intern(&name.to_lowercase())
    } else {
        Symbol::intern(name)
    }
}

impl DomainTable {
    /// New empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a DNS answer mapping (latest answer wins, as caches do).
    pub fn learn_dns(&mut self, ip: Ipv4Addr, domain: &str) {
        self.dns.insert(ip, intern_lower(domain));
    }

    /// Record an SNI sighting for a server address.
    pub fn learn_sni(&mut self, ip: Ipv4Addr, host: &str) {
        self.sni.insert(ip, intern_lower(host));
    }

    /// Preload reverse-DNS entries (the paper falls back to rDNS lookups
    /// when in-band naming was missed; the simulator provides this table).
    pub fn preload_rdns(&mut self, entries: impl IntoIterator<Item = (Ipv4Addr, String)>) {
        for (ip, name) in entries {
            self.rdns.insert(ip, intern_lower(&name));
        }
    }

    /// Resolve an address to a domain symbol: DNS answers, then SNI, then
    /// rDNS.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<Symbol> {
        self.dns
            .get(&ip)
            .or_else(|| self.sni.get(&ip))
            .or_else(|| self.rdns.get(&ip))
            .copied()
    }

    /// Resolve to the domain string (report/serialization convenience).
    pub fn resolve_str(&self, ip: Ipv4Addr) -> Option<&'static str> {
        self.resolve(ip).map(Symbol::as_str)
    }

    /// Number of addresses with any mapping.
    pub fn len(&self) -> usize {
        let mut keys: FxHashSet<&Ipv4Addr> = self.dns.keys().collect();
        keys.extend(self.sni.keys());
        keys.extend(self.rdns.keys());
        keys.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.dns.is_empty() && self.sni.is_empty() && self.rdns.is_empty()
    }

    /// Merge another table into this one (other's DNS/SNI entries win,
    /// mirroring chronological processing of a later capture slice).
    pub fn merge(&mut self, other: &DomainTable) {
        self.dns.extend(other.dns.iter().map(|(&k, &v)| (k, v)));
        self.sni.extend(other.sni.iter().map(|(&k, &v)| (k, v)));
        self.rdns.extend(other.rdns.iter().map(|(&k, &v)| (k, v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(52, 0, 0, 1);

    #[test]
    fn priority_dns_over_sni_over_rdns() {
        let mut t = DomainTable::new();
        t.preload_rdns([(IP, "ec2-52-0-0-1.compute.amazonaws.com".to_string())]);
        assert_eq!(
            t.resolve_str(IP),
            Some("ec2-52-0-0-1.compute.amazonaws.com")
        );
        t.learn_sni(IP, "api.Example.com");
        assert_eq!(t.resolve_str(IP), Some("api.example.com"));
        t.learn_dns(IP, "cdn.example.com");
        assert_eq!(t.resolve_str(IP), Some("cdn.example.com"));
    }

    #[test]
    fn unknown_ip_none() {
        let t = DomainTable::new();
        assert_eq!(t.resolve(IP), None);
        assert!(t.is_empty());
    }

    #[test]
    fn latest_dns_wins() {
        let mut t = DomainTable::new();
        t.learn_dns(IP, "old.example.com");
        t.learn_dns(IP, "new.example.com");
        assert_eq!(t.resolve_str(IP), Some("new.example.com"));
    }

    #[test]
    fn merge_and_len() {
        let mut a = DomainTable::new();
        a.learn_dns(IP, "a.com");
        let mut b = DomainTable::new();
        b.learn_dns(IP, "b.com");
        b.learn_sni(Ipv4Addr::new(52, 0, 0, 2), "c.com");
        a.merge(&b);
        assert_eq!(a.resolve_str(IP), Some("b.com"));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn equal_names_share_one_symbol() {
        let mut t = DomainTable::new();
        t.learn_dns(IP, "Shared.Example.com");
        t.learn_sni(Ipv4Addr::new(52, 0, 0, 9), "shared.example.com");
        let a = t.resolve(IP).unwrap();
        let b = t.resolve(Ipv4Addr::new(52, 0, 0, 9)).unwrap();
        assert_eq!(a, b);
    }
}

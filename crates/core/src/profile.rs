//! MUD-style device profile export (§7.2 "Informing IoT profiles").
//!
//! RFC 8520 (Manufacturer Usage Description) profiles describe a device's
//! intended communication. None of the paper's 49 devices shipped one; the
//! paper proposes generating profiles from the learned behavior models.
//! This module renders a device's periodic models and user activities as a
//! MUD-flavored JSON document, escaping strings with the ledger's
//! [`write_json_str`].

use crate::events::BehavIoT;
use behaviot_obs::ledger::write_json_str;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Render the MUD-like profile of one device from its trained models.
///
/// The document lists each periodic model as an ACL entry
/// `(destination, protocol, period)` and each modeled user activity as an
/// on-demand ACL entry. An empty profile (device without models) is still
/// a valid document.
pub fn mud_profile(models: &BehavIoT, device: Ipv4Addr) -> String {
    let name = models
        .names
        .get(&device)
        .cloned()
        .unwrap_or_else(|| device.to_string());
    let mut periodic: Vec<_> = models
        .periodic
        .iter()
        .filter(|m| m.device == device)
        .collect();
    periodic.sort_by(|a, b| {
        a.destination
            .cmp(&b.destination)
            .then(a.proto.cmp(&b.proto))
    });
    let mut acts = models.user.activities(device);
    acts.sort();
    let mut out = String::from("{\"ietf-mud:mud\":{\"mud-version\":1,\"systeminfo\":");
    write_json_str(&mut out, &name);
    out.push_str(",\"cache-validity\":48,\"is-supported\":true,\"behaviot:acls\":[");
    let mut sep = "";
    for m in periodic {
        let dest = m.destination.as_str();
        out.push_str(sep);
        out.push_str("{\"name\":");
        write_json_str(&mut out, &format!("periodic-{dest}"));
        let _ = write!(out, ",\"protocol\":\"{}\",\"destination\":", m.proto);
        write_json_str(&mut out, dest);
        let _ = write!(
            out,
            ",\"period-seconds\":{:.1},\"cadence\":\"periodic\"}}",
            m.period()
        );
        sep = ",";
    }
    for a in acts {
        out.push_str(sep);
        out.push_str("{\"name\":");
        write_json_str(&mut out, &format!("user-{a}"));
        out.push_str(",\"cadence\":\"on-demand\",\"activity\":");
        write_json_str(&mut out, a);
        out.push('}');
        sep = ",";
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{TrainConfig, TrainingData};
    use behaviot_flows::{FlowRecord, N_FEATURES};
    use behaviot_net::Proto;
    use std::collections::HashMap;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    fn flow(dest: &str, start: f64, size: f64) -> FlowRecord {
        let mut features = [0.0; N_FEATURES];
        features[0] = size;
        FlowRecord {
            device: DEV,
            remote: Ipv4Addr::new(52, 0, 0, 1),
            device_port: 30000,
            remote_port: 443,
            proto: Proto::Tcp,
            domain: Some(dest.into()),
            start,
            end: start + 0.1,
            n_packets: 4,
            total_bytes: size as u64 * 4,
            features,
        }
    }

    fn trained() -> BehavIoT {
        let idle: Vec<FlowRecord> = (0..400)
            .map(|i| flow("devs.tplinkcloud.com", i as f64 * 236.0, 120.0))
            .collect();
        let activity: Vec<(FlowRecord, Option<String>)> = (0..30)
            .map(|i| {
                (
                    flow("devs.tplinkcloud.com", i as f64 * 75.0, 800.0),
                    Some("on_off".into()),
                )
            })
            .collect();
        let refs: Vec<(&FlowRecord, Option<&str>)> =
            activity.iter().map(|(f, l)| (f, l.as_deref())).collect();
        let mut names = HashMap::new();
        names.insert(DEV, "TPLink Plug".to_string());
        BehavIoT::train(
            &TrainingData::from_flows(idle, refs, names),
            &TrainConfig::default(),
        )
    }

    #[test]
    fn profile_contains_models() {
        let models = trained();
        let json = mud_profile(&models, DEV);
        assert!(json.contains("\"systeminfo\":\"TPLink Plug\""));
        assert!(json.contains("devs.tplinkcloud.com"));
        assert!(json.contains("\"period-seconds\":236"));
        assert!(json.contains("\"activity\":\"on_off\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn unknown_device_valid_empty_profile() {
        let models = trained();
        let json = mud_profile(&models, Ipv4Addr::new(192, 168, 1, 99));
        assert!(json.contains("\"behaviot:acls\":[]"));
        assert!(json.contains("192.168.1.99"));
    }

    #[test]
    fn profile_is_deterministic() {
        let models = trained();
        assert_eq!(mud_profile(&models, DEV), mud_profile(&models, DEV));
    }
}

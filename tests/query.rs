//! Query-layer equivalence: on a frozen seed, every query expression must
//! produce exactly what the retired hand-rolled sweeps produced. The
//! hand-rolled reference implementations are reconstructed here from the
//! public column accessors (no query-layer calls), so a regression in
//! predicate pushdown, enumeration order, or group seeding fails loudly
//! instead of shifting golden bytes.

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::{Dataset, TrafficSlice};
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::core::{Plan, PlanSet, Query};
use cloud_watching::detection::Verdict;
use cloud_watching::honeypot::deployment::CollectorKind;
use cloud_watching::protocols::iana::POPULAR_PORTS;
use cloud_watching::protocols::ProtocolId;
use cloud_watching::scanners::population::ScenarioYear;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

thread_local! {
    /// One frozen-seed scenario per test thread (pipeline types are
    /// single-threaded by design).
    static SCENARIO: Scenario = Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(424_242),
    );
}

fn scenario<R>(f: impl FnOnce(&Scenario) -> R) -> R {
    SCENARIO.with(f)
}

/// GreyNoise fleet IPs (the Table 1 cloud fleet).
fn greynoise_ips(s: &Scenario) -> Vec<Ipv4Addr> {
    s.deployment
        .vantages
        .iter()
        .filter(|v| v.collector == CollectorKind::GreyNoise)
        .map(|v| v.ip)
        .collect()
}

/// The retired `events_at_group` sweep: per-IP destination filter in the
/// order given, capture order within an IP, inline slice predicate.
fn hand_rolled_indices(
    ds: &Dataset,
    ips: &[Ipv4Addr],
    slice: TrafficSlice,
) -> Vec<usize> {
    let table = ds.table();
    let mut out = Vec::new();
    for &ip in ips {
        for i in 0..table.len() {
            if table.dsts()[i] != ip {
                continue;
            }
            let admitted = match slice {
                TrafficSlice::SshPort22 => table.dst_ports()[i] == 22,
                TrafficSlice::TelnetPort23 => table.dst_ports()[i] == 23,
                TrafficSlice::HttpPort80 => table.dst_ports()[i] == 80,
                TrafficSlice::HttpAllPorts => {
                    ds.fingerprints()[i] == Some(ProtocolId::Http)
                }
                TrafficSlice::AnyAll => true,
            };
            if admitted {
                out.push(i);
            }
        }
    }
    out
}

#[test]
fn table1_unique_sources_match_hand_rolled() {
    scenario(|s| {
        let ips = greynoise_ips(s);
        let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
        let table = s.dataset.table();
        let mut srcs = BTreeSet::new();
        let mut asns = BTreeSet::new();
        for i in 0..table.len() {
            if fleet.contains(&table.dsts()[i]) {
                srcs.insert(table.srcs()[i]);
                asns.insert(table.src_asns()[i].0);
            }
        }
        assert!(srcs.len() > 50, "fleet too quiet for a meaningful check");
        let via_query = s.dataset.query().at(&ips).unique_src_and_asn();
        assert_eq!(via_query, (srcs.len(), asns.len()));
        // The Dataset wrapper is the same query.
        assert_eq!(s.dataset.unique_sources(&ips), via_query);
    });
}

#[test]
fn table7_char_freqs_match_hand_rolled() {
    scenario(|s| {
        let ips: Vec<Ipv4Addr> = s
            .deployment
            .vantages
            .iter()
            .filter(|v| v.id.starts_with("honeytrap/stanford"))
            .map(|v| v.ip)
            .collect();
        assert!(!ips.is_empty());
        for slice in [
            TrafficSlice::SshPort22,
            TrafficSlice::TelnetPort23,
            TrafficSlice::HttpAllPorts,
            TrafficSlice::AnyAll,
        ] {
            for kind in [CharKind::TopAs, CharKind::FracMalicious] {
                let events: Vec<_> = hand_rolled_indices(&s.dataset, &ips, slice)
                    .into_iter()
                    .map(|i| s.dataset.event(i))
                    .collect();
                let expected: BTreeMap<String, u64> = kind.freqs(&events);
                let got = s.dataset.query().at(&ips).slice(slice).char_freqs(kind);
                assert_eq!(got, expected, "{slice:?} {kind:?}");
            }
        }
        // Enumeration order itself (not just the order-insensitive folds).
        let order = hand_rolled_indices(&s.dataset, &ips, TrafficSlice::AnyAll);
        assert_eq!(
            s.dataset.query().at(&ips).indices(),
            order,
            "dst pushdown must enumerate per-IP in argument order"
        );
    });
}

#[test]
fn tables_8_and_9_port_source_sets_match_hand_rolled() {
    scenario(|s| {
        let ips = greynoise_ips(s);
        let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
        let table = s.dataset.table();
        let hand_rolled = |ports: &[u16], malicious: bool| {
            let mut sets: BTreeMap<u16, BTreeSet<Ipv4Addr>> =
                ports.iter().map(|&p| (p, BTreeSet::new())).collect();
            for i in 0..table.len() {
                if !fleet.contains(&table.dsts()[i]) {
                    continue;
                }
                if malicious && s.dataset.verdicts()[i] != Verdict::Attacker {
                    continue;
                }
                if let Some(set) = sets.get_mut(&table.dst_ports()[i]) {
                    set.insert(table.srcs()[i]);
                }
            }
            sets
        };
        let all = hand_rolled(&POPULAR_PORTS, false);
        let bad = hand_rolled(&POPULAR_PORTS, true);
        assert!(all.values().any(|v| !v.is_empty()));
        // The seeded grouped query, the Dataset wrapper, and the fused
        // plan set must all reproduce the hand-rolled sets.
        let grouped = s
            .dataset
            .query()
            .at(&ips)
            .group_by_port()
            .keys(&POPULAR_PORTS)
            .distinct_srcs();
        assert_eq!(grouped, all);
        assert_eq!(s.dataset.port_source_sets(&ips, &POPULAR_PORTS, false), all);
        assert_eq!(s.dataset.port_source_sets(&ips, &POPULAR_PORTS, true), bad);
        let mut set = PlanSet::over(&s.dataset);
        set.submit(Plan::at(&ips).grouped_by_port(&POPULAR_PORTS).distinct_srcs())
            .unwrap();
        set.submit(
            Plan::at(&ips)
                .malicious()
                .grouped_by_port(&POPULAR_PORTS)
                .distinct_srcs(),
        )
        .unwrap();
        let mut fused = set.execute().into_iter();
        assert_eq!(fused.next().unwrap().into_port_srcs(), all);
        assert_eq!(fused.next().unwrap().into_port_srcs(), bad);
    });
}

#[test]
fn ports_fingerprint_grouping_matches_hand_rolled() {
    scenario(|s| {
        let ips: Vec<Ipv4Addr> = s
            .deployment
            .vantages
            .iter()
            .filter(|v| {
                v.collector == CollectorKind::Honeytrap && v.kind
                    != cloud_watching::honeypot::deployment::NetworkKind::Education
            })
            .map(|v| v.ip)
            .collect();
        let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
        let table = s.dataset.table();
        let mut expected: BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for i in 0..table.len() {
            if !fleet.contains(&table.dsts()[i]) || table.dst_ports()[i] != 80 {
                continue;
            }
            if let Some(proto) = s.dataset.fingerprints()[i] {
                expected.entry(proto).or_default().insert(table.srcs()[i]);
            }
        }
        assert!(expected.contains_key(&ProtocolId::Http));
        let got = s
            .dataset
            .query()
            .at(&ips)
            .port(80)
            .group_by_fingerprint()
            .distinct_srcs();
        assert_eq!(got, expected);
    });
}

#[test]
fn leak_raw_queries_match_hand_rolled_capture_sweeps() {
    scenario(|s| {
        // The leak harness queries bare event tables before any dataset
        // exists; raw queries must reproduce the retired `events_on_port`
        // filter, in table order.
        let table = s.dataset.table();
        let mut checked = 0;
        for port in [22u16, 23, 80] {
            let expected: Vec<(Ipv4Addr, Ipv4Addr, u16)> = (0..table.len())
                .filter(|&i| table.dst_ports()[i] == port)
                .map(|i| (table.srcs()[i], table.dsts()[i], table.dst_ports()[i]))
                .collect();
            let got: Vec<(Ipv4Addr, Ipv4Addr, u16)> = Query::events(table)
                .port(port)
                .rows()
                .into_iter()
                .map(|e| (e.src, e.dst, e.dst_port))
                .collect();
            assert_eq!(got, expected, "port {port}");
            checked += expected.len();
        }
        assert!(checked > 0, "no traffic on 22/23/80");
    });
}

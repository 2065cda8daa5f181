//! Fusion-equivalence gate: executing declared plans through a fused
//! [`PlanStore`] must be byte-identical to running every plan alone, for
//! the ported analysis modules and for whole exhibit renders. Fusion is a
//! scheduling optimization — if it ever changes a result, these tests
//! fail before the golden manifest does.
//!
//! Process-wide scan counters are asserted on here, so every test grabs
//! `COUNTER_LOCK`: the tests in this binary share one process (and one
//! frozen-seed world) and must not scan concurrently.

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::{Dataset, TrafficSlice};
use cloud_watching::core::exhibit::{Exhibit, ExhibitCx, ExhibitOptions, REGISTRY};
use cloud_watching::core::query::{scan_counters, GroupKey, ObsKind, Terminal};
use cloud_watching::core::scenario::ScenarioConfig;
use cloud_watching::core::{
    geography, neighborhood, overlap, ports, Plan, PlanError, PlanResult, PlanSet, PlanStore,
    ScanExec, SimBundle,
};
use cloud_watching::honeypot::deployment::{CollectorKind, Deployment, NetworkKind};
use cloud_watching::protocols::iana::POPULAR_PORTS;
use cloud_watching::scanners::population::ScenarioYear;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Mutex, OnceLock};

/// One frozen-seed world shared by every test in this binary (the bundle
/// is `Send + Sync` by design, unlike the full `Scenario`).
fn bundles() -> &'static BTreeMap<u16, SimBundle> {
    static BUNDLES: OnceLock<BTreeMap<u16, SimBundle>> = OnceLock::new();
    BUNDLES.get_or_init(|| {
        let s = SimBundle::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(424_242));
        BTreeMap::from([(2021u16, s)])
    })
}

fn bundle() -> &'static SimBundle {
    &bundles()[&2021]
}

/// Serializes the tests of this binary: scan counters are process-wide.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn greynoise_ips(d: &Deployment) -> Vec<Ipv4Addr> {
    d.vantages
        .iter()
        .filter(|v| v.collector == CollectorKind::GreyNoise)
        .map(|v| v.ip)
        .collect()
}

fn edu_ips(d: &Deployment) -> Vec<Ipv4Addr> {
    d.vantages
        .iter()
        .filter(|v| v.kind == NetworkKind::Education)
        .map(|v| v.ip)
        .collect()
}

/// A pool plan's `Query`-builder twin. The builder's B-tree terminals are
/// a separate implementation of every plan aggregate, so comparing the two
/// catches a bug in the fused kernel that a fused-vs-standalone comparison
/// (the same kernel on both sides) would miss. Arguments: the dataset, the
/// GreyNoise vantages, the education vantages.
type Twin = fn(&Dataset, &[Ipv4Addr], &[Ipv4Addr]) -> PlanResult;

fn twin(plan: Plan, twin: Twin) -> (Plan, Twin) {
    (plan, twin)
}

/// A structurally diverse plan pool, each plan beside its twin: every
/// terminal, both group keys, overlapping and distinct destination
/// domains, stacked predicates, and whole-table distinct-source scans.
fn pool_with_twins() -> Vec<(Plan, Twin)> {
    use PlanResult as R;
    let d = Deployment::standard();
    let g = &greynoise_ips(&d);
    let e = &edu_ips(&d);
    let (telnet, ssh) = (TrafficSlice::TelnetPort23, TrafficSlice::SshPort22);
    vec![
        twin(Plan::scan().count(), |ds, _, _| {
            R::Count(ds.query().count())
        }),
        twin(Plan::scan().kind(ObsKind::Syn).count(), |ds, _, _| {
            R::Count(ds.query().kind(ObsKind::Syn).count())
        }),
        twin(Plan::at(g).count(), |ds, g, _| {
            R::Count(ds.query().at(g).count())
        }),
        twin(Plan::at(g).malicious().count(), |ds, g, _| {
            R::Count(ds.query().at(g).malicious().count())
        }),
        twin(Plan::at(g).port(23).distinct_srcs(), |ds, g, _| {
            R::DistinctSrcs(ds.query().at(g).port(23).distinct_srcs())
        }),
        twin(Plan::at(g).port_in(&[22, 23, 80]).rows(), |ds, g, _| {
            R::Rows(ds.query().at(g).port_in(&[22, 23, 80]).indices())
        }),
        twin(Plan::at(g).unique_src_and_asn(), |ds, g, _| {
            let (srcs, asns) = ds.query().at(g).unique_src_and_asn();
            R::UniqueSrcAndAsn(srcs, asns)
        }),
        twin(
            Plan::at(g).grouped_by_port(&POPULAR_PORTS).distinct_srcs(),
            |ds, g, _| {
                R::PortSrcs(
                    ds.query()
                        .at(g)
                        .group_by_port()
                        .keys(&POPULAR_PORTS)
                        .distinct_srcs(),
                )
            },
        ),
        twin(
            Plan::at(g)
                .malicious()
                .grouped_by_port(&[80, 8080])
                .distinct_srcs(),
            |ds, g, _| {
                R::PortSrcs(
                    ds.query()
                        .at(g)
                        .malicious()
                        .group_by_port()
                        .keys(&[80, 8080])
                        .distinct_srcs(),
                )
            },
        ),
        twin(
            Plan::at(g).slice(telnet).char_freqs(CharKind::TopPassword),
            |ds, g, _| {
                let q = ds.query().at(g).slice(TrafficSlice::TelnetPort23);
                R::CharFreqs(q.char_freqs(CharKind::TopPassword))
            },
        ),
        twin(
            Plan::at(e).slice(ssh).char_freqs(CharKind::TopAs),
            |ds, _, e| {
                let q = ds.query().at(e).slice(TrafficSlice::SshPort22);
                R::CharFreqs(q.char_freqs(CharKind::TopAs))
            },
        ),
        twin(Plan::at(e).fingerprinted().count(), |ds, _, e| {
            R::Count(ds.query().at(e).fingerprinted().count())
        }),
        twin(
            Plan::at(e)
                .port(80)
                .grouped_by_fingerprint()
                .distinct_srcs(),
            |ds, _, e| {
                R::FingerprintSrcs(
                    ds.query()
                        .at(e)
                        .port(80)
                        .group_by_fingerprint()
                        .distinct_srcs(),
                )
            },
        ),
        twin(
            Plan::at(e).not_kind(ObsKind::Syn).classified(),
            |ds, _, e| R::Rows(ds.query().at(e).not_kind(ObsKind::Syn).indices()),
        ),
        twin(Plan::scan().unique_src_and_asn(), |ds, _, _| {
            let (srcs, asns) = ds.query().unique_src_and_asn();
            R::UniqueSrcAndAsn(srcs, asns)
        }),
        twin(Plan::scan().malicious().distinct_srcs(), |ds, _, _| {
            R::DistinctSrcs(ds.query().malicious().distinct_srcs())
        }),
        twin(
            Plan::scan().grouped_by_fingerprint().distinct_srcs(),
            |ds, _, _| R::FingerprintSrcs(ds.query().group_by_fingerprint().distinct_srcs()),
        ),
    ]
}

fn plan_pool() -> Vec<Plan> {
    pool_with_twins()
        .into_iter()
        .map(|(plan, _)| plan)
        .collect()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Any subset of the pool, in any order, with duplicates: the fused
    /// `PlanSet` must return exactly what each plan returns standalone,
    /// in submission order, while costing no more passes than plans.
    #[test]
    fn fused_plan_sets_match_standalone_execution(
        picks in proptest::collection::vec(0usize..17, 1..12),
    ) {
        let _g = counter_lock();
        let s = bundle();
        let pool = plan_pool();
        let alone = ScanExec::unplanned(&s.dataset);
        let mut set = PlanSet::over(&s.dataset);
        for &i in &picks {
            set.submit(pool[i].clone()).expect("pool plans validate");
        }
        let before = scan_counters();
        let fused = set.execute();
        let delta = scan_counters().since(before);
        prop_assert_eq!(fused.len(), picks.len());
        prop_assert!(delta.fused <= picks.len() as u64);
        for (k, &i) in picks.iter().enumerate() {
            prop_assert_eq!(&fused[k], &alone.run(&pool[i]));
        }
    }
}

#[test]
fn submission_order_permutes_results_and_nothing_else() {
    let _g = counter_lock();
    let s = bundle();
    let pool = plan_pool();
    let forward: Vec<_> = {
        let mut set = PlanSet::over(&s.dataset);
        for p in &pool {
            set.submit(p.clone()).unwrap();
        }
        set.execute()
    };
    let reversed: Vec<_> = {
        let mut set = PlanSet::over(&s.dataset);
        for p in pool.iter().rev() {
            set.submit(p.clone()).unwrap();
        }
        set.execute()
    };
    assert_eq!(forward.len(), reversed.len());
    for (i, r) in reversed.iter().rev().enumerate() {
        assert_eq!(&forward[i], r, "plan {i} changed under reversed submission");
    }
}

/// Every pool plan, fused into one set, against its `Query`-builder twin.
#[test]
fn every_plan_result_matches_its_query_builder_twin() {
    let _g = counter_lock();
    let s = bundle();
    let d = Deployment::standard();
    let (g, e) = (greynoise_ips(&d), edu_ips(&d));
    let pool = pool_with_twins();
    let mut set = PlanSet::over(&s.dataset);
    for (plan, _) in &pool {
        set.submit(plan.clone()).unwrap();
    }
    let results = set.execute();
    assert_eq!(results.len(), pool.len());
    for (k, (result, (_, twin))) in results.iter().zip(&pool).enumerate() {
        assert_eq!(result, &twin(&s.dataset, &g, &e), "pool plan {k}");
    }
}

/// The passes of one set run on every core; the results, their order and
/// the scan counters must not depend on how many workers claimed them.
#[test]
fn results_do_not_depend_on_the_worker_count() {
    let _g = counter_lock();
    let s = bundle();
    let run = |workers: usize| {
        let mut set = PlanSet::over(&s.dataset);
        for plan in plan_pool() {
            set.submit(plan).unwrap();
        }
        let before = scan_counters();
        let results = set.execute_on(workers);
        (results, scan_counters().since(before))
    };
    let (one, one_counters) = run(1);
    for workers in [2, 4] {
        let (many, counters) = run(workers);
        assert_eq!(many, one, "{workers} workers");
        assert_eq!(counters, one_counters, "{workers} workers");
    }
}

/// Every ported module product — Tables 2, 4, 5, 8+9, 11, §3.2 — computed
/// through one fused registry-style store vs. plan-at-a-time execution.
#[test]
fn ported_products_match_unplanned_execution() {
    let _g = counter_lock();
    let s = bundle();
    let d = Deployment::standard();
    let cells = [
        (TrafficSlice::SshPort22, CharKind::TopAs),
        (TrafficSlice::HttpAllPorts, CharKind::TopPayload),
    ];
    let mut plans = Vec::new();
    plans.extend(neighborhood::table2_plans(&d));
    plans.extend(geography::table4_plans(&d));
    for &(slice, kind) in &cells {
        plans.extend(geography::table5_plans(&d, slice, kind));
    }
    plans.extend(overlap::table8_and_9_plans(&d));
    plans.extend(ports::protocol_breakdown_plans(&d, 80));
    plans.extend(ports::protocol_breakdown_plans(&d, 8080));
    plans.extend(ports::composition_stats_plans(&d));

    let store = PlanStore::build(&s.dataset, &plans).unwrap();
    assert!(
        store.passes() < store.plans(),
        "registry-style plan mix must actually fuse ({} plans, {} passes)",
        store.plans(),
        store.passes()
    );
    let fused = ScanExec::with_store(&s.dataset, &store);
    let alone = ScanExec::unplanned(&s.dataset);

    // Row types are Debug-but-not-PartialEq; their debug form carries
    // every field, which is exactly the equality the renders consume.
    assert_eq!(
        format!("{:?}", neighborhood::table2_with(&fused, &d)),
        format!("{:?}", neighborhood::table2_with(&alone, &d)),
    );
    assert_eq!(
        format!("{:?}", geography::table4_with(&fused, &d)),
        format!("{:?}", geography::table4_with(&alone, &d)),
    );
    for &(slice, kind) in &cells {
        assert_eq!(
            format!("{:?}", geography::table5_with(&fused, &d, slice, kind)),
            format!("{:?}", geography::table5_with(&alone, &d, slice, kind)),
            "table5 {slice:?} {kind:?}"
        );
    }
    assert_eq!(
        format!("{:?}", overlap::table8_and_9_with(&fused, &d, &s.telescope)),
        format!("{:?}", overlap::table8_and_9_with(&alone, &d, &s.telescope)),
    );
    for port in [80u16, 8080] {
        assert_eq!(
            format!(
                "{:?}",
                ports::protocol_breakdown_with(&fused, &d, &s.reputation, port)
            ),
            format!(
                "{:?}",
                ports::protocol_breakdown_with(&alone, &d, &s.reputation, port)
            ),
            "breakdown port {port}"
        );
    }
    assert_eq!(
        format!("{:?}", ports::composition_stats_with(&fused, &d)),
        format!("{:?}", ports::composition_stats_with(&alone, &d)),
    );
}

/// Rendering through a prefetched context must produce the same bytes as
/// the legacy on-demand path while costing strictly fewer column passes.
#[test]
fn prefetched_registry_renders_are_byte_identical() {
    let _g = counter_lock();
    let worlds = bundles();
    let opts = ExhibitOptions::default();
    // Every exhibit satisfied by the one 2021 world (the multi-year and
    // leak exhibits need worlds this gate does not simulate).
    let singles: Vec<&dyn Exhibit> = REGISTRY
        .iter()
        .copied()
        .filter(|e| {
            !e.needs().is_empty() && e.needs().iter().all(|n| n.resolve(&opts).year() == 2021)
        })
        .collect();
    assert!(
        singles.len() >= 15,
        "expected most of the registry, got {}",
        singles.len()
    );

    let c0 = scan_counters();
    let plain_cx = ExhibitCx::new(opts, worlds);
    let plain: Vec<String> = singles.iter().map(|e| e.run(&plain_cx)).collect();
    let unfused = scan_counters().since(c0);

    let c1 = scan_counters();
    let mut cx = ExhibitCx::new(opts, worlds);
    let stats = cx.prefetch(&singles);
    assert_eq!(stats.len(), 1, "one bundle, one prefetched store");
    assert!(
        stats[0].passes < stats[0].plans,
        "prefetch must fuse: {stats:?}"
    );
    let rendered: Vec<String> = singles.iter().map(|e| e.run(&cx)).collect();
    let fused = scan_counters().since(c1);

    for (i, e) in singles.iter().enumerate() {
        assert_eq!(plain[i], rendered[i], "{} changed under prefetch", e.name());
    }
    assert!(
        fused.fused < unfused.fused,
        "prefetched renders must cost fewer passes (fused {} vs unfused {})",
        fused.fused,
        unfused.fused
    );
}

#[test]
fn grouped_plans_reject_unsupported_terminals_with_typed_errors() {
    let _g = counter_lock();
    let s = bundle();
    let ips = [Ipv4Addr::new(20, 10, 0, 0)];
    // Grouped plans support DistinctSrcs only; everything else is a typed
    // error at validation/submission, never a scan-time panic.
    let bad = [
        Plan::at(&ips).grouped_by_port(&[22]).count(),
        Plan::at(&ips).grouped_by_port(&[22]).rows(),
        Plan::at(&ips).grouped_by_port(&[22]).unique_src_and_asn(),
        Plan::at(&ips)
            .grouped_by_fingerprint()
            .char_freqs(CharKind::TopAs),
        Plan::at(&ips).grouped_by_fingerprint().classified(),
    ];
    for plan in &bad {
        let err = plan.validate().unwrap_err();
        let PlanError::Unsupported {
            ref group,
            terminal,
        } = err;
        assert!(!matches!(group, GroupKey::None));
        assert!(!matches!(terminal, Terminal::DistinctSrcs));
        assert!(err.to_string().contains("unsupported plan"), "{err}");
        // All three execution doors reject identically.
        assert_eq!(
            PlanSet::over(&s.dataset).submit(plan.clone()).unwrap_err(),
            err
        );
        assert_eq!(
            PlanStore::build(&s.dataset, std::slice::from_ref(plan)).unwrap_err(),
            err
        );
    }
    // The supported grouped shape and all ungrouped terminals validate.
    Plan::at(&ips)
        .grouped_by_port(&[22])
        .distinct_srcs()
        .validate()
        .unwrap();
    Plan::at(&ips)
        .grouped_by_fingerprint()
        .distinct_srcs()
        .validate()
        .unwrap();
    Plan::at(&ips)
        .char_freqs(CharKind::TopAs)
        .validate()
        .unwrap();
    Plan::scan().count().validate().unwrap();
}

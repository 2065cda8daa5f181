//! Reproducibility: identical configurations must yield bit-identical
//! analyses — the property that makes the published EXPERIMENTS.md values
//! regenerable anywhere.

use cloud_watching::core::bundle::SimBundle;
use cloud_watching::core::dataset::Dataset;
use cloud_watching::core::exhibit::{ExhibitCx, ExhibitOptions, REGISTRY};
use cloud_watching::core::fleet;
use cloud_watching::core::neighborhood;
use cloud_watching::core::scenario::{
    Scenario, ScenarioConfig, StreamStats, DEFAULT_SEED, DEFAULT_WINDOW,
};
use cloud_watching::honeypot::capture::Capture;
use cloud_watching::honeypot::deployment::Deployment;
use cloud_watching::netsim::engine::Engine;
use cloud_watching::netsim::fault::{domain_salt, FaultDomain, FaultPlan};
use cloud_watching::netsim::rng::{fork_seed, SimRng};
use cloud_watching::netsim::snap::SnapWriter;
use cloud_watching::netsim::time::{SimDuration, SimTime};
use cloud_watching::scanners::population::{self, PopulationConfig, ScenarioYear};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The full snapshot wire image of a bundle: events, verdicts,
/// fingerprints, interner id order, telescope counters, index sizes and
/// run stats in one byte string — equality here is the strongest
/// equivalence the pipeline can state.
fn bundle_bytes(b: &SimBundle) -> Vec<u8> {
    let mut w = SnapWriter::new();
    b.snap_write(&mut w);
    w.into_bytes()
}

/// The independent reference every run is compared against: one engine
/// registering every actor, run to the horizon in a single call, with the
/// dataset built from the complete captures. Assembled here from public
/// APIs only, so it shares none of the library's shard workers, windows or
/// merge.
fn reference_run(config: ScenarioConfig) -> Scenario {
    let deployment = Deployment::standard();
    deployment.apply_faults(&config.fault, config.seed, config.horizon);
    let mut engine = Engine::new();
    engine.set_flow_loss(
        config.fault.flow_loss,
        domain_salt(config.seed, FaultDomain::FlowLoss),
    );
    deployment.register(&mut engine);
    let pop = population::build(
        &PopulationConfig {
            year: config.year,
            seed: config.seed,
            scale: config.scale,
        },
        &deployment,
    );
    let handles = pop.register(&mut engine);
    let stats = engine.run(SimTime::ZERO + config.horizon);
    let captures: Vec<_> = deployment
        .honeypots
        .iter()
        .map(|h| h.borrow().capture())
        .collect();
    let borrows: Vec<_> = captures.iter().map(|c| c.borrow()).collect();
    let refs: Vec<&Capture> = borrows.iter().map(|b| &**b).collect();
    let dataset = Dataset::from_captures(&refs, &deployment);
    drop(borrows);
    let telescope = deployment.telescope.clone();
    Scenario {
        config,
        deployment,
        dataset,
        telescope,
        handles,
        stats,
        shard_busy_secs: Vec::new(),
        stream: None,
    }
}

fn run(seed: u64) -> Scenario {
    Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.03),
    )
}

#[test]
fn same_seed_same_world() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.dataset.len(), b.dataset.len());
    // Event streams identical, not just counts.
    for (ea, eb) in a.dataset.events().zip(b.dataset.events()) {
        assert_eq!(ea.event, eb.event);
        assert_eq!(ea.verdict, eb.verdict);
    }
    // Telescope counters identical.
    let ta = a.telescope.borrow();
    let tb = b.telescope.borrow();
    assert_eq!(ta.total_packets(), tb.total_packets());
    assert_eq!(
        ta.unique_scanners_per_ip(22).unwrap(),
        tb.unique_scanners_per_ip(22).unwrap()
    );
}

#[test]
fn same_seed_same_tables() {
    let a = run(7);
    let b = run(7);
    let ra = neighborhood::table2(&a.dataset, &a.deployment);
    let rb = neighborhood::table2(&b.dataset, &b.deployment);
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.n, y.n);
        assert_eq!(x.pct_different, y.pct_different);
        assert_eq!(x.avg_phi, y.avg_phi);
    }
}

#[test]
fn different_seeds_different_worlds() {
    let a = run(1);
    let b = run(2);
    assert_ne!(
        a.dataset.len(),
        b.dataset.len(),
        "different seeds should perturb the event count"
    );
}

/// Partitioning one scenario's actors into K engine shards and merging
/// must reproduce the one-engine reference run byte-for-byte — same events
/// (including interned payload/credential ids), same verdicts, same
/// telescope counters, same index sizes.
#[test]
fn sharded_run_is_byte_identical_to_unsharded() {
    let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.03);
    let a = reference_run(base);
    for shards in [1, 3, 8] {
        let b = Scenario::run(base.with_shards(shards));
        assert_eq!(a.stats, b.stats, "shards={shards}");
        assert_eq!(a.dataset.len(), b.dataset.len(), "shards={shards}");
        for (ea, eb) in a.dataset.events().zip(b.dataset.events()) {
            // ScanEvent equality covers interner reconstruction too:
            // payload/credential ids must match, not just values.
            assert_eq!(ea.event, eb.event, "shards={shards}");
            assert_eq!(ea.verdict, eb.verdict, "shards={shards}");
        }
        let ta = a.telescope.borrow();
        let tb = b.telescope.borrow();
        assert_eq!(ta.total_packets(), tb.total_packets(), "shards={shards}");
        assert_eq!(
            ta.unique_scanners_per_ip(22).unwrap(),
            tb.unique_scanners_per_ip(22).unwrap(),
            "shards={shards}"
        );
        assert_eq!(
            a.handles.censys.borrow().len(),
            b.handles.censys.borrow().len(),
            "shards={shards}"
        );
        assert_eq!(
            a.handles.shodan.borrow().len(),
            b.handles.shodan.borrow().len(),
            "shards={shards}"
        );
    }
}

/// The streaming-build contract: chunking the engine run into time
/// windows and merging each window's capture incrementally must reproduce
/// the one-shot reference build byte-for-byte — for any window size
/// ({one window, small, default}) and shard count ({1, 3}).
#[test]
fn streaming_build_byte_identical_across_window_and_shard_matrix() {
    let base = ScenarioConfig::fast(ScenarioYear::Y2021)
        .with_seed(42)
        .with_scale(0.02);
    let reference = bundle_bytes(&reference_run(base).into_bundle());
    let windows = [
        ("one-window", SimDuration::WEEK),
        ("small", SimDuration::HOUR),
        ("default", DEFAULT_WINDOW),
    ];
    for shards in [1usize, 3] {
        for (label, window) in windows {
            let s = Scenario::run_with_window(base.with_shards(shards), window);
            let stream = s.stream.expect("streaming run records stream stats");
            let bytes = bundle_bytes(&s.into_bundle());
            assert_eq!(
                reference, bytes,
                "streaming drifted at shards={shards} window={label}"
            );
            if window == SimDuration::WEEK {
                assert_eq!(stream.windows, 1, "whole horizon is one window");
            } else {
                assert!(stream.windows > 1, "window {label} should chunk the run");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form: *any* window size in [1s, one week] is observably a
    /// no-op, at one shard and at several.
    #[test]
    fn streaming_window_size_is_observably_a_noop(
        window_secs in 1u64..=604_800,
        shards in prop::sample::select(vec![1usize, 3]),
        seed in any::<u64>(),
    ) {
        let base = ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.01)
            .with_shards(shards);
        let reference = bundle_bytes(&reference_run(base).into_bundle());
        let s = Scenario::run_with_window(base, SimDuration::from_secs(window_secs));
        let streamed = bundle_bytes(&s.into_bundle());
        prop_assert!(
            reference == streamed,
            "streaming drifted at window={window_secs}s shards={shards}"
        );
    }
}

/// Render every registered exhibit from fast bundles of all three years,
/// simulating each year's world with `runner`.
fn render_all_with(
    shards: usize,
    threads: usize,
    runner: fn(ScenarioConfig) -> SimBundle,
) -> BTreeMap<&'static str, String> {
    let opts = ExhibitOptions {
        scale: 0.02,
        seed: DEFAULT_SEED,
        year: None,
        shards,
        fault: FaultPlan::none(),
    };
    let years = [ScenarioYear::Y2020, ScenarioYear::Y2021, ScenarioYear::Y2022];
    let configs: Vec<ScenarioConfig> = years
        .iter()
        .map(|&y| {
            ScenarioConfig::fast(y)
                .with_scale(opts.scale)
                .with_shards(shards)
        })
        .collect();
    let bundles: BTreeMap<u16, SimBundle> = fleet::map(configs, threads, |_, c| runner(*c))
        .into_iter()
        .map(|b| (b.config.year.year(), b))
        .collect();
    let cx = ExhibitCx::new(opts, &bundles);
    REGISTRY.iter().map(|e| (e.name(), e.run(&cx))).collect()
}

/// Render every registered exhibit from fast bundles of all three years
/// (the default, streaming, simulation path).
fn render_all(shards: usize, threads: usize) -> BTreeMap<&'static str, String> {
    render_all_with(shards, threads, SimBundle::run)
}

/// All 25 exhibits render the exact same bytes whether the worlds behind
/// them were streamed in day windows or built by the one-shot reference.
#[test]
fn exhibits_byte_identical_streaming_vs_materialized() {
    let materialized = render_all_with(1, 1, |c| reference_run(c).into_bundle());
    assert_eq!(materialized.len(), REGISTRY.len());
    let streamed = render_all_with(1, 1, |c| {
        Scenario::run_with_window(c, SimDuration::DAY).into_bundle()
    });
    for (name, text) in &materialized {
        assert_eq!(
            text, &streamed[name],
            "exhibit {name} drifted between materialized and streaming builds"
        );
    }
}

/// K = 1 is one shard worker feeding the same windowed merge as any K: a
/// one-week run reports one busy figure and the default 28 windows.
#[test]
fn one_shard_run_reports_one_worker_and_default_windows() {
    let s = Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_scale(0.01)
            .with_shards(1),
    );
    assert_eq!(s.config.horizon, SimDuration::WEEK);
    assert_eq!(s.shard_busy_secs.len(), 1);
    assert!(
        matches!(s.stream, Some(StreamStats { windows: 28, .. })),
        "{:?}",
        s.stream
    );
}

/// All 25 exhibits render the exact same bytes whatever the shard count
/// and whatever the fleet worker-thread count — the user-facing face of
/// the byte-identical merge contract.
#[test]
fn exhibits_byte_identical_across_shard_and_thread_matrix() {
    let baseline = render_all(1, 1);
    assert_eq!(baseline.len(), REGISTRY.len());
    for (shards, threads) in [(1, 8), (3, 1), (3, 8), (8, 1), (8, 8)] {
        let rendered = render_all(shards, threads);
        for (name, text) in &baseline {
            assert_eq!(
                text, &rendered[name],
                "exhibit {name} drifted at shards={shards} threads={threads}"
            );
        }
    }
}

/// The fault-injection contract: a fixed non-trivial [`FaultPlan`] is part
/// of world identity, and the degraded world is *itself* byte-identical
/// across the whole shard × thread matrix — fault schedules are pure
/// functions of the seed, never of execution layout.
#[test]
fn faulted_world_is_byte_identical_across_shard_and_thread_matrix() {
    let plan = FaultPlan {
        flow_loss: 0.15,
        outage: 0.10,
        outage_windows: 2,
        truncation: 0.30,
        truncate_to: 32,
        telescope_sample: 2,
    };
    let base = ScenarioConfig::fast(ScenarioYear::Y2021)
        .with_scale(0.03)
        .with_fault(plan);
    let configs: Vec<ScenarioConfig> = [1usize, 3, 8].iter().map(|&k| base.with_shards(k)).collect();
    let mut batches = Vec::new();
    for threads in [1usize, 8] {
        batches.push((
            threads,
            fleet::map(configs.clone(), threads, |_, c| SimBundle::run(*c)),
        ));
    }
    let baseline = &batches[0].1[0];
    assert!(
        baseline.stats.flows_lost > 0,
        "a 15% loss plan must actually drop flows"
    );
    assert!(!baseline.dataset.is_empty(), "the degraded world still records");
    for (threads, batch) in &batches {
        for (i, b) in batch.iter().enumerate() {
            let ctx = format!("shards={} threads={}", [1, 3, 8][i], threads);
            assert_eq!(baseline.stats, b.stats, "{ctx}");
            assert_eq!(baseline.dataset.len(), b.dataset.len(), "{ctx}");
            for (ea, eb) in baseline.dataset.events().zip(b.dataset.events()) {
                assert_eq!(ea.event, eb.event, "{ctx}");
                assert_eq!(ea.verdict, eb.verdict, "{ctx}");
            }
            assert_eq!(
                baseline.telescope.total_packets(),
                b.telescope.total_packets(),
                "{ctx}"
            );
            assert_eq!(baseline.censys_indexed, b.censys_indexed, "{ctx}");
            assert_eq!(baseline.shodan_indexed, b.shodan_indexed, "{ctx}");
        }
    }
}

/// The fleet determinism contract on real scenario runs: replicate fleets
/// merged at thread counts 1, 2 and 8 are event-for-event identical.
#[test]
fn fleet_replicates_invariant_under_thread_count() {
    let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.01);
    let baseline = fleet::run_replicates(base, 3, 1);
    for threads in [2, 8] {
        let merged = fleet::run_replicates(base, 3, threads);
        assert_eq!(baseline.seeds, merged.seeds);
        assert_eq!(baseline.stats, merged.stats, "threads={threads}");
        assert_eq!(
            baseline.dataset.len(),
            merged.dataset.len(),
            "threads={threads}"
        );
        for (a, b) in baseline.dataset.events().zip(merged.dataset.events()) {
            assert_eq!(a.event, b.event);
            assert_eq!(a.verdict, b.verdict);
        }
    }
}

/// Shard assignment is a pure function of (seed, actor id): the key never
/// sees the shard count, so growing K from 1 to 8 only re-buckets the same
/// fixed keys — it cannot reshuffle any actor's RNG stream.
#[test]
fn shard_assignment_is_pure_in_seed_and_actor_id() {
    for seed in [0u64, 42, DEFAULT_SEED] {
        for id in [0u32, 1, 7, 1000] {
            let key = population::shard_key(seed, id);
            assert_eq!(key, fork_seed(seed, id as u64));
            for k in 1..=8 {
                assert_eq!(
                    population::shard_of(seed, id, k),
                    (key % k as u64) as usize,
                    "shard_of must be shard_key reduced mod K, nothing else"
                );
            }
        }
    }
    // K = 0 is tolerated as "one shard" rather than a divide-by-zero.
    assert_eq!(population::shard_of(1, 2, 0), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form of the purity contract: for any (seed, actor, K) the
    /// assignment is the K-independent key reduced mod K.
    #[test]
    fn shard_key_is_independent_of_shard_count(
        seed in any::<u64>(),
        id in any::<u32>(),
        k in 1usize..64,
    ) {
        let key = population::shard_key(seed, id);
        prop_assert_eq!(key, fork_seed(seed, id as u64));
        prop_assert_eq!(population::shard_of(seed, id, k), (key % k as u64) as usize);
        prop_assert!(population::shard_of(seed, id, k) < k);
    }

    /// Fleet results are a pure function of the input list: invariant
    /// under worker-thread count (1, 2, 8) and under any permutation of
    /// the shard inputs (permuting specs and un-permuting results gives
    /// the serial baseline back).
    #[test]
    fn fleet_map_invariant_under_threads_and_permutation(
        master in any::<u64>(),
        n in 1usize..24,
        threads in prop::sample::select(vec![1usize, 2, 8]),
        perm_seed in any::<u64>(),
    ) {
        // Each job consumes its own forked RNG stream — a miniature
        // scenario run (seed-split, state-free, deterministic).
        let specs: Vec<u64> = (0..n as u64).map(|i| fork_seed(master, i)).collect();
        let job = |i: usize, spec: &u64| {
            let mut rng = SimRng::seed_from_u64(*spec);
            let mut acc = i as u64;
            for _ in 0..64 {
                acc = acc.wrapping_mul(3).wrapping_add(rng.next_u64());
            }
            acc
        };
        let baseline = fleet::map(specs.clone(), 1, job);
        prop_assert_eq!(&baseline, &fleet::map(specs.clone(), threads, job));

        let mut order: Vec<usize> = (0..n).collect();
        SimRng::seed_from_u64(perm_seed).shuffle(&mut order);
        let permuted: Vec<u64> = order.iter().map(|&i| specs[i]).collect();
        // The job only sees its spec, not its position, in this variant.
        let permuted_out = fleet::map(permuted, threads, |_, spec| job(0, spec));
        let positional: Vec<u64> = specs.iter().map(|s| job(0, s)).collect();
        let mut unpermuted = vec![0u64; n];
        for (k, &i) in order.iter().enumerate() {
            unpermuted[i] = permuted_out[k];
        }
        prop_assert_eq!(positional, unpermuted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The none-plan gate: any all-zero-rate plan (whatever its shape
    /// knobs say) is `is_none`, takes the legacy fault-free code path, and
    /// produces a world byte-identical to a config that never mentioned
    /// faults at all.
    #[test]
    fn zero_rate_fault_plan_is_byte_identical_to_no_plan(
        seed in any::<u64>(),
        windows in 1u32..5,
        keep in prop::sample::select(vec![0u32, 16, 64, 1024]),
    ) {
        let zero = FaultPlan {
            flow_loss: 0.0,
            outage: 0.0,
            outage_windows: windows,
            truncation: 0.0,
            truncate_to: keep,
            telescope_sample: 1,
        };
        prop_assert!(zero.is_none());
        let base = ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.01);
        let a = Scenario::run(base);
        let b = Scenario::run(base.with_fault(zero));
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.stats.flows_lost, 0);
        prop_assert_eq!(a.dataset.len(), b.dataset.len());
        for (ea, eb) in a.dataset.events().zip(b.dataset.events()) {
            prop_assert_eq!(&ea.event, &eb.event);
            prop_assert_eq!(ea.verdict, eb.verdict);
        }
        prop_assert_eq!(
            a.telescope.borrow().total_packets(),
            b.telescope.borrow().total_packets()
        );
    }
}

//! End-to-end scenario benchmark: machine-readable perf trajectory.
//!
//! Runs the 2021 scenario at one shard (`scenario_wall_secs`), times the
//! classification+dataset-build phase alone on its dataset
//! (`dataset_build_secs`), and writes `BENCH_scenario.json` into the
//! current directory so successive PRs can record before/after numbers.
//! The same world is then re-run at several shards (`shards` /
//! `sharded_scenario_wall_secs` / `shard_busy_secs`, with that run's
//! `stream_windows` / `peak_window_rows` / a modeled
//! `peak_resident_estimate`), gated on event-count invariants against the
//! one-shard run — the bench fails before reporting timings if the two
//! worlds disagree. Fleet wall time is measured at requested
//! thread counts 1 and 8 (`run_replicates_timed`, so the thread axis
//! exercises the merge path too), with per-worker wall clocks and the
//! machine's hardware parallelism recorded alongside — each fleet entry
//! carries `requested_threads` so a `workers` count capped at the hardware
//! is explained rather than silent. The snapshot-cache round trip
//! (`snapshot_write_secs` / `snapshot_read_secs`) and a fully warm
//! all-exhibits render (`all_cached_wall_secs` — every world served from
//! `out/.cache`) are timed too, so the simulate-once speedup is recorded
//! next to the simulation cost it replaces; the warm render runs twice,
//! once without plan prefetching and once with it, and the scan counters
//! of each pass land as `unfused_scans` / `fused_scans` (with
//! `fused_rows_per_sec` over the fused pass) so the registry-wide scan
//! fusion is a measured number, not a claim. The `bench_query` phase times
//! the query layer's fused scan (the Tables 8+9 [`cw_core::PlanSet`])
//! against hand-rolled independent sweeps producing identical sets,
//! recording both as `query_rows_per_sec` / `handrolled_rows_per_sec`. A
//! final `sweep` phase runs the `cw sweep` driver cold and warm over a
//! tiny 2-cell grid against a private cache, asserting the simulate-once
//! contract (cold simulations == distinct cells, warm == 0, byte-identical
//! reports) before recording the walls.

use cw_bench::{parse_args, phase1b_shards, run_config};
use cw_core::dataset::DatasetBuilder;
use cw_core::exhibit::{self, ExhibitCx, ExhibitOptions};
use cw_core::fleet;
use cw_core::overlap::{cloud_ips, edu_ips, TABLE9_PORTS};
use cw_core::scenario::{Scenario, ScenarioConfig};
use cw_core::{snapshot, Plan, PlanSet, SimBundle};
use cw_detection::Verdict;
use cw_honeypot::deployment::Deployment;
use cw_netsim::intern::Remap;
use cw_protocols::iana::POPULAR_PORTS;
use cw_scanners::population::ScenarioYear;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Repetitions of the dataset-build phase (the min is reported).
const BUILD_REPS: usize = 5;

/// Repetitions of the query-vs-hand-rolled microbenchmark.
const QUERY_REPS: usize = 5;

fn main() {
    let opts = parse_args();
    let year = opts.year.unwrap_or(ScenarioYear::Y2021);
    let config = ScenarioConfig::paper(year)
        .with_seed(opts.seed)
        .with_scale(opts.scale);

    let hardware_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // Phase 1: one full scenario at one shard (engine + merge + dataset
    // build), so `scenario_wall_secs` measures the same single-worker
    // run on every machine.
    eprintln!(
        "[cw] running {} scenario (scale {}, seed {:#x}, 1 shard) ...",
        config.year.year(),
        config.scale,
        config.seed
    );
    let t0 = Instant::now();
    let s = Scenario::run(config.with_shards(1));
    let scenario_secs = t0.elapsed().as_secs_f64();
    let events = s.dataset.len() as u64;

    // Phase 1b: the same world at `n_shards` shards. `--shards`/
    // `CW_SHARDS` is honored; auto picks at least 2 on multi-core machines
    // so the merge machinery is always exercised, but resolves to one
    // shard on a 1-thread machine, where forced sharding only measures
    // merge overhead (see `phase1b_shards`). The event-count invariants
    // gate the run: if the sharded world disagrees with the one-shard
    // world, fail loudly before any timing is reported. The window stats
    // are reported next to a modeled peak-resident estimate: the finished
    // dataset plus at most one window of undrained capture rows per
    // shard, which is the buffering the streaming build is allowed.
    let n_shards = phase1b_shards(fleet::resolve_shards(opts.shards), hardware_threads);
    let t = Instant::now();
    let sh = run_config(config.with_shards(n_shards));
    let sharded_scenario_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        sh.dataset.len() as u64,
        events,
        "sharded run changed the event count"
    );
    assert_eq!(sh.stats, s.stats, "sharded run changed the engine counters");
    assert_eq!(
        sh.telescope.borrow().total_packets(),
        s.telescope.borrow().total_packets(),
        "sharded run changed the telescope packet count"
    );
    let shard_busy = sh.shard_busy_secs.clone();
    let stream = sh.stream.expect("every run records window stats");
    // Modeled bytes per event row across the SoA columns (time, src, ASN,
    // dst, port, observation tag + interned id).
    const ROW_BYTES: u64 = 34;
    let peak_resident_estimate =
        (events + stream.peak_window_rows as u64) * ROW_BYTES;
    eprintln!(
        "[bench] scenario @ {n_shards} shard(s): {:.2}s (1 shard {:.2}s) [{}]; \
         {} windows, peak window {} rows, modeled peak resident {} bytes",
        sharded_scenario_secs,
        scenario_secs,
        shard_busy
            .iter()
            .enumerate()
            .map(|(i, b)| format!("s{i}: {b:.2}s"))
            .collect::<Vec<_>>()
            .join(", "),
        stream.windows,
        stream.peak_window_rows,
        peak_resident_estimate
    );
    drop(sh);

    // Phase 2: classification + dataset build alone — a fresh builder
    // re-interns the Phase 1 dataset's values and re-classifies its rows.
    let mut build_secs = f64::INFINITY;
    for _ in 0..BUILD_REPS {
        let t = Instant::now();
        let mut builder = DatasetBuilder::new(&s.deployment, 1);
        let mut remap = Remap::identity();
        builder.extend_remap(s.dataset.interner(), &mut remap);
        builder.absorb_table(0, s.dataset.table(), &remap);
        let ds = builder.finish();
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(ds.len() as u64, events);
        build_secs = build_secs.min(dt);
    }
    let events_per_sec = events as f64 / build_secs;

    // Distinct-payload ratio: distinct payload blobs / payload-carrying
    // events (the quantity memoized classification scales with). The
    // interner already deduplicates, so distinct = arena size.
    let payload_events = s
        .dataset
        .table()
        .observed()
        .iter()
        .filter(|o| matches!(o, cw_honeypot::capture::Observed::Payload(_)))
        .count() as u64;
    let distinct_payloads = s.dataset.interner().payload_count() as u64;
    let distinct_ratio = if payload_events == 0 {
        0.0
    } else {
        distinct_payloads as f64 / payload_events as f64
    };

    // Phase 2b: `bench_query` — the Tables 8+9 backbone through the query
    // layer's fused scan versus hand-rolled independent sweeps. The
    // [`PlanSet`] sweeps each fleet once for both plans (all-sources and
    // attackers-only); the baseline runs one full column scan per
    // (fleet, plan), the shape the retired `port_source_sets` sweeps had.
    // Outputs are asserted identical; rows/sec divides the event rows the
    // fused path enumerates (fleet-destined rows, each visited once) by
    // each implementation's wall time, so the two throughputs compare the
    // same job directly.
    let cloud = cloud_ips(&s.deployment);
    let edu = edu_ips(&s.deployment);
    let run_query = || -> Vec<BTreeMap<u16, BTreeSet<Ipv4Addr>>> {
        let mut set = PlanSet::over(&s.dataset);
        for plan in [
            Plan::at(&cloud).grouped_by_port(&POPULAR_PORTS).distinct_srcs(),
            Plan::at(&cloud)
                .malicious()
                .grouped_by_port(&TABLE9_PORTS)
                .distinct_srcs(),
            Plan::at(&edu).grouped_by_port(&POPULAR_PORTS).distinct_srcs(),
            Plan::at(&edu)
                .malicious()
                .grouped_by_port(&[80, 8080])
                .distinct_srcs(),
        ] {
            set.submit(plan).expect("grouped distinct-srcs plans validate");
        }
        set.execute()
            .into_iter()
            .map(|r| r.into_port_srcs())
            .collect()
    };
    let hand_rolled = |ips: &[Ipv4Addr],
                       ports: &[u16],
                       malicious: bool|
     -> BTreeMap<u16, BTreeSet<Ipv4Addr>> {
        let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
        let table = s.dataset.table();
        let verdicts = s.dataset.verdicts();
        let mut sets: BTreeMap<u16, BTreeSet<Ipv4Addr>> =
            ports.iter().map(|&p| (p, BTreeSet::new())).collect();
        for (i, &dst) in table.dsts().iter().enumerate() {
            if !fleet.contains(&dst) {
                continue;
            }
            if malicious && verdicts[i] != Verdict::Attacker {
                continue;
            }
            if let Some(set) = sets.get_mut(&table.dst_ports()[i]) {
                set.insert(table.srcs()[i]);
            }
        }
        sets
    };
    let run_hand_rolled = || -> Vec<BTreeMap<u16, BTreeSet<Ipv4Addr>>> {
        vec![
            hand_rolled(&cloud, &POPULAR_PORTS, false),
            hand_rolled(&cloud, &TABLE9_PORTS, true),
            hand_rolled(&edu, &POPULAR_PORTS, false),
            hand_rolled(&edu, &[80, 8080], true),
        ]
    };
    assert_eq!(run_query(), run_hand_rolled(), "query layer drifted");
    let job_rows = (s.dataset.query().at(&cloud).count()
        + s.dataset.query().at(&edu).count()) as f64;
    let mut query_secs = f64::INFINITY;
    let mut hand_secs = f64::INFINITY;
    for _ in 0..QUERY_REPS {
        let t = Instant::now();
        std::hint::black_box(run_query());
        query_secs = query_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(run_hand_rolled());
        hand_secs = hand_secs.min(t.elapsed().as_secs_f64());
    }
    let query_rows_per_sec = job_rows / query_secs;
    let handrolled_rows_per_sec = job_rows / hand_secs;
    eprintln!(
        "[bench] query shared scan: {query_rows_per_sec:.0} rows/s vs hand-rolled \
         {handrolled_rows_per_sec:.0} rows/s over {job_rows:.0} fleet rows"
    );

    // Phase 3: snapshot-cache round trip on the world just simulated.
    let bundle = s.into_bundle();
    let cache = snapshot::cache_dir();
    let t = Instant::now();
    snapshot::store_in(&cache, &bundle).expect("write snapshot");
    let snapshot_write_secs = t.elapsed().as_secs_f64();
    let deployment = Deployment::standard();
    let t = Instant::now();
    let restored = snapshot::load_from(&cache, &config, &deployment).expect("read snapshot back");
    let snapshot_read_secs = t.elapsed().as_secs_f64();
    assert_eq!(restored.dataset.len() as u64, events);
    drop(restored);
    drop(bundle);

    // Phase 4: fully warm all-exhibits render — every world the registry
    // needs served from the snapshot cache (primed here if cold), then all
    // 25 exhibits rendered from the shared bundles. This is `cw all` on a
    // warm cache, minus the out/*.txt writes.
    let ex_opts = ExhibitOptions {
        scale: opts.scale,
        seed: opts.seed,
        year: opts.year,
        shards: fleet::resolve_shards(opts.shards),
        fault: opts.fault,
    };
    let n_threads = fleet::resolve_threads(opts.threads);
    let configs = exhibit::required_configs(exhibit::REGISTRY, &ex_opts);
    fleet::map(configs.clone(), n_threads, |_, cfg| {
        snapshot::load_or_run(*cfg, true).1.is_hit()
    });
    let t = Instant::now();
    let bundles: BTreeMap<u16, SimBundle> =
        fleet::map(configs, n_threads, |_, cfg| snapshot::load_or_run(*cfg, true).0)
            .into_iter()
            .map(|b| (b.config.year.year(), b))
            .collect();
    // Unfused pass: the legacy path — no prefetch, every declared plan
    // runs standalone. The counter delta is the pass count fusion removes.
    let c0 = cw_core::query::scan_counters();
    let cx = ExhibitCx::new(ex_opts, &bundles);
    let rendered = fleet::map(exhibit::REGISTRY.to_vec(), n_threads, |_, e| {
        e.run(&cx).len()
    });
    let all_cached_wall_secs = t.elapsed().as_secs_f64();
    let unfused = cw_core::query::scan_counters().since(c0);
    drop(cx);
    // Fused pass: the same renders behind a registry-wide plan prefetch,
    // the shape `cw all` runs. Both passes render identical bytes (the
    // golden gate pins that); here the sizes are cross-checked and the
    // scan counters measured.
    let c0 = cw_core::query::scan_counters();
    let t = Instant::now();
    let mut fused_cx = ExhibitCx::new(ex_opts, &bundles);
    fused_cx.prefetch(exhibit::REGISTRY);
    let rendered_fused = fleet::map(exhibit::REGISTRY.to_vec(), n_threads, |_, e| {
        e.run(&fused_cx).len()
    });
    let all_cached_fused_wall_secs = t.elapsed().as_secs_f64();
    let fused = cw_core::query::scan_counters().since(c0);
    assert_eq!(rendered, rendered_fused, "fusion changed a rendered length");
    assert!(
        fused.fused < unfused.fused,
        "prefetch must fuse column passes ({} fused vs {} unfused)",
        fused.fused,
        unfused.fused
    );
    let fused_rows_per_sec = fused.rows as f64 / all_cached_fused_wall_secs;
    eprintln!(
        "[bench] warm all-exhibits render: {} exhibits, {} bytes, {:.2}s unfused \
         ({} passes) / {:.2}s fused ({} passes, {:.0} rows/s)",
        rendered.len(),
        rendered.iter().sum::<usize>(),
        all_cached_wall_secs,
        unfused.fused,
        all_cached_fused_wall_secs,
        fused.fused,
        fused_rows_per_sec
    );

    // Phase 5: fleet wall time at requested thread counts 1 and 8
    // (4 replicates), with per-worker breakdowns.
    let base = config;
    let mut fleet_runs = Vec::new();
    for threads in [1usize, 8] {
        let t = Instant::now();
        let (merged, timings) = fleet::run_replicates_timed(base, 4, threads);
        let dt = t.elapsed().as_secs_f64();
        let per_worker = timings
            .iter()
            .map(|w| format!("w{}: {} jobs {:.2}s", w.worker, w.jobs, w.busy_secs))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "[bench] fleet 4 replicates @ {threads} threads ({} workers): {:.2}s ({} events) [{per_worker}]",
            timings.len(),
            dt,
            merged.dataset.len()
        );
        fleet_runs.push((threads, dt, timings));
    }

    // Phase 6: the `cw sweep` driver on a tiny 2-cell grid against a
    // private cache directory — cold (every cell simulated, counted via the
    // simulate-call counter) then warm (every cell a snapshot hit, zero
    // simulations). The simulate-once contract is asserted, not just
    // recorded.
    let sweep_dir = std::env::temp_dir().join(format!("cw-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sweep_dir);
    let sweep_base = ScenarioConfig::paper(year).with_seed(opts.seed).with_scale(0.01);
    let sweep_grid = cw_core::sweep::SweepGrid {
        years: vec![year],
        seeds: vec![opts.seed],
        variants: vec![cw_core::degrade::ladder().remove(0)],
        scales: vec![1.0, 2.0],
    };
    let sweep_cells = sweep_grid.cell_count() as u64;
    let sweep_distinct = sweep_grid.distinct_configs(&sweep_base) as u64;
    let run_sweep = || {
        cw_core::sweep::report(&sweep_grid, sweep_base, &|cfg| {
            snapshot::load_or_run_in(&sweep_dir, cfg, true).0
        })
    };
    let sims0 = snapshot::simulations_performed();
    let t = Instant::now();
    let cold_report = run_sweep();
    let sweep_cold_wall_secs = t.elapsed().as_secs_f64();
    let sweep_cold_simulations = snapshot::simulations_performed() - sims0;
    let t = Instant::now();
    let warm_report = run_sweep();
    let sweep_warm_wall_secs = t.elapsed().as_secs_f64();
    let sweep_warm_simulations = snapshot::simulations_performed() - sims0 - sweep_cold_simulations;
    assert_eq!(sweep_cold_simulations, sweep_distinct, "cold sweep must simulate each distinct cell once");
    assert_eq!(sweep_warm_simulations, 0, "warm sweep must be all cache hits");
    assert_eq!(cold_report, warm_report, "sweep report must be cache-invariant");
    let _ = std::fs::remove_dir_all(&sweep_dir);
    eprintln!(
        "[bench] sweep {sweep_cells} cells: cold {sweep_cold_wall_secs:.2}s \
         ({sweep_cold_simulations} simulations), warm {sweep_warm_wall_secs:.2}s (0 simulations)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": {{\"year\": {}, \"scale\": {}, \"seed\": {}}},\n",
            "  \"events\": {},\n",
            "  \"payload_events\": {},\n",
            "  \"distinct_payloads\": {},\n",
            "  \"distinct_payload_ratio\": {:.6},\n",
            "  \"scenario_wall_secs\": {:.4},\n",
            "  \"shards\": {},\n",
            "  \"sharded_scenario_wall_secs\": {:.4},\n",
            "  \"shard_busy_secs\": [{}],\n",
            "  \"stream_windows\": {},\n",
            "  \"peak_window_rows\": {},\n",
            "  \"peak_resident_estimate\": {},\n",
            "  \"dataset_build_secs\": {:.4},\n",
            "  \"classification_events_per_sec\": {:.1},\n",
            "  \"snapshot_write_secs\": {:.4},\n",
            "  \"snapshot_read_secs\": {:.4},\n",
            "  \"query_rows_per_sec\": {:.1},\n",
            "  \"handrolled_rows_per_sec\": {:.1},\n",
            "  \"all_cached_wall_secs\": {:.4},\n",
            "  \"all_cached_fused_wall_secs\": {:.4},\n",
            "  \"unfused_scans\": {},\n",
            "  \"fused_scans\": {},\n",
            "  \"fused_rows_per_sec\": {:.1},\n",
            "  \"hardware_threads\": {},\n",
            "  \"fleet\": [{}],\n",
            "  \"sweep\": {{\"cells\": {}, \"distinct_configs\": {}, ",
            "\"cold_wall_secs\": {:.4}, \"warm_wall_secs\": {:.4}, ",
            "\"cold_simulations\": {}, \"warm_simulations\": {}}}\n",
            "}}\n"
        ),
        year.year(),
        opts.scale,
        opts.seed,
        events,
        payload_events,
        distinct_payloads,
        distinct_ratio,
        scenario_secs,
        n_shards,
        sharded_scenario_secs,
        shard_busy
            .iter()
            .map(|b| format!("{b:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        stream.windows,
        stream.peak_window_rows,
        peak_resident_estimate,
        build_secs,
        events_per_sec,
        snapshot_write_secs,
        snapshot_read_secs,
        query_rows_per_sec,
        handrolled_rows_per_sec,
        all_cached_wall_secs,
        all_cached_fused_wall_secs,
        unfused.fused,
        fused.fused,
        fused_rows_per_sec,
        hardware_threads,
        fleet_runs
            .iter()
            .map(|(t, s, timings)| {
                let workers = timings
                    .iter()
                    .map(|w| {
                        format!(
                            "{{\"worker\": {}, \"jobs\": {}, \"busy_secs\": {:.4}}}",
                            w.worker, w.jobs, w.busy_secs
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"requested_threads\": {t}, \"workers\": {}, \"wall_secs\": {s:.4}, \"per_worker\": [{workers}]}}",
                    timings.len()
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
        sweep_cells,
        sweep_distinct,
        sweep_cold_wall_secs,
        sweep_warm_wall_secs,
        sweep_cold_simulations,
        sweep_warm_simulations
    );
    std::fs::write("BENCH_scenario.json", &json).expect("write BENCH_scenario.json");
    print!("{json}");
}

//! Shared plumbing for the `cw` multicall CLI and the benchmark harness.
//!
//! Every command accepts `--scale <f64>`, `--seed <u64>`, `--threads <N>`,
//! `--shards <K>`, `--no-cache` and (where relevant) `--year
//! <2020|2021|2022>`; defaults regenerate the published EXPERIMENTS.md
//! values.
//!
//! Commands that need more than one simulated world go through
//! [`cw_core::fleet`]: each world is obtained (snapshot cache or fresh
//! simulation) inside a worker thread, and exhibits render from the shared
//! bundles in canonical order — so stdout is byte-identical for any
//! `--threads` value (see `docs/ARCHITECTURE.md`). `--threads` beats the
//! `CW_THREADS` environment variable, which beats autodetection. The
//! snapshot cache can never change results either ([`cw_core::snapshot`]),
//! so `--no-cache` is purely a wall-clock/debugging knob.

use cw_core::scenario::{Scenario, ScenarioConfig, DEFAULT_SEED};
use cw_netsim::fault::FaultPlan;
use cw_scanners::population::ScenarioYear;

/// Parsed command-line options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Population scale.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Year override.
    pub year: Option<ScenarioYear>,
    /// Worker threads for fleet commands (`None` = `CW_THREADS` or
    /// autodetect; see [`cw_core::fleet::resolve_threads`]).
    pub threads: Option<usize>,
    /// Engine shards per scenario (`None` = `CW_SHARDS` or autodetect; see
    /// [`cw_core::fleet::resolve_shards`]). Output is byte-identical for
    /// any value — a purely wall-clock knob.
    pub shards: Option<usize>,
    /// Bypass the snapshot cache (always simulate, never read or write
    /// `out/.cache`). Results are identical either way.
    pub no_cache: bool,
    /// Deterministic measurement-fault plan (`--loss`, `--outage`,
    /// `--outage-windows`, `--truncate`, `--truncate-to`,
    /// `--telescope-sample`). Unlike threads/shards/cache this *is* part
    /// of world identity: any non-none plan changes the output bytes and
    /// the snapshot addresses.
    pub fault: FaultPlan,
    /// Print per-bundle plan-fusion stats and an end-of-run scan-counter
    /// summary on stderr (`--trace-scans`). Purely observational: rendered
    /// stdout bytes are identical either way.
    pub trace_scans: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: 1.0,
            seed: DEFAULT_SEED,
            year: None,
            threads: None,
            shards: None,
            no_cache: false,
            fault: FaultPlan::none(),
            trace_scans: false,
        }
    }
}

/// The flag summary shared by usage/error messages.
pub const USAGE: &str = "usage: cw <exhibit|list|all|export|degrade|sweep> [--scale <f64>] [--seed <u64>] \
     [--year <2020|2021|2022>] [--threads <N>] [--shards <K>] [--no-cache] [--trace-scans] \
     [--loss <f64>] [--outage <f64>] [--outage-windows <N>] \
     [--truncate <f64>] [--truncate-to <bytes>] [--telescope-sample <N>]\n\
sweep only: [--scales <csv of f64, default 1,10,100>] [--years <csv of years>] \
     [--replicates <N>] [--variants <csv of none|mild|moderate|severe>]";

fn usage_exit(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parse flag arguments from an explicit iterator (everything after the
/// subcommand). Malformed arguments print a usage message and exit with
/// status 2.
pub fn parse_from(args: impl Iterator<Item = String>) -> RunOptions {
    let mut opts = RunOptions::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_exit(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--scale" => {
                opts.scale = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--scale expects a number"));
                if opts.scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    usage_exit("--scale must be positive");
                }
            }
            "--seed" => {
                opts.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--seed expects an unsigned integer"));
            }
            "--year" => {
                opts.year = Some(match value("--year").as_str() {
                    "2020" => ScenarioYear::Y2020,
                    "2021" => ScenarioYear::Y2021,
                    "2022" => ScenarioYear::Y2022,
                    other => usage_exit(&format!("unknown year '{other}' (use 2020, 2021 or 2022)")),
                })
            }
            "--threads" => {
                let n: usize = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--threads expects an unsigned integer"));
                if n == 0 {
                    usage_exit("--threads must be at least 1");
                }
                opts.threads = Some(n);
            }
            "--shards" => {
                let n: usize = value("--shards")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--shards expects an unsigned integer"));
                if n == 0 {
                    usage_exit("--shards must be at least 1");
                }
                opts.shards = Some(n);
            }
            "--no-cache" => {
                opts.no_cache = true;
            }
            "--trace-scans" => {
                opts.trace_scans = true;
            }
            "--loss" => {
                opts.fault.flow_loss = value("--loss")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--loss expects a number"));
                if !(0.0..=1.0).contains(&opts.fault.flow_loss) {
                    usage_exit("--loss must be in [0, 1]");
                }
            }
            "--outage" => {
                opts.fault.outage = value("--outage")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--outage expects a number"));
                if !(0.0..1.0).contains(&opts.fault.outage) {
                    usage_exit("--outage must be in [0, 1)");
                }
            }
            "--outage-windows" => {
                let n: u32 = value("--outage-windows")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--outage-windows expects an unsigned integer"));
                if n == 0 {
                    usage_exit("--outage-windows must be at least 1");
                }
                opts.fault.outage_windows = n;
            }
            "--truncate" => {
                opts.fault.truncation = value("--truncate")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--truncate expects a number"));
                if !(0.0..=1.0).contains(&opts.fault.truncation) {
                    usage_exit("--truncate must be in [0, 1]");
                }
            }
            "--truncate-to" => {
                opts.fault.truncate_to = value("--truncate-to")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--truncate-to expects a byte count"));
            }
            "--telescope-sample" => {
                let n: u32 = value("--telescope-sample")
                    .parse()
                    .unwrap_or_else(|_| {
                        usage_exit("--telescope-sample expects an unsigned integer")
                    });
                if n == 0 {
                    usage_exit("--telescope-sample must be at least 1");
                }
                opts.fault.telescope_sample = n;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    opts
}

/// Parse `std::env::args()` (flags only, no subcommand — the benchmark
/// harness entry point).
pub fn parse_args() -> RunOptions {
    parse_from(std::env::args().skip(1))
}

/// Worker-thread count for these options (flag, then `CW_THREADS`, then
/// autodetect).
pub fn threads(opts: RunOptions) -> usize {
    cw_core::fleet::resolve_threads(opts.threads)
}

/// Shard count for the benchmark's sharded phase (Phase 1b).
///
/// An explicit request (`--shards`/`CW_SHARDS`, pre-resolved by
/// [`cw_core::fleet::resolve_shards`]) is honored as-is. On auto (`0`),
/// multi-core machines get at least 2 shards so the merge machinery is
/// always exercised — but a single-core machine gets 1: forcing shards
/// there benchmarks pure merge overhead on hardware that can never overlap
/// shard work (the regression recorded as 8.66s sharded vs 2.82s single in
/// an earlier `BENCH_scenario.json`), and the scenario run itself resolves
/// auto to one shard on such machines.
pub fn phase1b_shards(resolved: usize, hardware_threads: usize) -> usize {
    match resolved {
        0 if hardware_threads <= 1 => 1,
        0 => hardware_threads.max(2),
        k => k,
    }
}

/// The scenario configuration these options select for a year. The shard
/// count resolves flag → `CW_SHARDS` → auto (0, resolved to the machine's
/// parallelism at run time); any value yields the same bytes.
pub fn config_for(opts: RunOptions, default_year: ScenarioYear) -> ScenarioConfig {
    let year = opts.year.unwrap_or(default_year);
    ScenarioConfig::paper(year)
        .with_seed(opts.seed)
        .with_scale(opts.scale)
        .with_shards(cw_core::fleet::resolve_shards(opts.shards))
        .with_fault(opts.fault)
}

/// Run one configured scenario with progress logging on stderr.
///
/// Safe to call from fleet workers: progress goes to stderr (unordered
/// under parallelism), results to the caller.
pub fn run_config(config: ScenarioConfig) -> Scenario {
    eprintln!(
        "[cw] running {} scenario (scale {}, seed {:#x}) ...",
        config.year.year(),
        config.scale,
        config.seed
    );
    let start = std::time::Instant::now();
    let s = Scenario::run(config);
    eprintln!(
        "[cw] simulated {} week complete in {:.1?}: {} flows delivered, {} honeypot events, {} telescope packets",
        config.year.year(),
        start.elapsed(),
        s.stats.flows_delivered,
        s.dataset.len(),
        s.telescope.borrow().total_packets()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs<'a>(args: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        args.iter().map(|s| s.to_string())
    }

    #[test]
    fn parse_from_defaults_and_flags() {
        let d = parse_from(strs(&[]));
        assert_eq!(d.scale, 1.0);
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(d.year.is_none());
        assert!(d.threads.is_none());
        assert!(d.shards.is_none());
        assert!(!d.no_cache);
        assert!(!d.trace_scans);

        let o = parse_from(strs(&[
            "--scale", "0.25", "--seed", "7", "--year", "2020", "--threads", "3", "--shards",
            "4", "--no-cache", "--trace-scans",
        ]));
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.seed, 7);
        assert_eq!(o.year, Some(ScenarioYear::Y2020));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.shards, Some(4));
        assert!(o.no_cache);
        assert!(o.trace_scans);
    }

    #[test]
    fn phase1b_never_forces_shards_on_a_single_core_machine() {
        // Auto on one hardware thread runs one shard.
        assert_eq!(phase1b_shards(0, 1), 1);
        // Auto on multi-core exercises the merge machinery.
        assert_eq!(phase1b_shards(0, 2), 2);
        assert_eq!(phase1b_shards(0, 8), 8);
        // An explicit request is always honored, even on one core.
        assert_eq!(phase1b_shards(3, 1), 3);
        assert_eq!(phase1b_shards(1, 8), 1);
    }

    #[test]
    fn parse_from_fault_flags() {
        assert!(parse_from(strs(&[])).fault.is_none());
        let o = parse_from(strs(&[
            "--loss",
            "0.1",
            "--outage",
            "0.05",
            "--outage-windows",
            "2",
            "--truncate",
            "0.25",
            "--truncate-to",
            "32",
            "--telescope-sample",
            "4",
        ]));
        assert!(!o.fault.is_none());
        assert_eq!(o.fault.flow_loss, 0.1);
        assert_eq!(o.fault.outage, 0.05);
        assert_eq!(o.fault.outage_windows, 2);
        assert_eq!(o.fault.truncation, 0.25);
        assert_eq!(o.fault.truncate_to, 32);
        assert_eq!(o.fault.telescope_sample, 4);
        // The parsed plan lands in the scenario config bit-for-bit.
        let cfg = config_for(o, ScenarioYear::Y2021);
        assert!(cfg.fault.same_bits(&o.fault));
    }
}

//! `cwprobe` — the in-process half of the `cw` benchmark.
//!
//! ```text
//! cwprobe prime --cache DIR --seed N --exhibit all|<name> --shards K
//!               [--repeat R] [--reference DIR --threads T] [--trace FILE]
//! cwprobe flow  --cache DIR --seed N --exhibit all|<name> --threads T
//!               --shards K --trace FILE
//! ```
//!
//! `prime` is the warm workloads' set-up: it empties `--cache` and fills it
//! through `snapshot::load_or_run_in`, `--repeat` times, and prints the
//! wall time of each pass as `{"setup_s": [...]}`. With `--trace` it
//! primes once through the calls `load_or_run_in` makes on a miss, one
//! span around each. With `--reference` it then renders the requested
//! exhibits from the freshly simulated worlds into that directory, the
//! cold output the warm `cw` runs are compared with.
//!
//! `flow` replays `cw all` (`--exhibit all`) or `cw <exhibit>` in this
//! process, in the order the CLI makes its calls, with a span around each
//! call into a layer. Worlds whose snapshot is in `--cache` are read,
//! others are simulated and stored, as the CLI does. Rendered text goes
//! where the CLI puts it: `out/<name>.txt` for `all`, stdout otherwise.
//!
//! Spans and counters stay in memory and are written to `--trace` as JSON
//! at exit. A span marked `check` is work the CLI does not do, made only to
//! compare the traced split of a layer against the layer's own entry point;
//! it runs after the replayed flow so it never sits inside another span.

use cw_core::exhibit::{self, Exhibit, ExhibitCx, ExhibitOptions};
use cw_core::fleet;
use cw_core::query::scan_counters;
use cw_core::scenario::{Scenario, ScenarioConfig};
use cw_core::snapshot;
use cw_core::SimBundle;
use cw_honeypot::deployment::Deployment;
use cw_netsim::fault::FaultPlan;
use cw_netsim::snap::{self, SnapReader, SnapWriter};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: f64,
    end: f64,
    check: bool,
}

/// Span and counter recorder shared by fleet worker threads. Parents are
/// passed explicitly, so a job on a worker thread nests under the fan-out
/// span that spawned it.
struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<String, f64>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn record<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        check: bool,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("no span holder panicked")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                start,
                end,
                check,
            });
        out
    }

    /// Time `f` as a span of the replayed flow.
    fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        self.record(name, parent, false, f)
    }

    /// Time `f` as cross-check work the CLI itself does not do.
    fn check<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, true, |_| f())
    }

    fn add(&self, name: &str, v: f64) {
        *self
            .counts
            .lock()
            .expect("no counter holder panicked")
            .entry(name.to_string())
            .or_default() += v;
    }

    fn max(&self, name: &str, v: f64) {
        let mut counts = self.counts.lock().expect("no counter holder panicked");
        let slot = counts.entry(name.to_string()).or_default();
        *slot = slot.max(v);
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\"spans\": [\n");
        let spans = self.spans.lock().expect("no span holder panicked");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"check\": {}}}{}\n",
                sp.id,
                parent,
                sp.name,
                sp.start,
                sp.end,
                sp.check,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        s.push_str("], \"counts\": {");
        let counts = self.counts.lock().expect("no counter holder panicked");
        let body: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        s.push_str(&body.join(", "));
        s.push_str("}}\n");
        std::fs::write(path, s)
    }
}

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut raw = raw;
        while let Some(flag) = raw.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = raw
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} expects a number"))
    }

    fn opt(&self, key: &str) -> Option<PathBuf> {
        self.0.get(key).map(PathBuf::from)
    }
}

/// What one `prime` or `flow` invocation works on.
struct Job {
    cache: PathBuf,
    opts: ExhibitOptions,
    exhibits: Vec<&'static dyn Exhibit>,
    /// `--exhibit all`: replay `cmd_all` rather than `cmd_exhibit`.
    all: bool,
}

impl Job {
    fn from_args(args: &Args) -> Result<Job, String> {
        let name = args.get("exhibit")?;
        let all = name == "all";
        let exhibits = if all {
            exhibit::REGISTRY.to_vec()
        } else {
            vec![exhibit::find(name).ok_or_else(|| format!("unknown exhibit '{name}'"))?]
        };
        let opts = ExhibitOptions {
            scale: 1.0,
            seed: args.num("seed")?,
            year: None,
            shards: args.num("shards")?,
            fault: FaultPlan::none(),
        };
        Ok(Job {
            cache: PathBuf::from(args.get("cache")?),
            opts,
            exhibits,
            all,
        })
    }

    fn configs(&self) -> Vec<ScenarioConfig> {
        exhibit::required_configs(&self.exhibits, &self.opts)
    }
}

/// The cold half of `snapshot::load_or_run_in`: simulate, fold and store,
/// with the counters the scenario exposes.
fn simulate_and_store(tr: &Tracer, parent: u64, dir: &Path, config: ScenarioConfig) -> SimBundle {
    let scenario = tr.span("scenario.run", Some(parent), |_| Scenario::run(config));
    let busy = &scenario.shard_busy_secs;
    if !busy.is_empty() {
        let max = busy.iter().copied().fold(0.0, f64::max);
        tr.add("scenario.shard_busy_max_s", max);
        tr.add(
            "scenario.shard_busy_mean_s",
            busy.iter().sum::<f64>() / busy.len() as f64,
        );
    }
    if let Some(stream) = scenario.stream {
        tr.add("scenario.windows", stream.windows as f64);
        tr.max("scenario.peak_window_rows", stream.peak_window_rows as f64);
    }
    tr.add("scenario.flows", scenario.stats.flows_delivered as f64);
    let bundle = tr.span("bundle.fold", Some(parent), |_| scenario.into_bundle());
    tr.span("snapshot.store", Some(parent), |_| {
        snapshot::store_in(dir, &bundle)
    })
    .unwrap_or_else(|e| panic!("snapshot store failed: {e}"));
    bundle
}

/// After the flow, for a world it simulated: the dataset counters, and
/// `snapshot::store_in` split into its encode and seal steps as
/// cross-checks. The sealed bytes must equal the stored file.
fn after_store(tr: &Tracer, dir: &Path, bundle: &SimBundle) {
    let dataset = &bundle.dataset;
    let payload_events = dataset
        .events()
        .filter(|e| e.payload_bytes().is_some())
        .count();
    tr.add("dataset.events", dataset.len() as f64);
    tr.add("dataset.payload_events", payload_events as f64);
    tr.add(
        "dataset.distinct_payloads",
        dataset.interner().payload_count() as f64,
    );
    let payload = tr.check("snapshot.encode", || {
        let mut w = SnapWriter::new();
        bundle.snap_write(&mut w);
        w.into_bytes()
    });
    let sealed = tr.check("snapshot.seal", || snap::seal(&payload));
    let stored = std::fs::read(snapshot::snapshot_path_in(dir, &bundle.config))
        .unwrap_or_else(|e| panic!("stored snapshot unreadable: {e}"));
    assert!(
        sealed == stored,
        "split encode + seal differs from snapshot::store_in"
    );
    tr.add("snapshot.stored_bytes", stored.len() as f64);
    tr.add("snapshot.stored_events", dataset.len() as f64);
}

/// `snapshot::load_from` split into its read, verify and decode steps.
fn split_load(tr: &Tracer, parent: u64, path: &Path, config: &ScenarioConfig) -> SimBundle {
    let deployment = Deployment::standard();
    let bytes = tr
        .span("snapshot.read", Some(parent), |_| std::fs::read(path))
        .unwrap_or_else(|e| panic!("snapshot read failed: {e}"));
    let payload = tr
        .span("snapshot.verify", Some(parent), |_| snap::unseal(&bytes))
        .unwrap_or_else(|e| panic!("snapshot failed verification: {e}"));
    let bundle = tr.span("snapshot.decode", Some(parent), |_| {
        let mut r = SnapReader::new(payload);
        let bundle = SimBundle::snap_read(&mut r, &deployment)
            .unwrap_or_else(|e| panic!("snapshot failed to decode: {e}"));
        assert!(r.is_exhausted(), "snapshot has trailing bytes");
        bundle
    });
    assert!(bundle.matches(config), "snapshot holds another world");
    tr.add("snapshot.read_bytes", bytes.len() as f64);
    tr.add("snapshot.read_events", bundle.dataset.len() as f64);
    bundle
}

/// Render `job`'s exhibits from `bundles` into `dir` as `<name>.txt`, the
/// way `cw all` does: prefetch, then one fleet job per exhibit.
fn render_reference(
    job: &Job,
    bundles: &BTreeMap<u16, SimBundle>,
    threads: usize,
    dir: &Path,
) -> Result<(), String> {
    let mut cx = ExhibitCx::new(job.opts, bundles);
    cx.prefetch(&job.exhibits);
    let rendered = fleet::try_map(job.exhibits.clone(), threads, |_, e| (e.name(), e.run(&cx)));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for r in rendered {
        let (name, text) = r.map_err(|e| format!("reference render failed: {e}"))?;
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn prime(args: &Args) -> Result<(), String> {
    let job = Job::from_args(args)?;
    let mut bundles = BTreeMap::new();
    if let Some(trace) = args.opt("trace") {
        let tr = Tracer::new();
        let _ = std::fs::remove_dir_all(&job.cache);
        tr.span("setup", None, |root| {
            for cfg in job.configs() {
                let bundle = tr.span("setup.world", Some(root), |id| {
                    simulate_and_store(&tr, id, &job.cache, cfg)
                });
                bundles.insert(bundle.config.year.year(), bundle);
            }
        });
        for b in bundles.values() {
            after_store(&tr, &job.cache, b);
        }
        tr.write(&trace)
            .map_err(|e| format!("write {}: {e}", trace.display()))?;
    } else {
        let repeat: usize = args.num("repeat")?;
        let mut setup = Vec::new();
        for _ in 0..repeat.max(1) {
            let _ = std::fs::remove_dir_all(&job.cache);
            bundles.clear();
            let start = Instant::now();
            for cfg in job.configs() {
                let (bundle, provenance) = snapshot::load_or_run_in(&job.cache, cfg, true);
                match provenance {
                    snapshot::Provenance::Simulated {
                        write_secs: Some(_),
                        ..
                    } => {}
                    other => return Err(format!("priming did not simulate and store: {other:?}")),
                }
                bundles.insert(bundle.config.year.year(), bundle);
            }
            setup.push(start.elapsed().as_secs_f64());
        }
        let list: Vec<String> = setup.iter().map(|s| format!("{s:.9}")).collect();
        println!("{{\"setup_s\": [{}]}}", list.join(", "));
    }
    match args.opt("reference") {
        Some(dir) => render_reference(&job, &bundles, args.num("threads")?, &dir),
        None => Ok(()),
    }
}

fn flow(args: &Args) -> Result<(), String> {
    let job = Job::from_args(args)?;
    let threads: usize = args.num("threads")?;
    let trace = PathBuf::from(args.get("trace")?);
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = |jobs: usize| threads.min(jobs).min(hardware).max(1) as f64;
    let tr = Tracer::new();

    // `obtain_all`: one fleet job per world, snapshot first, else simulate.
    let configs = job.configs();
    tr.add("fleet.obtain_workers", workers(configs.len()));
    let obtained = tr.span("obtain", None, |fan| {
        fleet::try_map(configs, threads, |_, cfg| {
            tr.span("obtain.world", Some(fan), |id| {
                let path = snapshot::snapshot_path_in(&job.cache, cfg);
                if path.exists() {
                    (split_load(&tr, id, &path, cfg), true)
                } else {
                    (simulate_and_store(&tr, id, &job.cache, *cfg), false)
                }
            })
        })
    });
    let mut bundles = BTreeMap::new();
    let mut loaded = Vec::new();
    for r in obtained {
        let (bundle, from_snapshot) = r.map_err(|e| format!("world failed: {e}"))?;
        loaded.push((bundle.config, from_snapshot));
        bundles.insert(bundle.config.year.year(), bundle);
    }

    let mut cx = tr.span("cx.new", None, |_| ExhibitCx::new(job.opts, &bundles));
    let before = scan_counters();
    let stats = tr.span("prefetch", None, |_| cx.prefetch(&job.exhibits));
    let scanned = scan_counters().since(before);
    tr.add(
        "prefetch.plans",
        stats.iter().map(|s| s.plans).sum::<usize>() as f64,
    );
    tr.add(
        "prefetch.passes",
        stats.iter().map(|s| s.passes).sum::<usize>() as f64,
    );
    tr.add("prefetch.rows", scanned.rows as f64);

    // `table3` and `all` share the memoized leak experiment; forcing it
    // here gives it a span of its own instead of charging it to whichever
    // of the two renders reaches it first.
    if job.all {
        tr.span("leak", None, |_| {
            cx.leak();
        });
    }

    let before = scan_counters();
    let rendered: Vec<(&str, String)> = if job.all {
        tr.add("fleet.render_workers", workers(job.exhibits.len()));
        let results = tr.span("render", None, |fan| {
            fleet::try_map(job.exhibits.clone(), threads, |_, e| {
                let name = e.name();
                tr.span(&format!("render.{name}"), Some(fan), |_| (name, e.run(&cx)))
            })
        });
        results
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("render failed: {e}"))?
    } else {
        // `cmd_exhibit` renders inline, not through the fleet.
        tr.add("fleet.render_workers", 1.0);
        let e = job.exhibits[0];
        tr.span("render", None, |fan| {
            vec![tr.span(&format!("render.{}", e.name()), Some(fan), |_| {
                (e.name(), e.run(&cx))
            })]
        })
    };
    let scanned = scan_counters().since(before);
    tr.add("render.unplanned_passes", scanned.fused as f64);
    tr.add("render.unplanned_rows", scanned.rows as f64);
    tr.add(
        "render.out_bytes",
        rendered.iter().map(|(_, t)| t.len()).sum::<usize>() as f64,
    );

    tr.span("write", None, |_| -> Result<(), String> {
        if job.all {
            std::fs::create_dir_all("out").map_err(|e| format!("create out/: {e}"))?;
            for (name, text) in &rendered {
                let path = format!("out/{name}.txt");
                std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
            }
        } else {
            let mut out = std::io::stdout().lock();
            out.write_all(rendered[0].1.as_bytes())
                .and_then(|()| out.flush())
                .map_err(|e| format!("write stdout: {e}"))?;
        }
        Ok(())
    })?;

    // Cross-checks of the traced splits against the layers' entry points.
    for (config, from_snapshot) in &loaded {
        if *from_snapshot {
            let again = tr.check("snapshot.load", || {
                snapshot::load_from(&job.cache, config, &Deployment::standard())
            });
            if again.is_none() {
                return Err(format!(
                    "snapshot::load_from rejected the {} world",
                    config.year.year()
                ));
            }
        } else {
            after_store(&tr, &job.cache, &bundles[&config.year.year()]);
        }
    }
    tr.write(&trace)
        .map_err(|e| format!("write {}: {e}", trace.display()))
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().unwrap_or_default();
    let result = Args::parse(raw).and_then(|args| match command.as_str() {
        "prime" => prime(&args),
        "flow" => flow(&args),
        other => Err(format!("unknown command '{other}' (use prime or flow)")),
    });
    if let Err(e) = result {
        eprintln!("cwprobe: error: {e}");
        std::process::exit(1);
    }
}

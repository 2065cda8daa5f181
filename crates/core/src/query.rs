//! Typed queries over the columnar event store.
//!
//! Every exhibit used to hand-roll its sweep: a `for` loop over
//! [`Dataset::events_at`] with inline `if` filters, re-materializing
//! row-shaped [`ClassifiedEvent`]s even when the analysis only touched one
//! column. This module replaces those loops with a small
//! filter → group → aggregate builder whose predicates **push down onto the
//! `Copy` ID columns** ([`PayloadId`]/port/verdict/fingerprint) of the
//! struct-of-arrays [`EventTable`]. String resolution through the interner
//! never happens inside a query — aggregates count by ID, and only render
//! code resolves IDs to strings (see `docs/QUERY.md` for the full contract).
//!
//! Two entry points:
//!
//! - [`Query::events`] — a *raw* query over a bare [`EventTable`] (the leak
//!   harness queries its [`cw_honeypot::capture::Capture`] this way, before
//!   any dataset exists). Rows are enumerated in table order.
//! - [`Dataset::query`] — a *dataset-backed* query that can additionally
//!   filter on the classification columns (§3.2 verdict, LZR fingerprint,
//!   the §3.3 traffic slices) and push destination predicates down onto the
//!   dataset's per-destination row index via [`Query::at`]. Rows are
//!   enumerated per destination IP, in the order the IPs were given —
//!   exactly the order of the hand-rolled sweeps this layer retired.
//!
//! Analyses over the same snapshot that want to share a row scan build
//! [`Plan`] values — an owned, declarative description of a scan (pushdown
//! predicates + group key + terminal) that can be constructed before any
//! dataset exists — and submit them to a [`PlanSet`]. The executor
//! partitions the submitted plans by row-enumeration domain (identical
//! destination pushdown), evaluates each partition in **one pass** over the
//! interned columns, and returns typed [`PlanResult`]s in submission order.
//! The passes run on every core, longest first, each on one thread from
//! start to finish, so the results do not depend on the worker count.
//! Tables 8 and 9 (same fleets, different residual filters) cost two fleet
//! scans instead of four; across the exhibit registry, the driver prefetches
//! every declared plan per bundle into a [`PlanStore`] so coinciding scans
//! fuse registry-wide (see `docs/QUERY.md` and `Exhibit::plans`).
//!
//! Scan-count observability: every column pass (a [`Query`] terminal or a
//! `PlanSet` partition) bumps process-wide counters, readable via
//! [`scan_counters`]. The `cw all --trace-scans` flag and
//! `BENCH_scenario.json` report fused vs planned scan counts from them.
//!
//! # Example
//!
//! ```
//! use cw_core::dataset::Dataset;
//! use cw_honeypot::capture::{Capture, Observed, ScanEvent};
//! use cw_honeypot::deployment::Deployment;
//! use cw_netsim::asn::Asn;
//! use cw_netsim::time::SimTime;
//! use std::net::Ipv4Addr;
//!
//! let mut cap = Capture::new("doc");
//! let dst = Ipv4Addr::new(20, 10, 0, 0); // a standard-deployment vantage
//! for (src, port) in [(1, 23), (2, 23), (2, 2323), (3, 22)] {
//!     cap.record(ScanEvent {
//!         time: SimTime(60),
//!         src: Ipv4Addr::new(100, 0, 0, src),
//!         src_asn: Asn(4134),
//!         dst,
//!         dst_port: port,
//!         observed: Observed::Syn,
//!     });
//! }
//! let deployment = Deployment::standard();
//! let ds = Dataset::from_captures(&[&cap], &deployment);
//!
//! // Distinct Telnet-port scanners at this vantage: 2 (sources .1 and .2).
//! let telnet = ds.query().at(&[dst]).port_in(&[23, 2323]).distinct_srcs();
//! assert_eq!(telnet.len(), 2);
//! ```

use crate::compare::CharKind;
use crate::dataset::{ClassifiedEvent, Dataset, TrafficSlice};
use cw_detection::Verdict;
use cw_honeypot::capture::{EventTable, Observed, ScanEvent};
use cw_netsim::intern::PayloadId;
use cw_netsim::par;
use cw_protocols::ProtocolId;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide column passes actually executed (each [`Query`] terminal
/// scan and each fused [`PlanSet`] partition counts one).
static FUSED_PASSES: AtomicU64 = AtomicU64::new(0);
/// Process-wide plan evaluations requested (each [`Query`] terminal counts
/// one; each plan submitted to an executed [`PlanSet`] counts one). The gap
/// between this and [`FUSED_PASSES`] is the fusion win.
static PLANNED_SCANS: AtomicU64 = AtomicU64::new(0);
/// Process-wide candidate rows enumerated across all passes.
static SCANNED_ROWS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide scan counters (monotonic; subtract two
/// snapshots with [`ScanCounters::since`] to meter one phase).
///
/// `fused` counts column passes actually executed; `planned` counts plan
/// evaluations requested. A [`PlanStore`] hit
/// bumps neither — the work already happened at prefetch time — so after a
/// fully prefetched render `fused < planned` exactly when fusion shared
/// passes between plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanCounters {
    /// Column passes executed.
    pub fused: u64,
    /// Plan evaluations requested.
    pub planned: u64,
    /// Candidate rows enumerated.
    pub rows: u64,
}

impl ScanCounters {
    /// The counter deltas accumulated since `earlier`.
    pub fn since(self, earlier: ScanCounters) -> ScanCounters {
        ScanCounters {
            fused: self.fused - earlier.fused,
            planned: self.planned - earlier.planned,
            rows: self.rows - earlier.rows,
        }
    }
}

/// Read the process-wide scan counters.
pub fn scan_counters() -> ScanCounters {
    ScanCounters {
        fused: FUSED_PASSES.load(Ordering::Relaxed),
        planned: PLANNED_SCANS.load(Ordering::Relaxed),
        rows: SCANNED_ROWS.load(Ordering::Relaxed),
    }
}

/// The observation kinds a [`Query::kind`] / [`Query::not_kind`] predicate
/// selects on (the discriminant of [`Observed`], without its payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsKind {
    /// Bare SYN (telescope-style observation).
    Syn,
    /// Completed handshake, no client bytes.
    Handshake,
    /// First client payload.
    Payload,
    /// Harvested interactive login.
    Credentials,
}

impl ObsKind {
    fn matches(self, o: &Observed) -> bool {
        matches!(
            (self, o),
            (ObsKind::Syn, Observed::Syn)
                | (ObsKind::Handshake, Observed::Handshake)
                | (ObsKind::Payload, Observed::Payload(_))
                | (ObsKind::Credentials, Observed::Credentials { .. })
        )
    }
}

/// A residual row predicate. Column-only variants evaluate against the
/// [`EventTable`]; classification variants read the dataset's verdict or
/// fingerprint column and therefore require a dataset-backed query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pred {
    Port(u16),
    PortIn(Vec<u16>),
    Slice(TrafficSlice),
    Verdict(Verdict),
    Fingerprint(ProtocolId),
    Fingerprinted,
    Kind(ObsKind),
    NotKind(ObsKind),
}

fn class_of(class: Option<&Dataset>) -> &Dataset {
    class.expect(
        "classification predicate (verdict/fingerprint/HTTP-all slice) on a raw \
         event-table query; build the query with Dataset::query instead",
    )
}

fn admits(preds: &[Pred], table: &EventTable, class: Option<&Dataset>, i: usize) -> bool {
    preds.iter().all(|p| match p {
        Pred::Port(port) => table.dst_ports()[i] == *port,
        Pred::PortIn(ports) => ports.contains(&table.dst_ports()[i]),
        Pred::Slice(slice) => match slice {
            TrafficSlice::SshPort22 => table.dst_ports()[i] == 22,
            TrafficSlice::TelnetPort23 => table.dst_ports()[i] == 23,
            TrafficSlice::HttpPort80 => table.dst_ports()[i] == 80,
            TrafficSlice::HttpAllPorts => {
                class_of(class).fingerprints()[i] == Some(ProtocolId::Http)
            }
            TrafficSlice::AnyAll => true,
        },
        Pred::Verdict(v) => class_of(class).verdicts()[i] == *v,
        Pred::Fingerprint(proto) => class_of(class).fingerprints()[i] == Some(*proto),
        Pred::Fingerprinted => class_of(class).fingerprints()[i].is_some(),
        Pred::Kind(k) => k.matches(&table.observed()[i]),
        Pred::NotKind(k) => !k.matches(&table.observed()[i]),
    })
}

/// A lazily built filter → group → aggregate plan over the event columns.
///
/// Builder methods add predicates; terminal methods
/// ([`Query::count`], [`Query::distinct_srcs`], [`Query::classified`], …)
/// run the scan. Nothing is evaluated until a terminal runs, and a query
/// can be run more than once.
#[derive(Clone)]
pub struct Query<'a> {
    table: &'a EventTable,
    class: Option<&'a Dataset>,
    dsts: Option<Vec<Ipv4Addr>>,
    preds: Vec<Pred>,
}

impl<'a> Query<'a> {
    /// A raw query over a bare event table (no classification columns).
    ///
    /// Rows are enumerated in table order. Classification predicates
    /// ([`Query::verdict`], [`Query::fingerprint`],
    /// `slice(TrafficSlice::HttpAllPorts)`) and the [`Query::at`] pushdown
    /// panic on a raw query — they need a [`Dataset`].
    pub fn events(table: &'a EventTable) -> Self {
        Query {
            table,
            class: None,
            dsts: None,
            preds: Vec::new(),
        }
    }

    /// A dataset-backed query (all predicates available). Equivalent to
    /// [`Dataset::query`].
    pub fn over(dataset: &'a Dataset) -> Self {
        Query {
            table: dataset.table(),
            class: Some(dataset),
            dsts: None,
            preds: Vec::new(),
        }
    }

    /// Push destination filtering down onto the dataset's per-destination
    /// row index: only rows destined to `ips` are visited, without scanning
    /// the destination column. Rows are enumerated per IP **in the order
    /// given** (then in capture order within an IP), which is the
    /// concatenation order of the retired hand-rolled sweeps.
    ///
    /// # Panics
    /// Panics on a raw [`Query::events`] query — the index lives on the
    /// [`Dataset`].
    pub fn at(mut self, ips: &[Ipv4Addr]) -> Self {
        assert!(
            self.class.is_some(),
            "destination pushdown on a raw event-table query; build the query \
             with Dataset::query instead"
        );
        self.dsts = Some(ips.to_vec());
        self
    }

    /// Keep rows whose destination port is `port`.
    pub fn port(mut self, port: u16) -> Self {
        self.preds.push(Pred::Port(port));
        self
    }

    /// Keep rows whose destination port is one of `ports`.
    pub fn port_in(mut self, ports: &[u16]) -> Self {
        self.preds.push(Pred::PortIn(ports.to_vec()));
        self
    }

    /// Keep rows inside a §3.3 traffic slice. `HttpAllPorts` reads the
    /// fingerprint column and needs a dataset-backed query.
    pub fn slice(mut self, slice: TrafficSlice) -> Self {
        self.preds.push(Pred::Slice(slice));
        self
    }

    /// Keep rows with the given §3.2 verdict (dataset-backed only).
    pub fn verdict(mut self, v: Verdict) -> Self {
        self.preds.push(Pred::Verdict(v));
        self
    }

    /// Keep rows classified as attacker traffic — shorthand for
    /// `verdict(Verdict::Attacker)`.
    pub fn malicious(self) -> Self {
        self.verdict(Verdict::Attacker)
    }

    /// Keep rows whose payload fingerprinted as `proto` (dataset-backed).
    pub fn fingerprint(mut self, proto: ProtocolId) -> Self {
        self.preds.push(Pred::Fingerprint(proto));
        self
    }

    /// Keep rows that fingerprinted as *some* protocol (dataset-backed).
    pub fn fingerprinted(mut self) -> Self {
        self.preds.push(Pred::Fingerprinted);
        self
    }

    /// Keep rows whose observation is of `kind`.
    pub fn kind(mut self, kind: ObsKind) -> Self {
        self.preds.push(Pred::Kind(kind));
        self
    }

    /// Keep rows whose observation is *not* of `kind`.
    pub fn not_kind(mut self, kind: ObsKind) -> Self {
        self.preds.push(Pred::NotKind(kind));
        self
    }

    /// Run the scan, calling `f` with each admitted row index.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        FUSED_PASSES.fetch_add(1, Ordering::Relaxed);
        PLANNED_SCANS.fetch_add(1, Ordering::Relaxed);
        let mut rows = 0u64;
        match &self.dsts {
            Some(ips) => {
                let ds = class_of(self.class);
                for &ip in ips {
                    let Some(idxs) = ds.dst_index(ip) else { continue };
                    rows += idxs.len() as u64;
                    for i in idxs.iter().map(|&i| i as usize) {
                        if admits(&self.preds, self.table, self.class, i) {
                            f(i);
                        }
                    }
                }
            }
            None => {
                rows = self.table.len() as u64;
                for i in 0..self.table.len() {
                    if admits(&self.preds, self.table, self.class, i) {
                        f(i);
                    }
                }
            }
        }
        SCANNED_ROWS.fetch_add(rows, Ordering::Relaxed);
    }

    /// Number of admitted rows.
    pub fn count(&self) -> usize {
        let mut n = 0;
        self.for_each(|_| n += 1);
        n
    }

    /// Admitted row indices, in enumeration order.
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each(|i| out.push(i));
        out
    }

    /// Admitted rows as row views, in enumeration order.
    pub fn rows(&self) -> Vec<ScanEvent> {
        let mut out = Vec::new();
        self.for_each(|i| out.push(self.table.get(i)));
        out
    }

    /// Admitted rows as [`ClassifiedEvent`]s (dataset-backed only), in
    /// enumeration order — the drop-in replacement for the retired
    /// `events_at_group`-style sweeps.
    pub fn classified(&self) -> Vec<ClassifiedEvent<'a>> {
        let ds = class_of(self.class);
        let mut out = Vec::new();
        self.for_each(|i| out.push(ds.event(i)));
        out
    }

    /// Distinct source IPs among admitted rows.
    pub fn distinct_srcs(&self) -> BTreeSet<Ipv4Addr> {
        let mut out = BTreeSet::new();
        self.for_each(|i| {
            out.insert(self.table.srcs()[i]);
        });
        out
    }

    /// Distinct source IP and source AS counts among admitted rows —
    /// Table 1's unique-scanner columns in one pass.
    pub fn unique_src_and_asn(&self) -> (usize, usize) {
        let mut srcs = BTreeSet::new();
        let mut asns = BTreeSet::new();
        self.for_each(|i| {
            srcs.insert(self.table.srcs()[i]);
            asns.insert(self.table.src_asns()[i].0);
        });
        (srcs.len(), asns.len())
    }

    /// The §3.3 characteristic frequencies of the admitted rows
    /// (dataset-backed only) — `kind.freqs(...)` over the matching events.
    /// Counting happens by interned ID; `CharKind` resolves strings once
    /// per distinct ID at the render boundary.
    pub fn char_freqs(&self, kind: CharKind) -> BTreeMap<String, u64> {
        kind.freqs(&self.classified())
    }

    /// Group admitted rows by destination port.
    pub fn group_by_port(self) -> Grouped<'a, u16> {
        let ports = self.table.dst_ports();
        Grouped {
            q: self,
            restrict: None,
            key: Box::new(move |i| Some(ports[i])),
        }
    }

    /// Group admitted rows by source IP.
    pub fn group_by_src(self) -> Grouped<'a, Ipv4Addr> {
        let srcs = self.table.srcs();
        Grouped {
            q: self,
            restrict: None,
            key: Box::new(move |i| Some(srcs[i])),
        }
    }

    /// Group admitted rows by source AS number.
    pub fn group_by_asn(self) -> Grouped<'a, u32> {
        let asns = self.table.src_asns();
        Grouped {
            q: self,
            restrict: None,
            key: Box::new(move |i| Some(asns[i].0)),
        }
    }

    /// Group admitted rows by LZR fingerprint (dataset-backed only). Rows
    /// without a fingerprint fall outside every group.
    pub fn group_by_fingerprint(self) -> Grouped<'a, ProtocolId> {
        let fps = class_of(self.class).fingerprints();
        Grouped {
            q: self,
            restrict: None,
            key: Box::new(move |i| fps[i]),
        }
    }
}

/// A grouped query: a [`Query`] plus a group key drawn from one of the
/// `Copy` ID columns. Aggregate terminals run the underlying scan once.
pub struct Grouped<'a, K> {
    q: Query<'a>,
    restrict: Option<Vec<K>>,
    key: Box<dyn Fn(usize) -> Option<K> + 'a>,
}

impl<'a, K: Ord + Copy> Grouped<'a, K> {
    /// Restrict the grouping to a fixed key list: only listed keys are
    /// aggregated, and every listed key appears in the result even when no
    /// row matched it (the Tables 8/9 fixed-port-list contract).
    pub fn keys(mut self, keys: &[K]) -> Self {
        self.restrict = Some(keys.to_vec());
        self
    }

    fn seeded<V: Default>(&self) -> BTreeMap<K, V> {
        self.restrict
            .as_ref()
            .map(|keys| keys.iter().map(|&k| (k, V::default())).collect())
            .unwrap_or_default()
    }

    /// Fold admitted rows into per-group accumulators in one scan.
    fn fold<V: Default>(&self, mut push: impl FnMut(&mut V, usize)) -> BTreeMap<K, V> {
        let mut out = self.seeded::<V>();
        let restricted = self.restrict.is_some();
        self.q.for_each(|i| {
            if let Some(k) = (self.key)(i) {
                if restricted {
                    if let Some(v) = out.get_mut(&k) {
                        push(v, i);
                    }
                } else {
                    push(out.entry(k).or_default(), i);
                }
            }
        });
        out
    }

    /// Rows per group.
    pub fn counts(&self) -> BTreeMap<K, u64> {
        self.fold(|n: &mut u64, _| *n += 1)
    }

    /// Distinct source IPs per group — the backbone of Tables 8/9.
    pub fn distinct_srcs(&self) -> BTreeMap<K, BTreeSet<Ipv4Addr>> {
        let srcs = self.q.table.srcs();
        self.fold(|set: &mut BTreeSet<Ipv4Addr>, i| {
            set.insert(srcs[i]);
        })
    }

    /// Distinct payload IDs per group (rows without a payload don't count)
    /// — `count_distinct(PayloadId)` in the query-plan sketch.
    pub fn count_distinct_payloads(&self) -> BTreeMap<K, usize> {
        let observed = self.q.table.observed();
        self.fold(|set: &mut BTreeSet<PayloadId>, i| {
            if let Some(p) = observed[i].payload() {
                set.insert(p);
            }
        })
        .into_iter()
        .map(|(k, set)| (k, set.len()))
        .collect()
    }
}

/// The group key of a [`Plan`]: how admitted rows are bucketed before the
/// terminal aggregates them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// No grouping: the terminal aggregates every admitted row.
    None,
    /// Group by destination port over a fixed, seeded key list: only listed
    /// ports are aggregated and every listed port appears in the result,
    /// even empty — the Tables 8/9 contract of [`Grouped::keys`].
    Ports(Vec<u16>),
    /// Group by LZR fingerprint; rows without a fingerprint fall outside
    /// every group (matches [`Query::group_by_fingerprint`]).
    Fingerprint,
}

/// The terminal aggregate of a [`Plan`] — what one pass folds the admitted
/// rows into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// Admitted-row count → [`PlanResult::Count`].
    Count,
    /// Admitted row indices in enumeration order → [`PlanResult::Rows`].
    Rows,
    /// Admitted row indices, for resolution to
    /// [`ClassifiedEvent`]s via [`Dataset::event`] → [`PlanResult::Rows`].
    Classified,
    /// Distinct source IPs → [`PlanResult::DistinctSrcs`] (or the per-group
    /// map variants under a [`GroupKey`]).
    DistinctSrcs,
    /// Distinct source-IP and source-AS counts → Table 1's columns,
    /// [`PlanResult::UniqueSrcAndAsn`].
    UniqueSrcAndAsn,
    /// §3.3 characteristic frequencies of the admitted rows →
    /// [`PlanResult::CharFreqs`]. Strings resolve once per distinct ID when
    /// the partition finishes, never inside the scan.
    CharFreqs(CharKind),
}

/// A [`Plan`] that cannot execute. Returned by [`PlanSet::submit`] instead
/// of panicking at scan time, so a misdeclared exhibit plan fails loudly at
/// submission with the offending combination attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The group key × terminal combination has no defined aggregate (only
    /// `DistinctSrcs` folds under a group key today).
    Unsupported {
        /// The plan's group key.
        group: GroupKey,
        /// The plan's terminal.
        terminal: Terminal,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Unsupported { group, terminal } => write!(
                f,
                "unsupported plan: terminal {terminal:?} under group key {group:?} \
                 (grouped plans support DistinctSrcs only)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A declarative scan: pushdown predicates + group key + terminal, as an
/// **owned value** — no dataset borrow, so exhibits can declare the plans
/// they will need before any world is simulated (`Exhibit::plans`), and
/// identical plans deduplicate structurally ([`Plan`] is `Eq + Hash`).
///
/// Builders mirror [`Query`]'s: [`Plan::at`] fixes the enumeration domain
/// (or [`Plan::scan`] for table order), predicate methods push filters
/// down, [`Plan::grouped_by_port`] / [`Plan::grouped_by_fingerprint`] set
/// the group key, and the terminal methods ([`Plan::count`],
/// [`Plan::distinct_srcs`], …) pick the aggregate. Unlike the retired
/// `Batch`, a conflicting destination pushdown is unrepresentable: the
/// plan owns its single domain, and the executor groups plans *by* domain
/// instead of asserting they already agree.
///
/// Execute through [`PlanSet`] (fused with other plans), [`PlanStore`]
/// (prefetched and memoized), or [`ScanExec::run`] (store hit or
/// standalone).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    dsts: Option<Vec<Ipv4Addr>>,
    preds: Vec<Pred>,
    group: GroupKey,
    terminal: Terminal,
}

impl Plan {
    /// A plan over every row, in table order (no destination pushdown).
    pub fn scan() -> Self {
        Plan {
            dsts: None,
            preds: Vec::new(),
            group: GroupKey::None,
            terminal: Terminal::Count,
        }
    }

    /// A plan over the rows destined to `ips`, enumerated per IP in the
    /// order given — the same domain and order as [`Query::at`].
    pub fn at(ips: &[Ipv4Addr]) -> Self {
        Plan {
            dsts: Some(ips.to_vec()),
            ..Plan::scan()
        }
    }

    /// Keep rows whose destination port is `port`.
    pub fn port(mut self, port: u16) -> Self {
        self.preds.push(Pred::Port(port));
        self
    }

    /// Keep rows whose destination port is one of `ports`.
    pub fn port_in(mut self, ports: &[u16]) -> Self {
        self.preds.push(Pred::PortIn(ports.to_vec()));
        self
    }

    /// Keep rows inside a §3.3 traffic slice.
    pub fn slice(mut self, slice: TrafficSlice) -> Self {
        self.preds.push(Pred::Slice(slice));
        self
    }

    /// Keep rows with the given §3.2 verdict.
    pub fn verdict(mut self, v: Verdict) -> Self {
        self.preds.push(Pred::Verdict(v));
        self
    }

    /// Keep rows classified as attacker traffic — shorthand for
    /// `verdict(Verdict::Attacker)`.
    pub fn malicious(self) -> Self {
        self.verdict(Verdict::Attacker)
    }

    /// Keep rows whose payload fingerprinted as `proto`.
    pub fn fingerprint(mut self, proto: ProtocolId) -> Self {
        self.preds.push(Pred::Fingerprint(proto));
        self
    }

    /// Keep rows that fingerprinted as *some* protocol.
    pub fn fingerprinted(mut self) -> Self {
        self.preds.push(Pred::Fingerprinted);
        self
    }

    /// Keep rows whose observation is of `kind`.
    pub fn kind(mut self, kind: ObsKind) -> Self {
        self.preds.push(Pred::Kind(kind));
        self
    }

    /// Keep rows whose observation is *not* of `kind`.
    pub fn not_kind(mut self, kind: ObsKind) -> Self {
        self.preds.push(Pred::NotKind(kind));
        self
    }

    /// Group by destination port over the fixed `ports` key list (every
    /// listed port appears in the result, even empty).
    pub fn grouped_by_port(mut self, ports: &[u16]) -> Self {
        self.group = GroupKey::Ports(ports.to_vec());
        self
    }

    /// Group by LZR fingerprint.
    pub fn grouped_by_fingerprint(mut self) -> Self {
        self.group = GroupKey::Fingerprint;
        self
    }

    /// Terminal: count admitted rows.
    pub fn count(mut self) -> Self {
        self.terminal = Terminal::Count;
        self
    }

    /// Terminal: admitted row indices, in enumeration order.
    pub fn rows(mut self) -> Self {
        self.terminal = Terminal::Rows;
        self
    }

    /// Terminal: admitted row indices, declared for resolution to
    /// [`ClassifiedEvent`]s through [`Dataset::event`] after the scan.
    pub fn classified(mut self) -> Self {
        self.terminal = Terminal::Classified;
        self
    }

    /// Terminal: distinct source IPs (per group under a group key).
    pub fn distinct_srcs(mut self) -> Self {
        self.terminal = Terminal::DistinctSrcs;
        self
    }

    /// Terminal: distinct source-IP and source-AS counts in one pass.
    pub fn unique_src_and_asn(mut self) -> Self {
        self.terminal = Terminal::UniqueSrcAndAsn;
        self
    }

    /// Terminal: §3.3 characteristic frequencies of the admitted rows.
    pub fn char_freqs(mut self, kind: CharKind) -> Self {
        self.terminal = Terminal::CharFreqs(kind);
        self
    }

    /// Check the group key × terminal combination is executable.
    pub fn validate(&self) -> Result<(), PlanError> {
        match (&self.group, self.terminal) {
            (GroupKey::None, _) => Ok(()),
            (GroupKey::Ports(_) | GroupKey::Fingerprint, Terminal::DistinctSrcs) => Ok(()),
            (group, terminal) => Err(PlanError::Unsupported {
                group: group.clone(),
                terminal,
            }),
        }
    }
}

/// The typed result of one executed [`Plan`] — owned data, cheap to clone
/// from a [`PlanStore`], and independent of the dataset borrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanResult {
    /// [`Terminal::Count`].
    Count(usize),
    /// [`Terminal::Rows`] / [`Terminal::Classified`]: admitted row indices
    /// in enumeration order (resolve via [`Dataset::event`] as needed).
    Rows(Vec<usize>),
    /// Ungrouped [`Terminal::DistinctSrcs`].
    DistinctSrcs(BTreeSet<Ipv4Addr>),
    /// [`Terminal::UniqueSrcAndAsn`]: (distinct sources, distinct ASes).
    UniqueSrcAndAsn(usize, usize),
    /// [`Terminal::CharFreqs`].
    CharFreqs(BTreeMap<String, u64>),
    /// [`Terminal::DistinctSrcs`] under [`GroupKey::Ports`].
    PortSrcs(BTreeMap<u16, BTreeSet<Ipv4Addr>>),
    /// [`Terminal::DistinctSrcs`] under [`GroupKey::Fingerprint`].
    FingerprintSrcs(BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>>),
}

impl PlanResult {
    fn mismatch(&self, wanted: &str) -> ! {
        panic!("plan result holds {self:?}, caller expected {wanted}")
    }

    /// Unwrap a [`PlanResult::Count`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_count(self) -> usize {
        match self {
            PlanResult::Count(n) => n,
            other => other.mismatch("Count"),
        }
    }

    /// Unwrap a [`PlanResult::Rows`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_rows(self) -> Vec<usize> {
        match self {
            PlanResult::Rows(v) => v,
            other => other.mismatch("Rows"),
        }
    }

    /// Unwrap an ungrouped [`PlanResult::DistinctSrcs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_distinct_srcs(self) -> BTreeSet<Ipv4Addr> {
        match self {
            PlanResult::DistinctSrcs(s) => s,
            other => other.mismatch("DistinctSrcs"),
        }
    }

    /// Unwrap a [`PlanResult::UniqueSrcAndAsn`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_unique_src_and_asn(self) -> (usize, usize) {
        match self {
            PlanResult::UniqueSrcAndAsn(s, a) => (s, a),
            other => other.mismatch("UniqueSrcAndAsn"),
        }
    }

    /// Unwrap a [`PlanResult::CharFreqs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_char_freqs(self) -> BTreeMap<String, u64> {
        match self {
            PlanResult::CharFreqs(m) => m,
            other => other.mismatch("CharFreqs"),
        }
    }

    /// Unwrap a [`PlanResult::PortSrcs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_port_srcs(self) -> BTreeMap<u16, BTreeSet<Ipv4Addr>> {
        match self {
            PlanResult::PortSrcs(m) => m,
            other => other.mismatch("PortSrcs"),
        }
    }

    /// Unwrap a [`PlanResult::FingerprintSrcs`].
    ///
    /// # Panics
    /// Panics if the result is another variant.
    pub fn into_fingerprint_srcs(self) -> BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> {
        match self {
            PlanResult::FingerprintSrcs(m) => m,
            other => other.mismatch("FingerprintSrcs"),
        }
    }
}

/// Multiply-and-fold hashing for `u32` keys (IPv4 addresses, AS numbers).
///
/// The multiply spreads every input bit into the high half of the 64-bit
/// product; the fold XORs that half back onto the low bits. Both ends
/// matter: hashbrown picks the bucket from the low bits and the control
/// tag from the top seven, so addresses that differ only in their first
/// octet must still land apart.
///
/// The hash is unkeyed. Its keys are addresses from this program's own
/// simulated or sealed datasets, and a crafted collision could only slow
/// a pass, never change its result.
#[derive(Default)]
struct FoldHasher(u64);

/// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;

impl std::hash::Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        let m = (u64::from(n) ^ self.0).wrapping_mul(FOLD_K);
        self.0 = m ^ (m >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A distinct-value set of source addresses or AS numbers as raw `u32`s —
/// the flat accumulator behind every distinct-source terminal. Insertion
/// is a hash probe instead of a B-tree walk; order is restored once, when
/// the pass finishes.
#[derive(Default)]
struct SrcSet(HashSet<u32, BuildHasherDefault<FoldHasher>>);

impl SrcSet {
    fn insert(&mut self, v: u32) {
        self.0.insert(v);
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// The members as the ordered address set a [`PlanResult`] carries,
    /// sorted as `u32`s first so the tree is bulk-built from sorted input.
    fn into_ips(self) -> BTreeSet<Ipv4Addr> {
        let mut v: Vec<u32> = self.0.into_iter().collect();
        v.sort_unstable();
        v.into_iter().map(Ipv4Addr::from).collect()
    }

    /// [`SrcSet::into_ips`] for every group of a grouped accumulator.
    fn into_ip_map<K: Ord>(m: BTreeMap<K, SrcSet>) -> BTreeMap<K, BTreeSet<Ipv4Addr>> {
        m.into_iter().map(|(k, s)| (k, s.into_ips())).collect()
    }
}

/// The in-flight accumulator for one plan inside a fused partition pass.
enum Acc {
    Count(usize),
    Rows(Vec<usize>),
    DistinctSrcs(SrcSet),
    SrcAsn(SrcSet, SrcSet),
    CharFreqs(CharKind, Vec<usize>),
    PortSrcs(BTreeMap<u16, SrcSet>),
    FingerprintSrcs(BTreeMap<ProtocolId, SrcSet>),
}

impl Acc {
    fn for_plan(plan: &Plan) -> Acc {
        match (&plan.group, plan.terminal) {
            (GroupKey::Ports(ports), Terminal::DistinctSrcs) => {
                Acc::PortSrcs(ports.iter().map(|&p| (p, SrcSet::default())).collect())
            }
            (GroupKey::Fingerprint, Terminal::DistinctSrcs) => {
                Acc::FingerprintSrcs(BTreeMap::new())
            }
            (GroupKey::None, t) => match t {
                Terminal::Count => Acc::Count(0),
                Terminal::Rows | Terminal::Classified => Acc::Rows(Vec::new()),
                Terminal::DistinctSrcs => Acc::DistinctSrcs(SrcSet::default()),
                Terminal::UniqueSrcAndAsn => Acc::SrcAsn(SrcSet::default(), SrcSet::default()),
                Terminal::CharFreqs(kind) => Acc::CharFreqs(kind, Vec::new()),
            },
            _ => unreachable!("plan validated at submission"),
        }
    }

    fn update(&mut self, plan: &Plan, ds: &Dataset, table: &EventTable, i: usize) {
        if !admits(&plan.preds, table, Some(ds), i) {
            return;
        }
        let src = || u32::from(table.srcs()[i]);
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Rows(v) => v.push(i),
            Acc::DistinctSrcs(s) => s.insert(src()),
            Acc::SrcAsn(srcs, asns) => {
                srcs.insert(src());
                asns.insert(table.src_asns()[i].0);
            }
            Acc::CharFreqs(_, v) => v.push(i),
            Acc::PortSrcs(map) => {
                if let Some(set) = map.get_mut(&table.dst_ports()[i]) {
                    set.insert(src());
                }
            }
            Acc::FingerprintSrcs(map) => {
                if let Some(fp) = ds.fingerprints()[i] {
                    map.entry(fp).or_default().insert(src());
                }
            }
        }
    }

    fn finish(self, ds: &Dataset) -> PlanResult {
        match self {
            Acc::Count(n) => PlanResult::Count(n),
            Acc::Rows(v) => PlanResult::Rows(v),
            Acc::DistinctSrcs(s) => PlanResult::DistinctSrcs(s.into_ips()),
            Acc::SrcAsn(srcs, asns) => PlanResult::UniqueSrcAndAsn(srcs.len(), asns.len()),
            Acc::CharFreqs(kind, v) => {
                // The one resolution point: IDs → strings per distinct ID,
                // after the scan, exactly like `Query::char_freqs`.
                let events: Vec<ClassifiedEvent<'_>> =
                    v.into_iter().map(|i| ds.event(i)).collect();
                PlanResult::CharFreqs(kind.freqs(&events))
            }
            Acc::PortSrcs(m) => PlanResult::PortSrcs(SrcSet::into_ip_map(m)),
            Acc::FingerprintSrcs(m) => PlanResult::FingerprintSrcs(SrcSet::into_ip_map(m)),
        }
    }
}

/// A handle to one submitted [`Plan`]: its index into the `Vec` returned by
/// [`PlanSet::execute`] (submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanId(usize);

impl PlanId {
    /// The plan's position in [`PlanSet::execute`]'s result vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The fusing executor: submitted [`Plan`]s are partitioned by identical
/// row-enumeration domain (the `dsts` pushdown, compared structurally) and
/// each partition runs in **one pass** over the interned columns, every
/// plan's accumulator seeing exactly the rows — in exactly the order — a
/// standalone [`Query`] would have fed it. Results come back in submission
/// order regardless of how plans were grouped into passes.
///
/// The passes run on every core: one worker per hardware thread claims
/// whole partitions, largest first, and runs each from start to finish.
/// No accumulator is ever split or merged, so the results do not depend on
/// the worker count or on which worker ran which pass.
pub struct PlanSet<'a> {
    dataset: &'a Dataset,
    plans: Vec<Plan>,
}

impl<'a> PlanSet<'a> {
    /// An empty plan set over `dataset`.
    pub fn over(dataset: &'a Dataset) -> Self {
        PlanSet {
            dataset,
            plans: Vec::new(),
        }
    }

    /// Submit a plan, validating it first — the typed replacement for the
    /// retired `Batch::plan` `assert!`. The returned [`PlanId`] indexes
    /// [`PlanSet::execute`]'s result vector.
    pub fn submit(&mut self, plan: Plan) -> Result<PlanId, PlanError> {
        plan.validate()?;
        self.plans.push(plan);
        Ok(PlanId(self.plans.len() - 1))
    }

    /// Execute every submitted plan, one fused pass per enumeration
    /// domain, returning results in submission order. The passes are
    /// spread over one worker per hardware thread; a set with one domain
    /// runs on the calling thread alone. A panic inside a pass propagates
    /// from here.
    pub fn execute(self) -> Vec<PlanResult> {
        self.execute_on(par::hardware_threads())
    }

    /// [`PlanSet::execute`] on an explicit number of workers — a test
    /// hook for pinning the worker-count independence of the results.
    #[doc(hidden)]
    pub fn execute_on(self, workers: usize) -> Vec<PlanResult> {
        self.run(workers).0
    }

    /// Execute on `workers` threads; returns the results in submission
    /// order and the number of fused passes it took.
    fn run(self, workers: usize) -> (Vec<PlanResult>, usize) {
        let ds = self.dataset;
        // Partition by identical destination domain, first-submission order.
        let mut domains: HashMap<&Option<Vec<Ipv4Addr>>, usize> = HashMap::new();
        let mut partitions: Vec<(&Option<Vec<Ipv4Addr>>, Vec<usize>)> = Vec::new();
        for (idx, plan) in self.plans.iter().enumerate() {
            let k = *domains.entry(&plan.dsts).or_insert_with(|| {
                partitions.push((&plan.dsts, Vec::new()));
                partitions.len() - 1
            });
            partitions[k].1.push(idx);
        }
        PLANNED_SCANS.fetch_add(self.plans.len() as u64, Ordering::Relaxed);
        // Claim the longest passes first, so a long one never starts last
        // while the other workers sit idle. Ties keep submission order.
        let rows = |dsts: &Option<Vec<Ipv4Addr>>| match dsts {
            Some(ips) => ips
                .iter()
                .filter_map(|&ip| ds.dst_index(ip))
                .map(|idxs| idxs.len())
                .sum(),
            None => ds.table().len(),
        };
        let mut order: Vec<usize> = (0..partitions.len()).collect();
        order.sort_by_cached_key(|&k| std::cmp::Reverse(rows(partitions[k].0)));
        let slots: Vec<OnceLock<PlanResult>> = self.plans.iter().map(|_| OnceLock::new()).collect();
        let pass = |k: usize| {
            let (dsts, members) = &partitions[order[k]];
            for (result, &p) in self.pass(dsts, members).into_iter().zip(members) {
                let _ = slots[p].set(result);
            }
            true
        };
        par::claim_while(partitions.len(), workers, pass, || ());
        let results = slots
            .into_iter()
            .map(|r| r.into_inner().expect("every pass fills its slots"))
            .collect();
        (results, partitions.len())
    }

    /// One fused pass: enumerate `dsts` once, feeding every row to the
    /// accumulators of `members` (plan indices), and finish them in order.
    fn pass(&self, dsts: &Option<Vec<Ipv4Addr>>, members: &[usize]) -> Vec<PlanResult> {
        let ds = self.dataset;
        let table = ds.table();
        FUSED_PASSES.fetch_add(1, Ordering::Relaxed);
        let mut accs: Vec<Acc> = members
            .iter()
            .map(|&p| Acc::for_plan(&self.plans[p]))
            .collect();
        let mut rows = 0u64;
        let mut visit = |i: usize| {
            for (acc, &p) in accs.iter_mut().zip(members) {
                acc.update(&self.plans[p], ds, table, i);
            }
        };
        match dsts {
            Some(ips) => {
                for &ip in ips {
                    let Some(idxs) = ds.dst_index(ip) else { continue };
                    rows += idxs.len() as u64;
                    for &i in idxs {
                        visit(i as usize);
                    }
                }
            }
            None => {
                rows = table.len() as u64;
                (0..table.len()).for_each(visit);
            }
        }
        SCANNED_ROWS.fetch_add(rows, Ordering::Relaxed);
        accs.into_iter().map(|acc| acc.finish(ds)).collect()
    }
}

/// Prefetched plan results, keyed structurally by [`Plan`].
///
/// [`PlanStore::build`] deduplicates the requested plans, executes the
/// distinct ones through one fused [`PlanSet`], and memoizes the typed
/// results; [`ScanExec`] then serves repeated requests as clones without
/// touching the columns again. This is how the exhibit driver turns the
/// registry's declared plans into one fused execution per bundle.
#[derive(Debug)]
pub struct PlanStore {
    results: HashMap<Plan, PlanResult>,
    passes: usize,
}

impl PlanStore {
    /// A store with no prefetched results (every [`ScanExec::run`] misses —
    /// the legacy, unprefetched path).
    pub fn empty() -> Self {
        PlanStore {
            results: HashMap::new(),
            passes: 0,
        }
    }

    /// Deduplicate `plans`, execute the distinct ones in one fused
    /// [`PlanSet`], and memoize the results. Fails on the first invalid
    /// plan without scanning anything.
    pub fn build(dataset: &Dataset, plans: &[Plan]) -> Result<PlanStore, PlanError> {
        let mut seen: HashSet<&Plan> = HashSet::new();
        let distinct: Vec<&Plan> = plans.iter().filter(|&p| seen.insert(p)).collect();
        let mut set = PlanSet::over(dataset);
        for &plan in &distinct {
            set.submit(plan.clone())?;
        }
        let (results, passes) = set.run(par::hardware_threads());
        Ok(PlanStore {
            results: distinct.into_iter().cloned().zip(results).collect(),
            passes,
        })
    }

    /// The memoized result for `plan`, if it was prefetched.
    pub fn get(&self, plan: &Plan) -> Option<&PlanResult> {
        self.results.get(plan)
    }

    /// Number of distinct plans held.
    pub fn plans(&self) -> usize {
        self.results.len()
    }

    /// Number of fused column passes the build cost.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

/// A plan runner over one dataset, with an optional [`PlanStore`] of
/// prefetched results: a store hit clones the memoized result (no column
/// pass, no counter bump — the work happened at prefetch); a miss executes
/// the plan standalone through a one-plan [`PlanSet`]. Both paths return
/// byte-identical results, so modules written against `ScanExec` work
/// unmodified with or without prefetch.
#[derive(Clone, Copy)]
pub struct ScanExec<'a> {
    dataset: &'a Dataset,
    store: Option<&'a PlanStore>,
}

impl<'a> ScanExec<'a> {
    /// An executor with no prefetched results: every plan runs standalone.
    pub fn unplanned(dataset: &'a Dataset) -> Self {
        ScanExec {
            dataset,
            store: None,
        }
    }

    /// An executor serving hits from `store` before falling back to
    /// standalone execution.
    pub fn with_store(dataset: &'a Dataset, store: &'a PlanStore) -> Self {
        ScanExec {
            dataset,
            store: Some(store),
        }
    }

    /// The dataset plans run against (for resolving
    /// [`PlanResult::Rows`] indices).
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Run one plan: store hit → cloned memoized result, miss → standalone
    /// execution (one pass).
    ///
    /// # Panics
    /// Panics if the plan fails [`Plan::validate`] — callers constructing
    /// plans dynamically should validate at submission via
    /// [`PlanSet::submit`] instead.
    pub fn run(&self, plan: &Plan) -> PlanResult {
        if let Some(hit) = self.store.and_then(|s| s.get(plan)) {
            return hit.clone();
        }
        let mut set = PlanSet::over(self.dataset);
        let id = set
            .submit(plan.clone())
            .expect("statically-declared plans validate");
        set.execute().swap_remove(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::capture::Capture;
    use cw_honeypot::deployment::Deployment;
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::LoginService;
    use cw_netsim::time::SimTime;

    const DST: Ipv4Addr = Ipv4Addr::new(20, 10, 0, 0);

    fn event(cap: &Capture, src: u8, port: u16, observed: Observed) -> ScanEvent {
        let _ = cap;
        ScanEvent {
            time: SimTime(60),
            src: Ipv4Addr::new(100, 0, 0, src),
            src_asn: Asn(4134),
            dst: DST,
            dst_port: port,
            observed,
        }
    }

    fn dataset() -> Dataset {
        let mut cap = Capture::new("test");
        let get = Observed::Payload(cap.intern_payload(&cw_scanners::exploits::benign_get("z")));
        let exploit = Observed::Payload(cap.intern_payload(&cw_scanners::exploits::log4shell("x")));
        let creds = Observed::Credentials {
            service: LoginService::Ssh,
            username: cap.intern_cred("root"),
            password: cap.intern_cred("123456"),
        };
        let rows = [
            event(&cap, 1, 23, Observed::Syn),
            event(&cap, 2, 23, Observed::Handshake),
            event(&cap, 2, 2323, Observed::Syn),
            event(&cap, 3, 22, creds),
            event(&cap, 4, 80, get),
            event(&cap, 4, 80, exploit),
            event(&cap, 5, 8080, get),
        ];
        for e in rows {
            cap.record(e);
        }
        Dataset::from_captures(&[&cap], &Deployment::standard())
    }

    #[test]
    fn src_set_matches_a_btree_oracle() {
        let mut rng = cw_netsim::SimRng::seed_from_u64(0x5EC5);
        let mut values: Vec<u32> = (0..5_000).map(|_| rng.next_u32()).collect();
        // Duplicates, the extremes, and addresses apart only in the first
        // octet (their low 24 bits are all equal).
        values.extend_from_within(..1_000);
        values.extend([0, u32::MAX, 0, u32::MAX]);
        values.extend((0..=255u32).map(|a| a << 24 | 0x0A_0B_0C));
        rng.shuffle(&mut values);
        let mut set = SrcSet::default();
        let mut oracle = BTreeSet::new();
        for &v in &values {
            set.insert(v);
            oracle.insert(v);
            assert_eq!(set.len(), oracle.len());
        }
        let ips: BTreeSet<Ipv4Addr> = oracle.into_iter().map(Ipv4Addr::from).collect();
        assert_eq!(set.into_ips(), ips);
    }

    #[test]
    fn fold_hasher_spreads_first_octets_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FoldHasher>::default();
        let hashes: Vec<u64> = (0..=255u32).map(|a| build.hash_one(a << 24)).collect();
        // hashbrown indexes buckets by the low bits and tags by the top 7.
        let buckets: BTreeSet<u64> = hashes.iter().map(|h| h & 0xFF).collect();
        let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() >= 128, "{} low-byte buckets", buckets.len());
        assert!(tags.len() >= 64, "{} top-7-bit tags", tags.len());
    }

    #[test]
    fn predicates_match_hand_rolled_filters() {
        let ds = dataset();
        assert_eq!(ds.query().port(23).count(), 2);
        assert_eq!(ds.query().port_in(&[23, 2323]).count(), 3);
        assert_eq!(ds.query().at(&[DST]).port(80).count(), 2);
        assert_eq!(ds.query().malicious().count(), 2); // creds + log4shell
        assert_eq!(ds.query().fingerprint(ProtocolId::Http).count(), 3);
        assert_eq!(ds.query().kind(ObsKind::Credentials).count(), 1);
        assert_eq!(ds.query().not_kind(ObsKind::Credentials).count(), 6);
        assert_eq!(ds.query().slice(TrafficSlice::HttpAllPorts).count(), 3);
        assert_eq!(ds.query().slice(TrafficSlice::AnyAll).count(), 7);
    }

    #[test]
    fn enumeration_order_matches_the_retired_sweeps() {
        let ds = dataset();
        let manual: Vec<usize> = (0..ds.len())
            .filter(|&i| ds.table().dst_ports()[i] == 80)
            .collect();
        assert_eq!(ds.query().port(80).indices(), manual);
        // Dataset-backed pushdown enumerates via the destination index.
        assert_eq!(ds.query().at(&[DST]).indices(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_aggregates() {
        let ds = dataset();
        assert_eq!(ds.query().port_in(&[23, 2323]).distinct_srcs().len(), 2);
        assert_eq!(ds.query().at(&[DST]).unique_src_and_asn(), (5, 1));
        let by_port = ds.query().group_by_port().keys(&[80, 443]).distinct_srcs();
        assert_eq!(by_port[&80].len(), 1);
        assert!(by_port[&443].is_empty(), "seeded key must be present");
        let by_fp = ds.query().group_by_fingerprint().distinct_srcs();
        assert_eq!(by_fp[&ProtocolId::Http].len(), 2);
        let payloads = ds.query().group_by_src().count_distinct_payloads();
        assert_eq!(payloads[&Ipv4Addr::new(100, 0, 0, 4)], 2);
    }

    #[test]
    fn grouped_counts_without_restriction() {
        let ds = dataset();
        let counts = ds.query().group_by_port().counts();
        assert_eq!(counts[&23], 2);
        assert_eq!(counts[&80], 2);
        assert!(!counts.contains_key(&443));
        let by_asn = ds.query().group_by_asn().counts();
        assert_eq!(by_asn[&4134], 7);
    }

    #[test]
    fn raw_query_over_a_bare_table() {
        let ds = dataset();
        let q = Query::events(ds.table());
        assert_eq!(q.clone().port(23).count(), 2);
        let rows = q.port(8080).rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].dst_port, 8080);
    }

    #[test]
    #[should_panic(expected = "classification predicate")]
    fn raw_query_rejects_classification_predicates() {
        let ds = dataset();
        Query::events(ds.table()).malicious().count();
    }

    #[test]
    fn fused_plans_match_independent_queries() {
        let ds = dataset();
        let ports = [22, 23, 80, 8080];
        let mut set = PlanSet::over(&ds);
        let all_id = set
            .submit(Plan::at(&[DST]).grouped_by_port(&ports).distinct_srcs())
            .unwrap();
        let bad_id = set
            .submit(
                Plan::at(&[DST])
                    .malicious()
                    .grouped_by_port(&ports)
                    .distinct_srcs(),
            )
            .unwrap();
        let mut results = set.execute();
        let bad = results.swap_remove(bad_id.index()).into_port_srcs();
        let all = results.swap_remove(all_id.index()).into_port_srcs();
        let q_all = ds.query().at(&[DST]).group_by_port().keys(&ports).distinct_srcs();
        let q_bad = ds
            .query()
            .at(&[DST])
            .malicious()
            .group_by_port()
            .keys(&ports)
            .distinct_srcs();
        assert_eq!(all, q_all);
        assert_eq!(bad, q_bad);
        assert_eq!(bad[&80].len(), 1);
        assert!(bad[&8080].is_empty());
    }

    #[test]
    fn every_terminal_matches_its_query_twin() {
        let ds = dataset();
        let exec = ScanExec::unplanned(&ds);
        let base = Plan::at(&[DST]).port(80);
        assert_eq!(
            exec.run(&base.clone().count()).into_count(),
            ds.query().at(&[DST]).port(80).count()
        );
        assert_eq!(
            exec.run(&base.clone().rows()).into_rows(),
            ds.query().at(&[DST]).port(80).indices()
        );
        assert_eq!(
            exec.run(&base.clone().distinct_srcs()).into_distinct_srcs(),
            ds.query().at(&[DST]).port(80).distinct_srcs()
        );
        assert_eq!(
            exec.run(&Plan::at(&[DST]).unique_src_and_asn())
                .into_unique_src_and_asn(),
            ds.query().at(&[DST]).unique_src_and_asn()
        );
        assert_eq!(
            exec.run(&base.char_freqs(CharKind::TopAs)).into_char_freqs(),
            ds.query().at(&[DST]).port(80).char_freqs(CharKind::TopAs)
        );
        assert_eq!(
            exec.run(&Plan::scan().fingerprint(ProtocolId::Http).rows())
                .into_rows(),
            ds.query().fingerprint(ProtocolId::Http).indices()
        );
        assert_eq!(
            exec.run(
                &Plan::at(&[DST])
                    .port(80)
                    .grouped_by_fingerprint()
                    .distinct_srcs()
            )
            .into_fingerprint_srcs(),
            ds.query()
                .at(&[DST])
                .port(80)
                .group_by_fingerprint()
                .distinct_srcs()
        );
    }

    #[test]
    fn invalid_group_terminal_combo_is_a_typed_error() {
        let ds = dataset();
        let mut set = PlanSet::over(&ds);
        let bad = Plan::at(&[DST]).grouped_by_port(&[22]).count();
        let err = set.submit(bad.clone()).unwrap_err();
        assert!(matches!(
            err,
            PlanError::Unsupported {
                group: GroupKey::Ports(_),
                terminal: Terminal::Count,
            }
        ));
        assert!(err.to_string().contains("unsupported plan"));
        assert_eq!(PlanStore::build(&ds, &[bad]).unwrap_err(), err);
    }

    #[test]
    fn plan_store_dedupes_and_serves_hits() {
        let ds = dataset();
        let plan = Plan::at(&[DST]).port(23).distinct_srcs();
        let other = Plan::at(&[DST]).malicious().count();
        let store =
            PlanStore::build(&ds, &[plan.clone(), other.clone(), plan.clone()]).unwrap();
        assert_eq!(store.plans(), 2, "duplicate plan must collapse");
        assert_eq!(store.passes(), 1, "same domain must fuse into one pass");
        let before = scan_counters();
        let exec = ScanExec::with_store(&ds, &store);
        assert_eq!(
            exec.run(&plan).into_distinct_srcs(),
            ds.query().at(&[DST]).port(23).distinct_srcs()
        );
        let after = scan_counters().since(before);
        assert_eq!(after.fused, 1, "only the comparison query scans");
        // A plan outside the store falls back to standalone execution.
        assert_eq!(
            exec.run(&Plan::at(&[DST]).port(2323).count()).into_count(),
            1
        );
    }

    #[test]
    fn scan_counters_track_fusion() {
        let ds = dataset();
        let before = scan_counters();
        let mut set = PlanSet::over(&ds);
        set.submit(Plan::at(&[DST]).count()).unwrap();
        set.submit(Plan::at(&[DST]).malicious().count()).unwrap();
        set.submit(Plan::scan().count()).unwrap();
        set.execute();
        let d = scan_counters().since(before);
        assert_eq!(d.planned, 3);
        assert_eq!(d.fused, 2, "two domains -> two passes");
        assert_eq!(d.rows, 14, "7 fleet rows + 7 table rows");
    }
}

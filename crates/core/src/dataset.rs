//! The queryable event store behind every analysis.
//!
//! A [`Dataset`] flattens all honeypot captures into one columnar
//! [`EventTable`], attaches vantage metadata, pre-classifies every event
//! with the vetted ruleset (§3.2), and exposes the §3.3 traffic slices.
//! It also writes the released dataset as CSV/JSONL/pcap. Analyses sweep
//! it through the typed query layer ([`Dataset::query`], [`crate::query`]):
//! the sweep shorthands on this type are thin query expressions.
//!
//! # Interned, memoized classification
//!
//! Events carry [`PayloadId`]/[`cw_netsim::intern::CredId`] handles instead of bytes. The
//! build step remaps each capture's ids into the dataset's own
//! [`Interner`] (captures of one deployment share an id space, so the
//! remap runs once per deployment, not once per capture) and then
//! classifies + LZR-fingerprints **once per distinct `(PayloadId, port)`
//! pair** — a memo over a few thousand distinct payloads instead of a
//! rule-matcher run per event. Verdicts are pure functions of
//! `(payload bytes, port)`, so memoization is observationally identical
//! to the per-event path.
//!
//! The same remap machinery powers [`Dataset::absorb`]: fleet workers
//! build worker-local datasets whose interners are merged in stream-id
//! order, keeping merged output byte-identical for any thread count.

use cw_detection::{is_malicious_payload, RuleSet, Verdict};
use cw_honeypot::capture::{Capture, EventTable, Observed, ScanEvent};
use cw_honeypot::deployment::{Deployment, VantagePoint};
use cw_netsim::flow::LoginService;
use cw_netsim::intern::{CredId, Interner, PayloadId, Remap};
use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use cw_protocols::ProtocolId;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::Ipv4Addr;

/// The §3.3 traffic slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficSlice {
    /// Traffic to port 22.
    SshPort22,
    /// Traffic to port 23.
    TelnetPort23,
    /// Traffic to port 80.
    HttpPort80,
    /// HTTP-fingerprinted payloads on any port ("HTTP/All Ports").
    HttpAllPorts,
    /// Everything ("Any/All").
    AnyAll,
}

impl TrafficSlice {
    /// The slices of Table 2/4/5/7.
    pub const PAPER: [TrafficSlice; 4] = [
        TrafficSlice::SshPort22,
        TrafficSlice::TelnetPort23,
        TrafficSlice::HttpPort80,
        TrafficSlice::HttpAllPorts,
    ];

    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficSlice::SshPort22 => "SSH/22",
            TrafficSlice::TelnetPort23 => "Telnet/23",
            TrafficSlice::HttpPort80 => "HTTP/80",
            TrafficSlice::HttpAllPorts => "HTTP/All",
            TrafficSlice::AnyAll => "Any/All",
        }
    }
}

/// A classified event: the capture record plus analysis metadata, with a
/// borrow of the dataset's interner so display strings resolve on demand.
#[derive(Debug, Clone, Copy)]
pub struct ClassifiedEvent<'a> {
    /// The raw observation (interned ids in the dataset's id space).
    pub event: ScanEvent,
    /// §3.2 verdict.
    pub verdict: Verdict,
    /// LZR fingerprint of the payload, if one was observed.
    pub fingerprint: Option<ProtocolId>,
    interner: &'a Interner,
}

impl<'a> ClassifiedEvent<'a> {
    /// Assemble a classified event from parts — for harnesses that
    /// classify outside a [`Dataset`] (the leak experiment, axes tests).
    /// `interner` must be the interner `event`'s ids were minted by.
    pub fn new(
        event: ScanEvent,
        verdict: Verdict,
        fingerprint: Option<ProtocolId>,
        interner: &'a Interner,
    ) -> Self {
        ClassifiedEvent {
            event,
            verdict,
            fingerprint,
            interner,
        }
    }

    /// Does the event fall into a traffic slice?
    pub fn in_slice(&self, slice: TrafficSlice) -> bool {
        match slice {
            TrafficSlice::SshPort22 => self.event.dst_port == 22,
            TrafficSlice::TelnetPort23 => self.event.dst_port == 23,
            TrafficSlice::HttpPort80 => self.event.dst_port == 80,
            TrafficSlice::HttpAllPorts => self.fingerprint == Some(ProtocolId::Http),
            TrafficSlice::AnyAll => true,
        }
    }

    /// The interner this event's ids resolve against.
    pub fn interner(&self) -> &'a Interner {
        self.interner
    }

    /// The observed payload bytes, if any.
    pub fn payload_bytes(&self) -> Option<&'a [u8]> {
        self.event.observed.payload().map(|p| self.interner.payload(p))
    }

    /// The harvested username, if this was a credential observation.
    pub fn username(&self) -> Option<&'a str> {
        match self.event.observed {
            Observed::Credentials { username, .. } => Some(self.interner.cred(username)),
            _ => None,
        }
    }

    /// The harvested password, if this was a credential observation.
    pub fn password(&self) -> Option<&'a str> {
        match self.event.observed {
            Observed::Credentials { password, .. } => Some(self.interner.cred(password)),
            _ => None,
        }
    }
}

/// The flattened, classified event store (columnar, interned).
///
/// Row ids are `u32` inside the destination index, so one dataset holds
/// at most `u32::MAX` rows (about 2,800 full-scale worlds of ~1.5M rows);
/// building or absorbing past that panics, and a snapshot claiming more
/// is rejected as malformed.
#[derive(Debug, Clone)]
pub struct Dataset {
    table: EventTable,
    verdicts: Vec<Verdict>,
    fingerprints: Vec<Option<ProtocolId>>,
    interner: Interner,
    vantage_by_ip: BTreeMap<Ipv4Addr, VantagePoint>,
    by_dst: DstIndex,
}

/// Row ids grouped by destination IP, in compressed-sparse-row form: the
/// rows destined to `ips[k]` are `rows[offsets[k]..offsets[k + 1]]`, in
/// row order. `ips` is sorted and lists only destinations with rows.
#[derive(Debug, Clone, Default)]
struct DstIndex {
    ips: Vec<Ipv4Addr>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl DstIndex {
    /// Index the destination column `dsts`: one counting pass gives each
    /// destination a dense first-seen id and a row count, then the rows
    /// are placed into their destination's slot in row order.
    fn build(dsts: &[Ipv4Addr]) -> DstIndex {
        let n = u32::try_from(dsts.len()).expect("dataset row ids fit in u32");
        let mut first_seen: HashMap<Ipv4Addr, u32> = HashMap::new();
        let mut counts: Vec<u32> = Vec::new();
        let row_ids: Vec<u32> = dsts
            .iter()
            .map(|&ip| {
                let next = counts.len() as u32;
                let id = *first_seen.entry(ip).or_insert(next);
                if id == next {
                    counts.push(0);
                }
                counts[id as usize] += 1;
                id
            })
            .collect();
        let mut keys: Vec<(Ipv4Addr, u32)> = first_seen.into_iter().collect();
        keys.sort_unstable();
        let mut cursor = vec![0u32; keys.len()];
        let mut offsets = Vec::with_capacity(keys.len() + 1);
        offsets.push(0);
        let mut end = 0;
        for &(_, id) in &keys {
            cursor[id as usize] = end;
            end += counts[id as usize];
            offsets.push(end);
        }
        let mut rows = vec![0u32; dsts.len()];
        for (row, &id) in (0..n).zip(&row_ids) {
            let at = &mut cursor[id as usize];
            rows[*at as usize] = row;
            *at += 1;
        }
        let ips = keys.into_iter().map(|(ip, _)| ip).collect();
        DstIndex { ips, offsets, rows }
    }

    /// The rows destined to `ip`, in row order.
    fn get(&self, ip: Ipv4Addr) -> Option<&[u32]> {
        let k = self.ips.binary_search(&ip).ok()?;
        Some(&self.rows[self.offsets[k] as usize..self.offsets[k + 1] as usize])
    }

    /// The index of `self`'s rows followed by `other`'s rows shifted up by
    /// `base`: each key's rows are `self`'s (all below `base`) then
    /// `other`'s, so they stay in row order. Linear in the rows; the
    /// per-key lookups are over the few hundred destinations.
    fn merged(&self, other: &DstIndex, base: u32) -> DstIndex {
        let total = self.rows.len() + other.rows.len();
        assert!(u32::try_from(total).is_ok(), "dataset row ids fit in u32");
        let mut ips = [self.ips.as_slice(), other.ips.as_slice()].concat();
        ips.sort_unstable();
        ips.dedup();
        let mut offsets = Vec::with_capacity(ips.len() + 1);
        let mut rows = Vec::with_capacity(total);
        offsets.push(0);
        for &ip in &ips {
            rows.extend_from_slice(self.get(ip).unwrap_or_default());
            rows.extend(other.get(ip).unwrap_or_default().iter().map(|&r| r + base));
            offsets.push(rows.len() as u32);
        }
        DstIndex { ips, offsets, rows }
    }
}

/// Per-distinct classification memo: `(payload id, port)` → verdict +
/// fingerprint. Ids are in the dataset's interner space.
type ClassifyMemo = HashMap<(PayloadId, u16), (Verdict, Option<ProtocolId>)>;

/// Incremental assembler for a [`Dataset`] — what both the scenario run
/// and [`Dataset::from_captures`] build through.
///
/// The scenario run drains every shard's captures at each window boundary
/// ([`Capture::take_rows`]) and feeds the merged rows here as they appear.
/// The builder keeps one accumulation slot per capture so the finished
/// dataset's row order is capture 0's rows (in recording order), then
/// capture 1's, and so on, whatever the window size. `tests/determinism.rs`
/// enforces byte-identity across window sizes and shard counts.
///
/// Two ingestion calls exist:
///
/// - [`DatasetBuilder::push_event`] appends one event already in the
///   builder's id space — the scenario merge interns lazily in global
///   `(time, agent, seq)` order via [`DatasetBuilder::intern_payload`] /
///   [`DatasetBuilder::intern_cred`];
/// - [`DatasetBuilder::absorb_table`] bulk-appends a whole table whose ids
///   are translated through a [`Remap`] kept current with
///   [`DatasetBuilder::extend_remap`] ([`Dataset::from_captures`]).
pub struct DatasetBuilder {
    slots: Vec<BuilderSlot>,
    interner: Interner,
    memo: ClassifyMemo,
    rules: &'static RuleSet,
    vantage_by_ip: BTreeMap<Ipv4Addr, VantagePoint>,
}

/// One capture's accumulated, already-classified rows (dataset id space).
#[derive(Default)]
struct BuilderSlot {
    table: EventTable,
    verdicts: Vec<Verdict>,
    fingerprints: Vec<Option<ProtocolId>>,
}

impl DatasetBuilder {
    /// An empty builder with `slots` capture slots over `deployment`'s
    /// vantage metadata. Slot indices follow the deployment's honeypot
    /// registration order — the same order [`Dataset::from_captures`]
    /// walks.
    pub fn new(deployment: &Deployment, slots: usize) -> Self {
        let vantage_by_ip: BTreeMap<Ipv4Addr, VantagePoint> = deployment
            .vantages
            .iter()
            .map(|v| (v.ip, v.clone()))
            .collect();
        DatasetBuilder {
            slots: (0..slots).map(|_| BuilderSlot::default()).collect(),
            interner: Interner::new(),
            memo: HashMap::new(),
            rules: RuleSet::builtin_cached(),
            vantage_by_ip,
        }
    }

    /// Pre-size the builder's interner arenas and classification memo for
    /// an expected number of distinct payloads/credentials (derived from
    /// the scenario scale). A pure allocation hint.
    pub fn with_interner_capacity(mut self, payloads: usize, creds: usize) -> Self {
        self.interner.reserve(payloads, creds);
        self.memo.reserve(payloads);
        self
    }

    /// Bring `remap` up to date with `src`: every value `src` has interned
    /// since the last call gets a dataset-space id, in `src`'s insertion
    /// order. See [`Interner::extend_remap_from`] for why the incremental
    /// schedule reproduces the one-shot remap exactly.
    pub fn extend_remap(&mut self, src: &Interner, remap: &mut Remap) {
        self.interner.extend_remap_from(src, remap);
    }

    /// Intern a payload blob directly into the builder's id space (the
    /// sharded merge's first-occurrence re-interning).
    pub fn intern_payload(&mut self, bytes: &[u8]) -> PayloadId {
        self.interner.intern_payload(bytes)
    }

    /// Intern a credential string directly into the builder's id space.
    pub fn intern_cred(&mut self, s: &str) -> CredId {
        self.interner.intern_cred(s)
    }

    /// Append one drained chunk to slot `slot`, translating ids through
    /// `remap` (which must already cover them — call
    /// [`DatasetBuilder::extend_remap`] first) and classifying each row
    /// with the per-distinct memo.
    pub fn absorb_table(&mut self, slot: usize, table: &EventTable, remap: &Remap) {
        let s = &mut self.slots[slot];
        let base = s.table.len();
        s.table
            .extend_remapped(table, |observed| remap_observed(observed, remap));
        let observed = &s.table.observed()[base..];
        let ports = &s.table.dst_ports()[base..];
        for (&observed, &port) in observed.iter().zip(ports) {
            let (verdict, fingerprint) =
                classify_interned(observed, port, &self.interner, self.rules, &mut self.memo);
            s.verdicts.push(verdict);
            s.fingerprints.push(fingerprint);
        }
    }

    /// Append one event (ids already in the builder's space) to slot
    /// `slot`, classifying it with the per-distinct memo.
    pub fn push_event(&mut self, slot: usize, event: ScanEvent) {
        let (verdict, fingerprint) = classify_interned(
            event.observed,
            event.dst_port,
            &self.interner,
            self.rules,
            &mut self.memo,
        );
        let s = &mut self.slots[slot];
        s.table.push(event);
        s.verdicts.push(verdict);
        s.fingerprints.push(fingerprint);
    }

    /// Total rows accumulated so far, across all slots.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.table.len()).sum()
    }

    /// Whether nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assemble the final [`Dataset`]: concatenate the slots in capture
    /// order and build the destination index. Each slot's storage is
    /// dropped as soon as it is copied, so the transient overlay above the
    /// final columns shrinks as assembly proceeds.
    pub fn finish(self) -> Dataset {
        let total: usize = self.slots.iter().map(|s| s.table.len()).sum();
        let mut ds = Dataset {
            table: EventTable::with_capacity(total),
            verdicts: Vec::with_capacity(total),
            fingerprints: Vec::with_capacity(total),
            interner: self.interner,
            vantage_by_ip: self.vantage_by_ip,
            by_dst: DstIndex::default(),
        };
        for slot in self.slots {
            ds.table.extend_remapped(&slot.table, |o| o);
            ds.verdicts.extend(slot.verdicts);
            ds.fingerprints.extend(slot.fingerprints);
        }
        ds.by_dst = DstIndex::build(ds.table.dsts());
        ds
    }
}

impl Dataset {
    /// Build from captures and the deployment's vantage metadata.
    ///
    /// Every capture is complete before assembly starts; each is absorbed
    /// as one whole chunk through the same [`DatasetBuilder`] the scenario
    /// run feeds, so classification and slot order cannot drift apart.
    pub fn from_captures(captures: &[&Capture], deployment: &Deployment) -> Self {
        let mut b = DatasetBuilder::new(deployment, captures.len());
        // Captures of one deployment share an interner; cache the remap by
        // source-interner identity so it is computed once, not per capture.
        let mut cached: Option<(*const (), Remap)> = None;
        for (slot, cap) in captures.iter().enumerate() {
            let src_interner = cap.interner();
            let key = std::rc::Rc::as_ptr(&src_interner) as *const ();
            let remap = match &cached {
                Some((k, remap)) if *k == key => remap.clone(),
                _ => {
                    let mut remap = Remap::identity();
                    b.extend_remap(&src_interner.borrow(), &mut remap);
                    cached = Some((key, remap.clone()));
                    remap
                }
            };
            b.absorb_table(slot, cap.table(), &remap);
        }
        b.finish()
    }

    /// An empty dataset — the identity element for [`Dataset::absorb`].
    pub fn empty() -> Self {
        Dataset {
            table: EventTable::new(),
            verdicts: Vec::new(),
            fingerprints: Vec::new(),
            interner: Interner::new(),
            vantage_by_ip: BTreeMap::new(),
            by_dst: DstIndex::default(),
        }
    }

    /// Fold another dataset into this one — the fleet merge step.
    ///
    /// `other`'s events are appended after `self`'s (its destination index
    /// is merged into `self`'s, its row ids rebased by `self.len()`) and
    /// its interned ids are remapped into `self`'s id space by
    /// re-interning `other`'s distinct values in *their* insertion order. Folding per-run datasets in stream-id order
    /// therefore yields the same merged dataset — same ids, same bytes —
    /// for any worker-thread count. Vantage metadata is unioned; identical
    /// IPs must describe identical vantages (always true for runs built
    /// from [`Deployment::standard`]).
    pub fn absorb(&mut self, other: Dataset) {
        let base = u32::try_from(self.table.len()).expect("dataset row ids fit in u32");
        self.by_dst = self.by_dst.merged(&other.by_dst, base);
        let remap = self.interner.remap_from(&other.interner);
        self.table
            .extend_remapped(&other.table, |o| remap_observed(o, &remap));
        // Verdicts/fingerprints are pure functions of (bytes, port) and
        // bytes survive remapping unchanged — copy them straight over.
        self.verdicts.extend(other.verdicts);
        self.fingerprints.extend(other.fingerprints);
        self.vantage_by_ip.extend(other.vantage_by_ip);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the dataset holds no events.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The interner every event id resolves against.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The columnar event store.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// The §3.2 verdict column (parallel to the event table's rows).
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The LZR fingerprint column (parallel to the event table's rows).
    pub fn fingerprints(&self) -> &[Option<ProtocolId>] {
        &self.fingerprints
    }

    /// Row indices destined to `ip`, in capture order — the pushdown index
    /// behind [`crate::query::Query::at`]. `None` when no row has that
    /// destination. Ids are `u32` (see the row limit on [`Dataset`]);
    /// callers widen them to `usize` to index the columns.
    pub(crate) fn dst_index(&self, ip: Ipv4Addr) -> Option<&[u32]> {
        self.by_dst.get(ip)
    }

    /// Start a typed query over this dataset (see [`crate::query`]).
    ///
    /// The sweep helpers below ([`Dataset::events_at_in`],
    /// [`Dataset::sources_on_port`], [`Dataset::port_source_sets`], …) are
    /// retained as shorthands and are themselves thin query expressions.
    pub fn query(&self) -> crate::query::Query<'_> {
        crate::query::Query::over(self)
    }

    /// Event `i` with its classification.
    pub fn event(&self, i: usize) -> ClassifiedEvent<'_> {
        ClassifiedEvent {
            event: self.table.get(i),
            verdict: self.verdicts[i],
            fingerprint: self.fingerprints[i],
            interner: &self.interner,
        }
    }

    /// All classified events, in capture order.
    pub fn events(&self) -> impl Iterator<Item = ClassifiedEvent<'_>> {
        (0..self.len()).map(move |i| self.event(i))
    }

    /// Events destined to one vantage IP.
    pub fn events_at(&self, ip: Ipv4Addr) -> Vec<ClassifiedEvent<'_>> {
        self.query().at(&[ip]).classified()
    }

    /// Events at one vantage IP within a slice.
    pub fn events_at_in(&self, ip: Ipv4Addr, slice: TrafficSlice) -> Vec<ClassifiedEvent<'_>> {
        self.query().at(&[ip]).slice(slice).classified()
    }

    /// Events pooled across a set of vantage IPs within a slice
    /// (enumerated per IP, in the order given).
    pub fn events_at_group(
        &self,
        ips: &[Ipv4Addr],
        slice: TrafficSlice,
    ) -> Vec<ClassifiedEvent<'_>> {
        self.query().at(ips).slice(slice).classified()
    }

    /// Vantage metadata for an observed IP.
    pub fn vantage(&self, ip: Ipv4Addr) -> Option<&VantagePoint> {
        self.vantage_by_ip.get(&ip)
    }

    /// Distinct source IPs seen on one port across a set of vantages.
    pub fn sources_on_port(&self, ips: &[Ipv4Addr], port: u16) -> std::collections::BTreeSet<Ipv4Addr> {
        self.query().at(ips).port(port).distinct_srcs()
    }

    /// Distinct *attacker* source IPs (≥1 malicious event) on one port.
    pub fn malicious_sources_on_port(
        &self,
        ips: &[Ipv4Addr],
        port: u16,
    ) -> std::collections::BTreeSet<Ipv4Addr> {
        self.query().at(ips).port(port).malicious().distinct_srcs()
    }

    /// Distinct source IPs per destination port across a vantage set, for
    /// a fixed port list, in one sweep. Tables 8/9 ask for ~10 ports over
    /// the same 440-vantage fleet; per-port [`Self::sources_on_port`]
    /// calls would rescan the same rows once per port. (Tables that also
    /// coincide on the vantage set share one scan via a fused
    /// [`crate::query::PlanSet`].)
    pub fn port_source_sets(
        &self,
        ips: &[Ipv4Addr],
        ports: &[u16],
        malicious_only: bool,
    ) -> std::collections::BTreeMap<u16, std::collections::BTreeSet<Ipv4Addr>> {
        let q = if malicious_only {
            self.query().malicious()
        } else {
            self.query()
        };
        q.at(ips).group_by_port().keys(ports).distinct_srcs()
    }

    /// Distinct (source IP, source AS) pairs across a set of vantages —
    /// Table 1's unique-scanner columns.
    pub fn unique_sources(&self, ips: &[Ipv4Addr]) -> (usize, usize) {
        self.query().at(ips).unique_src_and_asn()
    }

    /// Encode the dataset into a snapshot payload: the interner, the
    /// columnar table, and both classification columns. The derived
    /// indexes (`vantage_by_ip`, `by_dst`) are *not* written — they are
    /// pure functions of the table and the deployment, so
    /// [`Dataset::snap_read`] rebuilds them instead of trusting the disk.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        self.interner.snap_write(w);
        self.table.snap_write(w);
        w.put_u64(self.verdicts.len() as u64);
        for v in &self.verdicts {
            w.put_u8(match v {
                Verdict::Attacker => 0,
                Verdict::Scanner => 1,
            });
        }
        w.put_u64(self.fingerprints.len() as u64);
        for fp in &self.fingerprints {
            w.put_u8(match fp {
                None => 0xFF,
                // The stable wire id of a protocol is its index in
                // `ProtocolId::ALL` (13 variants, fits a u8).
                Some(p) => ProtocolId::ALL
                    .iter()
                    .position(|q| q == p)
                    .expect("every ProtocolId appears in ALL") as u8,
            });
        }
    }

    /// Decode a dataset from a snapshot payload, rebuilding the derived
    /// indexes from `deployment` (which must be the deployment the dataset
    /// was captured on — always [`Deployment::standard`] here).
    ///
    /// Beyond the container hash, this validates that every interned id in
    /// the table resolves inside the decoded interner, so a logically
    /// inconsistent snapshot is rejected rather than panicking later.
    pub fn snap_read(
        r: &mut SnapReader<'_>,
        deployment: &Deployment,
    ) -> Result<Dataset, SnapError> {
        let interner = Interner::snap_read(r)?;
        let table = EventTable::snap_read(r)?;
        for o in table.observed() {
            match *o {
                Observed::Payload(p) => {
                    if p.index() >= interner.payload_count() {
                        return Err(SnapError::Malformed("payload id out of interner range"));
                    }
                }
                Observed::Credentials {
                    username, password, ..
                } => {
                    if username.index() >= interner.cred_count()
                        || password.index() >= interner.cred_count()
                    {
                        return Err(SnapError::Malformed("credential id out of interner range"));
                    }
                }
                Observed::Syn | Observed::Handshake => {}
            }
        }
        if r.get_count()? != table.len() {
            return Err(SnapError::Malformed("verdict column length mismatch"));
        }
        let mut verdicts = Vec::with_capacity(table.len());
        for [tag] in r.get_column(table.len())? {
            verdicts.push(match tag {
                0 => Verdict::Attacker,
                1 => Verdict::Scanner,
                _ => return Err(SnapError::Malformed("unknown verdict tag")),
            });
        }
        if r.get_count()? != table.len() {
            return Err(SnapError::Malformed("fingerprint column length mismatch"));
        }
        let mut fingerprints = Vec::with_capacity(table.len());
        for [tag] in r.get_column(table.len())? {
            fingerprints.push(match tag {
                0xFF => None,
                t if (t as usize) < ProtocolId::ALL.len() => Some(ProtocolId::ALL[t as usize]),
                _ => return Err(SnapError::Malformed("unknown protocol fingerprint tag")),
            });
        }
        let vantage_by_ip: BTreeMap<Ipv4Addr, VantagePoint> = deployment
            .vantages
            .iter()
            .map(|v| (v.ip, v.clone()))
            .collect();
        if u32::try_from(table.len()).is_err() {
            return Err(SnapError::Malformed("more rows than u32 row ids can index"));
        }
        let by_dst = DstIndex::build(table.dsts());
        Ok(Dataset {
            table,
            verdicts,
            fingerprints,
            interner,
            vantage_by_ip,
            by_dst,
        })
    }

    /// Write the dataset as CSV (one row per event; payloads hex-encoded).
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "time,src,src_asn,dst,dst_port,kind,verdict,fingerprint,username,password,payload_hex"
        )?;
        for ce in self.events() {
            let e = &ce.event;
            let (kind, user, pass, payload) = match e.observed {
                Observed::Syn => ("syn", "", "", String::new()),
                Observed::Handshake => ("handshake", "", "", String::new()),
                Observed::Payload(p) => ("payload", "", "", hex(self.interner.payload(p))),
                Observed::Credentials {
                    username, password, ..
                } => (
                    "credentials",
                    self.interner.cred(username),
                    self.interner.cred(password),
                    String::new(),
                ),
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{},{}",
                e.time.secs(),
                e.src,
                e.src_asn.0,
                e.dst,
                e.dst_port,
                kind,
                match ce.verdict {
                    Verdict::Attacker => "attacker",
                    Verdict::Scanner => "scanner",
                },
                ce.fingerprint.map(|p| p.label()).unwrap_or(""),
                csv_escape(user),
                csv_escape(pass),
                payload,
            )?;
        }
        Ok(())
    }

    /// Write the dataset as a libpcap capture (synthesized Ethernet/IPv4/TCP
    /// frames; opens in Wireshark/tcpdump). `epoch` is the UNIX timestamp of
    /// simulated time zero — e.g. 1625097600 for 2021-07-01T00:00:00Z.
    ///
    /// Credential observations are rendered as the client's first protocol
    /// bytes (SSH banner / Telnet negotiation) since a pcap carries wire
    /// data, not harvested application state.
    pub fn write_pcap<W: Write>(&self, w: W, epoch: u32) -> std::io::Result<()> {
        use cw_netsim::pcap::PcapWriter;
        const TELNET_NEGOTIATION: &[u8] = &[0xFF, 0xFD, 0x01, 0xFF, 0xFD, 0x03];
        let mut pcap = PcapWriter::new(w, epoch)?;
        for ce in self.events() {
            let e = &ce.event;
            // Deterministic ephemeral source port derived from the flow.
            let src_port = 32_768 + (cw_netsim::rng::fnv1a(&e.src.octets()) % 28_000) as u16;
            let (payload, syn_only): (&[u8], bool) = match e.observed {
                Observed::Syn => (&[], true),
                Observed::Handshake => (&[], false),
                Observed::Payload(p) => (self.interner.payload(p), false),
                Observed::Credentials { service, .. } => match service {
                    LoginService::Ssh => (cw_netsim::flow::SSH_CLIENT_BANNER, false),
                    LoginService::Telnet => (TELNET_NEGOTIATION, false),
                },
            };
            pcap.write_tcp(e.time, e.src, src_port, e.dst, e.dst_port, payload, syn_only)?;
        }
        pcap.finish()?;
        Ok(())
    }

    /// Write the dataset as JSON Lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for ce in self.events() {
            let e = &ce.event;
            let mut obj = format!(
                "{{\"time\":{},\"src\":\"{}\",\"src_asn\":{},\"dst\":\"{}\",\"dst_port\":{},\"verdict\":\"{}\"",
                e.time.secs(),
                e.src,
                e.src_asn.0,
                e.dst,
                e.dst_port,
                match ce.verdict {
                    Verdict::Attacker => "attacker",
                    Verdict::Scanner => "scanner",
                }
            );
            match e.observed {
                Observed::Syn => obj.push_str(",\"kind\":\"syn\""),
                Observed::Handshake => obj.push_str(",\"kind\":\"handshake\""),
                Observed::Payload(p) => {
                    obj.push_str(&format!(
                        ",\"kind\":\"payload\",\"payload_hex\":\"{}\"",
                        hex(self.interner.payload(p))
                    ));
                }
                Observed::Credentials {
                    username, password, ..
                } => {
                    obj.push_str(&format!(
                        ",\"kind\":\"credentials\",\"username\":{},\"password\":{}",
                        json_string(self.interner.cred(username)),
                        json_string(self.interner.cred(password))
                    ));
                }
            }
            if let Some(fp) = ce.fingerprint {
                obj.push_str(&format!(",\"fingerprint\":\"{}\"", fp.label()));
            }
            obj.push('}');
            writeln!(w, "{obj}")?;
        }
        Ok(())
    }
}

fn remap_observed(o: Observed, remap: &Remap) -> Observed {
    match o {
        Observed::Syn => Observed::Syn,
        Observed::Handshake => Observed::Handshake,
        Observed::Payload(p) => Observed::Payload(remap.payload(p)),
        Observed::Credentials {
            service,
            username,
            password,
        } => Observed::Credentials {
            service,
            username: remap.cred(username),
            password: remap.cred(password),
        },
    }
}

/// Classify one interned observation per §3.2, memoized per distinct
/// `(payload, port)` pair.
fn classify_interned(
    observed: Observed,
    dst_port: u16,
    interner: &Interner,
    rules: &RuleSet,
    memo: &mut ClassifyMemo,
) -> (Verdict, Option<ProtocolId>) {
    match observed {
        Observed::Syn | Observed::Handshake => (Verdict::Scanner, None),
        Observed::Payload(p) => *memo.entry((p, dst_port)).or_insert_with(|| {
            let bytes = interner.payload(p);
            let verdict = if is_malicious_payload(bytes, dst_port, rules) {
                Verdict::Attacker
            } else {
                Verdict::Scanner
            };
            (verdict, cw_protocols::fingerprint(bytes))
        }),
        Observed::Credentials { service, .. } => {
            let fp = match service {
                LoginService::Ssh => Some(ProtocolId::Ssh),
                LoginService::Telnet => Some(ProtocolId::Telnet),
            };
            (Verdict::Attacker, fp)
        }
    }
}

/// Classify one capture event per §3.2, resolving ids via `interner`.
///
/// This is the unmemoized reference path; [`Dataset::from_captures`] uses
/// the per-distinct memo internally and must agree with this function on
/// every event (the equivalence tests enforce it).
pub fn classify_event(
    e: &ScanEvent,
    interner: &Interner,
    rules: &RuleSet,
) -> (Verdict, Option<ProtocolId>) {
    match e.observed {
        Observed::Syn | Observed::Handshake => (Verdict::Scanner, None),
        Observed::Payload(p) => {
            let bytes = interner.payload(p);
            let verdict = if is_malicious_payload(bytes, e.dst_port, rules) {
                Verdict::Attacker
            } else {
                Verdict::Scanner
            };
            (verdict, cw_protocols::fingerprint(bytes))
        }
        Observed::Credentials { service, .. } => {
            let fp = match service {
                LoginService::Ssh => Some(ProtocolId::Ssh),
                LoginService::Telnet => Some(ProtocolId::Telnet),
            };
            (Verdict::Attacker, fp)
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0x0F) as usize] as char);
    }
    s
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_netsim::asn::Asn;
    use cw_netsim::time::SimTime;

    /// Test-side raw observation (bytes, pre-interning).
    enum Raw {
        Syn,
        Handshake,
        Payload(Vec<u8>),
        Creds(LoginService, &'static str, &'static str),
    }

    struct Builder {
        cap: Capture,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                cap: Capture::new("test"),
            }
        }

        fn push_from(&mut self, src: Ipv4Addr, asn: Asn, dst_port: u16, raw: Raw) {
            let observed = match raw {
                Raw::Syn => Observed::Syn,
                Raw::Handshake => Observed::Handshake,
                Raw::Payload(p) => Observed::Payload(self.cap.intern_payload(&p)),
                Raw::Creds(service, u, p) => Observed::Credentials {
                    service,
                    username: self.cap.intern_cred(u),
                    password: self.cap.intern_cred(p),
                },
            };
            self.cap.record(ScanEvent {
                time: SimTime(60),
                src,
                src_asn: asn,
                dst: Ipv4Addr::new(20, 10, 0, 0),
                dst_port,
                observed,
            });
        }

        fn push(&mut self, dst_port: u16, raw: Raw) {
            self.push_from(Ipv4Addr::new(100, 0, 0, 1), Asn(4134), dst_port, raw);
        }

        fn build(self) -> Dataset {
            let deployment = Deployment::standard();
            Dataset::from_captures(&[&self.cap], &deployment)
        }
    }

    #[test]
    fn classification_is_applied() {
        let mut b = Builder::new();
        b.push(22, Raw::Creds(LoginService::Ssh, "root", "123456"));
        b.push(80, Raw::Payload(cw_scanners::exploits::log4shell("x")));
        b.push(80, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
        b.push(443, Raw::Handshake);
        let ds = b.build();
        let verdicts: Vec<Verdict> = ds.events().map(|e| e.verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Attacker,
                Verdict::Attacker,
                Verdict::Scanner,
                Verdict::Scanner
            ]
        );
    }

    #[test]
    fn memoized_build_matches_reference_classification() {
        let mut b = Builder::new();
        // Duplicate payloads on the same and different ports exercise the
        // memo's (id, port) key.
        for _ in 0..3 {
            b.push(80, Raw::Payload(cw_scanners::exploits::log4shell("x")));
            b.push(80, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
            b.push(8080, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
            b.push(22, Raw::Creds(LoginService::Ssh, "root", "root"));
            b.push(443, Raw::Syn);
        }
        let ds = b.build();
        let rules = RuleSet::builtin_cached();
        for ce in ds.events() {
            let (v, fp) = classify_event(&ce.event, ds.interner(), rules);
            assert_eq!((v, fp), (ce.verdict, ce.fingerprint));
        }
    }

    #[test]
    fn slices_select_correctly() {
        let mut b = Builder::new();
        b.push(22, Raw::Handshake);
        b.push(23, Raw::Handshake);
        b.push(8080, Raw::Payload(cw_scanners::exploits::benign_get("x")));
        b.push(
            8080,
            Raw::Payload(cw_protocols::tls::build_client_hello(1, None)),
        );
        let ds = b.build();
        let ip = Ipv4Addr::new(20, 10, 0, 0);
        assert_eq!(ds.events_at_in(ip, TrafficSlice::SshPort22).len(), 1);
        assert_eq!(ds.events_at_in(ip, TrafficSlice::TelnetPort23).len(), 1);
        assert_eq!(ds.events_at_in(ip, TrafficSlice::HttpPort80).len(), 0);
        // HTTP/All catches the HTTP payload on 8080 but not the TLS one.
        assert_eq!(ds.events_at_in(ip, TrafficSlice::HttpAllPorts).len(), 1);
        assert_eq!(ds.events_at_in(ip, TrafficSlice::AnyAll).len(), 4);
    }

    #[test]
    fn source_sets_and_unique_counts() {
        let mut b = Builder::new();
        b.push_from(Ipv4Addr::new(100, 0, 0, 1), Asn(4134), 22, Raw::Handshake);
        b.push_from(
            Ipv4Addr::new(100, 0, 0, 2),
            Asn(174),
            22,
            Raw::Creds(LoginService::Ssh, "root", "root"),
        );
        let ds = b.build();
        let ip = Ipv4Addr::new(20, 10, 0, 0);
        assert_eq!(ds.sources_on_port(&[ip], 22).len(), 2);
        assert_eq!(ds.malicious_sources_on_port(&[ip], 22).len(), 1);
        assert_eq!(ds.unique_sources(&[ip]), (2, 2));
    }

    #[test]
    fn csv_and_jsonl_export() {
        let mut b = Builder::new();
        b.push(23, Raw::Creds(LoginService::Telnet, "ad,min", "p\"w"));
        b.push(80, Raw::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec()));
        let ds = b.build();
        let mut csv = Vec::new();
        ds.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("time,src"));
        assert!(csv.contains("\"ad,min\""));
        assert!(csv.contains("\"p\"\"w\""));

        let mut jsonl = Vec::new();
        ds.write_jsonl(&mut jsonl).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\\\""));
        assert!(jsonl.contains("\"fingerprint\":\"HTTP\""));
    }

    #[test]
    fn pcap_export_is_wellformed() {
        let mut b = Builder::new();
        b.push(22, Raw::Syn);
        b.push(80, Raw::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec()));
        b.push(23, Raw::Creds(LoginService::Telnet, "root", "root"));
        let ds = b.build();
        let mut buf = Vec::new();
        ds.write_pcap(&mut buf, 1_625_097_600).unwrap();
        // Global header + 3 records.
        assert_eq!(&buf[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        let mut offset = 24;
        let mut records = 0;
        while offset + 16 <= buf.len() {
            let incl = u32::from_le_bytes(buf[offset + 8..offset + 12].try_into().unwrap());
            offset += 16 + incl as usize;
            records += 1;
        }
        assert_eq!(offset, buf.len());
        assert_eq!(records, 3);
    }

    #[test]
    fn absorb_remaps_ids_across_interner_spaces() {
        let deployment = Deployment::standard();
        // Two captures with *private* interners recording the same payload:
        // locally it gets different surroundings, so ids must be remapped.
        let mut ca = Capture::new("a");
        let pa = ca.intern_payload(b"AAAA");
        let shared = ca.intern_payload(b"GET / HTTP/1.1\r\n\r\n");
        let mk = |port: u16, observed: Observed| ScanEvent {
            time: SimTime(1),
            src: Ipv4Addr::new(100, 0, 0, 9),
            src_asn: Asn(1),
            dst: Ipv4Addr::new(20, 10, 0, 0),
            dst_port: port,
            observed,
        };
        ca.record(mk(80, Observed::Payload(pa)));
        ca.record(mk(80, Observed::Payload(shared)));
        let mut cb = Capture::new("b");
        let pb = cb.intern_payload(b"GET / HTTP/1.1\r\n\r\n"); // id 0 locally
        cb.record(mk(8080, Observed::Payload(pb)));
        let mut da = Dataset::from_captures(&[&ca], &deployment);
        let db = Dataset::from_captures(&[&cb], &deployment);
        da.absorb(db);
        assert_eq!(da.len(), 3);
        // Events 1 and 2 carry the same bytes — after remapping they must
        // share one id even though their local ids differed (1 vs 0).
        assert_eq!(da.event(1).payload_bytes(), da.event(2).payload_bytes());
        assert_eq!(
            da.event(1).event.observed.payload(),
            da.event(2).event.observed.payload()
        );
        assert_eq!(da.event(0).payload_bytes(), Some(b"AAAA".as_slice()));
    }

    #[test]
    fn snapshot_round_trip_preserves_classification_and_indexes() {
        let mut b = Builder::new();
        b.push(22, Raw::Creds(LoginService::Ssh, "root", "123456"));
        b.push(80, Raw::Payload(cw_scanners::exploits::log4shell("x")));
        b.push(80, Raw::Payload(cw_scanners::exploits::benign_get("zgrab")));
        b.push(443, Raw::Handshake);
        let ds = b.build();
        let mut w = cw_netsim::snap::SnapWriter::new();
        ds.snap_write(&mut w);
        let bytes = w.into_bytes();
        let deployment = Deployment::standard();
        let mut r = cw_netsim::snap::SnapReader::new(&bytes);
        let back = Dataset::snap_read(&mut r, &deployment).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.events().zip(back.events()) {
            assert_eq!(a.event, b.event);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.payload_bytes(), b.payload_bytes());
            assert_eq!(a.username(), b.username());
        }
        // Derived indexes are rebuilt, not deserialized.
        let ip = Ipv4Addr::new(20, 10, 0, 0);
        assert_eq!(back.events_at(ip).len(), ds.events_at(ip).len());
        assert!(back.vantage(ip).is_some());
    }

    #[test]
    fn snapshot_rejects_out_of_range_interned_ids() {
        // An empty interner followed by a table referencing payload id 3:
        // logically inconsistent even though each part decodes cleanly.
        let mut w = cw_netsim::snap::SnapWriter::new();
        Interner::new().snap_write(&mut w);
        let mut table = EventTable::new();
        table.push(ScanEvent {
            time: SimTime(1),
            src: Ipv4Addr::new(100, 0, 0, 1),
            src_asn: Asn(1),
            dst: Ipv4Addr::new(20, 10, 0, 0),
            dst_port: 80,
            observed: Observed::Payload(PayloadId(3)),
        });
        table.snap_write(&mut w);
        w.put_u64(1);
        w.put_u8(1);
        w.put_u64(1);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let deployment = Deployment::standard();
        let err = Dataset::snap_read(&mut cw_netsim::snap::SnapReader::new(&bytes), &deployment);
        assert!(matches!(err, Err(SnapError::Malformed(_))));
    }

    /// The destination index the CSR replaced: a map from each
    /// destination to its rows, rebuilt from the destination column.
    fn naive_index(ds: &Dataset) -> BTreeMap<Ipv4Addr, Vec<usize>> {
        let mut naive: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
        for (i, &dst) in ds.table().dsts().iter().enumerate() {
            naive.entry(dst).or_default().push(i);
        }
        naive
    }

    fn assert_index_matches_naive(ds: &Dataset, what: &str) {
        let naive = naive_index(ds);
        assert!(!naive.is_empty(), "{what}: no rows");
        // TEST-NET-1 is never a vantage, so it has no rows.
        let unused = Ipv4Addr::new(192, 0, 2, 1);
        assert!(!naive.contains_key(&unused));
        assert_eq!(ds.dst_index(unused), None, "{what}");
        let deployment = Deployment::standard();
        let vantages = deployment.vantages.iter().map(|v| v.ip);
        for ip in vantages.chain(naive.keys().copied()) {
            let csr = ds
                .dst_index(ip)
                .map(|rows| rows.iter().map(|&r| r as usize).collect::<Vec<_>>());
            assert_eq!(csr.as_ref(), naive.get(&ip), "{what}: {ip}");
        }
    }

    #[test]
    fn dst_index_matches_a_naive_map_after_build_round_trip_and_absorb() {
        use crate::scenario::{Scenario, ScenarioConfig};
        use cw_scanners::population::ScenarioYear;
        let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.01);
        let built = Scenario::run(base).dataset;
        assert_index_matches_naive(&built, "DatasetBuilder::finish");
        let mut w = SnapWriter::new();
        built.snap_write(&mut w);
        let bytes = w.into_bytes();
        let back =
            Dataset::snap_read(&mut SnapReader::new(&bytes), &Deployment::standard()).unwrap();
        assert_index_matches_naive(&back, "snapshot round trip");
        // The fleet fold absorbs each replicate into the running dataset.
        let folded = crate::fleet::run_replicates(base, 2, 2).dataset;
        assert_index_matches_naive(&folded, "Dataset::absorb");
    }

    #[test]
    fn vantage_lookup() {
        let ds = Builder::new().build();
        let v = ds.vantage(Ipv4Addr::new(20, 10, 0, 0)).unwrap();
        assert!(v.id.starts_with("greynoise/aws/"));
        assert!(ds.vantage(Ipv4Addr::new(9, 9, 9, 9)).is_none());
    }
}

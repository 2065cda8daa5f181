//! The Orion-style passive network telescope.
//!
//! "Network telescopes/darknets typically do not host any services, receive
//! traffic on all ports and IP addresses, and only record the first packet
//! of a connection (i.e., they do not complete the TCP layer 4 handshake)"
//! (§3.1). Consequences faithfully modeled here:
//!
//! - no handshake ⇒ client-first payloads are never observed, so the
//!   telescope cannot classify intent (§3.2) or fingerprint protocols (§6);
//! - it infers the protocol from the destination port alone;
//! - it *can* count unique scanners per IP per port at scale, which is what
//!   powers the Figure 1 address-structure analysis.
//!
//! Memory design: the telescope covers ~475K IPs, so it keeps per-IP
//! *counters* for a configured set of tracked ports plus global
//! (source, port) sets for the overlap analyses — not full event records.

use cw_netsim::engine::{FlowOutcome, Listener};
use cw_netsim::fault::{flow_hash, OutageSchedule};
use cw_netsim::flow::Flow;
use cw_netsim::ip::IpExt;
use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use cw_netsim::topology::AddressBlock;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Injected measurement faults on the telescope (see `cw_netsim::fault`).
///
/// Telescopes in the wild sample: recording every first packet of 475K IPs
/// is expensive, so operators keep 1 in N. Both mechanisms here drop the
/// packet *before* any counter updates, so a faulted telescope's state is
/// exactly what a smaller/flakier sensor would have collected.
#[derive(Debug, Clone, Default)]
pub struct TelescopeFaults {
    /// Deterministic downtime schedule for the whole telescope.
    pub outage: OutageSchedule,
    /// Keep 1 in `sample` packets (0 and 1 both mean "keep everything").
    pub sample: u32,
    /// Sampling decision salt (the fault plan's telescope domain salt).
    pub sample_salt: u64,
}

/// A passive telescope over an address block.
#[derive(Debug, Clone)]
pub struct Telescope {
    name: String,
    block: AddressBlock,
    /// Per tracked port: a per-IP count of observed source contacts.
    per_ip_counts: BTreeMap<u16, Vec<u32>>,
    /// Per tracked port: distinct (src, dst) pairs, to make the per-IP
    /// counts *unique-scanner* counts.
    seen_src_dst: BTreeMap<u16, BTreeSet<(u32, u32)>>,
    /// Distinct (src, port) pairs over the whole telescope (Tables 8–9).
    seen_src_port: BTreeSet<(u32, u16)>,
    /// Distinct sources and source ASes (Table 1).
    unique_srcs: BTreeSet<u32>,
    unique_asns: BTreeSet<u32>,
    /// Per-port AS traffic counts (who scans the telescope — Table 10).
    asn_counts: BTreeMap<u16, BTreeMap<u32, u64>>,
    /// AS traffic counts over all ports.
    asn_counts_all: BTreeMap<u32, u64>,
    /// Total first packets observed.
    total_packets: u64,
    /// Injected measurement faults; `None` is the (default) perfect sensor.
    /// Deliberately not serialized: a restored telescope is a read-only
    /// analysis input, and fault schedules belong to the live run's config.
    faults: Option<TelescopeFaults>,
}

impl Telescope {
    /// Create a telescope over `block`, tracking per-IP unique-scanner
    /// counts for `tracked_ports`.
    pub fn new(name: &str, block: AddressBlock, tracked_ports: &[u16]) -> Self {
        let size = block.size() as usize;
        let per_ip_counts = tracked_ports
            .iter()
            .map(|&p| (p, vec![0u32; size]))
            .collect();
        let seen_src_dst = tracked_ports.iter().map(|&p| (p, BTreeSet::new())).collect();
        Telescope {
            name: name.to_string(),
            block,
            per_ip_counts,
            seen_src_dst,
            seen_src_port: BTreeSet::new(),
            unique_srcs: BTreeSet::new(),
            unique_asns: BTreeSet::new(),
            asn_counts: BTreeMap::new(),
            asn_counts_all: BTreeMap::new(),
            total_packets: 0,
            faults: None,
        }
    }

    /// Inject measurement faults. Called by the deployment when a
    /// non-trivial fault plan is active.
    pub fn set_faults(&mut self, faults: TelescopeFaults) {
        self.faults = Some(faults);
    }

    /// The covered block.
    pub fn block(&self) -> &AddressBlock {
        &self.block
    }

    /// Unique-scanner count per telescope IP (block offset order) for a
    /// tracked port — the Figure 1 series.
    pub fn unique_scanners_per_ip(&self, port: u16) -> Option<&[u32]> {
        self.per_ip_counts.get(&port).map(|v| v.as_slice())
    }

    /// All source IPs that touched the given port anywhere in the telescope
    /// (the Tables 8–9 overlap sets).
    pub fn sources_on_port(&self, port: u16) -> BTreeSet<Ipv4Addr> {
        self.seen_src_port
            .iter()
            .filter(|&&(_, p)| p == port)
            .map(|&(s, _)| Ipv4Addr::from(s))
            .collect()
    }

    /// Did this source ever touch this port in the telescope?
    pub fn saw_source_on_port(&self, src: Ipv4Addr, port: u16) -> bool {
        self.seen_src_port.contains(&(src.to_u32(), port))
    }

    /// Number of distinct source IPs observed (Table 1).
    pub fn unique_source_count(&self) -> usize {
        self.unique_srcs.len()
    }

    /// Number of distinct source ASes observed (Table 1).
    pub fn unique_asn_count(&self) -> usize {
        self.unique_asns.len()
    }

    /// Total first packets observed.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Traffic count per source AS on one port (Table 10's "who scans the
    /// telescope"). Keys are ASN numbers rendered as strings for direct use
    /// with the top-k union methodology.
    pub fn asn_freqs_on_port(&self, port: u16) -> std::collections::BTreeMap<String, u64> {
        self.asn_counts
            .get(&port)
            .map(|m| {
                m.iter()
                    .map(|(asn, c)| (format!("AS{asn}"), *c))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Traffic count per source AS over all ports.
    pub fn asn_freqs_all(&self) -> std::collections::BTreeMap<String, u64> {
        self.asn_counts_all
            .iter()
            .map(|(asn, c)| (format!("AS{asn}"), *c))
            .collect()
    }

    /// Encode the analysis-relevant state into a snapshot payload.
    ///
    /// `seen_src_dst` is deliberately omitted: it exists only to dedupe
    /// *during* collection (making `per_ip_counts` unique-scanner counts)
    /// and no analysis reads it, so a restored telescope carries the
    /// finished counts with empty dedup sets. Restored telescopes are
    /// read-only analysis inputs, never live listeners.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_str(&self.name);
        self.block.snap_write(w);
        w.put_u64(self.per_ip_counts.len() as u64);
        for (port, counts) in &self.per_ip_counts {
            w.put_u16(*port);
            w.put_u64(counts.len() as u64);
            for c in counts {
                w.put_u32(*c);
            }
        }
        w.put_u64(self.seen_src_port.len() as u64);
        for (src, port) in &self.seen_src_port {
            w.put_u32(*src);
            w.put_u16(*port);
        }
        w.put_u64(self.unique_srcs.len() as u64);
        for s in &self.unique_srcs {
            w.put_u32(*s);
        }
        w.put_u64(self.unique_asns.len() as u64);
        for a in &self.unique_asns {
            w.put_u32(*a);
        }
        w.put_u64(self.asn_counts.len() as u64);
        for (port, by_asn) in &self.asn_counts {
            w.put_u16(*port);
            w.put_u64(by_asn.len() as u64);
            for (asn, count) in by_asn {
                w.put_u32(*asn);
                w.put_u64(*count);
            }
        }
        w.put_u64(self.asn_counts_all.len() as u64);
        for (asn, count) in &self.asn_counts_all {
            w.put_u32(*asn);
            w.put_u64(*count);
        }
        w.put_u64(self.total_packets);
    }

    /// Fold another telescope's observations into this one — the shard
    /// merge step.
    ///
    /// All state here is order-independent (sets union, counters add), with
    /// one subtlety: `per_ip_counts` are *unique-scanner* counts deduped
    /// through `seen_src_dst`, so the merge replays the other telescope's
    /// `(src, dst)` pairs against this one's dedup sets and only counts
    /// fresh pairs. Folding shard telescopes in shard order therefore
    /// reproduces the unsharded telescope exactly, even if two shards saw
    /// the same (src, dst) pair (they cannot — sources are owned by one
    /// shard — but the merge does not rely on that).
    ///
    /// Requires both telescopes to cover the same block with the same
    /// tracked ports (they are built by the same deployment constructor).
    pub fn absorb(&mut self, other: &Telescope) {
        assert_eq!(self.block, other.block, "telescope merge across blocks");
        self.total_packets += other.total_packets;
        self.unique_srcs.extend(other.unique_srcs.iter().copied());
        self.unique_asns.extend(other.unique_asns.iter().copied());
        self.seen_src_port.extend(other.seen_src_port.iter().copied());
        for (port, by_asn) in &other.asn_counts {
            let dst = self.asn_counts.entry(*port).or_default();
            for (asn, count) in by_asn {
                *dst.entry(*asn).or_insert(0) += count;
            }
        }
        for (asn, count) in &other.asn_counts_all {
            *self.asn_counts_all.entry(*asn).or_insert(0) += count;
        }
        for (port, pairs) in &other.seen_src_dst {
            let counts = self
                .per_ip_counts
                .get_mut(port)
                .expect("same tracked ports");
            let seen = self.seen_src_dst.get_mut(port).expect("same tracked ports");
            for &(src, dst) in pairs {
                if seen.insert((src, dst)) {
                    let offset = self
                        .block
                        .offset_of(Ipv4Addr::from(dst))
                        .expect("pair recorded inside the block")
                        as usize;
                    counts[offset] += 1;
                }
            }
        }
    }

    /// Decode a telescope from a snapshot payload (see
    /// [`Telescope::snap_write`] for what travels).
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Telescope, SnapError> {
        let name = r.get_str()?.to_string();
        let block = AddressBlock::snap_read(r)?;
        let mut per_ip_counts = BTreeMap::new();
        let mut seen_src_dst = BTreeMap::new();
        // Each count is bounded by the wire width of its entries, so a
        // corrupt count fails fast instead of sizing an allocation.
        for _ in 0..r.get_count_of(2 + 8)? {
            let port = r.get_u16()?;
            let n = r.get_count_of(4)?;
            let mut counts = Vec::with_capacity(n);
            for _ in 0..n {
                counts.push(r.get_u32()?);
            }
            per_ip_counts.insert(port, counts);
            seen_src_dst.insert(port, BTreeSet::new());
        }
        let mut seen_src_port = BTreeSet::new();
        for _ in 0..r.get_count_of(4 + 2)? {
            let src = r.get_u32()?;
            let port = r.get_u16()?;
            seen_src_port.insert((src, port));
        }
        let mut unique_srcs = BTreeSet::new();
        for _ in 0..r.get_count_of(4)? {
            unique_srcs.insert(r.get_u32()?);
        }
        let mut unique_asns = BTreeSet::new();
        for _ in 0..r.get_count_of(4)? {
            unique_asns.insert(r.get_u32()?);
        }
        let mut asn_counts = BTreeMap::new();
        for _ in 0..r.get_count_of(2 + 8)? {
            let port = r.get_u16()?;
            let mut by_asn = BTreeMap::new();
            for _ in 0..r.get_count_of(4 + 8)? {
                let asn = r.get_u32()?;
                let count = r.get_u64()?;
                by_asn.insert(asn, count);
            }
            asn_counts.insert(port, by_asn);
        }
        let mut asn_counts_all = BTreeMap::new();
        for _ in 0..r.get_count_of(4 + 8)? {
            let asn = r.get_u32()?;
            let count = r.get_u64()?;
            asn_counts_all.insert(asn, count);
        }
        let total_packets = r.get_u64()?;
        Ok(Telescope {
            name,
            block,
            per_ip_counts,
            seen_src_dst,
            seen_src_port,
            unique_srcs,
            unique_asns,
            asn_counts,
            asn_counts_all,
            total_packets,
            faults: None,
        })
    }
}

impl Listener for Telescope {
    fn name(&self) -> &str {
        &self.name
    }

    fn covers(&self, ip: Ipv4Addr) -> bool {
        self.block.contains(ip)
    }

    fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
        // Injected faults drop the packet before any counter updates. Both
        // decisions are pure in the flow identity (never the engine-local
        // seq), so sharded and unsharded runs drop the same packets.
        if let Some(f) = &self.faults {
            if f.outage.is_down(flow.time) {
                return FlowOutcome::dark();
            }
            if f.sample > 1
                && !flow_hash(f.sample_salt, flow.time, flow.src, flow.dst, flow.dst_port)
                    .is_multiple_of(f.sample as u64)
            {
                return FlowOutcome::dark();
            }
        }
        self.total_packets += 1;
        let src = flow.src.to_u32();
        self.unique_srcs.insert(src);
        self.unique_asns.insert(flow.src_asn.0);
        self.seen_src_port.insert((src, flow.dst_port));
        *self
            .asn_counts
            .entry(flow.dst_port)
            .or_default()
            .entry(flow.src_asn.0)
            .or_insert(0) += 1;
        *self.asn_counts_all.entry(flow.src_asn.0).or_insert(0) += 1;
        if let Some(counts) = self.per_ip_counts.get_mut(&flow.dst_port) {
            let offset = self
                .block
                .offset_of(flow.dst)
                .expect("covers() guaranteed containment") as usize;
            let dst = flow.dst.to_u32();
            // Count each (src, dst) once so the series is unique scanners.
            if self
                .seen_src_dst
                .get_mut(&flow.dst_port)
                .expect("tracked port")
                .insert((src, dst))
            {
                counts[offset] += 1;
            }
        }
        // The defining telescope property: never complete the handshake.
        FlowOutcome::dark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::{ConnectionIntent, FlowSpec};
    use cw_netsim::ip::Cidr;
    use cw_netsim::time::SimTime;

    fn scope() -> Telescope {
        let block = AddressBlock::new(
            "tel",
            vec![Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)],
        );
        Telescope::new("tel", block, &[22, 445])
    }

    fn flow(src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> Flow {
        Flow::from_spec(
            FlowSpec {
                src,
                src_asn: Asn(7),
                dst,
                dst_port: port,
                intent: ConnectionIntent::Payload(b"SSH-2.0-x\r\n".to_vec()),
            },
            SimTime(1),
            0,
        )
    }

    #[test]
    fn never_completes_handshake() {
        let mut t = scope();
        let out = t.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 9),
            22,
        ));
        assert!(!out.handshake_completed);
        assert!(out.reply.is_none());
    }

    #[test]
    fn per_ip_unique_counting() {
        let mut t = scope();
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        // Same scanner twice → counted once. Second scanner → 2.
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(2, 2, 2, 2), dst, 22));
        let counts = t.unique_scanners_per_ip(22).unwrap();
        assert_eq!(counts[9], 2);
        assert_eq!(counts[8], 0);
        assert_eq!(t.total_packets(), 3);
        assert_eq!(t.unique_source_count(), 2);
        assert_eq!(t.unique_asn_count(), 1);
    }

    #[test]
    fn untracked_ports_still_feed_overlap_sets() {
        let mut t = scope();
        t.on_flow(&flow(
            Ipv4Addr::new(3, 3, 3, 3),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        ));
        assert!(t.unique_scanners_per_ip(80).is_none());
        assert!(t.saw_source_on_port(Ipv4Addr::new(3, 3, 3, 3), 80));
        assert!(!t.saw_source_on_port(Ipv4Addr::new(3, 3, 3, 3), 22));
        assert_eq!(t.sources_on_port(80).len(), 1);
    }

    /// Sharded merge contract: splitting a flow stream across two
    /// telescopes and absorbing one into the other reproduces the
    /// counters of the telescope that saw everything — including the
    /// unique-scanner dedup when both halves saw the same (src, dst).
    #[test]
    fn absorb_reproduces_the_unsplit_telescope() {
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        let flows = [
            flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22),
            flow(Ipv4Addr::new(2, 2, 2, 2), dst, 22),
            flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22), // repeat scanner
            flow(Ipv4Addr::new(3, 3, 3, 3), Ipv4Addr::new(10, 0, 0, 1), 80),
        ];
        let mut whole = scope();
        for f in &flows {
            whole.on_flow(f);
        }
        let mut a = scope();
        let mut b = scope();
        // The repeat of scanner 1.1.1.1 lands in the *other* shard, so
        // dedup must happen at absorb time, not within one shard.
        a.on_flow(&flows[0]);
        a.on_flow(&flows[3]);
        b.on_flow(&flows[1]);
        b.on_flow(&flows[2]);
        a.absorb(&b);
        assert_eq!(a.total_packets(), whole.total_packets());
        assert_eq!(a.unique_source_count(), whole.unique_source_count());
        assert_eq!(a.unique_asn_count(), whole.unique_asn_count());
        assert_eq!(
            a.unique_scanners_per_ip(22),
            whole.unique_scanners_per_ip(22)
        );
        assert_eq!(a.sources_on_port(80), whole.sources_on_port(80));
        assert_eq!(a.sources_on_port(22), whole.sources_on_port(22));
    }

    #[test]
    fn telescope_snapshot_round_trips_analysis_state() {
        let mut t = scope();
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        t.on_flow(&flow(Ipv4Addr::new(1, 1, 1, 1), dst, 22));
        t.on_flow(&flow(Ipv4Addr::new(2, 2, 2, 2), dst, 445));
        t.on_flow(&flow(Ipv4Addr::new(3, 3, 3, 3), Ipv4Addr::new(10, 0, 0, 1), 80));
        let mut w = SnapWriter::new();
        t.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Telescope::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.name(), t.name());
        assert_eq!(back.block(), t.block());
        assert_eq!(back.total_packets(), 3);
        assert_eq!(back.unique_source_count(), 3);
        assert_eq!(back.unique_asn_count(), 1);
        assert_eq!(back.unique_scanners_per_ip(22), t.unique_scanners_per_ip(22));
        assert_eq!(back.unique_scanners_per_ip(445), t.unique_scanners_per_ip(445));
        assert_eq!(back.sources_on_port(80), t.sources_on_port(80));
        assert_eq!(back.asn_freqs_on_port(22), t.asn_freqs_on_port(22));
        assert_eq!(back.asn_freqs_all(), t.asn_freqs_all());
        assert!(back.saw_source_on_port(Ipv4Addr::new(3, 3, 3, 3), 80));
    }

    #[test]
    fn coverage_respects_block() {
        let t = scope();
        assert!(t.covers(Ipv4Addr::new(10, 0, 0, 255)));
        assert!(!t.covers(Ipv4Addr::new(10, 0, 1, 0)));
    }
}

//! Actor reputation: a GreyNoise-API-like label store.
//!
//! §6 uses "the GreyNoise API to label benign and malicious scanning
//! actors. The API labels actors as malicious if the scanning IP was seen
//! actively exploiting services, and benign if the owners of the scanning
//! IPs have undergone a rigorous vetting process." Everything else is
//! unknown — which in GreyNoise's 2022 data was 78% of actors.

use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A scanning actor's reputation label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorLabel {
    /// Vetted benign organization (Censys, Shodan, academic scanners, …).
    Benign,
    /// Seen actively exploiting services.
    Malicious,
    /// No evidence either way.
    Unknown,
}

/// The reputation database keyed by source IP.
#[derive(Debug, Clone, Default)]
pub struct ReputationDb {
    labels: BTreeMap<Ipv4Addr, ActorLabel>,
}

impl ReputationDb {
    /// An empty database (everything unknown).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark an IP as belonging to a vetted benign organization. Vetting
    /// wins over observed behavior (matching GreyNoise's process, where the
    /// vetted list is curated by humans).
    pub fn vet_benign(&mut self, ip: Ipv4Addr) {
        self.labels.insert(ip, ActorLabel::Benign);
    }

    /// Record that an IP was seen actively exploiting a service. Does not
    /// override a vetted-benign label.
    pub fn observe_malicious(&mut self, ip: Ipv4Addr) {
        self.labels
            .entry(ip)
            .and_modify(|l| {
                if *l != ActorLabel::Benign {
                    *l = ActorLabel::Malicious;
                }
            })
            .or_insert(ActorLabel::Malicious);
    }

    /// The label for an IP (unknown when never seen).
    pub fn label(&self, ip: Ipv4Addr) -> ActorLabel {
        *self.labels.get(&ip).unwrap_or(&ActorLabel::Unknown)
    }

    /// Number of IPs with a non-unknown label.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no IP is labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate all labeled IPs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, ActorLabel)> + '_ {
        self.labels.iter().map(|(ip, l)| (*ip, *l))
    }

    /// Encode the label store into a snapshot payload. Only non-unknown
    /// labels exist in the map, so the wire form is the full database.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.labels.len() as u64);
        for (ip, label) in &self.labels {
            w.put_u32(u32::from(*ip));
            w.put_u8(match label {
                ActorLabel::Benign => 0,
                ActorLabel::Malicious => 1,
                ActorLabel::Unknown => 2,
            });
        }
    }

    /// Decode a label store from a snapshot payload.
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<ReputationDb, SnapError> {
        let mut labels = BTreeMap::new();
        for _ in 0..r.get_count_of(4 + 1)? {
            let ip = Ipv4Addr::from(r.get_u32()?);
            let label = match r.get_u8()? {
                0 => ActorLabel::Benign,
                1 => ActorLabel::Malicious,
                2 => ActorLabel::Unknown,
                _ => return Err(SnapError::Malformed("unknown reputation label tag")),
            };
            labels.insert(ip, label);
        }
        Ok(ReputationDb { labels })
    }

    /// Count of labeled IPs per label.
    pub fn counts(&self) -> (usize, usize) {
        let benign = self
            .labels
            .values()
            .filter(|&&l| l == ActorLabel::Benign)
            .count();
        let malicious = self
            .labels
            .values()
            .filter(|&&l| l == ActorLabel::Malicious)
            .count();
        (benign, malicious)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, a)
    }

    #[test]
    fn default_is_unknown() {
        let db = ReputationDb::new();
        assert_eq!(db.label(ip(1)), ActorLabel::Unknown);
        assert!(db.is_empty());
    }

    #[test]
    fn malicious_observation_labels() {
        let mut db = ReputationDb::new();
        db.observe_malicious(ip(2));
        assert_eq!(db.label(ip(2)), ActorLabel::Malicious);
    }

    #[test]
    fn vetting_wins_over_observation() {
        let mut db = ReputationDb::new();
        db.vet_benign(ip(3));
        db.observe_malicious(ip(3));
        assert_eq!(db.label(ip(3)), ActorLabel::Benign);
        // Order doesn't matter: vetting later also wins.
        db.observe_malicious(ip(4));
        db.vet_benign(ip(4));
        assert_eq!(db.label(ip(4)), ActorLabel::Benign);
    }

    #[test]
    fn counts() {
        let mut db = ReputationDb::new();
        db.vet_benign(ip(1));
        db.observe_malicious(ip(2));
        db.observe_malicious(ip(3));
        assert_eq!(db.counts(), (1, 2));
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut db = ReputationDb::new();
        db.vet_benign(ip(1));
        db.observe_malicious(ip(2));
        db.observe_malicious(ip(3));
        let mut w = SnapWriter::new();
        db.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = ReputationDb::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.counts(), db.counts());
        assert_eq!(back.label(ip(1)), ActorLabel::Benign);
        assert_eq!(back.label(ip(2)), ActorLabel::Malicious);
        assert_eq!(back.label(ip(9)), ActorLabel::Unknown);
        assert_eq!(back.iter().count(), 3);
    }

    #[test]
    fn snapshot_rejects_unknown_tag() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u32(0x7F000001);
        w.put_u8(9);
        let bytes = w.into_bytes();
        assert!(matches!(
            ReputationDb::snap_read(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }
}

//! The simulated address plan: named blocks of IPv4 space.
//!
//! A [`Topology`] is a set of disjoint, named [`AddressBlock`]s — e.g.
//! `"telescope"` (1,856 /24s), `"aws/US-OR"` (a /28 hosting 4 honeypots),
//! `"stanford"` (a /26). Scanner agents consult the topology to enumerate
//! scannable space; the engine uses it for listener routing sanity checks.

use crate::ip::Cidr;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A named region of address space, possibly discontiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressBlock {
    /// Unique block name (e.g. `"telescope"`, `"aws/US-OR"`).
    pub name: String,
    /// The CIDRs composing the block, in allocation order.
    pub cidrs: Vec<Cidr>,
}

impl AddressBlock {
    /// Create a block from its CIDRs.
    pub fn new(name: &str, cidrs: Vec<Cidr>) -> Self {
        AddressBlock {
            name: name.to_string(),
            cidrs,
        }
    }

    /// Total number of addresses across all CIDRs.
    pub fn size(&self) -> u64 {
        self.cidrs.iter().map(|c| c.size()).sum()
    }

    /// Does the block contain `ip`?
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.cidrs.iter().any(|c| c.contains(ip))
    }

    /// The `i`-th address of the block, counting across CIDRs in order.
    ///
    /// # Panics
    /// Panics if `i >= size()`.
    pub fn nth(&self, mut i: u64) -> Ipv4Addr {
        for c in &self.cidrs {
            if i < c.size() {
                return c.nth(i);
            }
            i -= c.size();
        }
        panic!("index out of block '{}'", self.name);
    }

    /// Offset of `ip` within the block (inverse of [`nth`](Self::nth)).
    pub fn offset_of(&self, ip: Ipv4Addr) -> Option<u64> {
        let mut acc = 0u64;
        for c in &self.cidrs {
            if let Some(o) = c.offset_of(ip) {
                return Some(acc + o);
            }
            acc += c.size();
        }
        None
    }

    /// Iterate every address of the block.
    pub fn iter(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.size()).map(move |i| self.nth(i))
    }

    /// Encode the block (name + CIDRs in allocation order) into a
    /// snapshot payload.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_str(&self.name);
        w.put_u64(self.cidrs.len() as u64);
        for c in &self.cidrs {
            w.put_u32(u32::from(c.base()));
            w.put_u8(c.prefix());
        }
    }

    /// Decode a block from a snapshot payload.
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<AddressBlock, SnapError> {
        let name = r.get_str()?.to_string();
        let n = r.get_count_of(4 + 1)?;
        let mut cidrs = Vec::with_capacity(n);
        for _ in 0..n {
            let base = Ipv4Addr::from(r.get_u32()?);
            let prefix = r.get_u8()?;
            if prefix > 32 {
                return Err(SnapError::Malformed("CIDR prefix > 32"));
            }
            cidrs.push(Cidr::new(base, prefix));
        }
        Ok(AddressBlock { name, cidrs })
    }
}

/// A collection of named address blocks.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    blocks: BTreeMap<String, AddressBlock>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a block.
    ///
    /// # Panics
    /// Panics if a block with the same name exists or the block overlaps an
    /// existing one (the address plan must be unambiguous).
    pub fn add(&mut self, block: AddressBlock) {
        assert!(
            !self.blocks.contains_key(&block.name),
            "duplicate block '{}'",
            block.name
        );
        for existing in self.blocks.values() {
            for c in &block.cidrs {
                for e in &existing.cidrs {
                    let overlap = c.contains(e.base()) || e.contains(c.base());
                    assert!(
                        !overlap,
                        "block '{}' ({c}) overlaps '{}' ({e})",
                        block.name, existing.name
                    );
                }
            }
        }
        self.blocks.insert(block.name.clone(), block);
    }

    /// Look up a block by name.
    pub fn block(&self, name: &str) -> Option<&AddressBlock> {
        self.blocks.get(name)
    }

    /// The block containing `ip`, if any.
    pub fn block_of(&self, ip: Ipv4Addr) -> Option<&AddressBlock> {
        self.blocks.values().find(|b| b.contains(ip))
    }

    /// Iterate all blocks in name order.
    pub fn iter(&self) -> impl Iterator<Item = &AddressBlock> {
        self.blocks.values()
    }

    /// Names of blocks whose name starts with `prefix` (e.g. `"aws/"`).
    pub fn names_with_prefix(&self, prefix: &str) -> Vec<&str> {
        self.blocks
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(|k| k.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(a: u8, b: u8, c: u8, d: u8, p: u8) -> Cidr {
        Cidr::new(Ipv4Addr::new(a, b, c, d), p)
    }

    #[test]
    fn block_snapshot_round_trip() {
        let b = AddressBlock::new("tel", vec![cidr(10, 0, 0, 0, 24), cidr(172, 16, 0, 0, 26)]);
        let mut w = SnapWriter::new();
        b.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = AddressBlock::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, b);
    }

    #[test]
    fn block_indexing_across_cidrs() {
        let b = AddressBlock::new("x", vec![cidr(10, 0, 0, 0, 30), cidr(10, 0, 1, 0, 30)]);
        assert_eq!(b.size(), 8);
        assert_eq!(b.nth(0), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(b.nth(3), Ipv4Addr::new(10, 0, 0, 3));
        assert_eq!(b.nth(4), Ipv4Addr::new(10, 0, 1, 0));
        assert_eq!(b.nth(7), Ipv4Addr::new(10, 0, 1, 3));
        assert_eq!(b.offset_of(Ipv4Addr::new(10, 0, 1, 2)), Some(6));
        assert_eq!(b.offset_of(Ipv4Addr::new(10, 0, 2, 0)), None);
    }

    #[test]
    #[should_panic]
    fn block_nth_out_of_range() {
        AddressBlock::new("x", vec![cidr(10, 0, 0, 0, 30)]).nth(4);
    }

    #[test]
    fn topology_lookup() {
        let mut t = Topology::new();
        t.add(AddressBlock::new("a", vec![cidr(10, 0, 0, 0, 24)]));
        t.add(AddressBlock::new("b", vec![cidr(10, 0, 1, 0, 24)]));
        assert_eq!(t.block("a").unwrap().size(), 256);
        assert_eq!(
            t.block_of(Ipv4Addr::new(10, 0, 1, 200)).unwrap().name,
            "b"
        );
        assert!(t.block_of(Ipv4Addr::new(10, 0, 2, 1)).is_none());
    }

    #[test]
    #[should_panic]
    fn overlapping_blocks_rejected() {
        let mut t = Topology::new();
        t.add(AddressBlock::new("a", vec![cidr(10, 0, 0, 0, 24)]));
        t.add(AddressBlock::new("b", vec![cidr(10, 0, 0, 128, 25)]));
    }

    #[test]
    #[should_panic]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add(AddressBlock::new("a", vec![cidr(10, 0, 0, 0, 24)]));
        t.add(AddressBlock::new("a", vec![cidr(10, 1, 0, 0, 24)]));
    }

    #[test]
    fn prefix_listing() {
        let mut t = Topology::new();
        t.add(AddressBlock::new("aws/US-OR", vec![cidr(20, 0, 0, 0, 28)]));
        t.add(AddressBlock::new("aws/AP-SG", vec![cidr(20, 0, 1, 0, 28)]));
        t.add(AddressBlock::new("google/US-NV", vec![cidr(20, 1, 0, 0, 28)]));
        assert_eq!(t.names_with_prefix("aws/").len(), 2);
        assert_eq!(t.names_with_prefix("google/").len(), 1);
    }

    #[test]
    fn iter_covers_all_blocks() {
        let mut t = Topology::new();
        t.add(AddressBlock::new("a", vec![cidr(10, 0, 0, 0, 24)]));
        t.add(AddressBlock::new("b", vec![cidr(10, 0, 1, 0, 24)]));
        assert_eq!(t.iter().count(), 2);
    }
}

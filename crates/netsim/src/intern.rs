//! Interned payload and credential storage shared across the capture →
//! analysis pipeline.
//!
//! Scanning traffic replays a small dictionary of byte blobs millions of
//! times (§3.2 classifies and §3.3 extracts top-3 values over *distinct*
//! payloads and credentials, not raw events). An [`Interner`] stores each
//! distinct value once in an append-only arena and hands out dense
//! [`PayloadId`]/[`CredId`] handles, so events carry 4-byte IDs instead of
//! owned `Vec<u8>`/`String`s and downstream work (rule matching, LZR
//! fingerprinting, group-by counting) runs once per distinct value.
//!
//! # Determinism
//!
//! IDs are assigned in insertion order: the first distinct value interned
//! gets id 0, the next id 1, and so on. Re-interning an already-known value
//! returns its existing id. Because the simulation delivers events in a
//! deterministic order, the arena contents — and therefore every id — are
//! a pure function of the event stream, independent of hash-map iteration
//! order (the lookup table is only an accelerator; ids come from the
//! arena's `Vec` length).
//!
//! # Cross-worker remapping
//!
//! Fleet workers build worker-local interners. When per-run datasets merge
//! (`Dataset::absorb`, in stream-id order), the absorbing side re-interns
//! the other arena's distinct values *in that arena's insertion order* via
//! [`Interner::remap_from`], producing an old-id → new-id table applied to
//! the incoming events. Merged ids are therefore identical for any
//! worker-thread count — the byte-identity contract of the fleet runner.

use crate::rng::fnv1a;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Handle to one distinct payload blob in an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PayloadId(pub u32);

impl PayloadId {
    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to one distinct credential string (a username *or* a password)
/// in an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CredId(pub u32);

impl CredId {
    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only arena of distinct values with O(1) amortized hash lookup.
///
/// Values are stored once; the side table maps an FNV-1a digest to the
/// (rarely >1) arena indices carrying that digest, so lookups compare the
/// actual bytes and hash collisions stay correct.
#[derive(Debug)]
struct Arena<T: ?Sized + ToOwned> {
    values: Vec<T::Owned>,
    by_hash: HashMap<u64, Vec<u32>>,
}

impl<T: ?Sized + ToOwned> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            values: Vec::new(),
            by_hash: HashMap::new(),
        }
    }
}

impl<T: ?Sized + ToOwned> Clone for Arena<T>
where
    T::Owned: Clone,
{
    fn clone(&self) -> Self {
        Arena {
            values: self.values.clone(),
            by_hash: self.by_hash.clone(),
        }
    }
}

impl<T> Arena<T>
where
    T: ?Sized + ToOwned + PartialEq,
    T::Owned: std::borrow::Borrow<T>,
{
    fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.by_hash.reserve(additional);
    }

    fn intern(&mut self, value: &T, hash: u64) -> u32 {
        use std::borrow::Borrow;
        let candidates = self.by_hash.entry(hash).or_default();
        for &idx in candidates.iter() {
            if self.values[idx as usize].borrow() == value {
                return idx;
            }
        }
        let idx = u32::try_from(self.values.len()).expect("interner arena overflow");
        candidates.push(idx);
        self.values.push(value.to_owned());
        idx
    }
}

/// The shared intern tables for payload blobs and credential strings.
///
/// See the [module docs](self) for the id-determinism and remapping rules.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    payloads: Arena<[u8]>,
    creds: Arena<str>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// A fresh interner behind the shared handle every capture-side user
    /// (honeypot listeners, captures) clones.
    pub fn shared() -> Rc<RefCell<Interner>> {
        Rc::new(RefCell::new(Interner::new()))
    }

    /// Pre-size the arenas for an expected number of distinct values.
    /// Purely a reallocation-avoidance hint: ids, contents and every
    /// observable behavior are unaffected.
    pub fn reserve(&mut self, payloads: usize, creds: usize) {
        self.payloads.reserve(payloads);
        self.creds.reserve(creds);
    }

    /// Intern a payload blob, returning its stable id.
    pub fn intern_payload(&mut self, bytes: &[u8]) -> PayloadId {
        PayloadId(self.payloads.intern(bytes, fnv1a(bytes)))
    }

    /// Intern a credential string, returning its stable id.
    pub fn intern_cred(&mut self, s: &str) -> CredId {
        CredId(self.creds.intern(s, fnv1a(s.as_bytes())))
    }

    /// Resolve a payload id to its bytes.
    ///
    /// # Panics
    /// Panics if the id was minted by a different interner and is out of
    /// range here — resolve ids only against the interner (or remapped
    /// snapshot) that produced them.
    pub fn payload(&self, id: PayloadId) -> &[u8] {
        &self.payloads.values[id.index()]
    }

    /// Resolve a credential id to its string.
    ///
    /// # Panics
    /// Panics if the id is out of range (see [`Interner::payload`]).
    pub fn cred(&self, id: CredId) -> &str {
        &self.creds.values[id.index()]
    }

    /// Number of distinct payloads.
    pub fn payload_count(&self) -> usize {
        self.payloads.values.len()
    }

    /// Number of distinct credential strings.
    pub fn cred_count(&self) -> usize {
        self.creds.values.len()
    }

    /// Encode the arena contents into a snapshot payload: both value
    /// lists, in insertion order. The hash side tables are rebuilt on
    /// load, so only the id-defining data travels.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.payloads.values.len() as u64);
        for p in &self.payloads.values {
            w.put_bytes(p);
        }
        w.put_u64(self.creds.values.len() as u64);
        for c in &self.creds.values {
            w.put_str(c);
        }
    }

    /// Decode an interner from a snapshot payload.
    ///
    /// Values are re-interned in their recorded order, which reproduces
    /// the original dense ids exactly (ids are a pure function of
    /// insertion order — see the module docs). A snapshot listing the
    /// same value twice would silently renumber everything after it, so
    /// that case is rejected as [`SnapError::Malformed`].
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Interner, SnapError> {
        let mut out = Interner::new();
        // Every value carries a u64 length prefix on the wire.
        let n_payloads = r.get_count_of(8)?;
        for _ in 0..n_payloads {
            let bytes = r.get_bytes()?;
            out.intern_payload(bytes);
        }
        if out.payload_count() != n_payloads {
            return Err(SnapError::Malformed("duplicate payload in interner snapshot"));
        }
        let n_creds = r.get_count_of(8)?;
        for _ in 0..n_creds {
            let s = r.get_str()?;
            out.intern_cred(s);
        }
        if out.cred_count() != n_creds {
            return Err(SnapError::Malformed("duplicate cred in interner snapshot"));
        }
        Ok(out)
    }

    /// The payload values with ids `start..`, in insertion order.
    ///
    /// Streaming delta extraction: a worker that recorded `start =
    /// payload_count()` at the last window boundary reads here exactly the
    /// values interned since, so shipping `(start-delta, events)` per
    /// window transfers each distinct value once.
    pub fn payloads_from(&self, start: usize) -> &[Vec<u8>] {
        &self.payloads.values[start..]
    }

    /// The credential values with ids `start..`, in insertion order (see
    /// [`Interner::payloads_from`]).
    pub fn creds_from(&self, start: usize) -> &[String] {
        &self.creds.values[start..]
    }

    /// Absorb another interner's distinct values (in *its* insertion
    /// order) and return the old-id → new-id tables. This is the fleet
    /// merge step: apply the returned [`Remap`] to every event imported
    /// from `other`'s id space.
    pub fn remap_from(&mut self, other: &Interner) -> Remap {
        let mut remap = Remap::default();
        self.extend_remap_from(other, &mut remap);
        remap
    }

    /// Extend a [`Remap`] previously built against a shorter prefix of
    /// `other` so it covers every value `other` holds now.
    ///
    /// Interners are append-only, so ids `0..remap.payload_len()` of
    /// `other` still mean what they meant when `remap` was built; only the
    /// tail `other` has grown since needs interning. One remap table can
    /// follow a growing interner across calls, and the total work is
    /// exactly one intern per distinct value — the same as a single
    /// [`Interner::remap_from`] at the end.
    pub fn extend_remap_from(&mut self, other: &Interner, remap: &mut Remap) {
        for i in remap.payloads.len()..other.payloads.values.len() {
            let id = self.intern_payload(&other.payloads.values[i]);
            remap.payloads.push(id.0);
        }
        for i in remap.creds.len()..other.creds.values.len() {
            let id = self.intern_cred(&other.creds.values[i]);
            remap.creds.push(id.0);
        }
    }
}

/// Old-id → new-id translation tables produced by [`Interner::remap_from`].
#[derive(Debug, Clone, Default)]
pub struct Remap {
    payloads: Vec<u32>,
    creds: Vec<u32>,
}

impl Remap {
    /// The identity remap for ids that are already in the target space.
    pub fn identity() -> Self {
        Remap::default()
    }

    /// Translate a payload id from the source interner's space.
    pub fn payload(&self, id: PayloadId) -> PayloadId {
        match self.payloads.get(id.index()) {
            Some(&new) => PayloadId(new),
            None => id, // identity remap
        }
    }

    /// Translate a credential id from the source interner's space.
    pub fn cred(&self, id: CredId) -> CredId {
        match self.creds.get(id.index()) {
            Some(&new) => CredId(new),
            None => id, // identity remap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern_payload(b"alpha"), PayloadId(0));
        assert_eq!(i.intern_payload(b"beta"), PayloadId(1));
        assert_eq!(i.intern_payload(b"alpha"), PayloadId(0));
        assert_eq!(i.intern_payload(b"gamma"), PayloadId(2));
        assert_eq!(i.payload_count(), 3);
        assert_eq!(i.payload(PayloadId(1)), b"beta");
    }

    #[test]
    fn creds_and_payloads_are_independent_spaces() {
        let mut i = Interner::new();
        let p = i.intern_payload(b"root");
        let c = i.intern_cred("root");
        assert_eq!(p.0, 0);
        assert_eq!(c.0, 0);
        assert_eq!(i.cred(c), "root");
        assert_eq!(i.payload(p), b"root");
    }

    #[test]
    fn empty_values_intern_fine() {
        let mut i = Interner::new();
        let a = i.intern_payload(b"");
        let b = i.intern_payload(b"");
        assert_eq!(a, b);
        assert_eq!(i.payload(a), b"");
        let c = i.intern_cred("");
        assert_eq!(i.cred(c), "");
    }

    #[test]
    fn remap_translates_into_the_target_space() {
        let mut a = Interner::new();
        a.intern_payload(b"x");
        a.intern_cred("u1");
        let mut b = Interner::new();
        let bx = b.intern_payload(b"y");
        let by = b.intern_payload(b"x");
        let bu = b.intern_cred("u2");
        let remap = a.remap_from(&b);
        // b's "y" is new to a (gets id 1); b's "x" already exists (id 0).
        assert_eq!(remap.payload(bx), PayloadId(1));
        assert_eq!(remap.payload(by), PayloadId(0));
        assert_eq!(remap.cred(bu), CredId(1));
        assert_eq!(a.payload_count(), 2);
        assert_eq!(a.payload(PayloadId(1)), b"y");
    }

    #[test]
    fn merge_order_determines_ids_not_thread_interleaving() {
        // Two worker-local interners merged in stream order must yield the
        // same target ids no matter how the workers were scheduled.
        let build = |vals: &[&[u8]]| {
            let mut i = Interner::new();
            for v in vals {
                i.intern_payload(v);
            }
            i
        };
        let w0 = build(&[b"a", b"b"]);
        let w1 = build(&[b"b", b"c"]);
        let mut merged = Interner::new();
        merged.remap_from(&w0);
        merged.remap_from(&w1);
        assert_eq!(merged.payload(PayloadId(0)), b"a");
        assert_eq!(merged.payload(PayloadId(1)), b"b");
        assert_eq!(merged.payload(PayloadId(2)), b"c");
    }

    #[test]
    fn extend_remap_from_matches_one_shot_remap() {
        // Growing a remap prefix-by-prefix must land on the same tables —
        // and the same target ids — as one remap over the final arena.
        let mut src = Interner::new();
        src.intern_payload(b"a");
        src.intern_cred("u");
        let mut target_inc = Interner::new();
        let mut remap_inc = Remap::default();
        target_inc.extend_remap_from(&src, &mut remap_inc);
        src.intern_payload(b"b");
        src.intern_payload(b"a"); // no-op: already interned
        src.intern_cred("v");
        target_inc.extend_remap_from(&src, &mut remap_inc);

        let mut target_once = Interner::new();
        let remap_once = target_once.remap_from(&src);
        assert_eq!(target_inc.payload_count(), target_once.payload_count());
        assert_eq!(target_inc.cred_count(), target_once.cred_count());
        for i in 0..src.payload_count() as u32 {
            assert_eq!(
                remap_inc.payload(PayloadId(i)),
                remap_once.payload(PayloadId(i))
            );
        }
        for i in 0..src.cred_count() as u32 {
            assert_eq!(remap_inc.cred(CredId(i)), remap_once.cred(CredId(i)));
        }
    }

    #[test]
    fn reserve_changes_no_ids() {
        let mut a = Interner::new();
        a.intern_payload(b"x");
        a.reserve(1000, 1000);
        assert_eq!(a.intern_payload(b"x"), PayloadId(0));
        assert_eq!(a.intern_payload(b"y"), PayloadId(1));
        assert_eq!(a.payload_count(), 2);
    }

    #[test]
    fn identity_remap_is_a_noop() {
        let r = Remap::identity();
        assert_eq!(r.payload(PayloadId(7)), PayloadId(7));
        assert_eq!(r.cred(CredId(3)), CredId(3));
    }

    #[test]
    fn snapshot_round_trip_preserves_ids() {
        let mut i = Interner::new();
        i.intern_payload(b"\x16\x03\x01");
        i.intern_payload(b"");
        i.intern_payload(b"GET / HTTP/1.1");
        i.intern_cred("root");
        i.intern_cred("123456");
        let mut w = SnapWriter::new();
        i.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Interner::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.payload_count(), 3);
        assert_eq!(back.cred_count(), 2);
        // Ids are positional, so equality of the ordered value lists is
        // equality of every id assignment.
        assert_eq!(back.payload(PayloadId(0)), b"\x16\x03\x01");
        assert_eq!(back.payload(PayloadId(1)), b"");
        assert_eq!(back.payload(PayloadId(2)), b"GET / HTTP/1.1");
        assert_eq!(back.cred(CredId(0)), "root");
        assert_eq!(back.cred(CredId(1)), "123456");
        // And the rebuilt hash tables still dedupe correctly.
        let mut back = back;
        assert_eq!(back.intern_payload(b"GET / HTTP/1.1"), PayloadId(2));
        assert_eq!(back.intern_cred("root"), CredId(0));
    }

    #[test]
    fn snapshot_with_duplicate_value_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(2);
        w.put_bytes(b"same");
        w.put_bytes(b"same");
        w.put_u64(0);
        let bytes = w.into_bytes();
        let err = Interner::snap_read(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)));
    }
}

//! Binary snapshot codec for the simulate-once artifact cache.
//!
//! The paper's pipeline is one observation campaign feeding many analyses;
//! this module provides the wire format that lets the reproduction do the
//! same. A simulation's captured state (interned event table, telescope
//! counters, reputation labels, …) is encoded with [`SnapWriter`], sealed
//! into a self-verifying container by [`seal`], and written under
//! `out/.cache/`. Later runs [`unseal`] and decode with [`SnapReader`]
//! instead of re-simulating.
//!
//! # Container format
//!
//! ```text
//! offset  size    field
//! 0       8       magic  b"CWSNAP\x00\x01"
//! 8       4       format version (u32 LE) — bump on any layout change
//! 12      8       payload length N (u64 LE)
//! 20      N       payload (SnapWriter-encoded body)
//! 20+N    32 × C  SHA-256 of each CHUNK-byte slice of the payload, in
//!                 order; C = ⌈N / CHUNK⌉ (the last chunk may be short)
//! ```
//!
//! The container's exact length is a function of N, so a header check
//! ([`open`]: magic, version, length) rejects truncation and trailing
//! bytes before any hashing. The chunk digests are then verified
//! independently, on up to `available_parallelism()` scoped threads that
//! claim chunks from a shared counter ([`crate::par::claim_while`]). Those
//! threads are not governed by `--threads`, like the engine's shard
//! threads. [`unseal`] does both steps; [`Sealed::verify_while`] overlaps
//! the verification with other work on the calling thread (the snapshot
//! loader decodes meanwhile).
//!
//! Sealed bytes never depend on the number of hashing threads: each
//! digest is a pure function of its chunk, and the digests are laid out
//! in chunk order.
//!
//! [`unseal`] fails closed: a bad magic, unknown version, wrong length,
//! or any chunk digest mismatch all return a [`SnapError`] and the caller
//! silently falls back to re-simulating. Corruption can therefore cost
//! time but never correctness.
//!
//! # Encoding rules
//!
//! All integers are little-endian and fixed-width. Collections are
//! length-prefixed with a `u64` count. `f64` travels as its IEEE-754 bit
//! pattern. There is no alignment, padding, or backward compatibility:
//! the format version is part of the cache key, so readers only ever see
//! bytes their own writer produced.
//!
//! A decoder may run before verification has finished, so it must stay
//! bounded on arbitrary bytes: every count that sizes an allocation is
//! read with [`SnapReader::get_count_of`], which rejects a count whose
//! elements could not fit in the bytes that remain.

use crate::par::{claim_while, hardware_threads};
use crate::sha256::sha256;
use std::sync::OnceLock;

/// Leading bytes of every sealed snapshot container.
pub const MAGIC: [u8; 8] = *b"CWSNAP\x00\x01";

/// Current snapshot format version. Bump whenever any encoded layout
/// changes; stale cache entries then miss on the version check (and on
/// the content-addressed filename) and are re-simulated.
///
/// Version history: 1 = initial sealed-container layout; 2 = scenario
/// config carries a serialized [`crate::fault::FaultPlan`]; 3 = one
/// SHA-256 per [`CHUNK`] of payload instead of one for the whole payload.
pub const FORMAT_VERSION: u32 = 3;

/// Payload bytes covered by one trailer digest.
pub const CHUNK: usize = 1 << 20;

/// Header bytes before the payload: magic, version, payload length.
const HEADER: usize = MAGIC.len() + 4 + 8;

/// Size of one chunk digest.
const DIGEST: usize = 32;

/// Why a snapshot failed to decode.
///
/// Every variant is a cache *miss*, not a hard error: the caller discards
/// the snapshot and re-simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The container or payload ended before an expected field.
    Truncated,
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The container's format version is not the one this build writes.
    VersionMismatch {
        /// Version found in the container header.
        found: u32,
        /// Version this build expects ([`FORMAT_VERSION`]).
        expected: u32,
    },
    /// The payload's SHA-256 does not match the stored trailer digest.
    HashMismatch,
    /// A decoded value is structurally impossible (e.g. a non-UTF-8
    /// string, or a count that contradicts a sibling column).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "snapshot magic bytes missing"),
            SnapError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, expected v{expected}")
            }
            SnapError::HashMismatch => write!(f, "snapshot payload hash mismatch"),
            SnapError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for the snapshot payload.
///
/// Symmetric with [`SnapReader`]: every `put_*` here has a matching
/// `get_*` there, and a round trip reproduces the values exactly.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Encoded payload size so far, in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a byte string: `u64` length prefix, then the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a UTF-8 string (same wire form as [`SnapWriter::put_bytes`]).
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-based decoder over a snapshot payload.
///
/// Reads fail with [`SnapError::Truncated`] rather than panicking, so a
/// damaged cache file can never take down an analysis run.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the payload has been fully consumed (decoders check this
    /// at the end so trailing garbage is treated as corruption).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` (little-endian).
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32` (little-endian).
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` (little-endian).
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a column of `n` fixed-width values, `W` bytes each, taken in
    /// one bounds check (all or nothing). Yields each value's raw bytes;
    /// the caller decodes them, e.g. `u32::from_le_bytes`.
    pub fn get_column<const W: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; W]> + 'a, SnapError> {
        let bytes = self.take(n.checked_mul(W).ok_or(SnapError::Truncated)?)?;
        Ok(bytes.chunks_exact(W).map(|c| c.try_into().unwrap()))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| SnapError::Truncated)?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Malformed("non-UTF-8 string"))
    }

    /// Read a `u64` count of elements at least one byte wide each: a
    /// count larger than `remaining()` is corruption, not a huge snapshot.
    pub fn get_count(&mut self) -> Result<usize, SnapError> {
        self.get_count_of(1)
    }

    /// Read a `u64` count of elements that each take at least `width`
    /// bytes on the wire, rejecting it as [`SnapError::Truncated`] when
    /// `count × width` exceeds `remaining()`. Decoders size allocations
    /// from such counts, so a corrupt count can never reserve more memory
    /// than the snapshot itself could fill.
    pub fn get_count_of(&mut self, width: usize) -> Result<usize, SnapError> {
        let n = usize::try_from(self.get_u64()?).map_err(|_| SnapError::Truncated)?;
        match n.checked_mul(width) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(SnapError::Truncated),
        }
    }
}

/// Wrap an encoded payload in the self-verifying container: magic,
/// format version, length, payload, one SHA-256 per [`CHUNK`] of payload.
/// The chunks are hashed in parallel; the bytes do not depend on how many
/// threads hashed them.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    seal_on(payload, hardware_threads())
}

/// [`seal`] with an explicit worker count (the thread-count-independence
/// tests pin 1 worker against several).
fn seal_on(payload: &[u8], workers: usize) -> Vec<u8> {
    let chunks: Vec<&[u8]> = payload.chunks(CHUNK).collect();
    let digests: Vec<OnceLock<[u8; DIGEST]>> = chunks.iter().map(|_| OnceLock::new()).collect();
    claim_while(chunks.len(), workers, |i| digests[i].set(sha256(chunks[i])).is_ok(), || ());
    let mut out = Vec::with_capacity(HEADER + payload.len() + DIGEST * digests.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    for d in digests {
        out.extend_from_slice(&d.into_inner().expect("every chunk is hashed"));
    }
    out
}

/// A container whose header checks passed ([`open`]) but whose chunk
/// digests are not yet verified: the payload must not be trusted until
/// [`Sealed::verify_while`] returns `Ok`.
#[derive(Debug, Clone, Copy)]
pub struct Sealed<'a> {
    payload: &'a [u8],
    digests: &'a [u8],
}

impl<'a> Sealed<'a> {
    /// The payload bytes, *unverified*.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Number of chunk digests in the trailer.
    fn chunks(&self) -> usize {
        self.digests.len() / DIGEST
    }

    /// Whether chunk `i` hashes to its stored digest.
    fn chunk_ok(&self, i: usize) -> bool {
        let end = ((i + 1) * CHUNK).min(self.payload.len());
        sha256(&self.payload[i * CHUNK..end])[..] == self.digests[i * DIGEST..(i + 1) * DIGEST]
    }

    /// Run `work` on the calling thread while scoped helper threads verify
    /// chunk digests; when `work` returns, the calling thread joins in
    /// until every chunk is claimed. Returns `work`'s result together with
    /// the verdict, [`SnapError::HashMismatch`] if any chunk differed.
    pub fn verify_while<R>(&self, work: impl FnOnce() -> R) -> (R, Result<(), SnapError>) {
        self.verify_while_on(hardware_threads(), work)
    }

    fn verify_while_on<R>(
        &self,
        workers: usize,
        work: impl FnOnce() -> R,
    ) -> (R, Result<(), SnapError>) {
        let (out, all_match) = claim_while(self.chunks(), workers, |i| self.chunk_ok(i), work);
        (
            out,
            if all_match {
                Ok(())
            } else {
                Err(SnapError::HashMismatch)
            },
        )
    }
}

/// Check a sealed container's header without hashing anything.
///
/// Checks, in order: magic bytes, format version, and that the container
/// is exactly as long as its declared payload length implies (truncation
/// and trailing bytes are both [`SnapError::Truncated`]).
pub fn open(container: &[u8]) -> Result<Sealed<'_>, SnapError> {
    let mut r = SnapReader::new(container);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let len = usize::try_from(r.get_u64()?).map_err(|_| SnapError::Truncated)?;
    let trailer = len.div_ceil(CHUNK) * DIGEST;
    if len.checked_add(trailer) != Some(r.remaining()) {
        return Err(SnapError::Truncated);
    }
    let payload = r.take(len)?;
    let digests = r.take(trailer)?;
    Ok(Sealed { payload, digests })
}

/// Verify a sealed container and return its payload slice: the header
/// checks of [`open`], then every chunk digest, in parallel. Any failure
/// is a [`SnapError`] the caller treats as a cache miss.
pub fn unseal(container: &[u8]) -> Result<&[u8], SnapError> {
    let sealed = open(container)?;
    let ((), verdict) = sealed.verify_while(|| ());
    verdict.map(|()| sealed.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-0.1234567890123);
        w.put_bytes(b"\x00blob\xFF");
        w.put_str("p\u{e5}ssword");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xCDEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -0.1234567890123);
        assert_eq!(r.get_bytes().unwrap(), b"\x00blob\xFF");
        assert_eq!(r.get_str().unwrap(), "p\u{e5}ssword");
        assert!(r.is_exhausted());
    }

    #[test]
    fn f64_bit_patterns_survive_exactly() {
        for v in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            let mut w = SnapWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let got = SnapReader::new(&bytes).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
        // A length prefix promising more bytes than exist is also truncation.
        let mut w = SnapWriter::new();
        w.put_u64(1_000_000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn non_utf8_string_is_malformed() {
        let mut w = SnapWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn seal_unseal_round_trip() {
        let payload = b"the quick brown fox";
        let sealed = seal(payload);
        assert_eq!(unseal(&sealed).unwrap(), payload);
    }

    #[test]
    fn unseal_rejects_bad_magic() {
        let mut sealed = seal(b"data");
        sealed[0] ^= 0x01;
        assert_eq!(unseal(&sealed), Err(SnapError::BadMagic));
    }

    #[test]
    fn unseal_rejects_version_mismatch() {
        let mut sealed = seal(b"data");
        sealed[8] = 0xFE; // low byte of the u32 LE version field
        assert!(matches!(
            unseal(&sealed),
            Err(SnapError::VersionMismatch { found: 0xFE, .. })
        ));
    }

    #[test]
    fn unseal_rejects_truncation() {
        let sealed = seal(b"data");
        assert_eq!(unseal(&sealed[..sealed.len() - 1]), Err(SnapError::Truncated));
        // Trailing garbage is equally fatal: length must match exactly.
        let mut padded = sealed.clone();
        padded.push(0);
        assert_eq!(unseal(&padded), Err(SnapError::Truncated));
    }

    #[test]
    fn unseal_rejects_payload_corruption() {
        let mut sealed = seal(b"exhibit payload bytes");
        let payload_start = MAGIC.len() + 4 + 8;
        sealed[payload_start + 3] ^= 0x20;
        assert_eq!(unseal(&sealed), Err(SnapError::HashMismatch));
    }

    #[test]
    fn empty_payload_seals_fine() {
        let sealed = seal(b"");
        assert_eq!(sealed.len(), HEADER);
        assert_eq!(unseal(&sealed).unwrap(), b"");
    }

    /// Deterministic non-constant payload bytes.
    fn payload_of(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
    }

    #[test]
    fn trailer_holds_one_digest_per_chunk() {
        for len in [1, CHUNK - 1, CHUNK, CHUNK + 1] {
            let payload = payload_of(len);
            let sealed = seal(&payload);
            let chunks = len.div_ceil(CHUNK);
            assert_eq!(sealed.len(), HEADER + len + DIGEST * chunks);
            for (i, chunk) in payload.chunks(CHUNK).enumerate() {
                let at = HEADER + len + i * DIGEST;
                assert_eq!(sealed[at..at + DIGEST], sha256(chunk));
            }
            assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
        }
    }

    #[test]
    fn sealed_bytes_do_not_depend_on_the_worker_count() {
        let payload = payload_of(CHUNK + 5);
        let one = seal_on(&payload, 1);
        for workers in [2, 3, 8] {
            assert_eq!(seal_on(&payload, workers), one, "{workers} workers");
        }
        assert_eq!(seal(&payload), one);
        // Verification agrees with itself on any worker count, too.
        let sealed = open(&one).unwrap();
        for workers in [1, 2, 8] {
            assert_eq!(sealed.verify_while_on(workers, || ()).1, Ok(()));
        }
    }

    #[test]
    fn every_damaged_chunk_or_digest_is_a_hash_mismatch() {
        let len = CHUNK + 100;
        let sealed = seal(&payload_of(len));
        let chunks = len.div_ceil(CHUNK);
        // One flip inside each payload chunk, and one inside each digest.
        let mut spots: Vec<usize> = (0..chunks).map(|c| HEADER + c * CHUNK + 17).collect();
        spots.extend((0..chunks).map(|c| HEADER + len + c * DIGEST + 5));
        for at in spots {
            let mut bad = sealed.clone();
            bad[at] ^= 0x04;
            for workers in [1, 2] {
                let opened = open(&bad).unwrap();
                assert_eq!(
                    opened.verify_while_on(workers, || ()).1,
                    Err(SnapError::HashMismatch),
                    "flip at {at}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn length_must_match_the_chunk_count_exactly() {
        let len = CHUNK + 3;
        let sealed = seal(&payload_of(len));
        for cut in [1, DIGEST - 1, DIGEST, DIGEST + 1, DIGEST + 4] {
            assert_eq!(
                unseal(&sealed[..sealed.len() - cut]),
                Err(SnapError::Truncated)
            );
        }
        // A declared length one chunk shorter or longer than the real one
        // changes the trailer size, so the header check catches it.
        for declared in [len - CHUNK, len + CHUNK, u64::MAX as usize] {
            let mut bad = sealed.clone();
            bad[12..20].copy_from_slice(&(declared as u64).to_le_bytes());
            assert_eq!(unseal(&bad), Err(SnapError::Truncated));
        }
    }

    #[test]
    fn verify_while_returns_the_work_result_and_the_verdict() {
        let sealed = seal(&payload_of(CHUNK + 1));
        let opened = open(&sealed).unwrap();
        let (sum, verdict) = opened.verify_while(|| opened.payload().len() + 1);
        assert_eq!((sum, verdict), (CHUNK + 2, Ok(())));
    }

    #[test]
    fn count_of_width_rejects_counts_the_remaining_bytes_cannot_hold() {
        // 3 elements of width 8 need 24 bytes; exactly 24 follow the count.
        let mut w = SnapWriter::new();
        w.put_u64(3);
        for _ in 0..3 {
            w.put_u64(0);
        }
        let bytes = w.into_bytes();
        assert_eq!(SnapReader::new(&bytes).get_count_of(8), Ok(3));
        assert_eq!(
            SnapReader::new(&bytes).get_count_of(9),
            Err(SnapError::Truncated)
        );
        assert_eq!(
            SnapReader::new(&bytes[..bytes.len() - 1]).get_count_of(8),
            Err(SnapError::Truncated)
        );
        // A huge count overflows `count × width` and is rejected, not wrapped.
        for huge in [u64::MAX, u64::MAX / 2, 1 << 62] {
            let mut w = SnapWriter::new();
            w.put_u64(huge);
            w.put_bytes(&[0; 64]);
            let bytes = w.into_bytes();
            assert_eq!(
                SnapReader::new(&bytes).get_count_of(4),
                Err(SnapError::Truncated)
            );
            assert_eq!(
                SnapReader::new(&bytes).get_count(),
                Err(SnapError::Truncated)
            );
        }
        // The plain count is bounded by what remains, not the whole buffer.
        let mut w = SnapWriter::new();
        w.put_u64(9);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapReader::new(&bytes).get_count(),
            Err(SnapError::Truncated)
        );
        // A zero count fits anywhere.
        assert_eq!(
            SnapReader::new(&0u64.to_le_bytes()).get_count_of(1 << 20),
            Ok(0)
        );
    }
}

//! The state plane's binary codec: a versioned snapshot format with
//! length-prefixed sections and a trailing integrity hash.
//!
//! Every stateful subsystem that participates in run checkpointing
//! implements [`Snapshot`]: the ECS tables in the ecosystem simulator, the
//! search engine, the columnar crawl database, the telemetry registry, and
//! the run-level checkpoint container itself. The wire format is
//! deliberately simple and fully self-describing at the frame level:
//!
//! ```text
//! +--------+---------------------+---------+----------+------+--------+
//! | "SSN2" | tag (u16 len + str) | version | body_len | body | hash64 |
//! +--------+---------------------+---------+----------+------+--------+
//! ```
//!
//! * the 4-byte magic rejects non-checkpoint files immediately, and names
//!   frames of the older `SSNP` format (hashed byte-wise with FNV-1a) as
//!   such: [`SnapshotError::OlderFormat`];
//! * the **tag** names the snapshotted type, so a `World` frame can never
//!   be decoded as a `CrawlDb` frame;
//! * the **version** is per-type; bump it whenever the body layout
//!   changes. Decoders reject mismatched versions with a typed error —
//!   there is no cross-version migration, a checkpoint is only readable
//!   by the code revision (±compatible layout) that wrote it;
//! * `body_len` length-prefixes the body, so nested frames can be skipped
//!   or extracted without decoding them;
//! * the trailing hash is [`frame_hash`] over every preceding byte:
//!   flipped bits and truncations surface as
//!   [`SnapshotError::IntegrityMismatch`] / [`SnapshotError::Truncated`],
//!   never as a panic or a silently wrong world.
//!
//! All integers are little-endian. Floats are encoded via their IEEE-754
//! bit patterns so round-trips are exact. Nothing here allocates on the
//! read path beyond the values being built, and a nested frame is built
//! inside the buffer of the frame that encloses it: encoding a whole
//! checkpoint grows one `Vec`.

use std::fmt;

/// Errors a snapshot decode can produce. Corrupted, truncated, or
/// mismatched inputs are always reported through this enum — decoding
/// never panics on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the structure did.
    Truncated,
    /// The leading magic bytes are not `SSN2`.
    BadMagic,
    /// The frame was written in the older `SSNP` format, whose integrity
    /// hash is byte-wise FNV-1a; this build reads `SSN2` frames only.
    OlderFormat,
    /// The frame's tag names a different type than the decoder expects.
    WrongTag {
        /// Tag the decoder expected.
        expected: &'static str,
        /// Tag found in the frame.
        found: String,
    },
    /// The frame's format version differs from the decoder's.
    WrongVersion {
        /// The frame's tag.
        tag: &'static str,
        /// Version the decoder expects.
        expected: u16,
        /// Version found in the frame.
        found: u16,
    },
    /// The trailing integrity hash does not match the frame contents.
    IntegrityMismatch,
    /// The bytes parsed but describe an impossible value.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::OlderFormat => write!(
                f,
                "snapshot in the older SSNP frame format (FNV-1a hashed); this build reads SSN2 frames only"
            ),
            SnapshotError::WrongTag { expected, found } => {
                write!(
                    f,
                    "snapshot tag mismatch: expected {expected:?}, found {found:?}"
                )
            }
            SnapshotError::WrongVersion {
                tag,
                expected,
                found,
            } => write!(
                f,
                "snapshot {tag:?} version mismatch: expected v{expected}, found v{found}"
            ),
            SnapshotError::IntegrityMismatch => {
                write!(f, "snapshot integrity hash mismatch (corrupted bytes)")
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte slice — the workhorse of the `state_fingerprint`
/// helpers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one more word into a running FNV-style fingerprint. Used by the
/// `state_fingerprint`/`run_fingerprint` family so every layer folds its
/// state the same way.
pub fn fold_fingerprint(h: u64, word: u64) -> u64 {
    let mut h = h ^ word.rotate_left(23);
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 29)
}

/// The frame integrity hash: a multiply–xorshift over little-endian
/// 8-byte words, the byte length first, then each word, the tail
/// zero-padded. For a fixed word each step is a bijection of the running
/// state, and for a fixed state a bijection of the word, so two inputs of
/// one length that differ within one word always hash apart. It reads a
/// word per multiply where FNV-1a reads a byte.
pub fn frame_hash(bytes: &[u8]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }
    let mut h = step(0x5353_4e32_6672_6d65, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(padded));
    }
    h
}

const MAGIC: &[u8; 4] = b"SSN2";
/// The magic of the older frame format, whose trailing hash is FNV-1a.
const OLDER_MAGIC: &[u8; 4] = b"SSNP";

/// Builds one full self-describing frame — magic, tag, version, body
/// length, trailing integrity hash — around body bytes produced by
/// `write_body`. This is exactly the layout [`Snapshot::encode`] emits;
/// it exists separately so a *borrowed view* of a large structure (the
/// run-level checkpoint is assembled from `&World`, `&Crawler`, …) can be
/// framed without first constructing the owned decode-side type.
pub fn encode_framed(tag: &str, version: u16, write_body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_frame(tag, version, write_body);
    w.into_bytes()
}

/// An append-only byte sink with typed little-endian writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` via its IEEE-754 bit pattern (exact round-trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a collection length (as `u64`).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes a [`crate::SimDate`] as its day index.
    pub fn put_date(&mut self, d: crate::SimDate) {
        self.put_u32(d.day_index());
    }

    /// Writes an `Option` as a presence byte plus the value.
    pub fn put_opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(v) => {
                self.put_bool(true);
                f(self, v);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a slice as a length prefix plus each element.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_len(items.len());
        for item in items {
            f(self, item);
        }
    }

    /// Embeds another snapshot as a length-prefixed nested frame. The
    /// nested frame keeps its own tag/version/integrity hash, so nested
    /// corruption is attributed to the inner type.
    pub fn put_nested<T: Snapshot>(&mut self, v: &T) {
        self.put_nested_frame(T::TAG, T::VERSION, |w| v.write_body(w));
    }

    /// [`Writer::put_nested`] for any tag: the frame's `u64` length
    /// prefix, then the frame itself, built in place.
    fn put_nested_frame(&mut self, tag: &str, version: u16, write_body: impl FnOnce(&mut Writer)) {
        let len_at = self.reserve_u64();
        self.put_frame(tag, version, write_body);
        self.patch_len(len_at);
    }

    /// Appends one whole frame, building it inside this buffer: the
    /// header with a placeholder `body_len`, the body written through the
    /// same writer, the patched length, then the [`frame_hash`] of the
    /// frame's own byte range. Nested frames therefore never live in a
    /// buffer of their own and are never copied up a level.
    fn put_frame(&mut self, tag: &str, version: u16, write_body: impl FnOnce(&mut Writer)) {
        let start = self.buf.len();
        self.buf.extend_from_slice(MAGIC);
        self.put_u16(tag.len() as u16);
        self.buf.extend_from_slice(tag.as_bytes());
        self.put_u16(version);
        let len_at = self.reserve_u64();
        write_body(self);
        self.patch_len(len_at);
        let hash = frame_hash(&self.buf[start..]);
        self.put_u64(hash);
    }

    /// Writes a zero `u64` to patch later; returns its offset.
    fn reserve_u64(&mut self) -> usize {
        let at = self.buf.len();
        self.put_u64(0);
        at
    }

    /// Overwrites the `u64` reserved at `at` with the number of bytes
    /// written after it.
    fn patch_len(&mut self, at: usize) {
        let n = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&n.to_le_bytes());
    }
}

/// A cursor over snapshot bytes with typed little-endian readers. Every
/// accessor returns [`SnapshotError::Truncated`] instead of panicking
/// when the input runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over raw body bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a collection length, bounds-checked against the bytes left
    /// (each element needs at least one byte) so hostile lengths cannot
    /// trigger enormous allocations.
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string as a slice of the input, for
    /// strings that are parsed or looked up at once rather than kept.
    pub fn get_str_ref(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.get_len()?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Reads a [`crate::SimDate`].
    pub fn get_date(&mut self) -> Result<crate::SimDate, SnapshotError> {
        Ok(crate::SimDate::from_day_index(self.get_u32()?))
    }

    /// Reads an `Option` written by [`Writer::put_opt`].
    pub fn get_opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence written by [`Writer::put_seq`].
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.get_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Reads a nested frame written by [`Writer::put_nested`].
    pub fn get_nested<T: Snapshot>(&mut self) -> Result<T, SnapshotError> {
        let bytes = self.get_bytes()?;
        T::decode(bytes)
    }
}

/// Versioned binary snapshot of a type's complete state.
///
/// Implementors provide the body codec; the trait wraps it in the framed
/// format (magic, tag, version, length, integrity hash). The contract —
/// pinned by per-crate round-trip property tests — is that
/// `decode(encode(x))` reconstructs a value observably identical to `x`:
/// same fingerprints, same downstream behaviour, bit-identical replay.
pub trait Snapshot: Sized {
    /// Type tag baked into the frame header.
    const TAG: &'static str;
    /// Body format version; bump on any layout change.
    const VERSION: u16;

    /// Serializes the body (no framing).
    fn write_body(&self, w: &mut Writer);

    /// Deserializes the body (no framing).
    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;

    /// Serializes the full self-describing frame.
    fn encode(&self) -> Vec<u8> {
        encode_framed(Self::TAG, Self::VERSION, |w| self.write_body(w))
    }

    /// Parses and validates a frame, then decodes the body. All failure
    /// modes are typed [`SnapshotError`]s.
    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        // Integrity first: the hash covers the header too, so header
        // corruption is reported as corruption, not as a confusing tag or
        // version mismatch.
        if bytes.len() < MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        match &bytes[..MAGIC.len()] {
            magic if magic == MAGIC => {}
            magic if magic == OLDER_MAGIC => return Err(SnapshotError::OlderFormat),
            _ => return Err(SnapshotError::BadMagic),
        }
        let (framed, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if frame_hash(framed) != stored {
            return Err(SnapshotError::IntegrityMismatch);
        }
        let mut r = Reader::new(&framed[MAGIC.len()..]);
        let tag_len = r.get_u16()? as usize;
        let tag_bytes = r.take(tag_len)?;
        let tag = std::str::from_utf8(tag_bytes)
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 tag".into()))?;
        if tag != Self::TAG {
            return Err(SnapshotError::WrongTag {
                expected: Self::TAG,
                found: tag.to_owned(),
            });
        }
        let version = r.get_u16()?;
        if version != Self::VERSION {
            return Err(SnapshotError::WrongVersion {
                tag: Self::TAG,
                expected: Self::VERSION,
                found: version,
            });
        }
        let body_len = r.get_u64()? as usize;
        if body_len != r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "body length {body_len} != {} bytes present",
                r.remaining()
            )));
        }
        let value = Self::read_body(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after body",
                r.remaining()
            )));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        a: u64,
        s: String,
        xs: Vec<u32>,
        f: f64,
        maybe: Option<String>,
    }

    impl Snapshot for Demo {
        const TAG: &'static str = "demo";
        const VERSION: u16 = 3;

        fn write_body(&self, w: &mut Writer) {
            w.put_u64(self.a);
            w.put_str(&self.s);
            w.put_seq(&self.xs, |w, x| w.put_u32(*x));
            w.put_f64(self.f);
            w.put_opt(self.maybe.as_ref(), |w, s| w.put_str(s));
        }

        fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            Ok(Demo {
                a: r.get_u64()?,
                s: r.get_str()?,
                xs: r.get_seq(|r| r.get_u32())?,
                f: r.get_f64()?,
                maybe: r.get_opt(|r| r.get_str())?,
            })
        }
    }

    fn demo() -> Demo {
        Demo {
            a: 0xdead_beef,
            s: "söme ütf-8".into(),
            xs: vec![1, 2, 3, u32::MAX],
            f: -0.125,
            maybe: Some("x".into()),
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let d = demo();
        assert_eq!(Demo::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn encode_framed_matches_trait_encode() {
        let d = demo();
        let framed = encode_framed(Demo::TAG, Demo::VERSION, |w| d.write_body(w));
        assert_eq!(framed, d.encode());
        assert_eq!(Demo::decode(&framed).unwrap(), d);
    }

    #[test]
    fn every_corruption_mode_is_typed() {
        let bytes = demo().encode();
        // Truncations at every prefix length: typed error, never panic.
        for n in 0..bytes.len() {
            let err = Demo::decode(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::IntegrityMismatch
                ),
                "prefix {n}: {err}"
            );
        }
        // Any single flipped bit must be caught by the integrity hash.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Demo::decode(&bad).is_err(), "flip at {i} went unnoticed");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        // (re-hash so the magic check, not the integrity check, fires)
        let n = bad.len();
        let h = frame_hash(&bad[..n - 8]);
        bad[n - 8..].copy_from_slice(&h.to_le_bytes());
        assert_eq!(Demo::decode(&bad).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn wrong_tag_and_version_are_rejected() {
        #[derive(Debug)]
        struct Other(u64);
        impl Snapshot for Other {
            const TAG: &'static str = "other";
            const VERSION: u16 = 3;
            fn write_body(&self, w: &mut Writer) {
                w.put_u64(self.0);
            }
            fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok(Other(r.get_u64()?))
            }
        }
        #[derive(Debug)]
        struct DemoV4;
        impl Snapshot for DemoV4 {
            const TAG: &'static str = "demo";
            const VERSION: u16 = 4;
            fn write_body(&self, _w: &mut Writer) {}
            fn read_body(_r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok(DemoV4)
            }
        }
        let frame = Other(7).encode();
        assert!(matches!(
            Demo::decode(&frame).unwrap_err(),
            SnapshotError::WrongTag {
                expected: "demo",
                ..
            }
        ));
        let frame = demo().encode();
        assert!(matches!(
            DemoV4::decode(&frame).unwrap_err(),
            SnapshotError::WrongVersion {
                tag: "demo",
                expected: 4,
                found: 3
            }
        ));
    }

    #[test]
    fn nested_frames_carry_their_own_integrity() {
        let mut w = Writer::new();
        w.put_nested(&demo());
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back: Demo = r.get_nested().unwrap();
        assert_eq!(back, demo());
        assert_eq!(r.get_u8().unwrap(), 9);
    }

    /// The frame hash on fixed inputs: empty, a partial word, a whole
    /// word, a word plus a tail, and a frame-sized run.
    #[test]
    fn frame_hash_is_pinned() {
        let run: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let pinned = [
            (&b""[..], 0xc033_0017_4ea2_e55e),
            (b"a", 0x6802_d383_8f74_3c64),
            (b"SSN2snap", 0xd774_8591_f3d9_7dc4),
            (b"search-engine", 0x3e0d_dfc4_5025_953c),
            (&run[..], 0x13f7_a37f_dd43_fa5e),
        ];
        for (bytes, hash) in pinned {
            assert_eq!(frame_hash(bytes), hash, "{bytes:?}");
        }
        // Zero padding does not alias: the length is hashed first.
        assert_ne!(frame_hash(b"ab"), frame_hash(b"ab\0"));
        assert_ne!(frame_hash(b""), frame_hash(&[0; 8]));
    }

    /// Every single-bit change anywhere in a buffer changes the hash.
    #[test]
    fn frame_hash_sees_every_bit() {
        let base: Vec<u8> = (0..67u8).map(|b| b.wrapping_mul(37)).collect();
        let h = frame_hash(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(frame_hash(&flipped), h, "bit {i}");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A length claiming 2^60 elements must fail fast, not OOM.
        let mut w = Writer::new();
        w.put_u64(1 << 60);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_len().unwrap_err(), SnapshotError::Truncated);
    }
}

/// The two-buffer framing the in-place writer replaced, kept as its
/// byte-equality oracle: each body is encoded into a fresh `Vec`, framed
/// into a second one, and a nested frame is then copied into its parent.
/// With the older magic and FNV-1a it also writes the older-format frames
/// that decode must refuse by name.
#[cfg(test)]
mod framing_oracle {
    use super::*;
    use crate::rng::{sub_rng, SimRng};
    use rand::Rng;

    /// A frame format: its magic and its trailing hash.
    struct Format {
        magic: &'static [u8; 4],
        hash: fn(&[u8]) -> u64,
    }

    const CURRENT: Format = Format {
        magic: MAGIC,
        hash: frame_hash,
    };

    /// The format before word-wise hashing, kept to write older frames.
    const OLDER: Format = Format {
        magic: OLDER_MAGIC,
        hash: fnv1a64,
    };

    fn encode_framed_two_buffer(
        format: &Format,
        tag: &str,
        version: u16,
        write_body: impl FnOnce(&mut Writer),
    ) -> Vec<u8> {
        let mut body = Writer::new();
        write_body(&mut body);
        let body = body.into_bytes();
        let mut w = Writer::new();
        w.buf.extend_from_slice(format.magic);
        w.put_u16(tag.len() as u16);
        w.buf.extend_from_slice(tag.as_bytes());
        w.put_u16(version);
        w.put_u64(body.len() as u64);
        w.buf.extend_from_slice(&body);
        let hash = (format.hash)(&w.buf);
        w.put_u64(hash);
        w.into_bytes()
    }

    /// A random frame: its body interleaves raw byte runs with nested
    /// child frames.
    struct Frame {
        tag: String,
        version: u16,
        body: Vec<Part>,
    }

    enum Part {
        Bytes(Vec<u8>),
        Child(Frame),
    }

    /// Nesting depth ≤ 3 below the root; a quarter of the bodies are
    /// empty, and tag lengths run from 0 past 2,000 bytes, non-ASCII
    /// included.
    fn random_frame(rng: &mut SimRng, depth: u32) -> Frame {
        let tag_len = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(1..12),
            2 => rng.gen_range(12..80),
            _ => rng.gen_range(200..2_200),
        };
        let tag = (0..tag_len)
            .map(|_| ['a', 'z', '-', 'é', '日'][rng.gen_range(0..5)])
            .collect();
        let parts = if rng.gen_range(0..4) == 0 {
            0
        } else {
            rng.gen_range(1..6)
        };
        let body = (0..parts)
            .map(|_| {
                if depth < 3 && rng.gen_bool(0.5) {
                    Part::Child(random_frame(rng, depth + 1))
                } else {
                    let n = rng.gen_range(0..48);
                    Part::Bytes((0..n).map(|_| rng.gen()).collect())
                }
            })
            .collect();
        Frame {
            tag,
            version: rng.gen(),
            body,
        }
    }

    fn write_in_place(w: &mut Writer, body: &[Part]) {
        for part in body {
            match part {
                Part::Bytes(b) => w.put_bytes(b),
                Part::Child(f) => w.put_nested_frame(&f.tag, f.version, |w| {
                    write_in_place(w, &f.body);
                }),
            }
        }
    }

    fn write_two_buffer(w: &mut Writer, body: &[Part]) {
        for part in body {
            match part {
                Part::Bytes(b) => w.put_bytes(b),
                Part::Child(f) => w.put_bytes(&encode_framed_two_buffer(
                    &CURRENT,
                    &f.tag,
                    f.version,
                    |w| {
                        write_two_buffer(w, &f.body);
                    },
                )),
            }
        }
    }

    fn check(seed: u64) {
        let root = random_frame(&mut sub_rng(seed, "framing-oracle"), 0);
        let in_place = encode_framed(&root.tag, root.version, |w| write_in_place(w, &root.body));
        let oracle = encode_framed_two_buffer(&CURRENT, &root.tag, root.version, |w| {
            write_two_buffer(w, &root.body);
        });
        assert!(in_place == oracle, "seed {seed}: in-place frame differs");
        let (framed, trailer) = in_place.split_at(in_place.len() - 8);
        assert_eq!(frame_hash(framed).to_le_bytes(), trailer, "seed {seed}");
    }

    struct Leaf(Vec<u8>);

    impl Snapshot for Leaf {
        const TAG: &'static str = "leaf";
        const VERSION: u16 = 7;
        fn write_body(&self, w: &mut Writer) {
            w.put_bytes(&self.0);
        }
        fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            Ok(Leaf(r.get_bytes()?.to_vec()))
        }
    }

    /// A frame of the older format, well formed and correctly hashed, is
    /// refused by name, on its own and nested in a current frame.
    #[test]
    fn older_format_frames_are_refused_by_name() {
        let leaf = Leaf(vec![1, 2, 3]);
        let older = encode_framed_two_buffer(&OLDER, Leaf::TAG, Leaf::VERSION, |w| {
            leaf.write_body(w);
        });
        let err = Leaf::decode(&older).map(|_| ()).unwrap_err();
        assert_eq!(err, SnapshotError::OlderFormat);
        assert!(err.to_string().contains("older SSNP"), "{err}");
        let outer = encode_framed(Leaf::TAG, Leaf::VERSION, |w| w.put_bytes(&older));
        let mut r = Reader::new(&outer);
        r.take(MAGIC.len() + 2 + Leaf::TAG.len() + 2 + 8).unwrap();
        assert_eq!(
            r.get_nested::<Leaf>().map(|_| ()).unwrap_err(),
            SnapshotError::OlderFormat
        );
        // Truncated older frames are still refused, never misread.
        for n in 0..older.len() {
            assert!(Leaf::decode(&older[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn trait_frames_match_the_two_buffer_oracle() {
        for leaf in [Leaf(Vec::new()), Leaf(vec![1, 2, 3])] {
            let mut w = Writer::new();
            w.put_u8(5);
            w.put_nested(&leaf);
            let mut oracle = Writer::new();
            oracle.put_u8(5);
            oracle.put_bytes(&encode_framed_two_buffer(
                &CURRENT,
                Leaf::TAG,
                Leaf::VERSION,
                |w| {
                    leaf.write_body(w);
                },
            ));
            assert_eq!(w.into_bytes(), oracle.into_bytes());
            assert_eq!(
                leaf.encode(),
                encode_framed_two_buffer(&CURRENT, Leaf::TAG, Leaf::VERSION, |w| leaf
                    .write_body(w))
            );
        }
    }

    proptest::proptest! {
        /// In-place framing writes the oracle's bytes on random nested
        /// payloads.
        #[test]
        fn in_place_framing_matches_two_buffer_oracle(seed: u64) {
            check(seed);
        }
    }

    /// The same property over 10,000 seeds (CI runs it in release).
    #[test]
    #[ignore = "deep sweep; CI runs it in release via --include-ignored"]
    fn in_place_framing_deep_sweep() {
        for seed in 0..10_000 {
            check(seed);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// A random structured payload exercising every primitive the codec
    /// offers, including NaN-adjacent float bit patterns and non-ASCII
    /// strings.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob {
        n: u64,
        i: i64,
        f: f64,
        flag: bool,
        s: String,
        xs: Vec<u32>,
        maybe: Option<String>,
    }

    impl Snapshot for Blob {
        const TAG: &'static str = "prop-blob";
        const VERSION: u16 = 1;
        fn write_body(&self, w: &mut Writer) {
            w.put_u64(self.n);
            w.put_i64(self.i);
            w.put_f64(self.f);
            w.put_bool(self.flag);
            w.put_str(&self.s);
            w.put_seq(&self.xs, |w, x| w.put_u32(*x));
            w.put_opt(self.maybe.as_ref(), |w, s| w.put_str(s));
        }
        fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            Ok(Blob {
                n: r.get_u64()?,
                i: r.get_i64()?,
                f: r.get_f64()?,
                flag: r.get_bool()?,
                s: r.get_str()?,
                xs: r.get_seq(|r| r.get_u32())?,
                maybe: r.get_opt(|r| r.get_str())?,
            })
        }
    }

    fn blob_strategy() -> impl Strategy<Value = Blob> {
        (
            (
                any::<u64>(),
                any::<i64>(),
                any::<u64>(), // float travels as raw bits: cover every pattern
                any::<bool>(),
            ),
            (
                "[a-zA-Zéß日本0-9 ]{0,24}",
                proptest::collection::vec(any::<u32>(), 0..32),
                "[a-z]{0,8}",
                any::<bool>(),
            ),
        )
            .prop_map(|((n, i, fbits, flag), (s, xs, opt_s, some))| Blob {
                n,
                i,
                f: f64::from_bits(fbits),
                flag,
                s,
                xs,
                maybe: some.then_some(opt_s),
            })
    }

    proptest! {
        /// encode → decode is the identity on arbitrary payloads (floats
        /// compared by bit pattern so NaNs round-trip too).
        #[test]
        fn encode_decode_roundtrips(blob in blob_strategy()) {
            let back = Blob::decode(&blob.encode()).expect("decodes");
            prop_assert_eq!(back.n, blob.n);
            prop_assert_eq!(back.i, blob.i);
            prop_assert_eq!(back.f.to_bits(), blob.f.to_bits());
            prop_assert_eq!(back.flag, blob.flag);
            prop_assert_eq!(back.s, blob.s);
            prop_assert_eq!(back.xs, blob.xs);
            prop_assert_eq!(back.maybe, blob.maybe);
        }

        /// Any single-bit corruption anywhere in the frame is rejected
        /// with a typed error — the trailing hash leaves no blind spot.
        #[test]
        fn any_bit_flip_is_rejected(blob in blob_strategy(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
            let mut bytes = blob.encode();
            let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
            bytes[idx] ^= 1 << bit;
            prop_assert!(Blob::decode(&bytes).is_err(), "flip at byte {} bit {} accepted", idx, bit);
        }

        /// Any truncation is rejected with a typed error, never a panic.
        #[test]
        fn any_truncation_is_rejected(blob in blob_strategy(), frac in 0.0f64..1.0) {
            let bytes = blob.encode();
            let n = (bytes.len() as f64 * frac) as usize;
            prop_assert!(n >= bytes.len() || Blob::decode(&bytes[..n]).is_err());
        }
    }
}

//! Append-only, tamper-evident campaign journal.
//!
//! The multi-process prince logs every control decision and every
//! collected trace event to a journal file so an interrupted campaign
//! (crash, `kill -9`, power loss) can be resumed from the last completed
//! test instead of being rerun from scratch. The journal is designed for
//! the two failure modes that actually happen to append-only logs:
//!
//! * **Truncation** — the process died mid-write. The file ends with a
//!   partial frame; everything before it is intact and trustworthy.
//! * **Corruption/tampering** — bytes changed after being written. Each
//!   frame carries a CRC32 of its payload (catches bit rot cheaply) and
//!   a chained HMAC-SHA256 (catches deliberate modification, record
//!   reordering, and splicing records between journals keyed
//!   differently).
//!
//! ## Wire format
//!
//! ```text
//! file   := magic record*
//! magic  := "JMSTJNL2" (8 bytes)
//! record := len:u32le crc:u32le payload[len] mac[32]
//! mac_i  := HMAC-SHA256(key, mac_{i-1} || payload_i)   (mac_{-1} = 0^32)
//! ```
//!
//! The payload is the binary encoding of one [`JournalRecord`]: a kind
//! tag, then its fields in [`crate::codec`]'s format (an `Event` record
//! carries the event's compact encoding). Version 1 journals, whose
//! payloads were JSON, read as [`JournalError::BadHeader`]. Because
//! each MAC covers the previous MAC, verifying record *i* transitively
//! verifies the whole prefix: a reader that walks the file front to back
//! and checks each MAC either accepts the entire prefix or pinpoints the
//! first bad frame. [`Journal::salvage`] does exactly that, returning
//! the valid prefix plus a typed description of the damage, which the
//! prince maps onto the existing `Inconclusive` machinery.
//!
//! SHA-256, HMAC, and CRC32 are implemented here (the build is offline;
//! no crypto crates are available). They are checked against published
//! test vectors in this module's tests. A [`JournalKey`] absorbs the
//! HMAC pad blocks once, so each record's MAC hashes only
//! `mac_{i-1} || payload_i` plus one outer block: three SHA-256 blocks
//! for a typical event record.
//!
//! SHA-256 has two compression kernels. On x86-64, when
//! `is_x86_feature_detected!` finds the SHA extensions (with SSE2,
//! SSSE3 and SSE4.1), blocks go through the `sha256rnds2` intrinsics;
//! otherwise, and on every other architecture, through the portable
//! kernel. The choice is made at run time and changes no output byte;
//! the tests run both kernels on every host. CRC32 uses slicing-by-8:
//! eight tables, built at compile time, fold eight bytes per step. The
//! framed wire protocol uses the same [`crc32`].

use crate::codec::{CodecError, Reader, Writer};
use crate::event::Event;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::Path;

/// File magic: identifies a v2 (binary-payload) jmst journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"JMSTJNL2";

/// Upper bound on a single record's payload. A frame whose length field
/// exceeds this is corrupt (a flipped bit in `len` must not make the
/// reader treat the rest of the file as one giant truncated record).
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

const MAC_LEN: usize = 32;
const FRAME_HEADER_LEN: usize = 8; // len + crc

// ---------------------------------------------------------------------
// SHA-256 / HMAC-SHA256 / CRC32 (self-contained; offline build)
// ---------------------------------------------------------------------

static SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Folds one 64-byte block into a SHA-256 hash state.
type Compress = fn(&mut [u32; 8], &[u8; 64]);

/// A SHA-256 compression kernel: folds one 64-byte block into the
/// hash state. Every kernel computes the same function; they differ
/// only in speed. [`sha256`] and [`JournalKey`] use the fastest kernel
/// the CPU runs; the type is public so benchmarks can price the kernels
/// side by side on one host.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Sha256Kernel {
    name: &'static str,
    compress: Compress,
}

impl Sha256Kernel {
    /// The portable kernel: plain Rust, any architecture.
    pub const PORTABLE: Self = Self {
        name: "portable",
        compress: compress_portable,
    };

    /// The x86-64 SHA extensions kernel, when this CPU has them.
    pub fn sha_ni() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(compress) = sha_ni::kernel() {
            return Some(Self {
                name: "sha-ni",
                compress,
            });
        }
        None
    }

    /// The fastest kernel this CPU runs.
    fn fastest() -> Self {
        Self::sha_ni().unwrap_or(Self::PORTABLE)
    }

    /// A short name for reports: `"portable"` or `"sha-ni"`.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA256_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let add = [a, b, c, d, e, f, g, h];
    for (s, v) in state.iter_mut().zip(add) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 compression on the x86-64 SHA extensions (`sha256rnds2`
/// does two rounds, `sha256msg1`/`sha256msg2` extend the message
/// schedule four words at a time).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{Compress, SHA256_K};
    use std::arch::x86_64::*;

    /// The kernel, or `None` when this CPU lacks any feature it needs.
    pub(super) fn kernel() -> Option<Compress> {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        detected.then_some(compress as Compress)
    }

    /// Private to this module: [`kernel`] is the only way to reach it,
    /// and it hands it out only after detecting the features.
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: `kernel` returns this function only when
        // `is_x86_feature_detected!` found sha, sse2, ssse3 and sse4.1,
        // the features `compress_block` is compiled for.
        unsafe { compress_block(state, block) }
    }

    /// One block through the SHA extensions.
    ///
    /// # Safety
    ///
    /// Calling it is unsafe outside code compiled for these features:
    /// the CPU must have sha, sse2, ssse3 and sse4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte-swaps each 32-bit lane: the message words are big-endian.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let (s, p) = (state.as_ptr(), block.as_ptr());
        // SAFETY: 16-byte unaligned loads at offsets 0 and 16 of `state`
        // (32 bytes) and 0, 16, 32 and 48 of `block` (64 bytes).
        let (dcba, hgfe, [mut w0, mut w1, mut w2, mut w3]) = unsafe {
            (
                _mm_loadu_si128(s.cast()),
                _mm_loadu_si128(s.add(4).cast()),
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), be),
                ],
            )
        };
        // `sha256rnds2` wants the state as (a, b, e, f) and (c, d, g, h).
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);
        // Four rounds a step; `w0..w3` hold message words W[4q..4q+16].
        for quad in 0..16 {
            // SAFETY: a 16-byte load at word `4 * quad` of the 64-word
            // `SHA256_K`, and `4 * quad + 3 < 64`.
            let k = unsafe { _mm_loadu_si128(SHA256_K.as_ptr().add(4 * quad).cast()) };
            let wk = _mm_add_epi32(w0, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            // W[4q+16..4q+20]; the last four steps compute words no
            // round uses, which is cheaper than branching around them.
            let s0 = _mm_sha256msg1_epu32(w0, w1);
            let next = _mm_sha256msg2_epu32(_mm_add_epi32(s0, _mm_alignr_epi8(w3, w2, 4)), w3);
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: two 16-byte stores within `state` (32 bytes).
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

/// Incremental SHA-256 (FIPS 180-4).
#[derive(Clone)]
struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
    kernel: Sha256Kernel,
}

impl Sha256 {
    fn new() -> Self {
        Self::on(Sha256Kernel::fastest())
    }

    fn on(kernel: Sha256Kernel) -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
            kernel,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                (self.kernel.compress)(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            (self.kernel.compress)(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        data = blocks.remainder();
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_length = self.length.wrapping_mul(8);
        // 0x80, then zeros up to 56 mod 64, then the 64-bit length.
        let mut padding = [0u8; 64];
        padding[0] = 0x80;
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            120 - self.buffered
        };
        self.update(&padding[..pad_len]);
        self.update(&bit_length.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finish()
}

/// HMAC-SHA256 (RFC 2104) with the key's inner and outer pad blocks
/// already absorbed: a MAC clones the two hash states instead of
/// compressing two key blocks again.
#[derive(Clone)]
struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    fn new(key: &[u8]) -> Self {
        Self::on(Sha256Kernel::fastest(), key)
    }

    fn on(kernel: Sha256Kernel, key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let mut hasher = Sha256::on(kernel);
            hasher.update(key);
            key_block[..32].copy_from_slice(&hasher.finish());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::on(kernel);
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::on(kernel);
        outer.update(&key_block.map(|b| b ^ 0x5c));
        Self { inner, outer }
    }

    fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finish());
        outer.finish()
    }
}

/// HMAC-SHA256 over the concatenation of `parts` (RFC 2104).
pub fn hmac_sha256(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    HmacSha256::new(key).mac(parts)
}

/// CRC32 lookup tables for slicing-by-8: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Key
// ---------------------------------------------------------------------

/// The HMAC key authenticating a journal.
///
/// The same key must be supplied on resume; a journal written under a
/// different key fails verification at its first record with
/// [`JournalError::MacMismatch`].
#[derive(Clone)]
pub struct JournalKey(HmacSha256);

impl JournalKey {
    /// A key from exact bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(HmacSha256::new(&bytes))
    }

    /// Derives a key from a passphrase (SHA-256 of the UTF-8 bytes).
    pub fn from_passphrase(passphrase: &str) -> Self {
        Self::from_bytes(sha256(passphrase.as_bytes()))
    }

    /// The chained MAC of one record.
    fn mac(&self, previous: &[u8; 32], payload: &[u8]) -> [u8; 32] {
        self.0.mac(&[previous, payload])
    }

    /// The chained MAC of one record, computed on `kernel`: equal to the
    /// MAC the journal writes, at that kernel's speed. For benchmarks.
    #[doc(hidden)]
    pub fn record_mac_on(
        &self,
        kernel: Sha256Kernel,
        previous: &[u8; 32],
        payload: &[u8],
    ) -> [u8; 32] {
        let mut hmac = self.0.clone();
        hmac.inner.kernel = kernel;
        hmac.outer.kernel = kernel;
        hmac.mac(&[previous, payload])
    }
}

impl Default for JournalKey {
    /// The key used when no explicit key is configured — campaigns keyed
    /// this way are tamper-*evident*, not tamper-*proof* (anyone with the
    /// source can re-sign), which is all the harness needs to distinguish
    /// its own clean shutdowns from damaged files.
    fn default() -> Self {
        Self::from_passphrase("jmst-journal-v1")
    }
}

impl fmt::Debug for JournalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("JournalKey(..)")
    }
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// Provider-independent summary of a finished test, rich enough to
/// re-render a campaign report without re-running the test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// `"passed"`, `"violated"`, `"hung"`, `"inconclusive"`, `"invalid"`.
    pub status: String,
    /// Hung stage / inconclusive reason / invalid message; empty otherwise.
    pub detail: String,
    /// Number of property violations found.
    pub violations: u64,
    /// Messages sent in the analysed trace.
    pub sends: u64,
    /// Messages received in the analysed trace.
    pub receives: u64,
}

/// One entry in the campaign journal.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalRecord {
    /// Campaign opened: the schedule the prince committed to.
    CampaignStarted {
        /// Campaign name (journal files are one campaign each).
        campaign: String,
        /// Scheduled test names, in order.
        tests: Vec<String>,
        /// SHA-256 (hex) over the serialized specs, so a resume refuses
        /// to continue a journal under a different schedule.
        spec_digest: String,
    },
    /// A test attempt began.
    TestStarted {
        /// Index into the campaign schedule.
        index: usize,
        /// Test name.
        name: String,
        /// 1-based attempt number (respawns rerun the same index).
        attempt: u32,
    },
    /// One collected trace event (streamed from the driver).
    Event {
        /// Index of the test the event belongs to.
        index: usize,
        /// The event itself.
        event: Event,
    },
    /// An attempt was abandoned (worker death, timeout); its events are
    /// superseded by the next attempt's.
    AttemptAborted {
        /// Index of the test.
        index: usize,
        /// The attempt that died.
        attempt: u32,
        /// Why.
        reason: String,
    },
    /// A test completed with a verdict. Only tests with this marker are
    /// skipped on resume.
    TestFinished {
        /// Index into the campaign schedule.
        index: usize,
        /// Test name.
        name: String,
        /// The verdict.
        verdict: VerdictRecord,
    },
    /// The campaign ran to completion.
    CampaignFinished {
        /// Count of passed tests.
        passed: usize,
        /// Count of violated tests.
        violated: usize,
        /// Count of hung/inconclusive/invalid tests.
        failed: usize,
    },
}

/// Appends the payload of a [`JournalRecord::Event`] from borrowed parts,
/// so [`JournalWriter::append_event`] need not build the record.
fn encode_event_record(index: usize, event: &Event, out: &mut Vec<u8>) {
    let mut w = Writer(out);
    w.u8(2);
    w.uint(index as u64);
    w.event(event);
}

impl JournalRecord {
    /// Appends the record's payload encoding: a kind tag, then the
    /// fields in declaration order.
    fn encode(&self, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        match self {
            JournalRecord::CampaignStarted {
                campaign,
                tests,
                spec_digest,
            } => {
                w.u8(0);
                w.str(campaign);
                w.uint(tests.len() as u64);
                for test in tests {
                    w.str(test);
                }
                w.str(spec_digest);
            }
            JournalRecord::TestStarted {
                index,
                name,
                attempt,
            } => {
                w.u8(1);
                w.uint(*index as u64);
                w.str(name);
                w.uint(u64::from(*attempt));
            }
            JournalRecord::Event { index, event } => encode_event_record(*index, event, w.0),
            JournalRecord::AttemptAborted {
                index,
                attempt,
                reason,
            } => {
                w.u8(3);
                w.uint(*index as u64);
                w.uint(u64::from(*attempt));
                w.str(reason);
            }
            JournalRecord::TestFinished {
                index,
                name,
                verdict,
            } => {
                w.u8(4);
                w.uint(*index as u64);
                w.str(name);
                w.str(&verdict.status);
                w.str(&verdict.detail);
                w.uint(verdict.violations);
                w.uint(verdict.sends);
                w.uint(verdict.receives);
            }
            JournalRecord::CampaignFinished {
                passed,
                violated,
                failed,
            } => {
                w.u8(5);
                w.uint(*passed as u64);
                w.uint(*violated as u64);
                w.uint(*failed as u64);
            }
        }
    }

    /// Decodes exactly one record payload.
    fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            0 => JournalRecord::CampaignStarted {
                campaign: r.str()?,
                tests: {
                    let count = r.uint()?;
                    // Each name costs at least one byte, so a forged
                    // count runs out of input before it runs out of
                    // memory.
                    let mut tests = Vec::new();
                    for _ in 0..count {
                        tests.push(r.str()?);
                    }
                    tests
                },
                spec_digest: r.str()?,
            },
            1 => JournalRecord::TestStarted {
                index: r.uint_as("test index")?,
                name: r.str()?,
                attempt: r.uint_as("attempt")?,
            },
            2 => JournalRecord::Event {
                index: r.uint_as("test index")?,
                event: r.event()?,
            },
            3 => JournalRecord::AttemptAborted {
                index: r.uint_as("test index")?,
                attempt: r.uint_as("attempt")?,
                reason: r.str()?,
            },
            4 => JournalRecord::TestFinished {
                index: r.uint_as("test index")?,
                name: r.str()?,
                verdict: VerdictRecord {
                    status: r.str()?,
                    detail: r.str()?,
                    violations: r.uint()?,
                    sends: r.uint()?,
                    receives: r.uint()?,
                },
            },
            5 => JournalRecord::CampaignFinished {
                passed: r.uint_as("test count")?,
                violated: r.uint_as("test count")?,
                failed: r.uint_as("test count")?,
            },
            _ => return Err(CodecError::Invalid("journal record kind")),
        };
        r.finish()?;
        Ok(record)
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a journal could not be read (or read completely).
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadHeader,
    /// The file ends mid-frame: a crash interrupted an append. The bytes
    /// before `offset` form a verified prefix.
    TruncatedTail {
        /// Byte offset where the partial frame starts.
        offset: u64,
        /// Index the truncated record would have had.
        index: usize,
    },
    /// A frame's payload fails its CRC (bit rot / corruption in place).
    CorruptRecord {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Record index of the damaged frame.
        index: usize,
    },
    /// A frame's chained HMAC does not verify: the payload was altered
    /// after writing, records were reordered, or the key is wrong.
    MacMismatch {
        /// Byte offset of the unverifiable frame.
        offset: u64,
        /// Record index of the unverifiable frame.
        index: usize,
    },
    /// A frame verified (CRC and MAC) but its payload is not a valid
    /// [`JournalRecord`] — a version skew, not damage. Appending returns
    /// it, with nothing written, for a record too large to frame.
    Malformed {
        /// Record index of the undecodable payload.
        index: usize,
        /// Decoder diagnostic.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadHeader => write!(f, "not a jmst journal (bad magic)"),
            JournalError::TruncatedTail { offset, index } => write!(
                f,
                "journal truncated mid-record {index} at byte {offset} (interrupted append)"
            ),
            JournalError::CorruptRecord { offset, index } => {
                write!(f, "journal record {index} at byte {offset} fails its CRC")
            }
            JournalError::MacMismatch { offset, index } => write!(
                f,
                "journal record {index} at byte {offset} fails HMAC verification \
                 (tampering or wrong key)"
            ),
            JournalError::Malformed { index, reason } => {
                write!(f, "journal record {index} does not decode: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends records to a journal, maintaining the MAC chain.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    key: JournalKey,
    mac: [u8; 32],
    records: usize,
    /// The frame being assembled, kept to reuse its allocation.
    frame: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path`.
    pub fn create(path: impl AsRef<Path>, key: &JournalKey) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        Ok(Self::after(file, key, [0u8; 32], 0))
    }

    fn after(file: File, key: &JournalKey, mac: [u8; 32], records: usize) -> Self {
        Self {
            file,
            key: key.clone(),
            mac,
            records,
            frame: Vec::new(),
        }
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] if the record's payload would exceed
    /// [`MAX_RECORD_LEN`] (nothing is written, and the journal stays
    /// usable); [`JournalError::Io`] if the write fails, after which the
    /// journal should be considered dead.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.append_payload(|out| record.encode(out))
    }

    /// Appends `JournalRecord::Event { index, event }` without building
    /// the record: the frame bytes are those of [`JournalWriter::append`],
    /// encoded straight from the borrowed event.
    ///
    /// # Errors
    ///
    /// As for [`JournalWriter::append`].
    pub fn append_event(&mut self, index: usize, event: &Event) -> Result<(), JournalError> {
        self.append_payload(|out| encode_event_record(index, event, out))
    }

    /// Frames the payload `encode` appends: length, CRC, payload, MAC.
    fn append_payload(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), JournalError> {
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(FRAME_HEADER_LEN, 0);
        encode(frame);
        let payload = &frame[FRAME_HEADER_LEN..];
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_RECORD_LEN)
            .ok_or_else(|| JournalError::Malformed {
                index: self.records,
                reason: format!("a {}-byte record exceeds MAX_RECORD_LEN", payload.len()),
            })?;
        let crc = crc32(payload);
        let mac = self.key.mac(&self.mac, payload);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&mac);
        // One write call per record: a crash can truncate the tail frame
        // but never interleave two frames.
        self.file.write_all(frame)?;
        self.mac = mac;
        self.records += 1;
        Ok(())
    }

    /// Asks the OS to push appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Number of records appended through this writer (plus any salvaged
    /// prefix it resumed after).
    pub fn records(&self) -> usize {
        self.records
    }
}

// ---------------------------------------------------------------------
// Reader / salvage / resume
// ---------------------------------------------------------------------

/// The result of scanning a journal front to back.
#[derive(Debug)]
pub struct Salvage {
    /// The verified prefix, in order.
    pub records: Vec<JournalRecord>,
    /// What stopped the scan, if anything: `None` means the file is
    /// intact end to end.
    pub damage: Option<JournalError>,
    /// Byte length of the verified prefix (including the magic). The
    /// file can be truncated to this length to discard the damage.
    pub valid_len: u64,
    /// MAC-chain state after the last verified record — the state a
    /// writer needs to append after the prefix.
    mac: [u8; 32],
}

impl Salvage {
    /// `true` when the whole file verified.
    pub fn intact(&self) -> bool {
        self.damage.is_none()
    }
}

/// Entry points for reading and resuming journals.
#[derive(Debug)]
pub struct Journal;

impl Journal {
    /// Reads and fully verifies a journal.
    ///
    /// # Errors
    ///
    /// Any damage anywhere in the file is an error ([`JournalError`]
    /// pinpointing the first bad frame); use [`Journal::salvage`] to
    /// recover the valid prefix instead.
    pub fn read(
        path: impl AsRef<Path>,
        key: &JournalKey,
    ) -> Result<Vec<JournalRecord>, JournalError> {
        let salvage = Self::salvage(path, key)?;
        match salvage.damage {
            None => Ok(salvage.records),
            Some(damage) => Err(damage),
        }
    }

    /// Scans a journal front to back, verifying CRCs and the MAC chain,
    /// and returns the longest valid prefix along with the damage (if
    /// any) that stopped the scan.
    ///
    /// # Errors
    ///
    /// Only environmental failures ([`JournalError::Io`],
    /// [`JournalError::BadHeader`]) are errors — damage *within* the
    /// file is reported in [`Salvage::damage`], not as an `Err`.
    pub fn salvage(path: impl AsRef<Path>, key: &JournalKey) -> Result<Salvage, JournalError> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        if data.len() < JOURNAL_MAGIC.len() || &data[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(JournalError::BadHeader);
        }
        let mut records = Vec::new();
        let mut mac = [0u8; 32];
        let mut pos = JOURNAL_MAGIC.len();
        let mut index = 0usize;
        let damage = loop {
            if pos == data.len() {
                break None;
            }
            let offset = pos as u64;
            if data.len() - pos < FRAME_HEADER_LEN {
                break Some(JournalError::TruncatedTail { offset, index });
            }
            let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
            let crc =
                u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
            if len > MAX_RECORD_LEN {
                // A length this absurd is a damaged header, not a record
                // the writer could have produced.
                break Some(JournalError::CorruptRecord { offset, index });
            }
            let body_start = pos + FRAME_HEADER_LEN;
            let frame_end = body_start + len as usize + MAC_LEN;
            if frame_end > data.len() {
                break Some(JournalError::TruncatedTail { offset, index });
            }
            let payload = &data[body_start..body_start + len as usize];
            if crc32(payload) != crc {
                break Some(JournalError::CorruptRecord { offset, index });
            }
            let expected = key.mac(&mac, payload);
            let stored = &data[body_start + len as usize..frame_end];
            if stored != expected {
                break Some(JournalError::MacMismatch { offset, index });
            }
            let record = match JournalRecord::decode(payload) {
                Ok(record) => record,
                Err(e) => {
                    break Some(JournalError::Malformed {
                        index,
                        reason: e.to_string(),
                    })
                }
            };
            records.push(record);
            mac = expected;
            pos = frame_end;
            index += 1;
        };
        Ok(Salvage {
            records,
            damage,
            valid_len: pos as u64,
            mac,
        })
    }

    /// Opens a journal for appending after verification: the valid
    /// prefix is kept, any damaged suffix is truncated away, and the
    /// returned writer continues the MAC chain from the last verified
    /// record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] / [`JournalError::BadHeader`] as in
    /// [`Journal::salvage`]. Two kinds of damage are refused rather than
    /// truncated, leaving the file untouched: a
    /// [`JournalError::MacMismatch`] at the first record (nothing
    /// verifies: a wrong key or wholesale tampering) and a
    /// [`JournalError::Malformed`] record (it verified, so it is a
    /// version skew, and a matching build can still read it and every
    /// record after it).
    pub fn resume(
        path: impl AsRef<Path>,
        key: &JournalKey,
    ) -> Result<(JournalWriter, Salvage), JournalError> {
        let path = path.as_ref();
        let salvage = Self::salvage(path, key)?;
        if let Some(
            refused @ (JournalError::MacMismatch { index: 0, .. } | JournalError::Malformed { .. }),
        ) = salvage.damage
        {
            return Err(refused);
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(salvage.valid_len)?;
        let mut file = file;
        file.seek_end()?;
        let writer = JournalWriter::after(file, key, salvage.mac, salvage.records.len());
        Ok((writer, salvage))
    }
}

/// `Seek::seek(SeekFrom::End(0))` without importing the trait at every
/// call site.
trait SeekEnd {
    fn seek_end(&mut self) -> std::io::Result<u64>;
}

impl SeekEnd for File {
    fn seek_end(&mut self) -> std::io::Result<u64> {
        use std::io::{Seek, SeekFrom};
        self.seek(SeekFrom::End(0))
    }
}

/// Computes the campaign schedule digest recorded in
/// [`JournalRecord::CampaignStarted`]: SHA-256 (hex) over the
/// length-prefixed serialized specs, so reordering or editing any spec
/// changes the digest.
pub fn schedule_digest<S: AsRef<str>>(serialized_specs: &[S]) -> String {
    let mut hasher = Sha256::new();
    for spec in serialized_specs {
        let bytes = spec.as_ref().as_bytes();
        hasher.update(&(bytes.len() as u64).to_le_bytes());
        hasher.update(bytes);
    }
    hex(&hasher.finish())
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push(char::from_digit(u32::from(byte >> 4), 16).unwrap());
        out.push(char::from_digit(u32::from(byte & 0xf), 16).unwrap());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sha256_matches_published_vectors() {
        // FIPS 180-4 / NIST examples.
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A multi-block message exercising the buffered path.
        let long = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&long)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Every kernel this host runs: the portable one, and SHA-NI where
    /// detected. The differential tests run the portable kernel even on
    /// a SHA-NI host, so the fallback stays covered.
    fn kernels() -> Vec<Sha256Kernel> {
        std::iter::once(Sha256Kernel::PORTABLE)
            .chain(Sha256Kernel::sha_ni())
            .collect()
    }

    fn sha256_on(kernel: Sha256Kernel, parts: &[&[u8]]) -> [u8; 32] {
        let mut hasher = Sha256::on(kernel);
        for part in parts {
            hasher.update(part);
        }
        hasher.finish()
    }

    #[test]
    fn hmac_sha256_matches_rfc_4231_on_every_kernel() {
        let key_4: Vec<u8> = (1..=25).collect();
        // (key, message parts, MAC in hex)
        type Case<'a> = (&'a [u8], &'a [&'a [u8]], &'a str);
        let cases: [Case<'_>; 6] = [
            // Test case 1.
            (
                &[0x0b; 20],
                &[b"Hi There"],
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            // Test case 2 ("Jefe"), split across parts to check the
            // multi-part path concatenates correctly.
            (
                b"Jefe",
                &[b"what do ya want ", b"for nothing?"],
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            // Test case 3.
            (
                &[0xaa; 20],
                &[&[0xdd; 50]],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            // Test case 4.
            (
                &key_4,
                &[&[0xcd; 50]],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // Test case 6: a 131-byte key (hashed-key path).
            (
                &[0xaa; 131],
                &[b"Test Using Larger Than Block-Size Key - Hash Key First"],
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            // Test case 7: a hashed key and three blocks of data.
            (
                &[0xaa; 131],
                &[
                    b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm.",
                ],
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, parts, expected) in cases {
            assert_eq!(hex(&hmac_sha256(key, parts)), expected);
            for kernel in kernels() {
                let mac = HmacSha256::on(kernel, key).mac(parts);
                assert_eq!(hex(&mac), expected, "kernel {}", kernel.name());
            }
        }
    }

    #[test]
    fn crc32_matches_the_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Byte-at-a-time CRC32, computing its table bit by bit: the
    /// reference the slicing-by-8 tables must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn kernels_agree_at_every_length_across_the_padding_edges() {
        // Lengths 55, 56 and 64 are where the padding spills into a
        // second block or the message fills one exactly.
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=data.len() {
            let portable = sha256_on(Sha256Kernel::PORTABLE, &[&data[..len]]);
            for kernel in kernels() {
                assert_eq!(sha256_on(kernel, &[&data[..len]]), portable, "len {len}");
            }
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sha256_kernels_agree(
            data in prop::collection::vec(any::<u8>(), 0..301),
            split in 0usize..301,
        ) {
            let (head, tail) = data.split_at(split.min(data.len()));
            let portable = sha256_on(Sha256Kernel::PORTABLE, &[&data]);
            for kernel in kernels() {
                prop_assert_eq!(sha256_on(kernel, &[&data]), portable);
                prop_assert_eq!(sha256_on(kernel, &[head, tail]), portable);
            }
            prop_assert_eq!(sha256(&data), portable);
        }

        #[test]
        fn record_macs_agree_on_every_kernel(
            payload in prop::collection::vec(any::<u8>(), 0..301),
            seed in any::<u8>(),
        ) {
            let key = JournalKey::from_bytes([seed; 32]);
            let previous = [seed.wrapping_mul(3); 32];
            let expected = key.mac(&previous, &payload);
            for kernel in kernels() {
                prop_assert_eq!(key.record_mac_on(kernel, &previous, &payload), expected);
            }
            prop_assert_eq!(
                expected,
                hmac_sha256(&[seed; 32], &[&previous, &payload])
            );
        }

        #[test]
        fn slicing_by_8_crc32_matches_the_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..301),
            offset in 0usize..8,
        ) {
            // Unaligned sub-slices start the 8-byte steps anywhere.
            let slice = &data[offset.min(data.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    fn record(i: usize) -> JournalRecord {
        JournalRecord::TestStarted {
            index: i,
            name: format!("test-{i}"),
            attempt: 1,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jmst-journal-{tag}-{}.jrnl", std::process::id()))
    }

    #[test]
    fn round_trips_records_through_the_file() {
        let path = temp_path("roundtrip");
        let key = JournalKey::default();
        let mut writer = JournalWriter::create(&path, &key).unwrap();
        let mut written: Vec<JournalRecord> = (0..5).map(record).collect();
        written.extend([
            JournalRecord::CampaignStarted {
                campaign: "c".to_owned(),
                tests: vec!["t0".to_owned(), String::new()],
                spec_digest: schedule_digest(&["spec"]),
            },
            JournalRecord::Event {
                index: 7,
                event: Event {
                    seq: 3,
                    at: jmst_api::time::Timestamp::from_millis(5),
                    node: jmst_api::id::NodeId::from_raw(1),
                    kind: crate::event::EventKind::PhaseStarted {
                        phase: crate::event::Phase::Run,
                    },
                },
            },
            JournalRecord::AttemptAborted {
                index: 7,
                attempt: u32::MAX,
                reason: "worker killed".to_owned(),
            },
            JournalRecord::TestFinished {
                index: 7,
                name: "t7".to_owned(),
                verdict: VerdictRecord {
                    status: "violated".to_owned(),
                    detail: String::new(),
                    violations: 2,
                    sends: u64::MAX,
                    receives: 0,
                },
            },
            JournalRecord::CampaignFinished {
                passed: 1,
                violated: 2,
                failed: 3,
            },
        ]);
        for r in &written {
            writer.append(r).unwrap();
        }
        drop(writer);
        let read = Journal::read(&path, &key).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(read, written);
    }

    #[test]
    fn append_event_writes_the_bytes_of_an_event_record() {
        let key = JournalKey::from_passphrase("k");
        let events: Vec<Event> = (0..3)
            .map(|seq| Event {
                seq,
                at: jmst_api::time::Timestamp::from_millis(seq * 7),
                node: jmst_api::id::NodeId::from_raw(seq),
                kind: crate::event::EventKind::PhaseStarted {
                    phase: crate::event::Phase::Run,
                },
            })
            .collect();
        let (via_record, via_event) = (temp_path("via-record"), temp_path("via-event"));
        let mut a = JournalWriter::create(&via_record, &key).unwrap();
        let mut b = JournalWriter::create(&via_event, &key).unwrap();
        for (index, event) in events.iter().enumerate() {
            a.append(&record(index)).unwrap();
            b.append(&record(index)).unwrap();
            a.append(&JournalRecord::Event {
                index,
                event: event.clone(),
            })
            .unwrap();
            b.append_event(index, event).unwrap();
        }
        drop((a, b));
        let (a, b) = (std::fs::read(&via_record), std::fs::read(&via_event));
        std::fs::remove_file(&via_record).ok();
        std::fs::remove_file(&via_event).ok();
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn an_oversized_record_is_refused_and_the_journal_stays_usable() {
        let path = temp_path("oversized");
        let key = JournalKey::default();
        let mut writer = JournalWriter::create(&path, &key).unwrap();
        writer.append(&record(0)).unwrap();
        let huge = JournalRecord::AttemptAborted {
            index: 0,
            attempt: 1,
            reason: "x".repeat(MAX_RECORD_LEN as usize),
        };
        let err = writer.append(&huge).unwrap_err();
        assert!(
            matches!(err, JournalError::Malformed { index: 1, .. }),
            "{err}"
        );
        writer.append(&record(1)).unwrap();
        drop(writer);
        let read = Journal::read(&path, &key).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(read, vec![record(0), record(1)]);
    }

    #[test]
    fn resume_continues_the_chain_seamlessly() {
        let path = temp_path("resume");
        let key = JournalKey::default();
        let mut writer = JournalWriter::create(&path, &key).unwrap();
        writer.append(&record(0)).unwrap();
        writer.append(&record(1)).unwrap();
        drop(writer);
        let (mut writer, salvage) = Journal::resume(&path, &key).unwrap();
        assert!(salvage.intact());
        assert_eq!(salvage.records.len(), 2);
        assert_eq!(writer.records(), 2);
        writer.append(&record(2)).unwrap();
        drop(writer);
        let read = Journal::read(&path, &key).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(read, vec![record(0), record(1), record(2)]);
    }

    #[test]
    fn wrong_key_is_a_mac_mismatch_at_the_first_record() {
        let path = temp_path("wrongkey");
        let mut writer = JournalWriter::create(&path, &JournalKey::default()).unwrap();
        writer.append(&record(0)).unwrap();
        drop(writer);
        let err = Journal::read(&path, &JournalKey::from_passphrase("other")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, JournalError::MacMismatch { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn not_a_journal_is_a_bad_header() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        let err = Journal::read(&path, &JournalKey::default()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, JournalError::BadHeader), "{err}");
    }

    #[test]
    fn schedule_digest_is_order_sensitive() {
        let a = schedule_digest(&["alpha", "beta"]);
        let b = schedule_digest(&["beta", "alpha"]);
        let c = schedule_digest(&["alphabeta"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, schedule_digest(&["alpha", "beta"]));
    }
}

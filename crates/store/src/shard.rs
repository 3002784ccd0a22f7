//! Compact binary shard files: length-prefixed, checksummed records.
//!
//! A shard is one atomic file holding many small binary records (packed
//! dataset graphs, primarily) framed so that truncation, bit flips, and
//! header tampering all surface as [`std::io::ErrorKind::InvalidData`]
//! instead of garbage payloads:
//!
//! ```text
//! irnuma-shard v1 kind=graph-shard records=128\n
//! [u32 len][u64 fnv1a][payload] × 128
//! ```
//!
//! All integers are little-endian. Each record carries its own FNV-1a 64
//! checksum; the shard *file* as a whole is additionally checksummed in a
//! sibling [`ShardManifest`] (`manifest.json`), which lists every shard of
//! a pack directory with its byte length and file checksum — so a missing,
//! truncated, or swapped shard is detected before any record is decoded.
//!
//! Writes go through [`crate::atomic_write`], inheriting the store's
//! crash-safety: a shard either exists whole or not at all, and the
//! manifest is written last by packers so a crashed pack never looks
//! complete.

use crate::{
    corruption, fnv1a64, fnv1a64_continue, fnv1a64_each, fnv1a64_lanes, invalid, FNV1A64_INIT,
    FNV_LANES,
};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Component, Path};

/// Shard format version, independent of the store frame version.
pub const SHARD_VERSION: u32 = 1;

const SHARD_MAGIC: &str = "irnuma-shard ";

/// Per-record prefix: `u32` length + `u64` FNV-1a checksum.
const RECORD_PREFIX: usize = 4 + 8;

/// File name of the manifest inside a pack directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Accumulates records in memory, then writes one shard file atomically.
pub struct ShardWriter {
    kind: String,
    /// The records, framed; each checksum field is zero until `finish`.
    body: Vec<u8>,
    /// Each record's payload range in `body`.
    payloads: Vec<Range<usize>>,
}

impl ShardWriter {
    pub fn new(kind: &str) -> ShardWriter {
        assert!(
            !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_graphic()),
            "shard kind must be a non-empty ASCII token: {kind:?}"
        );
        ShardWriter { kind: kind.to_string(), body: Vec::new(), payloads: Vec::new() }
    }

    /// Append one record (length + checksum + payload); the checksum is
    /// filled in by [`ShardWriter::finish`].
    pub fn push(&mut self, payload: &[u8]) {
        assert!(payload.len() <= u32::MAX as usize, "record too large for a u32 length prefix");
        self.body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.body.extend_from_slice(&[0; 8]);
        let start = self.body.len();
        self.body.extend_from_slice(payload);
        self.payloads.push(start..self.body.len());
    }

    pub fn records(&self) -> usize {
        self.payloads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Checksum every record, four FNV-1a streams at a time, then atomically
    /// write `dir/file` as the header followed by the body and return its
    /// manifest entry (record count, byte length, whole-file checksum).
    pub fn finish(mut self, dir: &Path, file: &str) -> io::Result<ShardEntry> {
        let slices: Vec<&[u8]> = self.payloads.iter().map(|r| &self.body[r.clone()]).collect();
        let sums = fnv1a64_each(&slices);
        for (r, sum) in self.payloads.iter().zip(sums) {
            self.body[r.start - 8..r.start].copy_from_slice(&sum.to_le_bytes());
        }
        let header = format!(
            "{SHARD_MAGIC}v{SHARD_VERSION} kind={} records={}\n",
            self.kind,
            self.records()
        );
        crate::atomic_write_with(&dir.join(file), |f| {
            f.write_all(header.as_bytes())?;
            f.write_all(&self.body)
        })?;
        Ok(ShardEntry {
            file: file.to_string(),
            records: self.records(),
            bytes: (header.len() + self.body.len()) as u64,
            fnv1a: format!("{:016x}", fnv1a64_continue(fnv1a64(header.as_bytes()), &self.body)),
        })
    }
}

/// Validate a shard held in `bytes` and return each record's payload range.
///
/// Checks the header (magic, version, kind, record count), every record's
/// length against the remaining bytes (truncation), and every record's
/// checksum (corruption). Any mismatch is an
/// [`io::ErrorKind::InvalidData`] error naming the failure; damage is
/// counted under `store.corruption_detected` like the frame parser's.
pub fn parse_shard(expected_kind: &str, bytes: &[u8]) -> io::Result<Vec<Range<usize>>> {
    if !bytes.starts_with(SHARD_MAGIC.as_bytes()) {
        return Err(corruption("shard: missing magic (not a shard file, or torn header)"));
    }
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corruption("shard header: missing newline (truncated header)"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| corruption("shard header: not valid UTF-8"))?;

    let mut fields = header[SHARD_MAGIC.len()..].split(' ');
    let version = fields.next().unwrap_or("");
    if version != format!("v{SHARD_VERSION}") {
        return Err(invalid(format!("shard header: unsupported version `{version}`")));
    }
    let (mut kind, mut records) = (None, None);
    for f in fields {
        match f.split_once('=') {
            Some(("kind", v)) => kind = Some(v.to_string()),
            Some(("records", v)) => records = v.parse::<usize>().ok(),
            _ => return Err(invalid(format!("shard header: unknown field `{f}`"))),
        }
    }
    let kind = kind.ok_or_else(|| invalid("shard header: missing kind"))?;
    let records = records.ok_or_else(|| invalid("shard header: missing/bad record count"))?;
    if kind != expected_kind {
        return Err(invalid(format!(
            "shard kind mismatch: file is `{kind}`, expected `{expected_kind}`"
        )));
    }

    // Frame every record first, then check the framed records' checksums
    // in lanes. A framing failure is reported only if no record before it
    // is damaged, so the error names the first bad record by index, as a
    // record-by-record pass would. Every record takes at least its prefix,
    // so the header's count cannot reserve more than the bytes could hold.
    let cap = records.min((bytes.len() - nl) / RECORD_PREFIX);
    let (mut out, mut sums) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    let mut framing = None;
    let mut pos = nl + 1;
    for i in 0..records {
        if bytes.len() - pos < RECORD_PREFIX {
            framing =
                Some(format!("shard truncated: record {i} of {records} has no length prefix"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        pos += RECORD_PREFIX;
        if bytes.len() - pos < len {
            framing = Some(format!(
                "shard truncated: record {i} claims {len} bytes, {} remain",
                bytes.len() - pos
            ));
            break;
        }
        sums.push(sum);
        out.push(pos..pos + len);
        pos += len;
    }
    if framing.is_none() && pos != bytes.len() {
        framing = Some(format!(
            "shard padded: {} trailing bytes after the last record",
            bytes.len() - pos
        ));
    }
    let payloads: Vec<&[u8]> = out.iter().map(|r| &bytes[r.clone()]).collect();
    let actual = fnv1a64_each(&payloads);
    if let Some(i) = (0..out.len()).find(|&i| actual[i] != sums[i]) {
        return Err(corruption(format!(
            "shard record {i} checksum mismatch (stored {:016x}, computed {:016x})",
            sums[i], actual[i]
        )));
    }
    match framing {
        Some(msg) => Err(corruption(msg)),
        None => Ok(out),
    }
}

/// One shard's manifest entry: file name, record count, byte length, and
/// the FNV-1a 64 checksum of the whole file (hex, since JSON numbers lose
/// precision past 2^53).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardEntry {
    pub file: String,
    pub records: usize,
    pub bytes: u64,
    pub fnv1a: String,
}

impl ShardEntry {
    /// Reject an entry no reader should follow: a file name that is not a
    /// plain name inside the pack directory (empty, `.`, `..`, or with a
    /// path separator), or a malformed checksum.
    pub fn validate(&self) -> io::Result<()> {
        let mut parts = Path::new(&self.file).components();
        if !matches!((parts.next(), parts.next()), (Some(Component::Normal(_)), None)) {
            return Err(invalid(format!("manifest: `{}` is not a plain file name", self.file)));
        }
        self.checksum().map(drop)
    }

    /// The stored whole-file checksum, parsed from hex.
    pub fn checksum(&self) -> io::Result<u64> {
        u64::from_str_radix(&self.fnv1a, 16).map_err(|_| {
            invalid(format!("manifest: bad checksum `{}` for `{}`", self.fnv1a, self.file))
        })
    }
}

/// The pack directory's manifest: every shard with its checksum, written
/// atomically *after* all shards, so an interrupted pack is never mistaken
/// for a complete one.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardManifest {
    pub entries: Vec<ShardEntry>,
}

const MANIFEST_KIND: &str = "shard-manifest";

impl ShardManifest {
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        crate::save_json(&dir.join(MANIFEST_FILE), MANIFEST_KIND, self)
    }

    /// Load and validate every entry ([`ShardEntry::validate`]).
    pub fn load(dir: &Path) -> io::Result<ShardManifest> {
        let manifest: ShardManifest = crate::load_json(&dir.join(MANIFEST_FILE), MANIFEST_KIND)?;
        manifest.entries.iter().try_for_each(ShardEntry::validate)?;
        Ok(manifest)
    }

    /// Whether `dir` looks like a pack directory (has a manifest).
    pub fn exists(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    pub fn total_records(&self) -> usize {
        self.entries.iter().map(|e| e.records).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Verify every listed shard exists with the recorded length and
    /// whole-file checksum. A missing shard is a typed error naming the
    /// file; a mismatch is a counted corruption error. Shards are hashed
    /// four at a time, read in blocks of 256 KiB,
    /// so memory stays flat however large the shards are; the error named
    /// is the first failing entry in manifest order.
    pub fn verify(&self, dir: &Path) -> io::Result<()> {
        for group in self.entries.chunks(FNV_LANES) {
            let failures = verify_group(dir, group);
            if let Some((e, failure)) = group.iter().zip(failures).find_map(|(e, f)| Some((e, f?)))
            {
                return Err(failure.into_error(e));
            }
        }
        Ok(())
    }
}

/// Bytes [`ShardManifest::verify`] reads from each shard at a time.
pub(crate) const VERIFY_BLOCK: usize = 256 << 10;

/// Why a listed shard failed [`ShardManifest::verify`].
enum VerifyFailure {
    Unreadable(io::Error),
    /// The entry's own checksum field does not parse.
    BadEntry(io::Error),
    Length(u64),
    Checksum(u64),
}

impl VerifyFailure {
    fn into_error(self, e: &ShardEntry) -> io::Error {
        match self {
            VerifyFailure::Unreadable(err) => io::Error::new(
                err.kind(),
                format!("shard `{}` listed in manifest but unreadable: {err}", e.file),
            ),
            VerifyFailure::BadEntry(err) => err,
            VerifyFailure::Length(len) => {
                corruption(format!("shard `{}` is {len} bytes, manifest says {}", e.file, e.bytes))
            }
            VerifyFailure::Checksum(actual) => corruption(format!(
                "shard `{}` checksum mismatch (manifest {}, computed {actual:016x})",
                e.file, e.fnv1a
            )),
        }
    }
}

/// Hash up to [`FNV_LANES`] listed shards in lockstep, block by block:
/// each entry's failure, if any, in entry order.
fn verify_group(dir: &Path, group: &[ShardEntry]) -> Vec<Option<VerifyFailure>> {
    /// One shard being hashed: its entry's index, the file, its stream
    /// state, the bytes hashed so far and whether the file has ended.
    struct Lane {
        slot: usize,
        file: std::fs::File,
        state: u64,
        len: u64,
        ended: bool,
    }
    let mut failures = Vec::with_capacity(group.len());
    let mut lanes = Vec::with_capacity(group.len());
    for (slot, e) in group.iter().enumerate() {
        let opened = std::fs::File::open(dir.join(&e.file)).and_then(|f| Ok((f.metadata()?, f)));
        failures.push(match opened {
            Err(err) => Some(VerifyFailure::Unreadable(err)),
            Ok((meta, _)) if meta.len() != e.bytes => Some(VerifyFailure::Length(meta.len())),
            Ok((_, file)) => {
                lanes.push(Lane { slot, file, state: FNV1A64_INIT, len: 0, ended: false });
                None
            }
        });
    }
    let mut blocks: Vec<Vec<u8>> = lanes.iter().map(|_| Vec::with_capacity(VERIFY_BLOCK)).collect();
    while lanes.iter().any(|l| !l.ended) {
        for (lane, block) in lanes.iter_mut().zip(&mut blocks) {
            block.clear();
            if lane.ended {
                continue;
            }
            let read = (&mut lane.file).take(VERIFY_BLOCK as u64).read_to_end(block);
            if let Err(err) = read {
                failures[lane.slot] = Some(VerifyFailure::Unreadable(err));
                block.clear();
            }
            lane.len += block.len() as u64;
            lane.ended = block.len() < VERIFY_BLOCK;
        }
        let mut states: Vec<u64> = lanes.iter().map(|l| l.state).collect();
        let slices: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        fnv1a64_lanes(&mut states, &slices);
        lanes.iter_mut().zip(states).for_each(|(l, h)| l.state = h);
    }
    for lane in lanes {
        let e = &group[lane.slot];
        if failures[lane.slot].is_none() {
            failures[lane.slot] = match e.checksum() {
                _ if lane.len != e.bytes => Some(VerifyFailure::Length(lane.len)),
                Err(err) => Some(VerifyFailure::BadEntry(err)),
                Ok(sum) if sum != lane.state => Some(VerifyFailure::Checksum(lane.state)),
                Ok(_) => None,
            };
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("irnuma-shard-test").join(name);
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_shard(dir: &Path, payloads: &[&[u8]]) -> ShardEntry {
        let mut w = ShardWriter::new("test-shard");
        for p in payloads {
            w.push(p);
        }
        w.finish(dir, "shard-0000.bin").unwrap()
    }

    #[test]
    fn records_round_trip() {
        let d = tdir("roundtrip");
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![0u8; 0], vec![7u8; 300]];
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let entry = write_shard(&d, &refs);
        assert_eq!(entry.records, 3);

        let bytes = fs::read(d.join(&entry.file)).unwrap();
        assert_eq!(bytes.len() as u64, entry.bytes);
        assert_eq!(fnv1a64(&bytes), entry.checksum().unwrap());
        let ranges = parse_shard("test-shard", &bytes).unwrap();
        assert_eq!(ranges.len(), 3);
        for (r, p) in ranges.iter().zip(&payloads) {
            assert_eq!(&bytes[r.clone()], p.as_slice());
        }
    }

    #[test]
    fn truncated_shard_is_invalid_data() {
        let d = tdir("trunc");
        let entry = write_shard(&d, &[b"hello", b"world, a longer record"]);
        let bytes = fs::read(d.join(&entry.file)).unwrap();
        for cut in [bytes.len() - 5, bytes.len() - 20, 10] {
            let err = parse_shard("test-shard", &bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flipped_record_is_invalid_data() {
        let d = tdir("flip");
        let entry = write_shard(&d, &[b"payload one", b"payload two"]);
        let mut bytes = fs::read(d.join(&entry.file)).unwrap();
        let last = bytes.len() - 3; // inside the second record's payload
        bytes[last] ^= 0x10;
        let err = parse_shard("test-shard", &bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn kind_mismatch_and_header_tamper_are_invalid_data() {
        let d = tdir("kind");
        let entry = write_shard(&d, &[b"x"]);
        let bytes = fs::read(d.join(&entry.file)).unwrap();
        let err = parse_shard("other-kind", &bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("kind mismatch"), "{err}");

        // Claiming more records than the file holds is truncation.
        let tampered =
            String::from_utf8_lossy(&bytes).replacen("records=1", "records=9", 1).into_bytes();
        let err = parse_shard("test-shard", &tampered).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Not a shard file at all.
        let err = parse_shard("test-shard", b"{\"json\": true}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn manifest_round_trips_and_verifies() {
        let d = tdir("manifest");
        let e0 = write_shard(&d, &[b"r0", b"r1"]);
        let mut w = ShardWriter::new("test-shard");
        w.push(b"r2");
        let e1 = w.finish(&d, "shard-0001.bin").unwrap();
        let manifest = ShardManifest { entries: vec![e0, e1] };
        manifest.save(&d).unwrap();
        assert!(ShardManifest::exists(&d));

        let back = ShardManifest::load(&d).unwrap();
        assert_eq!(back.total_records(), 3);
        assert_eq!(back.total_bytes(), manifest.total_bytes());
        back.verify(&d).unwrap();
    }

    #[test]
    fn manifest_entries_must_name_plain_files_with_hex_checksums() {
        let d = tdir("manifest-names");
        let good = write_shard(&d, &[b"r0"]);
        for (file, sum) in [
            ("../shard-0000.bin", good.fnv1a.as_str()),
            ("/etc/hostname", good.fnv1a.as_str()),
            ("", good.fnv1a.as_str()),
            ("..", good.fnv1a.as_str()),
            ("sub/shard.bin", good.fnv1a.as_str()),
            (good.file.as_str(), "not-hex"),
        ] {
            let entry = ShardEntry { file: file.into(), fnv1a: sum.into(), ..good.clone() };
            ShardManifest { entries: vec![good.clone(), entry] }.save(&d).unwrap();
            let err = ShardManifest::load(&d).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{file:?} {sum:?}");
        }
    }

    #[test]
    fn manifest_verify_detects_missing_and_corrupt_shards() {
        let d = tdir("manifest-bad");
        let e0 = write_shard(&d, &[b"r0"]);
        let manifest = ShardManifest { entries: vec![e0.clone()] };
        manifest.save(&d).unwrap();

        // Bit-flip the shard: checksum mismatch.
        let path = d.join(&e0.file);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = manifest.verify(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Delete the shard: a typed error naming the missing file.
        fs::remove_file(&path).unwrap();
        let err = manifest.verify(&d).unwrap_err();
        assert!(err.to_string().contains(&e0.file), "{err}");
    }

    #[test]
    fn verify_names_the_first_failing_entry_whatever_its_failure() {
        let d = tdir("manifest-order");
        let good = write_shard(&d, &[b"r0"]);
        // Entry 0 has the wrong length; entry 1's checksum does not parse.
        let short = ShardEntry { bytes: good.bytes + 1, ..good.clone() };
        let bad_sum = ShardEntry { fnv1a: "not-hex".into(), ..good.clone() };
        let manifest = ShardManifest { entries: vec![short, bad_sum.clone()] };
        let err = manifest.verify(&d).unwrap_err();
        assert!(err.to_string().contains("manifest says"), "{err}");
        let manifest = ShardManifest { entries: vec![good, bad_sum] };
        let err = manifest.verify(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad checksum `not-hex`"), "{err}");
    }

    /// The records every golden case writes: empty, short, zero-filled,
    /// longer than a lane step, and one byte.
    fn golden_records() -> Vec<Vec<u8>> {
        let long: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        vec![vec![], b"alpha".to_vec(), vec![0; 3], long, b"z".to_vec()]
    }

    #[test]
    fn writer_output_is_pinned_byte_for_byte() {
        // Bytes and checksum written by the byte-serial writer the lanes
        // replaced; the format did not change.
        const GOLDEN: &str = "69726e756d612d7368617264207631206b696e643d676f6c64656e2d736861\
            7264207265636f7264733d350a0000000025232284e49cf2cb050000002b20ed85bb25c68a616c\
            70686103000000b72f0f6c18124dd900000028000000e590a104dfd11dbb0b30557a9fc4e90e33\
            587da2c7ec11365b80a5caef14395e83a8cdf2173c6186abd0f51a3f6489ae010000006d1a0286\
            4cf763af7a";
        let d = tdir("golden");
        let mut w = ShardWriter::new("golden-shard");
        for p in golden_records() {
            w.push(&p);
        }
        let entry = w.finish(&d, "shard-0000.bin").unwrap();
        let bytes = fs::read(d.join(&entry.file)).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!((entry.records, entry.bytes), (5, 153));
        assert_eq!(entry.fnv1a, "b554087b4aa1a03a");
    }

    #[test]
    fn the_first_of_two_bad_records_is_the_one_reported() {
        let d = tdir("two-bad");
        let payloads: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; 3 + i as usize]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let entry = write_shard(&d, &refs);
        let clean = fs::read(d.join(&entry.file)).unwrap();
        let ranges = parse_shard("test-shard", &clean).unwrap();
        // Damage pairs inside one lane group, across groups, and in reverse
        // lane order; the lower index is always named.
        for (first, second) in [(1, 2), (2, 1), (3, 9), (6, 5), (0, 10)] {
            let mut bytes = clean.clone();
            bytes[ranges[first].start] ^= 0x40;
            bytes[ranges[second].end - 1] ^= 0x02;
            let err = parse_shard("test-shard", &bytes).unwrap_err();
            let low = first.min(second);
            assert!(err.to_string().contains(&format!("shard record {low} checksum")), "{err}");
        }
        // A damaged record before a truncation is named ahead of the cut.
        let mut cut = clean[..ranges[7].start + 1].to_vec();
        cut[ranges[4].start] ^= 0x01;
        let err = parse_shard("test-shard", &cut).unwrap_err();
        assert!(err.to_string().contains("shard record 4 checksum"), "{err}");
        let err = parse_shard("test-shard", &clean[..ranges[7].start + 1]).unwrap_err();
        assert!(err.to_string().contains("record 7 claims"), "{err}");
    }

    /// `Ok`, or an `InvalidData` error.
    fn ok_or_invalid<T>(r: io::Result<T>) -> Result<(), String> {
        match r {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
            Err(e) => Err(format!("{:?} error instead of InvalidData: {e}", e.kind())),
        }
    }

    fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
        let byte = (0u16..256).prop_map(|b| b as u8);
        let header = prop::sample::select(vec![
            String::new(),
            "irnuma-shard v1 kind=test-shard records=".to_string(),
            "irnuma-shard v1 kind=test-shard records=3\n".to_string(),
            "irnuma-shard v1 kind=test-shard records=18446744073709551615\n".to_string(),
            "irnuma-shard v2 kind=test-shard records=1\n".to_string(),
        ]);
        (header, prop::collection::vec(byte, 0..96)).prop_map(|(h, tail)| {
            let mut bytes = h.into_bytes();
            bytes.extend(tail);
            bytes
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, not only damage to a good file: `parse_shard`
        /// returns `Ok` or `InvalidData` without panicking, never hands
        /// out a range past the input, and reserves no more ranges than
        /// the input could frame.
        #[test]
        fn arbitrary_bytes_parse_ok_or_invalid_data(bytes in arbitrary_bytes()) {
            let parsed = parse_shard("test-shard", &bytes);
            if let Ok(ranges) = &parsed {
                prop_assert!(ranges.iter().all(|r| r.end <= bytes.len()));
                prop_assert!(ranges.capacity() <= bytes.len() / RECORD_PREFIX);
            }
            ok_or_invalid(parsed)?;
        }

        /// A listed shard replaced by arbitrary bytes fails `verify` with
        /// `InvalidData` (its length or checksum no longer matches), or
        /// passes if the bytes happen to be the original file.
        #[test]
        fn verify_of_an_arbitrary_shard_is_ok_or_invalid_data(
            bytes in arbitrary_bytes(),
            keep_len in prop::sample::select(vec![false, true]),
        ) {
            let d = tdir("verify-arbitrary");
            let e0 = write_shard(&d, &[b"r0", b"r1"]);
            let mut e1 = e0.clone();
            e1.file = "shard-0001.bin".into();
            let mut bytes = bytes;
            if keep_len {
                bytes.resize(e0.bytes as usize, 0xa5);
            }
            fs::write(d.join(&e1.file), &bytes).unwrap();
            let manifest = ShardManifest { entries: vec![e0, e1] };
            ok_or_invalid(manifest.verify(&d))?;
        }
    }

    #[test]
    fn verify_reads_shards_larger_than_a_block_in_lockstep() {
        let d = tdir("verify-blocks");
        // Five shards (a full lane group and one more) of unequal sizes
        // around the block size, each spanning several blocks or none.
        let sizes = [0, 1, VERIFY_BLOCK - 20, VERIFY_BLOCK + 7, 3 * VERIFY_BLOCK + 1];
        let entries: Vec<ShardEntry> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut w = ShardWriter::new("test-shard");
                w.push(&vec![i as u8; n]);
                w.finish(&d, &format!("shard-{i:04}.bin")).unwrap()
            })
            .collect();
        for e in &entries {
            assert_eq!(fnv1a64(&fs::read(d.join(&e.file)).unwrap()), e.checksum().unwrap());
        }
        let manifest = ShardManifest { entries };
        manifest.verify(&d).unwrap();

        // Damage the last block of three shards, two in one lane group:
        // the earliest entry is named.
        for i in [4, 3, 1] {
            let path = d.join(&manifest.entries[i].file);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x80;
            fs::write(&path, &bytes).unwrap();
        }
        let err = manifest.verify(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-0001.bin"), "{err}");
    }
}

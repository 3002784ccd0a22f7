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

use crate::{corruption, fnv1a64, invalid};
use serde::{Deserialize, Serialize};
use std::io;
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
    body: Vec<u8>,
    count: usize,
}

impl ShardWriter {
    pub fn new(kind: &str) -> ShardWriter {
        assert!(
            !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_graphic()),
            "shard kind must be a non-empty ASCII token: {kind:?}"
        );
        ShardWriter { kind: kind.to_string(), body: Vec::new(), count: 0 }
    }

    /// Append one record (length + checksum + payload).
    pub fn push(&mut self, payload: &[u8]) {
        assert!(payload.len() <= u32::MAX as usize, "record too large for a u32 length prefix");
        self.body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.body.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        self.body.extend_from_slice(payload);
        self.count += 1;
    }

    pub fn records(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Atomically write `dir/file` and return its manifest entry (record
    /// count, byte length, whole-file checksum).
    pub fn finish(self, dir: &Path, file: &str) -> io::Result<ShardEntry> {
        let header =
            format!("{SHARD_MAGIC}v{SHARD_VERSION} kind={} records={}\n", self.kind, self.count);
        let mut bytes = Vec::with_capacity(header.len() + self.body.len());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(&self.body);
        crate::atomic_write(&dir.join(file), &bytes)?;
        Ok(ShardEntry {
            file: file.to_string(),
            records: self.count,
            bytes: bytes.len() as u64,
            fnv1a: format!("{:016x}", fnv1a64(&bytes)),
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

    // Every record takes at least its prefix, so the header's count cannot
    // reserve more than the bytes could hold.
    let mut out = Vec::with_capacity(records.min((bytes.len() - nl) / RECORD_PREFIX));
    let mut pos = nl + 1;
    for i in 0..records {
        if bytes.len() - pos < RECORD_PREFIX {
            return Err(corruption(format!(
                "shard truncated: record {i} of {records} has no length prefix"
            )));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        pos += RECORD_PREFIX;
        if bytes.len() - pos < len {
            return Err(corruption(format!(
                "shard truncated: record {i} claims {len} bytes, {} remain",
                bytes.len() - pos
            )));
        }
        let payload = &bytes[pos..pos + len];
        let actual = fnv1a64(payload);
        if actual != sum {
            return Err(corruption(format!(
                "shard record {i} checksum mismatch (stored {sum:016x}, computed {actual:016x})"
            )));
        }
        out.push(pos..pos + len);
        pos += len;
    }
    if pos != bytes.len() {
        return Err(corruption(format!(
            "shard padded: {} trailing bytes after the last record",
            bytes.len() - pos
        )));
    }
    Ok(out)
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
    /// file; a mismatch is a counted corruption error.
    pub fn verify(&self, dir: &Path) -> io::Result<()> {
        for e in &self.entries {
            let path = dir.join(&e.file);
            let bytes = std::fs::read(&path).map_err(|err| {
                io::Error::new(
                    err.kind(),
                    format!("shard `{}` listed in manifest but unreadable: {err}", e.file),
                )
            })?;
            if bytes.len() as u64 != e.bytes {
                return Err(corruption(format!(
                    "shard `{}` is {} bytes, manifest says {}",
                    e.file,
                    bytes.len(),
                    e.bytes
                )));
            }
            let actual = fnv1a64(&bytes);
            if actual != e.checksum()? {
                return Err(corruption(format!(
                    "shard `{}` checksum mismatch (manifest {}, computed {actual:016x})",
                    e.file, e.fnv1a
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}

//! # irnuma-store — crash-safe artifact persistence
//!
//! Every artifact the pipeline persists (trained models, training
//! checkpoints, pack directories, experiment CSVs, bench medians) goes through
//! this crate, which provides two independent guarantees:
//!
//! * **Atomicity** — [`atomic_write`] writes to a `.<name>.tmp` sibling,
//!   fsyncs it, then renames over the destination (and fsyncs the directory
//!   on Unix). A crash mid-write leaves the previous file intact; a failed
//!   write removes its temporary. Readers never observe a torn file.
//! * **Integrity** — [`save_bytes`]/[`load_bytes`] frame the payload with a
//!   one-line versioned header carrying an artifact kind, the payload
//!   length, and an FNV-1a 64 checksum. Truncation, bit flips, or loading a
//!   model file as a dataset all surface as a clean
//!   [`std::io::ErrorKind::InvalidData`] error instead of a panic or a
//!   silently garbage artifact.
//!
//! The frame is a single ASCII header line followed by the raw payload:
//!
//! ```text
//! irnuma-store v1 kind=model len=8421 fnv1a=4af37c29b01d6e55\n
//! {...payload bytes...}
//! ```
//!
//! A file without the header is [`std::io::ErrorKind::InvalidData`] like any
//! other damage: every load checks kind, length and checksum.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub mod shard;

/// Current on-disk frame version. Bump on any incompatible header change.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &str = "irnuma-store ";

/// FNV-1a 64-bit checksum (dependency-free; detects truncation/corruption,
/// not adversaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An [`io::ErrorKind::InvalidData`] error for usage mistakes (wrong kind,
/// malformed header fields) as opposed to on-disk damage.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// [`invalid`], but for genuine on-disk damage (truncation, bit flips, torn
/// headers) as opposed to usage errors like a kind mismatch — damage is
/// additionally counted so operators see it in `irnuma top`.
pub fn corruption(msg: impl Into<String>) -> io::Error {
    irnuma_obs::counter!("store.corruption_detected").inc(1);
    invalid(msg)
}

fn tmp_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact");
    path.with_file_name(format!(".{name}.tmp"))
}

/// Atomically replace `path` with `bytes`: write a temporary sibling, fsync,
/// rename. The destination either keeps its old contents or holds the full
/// new ones — never a prefix. Parent directories are created as needed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// [`atomic_write`] with a caller-supplied writer closure (also the test
/// seam for simulating a crash mid-write: a closure that errors after a
/// partial write must leave the old file intact and no temporary behind).
pub fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> io::Result<()>,
) -> io::Result<()> {
    // One span per durable write, so traces show where checkpoint/dataset
    // persistence sits on an epoch's critical path.
    let mut span = irnuma_obs::span!("store.write");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        write(&mut f)?;
        if irnuma_obs::telemetry_enabled() {
            let written = f.metadata().map(|m| m.len()).unwrap_or(0);
            let t0 = std::time::Instant::now();
            f.sync_all()?;
            irnuma_obs::histogram!("store.fsync_ns").record_duration(t0.elapsed());
            irnuma_obs::counter!("store.write_bytes").inc(written);
            span.field("bytes", written);
        } else {
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        sync_dir(path);
        Ok(())
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// Fsync the parent directory so the rename itself survives a crash.
/// Best-effort: not every filesystem/platform supports opening a directory.
fn sync_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// Frame `payload` with the versioned header for artifact `kind`.
///
/// `kind` must be a short ASCII token (no whitespace); it namespaces
/// artifacts so a checkpoint can't be loaded where a dataset is expected.
pub fn frame(kind: &str, payload: &[u8]) -> Vec<u8> {
    assert!(
        !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_graphic()),
        "artifact kind must be a non-empty ASCII token: {kind:?}"
    );
    let header = format!(
        "{MAGIC}v{FORMAT_VERSION} kind={kind} len={} fnv1a={:016x}\n",
        payload.len(),
        fnv1a64(payload)
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a framed artifact and return its payload slice.
///
/// The bytes must carry a well-formed `v1` header whose kind matches
/// `expected_kind`, whose length matches the remaining bytes (truncation),
/// and whose checksum matches the payload (corruption) — a missing header
/// or any mismatch is an [`io::ErrorKind::InvalidData`] error naming the
/// failure.
pub fn parse_frame<'a>(expected_kind: &str, bytes: &'a [u8]) -> io::Result<&'a [u8]> {
    if !bytes.starts_with(MAGIC.as_bytes()) {
        return Err(corruption("store header: missing magic (unframed or torn file)"));
    }
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corruption("store header: missing newline (truncated header)"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| corruption("store header: not valid UTF-8"))?;
    let payload = &bytes[nl + 1..];

    let mut fields = header[MAGIC.len()..].split(' ');
    let version = fields.next().unwrap_or("");
    if version != format!("v{FORMAT_VERSION}") {
        return Err(invalid(format!("store header: unsupported version `{version}`")));
    }
    let (mut kind, mut len, mut sum) = (None, None, None);
    for f in fields {
        match f.split_once('=') {
            Some(("kind", v)) => kind = Some(v.to_string()),
            Some(("len", v)) => len = v.parse::<usize>().ok(),
            Some(("fnv1a", v)) => sum = u64::from_str_radix(v, 16).ok(),
            _ => return Err(invalid(format!("store header: unknown field `{f}`"))),
        }
    }
    let kind = kind.ok_or_else(|| invalid("store header: missing kind"))?;
    let len = len.ok_or_else(|| invalid("store header: missing/bad len"))?;
    let sum = sum.ok_or_else(|| invalid("store header: missing/bad checksum"))?;
    if kind != expected_kind {
        return Err(invalid(format!(
            "artifact kind mismatch: file is `{kind}`, expected `{expected_kind}`"
        )));
    }
    if payload.len() != len {
        return Err(corruption(format!(
            "artifact truncated or padded: header says {len} bytes, file holds {}",
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != sum {
        return Err(corruption(format!(
            "artifact checksum mismatch (stored {sum:016x}, computed {actual:016x}): corrupt file"
        )));
    }
    Ok(payload)
}

/// Atomically persist `payload` framed as artifact `kind` at `path`.
pub fn save_bytes(path: &Path, kind: &str, payload: &[u8]) -> io::Result<()> {
    atomic_write(path, &frame(kind, payload))
}

/// Load and validate an artifact saved with [`save_bytes`].
pub fn load_bytes(path: &Path, kind: &str) -> io::Result<Vec<u8>> {
    let bytes = fs::read(path)?;
    parse_frame(kind, &bytes).map(|p| p.to_vec())
}

/// Serialize `value` as JSON and persist it atomically as artifact `kind`.
pub fn save_json<T: Serialize>(path: &Path, kind: &str, value: &T) -> io::Result<()> {
    let json = serde_json::to_vec(value).map_err(|e| invalid(format!("serialize {kind}: {e}")))?;
    save_bytes(path, kind, &json)
}

/// Load a JSON artifact saved with [`save_json`]. Checksum, kind, and parse
/// failures all come back as [`io::ErrorKind::InvalidData`].
pub fn load_json<T: Deserialize>(path: &Path, kind: &str) -> io::Result<T> {
    let payload = load_bytes(path, kind)?;
    serde_json::from_slice(&payload).map_err(|e| invalid(format!("parse {kind}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("irnuma-store-test").join(name);
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn json_round_trips_through_the_frame() {
        let d = tdir("roundtrip");
        let path = d.join("v.json");
        let value = vec![1u32, 2, 3, 40000];
        save_json(&path, "vec", &value).unwrap();
        let back: Vec<u32> = load_json(&path, "vec").unwrap();
        assert_eq!(back, value);
        let raw = fs::read_to_string(&path).unwrap();
        assert!(raw.starts_with("irnuma-store v1 kind=vec "), "{raw}");
    }

    #[test]
    fn truncation_is_invalid_data() {
        let d = tdir("trunc");
        let path = d.join("v.json");
        save_json(&path, "vec", &vec![9u32; 64]).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = load_json::<Vec<u32>>(&path, "vec").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn bit_flip_is_invalid_data() {
        let d = tdir("flip");
        let path = d.join("v.json");
        save_json(&path, "vec", &vec![7u32; 64]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = load_json::<Vec<u32>>(&path, "vec").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn kind_mismatch_is_invalid_data() {
        let d = tdir("kind");
        let path = d.join("v.json");
        save_json(&path, "model", &3u32).unwrap();
        let err = load_json::<u32>(&path, "dataset").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("kind mismatch"), "{err}");
    }

    #[test]
    fn unframed_files_are_invalid_data() {
        let d = tdir("unframed");
        let path = d.join("old.json");
        for bytes in [&b"[1,2,3]"[..], b"", b"irnuma-stor"] {
            fs::write(&path, bytes).unwrap();
            let err = load_json::<Vec<u32>>(&path, "vec").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
            assert!(err.to_string().contains("missing magic"), "{err}");
        }
    }

    #[test]
    fn failed_write_leaves_old_file_intact_and_no_tmp_residue() {
        let d = tdir("atomic");
        let path = d.join("artifact.bin");
        atomic_write(&path, b"old contents").unwrap();

        // Simulated crash: a partial write, then an error.
        let err = atomic_write_with(&path, |f| {
            f.write_all(b"new but torn")?;
            Err(io::Error::other("disk died"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk died");

        assert_eq!(fs::read(&path).unwrap(), b"old contents");
        let residue: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty(), "tmp residue: {residue:?}");
    }

    #[test]
    fn atomic_write_creates_parent_dirs() {
        let d = tdir("parents");
        let path = d.join("a/b/c.txt");
        atomic_write(&path, b"x").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"x");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

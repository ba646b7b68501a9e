//! Content-addressed staging for chunked volume uploads.
//!
//! A client uploads a DWI container (a TRDS blob, see `tracto::loaded`)
//! in three verbs: `upload_begin` declares `(hash, len)`, `upload_chunk`
//! appends base64 chunks in order, and `upload_commit` verifies the
//! staged bytes against the declared FNV-1a hash and publishes them.
//! Everything lives under `<state-dir>/uploads/`:
//!
//! - `<hash>.<conn>.part` — bytes staged by one connection. Private to
//!   that connection; deleted the moment it disconnects without
//!   committing, and swept at bind time (a `.part` left by a crashed
//!   server has no owner).
//! - `<hash>.trds` — a committed, verified blob. Immutable: the name *is*
//!   the content hash, so a re-upload of the same bytes is a no-op
//!   (`upload_begin` answers `complete: true`) and a job spec can
//!   reference it forever.
//!
//! Resumability falls out of the naming: a client that reconnects gets a
//! fresh connection id and restarts at offset 0, but a client that
//! retries on the *same* connection continues from the staged length
//! that `upload_begin` reports.

use crate::lock;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tracto_proto::{content_digest, UPLOAD_CHUNK_MAX};
use tracto_trace::{TractoError, TractoResult};

/// Largest blob a server will stage (256 MiB). Far above any dataset this
/// pipeline produces; the cap exists so a hostile `upload_begin` cannot
/// reserve unbounded disk.
pub const MAX_UPLOAD_BYTES: u64 = 256 << 20;

/// File extension of a committed blob.
pub const COMMITTED_EXT: &str = "trds";

/// One connection's open (uncommitted) upload.
struct OpenUpload {
    declared_len: u64,
    staged: u64,
}

/// A directory of staged and committed uploads, shared by every reactor
/// connection.
pub struct UploadStore {
    dir: PathBuf,
    open: Mutex<HashMap<(u64, String), OpenUpload>>,
}

impl UploadStore {
    /// Open (creating if needed) the store at `dir` and sweep orphaned
    /// staging files from a previous process.
    pub fn open(dir: &Path) -> TractoResult<Self> {
        fs::create_dir_all(dir)
            .map_err(|e| TractoError::io(format!("create upload dir {}", dir.display()), e))?;
        let entries = fs::read_dir(dir)
            .map_err(|e| TractoError::io(format!("scan upload dir {}", dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| TractoError::io("scan upload dir", e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("part") {
                // Best effort: a sweep failure must not block binding.
                let _ = fs::remove_file(&path);
            }
        }
        Ok(UploadStore {
            dir: dir.to_path_buf(),
            open: Mutex::new(HashMap::new()),
        })
    }

    /// The path a committed blob lives at.
    pub fn committed_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.{COMMITTED_EXT}"))
    }

    fn staging_path(&self, conn: u64, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.{conn}.part"))
    }

    /// Open or resume an upload. Returns `(offset, complete)`: the offset
    /// the client should continue from, or `complete: true` when the hash
    /// is already committed and nothing need be sent.
    pub fn begin(&self, conn: u64, hash: &str, len: u64) -> TractoResult<(u64, bool)> {
        validate_hash(hash)?;
        if len == 0 {
            return Err(TractoError::protocol("upload length must be nonzero"));
        }
        if len > MAX_UPLOAD_BYTES {
            return Err(TractoError::protocol(format!(
                "upload of {len} bytes exceeds the {MAX_UPLOAD_BYTES}-byte limit"
            )));
        }
        if self.committed_path(hash).is_file() {
            return Ok((len, true));
        }
        let staging = self.staging_path(conn, hash);
        let staged = match fs::metadata(&staging) {
            Ok(meta) => meta.len(),
            Err(_) => {
                File::create(&staging)
                    .map_err(|e| TractoError::io(format!("create {}", staging.display()), e))?;
                0
            }
        };
        let mut open = lock(&self.open);
        let entry = open.entry((conn, hash.to_string())).or_insert(OpenUpload {
            declared_len: len,
            staged,
        });
        if entry.declared_len != len {
            return Err(TractoError::protocol(format!(
                "upload {hash} was opened with length {}, not {len}",
                entry.declared_len
            )));
        }
        Ok((entry.staged, false))
    }

    /// Append one decoded chunk at `offset`. The offset must equal the
    /// staged length — `upload_begin` told the client where to resume, so
    /// anything else is a protocol violation, answered in-band.
    pub fn chunk(&self, conn: u64, hash: &str, offset: u64, data: &[u8]) -> TractoResult<u64> {
        validate_hash(hash)?;
        if data.is_empty() {
            return Err(TractoError::protocol("upload chunk is empty"));
        }
        if data.len() as u64 > UPLOAD_CHUNK_MAX {
            return Err(TractoError::protocol(format!(
                "upload chunk of {} bytes exceeds the {UPLOAD_CHUNK_MAX}-byte chunk limit",
                data.len()
            )));
        }
        let mut open = lock(&self.open);
        let key = (conn, hash.to_string());
        let entry = open.get_mut(&key).ok_or_else(|| {
            TractoError::protocol(format!(
                "upload {hash} is not open (send upload_begin first)"
            ))
        })?;
        if offset != entry.staged {
            return Err(TractoError::protocol(format!(
                "upload {hash} chunk at offset {offset}, expected {}",
                entry.staged
            )));
        }
        let new_len = entry.staged + data.len() as u64;
        if new_len > entry.declared_len {
            return Err(TractoError::protocol(format!(
                "upload {hash} would grow to {new_len} bytes, beyond its declared {}",
                entry.declared_len
            )));
        }
        let staging = self.staging_path(conn, hash);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&staging)
            .map_err(|e| TractoError::io(format!("append {}", staging.display()), e))?;
        f.write_all(data)
            .map_err(|e| TractoError::io(format!("append {}", staging.display()), e))?;
        entry.staged = new_len;
        Ok(new_len)
    }

    /// Verify the staged bytes against the declared hash and publish the
    /// blob. Returns its length. The staging file is consumed either way:
    /// renamed into place on success, deleted on a hash mismatch.
    pub fn commit(&self, conn: u64, hash: &str) -> TractoResult<u64> {
        validate_hash(hash)?;
        let key = (conn, hash.to_string());
        let entry = lock(&self.open).remove(&key).ok_or_else(|| {
            TractoError::protocol(format!(
                "upload {hash} is not open (send upload_begin first)"
            ))
        })?;
        let staging = self.staging_path(conn, hash);
        if entry.staged != entry.declared_len {
            let _ = fs::remove_file(&staging);
            return Err(TractoError::protocol(format!(
                "upload {hash} committed at {} of {} declared bytes",
                entry.staged, entry.declared_len
            )));
        }
        let bytes = fs::read(&staging)
            .map_err(|e| TractoError::io(format!("read {}", staging.display()), e))?;
        let actual = format!("{:016x}", content_digest(&bytes));
        if actual != hash {
            let _ = fs::remove_file(&staging);
            return Err(TractoError::protocol(format!(
                "upload content hashes to {actual}, not the declared {hash}"
            )));
        }
        let committed = self.committed_path(hash);
        if committed.is_file() {
            // Another connection won the race; their bytes are ours.
            let _ = fs::remove_file(&staging);
            return Ok(entry.declared_len);
        }
        fs::rename(&staging, &committed)
            .map_err(|e| TractoError::io(format!("publish {}", committed.display()), e))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(entry.declared_len)
    }

    /// Drop every uncommitted upload owned by a connection (called when it
    /// closes, for any reason). Committed blobs are untouched.
    pub fn drop_conn(&self, conn: u64) {
        let mut open = lock(&self.open);
        let dead: Vec<(u64, String)> = open.keys().filter(|(c, _)| *c == conn).cloned().collect();
        for key in dead {
            let _ = fs::remove_file(self.staging_path(key.0, &key.1));
            open.remove(&key);
        }
    }

    /// Number of `.part` files currently on disk (test hook).
    pub fn staging_files(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("part"))
                    .count()
            })
            .unwrap_or(0)
    }
}

fn validate_hash(hash: &str) -> TractoResult<()> {
    let ok = hash.len() == 16
        && hash
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if ok {
        Ok(())
    } else {
        Err(TractoError::protocol(format!(
            "upload hash `{hash}` is not 16 lowercase hex digits"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::ErrorKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracto-uploads-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn hash_of(bytes: &[u8]) -> String {
        format!("{:016x}", content_digest(bytes))
    }

    #[test]
    fn begin_chunk_commit_publishes_the_blob() {
        let dir = tmp_dir("roundtrip");
        let store = UploadStore::open(&dir).unwrap();
        let blob: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_be_bytes()).collect();
        let hash = hash_of(&blob);
        let (offset, complete) = store.begin(7, &hash, blob.len() as u64).unwrap();
        assert_eq!((offset, complete), (0, false));
        let mut sent = 0usize;
        for chunk in blob.chunks(4096) {
            let got = store.chunk(7, &hash, sent as u64, chunk).unwrap();
            sent += chunk.len();
            assert_eq!(got, sent as u64);
        }
        assert_eq!(store.commit(7, &hash).unwrap(), blob.len() as u64);
        assert_eq!(fs::read(store.committed_path(&hash)).unwrap(), blob);
        assert_eq!(store.staging_files(), 0);
        // A second upload of the same content is already complete.
        let (off, complete) = store.begin(8, &hash, blob.len() as u64).unwrap();
        assert!(complete);
        assert_eq!(off, blob.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_chunks_are_in_band_protocol_errors() {
        let dir = tmp_dir("hostile");
        let store = UploadStore::open(&dir).unwrap();
        let blob = vec![0xAAu8; 1000];
        let hash = hash_of(&blob);

        // Chunk without begin.
        let err = store.chunk(1, &hash, 0, &blob).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);

        store.begin(1, &hash, 1000).unwrap();
        // Wrong offset.
        let err = store.chunk(1, &hash, 10, &blob[..100]).unwrap_err();
        assert!(err.to_string().contains("expected 0"), "{err}");
        // Overflowing the declared length.
        store.chunk(1, &hash, 0, &blob[..600]).unwrap();
        let err = store.chunk(1, &hash, 600, &blob[..600]).unwrap_err();
        assert!(err.to_string().contains("beyond its declared"), "{err}");
        // Oversized single chunk.
        let big = vec![0u8; (UPLOAD_CHUNK_MAX + 1) as usize];
        let err = store.chunk(1, &hash, 600, &big).unwrap_err();
        assert!(err.to_string().contains("chunk limit"), "{err}");
        // Bad hash string.
        assert_eq!(
            store.begin(1, "DEADBEEF", 10).unwrap_err().kind(),
            ErrorKind::Protocol
        );
        // Oversized declared length.
        let err = store
            .begin(1, &hash_of(b"x"), MAX_UPLOAD_BYTES + 1)
            .unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
        // Committing short leaves nothing behind.
        let err = store.commit(1, &hash).unwrap_err();
        assert!(err.to_string().contains("600 of 1000"), "{err}");
        assert_eq!(store.staging_files(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_hash_is_rejected_and_staging_removed() {
        let dir = tmp_dir("liar");
        let store = UploadStore::open(&dir).unwrap();
        let blob = b"the real content".to_vec();
        let lie = hash_of(b"something else");
        store.begin(3, &lie, blob.len() as u64).unwrap();
        store.chunk(3, &lie, 0, &blob).unwrap();
        let err = store.commit(3, &lie).unwrap_err();
        assert!(err.to_string().contains("hashes to"), "{err}");
        assert_eq!(store.staging_files(), 0);
        assert!(!store.committed_path(&lie).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disconnect_drops_staging_and_resume_continues_on_same_conn() {
        let dir = tmp_dir("resume");
        let store = UploadStore::open(&dir).unwrap();
        let blob = vec![7u8; 9000];
        let hash = hash_of(&blob);
        store.begin(5, &hash, 9000).unwrap();
        store.chunk(5, &hash, 0, &blob[..4000]).unwrap();
        // Same connection re-begins (client retry): resumes at 4000.
        let (off, complete) = store.begin(5, &hash, 9000).unwrap();
        assert_eq!((off, complete), (4000, false));
        store.chunk(5, &hash, 4000, &blob[4000..]).unwrap();
        // A different connection's disconnect does not touch it...
        store.drop_conn(6);
        assert_eq!(store.staging_files(), 1);
        // ...but its own does.
        store.drop_conn(5);
        assert_eq!(store.staging_files(), 0);
        assert!(store.commit(5, &hash).is_err(), "open state was dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_time_sweep_removes_orphans() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("aaaaaaaaaaaaaaaa.3.part"), b"orphan").unwrap();
        fs::write(dir.join("bbbbbbbbbbbbbbbb.trds"), b"committed").unwrap();
        let store = UploadStore::open(&dir).unwrap();
        assert_eq!(store.staging_files(), 0);
        assert!(dir.join("bbbbbbbbbbbbbbbb.trds").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

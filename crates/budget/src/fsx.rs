//! Durable filesystem I/O for the whole workspace.
//!
//! Every byte PUFFER persists — checkpoint journals, metrics JSONL sinks,
//! serve job specs/results, bench artifacts, CLI outputs — goes through
//! this module, and `scripts/policy.sh` enforces it
//! (`clippy.toml` disallows `File::create` / `fs::write` / `fs::rename` /
//! `sync_all` outside this file). Three primitives cover every write
//! pattern in the workspace:
//!
//! * [`atomic_write`] — whole-file replace with the full crash discipline:
//!   write to a temp sibling, `fsync` the data, `rename` over the target,
//!   then `fsync` the parent directory so the rename itself is durable. A
//!   reader never observes a half-written file: it sees the old bytes or
//!   the new bytes, nothing in between.
//! * [`AppendSink`] — append-only record log with one `write(2)` call per
//!   record and an `fsync` only on [`AppendSink::sync`]. A killed process
//!   can tear (at most) the record being written, a power loss can also
//!   drop the records since the last sync; previously synced records are
//!   never corrupted by a later failure.
//! * [`read_journal_tail_tolerant`] — the single torn-final-line reader
//!   shared by every [`AppendSink`] log (metrics JSONL, serve
//!   `run.jsonl`). A line left unterminated by a crash is
//!   dropped (and reported via [`Journal::dropped_torn_tail`]); every line
//!   before it is returned verbatim. Whole-file artifacts such as the
//!   checkpoint journal need no such reader: [`atomic_write`] never leaves
//!   one half-written.
//!
//! Together they guarantee the end-state invariant the chaos harness
//! asserts: after any crash, a reader finds either a complete artifact, a
//! resumable journal prefix, or nothing — never garbage.
//!
//! # Fault injection
//!
//! The [`fault`] module arms one seeded filesystem fault
//! ([`FaultClass::DiskFull`], [`FaultClass::TornWrite`],
//! [`FaultClass::FsyncFail`], [`FaultClass::RenameFail`], or — on the read
//! side, via [`GuardedReader`] — [`FaultClass::ShortRead`]) that fires
//! deterministically at the N-th guarded operation of the matching kind
//! and then disarms itself. Unarmed, the hook costs one atomic load per
//! guarded call.

#![expect(
    clippy::disallowed_methods,
    reason = "the durable I/O layer itself: the raw primitives it wraps in the crash ordering"
)]

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::FaultClass;

// ---------------------------------------------------------------------------
// Guarded primitive operations (the fault-injection points)
// ---------------------------------------------------------------------------

/// Writes all of `bytes` through the fault hook: `DiskFull` refuses before
/// any byte lands, `TornWrite` lands half the bytes and then reports the
/// simulated crash.
fn guarded_write(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    if let Some(class) = fault::fire(fault::Op::Write) {
        return match class {
            FaultClass::TornWrite => {
                let half = bytes.len() / 2;
                file.write_all(&bytes[..half])?;
                let _ = file.flush();
                Err(io::Error::other(
                    "chaos: torn write (crash after a short write)",
                ))
            }
            _ => Err(io::Error::other("chaos: disk full (ENOSPC) during write")),
        };
    }
    file.write_all(bytes)
}

/// `fsync(2)` through the fault hook (`FsyncFail`).
fn guarded_fsync(file: &File) -> io::Result<()> {
    if fault::fire(fault::Op::Fsync).is_some() {
        return Err(io::Error::other("chaos: fsync failed"));
    }
    file.sync_all()
}

/// `rename(2)` through the fault hook (`RenameFail`, and `DiskFull` at the
/// commit point).
fn guarded_rename(from: &Path, to: &Path) -> io::Result<()> {
    if let Some(class) = fault::fire(fault::Op::Rename) {
        // Leave the temp file behind, exactly like a real failed rename.
        return match class {
            FaultClass::DiskFull => Err(io::Error::other(
                "chaos: disk full (ENOSPC) at commit rename",
            )),
            _ => Err(io::Error::other("chaos: rename failed")),
        };
    }
    std::fs::rename(from, to)
}

/// A reader whose every `read(2)` goes through the fault hook, so chaos
/// tests can make a stream end early mid-parse ([`FaultClass::ShortRead`]).
/// Unarmed, it is a passthrough.
pub struct GuardedReader<R> {
    inner: R,
}

impl<R: io::Read> GuardedReader<R> {
    pub fn new(inner: R) -> Self {
        GuardedReader { inner }
    }
}

impl<R: io::Read> io::Read for GuardedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if fault::fire(fault::Op::Read).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "chaos: short read (stream truncated mid-parse)",
            ));
        }
        self.inner.read(buf)
    }
}

/// Opens `path` for buffered reading through the fault hook — the read-side
/// counterpart of the guarded write primitives.
///
/// # Errors
///
/// Propagates the `open(2)` failure.
pub fn open_read(path: &Path) -> io::Result<io::BufReader<GuardedReader<File>>> {
    Ok(io::BufReader::new(GuardedReader::new(File::open(path)?)))
}

/// `fsync`s the directory containing `path` so a just-committed rename (or
/// file creation) survives a power cut. Platforms whose directory handles
/// reject `fsync` (notably some Windows filesystems) are tolerated.
fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match File::open(parent) {
        Ok(dir) => match guarded_fsync(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.get_ref().is_some() => Err(e), // injected fault
            // A real OS refusing fsync on a directory handle is not a
            // durability bug we can fix here; the rename itself succeeded.
            Err(_) => Ok(()),
        },
        Err(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// atomic_write
// ---------------------------------------------------------------------------

/// Atomically replaces `path` with `bytes`: temp sibling + `fsync` +
/// `rename` + parent-directory `fsync`.
///
/// The temp file lives next to the target (`<name>.tmp`) so the rename
/// never crosses filesystems. On failure the target is untouched — readers
/// observe either the previous contents in full or the new contents in
/// full.
///
/// # Errors
///
/// Any underlying I/O error (or injected fault); the previous file, if
/// any, is still intact.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let mut file = File::create(&tmp)?;
    guarded_write(&mut file, bytes)?;
    guarded_fsync(&file)?;
    drop(file);
    guarded_rename(&tmp, path)?;
    fsync_parent_dir(path)
}

// ---------------------------------------------------------------------------
// AppendSink
// ---------------------------------------------------------------------------

/// An append-only record log with the one-write-per-record discipline.
///
/// Each [`AppendSink::write_record`] issues a single `write(2)` of the
/// whole record (callers include the terminator — a trailing `\n` for line
/// records), so a crash interleaves at record granularity: the file is
/// always a sequence of complete records plus at most one torn tail, which
/// [`read_journal_tail_tolerant`] drops on recovery. Records reach the OS
/// one `write(2)` each; durability is batched at [`AppendSink::sync`], so
/// the writer (telemetry, where losing the tail is acceptable) never pays
/// a per-record `fsync`.
#[derive(Debug)]
pub struct AppendSink {
    file: File,
}

impl AppendSink {
    /// Creates (truncating) `path` and fsyncs the parent directory so the
    /// new file's existence is durable.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error creating the file.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        fsync_parent_dir(path)?;
        Ok(AppendSink { file })
    }

    /// Appends one complete record (terminator included) in a single write.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error (or injected fault). On error the file
    /// holds its previous records plus at most a torn tail.
    pub fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        guarded_write(&mut self.file, record)
    }

    /// Forces everything written so far to stable storage.
    ///
    /// # Errors
    ///
    /// The underlying `fsync` error (or injected `FsyncFail` fault).
    pub fn sync(&mut self) -> io::Result<()> {
        guarded_fsync(&self.file)
    }
}

// ---------------------------------------------------------------------------
// Torn-tail-tolerant journal reader
// ---------------------------------------------------------------------------

/// A journal decoded by [`read_journal_tail_tolerant`]: the complete
/// records, and whether a crash-torn tail was dropped to get them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    records: Vec<String>,
    dropped_torn_tail: bool,
}

impl Journal {
    /// Decodes `text`, one record per `\n`-terminated line. Infallible: an
    /// unterminated final line is the torn tail, dropped and flagged,
    /// never an error — whether "no complete record" is acceptable is the
    /// caller's policy.
    pub fn from_text(text: &str) -> Journal {
        let mut records = Vec::new();
        let mut torn = false;
        for chunk in text.split_inclusive('\n') {
            match chunk.strip_suffix('\n') {
                Some(line) => records.push(line.to_string()),
                None => torn = true,
            }
        }
        Journal {
            records,
            dropped_torn_tail: torn,
        }
    }

    /// The complete records, in file order.
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// The number of complete records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no complete record was found.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether an incomplete final record was dropped during decoding —
    /// the signature a crash interrupted the last append.
    pub fn dropped_torn_tail(&self) -> bool {
        self.dropped_torn_tail
    }
}

/// Reads `path` and decodes it with the workspace's single torn-tail
/// recovery rule: every complete line is returned, an unterminated final
/// line (the unsynced tail a crash can leave) is dropped and flagged.
///
/// This is the only sanctioned way to read an append-only PUFFER log back
/// — the metrics JSONL validator and the serve `run.jsonl` recovery both
/// decode through it, so "what survives a crash" has exactly one
/// definition.
///
/// # Errors
///
/// The underlying read error, or `InvalidData` when the file is not UTF-8.
pub fn read_journal_tail_tolerant(path: &Path) -> io::Result<Journal> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    Ok(Journal::from_text(&text))
}

/// Returns the path of the temp sibling [`atomic_write`] uses for `path` —
/// exposed so crash-recovery scans can recognise (and ignore or sweep)
/// interrupted writes.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    path.with_file_name(format!("{name}.tmp"))
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The deterministic filesystem fault hook. One fault is armed at a time,
/// process-wide; it fires at the N-th guarded operation of its kind and
/// disarms itself, so a seeded chaos case injects exactly one failure.
pub mod fault {
    use crate::FaultClass;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The kind of guarded syscall a fault can intercept.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Op {
        Write,
        Fsync,
        Rename,
        Read,
    }

    /// Armed class: 0 = disarmed, else 1 + index into `FaultClass::FS`.
    static CLASS: AtomicU32 = AtomicU32::new(0);
    /// Matching operations left to skip before firing.
    static SKIP: AtomicU32 = AtomicU32::new(0);

    fn encode(class: FaultClass) -> Option<u32> {
        FaultClass::FS
            .iter()
            .position(|c| *c == class)
            .and_then(|i| u32::try_from(i + 1).ok())
    }

    fn decode(code: u32) -> Option<FaultClass> {
        match code {
            0 => None,
            n => usize::try_from(n - 1)
                .ok()
                .and_then(|i| FaultClass::FS.get(i).copied()),
        }
    }

    /// Arms `class` to fire after skipping `skip` guarded operations of
    /// the matching kind. Non-filesystem classes disarm instead. Returns
    /// whether a filesystem fault is now armed.
    pub fn arm(class: FaultClass, skip: usize) -> bool {
        match encode(class) {
            Some(code) => {
                SKIP.store(u32::try_from(skip).unwrap_or(u32::MAX), Ordering::SeqCst);
                CLASS.store(code, Ordering::SeqCst);
                true
            }
            None => {
                disarm();
                false
            }
        }
    }

    /// Disarms any pending fault.
    pub fn disarm() {
        CLASS.store(0, Ordering::SeqCst);
    }

    /// Whether a fault is currently armed (it has not fired yet).
    pub fn armed() -> bool {
        CLASS.load(Ordering::SeqCst) != 0
    }

    /// Which operations `class` intercepts.
    fn matches(class: FaultClass, op: Op) -> bool {
        match class {
            // ENOSPC can strike mid-data or at the commit rename.
            FaultClass::DiskFull => op == Op::Write || op == Op::Rename,
            FaultClass::TornWrite => op == Op::Write,
            FaultClass::FsyncFail => op == Op::Fsync,
            FaultClass::RenameFail => op == Op::Rename,
            FaultClass::ShortRead => op == Op::Read,
            _ => false,
        }
    }

    /// Called by the guarded primitives: decides (atomically) whether the
    /// armed fault fires at this operation. Firing disarms the hook.
    pub(super) fn fire(op: Op) -> Option<FaultClass> {
        let class = decode(CLASS.load(Ordering::SeqCst))?;
        if !matches(class, op) {
            return None;
        }
        // Count down matching operations; fire at zero. fetch_update makes
        // the skip-or-fire decision atomic under concurrent writers.
        let fired = SKIP
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_err();
        if fired {
            // Only one thread observes the failed decrement per arming
            // because firing disarms before returning.
            if CLASS.swap(0, Ordering::SeqCst) == 0 {
                return None; // another thread already fired this arming
            }
            return Some(class);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault hook is process-global, so every test doing guarded I/O
    /// must serialize against the armed-fault tests.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("puffer-fsx-tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let _g = gate();
        let dir = tmp_dir("atomic");
        let path = dir.join("a.txt");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!tmp_sibling(&path).exists());
    }

    #[test]
    fn append_sink_accumulates_records() {
        let _g = gate();
        let dir = tmp_dir("sink");
        let path = dir.join("log.jsonl");
        let mut sink = AppendSink::create(&path).unwrap();
        sink.write_record(b"a\n").unwrap();
        sink.write_record(b"b\n").unwrap();
        sink.sync().unwrap();
        drop(sink);
        let j = read_journal_tail_tolerant(&path).unwrap();
        assert_eq!(j.records(), ["a", "b"]);
        assert!(!j.dropped_torn_tail());
    }

    #[test]
    fn line_journal_drops_unterminated_tail() {
        let j = Journal::from_text("a\nb\ncut-off");
        assert_eq!(j.records(), ["a", "b"]);
        assert!(j.dropped_torn_tail());
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn line_journal_on_clean_file_keeps_everything() {
        let j = Journal::from_text("a\nb\n");
        assert_eq!(j.records(), ["a", "b"]);
        assert!(!j.dropped_torn_tail());
        let empty = Journal::from_text("");
        assert!(empty.is_empty());
        assert!(!empty.dropped_torn_tail());
    }

    #[test]
    fn reader_round_trips_through_a_file() {
        let _g = gate();
        let dir = tmp_dir("reader");
        let path = dir.join("t.log");
        std::fs::write(&path, "x\ny\nto").unwrap();
        let j = read_journal_tail_tolerant(&path).unwrap();
        assert_eq!(j.records(), ["x", "y"]);
        assert!(j.dropped_torn_tail());
        assert!(read_journal_tail_tolerant(dir.join("absent.log").as_path()).is_err());
    }

    mod chaos {
        use super::super::*;
        use crate::FaultClass;
        fn tmp_dir(name: &str) -> PathBuf {
            let dir = std::env::temp_dir().join("puffer-fsx-chaos").join(name);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        }

        #[test]
        fn disk_full_mid_write_leaves_previous_file_intact() {
            let _g = super::gate();
            let dir = tmp_dir("enospc");
            let path = dir.join("a.txt");
            atomic_write(&path, b"stable").unwrap();
            assert!(fault::arm(FaultClass::DiskFull, 0));
            let err = atomic_write(&path, b"replacement").unwrap_err();
            assert!(err.to_string().contains("disk full"), "{err}");
            assert!(!fault::armed());
            assert_eq!(std::fs::read(&path).unwrap(), b"stable");
            fault::disarm();
        }

        #[test]
        fn torn_write_lands_half_the_bytes_then_fails() {
            let _g = super::gate();
            let dir = tmp_dir("torn");
            let path = dir.join("log.jsonl");
            let mut sink = AppendSink::create(&path).unwrap();
            sink.write_record(b"whole-record\n").unwrap();
            assert!(fault::arm(FaultClass::TornWrite, 0));
            let err = sink.write_record(b"doomed-record\n").unwrap_err();
            assert!(err.to_string().contains("torn write"), "{err}");
            drop(sink);
            let j = read_journal_tail_tolerant(&path).unwrap();
            assert_eq!(j.records(), ["whole-record"]);
            assert!(j.dropped_torn_tail());
            fault::disarm();
        }

        #[test]
        fn rename_fail_leaves_target_untouched_and_tmp_behind() {
            let _g = super::gate();
            let dir = tmp_dir("rename");
            let path = dir.join("a.txt");
            atomic_write(&path, b"stable").unwrap();
            assert!(fault::arm(FaultClass::RenameFail, 0));
            let err = atomic_write(&path, b"replacement").unwrap_err();
            assert!(err.to_string().contains("rename failed"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), b"stable");
            assert_eq!(std::fs::read(tmp_sibling(&path)).unwrap(), b"replacement");
            fault::disarm();
        }

        #[test]
        fn fsync_fail_surfaces_on_sync() {
            let _g = super::gate();
            let dir = tmp_dir("fsync");
            let path = dir.join("log.jsonl");
            let mut sink = AppendSink::create(&path).unwrap();
            sink.write_record(b"r\n").unwrap();
            assert!(fault::arm(FaultClass::FsyncFail, 0));
            let err = sink.sync().unwrap_err();
            assert!(err.to_string().contains("fsync failed"), "{err}");
            fault::disarm();
        }

        #[test]
        fn skip_counts_matching_operations_only() {
            let _g = super::gate();
            let dir = tmp_dir("skip");
            let path = dir.join("log.jsonl");
            let mut sink = AppendSink::create(&path).unwrap();
            // Skip 2 writes; the interleaved fsyncs must not consume it.
            assert!(fault::arm(FaultClass::TornWrite, 2));
            sink.write_record(b"a\n").unwrap();
            sink.sync().unwrap();
            sink.write_record(b"b\n").unwrap();
            sink.sync().unwrap();
            assert!(fault::armed());
            assert!(sink.write_record(b"c\n").is_err());
            assert!(!fault::armed());
            drop(sink);
            let j = read_journal_tail_tolerant(&path).unwrap();
            assert_eq!(j.records(), ["a", "b"]);
            fault::disarm();
        }

        #[test]
        fn non_fs_classes_do_not_arm() {
            let _g = super::gate();
            assert!(!fault::arm(FaultClass::NanBurst, 0));
            assert!(!fault::armed());
        }

        #[test]
        fn short_read_fires_through_the_guarded_reader() {
            use std::io::Read as _;
            let _g = super::gate();
            let dir = tmp_dir("short-read");
            let path = dir.join("input.txt");
            atomic_write(&path, b"line one\nline two\n").unwrap();

            // Unfaulted: the guarded reader is a passthrough.
            let mut text = String::new();
            open_read(&path).unwrap().read_to_string(&mut text).unwrap();
            assert_eq!(text, "line one\nline two\n");

            // Armed with skip 0: the first read dies, writes are unaffected.
            assert!(fault::arm(FaultClass::ShortRead, 0));
            let mut r = open_read(&path).unwrap();
            let mut buf = String::new();
            let err = r.read_to_string(&mut buf).unwrap_err();
            assert!(err.to_string().contains("short read"), "{err}");
            assert!(!fault::armed());
            atomic_write(&path, b"still writable").unwrap();
            fault::disarm();
        }
    }
}

//! The spool directory: per job, a snapshot `job-<n>.json` and a lease
//! log `job-<n>.log`.
//!
//! Durability contract. The snapshot is a complete record, written to a
//! temp file and renamed over the old one, so it is always a parseable
//! document. Between snapshots each scanned lease is made durable by one
//! `O_APPEND` write of one line to the job's log: the lease's interval
//! and its new hits (`JobStore::append_lease`). Reading a job
//! ([`JobStore::load`]) parses the snapshot and replays the log through
//! the idempotent `JobRecord::credit_lease`; replay moves coverage,
//! credit and hits, never the lifecycle state. Writing a snapshot folds
//! the log: the record already holds every line, so the log is removed
//! after the rename (a crash in between leaves lines whose replay
//! changes nothing). A final log line without its `\n` is a torn append:
//! it is ignored and its lease is scanned again; any other unreadable
//! line is [`JobError::Corrupt`] naming the log. So a SIGKILL can cost
//! the in-flight lease's scan, never a double credit or a skipped key.
//!
//! File names carry the ids, which are allocated densely by scanning the
//! directory, so a spool is self-describing and relocatable. One service
//! drives a spool at a time; CLI transitions from other processes
//! replace the snapshot, which is how the service notices them (the
//! snapshot's inode and mtime, `JobStore::stamp`).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use eks_keyspace::Interval;

use crate::job::{
    lease_line, parse_lease_line, JobError, JobHit, JobId, JobRecord, JobSpec, JobState,
};

/// A temp file older than this is left over from a crash between a
/// snapshot's write and its rename; a live writer renames its temp file
/// within microseconds, so a younger one may belong to a running service.
const STALE_TEMP_AGE: Duration = Duration::from_secs(60);

/// A handle on one spool directory.
#[derive(Debug, Clone)]
pub struct JobStore {
    spool: PathBuf,
}

/// What reading a job found in its lease log.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LogTail {
    /// Complete lines replayed.
    pub lines: usize,
    /// The log ended in a line without its `\n` (a torn append).
    pub torn: bool,
}

/// The identity of a snapshot file: a rename gives it a new inode and
/// mtime, so a changed stamp means another writer replaced the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    ino: u64,
    mtime: Option<SystemTime>,
    len: u64,
}

impl Stamp {
    fn of(meta: &fs::Metadata) -> Self {
        #[cfg(unix)]
        let ino = std::os::unix::fs::MetadataExt::ino(meta);
        #[cfg(not(unix))]
        let ino = 0;
        Self { ino, mtime: meta.modified().ok(), len: meta.len() }
    }
}

impl JobStore {
    /// Open (creating if needed) a spool directory, removing temp files
    /// a crash left between a snapshot's write and its rename.
    pub fn open(spool: impl Into<PathBuf>) -> Result<Self, JobError> {
        let spool = spool.into();
        fs::create_dir_all(&spool)
            .map_err(|e| JobError::Io(format!("create {}: {e}", spool.display())))?;
        let store = Self { spool };
        store.remove_stale_temps()?;
        Ok(store)
    }

    /// The spool directory path.
    pub fn spool(&self) -> &Path {
        &self.spool
    }

    fn record_path(&self, id: JobId) -> PathBuf {
        self.spool.join(format!("{id}.json"))
    }

    fn log_path(&self, id: JobId) -> PathBuf {
        self.spool.join(format!("{id}.log"))
    }

    fn read_dir(&self) -> Result<Vec<fs::DirEntry>, JobError> {
        let io = |e: std::io::Error| JobError::Io(format!("read {}: {e}", self.spool.display()));
        fs::read_dir(&self.spool).map_err(io)?.map(|e| e.map_err(io)).collect()
    }

    fn remove_stale_temps(&self) -> Result<(), JobError> {
        for entry in self.read_dir()? {
            if !entry.file_name().to_string_lossy().ends_with(".json.tmp") {
                continue;
            }
            let modified = entry.metadata().and_then(|m| m.modified()).ok();
            if modified.and_then(|t| t.elapsed().ok()).is_some_and(|age| age > STALE_TEMP_AGE) {
                remove_if_present(&entry.path())?;
            }
        }
        Ok(())
    }

    /// Validate a spec, allocate the next id, and persist a fresh
    /// pending record.
    pub fn submit(&self, spec: JobSpec) -> Result<JobRecord, JobError> {
        let next = self.ids()?.last().map_or(1, |id| id.0 + 1);
        let record = JobRecord::new(JobId(next), spec)?;
        self.save(&record)?;
        Ok(record)
    }

    /// Write a record's snapshot atomically (temp file + rename) and fold
    /// its lease log: the record must already hold every logged lease.
    pub fn save(&self, record: &JobRecord) -> Result<(), JobError> {
        let path = self.record_path(record.id);
        let tmp = path.with_extension("json.tmp");
        let mut doc = record.to_json();
        doc.push('\n');
        fs::write(&tmp, doc).map_err(|e| JobError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &path).map_err(|e| {
            JobError::Io(format!("rename {} -> {}: {e}", tmp.display(), path.display()))
        })?;
        remove_if_present(&self.log_path(record.id))
    }

    /// Make one scanned lease durable: append its line to the job's
    /// lease log in a single write.
    pub(crate) fn append_lease(
        &self,
        id: JobId,
        lease: &Interval,
        hits: &[JobHit],
    ) -> Result<(), JobError> {
        let path = self.log_path(id);
        let io = |e: std::io::Error| JobError::Io(format!("append {}: {e}", path.display()));
        let mut line = lease_line(lease, hits);
        line.push('\n');
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io)?
            .write_all(line.as_bytes())
            .map_err(io)
    }

    /// Load one record: the snapshot with its lease log replayed, with
    /// the file path attached to any corruption error so `eks job
    /// status` can point at the offending file.
    pub fn load(&self, id: JobId) -> Result<JobRecord, JobError> {
        self.read(id).map(|(record, _)| record)
    }

    /// [`JobStore::load`], also reporting what the lease log held.
    pub(crate) fn read(&self, id: JobId) -> Result<(JobRecord, LogTail), JobError> {
        let path = self.record_path(id);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(JobError::NotFound(id))
            }
            Err(e) => return Err(JobError::Io(format!("read {}: {e}", path.display()))),
        };
        let mut record = JobRecord::from_json(&text).map_err(|e| match e {
            JobError::Corrupt { reason, .. } => {
                JobError::Corrupt { path: path.display().to_string(), reason }
            }
            other => other,
        })?;
        if record.id != id {
            return Err(JobError::Corrupt {
                path: path.display().to_string(),
                reason: format!("file name says {id} but the record says {}", record.id),
            });
        }
        let tail = self.replay_log(&mut record)?;
        Ok((record, tail))
    }

    /// Credit every complete line of the job's lease log to `record`.
    fn replay_log(&self, record: &mut JobRecord) -> Result<LogTail, JobError> {
        let path = self.log_path(record.id);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LogTail::default()),
            Err(e) => return Err(JobError::Io(format!("read {}: {e}", path.display()))),
        };
        let full = record.frontier.full;
        let mut tail = LogTail::default();
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            let Some(n) = rest.iter().position(|&b| b == b'\n') else {
                tail.torn = true;
                break;
            };
            let (line, next) = rest.split_at(n);
            rest = next.get(1..).unwrap_or_default();
            let corrupt = |reason: String| JobError::Corrupt {
                path: path.display().to_string(),
                reason: format!("line {}: {reason}", tail.lines + 1),
            };
            let (lease, hits) = parse_lease_line(line).map_err(corrupt)?;
            if lease.is_empty() || lease.intersect(&full) != lease {
                return Err(corrupt(format!(
                    "lease [{}, +{}) is empty or escapes the job's keyspace",
                    lease.start, lease.len
                )));
            }
            if let Some(hit) = hits.iter().find(|h| h.id < lease.start || h.id >= lease.end()) {
                return Err(corrupt(format!("hit {} lies outside its lease", hit.id)));
            }
            record.credit_lease(lease, &hits);
            tail.lines += 1;
        }
        Ok(tail)
    }

    /// The identity of a job's snapshot file, or `None` when it is gone.
    pub(crate) fn stamp(&self, id: JobId) -> Result<Option<Stamp>, JobError> {
        let path = self.record_path(id);
        match fs::metadata(&path) {
            Ok(meta) => Ok(Some(Stamp::of(&meta))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(JobError::Io(format!("stat {}: {e}", path.display()))),
        }
    }

    /// Every job id present in the spool, ascending.
    pub fn ids(&self) -> Result<Vec<JobId>, JobError> {
        let mut ids: Vec<JobId> = self
            .read_dir()?
            .iter()
            .filter_map(|entry| {
                let name = entry.file_name();
                JobId::parse(name.to_str()?.strip_suffix(".json")?)
            })
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Every record in the spool, ascending by id.
    pub fn list(&self) -> Result<Vec<JobRecord>, JobError> {
        self.ids()?.into_iter().map(|id| self.load(id)).collect()
    }

    /// Apply a lifecycle transition, enforcing the state machine, and
    /// persist the result (folding the job's lease log).
    pub fn set_state(&self, id: JobId, to: JobState) -> Result<JobRecord, JobError> {
        let mut record = self.load(id)?;
        if !record.state.can_transition(to) {
            return Err(JobError::BadTransition { from: record.state, to });
        }
        record.state = to;
        self.save(&record)?;
        Ok(record)
    }

    /// Pause a runnable job.
    pub fn pause(&self, id: JobId) -> Result<JobRecord, JobError> {
        self.set_state(id, JobState::Paused)
    }

    /// Resume a paused job (back to the runnable pool).
    pub fn resume(&self, id: JobId) -> Result<JobRecord, JobError> {
        self.set_state(id, JobState::Running)
    }

    /// Cancel a job (terminal).
    pub fn cancel(&self, id: JobId) -> Result<JobRecord, JobError> {
        self.set_state(id, JobState::Cancelled)
    }
}

fn remove_if_present(path: &Path) -> Result<(), JobError> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(JobError::Io(format!("remove {}: {e}", path.display())))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use eks_hashes::HashAlgo;
    use eks_keyspace::Order;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            algo: HashAlgo::Md5,
            digest: HashAlgo::Md5.hash(b"cab"),
            charset: (b'a'..=b'z').collect(),
            min_len: 1,
            max_len: 3,
            order: Order::FirstCharFastest,
            priority: 1,
            first_hit_only: false,
        }
    }

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eks-jobs-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_allocates_dense_ids_and_round_trips() {
        let dir = tmp_spool("submit");
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(spec("a")).unwrap();
        let b = store.submit(spec("b")).unwrap();
        assert_eq!((a.id, b.id), (JobId(1), JobId(2)));
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0], a);
        assert_eq!(listed[1], b);
        // A second handle on the same directory sees the same jobs and
        // continues the id sequence.
        let reopened = JobStore::open(&dir).unwrap();
        let c = reopened.submit(spec("c")).unwrap();
        assert_eq!(c.id, JobId(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifecycle_transitions_are_enforced() {
        let dir = tmp_spool("lifecycle");
        let store = JobStore::open(&dir).unwrap();
        let job = store.submit(spec("a")).unwrap();
        store.pause(job.id).unwrap();
        assert_eq!(store.load(job.id).unwrap().state, JobState::Paused);
        store.resume(job.id).unwrap();
        store.cancel(job.id).unwrap();
        // Terminal: neither pause nor resume may leave it.
        assert!(matches!(store.pause(job.id), Err(JobError::BadTransition { .. })));
        assert!(matches!(store.resume(job.id), Err(JobError::BadTransition { .. })));
        // Cancelling again is idempotent.
        store.cancel(job.id).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_records_are_friendly_errors() {
        let dir = tmp_spool("corrupt");
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.load(JobId(9)), Err(JobError::NotFound(JobId(9))));
        fs::write(dir.join("job-5.json"), "{truncated").unwrap();
        match store.load(JobId(5)) {
            Err(JobError::Corrupt { path, .. }) => assert!(path.contains("job-5.json")),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        // The broken file must not prevent listing errors from naming it.
        assert!(store.list().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_files_are_removed_on_open() {
        let dir = tmp_spool("stale");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("job-3.json.tmp");
        let fresh = dir.join("job-4.json.tmp");
        fs::write(&stale, "{half a rec").unwrap();
        fs::write(&fresh, "{half a rec").unwrap();
        let old = SystemTime::now() - 2 * STALE_TEMP_AGE;
        fs::File::options().write(true).open(&stale).unwrap().set_modified(old).unwrap();
        let store = JobStore::open(&dir).unwrap();
        assert!(!stale.exists(), "a crash's temp file is removed");
        assert!(fresh.exists(), "a temp file a live writer may still rename is kept");
        assert!(store.ids().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_lines_outside_the_job_name_the_log() {
        let dir = tmp_spool("badlog");
        let store = JobStore::open(&dir).unwrap();
        let job = store.submit(spec("a")).unwrap();
        let log = dir.join("job-1.log");
        for bad in [
            format!("{}\n", crate::job::lease_line(&Interval::new(18_000, 1_000), &[])),
            format!(
                "{}\n",
                crate::job::lease_line(&Interval::new(0, 20), &[JobHit { id: 25, key: vec![] }])
            ),
        ] {
            fs::write(&log, bad).unwrap();
            match store.load(job.id) {
                Err(JobError::Corrupt { path, .. }) => assert!(path.ends_with("job-1.log"), "{path}"),
                other => panic!("expected a corrupt log, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_no_partial_files_linger() {
        let dir = tmp_spool("atomic");
        let store = JobStore::open(&dir).unwrap();
        let job = store.submit(spec("a")).unwrap();
        store.save(&job).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }
}

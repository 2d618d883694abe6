//! Append-only trial journal: every evaluated point and its outcome, one
//! line per trial, so a long exploration can be killed and resumed.
//!
//! Resuming replays the recorded trials into the TPE model (they count
//! against the evaluation budget) instead of re-running the expensive
//! objective. Unlike the placement checkpoint journal, a resumed
//! exploration is *not* bit-identical to an uninterrupted one — the
//! sampler's random stream restarts — but it is deterministic given the
//! journal contents, and no evaluation is ever repeated.
//!
//! ```text
//! puffer_exploration 1 <dim>
//! trial ok <y> <x0> ... <xdim-1>
//! trial failed <x0> ... <xdim-1> | <failure message>
//! ```
//!
//! A final line torn by a crash mid-write is dropped on load; malformed
//! text anywhere else is an error.

use crate::error::ExploreError;
use crate::smbo::TrialOutcome;
use puffer_budget::fsx;
use std::fmt::Write as _;
use std::path::Path;

/// Journal format version written by this build.
pub const JOURNAL_VERSION: u32 = 1;

/// An open, append-mode trial journal.
///
/// Writes go through [`fsx::AppendSink`] with a per-record fsync
/// ([`fsx::FsyncPolicy::EveryRecord`]): a trial is minutes of work, so a
/// recorded outcome must survive a crash the instant `record` returns.
#[derive(Debug)]
pub struct ExplorationJournal {
    sink: fsx::AppendSink,
}

/// One recorded trial: the evaluated point and what became of it.
pub type RecordedTrial = (Vec<f64>, TrialOutcome);

impl ExplorationJournal {
    /// Opens `path` for appending, creating it (with a header) when new,
    /// and returns the journal together with the trials already recorded —
    /// the resume set, empty for a fresh file.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Journal`] when the file cannot be opened, is not a
    /// trial journal, or records a different dimensionality than `dim`.
    pub fn open(
        path: &Path,
        dim: usize,
    ) -> Result<(Self, Vec<RecordedTrial>), ExploreError> {
        let prior = if path.exists() {
            load(path, dim)?
        } else {
            Vec::new()
        };
        let empty = std::fs::metadata(path).map(|m| m.len() == 0).unwrap_or(true);
        let mut sink = fsx::AppendSink::append(path, fsx::FsyncPolicy::EveryRecord)
            .map_err(|e| ExploreError::Journal(format!("cannot open {}: {e}", path.display())))?;
        if empty {
            sink.write_record(
                format!("puffer_exploration {JOURNAL_VERSION} {dim}\n").as_bytes(),
            )
            .map_err(|e| ExploreError::Journal(format!("cannot write header: {e}")))?;
        }
        Ok((ExplorationJournal { sink }, prior))
    }

    /// Appends one trial as a single fsynced write, so a kill loses at
    /// most the line being written (which `open` then drops as torn).
    ///
    /// # Errors
    ///
    /// [`ExploreError::Journal`] when the write fails.
    pub fn record(&mut self, x: &[f64], outcome: &TrialOutcome) -> Result<(), ExploreError> {
        let mut line = String::from("trial");
        match outcome {
            TrialOutcome::Ok(y) => {
                let _ = write!(line, " ok {y:?}");
                for v in x {
                    let _ = write!(line, " {v:?}");
                }
            }
            TrialOutcome::Failed(msg) => {
                line.push_str(" failed");
                for v in x {
                    let _ = write!(line, " {v:?}");
                }
                // The message goes last, after a separator, so it may
                // contain spaces; newlines are flattened to keep the
                // one-line-per-trial invariant.
                let _ = write!(line, " | {}", msg.replace('\n', " "));
            }
        }
        line.push('\n');
        self.sink
            .write_record(line.as_bytes())
            .map_err(|e| ExploreError::Journal(format!("cannot append trial: {e}")))
    }
}

/// Reads all trials from a journal file (see the module docs for the
/// torn-tail rule).
fn load(path: &Path, dim: usize) -> Result<Vec<RecordedTrial>, ExploreError> {
    // The shared torn-tail rule (fsx): a final line a kill cut short is
    // dropped before validation; everything else must parse.
    let journal = fsx::read_journal_tail_tolerant(path)
        .map_err(|e| ExploreError::Journal(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = journal.records().iter().map(String::as_str).enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ExploreError::Journal("empty journal".into()))?;
    let mut it = header.split_whitespace();
    if it.next() != Some("puffer_exploration") {
        return Err(ExploreError::Journal("not an exploration journal".into()));
    }
    let version: u32 = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ExploreError::Journal("bad header version".into()))?;
    if version != JOURNAL_VERSION {
        return Err(ExploreError::Journal(format!(
            "unsupported journal version {version}"
        )));
    }
    let journal_dim: usize = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ExploreError::Journal("bad header dimension".into()))?;
    if journal_dim != dim {
        return Err(ExploreError::Journal(format!(
            "journal is {journal_dim}-dimensional, space is {dim}-dimensional"
        )));
    }

    let mut trials = Vec::with_capacity(journal.len().saturating_sub(1));
    for (line_no, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_trial(line, dim) {
            Some(t) => trials.push(t),
            None => {
                return Err(ExploreError::Journal(format!(
                    "malformed trial at line {}",
                    line_no + 1
                )))
            }
        }
    }
    Ok(trials)
}

fn parse_trial(line: &str, dim: usize) -> Option<RecordedTrial> {
    let rest = line.strip_prefix("trial ")?;
    if let Some(rest) = rest.strip_prefix("ok ") {
        let fields: Vec<&str> = rest.split_whitespace().collect();
        if fields.len() != dim + 1 {
            return None;
        }
        let y: f64 = fields[0].parse().ok()?;
        let x = parse_floats(&fields[1..])?;
        y.is_finite().then_some((x, TrialOutcome::Ok(y)))
    } else if let Some(rest) = rest.strip_prefix("failed ") {
        let (coords, msg) = match rest.split_once(" | ") {
            Some((c, m)) => (c, m.to_string()),
            None => (rest, String::new()),
        };
        let fields: Vec<&str> = coords.split_whitespace().collect();
        if fields.len() != dim {
            return None;
        }
        let x = parse_floats(&fields)?;
        Some((x, TrialOutcome::Failed(msg)))
    } else {
        None
    }
}

fn parse_floats(fields: &[&str]) -> Option<Vec<f64>> {
    fields.iter().map(|f| f.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("puffer-explore-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn record_and_reload_roundtrip() {
        let path = tmp("roundtrip.ej");
        let (mut j, prior) = ExplorationJournal::open(&path, 2).unwrap();
        assert!(prior.is_empty());
        j.record(&[1.5, -2.0], &TrialOutcome::Ok(0.25)).unwrap();
        j.record(
            &[0.0, 3.0],
            &TrialOutcome::Failed("boom: index 7 out of range".into()),
        )
        .unwrap();
        drop(j);
        let (_, replay) = ExplorationJournal::open(&path, 2).unwrap();
        assert_eq!(
            replay,
            vec![
                (vec![1.5, -2.0], TrialOutcome::Ok(0.25)),
                (
                    vec![0.0, 3.0],
                    TrialOutcome::Failed("boom: index 7 out of range".into())
                ),
            ]
        );
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn.ej");
        let (mut j, _) = ExplorationJournal::open(&path, 1).unwrap();
        j.record(&[1.0], &TrialOutcome::Ok(2.0)).unwrap();
        drop(j);
        // Emulate a kill mid-write: an incomplete trailing line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("trial ok 3.0");
        text.truncate(text.len() - 4); // "trial ok" — no value, no coords
        std::fs::write(&path, text).unwrap();
        let (_, replay) = ExplorationJournal::open(&path, 1).unwrap();
        assert_eq!(replay.len(), 1);
    }

    #[test]
    fn malformed_middle_line_is_an_error() {
        let path = tmp("midcorrupt.ej");
        std::fs::write(
            &path,
            "puffer_exploration 1 1\ntrial ok NOTANUMBER 1.0\ntrial ok 2.0 1.0\n",
        )
        .unwrap();
        let err = ExplorationJournal::open(&path, 1).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let path = tmp("dim.ej");
        let (mut j, _) = ExplorationJournal::open(&path, 2).unwrap();
        j.record(&[1.0, 2.0], &TrialOutcome::Ok(1.0)).unwrap();
        drop(j);
        let err = ExplorationJournal::open(&path, 3).unwrap_err();
        assert!(err.to_string().contains("dimensional"), "{err}");
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = tmp("njf.ej");
        std::fs::write(&path, "hello\n").unwrap();
        let err = ExplorationJournal::open(&path, 1).unwrap_err();
        assert!(err.to_string().contains("not an exploration"), "{err}");
    }
}

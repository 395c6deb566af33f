//! The journal-backed [`CampaignSink`]: durable per-sweep checkpoints
//! with snapshot+delta compaction.
//!
//! One journal holds one campaign. The first frame is the campaign meta
//! (name, seed, population and timeline sizes, row shape); every
//! completed sweep appends one checkpoint frame. Compaction folds the
//! accumulated deltas into a single snapshot frame and rewrites the
//! journal as `meta ‖ snapshot`, bounding replay cost and file size for
//! long campaigns.
//!
//! Resuming is a fold: start from the snapshot (or fresh state), apply
//! each sweep delta in order, and hand the simulator the resulting
//! [`ResumeState`]. A torn tail costs at most the sweeps after the last
//! durable frame — exactly the crash-recovery contract the simulators'
//! `run_recoverable` entry points are written against.

use super::codec::{self, Dec, JournalRow};
use super::{Backend, Frame, Journal, RecoveryReport};
use crate::storage::{RetryPolicy, Storage, TieredJournal};
use fenrir_core::error::{Error, Result};
use fenrir_measure::{CampaignSink, ResumeState, SweepCheckpoint};
use std::path::Path;
use std::sync::Arc;

/// Frame kind: campaign metadata (always the first frame).
pub const KIND_CAMPAIGN_META: u16 = 0x10;
/// Frame kind: one completed sweep's checkpoint.
pub const KIND_SWEEP: u16 = 0x11;
/// Frame kind: folded snapshot of every completed sweep (compaction).
pub const KIND_SNAPSHOT: u16 = 0x12;

/// Identity of the campaign a journal belongs to. Resuming checks the
/// stored meta against the caller's, so a journal cannot be silently
/// replayed into a different campaign (wrong seed, wrong population,
/// wrong simulator family) and produce plausible-looking garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignMeta {
    /// Campaign name (e.g. "broot-verfploeter").
    pub campaign: String,
    /// The campaign's RNG seed.
    pub seed: u64,
    /// Probe targets per sweep.
    pub targets: usize,
    /// Total observation instants in the timeline.
    pub observations: usize,
}

impl CampaignMeta {
    fn encode<Row: JournalRow>(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_str(&mut out, &self.campaign);
        codec::put_u64(&mut out, self.seed);
        codec::put_usize(&mut out, self.targets);
        codec::put_usize(&mut out, self.observations);
        codec::put_u16(&mut out, Row::TAG);
        out
    }

    fn decode(payload: &[u8]) -> Result<(Self, u16)> {
        let mut d = Dec::new(payload, "campaign meta");
        let meta = CampaignMeta {
            campaign: d.str()?,
            seed: d.u64()?,
            targets: d.usize()?,
            observations: d.usize()?,
        };
        let tag = d.u16()?;
        d.finish()?;
        Ok((meta, tag))
    }
}

/// A [`CampaignSink`] that journals every sweep before acknowledging it.
#[derive(Debug)]
pub struct JournalSink<Row> {
    journal: Backend,
    meta: CampaignMeta,
    state: ResumeState<Row>,
    deltas: usize,
    compact_every: Option<usize>,
    report: RecoveryReport,
}

impl<Row: JournalRow> JournalSink<Row> {
    /// A fresh in-memory sink (tests, dry runs).
    pub fn in_memory(meta: CampaignMeta) -> Result<Self> {
        Self::attach(
            Backend::Flat(Journal::in_memory()),
            Vec::new(),
            RecoveryReport::default(),
            meta,
        )
    }

    /// Open (or create) a file-backed sink, recovering prior progress.
    pub fn open(path: &Path, meta: CampaignMeta) -> Result<Self> {
        let (journal, frames, report) = Journal::open(path)?;
        Self::attach(Backend::Flat(journal), frames, report, meta)
    }

    /// Open (or create) a tiered sink: the hot tail lives at `hot_path`,
    /// sealed epochs live under `prefix` in the object tier, and
    /// [`Self::compact`] seals into the tier instead of rewriting the
    /// local file. Recovery resumes from the current epoch plus the hot
    /// deltas — including finishing a seal that crashed after its
    /// commit point (see [`TieredJournal`]).
    pub fn open_tiered(
        hot_path: &Path,
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
        meta: CampaignMeta,
    ) -> Result<Self> {
        let (tiered, frames, report) = TieredJournal::open(hot_path, store, prefix, retry)?;
        Self::attach(Backend::Tiered(Box::new(tiered)), frames, report, meta)
    }

    /// Adopt raw journal bytes (e.g. for corruption testing).
    pub fn from_bytes(bytes: Vec<u8>, meta: CampaignMeta) -> Result<Self> {
        let (journal, frames, report) = Journal::from_bytes(bytes)?;
        Self::attach(Backend::Flat(journal), frames, report, meta)
    }

    fn attach(
        mut journal: Backend,
        frames: Vec<Frame>,
        report: RecoveryReport,
        meta: CampaignMeta,
    ) -> Result<Self> {
        let mut state = ResumeState::fresh(meta.targets);
        let mut deltas = 0usize;
        if frames.is_empty() {
            journal.append(KIND_CAMPAIGN_META, &meta.encode::<Row>())?;
        } else {
            let first = &frames[0];
            if first.kind != KIND_CAMPAIGN_META {
                return Err(Error::Corrupted {
                    what: "campaign journal",
                    offset: 0,
                    message: format!("first frame has kind {:#06x}, expected meta", first.kind),
                });
            }
            let (stored, tag) = CampaignMeta::decode(&first.payload)?;
            if stored != meta || tag != Row::TAG {
                return Err(Error::Config {
                    name: "journal",
                    message: format!(
                        "journal belongs to campaign {:?} (seed {}, {}×{}, row tag {}), \
                         caller asked for {:?} (seed {}, {}×{}, row tag {})",
                        stored.campaign,
                        stored.seed,
                        stored.targets,
                        stored.observations,
                        tag,
                        meta.campaign,
                        meta.seed,
                        meta.targets,
                        meta.observations,
                        Row::TAG,
                    ),
                });
            }
            for frame in &frames[1..] {
                match frame.kind {
                    KIND_SWEEP => {
                        let mut d = Dec::new(&frame.payload, "sweep checkpoint");
                        let ck = codec::read_checkpoint::<Row>(&mut d)?;
                        d.finish()?;
                        state.apply(ck)?;
                        deltas += 1;
                    }
                    KIND_SNAPSHOT => {
                        let mut d = Dec::new(&frame.payload, "campaign snapshot");
                        state = codec::read_resume::<Row>(&mut d)?;
                        d.finish()?;
                        deltas = 0;
                    }
                    kind => {
                        return Err(Error::Corrupted {
                            what: "campaign journal",
                            offset: 0,
                            message: format!("unknown frame kind {kind:#06x}"),
                        });
                    }
                }
            }
            if state.consecutive_failures.len() != meta.targets {
                return Err(Error::Corrupted {
                    what: "campaign journal",
                    offset: 0,
                    message: format!(
                        "recovered counters cover {} targets, campaign has {}",
                        state.consecutive_failures.len(),
                        meta.targets
                    ),
                });
            }
        }
        Ok(JournalSink {
            journal,
            meta,
            state,
            deltas,
            compact_every: None,
            report,
        })
    }

    /// Compact automatically once `n` sweep deltas accumulate after the
    /// last snapshot.
    pub fn compact_every(mut self, n: usize) -> Self {
        self.compact_every = Some(n.max(1));
        self
    }

    /// Fold all deltas into one snapshot frame and replace the logical
    /// journal content with `meta ‖ snapshot` — rewriting the file in
    /// place on a flat backend, sealing a new epoch into the object
    /// tier on a tiered one. On error (including retry exhaustion
    /// against a throttling tier) the previous content and the delta
    /// counter are untouched, so compaction simply retries later.
    pub fn compact(&mut self) -> Result<()> {
        let mut snap = Vec::new();
        codec::put_resume(&mut snap, &self.state);
        self.journal.replace_all(&[
            (KIND_CAMPAIGN_META, self.meta.encode::<Row>()),
            (KIND_SNAPSHOT, snap),
        ])?;
        self.deltas = 0;
        Ok(())
    }

    /// The tiered backend, when this sink was opened with
    /// [`Self::open_tiered`].
    pub fn tier(&self) -> Option<&TieredJournal> {
        self.journal.tier()
    }

    /// What recovery found when this sink opened its journal.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The folded durable state.
    pub fn state(&self) -> &ResumeState<Row> {
        &self.state
    }

    /// The locally durable journal bytes: everything for a flat sink,
    /// only the hot tail for a tiered one.
    pub fn bytes(&self) -> &[u8] {
        self.journal.bytes()
    }
}

impl<Row: JournalRow> CampaignSink<Row> for JournalSink<Row> {
    fn resume(&mut self) -> Result<Option<ResumeState<Row>>> {
        if self.state.next_sweep == 0 {
            Ok(None)
        } else {
            Ok(Some(self.state.clone()))
        }
    }

    fn record(&mut self, ck: SweepCheckpoint<Row>) -> Result<()> {
        let mut payload = Vec::new();
        codec::put_checkpoint(&mut payload, &ck);
        // Durable first: the frame is on disk before the in-memory fold,
        // so a crash between the two re-derives the fold on resume.
        self.journal.append(KIND_SWEEP, &payload)?;
        self.state.apply(ck)?;
        self.deltas += 1;
        if self.compact_every.is_some_and(|n| self.deltas >= n) {
            self.compact()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::health::CampaignHealth;
    use fenrir_core::time::Timestamp;

    fn meta() -> CampaignMeta {
        CampaignMeta {
            campaign: "test".into(),
            seed: 7,
            targets: 3,
            observations: 10,
        }
    }

    fn ck(sweep: usize) -> SweepCheckpoint<Vec<u16>> {
        SweepCheckpoint {
            sweep,
            row: vec![sweep as u16; 3],
            health: CampaignHealth::new(Timestamp::from_days(sweep as i64), 3),
            consecutive_failures: vec![sweep; 3],
            quarantined_until: vec![0; 3],
            campaign_rng_pos: 16 * sweep as u64,
            fault_rng_pos: 0,
        }
    }

    #[test]
    fn sweeps_survive_a_bytes_round_trip() {
        let mut sink = JournalSink::in_memory(meta()).unwrap();
        assert!(sink.resume().unwrap().is_none());
        for s in 0..4 {
            sink.record(ck(s)).unwrap();
        }
        let bytes = sink.bytes().to_vec();
        let mut reopened = JournalSink::<Vec<u16>>::from_bytes(bytes, meta()).unwrap();
        let rs = reopened.resume().unwrap().unwrap();
        assert_eq!(rs, *sink.state());
        assert_eq!(rs.next_sweep, 4);
        assert_eq!(rs.rows[2], vec![2u16; 3]);
    }

    #[test]
    fn torn_tail_resumes_from_the_last_durable_sweep() {
        let mut sink = JournalSink::in_memory(meta()).unwrap();
        for s in 0..4 {
            sink.record(ck(s)).unwrap();
        }
        let mut bytes = sink.bytes().to_vec();
        bytes.truncate(bytes.len() - 5); // tear the sweep-3 frame
        let reopened = JournalSink::<Vec<u16>>::from_bytes(bytes, meta()).unwrap();
        assert_eq!(reopened.state().next_sweep, 3);
        assert!(!reopened.recovery_report().is_clean());
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_journal() {
        let mut sink = JournalSink::in_memory(meta()).unwrap().compact_every(3);
        for s in 0..7 {
            sink.record(ck(s)).unwrap();
        }
        // 7 sweeps with compaction at every 3rd: meta + snapshot + 1 delta.
        let (frames, _) = Journal::decode(sink.bytes()).unwrap();
        assert_eq!(frames.len(), 3);
        let reopened = JournalSink::<Vec<u16>>::from_bytes(sink.bytes().to_vec(), meta()).unwrap();
        assert_eq!(reopened.state(), sink.state());
        assert_eq!(reopened.state().next_sweep, 7);
    }

    #[test]
    fn mismatched_campaign_meta_is_refused() {
        let mut sink = JournalSink::in_memory(meta()).unwrap();
        sink.record(ck(0)).unwrap();
        let bytes = sink.bytes().to_vec();
        let mut other = meta();
        other.seed = 8;
        assert!(matches!(
            JournalSink::<Vec<u16>>::from_bytes(bytes.clone(), other),
            Err(Error::Config { .. })
        ));
        // Same meta but a different simulator row shape is also refused.
        assert!(matches!(
            JournalSink::<Vec<Vec<u16>>>::from_bytes(bytes, meta()),
            Err(Error::Config { .. })
        ));
    }
}

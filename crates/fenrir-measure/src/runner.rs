//! Retrying campaign executor shared by every measurement simulator.
//!
//! A campaign is a sequence of *sweeps* (one per observation time), each
//! probing every target once. [`CampaignRunner`] wraps that loop with the
//! operational machinery real measurement platforms need:
//!
//! * per-probe **retries** with capped exponential backoff in simulated
//!   time;
//! * per-sweep **probe budgets** and **deadlines** (simulated
//!   milliseconds) after which remaining targets go unmeasured;
//! * **quarantine** of persistently failing targets for a few sweeps, so
//!   dead targets stop eating budget;
//! * one [`CampaignHealth`] record per sweep — coverage, retries,
//!   quarantines, losses, decode failures — which downstream change
//!   detection consumes to gate alarms on data quality;
//! * application of an optional [`FaultPlan`], including re-normalising
//!   clock-skewed observation times back to the strict ordering
//!   `VectorSeries` requires.
//!
//! With the default [`RunnerConfig`] and no fault plan, the runner calls
//! each probe closure exactly once and adds no random draws, so legacy
//! `run()` entry points produce byte-identical series to the pre-runner
//! code.

use crate::checkpoint::{ResumeState, SweepCheckpoint};
use crate::fault::{FaultPlan, FaultSession};
use fenrir_core::backoff;
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::time::Timestamp;
use std::time::Duration;

/// Execution policy for a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerConfig {
    /// Retries per target after a failed attempt (0 = single attempt).
    pub max_retries: usize,
    /// Backoff before retry `n` is `base * 2^(n-1)`, capped below.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff interval.
    pub backoff_cap_ms: u64,
    /// Cost of one probe attempt on the sweep's simulated clock.
    pub attempt_cost_ms: u64,
    /// Maximum attempts per sweep (`None` = unlimited).
    pub probe_budget: Option<usize>,
    /// Sweep deadline on the simulated clock (`None` = unlimited).
    pub sweep_deadline_ms: Option<u64>,
    /// Quarantine a target after this many consecutive failed sweeps
    /// (`None` = never quarantine).
    pub quarantine_after: Option<usize>,
    /// How many sweeps a quarantined target sits out.
    pub quarantine_sweeps: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            max_retries: 0,
            backoff_base_ms: 500,
            backoff_cap_ms: 8_000,
            attempt_cost_ms: 1,
            probe_budget: None,
            sweep_deadline_ms: None,
            quarantine_after: None,
            quarantine_sweeps: 2,
        }
    }
}

impl RunnerConfig {
    /// Validate the configuration. Violations are configuration errors
    /// ([`fenrir_core::error::Error::Config`]), raised eagerly by
    /// [`CampaignRunner::new`] before any sweep runs.
    pub fn validate(&self) -> Result<()> {
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(Error::Config {
                name: "backoff_cap_ms",
                message: format!(
                    "cap {} below base {}",
                    self.backoff_cap_ms, self.backoff_base_ms
                ),
            });
        }
        if self.probe_budget == Some(0) {
            return Err(Error::Config {
                name: "probe_budget",
                message: "a zero budget can never probe anything".into(),
            });
        }
        if self.quarantine_after == Some(0) {
            return Err(Error::Config {
                name: "quarantine_after",
                message: "must be at least 1 failed sweep".into(),
            });
        }
        Ok(())
    }
}

/// What a probe closure observed for one attempt.
pub enum ProbeReply<T> {
    /// A usable classification (retries stop).
    Response(T),
    /// Nothing came back (retriable).
    NoResponse,
    /// A reply arrived but failed wire decoding or did not match the
    /// probe (retriable; counted in health).
    DecodeFailure,
}

/// Final verdict for one target in one sweep.
pub enum ProbeOutcome<T> {
    /// The target was classified.
    Response(T),
    /// The target stays Unknown this sweep.
    Unknown,
}

impl<T> ProbeOutcome<T> {
    /// The classification, if any.
    pub fn into_option(self) -> Option<T> {
        match self {
            ProbeOutcome::Response(v) => Some(v),
            ProbeOutcome::Unknown => None,
        }
    }
}

/// Handle passed to probe closures for wire-level fault injection.
///
/// With no active fault session, [`WireFault::corrupt`] is a no-op, so
/// closures can apply it unconditionally.
pub struct WireFault<'a> {
    session: Option<&'a mut FaultSession>,
    decode_failures: &'a mut usize,
}

impl WireFault<'_> {
    /// Possibly corrupt an encoded payload in place.
    pub fn corrupt(&mut self, bytes: &mut Vec<u8>) -> bool {
        match &mut self.session {
            Some(s) => s.corrupt(bytes),
            None => false,
        }
    }

    /// Record a decode failure observed *inside* a response that still
    /// classified (e.g. one hop of an otherwise-usable traceroute).
    pub fn note_decode_failure(&mut self) {
        *self.decode_failures += 1;
    }
}

/// Drives a campaign's sweeps: retries, budgets, quarantine, fault
/// application, and health accounting.
#[derive(Debug)]
pub struct CampaignRunner {
    cfg: RunnerConfig,
    session: Option<FaultSession>,
    consecutive_failures: Vec<usize>,
    /// Sweep index before which each target is quarantined (exclusive).
    quarantined_until: Vec<usize>,
    /// Current sweep index; `usize::MAX` before the first `begin_sweep`.
    obs: usize,
    sweep_clock_ms: u64,
    sweep_attempts: usize,
    health: Vec<CampaignHealth>,
}

impl CampaignRunner {
    /// Build a runner for `targets` targets over `observations` sweeps.
    pub fn new(
        cfg: &RunnerConfig,
        plan: Option<&FaultPlan>,
        targets: usize,
        observations: usize,
    ) -> Result<Self> {
        cfg.validate()?;
        let session = match plan {
            Some(p) => Some(p.session(targets, observations)?),
            None => None,
        };
        Ok(CampaignRunner {
            cfg: *cfg,
            session,
            consecutive_failures: vec![0; targets],
            quarantined_until: vec![0; targets],
            obs: usize::MAX,
            sweep_clock_ms: 0,
            sweep_attempts: 0,
            health: Vec::with_capacity(observations),
        })
    }

    /// Rebuild a runner mid-campaign from durable checkpoint state, so
    /// the next `begin_sweep` opens sweep `resume.next_sweep` and every
    /// cross-sweep mechanism (quarantine horizons, consecutive-failure
    /// streaks, the fault RNG stream) continues exactly where the killed
    /// run left it.
    pub fn restore<Row>(
        cfg: &RunnerConfig,
        plan: Option<&FaultPlan>,
        targets: usize,
        observations: usize,
        resume: &ResumeState<Row>,
    ) -> Result<Self> {
        let mut runner = CampaignRunner::new(cfg, plan, targets, observations)?;
        if resume.consecutive_failures.len() != targets || resume.quarantined_until.len() != targets
        {
            return Err(Error::Config {
                name: "resume",
                message: format!(
                    "checkpoint covers {} targets, campaign has {}",
                    resume.consecutive_failures.len(),
                    targets
                ),
            });
        }
        if resume.next_sweep > observations || resume.health.len() != resume.next_sweep {
            return Err(Error::Config {
                name: "resume",
                message: format!(
                    "checkpoint claims {} completed sweeps ({} health records) of {}",
                    resume.next_sweep,
                    resume.health.len(),
                    observations
                ),
            });
        }
        runner.consecutive_failures = resume.consecutive_failures.clone();
        runner.quarantined_until = resume.quarantined_until.clone();
        runner.health = resume.health.clone();
        runner.health.reserve(observations - resume.next_sweep);
        runner.obs = resume.next_sweep.wrapping_sub(1);
        if let Some(s) = &mut runner.session {
            s.set_rng_word_pos(resume.fault_rng_pos);
        }
        Ok(runner)
    }

    /// Package the just-finished sweep as a durable checkpoint.
    /// `campaign_rng_pos` is the simulator RNG's word position after the
    /// sweep ([`fenrir_core::rng::ChaCha8Rng::get_word_pos`]).
    pub fn checkpoint<Row>(&self, row: Row, campaign_rng_pos: u64) -> SweepCheckpoint<Row> {
        SweepCheckpoint {
            sweep: self.obs,
            row,
            health: self
                .health
                .last()
                .cloned()
                .expect("begin_sweep before checkpoint"),
            consecutive_failures: self.consecutive_failures.clone(),
            quarantined_until: self.quarantined_until.clone(),
            campaign_rng_pos,
            fault_rng_pos: self.fault_rng_pos(),
        }
    }

    /// Word position of the fault-session RNG (0 without a fault plan).
    pub fn fault_rng_pos(&self) -> u64 {
        self.session.as_ref().map_or(0, |s| s.rng_word_pos())
    }

    /// Fold `n` detected-and-repaired incremental divergences into the
    /// open sweep's health record.
    pub fn note_divergences(&mut self, n: usize) {
        if n > 0 {
            self.health.last_mut().expect("sweep open").divergences += n;
        }
    }

    /// Whether the fault plan schedules an injected routing divergence
    /// for the sweep currently in progress.
    pub fn divergence_scheduled(&self) -> bool {
        self.session
            .as_ref()
            .is_some_and(|s| s.plan().divergence_at == Some(self.obs))
    }

    /// Start the next sweep at nominal time `time`.
    pub fn begin_sweep(&mut self, time: Timestamp) {
        self.obs = self.obs.wrapping_add(1);
        self.sweep_clock_ms = 0;
        self.sweep_attempts = 0;
        self.health
            .push(CampaignHealth::new(time, self.consecutive_failures.len()));
    }

    /// Health record of the sweep in progress.
    pub fn current_health(&self) -> &CampaignHealth {
        self.health
            .last()
            .expect("begin_sweep before current_health")
    }

    /// Probe one target, retrying per config. The closure performs one
    /// attempt — drawing from the *campaign's* RNG exactly as the
    /// fault-free code would — and reports what came back.
    pub fn probe<T>(
        &mut self,
        target: usize,
        mut attempt: impl FnMut(&mut WireFault<'_>) -> ProbeReply<T>,
    ) -> ProbeOutcome<T> {
        let obs = self.obs;
        debug_assert!(obs != usize::MAX, "begin_sweep before probe");
        if self.quarantined_until[target] > obs {
            self.health.last_mut().expect("sweep open").quarantined += 1;
            return ProbeOutcome::Unknown;
        }
        if let Some(s) = &self.session {
            if s.vp_absent(target, obs) {
                self.health.last_mut().expect("sweep open").churned_out += 1;
                return ProbeOutcome::Unknown;
            }
        }

        let max_attempts = self.cfg.max_retries + 1;
        let mut made = 0usize;
        let mut classified = None;
        while made < max_attempts {
            if let Some(budget) = self.cfg.probe_budget {
                if self.sweep_attempts >= budget {
                    self.health.last_mut().expect("sweep open").budget_exhausted = true;
                    // Runner-inflicted: does not count against the target.
                    return ProbeOutcome::Unknown;
                }
            }
            if let Some(deadline) = self.cfg.sweep_deadline_ms {
                if self.sweep_clock_ms >= deadline {
                    self.health
                        .last_mut()
                        .expect("sweep open")
                        .deadline_exceeded = true;
                    return ProbeOutcome::Unknown;
                }
            }
            if made > 0 {
                let wait = backoff::delay(
                    Duration::from_millis(self.cfg.backoff_base_ms),
                    Duration::from_millis(self.cfg.backoff_cap_ms),
                    u32::try_from(made).unwrap_or(u32::MAX),
                    None,
                );
                self.sweep_clock_ms += wait.as_millis() as u64;
                self.health.last_mut().expect("sweep open").retries += 1;
            }
            made += 1;
            self.sweep_attempts += 1;
            self.sweep_clock_ms += self.cfg.attempt_cost_ms;
            self.health.last_mut().expect("sweep open").attempts += 1;

            let lost = match &mut self.session {
                Some(s) => s.attempt_lost(target, obs),
                None => false,
            };
            let reply = if lost {
                self.health.last_mut().expect("sweep open").lost += 1;
                ProbeReply::NoResponse
            } else {
                let health = self.health.last_mut().expect("sweep open");
                let mut wire = WireFault {
                    session: self.session.as_mut(),
                    decode_failures: &mut health.decode_failures,
                };
                attempt(&mut wire)
            };
            match reply {
                ProbeReply::Response(value) => {
                    let (dup, late) = match &mut self.session {
                        Some(s) => (s.duplicated(), s.delayed()),
                        None => (false, false),
                    };
                    let health = self.health.last_mut().expect("sweep open");
                    if dup {
                        health.duplicates += 1;
                    }
                    if late {
                        // Arrived after its usefulness window: counted,
                        // then treated as a lost attempt.
                        health.late += 1;
                        continue;
                    }
                    health.responses += 1;
                    self.consecutive_failures[target] = 0;
                    classified = Some(value);
                    break;
                }
                ProbeReply::NoResponse => {}
                ProbeReply::DecodeFailure => {
                    self.health.last_mut().expect("sweep open").decode_failures += 1;
                }
            }
        }

        match classified {
            Some(value) => ProbeOutcome::Response(value),
            None => {
                self.consecutive_failures[target] += 1;
                if let Some(after) = self.cfg.quarantine_after {
                    if self.consecutive_failures[target] >= after {
                        self.quarantined_until[target] = obs + 1 + self.cfg.quarantine_sweeps;
                        self.consecutive_failures[target] = 0;
                    }
                }
                ProbeOutcome::Unknown
            }
        }
    }

    /// Apply the fault plan's adversary (if any) to the sweep's
    /// assembled catchment-code row, in place. Must be called *after*
    /// the probe loop (so honest health accounting is already done) and
    /// *before* the row is recorded. `history(lag, target)` must return
    /// the code the campaign *recorded* `lag` sweeps ago (`None` before
    /// the campaign start) so replay-stale lies survive checkpoint
    /// resume bit-identically. Tampered cells are counted in the
    /// sweep's [`CampaignHealth::spoofed`]; they never count as
    /// responses, so coverage stays honest.
    pub fn tamper_codes(&mut self, row: &mut [u16], history: &dyn Fn(usize, usize) -> Option<u16>) {
        let obs = self.obs;
        let Some(adv) = self.session.as_ref().and_then(|s| s.adversary()) else {
            return;
        };
        let t = adv.apply_code_row(obs, row, history);
        self.health.last_mut().expect("sweep open").spoofed += t.lied + t.mirrored + t.spoofed;
    }

    /// Latency analogue of [`tamper_codes`](Self::tamper_codes): apply
    /// the adversary to a row of RTT samples.
    pub fn tamper_latency(
        &mut self,
        samples: &mut [Option<f64>],
        history: &dyn Fn(usize, usize) -> Option<Option<f64>>,
    ) {
        let obs = self.obs;
        let Some(adv) = self.session.as_ref().and_then(|s| s.adversary()) else {
            return;
        };
        let t = adv.apply_latency_row(obs, samples, history);
        self.health.last_mut().expect("sweep open").spoofed += t.lied + t.mirrored + t.spoofed;
    }

    /// Finish the campaign: apply clock skew to the sweeps' nominal
    /// times, restore strict time order, and return
    /// `(order, health)` where `order[k] = (original_sweep_index,
    /// normalised_time)` gives the emission order for series vectors.
    ///
    /// Without clock skew this is the identity order with unchanged
    /// times.
    pub fn finish(self) -> (Vec<(usize, Timestamp)>, Vec<CampaignHealth>) {
        let mut stamped: Vec<(usize, i64)> = self
            .health
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let skew = self.session.as_ref().map_or(0, |s| s.skew_for(i));
                (i, h.time.as_secs() + skew)
            })
            .collect();
        stamped.sort_by_key(|&(i, secs)| (secs, i));
        let mut order = Vec::with_capacity(stamped.len());
        let mut prev = i64::MIN;
        for (i, secs) in stamped {
            // `VectorSeries::push` requires strictly increasing times:
            // collapse ties and inversions left by the skew to +1s steps.
            let t = if prev != i64::MIN && secs <= prev {
                prev + 1
            } else {
                secs
            };
            prev = t;
            order.push((i, Timestamp::from_secs(t)));
        }
        let mut health = Vec::with_capacity(order.len());
        for &(i, t) in &order {
            let mut h = self.health[i].clone();
            h.time = t;
            health.push(h);
        }
        (order, health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BurstyLoss, ClockSkew};

    fn times(n: usize) -> Vec<Timestamp> {
        (0..n as i64).map(Timestamp::from_days).collect()
    }

    /// Run a trivial campaign where targets `>= fail_from` never answer.
    fn run_campaign(
        cfg: &RunnerConfig,
        plan: Option<&FaultPlan>,
        targets: usize,
        sweeps: usize,
        fail_from: usize,
    ) -> (Vec<Vec<Option<u16>>>, Vec<CampaignHealth>) {
        let mut runner = CampaignRunner::new(cfg, plan, targets, sweeps).unwrap();
        let mut rows = Vec::new();
        for t in times(sweeps) {
            runner.begin_sweep(t);
            let mut row = Vec::with_capacity(targets);
            for n in 0..targets {
                let outcome = runner.probe(n, |_wire| {
                    if n >= fail_from {
                        ProbeReply::NoResponse
                    } else {
                        ProbeReply::Response(n as u16)
                    }
                });
                row.push(outcome.into_option());
            }
            rows.push(row);
        }
        let (_, health) = runner.finish();
        (rows, health)
    }

    #[test]
    fn default_config_probes_each_target_once() {
        let (rows, health) = run_campaign(&RunnerConfig::default(), None, 5, 3, 5);
        assert_eq!(rows.len(), 3);
        for h in &health {
            assert_eq!(h.targets, 5);
            assert_eq!(h.responses, 5);
            assert_eq!(h.attempts, 5);
            assert_eq!(h.retries, 0);
            assert_eq!(h.coverage(), 1.0);
        }
    }

    #[test]
    fn retries_are_counted_and_capped() {
        let cfg = RunnerConfig {
            max_retries: 3,
            ..RunnerConfig::default()
        };
        let (rows, health) = run_campaign(&cfg, None, 4, 2, 2);
        // Targets 2 and 3 never answer: 1 attempt for responders, 4 for
        // failures.
        assert_eq!(health[0].attempts, 2 + 2 * 4);
        assert_eq!(health[0].retries, 2 * 3);
        assert_eq!(health[0].responses, 2);
        assert_eq!(rows[0], vec![Some(0), Some(1), None, None]);
    }

    /// Retries one never-answering target spends before a sweep
    /// deadline of `deadline_ms`, with base 100 ms, cap 350 ms and free
    /// attempts: the smallest `r` whose first `r` backoffs sum to at
    /// least the deadline. Pinning `r` on both sides of a sum pins each
    /// backoff exactly.
    fn retries_before(deadline_ms: u64) -> usize {
        let cfg = RunnerConfig {
            max_retries: 100,
            backoff_base_ms: 100,
            backoff_cap_ms: 350,
            attempt_cost_ms: 0,
            sweep_deadline_ms: Some(deadline_ms),
            ..RunnerConfig::default()
        };
        let (_, health) = run_campaign(&cfg, None, 1, 1, 0);
        health[0].retries
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // Backoffs 100, 200, then 350 (capped below 400): running sums
        // 100, 300, 650, 1000.
        for (deadline, retries) in [(100, 1), (101, 2), (300, 2), (301, 3), (650, 3), (1000, 4)] {
            assert_eq!(retries_before(deadline), retries, "deadline {deadline}");
        }
    }

    /// Regression: the runner's old shift wrapped, so retries 63 and up
    /// backed off 0 ms and a never-answering target spun through its
    /// whole retry budget without the sweep clock moving. Retries 1–62
    /// sum to 21,300 ms; 63 and 64 must each add the 350 ms cap.
    #[test]
    fn backoff_saturates_at_the_cap_past_sixty_three_retries() {
        for (deadline, retries) in [
            (21_300, 62),
            (21_301, 63),
            (21_650, 63),
            (21_651, 64),
            (22_000, 64),
            (22_001, 65),
        ] {
            assert_eq!(retries_before(deadline), retries, "deadline {deadline}");
        }
    }

    #[test]
    fn budget_exhaustion_is_flagged_and_limits_attempts() {
        let cfg = RunnerConfig {
            probe_budget: Some(3),
            ..RunnerConfig::default()
        };
        let (rows, health) = run_campaign(&cfg, None, 6, 1, 6);
        assert!(health[0].budget_exhausted);
        assert_eq!(health[0].attempts, 3);
        // Unprobed targets stay Unknown.
        assert_eq!(rows[0].iter().filter(|c| c.is_some()).count(), 3);
    }

    #[test]
    fn deadline_stops_a_sweep() {
        let cfg = RunnerConfig {
            max_retries: 4,
            backoff_base_ms: 1_000,
            backoff_cap_ms: 1_000,
            sweep_deadline_ms: Some(2_500),
            ..RunnerConfig::default()
        };
        // Single never-answering target: backoffs blow the deadline
        // mid-retry; later targets are skipped.
        let (_, health) = run_campaign(&cfg, None, 3, 1, 0);
        assert!(health[0].deadline_exceeded);
        assert!(health[0].attempts < 15, "{}", health[0].attempts);
    }

    #[test]
    fn persistent_failures_get_quarantined() {
        let cfg = RunnerConfig {
            quarantine_after: Some(2),
            quarantine_sweeps: 3,
            ..RunnerConfig::default()
        };
        let (_, health) = run_campaign(&cfg, None, 4, 8, 2);
        // Targets 2,3 fail sweeps 0-1, sit out sweeps 2-4, fail 5-6,
        // sit out 7.
        assert_eq!(health[0].quarantined, 0);
        assert_eq!(health[1].quarantined, 0);
        for h in &health[2..5] {
            assert_eq!(h.quarantined, 2, "at {:?}", h.time);
            assert_eq!(h.attempts, 2); // only the healthy targets probed
        }
        assert_eq!(health[5].quarantined, 0);
        assert_eq!(health[7].quarantined, 2);
    }

    #[test]
    fn quarantined_target_that_recovers_is_readmitted() {
        let cfg = RunnerConfig {
            quarantine_after: Some(2),
            quarantine_sweeps: 2,
            ..RunnerConfig::default()
        };
        // Target 0 is dark for sweeps 0-3 (quarantined for 2-3), then
        // comes back for good; target 1 is always healthy.
        let mut runner = CampaignRunner::new(&cfg, None, 2, 10).unwrap();
        let mut rows = Vec::new();
        for (sweep, t) in times(10).into_iter().enumerate() {
            runner.begin_sweep(t);
            let mut row = Vec::new();
            for n in 0..2 {
                let outcome = runner.probe(n, |_| {
                    if n == 0 && sweep < 4 {
                        ProbeReply::NoResponse
                    } else {
                        ProbeReply::Response(7u16)
                    }
                });
                row.push(outcome.into_option());
            }
            rows.push(row);
        }
        let (_, health) = runner.finish();
        // Probation window: fails 0-1, sits out 2-3.
        assert_eq!(health[2].quarantined, 1);
        assert_eq!(health[3].quarantined, 1);
        // Re-admitted at sweep 4: probed again, answers, and stays in.
        for (sweep, h) in health.iter().enumerate().skip(4) {
            assert_eq!(
                h.quarantined, 0,
                "sweep {sweep} must probe the recovered VP"
            );
            assert_eq!(h.responses, 2, "sweep {sweep}");
            assert_eq!(rows[sweep][0], Some(7));
        }
    }

    #[test]
    fn persistently_failing_target_stays_out() {
        let cfg = RunnerConfig {
            quarantine_after: Some(2),
            quarantine_sweeps: 3,
            ..RunnerConfig::default()
        };
        // Target 1 of 3 never answers: it must cycle fail -> quarantine
        // -> brief re-probe -> quarantine again, indefinitely, and never
        // look healthy.
        let (rows, health) = run_campaign(&cfg, None, 3, 12, 1);
        // Fails 0-1, out 2-4, fails 5-6, out 7-9, fails 10-11.
        for sweep in [2, 3, 4, 7, 8, 9] {
            assert_eq!(health[sweep].quarantined, 2, "sweep {sweep}");
        }
        for sweep in [0, 1, 5, 6, 10, 11] {
            assert_eq!(health[sweep].quarantined, 0, "sweep {sweep}");
        }
        for (sweep, row) in rows.iter().enumerate() {
            assert_eq!(row[1], None, "sweep {sweep} must never classify it");
            assert_eq!(row[2], None);
            assert_eq!(row[0], Some(0));
        }
    }

    #[test]
    fn retries_recover_bursty_loss() {
        let loss = BurstyLoss {
            p_enter_bad: 0.1,
            p_exit_bad: 0.3,
            loss_good: 0.4,
            loss_bad: 0.9,
        };
        let plan = FaultPlan::new(77).with_bursty_loss(loss);
        let none = RunnerConfig::default();
        let three = RunnerConfig {
            max_retries: 3,
            ..RunnerConfig::default()
        };
        let (_, h0) = run_campaign(&none, Some(&plan), 40, 20, 40);
        let (_, h3) = run_campaign(&three, Some(&plan), 40, 20, 40);
        let cov0 = fenrir_core::health::mean_coverage(&h0);
        let cov3 = fenrir_core::health::mean_coverage(&h3);
        assert!(
            cov3 > cov0 + 0.15,
            "retries should lift coverage: {cov0} -> {cov3}"
        );
        assert!(h3.iter().map(|h| h.retries).sum::<usize>() > 0);
    }

    #[test]
    fn skewed_times_are_renormalised_strictly_increasing() {
        // Skew far larger than the 1-day cadence forces reordering.
        let plan = FaultPlan::new(5).with_clock_skew(ClockSkew {
            max_skew_secs: 3 * 86_400,
        });
        let mut runner = CampaignRunner::new(&RunnerConfig::default(), Some(&plan), 2, 10).unwrap();
        for t in times(10) {
            runner.begin_sweep(t);
            for n in 0..2 {
                let _ = runner.probe(n, |_| ProbeReply::Response(0u16));
            }
        }
        let (order, health) = runner.finish();
        assert_eq!(order.len(), 10);
        let mut seen: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for pair in order.windows(2) {
            assert!(pair[1].1 > pair[0].1, "times must strictly increase");
        }
        for (k, &(_, t)) in order.iter().enumerate() {
            assert_eq!(health[k].time, t);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = RunnerConfig {
            backoff_base_ms: 100,
            backoff_cap_ms: 50,
            ..RunnerConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(RunnerConfig {
            probe_budget: Some(0),
            ..RunnerConfig::default()
        }
        .validate()
        .is_err());
        assert!(RunnerConfig {
            quarantine_after: Some(0),
            ..RunnerConfig::default()
        }
        .validate()
        .is_err());
    }
}

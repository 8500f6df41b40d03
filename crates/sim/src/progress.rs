//! Live matrix progress reporting.
//!
//! [`Progress`] tracks a matrix campaign — completed/failed/retried
//! specs, aggregate simulated throughput, and an ETA extrapolated from a
//! rolling window of recent completions — and renders a one-line status
//! on an epoch (every N completions). The matrix runner feeds it wall
//! time as plain seconds, so all of the arithmetic here is testable
//! against a scripted clock; the runner writes the returned lines to
//! stderr so they never pollute a binary's stdout tables.

use crate::queue::QueueTally;
use std::collections::VecDeque;

/// How many recent completion timestamps the ETA extrapolates from.
const ETA_WINDOW: usize = 8;

/// The campaign state a controller hands the progress line: the job
/// queue's tally supplies the settled and failed counts and the queue
/// segment next to the MIPS/ETA fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignSnapshot {
    /// The queue's per-state job counts.
    pub tally: QueueTally,
    /// Remote fleet size: `Some(n)` when a fleet listener is up with
    /// `n` workers connected (`Some(0)` renders as degraded mode —
    /// local threads only); `None` for fleet-less campaigns, which
    /// keep the historical line format.
    pub fleet: Option<usize>,
}

/// Progress state for one matrix campaign.
#[derive(Debug, Clone)]
pub struct Progress {
    total: usize,
    completed: usize,
    failed: usize,
    retried: usize,
    sim_insts: u64,
    sim_cycles: u64,
    skipped_cycles: u64,
    epoch: usize,
    window: VecDeque<f64>,
    campaign: Option<CampaignSnapshot>,
}

impl Progress {
    /// Tracks `total` specs, reporting roughly twenty times per
    /// campaign (at least on every spec for tiny matrices).
    pub fn new(total: usize) -> Progress {
        Progress::with_epoch(total, (total / 20).max(1))
    }

    /// Tracks `total` specs, reporting every `epoch` completions (and
    /// always on the last one).
    pub fn with_epoch(total: usize, epoch: usize) -> Progress {
        Progress {
            total,
            completed: 0,
            failed: 0,
            retried: 0,
            sim_insts: 0,
            sim_cycles: 0,
            skipped_cycles: 0,
            epoch: epoch.max(1),
            window: VecDeque::with_capacity(ETA_WINDOW),
            campaign: None,
        }
    }

    /// Sets (or refreshes) the campaign state. From then on the settled
    /// and failed counts are the tally's, and every rendered line
    /// carries queue depth, active leases, and the cache-hit
    /// percentage; plain matrix runs never call this and keep the
    /// historical line format.
    pub fn set_campaign(&mut self, snapshot: CampaignSnapshot) {
        self.completed = snapshot.tally.terminal();
        self.failed = snapshot.tally.failed + snapshot.tally.quarantined;
        self.campaign = Some(snapshot);
    }

    /// Records one settled campaign job at `now` seconds: counts come
    /// from `snapshot` (so a job settled on any path is counted once),
    /// the rest as in [`record`](Progress::record).
    pub fn record_campaign(
        &mut self,
        now: f64,
        snapshot: CampaignSnapshot,
        attempts: u32,
        insts: u64,
        cycles: u64,
    ) -> Option<String> {
        let before = self.completed;
        self.set_campaign(snapshot);
        self.settle(before, now, attempts, insts, cycles)
    }

    /// Records one finished spec at `now` seconds since the campaign
    /// started. `ok` is whether the spec succeeded; `attempts` counts
    /// tries (a spec that needed more than one counts as retried);
    /// `insts`/`cycles` are the simulated work it completed (zero for a
    /// failed spec). Returns the status line to print when this
    /// completion lands on an epoch boundary (or is the last one).
    pub fn record(
        &mut self,
        now: f64,
        ok: bool,
        attempts: u32,
        insts: u64,
        cycles: u64,
    ) -> Option<String> {
        let before = self.completed;
        self.completed += 1;
        if !ok {
            self.failed += 1;
        }
        self.settle(before, now, attempts, insts, cycles)
    }

    /// Folds one settled spec's work and timestamp in; the line is due
    /// when the settled count crossed an epoch boundary since `before`
    /// (or reached the total).
    fn settle(
        &mut self,
        before: usize,
        now: f64,
        attempts: u32,
        insts: u64,
        cycles: u64,
    ) -> Option<String> {
        if attempts > 1 {
            self.retried += 1;
        }
        self.sim_insts += insts;
        self.sim_cycles += cycles;
        if self.window.len() == ETA_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(now);
        let due = self.completed / self.epoch > before / self.epoch || self.completed == self.total;
        due.then(|| self.line(now))
    }

    /// Adds cycles the scheduler's wake plan advanced in bulk (from a
    /// finished spec's engine counters). Once any have landed, rendered
    /// lines carry a `skip NN%` segment; campaigns whose engines report
    /// nothing keep the historical line format.
    pub fn add_skipped(&mut self, skipped: u64) {
        self.skipped_cycles += skipped;
    }

    /// Fraction of aggregate simulated cycles advanced in bulk, 0..=1.
    pub fn skip_fraction(&self) -> f64 {
        if self.sim_cycles == 0 {
            return 0.0;
        }
        self.skipped_cycles as f64 / self.sim_cycles as f64
    }

    /// Aggregate simulated throughput so far, in million instructions
    /// per wall-clock second.
    pub fn aggregate_mips(&self, now: f64) -> f64 {
        if now <= 0.0 {
            return 0.0;
        }
        self.sim_insts as f64 / 1e6 / now
    }

    /// Aggregate simulated throughput so far, in kilocycles per
    /// wall-clock second.
    pub fn aggregate_kcps(&self, now: f64) -> f64 {
        if now <= 0.0 {
            return 0.0;
        }
        self.sim_cycles as f64 / 1e3 / now
    }

    /// Seconds until the campaign finishes, extrapolated from the
    /// completion rate inside the rolling window. `None` until two
    /// completions have landed at distinct times (no rate to
    /// extrapolate from).
    pub fn eta_secs(&self, now: f64) -> Option<f64> {
        let remaining = self.total.saturating_sub(self.completed);
        if remaining == 0 {
            return Some(0.0);
        }
        let (&first, &last) = (self.window.front()?, self.window.back()?);
        if self.window.len() < 2 || last <= first {
            return None;
        }
        let rate = (self.window.len() - 1) as f64 / (last - first);
        let since_last = (now - last).max(0.0);
        Some((remaining as f64 / rate - since_last).max(0.0))
    }

    /// Renders the status line for `now` (normally returned by
    /// [`record`](Progress::record) on epoch boundaries; campaign
    /// controllers also render on queue events).
    pub fn line(&self, now: f64) -> String {
        let eta = match self.eta_secs(now) {
            Some(secs) => format!("ETA {secs:.0}s"),
            None => "ETA --".to_string(),
        };
        let campaign = match &self.campaign {
            Some(c) => {
                let tally = &c.tally;
                let cache_hit_ratio = tally.cached as f64 / tally.done().max(1) as f64;
                let fleet = match c.fleet {
                    Some(0) => " | fleet=0 (degraded)".to_string(),
                    Some(n) => format!(" | fleet={n}"),
                    None => String::new(),
                };
                format!(
                    " | q={} leased={} cache {:.0}%{fleet}",
                    tally.depth(),
                    tally.leased,
                    cache_hit_ratio * 100.0
                )
            }
            None => String::new(),
        };
        let skip = if self.skipped_cycles > 0 {
            format!(" | skip {:.0}%", self.skip_fraction() * 100.0)
        } else {
            String::new()
        };
        format!(
            "[mlpwin] {}/{} specs ({} failed, {} retried) | {:.1} kcyc/s | {:.3} MIPS | {eta}{skip}{campaign}",
            self.completed,
            self.total,
            self.failed,
            self.retried,
            self.aggregate_kcps(now),
            self.aggregate_mips(now),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_gates_report_lines() {
        let mut p = Progress::with_epoch(6, 3);
        assert!(p.record(1.0, true, 1, 100, 200).is_none());
        assert!(p.record(2.0, true, 1, 100, 200).is_none());
        assert!(p.record(3.0, true, 1, 100, 200).is_some(), "epoch hit");
        assert!(p.record(4.0, true, 1, 100, 200).is_none());
        assert!(p.record(5.0, true, 1, 100, 200).is_none());
        let last = p.record(6.0, true, 1, 100, 200).expect("final spec");
        assert!(last.contains("6/6"), "{last}");
    }

    #[test]
    fn final_spec_always_reports() {
        let mut p = Progress::with_epoch(4, 3);
        let _ = p.record(1.0, true, 1, 0, 0);
        let _ = p.record(2.0, true, 1, 0, 0);
        let _ = p.record(3.0, true, 1, 0, 0);
        assert!(p.record(4.0, true, 1, 0, 0).is_some());
    }

    #[test]
    fn eta_on_a_scripted_clock() {
        // One completion per second, steady: after 4 of 10 specs the
        // rate is exactly 1/s, so 6 remain => 6 seconds.
        let mut p = Progress::with_epoch(10, 100);
        for t in 1..=4 {
            let _ = p.record(t as f64, true, 1, 0, 0);
        }
        let eta = p.eta_secs(4.0).expect("rate known");
        assert!((eta - 6.0).abs() < 1e-9, "eta = {eta}");
        // Querying later, mid-gap: the elapsed 0.5s since the last
        // completion comes off the estimate.
        let eta = p.eta_secs(4.5).expect("rate known");
        assert!((eta - 5.5).abs() < 1e-9, "eta = {eta}");
    }

    #[test]
    fn eta_uses_only_the_rolling_window() {
        // A slow prefix must not drag the estimate once the window has
        // rolled past it: 1 spec at t=100, then 8 specs 1s apart.
        let mut p = Progress::with_epoch(20, 100);
        let _ = p.record(100.0, true, 1, 0, 0);
        for k in 0..8 {
            let _ = p.record(101.0 + k as f64, true, 1, 0, 0);
        }
        // Window holds the last 8 timestamps: 101..=108, rate 1/s,
        // 11 specs remaining.
        let eta = p.eta_secs(108.0).expect("rate known");
        assert!((eta - 11.0).abs() < 1e-9, "eta = {eta}");
    }

    #[test]
    fn eta_is_none_until_a_rate_exists() {
        let mut p = Progress::with_epoch(5, 100);
        assert!(p.eta_secs(0.0).is_none(), "no completions yet");
        let _ = p.record(1.0, true, 1, 0, 0);
        assert!(p.eta_secs(1.0).is_none(), "one point has no rate");
        // Two completions at the same instant: still no usable rate.
        let _ = p.record(1.0, true, 1, 0, 0);
        assert!(p.eta_secs(1.0).is_none(), "zero-width window");
        let _ = p.record(2.0, true, 1, 0, 0);
        assert!(p.eta_secs(2.0).is_some());
    }

    #[test]
    fn eta_is_zero_when_done() {
        let mut p = Progress::with_epoch(2, 1);
        let _ = p.record(1.0, true, 1, 0, 0);
        let _ = p.record(2.0, true, 1, 0, 0);
        assert_eq!(p.eta_secs(2.0), Some(0.0));
    }

    #[test]
    fn throughput_math_on_a_scripted_clock() {
        let mut p = Progress::with_epoch(3, 100);
        let _ = p.record(1.0, true, 1, 2_000_000, 4_000_000);
        let _ = p.record(2.0, true, 1, 2_000_000, 4_000_000);
        // 4M insts / 2s = 2 MIPS; 8M cycles / 2s = 4000 kcyc/s.
        assert!((p.aggregate_mips(2.0) - 2.0).abs() < 1e-9);
        assert!((p.aggregate_kcps(2.0) - 4000.0).abs() < 1e-9);
        assert_eq!(p.aggregate_mips(0.0), 0.0, "degenerate clock");
    }

    fn snapshot(tally: QueueTally, fleet: Option<usize>) -> CampaignSnapshot {
        CampaignSnapshot { tally, fleet }
    }

    #[test]
    fn campaign_segment_appears_only_when_set() {
        let mut p = Progress::with_epoch(8, 1);
        let line = p.record(1.0, true, 1, 0, 0).expect("epoch 1");
        assert!(!line.contains("q="), "plain matrix line unchanged: {line}");
        let tally = QueueTally {
            pending: [0, 4, 0],
            leased: 2,
            cached: 1,
            simulated: 1,
            ..QueueTally::default()
        };
        let line = p
            .record_campaign(2.0, snapshot(tally, None), 1, 0, 0)
            .expect("epoch 2");
        assert!(line.contains("2/8 specs"), "{line}");
        assert!(line.contains("q=4 leased=2 cache 50%"), "{line}");
        assert!(
            !line.contains("fleet"),
            "no fleet segment without a fleet: {line}"
        );
    }

    #[test]
    fn campaign_counts_are_the_tallys() {
        // Jobs settled on paths that never reported (a lease-expiry
        // quarantine) still count: the tally, not the reports, decides.
        let mut p = Progress::with_epoch(6, 2);
        let tally = QueueTally {
            pending: [0, 2, 0],
            simulated: 1,
            failed: 1,
            quarantined: 2,
            ..QueueTally::default()
        };
        let line = p
            .record_campaign(1.0, snapshot(tally, None), 1, 0, 0)
            .expect("0 -> 4 settled crosses an epoch");
        assert!(line.contains("4/6 specs (3 failed, 0 retried)"), "{line}");
    }

    #[test]
    fn fleet_segment_shows_size_and_degraded_mode() {
        let mut p = Progress::with_epoch(3, 1);
        let mut tally = QueueTally {
            pending: [0, 1, 0],
            leased: 1,
            simulated: 1,
            ..QueueTally::default()
        };
        let line = p
            .record_campaign(1.0, snapshot(tally, Some(2)), 1, 0, 0)
            .expect("epoch 1");
        assert!(line.contains("| fleet=2"), "{line}");
        tally.leased = 0;
        tally.simulated = 2;
        let line = p
            .record_campaign(2.0, snapshot(tally, Some(0)), 1, 0, 0)
            .expect("epoch 2");
        assert!(line.contains("| fleet=0 (degraded)"), "{line}");
    }

    #[test]
    fn skip_segment_appears_only_when_cycles_were_skipped() {
        let mut p = Progress::with_epoch(2, 1);
        let line = p.record(1.0, true, 1, 1_000, 10_000).expect("epoch 1");
        assert!(!line.contains("skip"), "no skips recorded yet: {line}");
        assert_eq!(p.skip_fraction(), 0.0);
        // 17k of the 20k aggregate cycles were bulk-skipped: 85%.
        p.add_skipped(17_000);
        let line = p.record(2.0, true, 1, 1_000, 10_000).expect("epoch 2");
        assert!(line.contains("| skip 85%"), "{line}");
        assert!((p.skip_fraction() - 0.85).abs() < 1e-9);
    }

    #[test]
    fn failures_and_retries_are_counted_in_the_line() {
        let mut p = Progress::with_epoch(3, 1);
        let line = p.record(1.0, false, 2, 0, 0).expect("epoch 1");
        assert!(line.contains("1 failed, 1 retried"), "{line}");
        let line = p.record(2.0, true, 3, 10, 20).expect("epoch 2");
        assert!(line.contains("1 failed, 2 retried"), "{line}");
        let line = p.record(3.0, true, 1, 10, 20).expect("epoch 3");
        assert!(line.contains("3/3"), "{line}");
        assert!(line.starts_with("[mlpwin]"), "{line}");
    }
}

//! Live matrix progress reporting.
//!
//! [`Progress`] tracks a matrix campaign's aggregate simulated
//! throughput and an ETA extrapolated from a rolling window of recent
//! completions, and renders a one-line status on an epoch (every N
//! settled specs). It keeps no job counts of its own: the caller passes
//! the settled, failed and retried counts it already holds — the matrix
//! runner its own, a campaign controller its job queue's — so the line
//! cannot drift from them. Wall time arrives as plain seconds, so all
//! of the arithmetic here is testable against a scripted clock; callers
//! write the lines to stderr so they never pollute a binary's stdout
//! tables.

use crate::queue::QueueTally;
use std::collections::VecDeque;

/// How many recent completion timestamps the ETA extrapolates from.
const ETA_WINDOW: usize = 8;

/// Throughput and ETA state for one matrix campaign.
#[derive(Debug, Clone)]
pub struct Progress {
    total: usize,
    /// The settled count at the last [`settle`](Progress::settle): the
    /// ETA's remaining work and the epoch gate's reference point.
    settled: usize,
    sim_insts: u64,
    sim_cycles: u64,
    skipped_cycles: u64,
    epoch: usize,
    window: VecDeque<f64>,
}

impl Progress {
    /// Tracks `total` specs, reporting roughly twenty times per
    /// campaign (at least on every spec for tiny matrices).
    pub fn new(total: usize) -> Progress {
        Progress::with_epoch(total, (total / 20).max(1))
    }

    /// Tracks `total` specs, reporting every `epoch` settled specs (and
    /// always on the last one).
    pub fn with_epoch(total: usize, epoch: usize) -> Progress {
        Progress {
            total,
            settled: 0,
            sim_insts: 0,
            sim_cycles: 0,
            skipped_cycles: 0,
            epoch: epoch.max(1),
            window: VecDeque::with_capacity(ETA_WINDOW),
        }
    }

    /// Starts from `settled` specs already settled before tracking began
    /// (a resumed campaign's replayed and cache-served jobs): they count
    /// toward the total but add nothing to the ETA's rate.
    pub fn starting_at(mut self, settled: usize) -> Progress {
        self.settled = settled;
        self
    }

    /// Adds one settled spec's simulated work: `insts`/`cycles` it
    /// completed and the `skipped` cycles its scheduler advanced in bulk
    /// (all zero for a failed spec). Once any skipped cycles have
    /// landed, rendered lines carry a `skip NN%` segment.
    pub fn add_work(&mut self, insts: u64, cycles: u64, skipped: u64) {
        self.sim_insts += insts;
        self.sim_cycles += cycles;
        self.skipped_cycles += skipped;
    }

    /// Folds in `settled`, the caller's count of settled specs, at `now`
    /// seconds since the campaign started: each spec settled since the
    /// last call adds a timestamp to the ETA window. Returns whether a
    /// line is due — the count crossed an epoch boundary since the last
    /// call, or reached the total.
    pub fn settle(&mut self, now: f64, settled: usize) -> bool {
        let before = self.settled;
        if settled <= before {
            return false;
        }
        for _ in 0..(settled - before).min(ETA_WINDOW) {
            if self.window.len() == ETA_WINDOW {
                self.window.pop_front();
            }
            self.window.push_back(now);
        }
        self.settled = settled;
        settled / self.epoch > before / self.epoch || settled == self.total
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
        let remaining = self.total.saturating_sub(self.settled);
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

    /// Renders the status line for `now` with the caller's counts (a
    /// matrix run's; a campaign renders [`campaign_line`]).
    ///
    /// [`campaign_line`]: Progress::campaign_line
    pub fn line(&self, now: f64, settled: usize, failed: usize, retried: usize) -> String {
        let eta = match self.eta_secs(now) {
            Some(secs) => format!("ETA {secs:.0}s"),
            None => "ETA --".to_string(),
        };
        let skip = if self.skipped_cycles > 0 {
            format!(" | skip {:.0}%", self.skip_fraction() * 100.0)
        } else {
            String::new()
        };
        format!(
            "[mlpwin] {settled}/{} specs ({failed} failed, {retried} retried) | {:.1} kcyc/s | {:.3} MIPS | {eta}{skip}",
            self.total,
            self.aggregate_kcps(now),
            self.aggregate_mips(now),
        )
    }

    /// A campaign's status line: the settled and failed counts are the
    /// queue `tally`'s terminal and failed-or-quarantined jobs,
    /// `retried` is [`JobQueue::retried`](crate::queue::JobQueue::retried),
    /// and a queue segment follows — depth, active leases, cache-hit
    /// percentage and, when a fleet listener is up, `fleet` workers
    /// connected (`Some(0)` renders as degraded mode: local threads
    /// only).
    pub fn campaign_line(
        &self,
        now: f64,
        tally: &QueueTally,
        retried: usize,
        fleet: Option<usize>,
    ) -> String {
        let failed = tally.failed + tally.quarantined;
        let cache_hit_ratio = tally.cached as f64 / tally.done().max(1) as f64;
        let fleet = match fleet {
            Some(0) => " | fleet=0 (degraded)".to_string(),
            Some(n) => format!(" | fleet={n}"),
            None => String::new(),
        };
        format!(
            "{} | q={} leased={} cache {:.0}%{fleet}",
            self.line(now, tally.terminal(), failed, retried),
            tally.depth(),
            tally.leased,
            cache_hit_ratio * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix caller: keeps its own settled, failed and retried
    /// counts, as `run_matrix` does, and renders a line when one is due.
    struct Matrix {
        progress: Progress,
        settled: usize,
        failed: usize,
        retried: usize,
    }

    impl Matrix {
        fn new(total: usize, epoch: usize) -> Matrix {
            Matrix {
                progress: Progress::with_epoch(total, epoch),
                settled: 0,
                failed: 0,
                retried: 0,
            }
        }

        fn record(
            &mut self,
            now: f64,
            ok: bool,
            attempts: u32,
            insts: u64,
            cycles: u64,
        ) -> Option<String> {
            self.settled += 1;
            self.failed += usize::from(!ok);
            self.retried += usize::from(attempts > 1);
            self.progress.add_work(insts, cycles, 0);
            let due = self.progress.settle(now, self.settled);
            due.then(|| {
                self.progress
                    .line(now, self.settled, self.failed, self.retried)
            })
        }
    }

    impl std::ops::Deref for Matrix {
        type Target = Progress;
        fn deref(&self) -> &Progress {
            &self.progress
        }
    }

    #[test]
    fn epoch_gates_report_lines() {
        let mut p = Matrix::new(6, 3);
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
        let mut p = Matrix::new(4, 3);
        let _ = p.record(1.0, true, 1, 0, 0);
        let _ = p.record(2.0, true, 1, 0, 0);
        let _ = p.record(3.0, true, 1, 0, 0);
        assert!(p.record(4.0, true, 1, 0, 0).is_some());
    }

    #[test]
    fn eta_on_a_scripted_clock() {
        // One completion per second, steady: after 4 of 10 specs the
        // rate is exactly 1/s, so 6 remain => 6 seconds.
        let mut p = Matrix::new(10, 100);
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
        let mut p = Matrix::new(20, 100);
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
        let mut p = Matrix::new(5, 100);
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
        let mut p = Matrix::new(2, 1);
        let _ = p.record(1.0, true, 1, 0, 0);
        let _ = p.record(2.0, true, 1, 0, 0);
        assert_eq!(p.eta_secs(2.0), Some(0.0));
    }

    #[test]
    fn throughput_math_on_a_scripted_clock() {
        let mut p = Matrix::new(3, 100);
        let _ = p.record(1.0, true, 1, 2_000_000, 4_000_000);
        let _ = p.record(2.0, true, 1, 2_000_000, 4_000_000);
        // 4M insts / 2s = 2 MIPS; 8M cycles / 2s = 4000 kcyc/s.
        assert!((p.aggregate_mips(2.0) - 2.0).abs() < 1e-9);
        assert!((p.aggregate_kcps(2.0) - 4000.0).abs() < 1e-9);
        assert_eq!(p.aggregate_mips(0.0), 0.0, "degenerate clock");
    }

    /// A campaign's settled count can jump by several specs at once,
    /// and a resumed one starts part-settled: the epoch gate sees the
    /// crossing, and the ETA's rate counts only specs settled while
    /// tracking.
    #[test]
    fn jumps_cross_epochs_and_resumed_specs_skip_the_rate() {
        let mut p = Progress::with_epoch(10, 3).starting_at(2);
        assert!(!p.settle(1.0, 2), "no change, no line");
        assert!(p.settle(2.0, 4), "2 -> 4 crosses an epoch");
        assert!(!p.settle(2.0, 4), "a repeated count renders nothing");
        assert!(!p.settle(4.0, 5));
        // Window 2.0, 2.0, 4.0: one spec per second, 5 remaining.
        let eta = p.eta_secs(4.0).expect("rate known");
        assert!((eta - 5.0).abs() < 1e-9, "eta = {eta}");
    }

    #[test]
    fn campaign_line_appends_the_queue_segment() {
        let mut p = Matrix::new(8, 1);
        let line = p.record(1.0, true, 1, 0, 0).expect("epoch 1");
        assert!(!line.contains("q="), "plain matrix line unchanged: {line}");
        let tally = QueueTally {
            pending: [0, 4, 0],
            leased: 2,
            cached: 1,
            simulated: 1,
            ..QueueTally::default()
        };
        let line = p.campaign_line(2.0, &tally, 0, None);
        assert!(line.contains("2/8 specs"), "{line}");
        assert!(line.contains("q=4 leased=2 cache 50%"), "{line}");
        assert!(
            !line.contains("fleet"),
            "no fleet segment without a fleet: {line}"
        );
    }

    #[test]
    fn fleet_segment_shows_size_and_degraded_mode() {
        let p = Matrix::new(3, 1);
        let mut tally = QueueTally {
            pending: [0, 1, 0],
            leased: 1,
            simulated: 1,
            ..QueueTally::default()
        };
        let line = p.campaign_line(1.0, &tally, 0, Some(2));
        assert!(line.contains("| fleet=2"), "{line}");
        tally.leased = 0;
        tally.simulated = 2;
        let line = p.campaign_line(2.0, &tally, 0, Some(0));
        assert!(line.contains("| fleet=0 (degraded)"), "{line}");
    }

    #[test]
    fn skip_segment_appears_only_when_cycles_were_skipped() {
        let mut p = Matrix::new(2, 1);
        let line = p.record(1.0, true, 1, 1_000, 10_000).expect("epoch 1");
        assert!(!line.contains("skip"), "no skips recorded yet: {line}");
        assert_eq!(p.skip_fraction(), 0.0);
        // 17k of the 20k aggregate cycles were bulk-skipped: 85%.
        p.progress.add_work(0, 0, 17_000);
        let line = p.record(2.0, true, 1, 1_000, 10_000).expect("epoch 2");
        assert!(line.contains("| skip 85%"), "{line}");
        assert!((p.skip_fraction() - 0.85).abs() < 1e-9);
    }

    #[test]
    fn failures_and_retries_are_counted_in_the_line() {
        let mut p = Matrix::new(3, 1);
        let line = p.record(1.0, false, 2, 0, 0).expect("epoch 1");
        assert!(line.contains("1 failed, 1 retried"), "{line}");
        let line = p.record(2.0, true, 3, 10, 20).expect("epoch 2");
        assert!(line.contains("1 failed, 2 retried"), "{line}");
        let line = p.record(3.0, true, 1, 10, 20).expect("epoch 3");
        assert!(line.contains("3/3"), "{line}");
        assert!(line.starts_with("[mlpwin]"), "{line}");
    }
}

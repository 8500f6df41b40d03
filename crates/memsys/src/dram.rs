//! Main-memory timing model.
//!
//! Table 1 of the paper: 300-cycle *minimum* latency and 8 B/cycle
//! bandwidth. We model a single channel whose data bus serializes line
//! transfers: a 64 B line occupies the bus for 8 cycles. A request issued
//! at cycle `t` therefore completes at
//!
//! ```text
//! start    = max(t + min_latency - transfer, bus_free)
//! complete = start + transfer
//! bus_free = complete
//! ```
//!
//! so an isolated request sees exactly `min_latency` cycles, while a burst
//! of requests queues behind the bus — overlapping that queuing with
//! computation is precisely the memory-level parallelism the paper's
//! mechanism exposes.

use mlpwin_isa::snap::Snap;
use mlpwin_isa::Cycle;

/// Main-memory channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Minimum (unloaded) access latency in cycles.
    pub min_latency: u32,
    /// Data bus bandwidth in bytes per cycle.
    pub bytes_per_cycle: u32,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            min_latency: 300,
            bytes_per_cycle: 8,
        }
    }
}

mlpwin_isa::counters! {
    /// Counters for the memory channel.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct DramStats {
        /// Line requests served.
        pub requests: u64,
        /// Total latency (issue to completion) summed over requests.
        pub total_latency: u64,
        /// Total cycles requests spent queued behind the bus beyond the
        /// latency floor.
        pub total_queue_delay: u64,
    }
}

impl DramStats {
    /// Average end-to-end latency per request; the latency floor when no
    /// request has been made.
    pub fn avg_latency(&self, floor: u32) -> f64 {
        if self.requests == 0 {
            floor as f64
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }
}

/// The main-memory channel.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    bus_free: Cycle,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn new(config: DramConfig) -> Dram {
        assert!(config.bytes_per_cycle > 0, "bandwidth must be positive");
        Dram {
            config,
            bus_free: 0,
            stats: DramStats::default(),
        }
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Cycles the data bus is occupied transferring `line_bytes`.
    pub fn transfer_cycles(&self, line_bytes: usize) -> Cycle {
        (line_bytes as u64).div_ceil(self.config.bytes_per_cycle as u64)
    }

    /// Serializes the bus state and counters.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_u64(self.bus_free);
        self.stats.save(w);
    }

    /// Restores the state written by [`Dram::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.bus_free = r.get_u64()?;
        self.stats = DramStats::load(r)?;
        Ok(())
    }

    /// Requests the line of `line_bytes` bytes at cycle `now`; returns the
    /// completion cycle.
    pub fn request_line(&mut self, now: Cycle, line_bytes: usize) -> Cycle {
        let transfer = self.transfer_cycles(line_bytes);
        let unloaded_start = (now + self.config.min_latency as Cycle).saturating_sub(transfer);
        let start = unloaded_start.max(self.bus_free);
        let complete = start + transfer;
        self.bus_free = complete;
        self.stats.requests += 1;
        self.stats.total_latency += complete - now;
        self.stats.total_queue_delay += start - unloaded_start;
        complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_request_sees_min_latency() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.request_line(1000, 64), 1300);
        assert_eq!(d.stats().total_queue_delay, 0);
    }

    #[test]
    fn burst_requests_queue_on_the_bus() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.request_line(0, 64);
        let b = d.request_line(0, 64);
        let c = d.request_line(0, 64);
        assert_eq!(a, 300);
        assert_eq!(b, 308, "second line waits one 8-cycle transfer slot");
        assert_eq!(c, 316);
        assert_eq!(d.stats().total_queue_delay, 8 + 16);
    }

    #[test]
    fn bus_drains_between_distant_requests() {
        let mut d = Dram::new(DramConfig::default());
        let _ = d.request_line(0, 64);
        // Far in the future: no queuing.
        assert_eq!(d.request_line(10_000, 64), 10_300);
    }

    #[test]
    fn transfer_scales_with_line_size() {
        let d = Dram::new(DramConfig::default());
        assert_eq!(d.transfer_cycles(64), 8);
        assert_eq!(d.transfer_cycles(32), 4);
        assert_eq!(d.transfer_cycles(1), 1);
    }

    #[test]
    fn overlapped_requests_expose_mlp() {
        // Two parallel misses complete within ~min_latency + transfer of
        // each other, rather than 2 * min_latency — the MLP premise of §2.
        let mut d = Dram::new(DramConfig::default());
        let first = d.request_line(0, 64);
        let second = d.request_line(0, 64);
        assert!(second - first < 50, "parallel misses nearly overlap");
        // Sequential misses pay the full latency twice.
        let mut d2 = Dram::new(DramConfig::default());
        let f = d2.request_line(0, 64);
        let s = d2.request_line(f, 64);
        assert_eq!(s - f, 300);
    }

    #[test]
    fn avg_latency_reporting() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.stats().avg_latency(300), 300.0);
        let _ = d.request_line(0, 64);
        assert_eq!(d.stats().avg_latency(300), 300.0);
    }
}

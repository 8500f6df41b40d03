//! What the host does to the timed spans: its speed, which is divided
//! out, and the process's memory peak, taken over the spans alone.
//!
//! On a shared machine other tenants slow this process down — by up to
//! 2x, for seconds to minutes at a time, each vCPU on its own — and a
//! span's wall time follows them, so two runs of identical code can
//! differ by far more than any bound worth having. A span that runs on
//! the benchmark's own thread is therefore bracketed by a fixed reference
//! kernel on that thread (hash-map updates and a sort: code the simulator
//! does not share, which slows down with the host about as much as the
//! simulator does) and rescaled to the speed at which that kernel takes
//! [`REFERENCE_NS`]:
//!
//! ```text
//! rescaled = wall × REFERENCE_NS / mean(kernel before, kernel after)
//! ```
//!
//! The kernel never changes, so a faster simulator still reads faster;
//! only the host's speed divides out. Spans that fan out to worker
//! processes or threads on other CPUs, or wait on fsync and polling, do
//! not slow down with this thread's kernel, and stay in wall time.
//!
//! The kernel allocates a few megabytes of its own, so the peak resident
//! set (`VmHWM`) is read at the end of each span, before the kernel runs,
//! and reset (`5` written to `/proc/self/clear_refs`) after it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time at the speed every rescaled span is
/// reported at: its time on an unloaded vCPU of the 2 GHz Xeon the
/// benchmark was defined on.
pub const REFERENCE_NS: f64 = 10e6;

/// Brackets consecutive timed spans.
#[derive(Debug)]
pub struct Host {
    /// Kernel time taken at the end of the previous span.
    last_ns: f64,
    /// Highest `VmHWM` seen at the end of a span since the last
    /// [`Host::take_peak_rss_mb`], in MB.
    peak_mb: Option<f64>,
}

impl Host {
    /// Times the kernel once: the "before" of the first span.
    pub fn new() -> Host {
        let last_ns = kernel_ns();
        reset_peak_rss();
        Host {
            last_ns,
            peak_mb: None,
        }
    }

    /// Ends a span: notes its memory peak, times the kernel again, and
    /// returns the factor that rescales the span since the previous call
    /// (or [`Host::new`]) to reference speed.
    pub fn rescale(&mut self) -> f64 {
        self.note_peak();
        let next = kernel_ns();
        reset_peak_rss();
        let factor = 2.0 * REFERENCE_NS / (self.last_ns + next);
        self.last_ns = next;
        factor
    }

    /// Times the kernel as the "before" of a span that does not follow
    /// the previous one directly.
    pub fn restart(&mut self) {
        self.rescale();
    }

    /// The peak resident set since the last call, kernel runs excepted,
    /// in MB; `None` without procfs.
    pub fn take_peak_rss_mb(&mut self) -> Option<f64> {
        self.note_peak();
        reset_peak_rss();
        self.peak_mb.take()
    }

    fn note_peak(&mut self) {
        if let Some(mb) = peak_rss_mb() {
            self.peak_mb = Some(self.peak_mb.map_or(mb, |p| p.max(mb)));
        }
    }
}

/// Host nanoseconds of one [`kernel`] call.
fn kernel_ns() -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_nanos() as f64
}

/// The reference work: 200k alternating upserts and lookups on a hash
/// map of up to 64k keys, then a sort of 200k pseudo-random integers.
/// The hasher has fixed keys, so every process does the same probes.
/// Returns a checksum so none of it can be optimised away.
fn kernel() -> u64 {
    const OPS: u64 = 200_000;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 16, BuildHasherDefault::default());
    let mut x = 12_345u64;
    let mut sum = 0u64;
    for i in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 20) & 0xffff;
        if i % 2 == 0 {
            *map.entry(key).or_insert(0) += i;
        } else {
            sum = sum.wrapping_add(map.get(&key).copied().unwrap_or(0));
        }
    }
    let mut y = 99u64;
    let mut values: Vec<u64> = (0..OPS)
        .map(|_| {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            y
        })
        .collect();
    values.sort_unstable();
    sum ^ values[values.len() / 2]
}

/// Resets the process's peak resident set to its current one.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// `VmHWM` in MB; `None` without procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_does_fixed_work() {
        // Every rescaled number is in units of this kernel: a change to
        // it changes them all and breaks comparison with earlier runs.
        assert_eq!(kernel(), 0x7f91_3729_76af_8322);
    }

    // One test: the peak is process-wide state, which another test
    // thread resetting it would disturb.
    #[test]
    fn spans_are_rescaled_and_their_peak_is_kept() {
        let mut host = Host::new();
        for _ in 0..3 {
            let factor = host.rescale();
            assert!(factor.is_finite() && factor > 0.0, "{factor}");
        }
        if peak_rss_mb().is_none() {
            return; // no procfs
        }
        host.take_peak_rss_mb();
        // 64 MB touched and freed inside a span still shows in its peak.
        let big = vec![1u8; 64 << 20];
        black_box(&big);
        drop(big);
        host.rescale();
        let peak = host.take_peak_rss_mb().expect("procfs");
        assert!(peak >= 64.0, "{peak} MB");
        // Taking the peak resets it.
        let after = host.take_peak_rss_mb().expect("procfs");
        assert!(after < peak - 32.0, "{after} MB after {peak} MB");
    }
}

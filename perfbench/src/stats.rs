//! Sample statistics, the host reference kernel and process memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of unsorted samples (`p` in `0..=100`);
/// `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host speed, sampled through a run, and the rescaling of host times
/// by it.
///
/// The reference is a fixed scalar 2×2 average pool streaming a
/// 2048×2048 plane (16 MB in, 4 MB out: more than any cache share of a
/// shared host), run off the clock between timed units. It lives here,
/// not in the measured crates, so its speed only changes with the host.
/// A shared host's speed changes by up to 2× over minutes, with other
/// tenants' load; a timed duration rescaled by the reference speed
/// around it, raised to [`HostClock::ELASTICITY`], reads what it would
/// take on a host that runs the reference at
/// [`HostClock::NOMINAL_MPXS`]. A slower program still reads slower; a
/// slower host mostly does not.
pub struct HostClock {
    src: Vec<f32>,
    dst: Vec<f32>,
    rates: Vec<f64>,
}

impl HostClock {
    /// Reference speed the rescaled times are quoted at, Mpx/s.
    pub const NOMINAL_MPXS: f64 = 1250.0;
    /// How much of a host speed change reaches the workloads' times: over
    /// ten runs each on a shared 2-CPU host, wall times went as the
    /// reference speed to the power −0.84 (`still_vga`), −0.67
    /// (`tracked_hd`) and −0.55 to −0.75 (`serve_fleet`). Part of
    /// each frame waits on memory or on other threads, which the
    /// reference does not.
    pub const ELASTICITY: f64 = 0.7;
    /// Side of the reference plane, pixels.
    const SIDE: usize = 2048;
    /// Reference samples, either side of a unit's own, whose median
    /// rescales it: one slow burst must not rescale its unit alone.
    const HALF_WINDOW: usize = 3;

    /// Allocates the reference plane and runs one unrecorded burst, so
    /// its pages are resident before anything is timed.
    pub fn new() -> Self {
        let side = Self::SIDE;
        let src = (0..side * side).map(|i| ((i * 7919) % 1024) as f32 / 1024.0).collect();
        let mut clock = Self { src, dst: vec![0.0; side * side / 4], rates: Vec::new() };
        clock.burst();
        clock
    }

    /// Bytes the reference holds resident for the whole run.
    pub fn bytes(&self) -> usize {
        (self.src.len() + self.dst.len()) * std::mem::size_of::<f32>()
    }

    /// Runs one reference burst and records its speed. Returns the mark
    /// a unit timed after it is rescaled by.
    pub fn sample(&mut self) -> usize {
        let rate = self.burst();
        self.rates.push(rate);
        self.rates.len() - 1
    }

    /// The mark of the latest sample (`0` before any).
    pub fn mark(&self) -> usize {
        self.rates.len().saturating_sub(1)
    }

    /// Rescales a duration timed at `mark` to the nominal host.
    pub fn scale(&self, value: f64, mark: usize) -> f64 {
        if self.rates.is_empty() {
            return value;
        }
        let mark = mark.min(self.rates.len() - 1);
        let lo = mark.saturating_sub(Self::HALF_WINDOW);
        let hi = (mark + Self::HALF_WINDOW + 1).min(self.rates.len());
        value * (median(&self.rates[lo..hi]) / Self::NOMINAL_MPXS).powf(Self::ELASTICITY)
    }

    /// Rescales `(duration, mark)` pairs to the nominal host.
    pub fn scale_all(&self, timed: &[(f64, usize)]) -> Vec<f64> {
        timed.iter().map(|&(value, mark)| self.scale(value, mark)).collect()
    }

    /// The median reference speed over the run, Mpx/s.
    pub fn median_mpxs(&self) -> f64 {
        median(&self.rates)
    }

    fn burst(&mut self) -> f64 {
        let side = Self::SIDE;
        let start = Instant::now();
        let src = black_box(&self.src);
        for y in 0..side / 2 {
            let (top, bottom) = (&src[2 * y * side..], &src[(2 * y + 1) * side..]);
            for x in 0..side / 2 {
                self.dst[y * side / 2 + x] =
                    0.25 * (top[2 * x] + top[2 * x + 1] + bottom[2 * x] + bottom[2 * x + 1]);
            }
        }
        black_box(&mut self.dst);
        (side * side) as f64 / start.elapsed().as_secs_f64() / 1e6
    }
}

/// Peak resident set size of this process, megabytes (`VmHWM`); `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// A time is rescaled by the median speed of the bursts around it,
    /// so one outlying burst moves no unit on its own.
    #[test]
    fn host_clock_rescales_by_nearby_median() {
        let nominal = HostClock::NOMINAL_MPXS;
        let mut rates = vec![nominal; 20];
        rates[10] = 10.0 * nominal;
        rates.extend(vec![2.0 * nominal; 20]);
        let clock = HostClock { src: Vec::new(), dst: Vec::new(), rates };
        let doubled = 2f64.powf(HostClock::ELASTICITY);
        assert_eq!(clock.scale(8.0, 10), 8.0);
        assert_eq!(clock.scale(8.0, 39), 8.0 * doubled);
        assert_eq!(clock.scale_all(&[(1.0, 0), (1.0, 100)]), vec![1.0, doubled]);
        let empty = HostClock { src: Vec::new(), dst: Vec::new(), rates: Vec::new() };
        assert_eq!(empty.scale(8.0, 0), 8.0);
    }
}

//! Order statistics over recorded samples, the fixed-size sample
//! buffers the timed loops write into, and the process's peak RSS.
//!
//! Timed phases are cut into one-second blocks. Each block gets its own
//! median, p99 or rate, and the figure reported is the median over the
//! blocks: on a machine shared with other tenants, a burst of
//! interference then moves one block instead of the whole result.

use std::time::{Duration, Instant};

/// Length of one block of a timed phase.
pub const BLOCK: Duration = Duration::from_secs(1);

/// Whole blocks in a phase of `seconds` (at least one).
pub fn blocks_in(seconds: f64) -> usize {
    ((seconds / BLOCK.as_secs_f64()).floor() as usize).max(1)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (sorted in place).
/// `None` when there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Median of a borrowed sample set.
pub fn median_of(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.into_iter().collect();
    median(&mut v)
}

/// Mean of a sample set; 0 when empty.
pub fn mean_of(samples: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = samples
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The value recorded for an operation that failed: it is over any
/// latency limit.
pub const FAILED_NS: u64 = u64::MAX;

/// Nanoseconds as milliseconds; a failure reads as infinity, so it
/// sorts above every limit.
pub fn millis(ns: u64) -> f64 {
    if ns == FAILED_NS {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

/// Latency samples kept per thread and block. Today's rate leaves all
/// of a block's samples in the buffer; a block with more keeps a
/// uniform sample of this size (reservoir sampling), so the
/// benchmark's own memory never depends on how fast the program runs
/// and `peak_rss_mb` stays the program's.
pub const RESERVOIR: usize = 8192;

/// One thread's figures for one block.
#[derive(Debug, Clone, Copy)]
struct BlockStat {
    p50_ms: f64,
    p99_ms: f64,
    /// Samples recorded in the block (kept or not).
    samples: u64,
    /// Successful operations among them.
    ok: u64,
}

/// One thread's samples of a closed-loop phase, marked with the block
/// each started in. A block's p50 and p99 are taken when the block
/// closes, so only the open block's samples are held.
pub struct Timeline {
    /// The open block's reservoir; every page is written on creation.
    buf: Vec<u64>,
    kept: usize,
    seen: u64,
    ok: u64,
    rng: u64,
    closed: Vec<BlockStat>,
    next: Instant,
}

impl Timeline {
    /// A timeline for a phase of up to `blocks` blocks, its reservoir
    /// draws seeded by `seed`; [`Timeline::begin`] starts its first
    /// block.
    pub fn new(blocks: usize, seed: u64) -> Timeline {
        Timeline {
            buf: vec![FAILED_NS; RESERVOIR],
            kept: 0,
            seen: 0,
            ok: 0,
            rng: seed | 1,
            closed: Vec::with_capacity(blocks + 1),
            next: Instant::now() + BLOCK,
        }
    }

    /// Starts the first block at `start`.
    pub fn begin(&mut self, start: Instant) {
        self.next = start + BLOCK;
    }

    /// Records a sample for an operation that started at `at`.
    pub fn push(&mut self, at: Instant, ns: u64) {
        while at >= self.next {
            self.close_block();
            self.next += BLOCK;
        }
        self.seen += 1;
        if ns != FAILED_NS {
            self.ok += 1;
        }
        if self.kept < RESERVOIR {
            self.buf[self.kept] = ns;
            self.kept += 1;
        } else {
            // xorshift64: a uniform slot in 0..seen, kept when it falls
            // inside the reservoir.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let slot = self.rng % self.seen;
            if let Some(kept) = self.buf.get_mut(slot as usize) {
                *kept = ns;
            }
        }
    }

    /// Closes the open block; call once after the phase ends.
    pub fn finish(&mut self) {
        self.close_block();
    }

    fn close_block(&mut self) {
        let kept = &mut self.buf[..self.kept];
        kept.sort_unstable();
        let at = |q: f64| {
            let rank = ((q * kept.len() as f64).ceil() as usize).clamp(1, kept.len().max(1));
            kept.get(rank - 1).map_or(f64::NAN, |&ns| millis(ns))
        };
        self.closed.push(BlockStat {
            p50_ms: at(0.50),
            p99_ms: at(0.99),
            samples: self.seen,
            ok: self.ok,
        });
        self.kept = 0;
        self.seen = 0;
        self.ok = 0;
    }
}

/// Medians over the first `blocks` blocks of `lines`: of each thread's
/// block p50, of each thread's block p99, and of the successful
/// operations per second of all threads together. Also returns the
/// sample count. A thread with no sample in a block (one call longer
/// than a block) has no p50 or p99 there; the block's rate shows it.
pub fn block_medians(lines: &[Timeline], blocks: usize) -> (f64, f64, f64, u64) {
    let (mut p50s, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut n = 0;
    for b in 0..blocks {
        let mut ok = 0;
        for stat in lines.iter().filter_map(|l| l.closed.get(b)) {
            n += stat.samples;
            ok += stat.ok;
            if stat.samples > 0 {
                p50s.push(stat.p50_ms);
                p99s.push(stat.p99_ms);
            }
        }
        rates.push(ok as f64 / BLOCK.as_secs_f64());
    }
    println!("successful operations per block: {rates:?}");
    (median(&mut p50s), median(&mut p99s), median(&mut rates), n)
}

/// Steal and total ticks of all CPUs so far, from `/proc/stat`; `None`
/// where that file is not there.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where the guest times are already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Peak resident set size of this process in MiB: `VmHWM` from
/// `/proc/self/status`, the high-water mark of this process image.
/// `getrusage`'s `ru_maxrss` is not used because it also carries the
/// RSS of the image the process replaced at `exec`: run under
/// `cargo run`, it reports cargo's own footprint whenever that is the
/// larger.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn failures_sort_above_every_sample() {
        let start = Instant::now();
        let mut line = Timeline::new(1, 7);
        line.begin(start);
        for ns in [2_000_000, FAILED_NS, 1_000_000] {
            line.push(start, ns);
        }
        line.finish();
        let stat = line.closed[0];
        assert_eq!((stat.p50_ms, stat.p99_ms), (2.0, f64::INFINITY));
        assert_eq!((stat.samples, stat.ok), (3, 2));
    }

    #[test]
    fn blocks_split_by_start_time() {
        let start = Instant::now();
        let mut line = Timeline::new(3, 7);
        line.begin(start);
        line.push(start, 1_000_000);
        line.push(start + BLOCK / 2, 3_000_000);
        line.push(start + BLOCK * 2, 5_000_000);
        line.push(start + BLOCK * 2, 7_000_000);
        line.finish();
        let p50s: Vec<f64> = line.closed.iter().map(|s| s.p50_ms).collect();
        assert_eq!(p50s.len(), 3);
        assert_eq!((p50s[0], p50s[2]), (1.0, 5.0));
        assert_eq!(line.closed[1].samples, 0);
        let (p50, p99, rate, n) = block_medians(&[line], 3);
        assert_eq!((p50, p99, rate, n), (1.0, 3.0, 2.0, 4));
    }

    #[test]
    fn a_full_reservoir_keeps_a_uniform_sample() {
        let start = Instant::now();
        let mut line = Timeline::new(1, 7);
        line.begin(start);
        let total = 4 * RESERVOIR as u64;
        for i in 0..total {
            line.push(start, i * 1_000);
        }
        line.finish();
        let stat = line.closed[0];
        assert_eq!((stat.samples, stat.ok), (total, total));
        let true_p50_ms = total as f64 / 2.0 / 1e3;
        assert!((stat.p50_ms / true_p50_ms - 1.0).abs() < 0.05, "{stat:?}");
        assert_eq!(line.buf.len(), RESERVOIR);
    }
}

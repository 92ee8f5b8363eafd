//! Summary statistics: medians, the tail-percentile rule, and the
//! fired-log digest every output check compares.

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// epsilon keeps `99.9 / 100 * 10000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of unsorted samples (upper median for an even count, so the
/// value is always one that was measured).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// One window's latency summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is, by [`tail_percentile`].
    pub tail_pct: f64,
    pub n: usize,
}

/// Summarizes one window of latency samples; `None` if the window is too
/// small to carry a tail.
pub fn window(samples: &[f64]) -> Option<Window> {
    let tail_pct = tail_percentile(samples.len())?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Window {
        p50: percentile(&v, 50.0),
        tail: percentile(&v, tail_pct),
        tail_pct,
        n: v.len(),
    })
}

/// Splits samples (in arrival order) into windows of `size`, the last one
/// absorbing the remainder (so it holds `size..2 * size` samples), and
/// summarizes each. Windows of one size fix which percentile the tail rule
/// picks, so it cannot drift with the run's length.
pub fn windows(samples: &[f64], size: usize) -> Vec<Window> {
    let n = samples.len() / size;
    (0..n)
        .filter_map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * size
            };
            window(&samples[i * size..end])
        })
        .collect()
}

/// Median p50 and median tail over windows, plus the tail percentile and
/// the total sample count behind them.
pub fn summarize(ws: &[Window]) -> Option<(f64, f64, f64, usize)> {
    let first = ws.first()?;
    let p50 = median(&ws.iter().map(|w| w.p50).collect::<Vec<_>>());
    let tail = median(&ws.iter().map(|w| w.tail).collect::<Vec<_>>());
    Some((p50, tail, first.tail_pct, ws.iter().map(|w| w.n).sum()))
}

/// The tail of samples in arrival order: the median over windows of
/// `size` of each window's tail, or, with fewer than `size` samples, the
/// tail of them all; `None` when even that has no tail.
pub fn tail(samples: &[f64], size: usize) -> Option<f64> {
    match summarize(&windows(samples, size)) {
        Some((_, tail, _, _)) => Some(tail),
        None => window(samples).map(|w| w.tail),
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of an engine's fired log and `write` output: equal digests mean
/// the same productions fired on the same timetags, in the same order,
/// printing the same lines.
pub fn engine_digest(eng: &engine::Engine) -> u64 {
    let mut d = Digest::default();
    for (prod, tags) in eng.fired_log() {
        d.u64(prod.index() as u64);
        d.u64(tags.len() as u64);
        for &t in tags {
            d.u64(t);
        }
    }
    for line in eng.output() {
        d.bytes(line.as_bytes());
        d.bytes(b"\n");
    }
    d.finish()
}

//! Percentile and segment arithmetic, and the `/proc` readers for CPU
//! time and memory.

use std::fs;

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=100); 0 for
/// no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps 99.9 % of 1000 at rank 999, not 999.0000000001.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `samples`; 0 for none.
pub fn mean_of(samples: &[u64]) -> f64 {
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len().max(1) as f64
}

/// Mean of the slowest `share` of ascending `sorted` (at least one
/// sample): a tail figure that, unlike a percentile, moves whenever any
/// slow sample moves.
pub fn slowest_mean(sorted: &[u64], share: f64) -> f64 {
    let n = ((sorted.len() as f64 * share).ceil() as usize).clamp(1, sorted.len().max(1));
    mean_of(&sorted[sorted.len().saturating_sub(n)..])
}

/// Latency samples of one workload, split into the equal consecutive
/// segments of its measured window.
pub struct Segmented {
    segments: Vec<Vec<u64>>,
}

impl Segmented {
    pub fn new(segments: usize) -> Self {
        Segmented {
            segments: (0..segments).map(|_| Vec::new()).collect(),
        }
    }

    pub fn reserve(&mut self, per_segment: usize) {
        for s in &mut self.segments {
            s.reserve(per_segment);
        }
    }

    pub fn push(&mut self, segment: usize, sample: u64) {
        let last = self.segments.len() - 1;
        self.segments[segment.min(last)].push(sample);
    }

    pub fn count(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Sorts every segment; call once before [`Self::percentile`].
    pub fn seal(&mut self) {
        for s in &mut self.segments {
            s.sort_unstable();
        }
    }

    /// Median over the non-empty segments of each segment's percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        self.over_segments(|s| percentile(s, p) as f64)
    }

    /// Median over the non-empty segments of `f` of each segment.
    fn over_segments(&self, f: impl Fn(&[u64]) -> f64) -> f64 {
        let per: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| f(s))
            .collect();
        median(&per)
    }

    /// Median over the segments of each segment's mean.
    pub fn mean(&self) -> f64 {
        self.over_segments(mean_of)
    }

    /// Median over the segments of each segment's [`slowest_mean`].
    pub fn slowest_mean(&self, share: f64) -> f64 {
        self.over_segments(|s| slowest_mean(s, share))
    }

    /// All samples of all segments together, ascending.
    pub fn all_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.segments.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Percentile over all samples of all segments together.
    pub fn percentile_all(&self, p: f64) -> u64 {
        percentile(&self.all_sorted(), p)
    }
}

/// On-CPU nanoseconds of the task whose `/proc` directory is `dir`:
/// `schedstat`'s first field, or, on a kernel built without it, user
/// plus system time from `stat` (10 ms ticks).
fn task_cpu_ns(dir: &str) -> Option<u64> {
    let read = |file: &str| fs::read_to_string(format!("{dir}/{file}")).ok();
    if let Some(ns) = read("schedstat").and_then(|s| s.split_whitespace().next()?.parse().ok()) {
        return Some(ns);
    }
    let stat = read("stat")?;
    // Fields 14 and 15, counted after the parenthesised command name.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let ticks: u64 = fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

/// On-CPU nanoseconds of every live thread of this process.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| task_cpu_ns(&t.path().to_string_lossy()))
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    task_cpu_ns("/proc/thread-self").unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 99.9), 999);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.9), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn slowest_mean_takes_the_top_share() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(slowest_mean(&v, 0.01), 199.5);
        assert_eq!(slowest_mean(&v, 1.0), 100.5);
        assert_eq!(slowest_mean(&[5], 0.01), 5.0);
        assert_eq!(slowest_mean(&[], 0.01), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_median_shrugs_off_one_bad_segment() {
        let mut s = Segmented::new(5);
        for seg in 0..5 {
            for i in 1..=100u64 {
                // Segment 3 stalls: everything ten times slower.
                s.push(seg, if seg == 3 { i * 10 } else { i });
            }
        }
        s.push(9, 5); // past the last segment: counted in it
        s.seal();
        assert_eq!(s.count(), 501);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert!(s.percentile_all(99.0) > 900);
        assert_eq!(s.mean(), 50.5);
        assert_eq!(s.slowest_mean(0.01), 100.0);
        // The slowest 6 of 501: 950..=1000 in tens.
        assert_eq!(slowest_mean(&s.all_sorted(), 0.01), 975.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::black_box(0);
        }
        assert!(thread_cpu_ns() > 0);
        assert!(process_cpu_ns() >= thread_cpu_ns() / 2);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn cpu_time_falls_back_to_stat_ticks() {
        let dir = std::env::temp_dir().join(format!("benchmark-stat-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 7 5 0 0 20 0 3 0 100 1000 10";
        fs::write(dir.join("stat"), stat).unwrap();
        assert_eq!(task_cpu_ns(&dir.to_string_lossy()), Some(120_000_000));
        fs::write(dir.join("schedstat"), "987654 321 9\n").unwrap();
        assert_eq!(task_cpu_ns(&dir.to_string_lossy()), Some(987_654));
        fs::remove_dir_all(&dir).unwrap();
    }
}

//! Process and host readings from procfs, and sample statistics.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, fixed at
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system), seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / USER_HZ
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size, bytes.
pub fn rss_bytes() -> u64 {
    status_field("VmRSS:").map_or(0, |kb| kb * 1024)
}

/// Threads in this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// `p`-quantile (0..=1) of `v` by nearest rank on a sorted copy; 0 when
/// empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * p).round() as usize]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Latency samples (µs) in the order their ops finished.
#[derive(Clone, Debug, Default)]
pub struct Lat {
    pub us: Vec<f64>,
}

/// Most chunks [`Lat::tail`] cuts a sample into.
const MAX_CHUNKS: usize = 50;

impl Lat {
    pub fn push(&mut self, us: f64) {
        self.us.push(us);
    }

    pub fn count(&self) -> usize {
        self.us.len()
    }

    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.us, p)
    }

    /// A percentile that a scheduler stall cannot move: the samples are
    /// cut, in order, into chunks just large enough to keep ten samples
    /// beyond the `p`-quantile (at most [`MAX_CHUNKS`] of them), and the
    /// median of the chunks' `p`-quantiles is reported. A stall that
    /// delays fewer than half the chunks leaves it unchanged.
    pub fn tail(&self, p: f64) -> f64 {
        let min_chunk = (10.0 / (1.0 - p)).ceil() as usize;
        let chunks = (self.us.len() / min_chunk).clamp(1, MAX_CHUNKS);
        let size = self.us.len().div_ceil(chunks).max(1);
        let per: Vec<f64> = self.us.chunks(size).map(|c| percentile(c, p)).collect();
        median(&per)
    }
}

#[derive(Clone, Debug, Default)]
pub struct Lats {
    pub classes: Vec<(&'static str, Lat)>,
}

impl Lats {
    pub fn push(&mut self, class: &'static str, us: f64) {
        match self.classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, l)) => l.push(us),
            None => {
                let mut l = Lat::default();
                l.push(us);
                self.classes.push((class, l));
            }
        }
    }

    pub fn count(&self) -> usize {
        self.classes.iter().map(|(_, l)| l.count()).sum()
    }

    fn mean_of(&self, f: impl Fn(&Lat) -> f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.classes
            .iter()
            .map(|(_, l)| f(l) * l.count() as f64)
            .sum::<f64>()
            / n as f64
    }

    pub fn p50(&self) -> f64 {
        self.mean_of(|l| l.tail(0.5))
    }

    pub fn tail(&self, p: f64) -> f64 {
        self.mean_of(|l| l.tail(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_live() {
        use std::time::{Duration, Instant};
        assert!(rss_bytes() > 0);
        assert!(threads() >= 1);
        let t0 = cpu_seconds();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > t0);
    }

    #[test]
    fn tail_ignores_a_stall_over_a_fifth_of_the_run() {
        let mut l = Lat::default();
        for i in 0..5000u32 {
            let stalled = (2000..3000).contains(&i);
            l.push(if stalled { 1e6 } else { f64::from(i % 100) });
        }
        assert_eq!(l.tail(0.99), 98.0);
        assert_eq!(l.tail(0.9), 89.0);
        assert_eq!(l.tail(0.5), 50.0);
    }
}

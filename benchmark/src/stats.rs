//! Order statistics and the two `/proc` readers.

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The highest percentile of `sorted` that still has at least ten samples
/// beyond it, as `(value, percentile)`. With fewer than 21 samples no
/// percentile above the median qualifies, and the median is returned.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 21 {
        let mut copy = sorted.to_vec();
        return (median(&mut copy), 50.0);
    }
    let k = n - 11;
    (sorted[k], 100.0 * (k + 1) as f64 / n as f64)
}

pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// CPU seconds this process and the children it has waited for have used
/// (user + system), from `/proc/self/stat`. Linux reports these in
/// `USER_HZ` ticks, which is 100 on every supported architecture.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime, stime, cutime, cstime are
    // fields 14–17, i.e. 11–14 after the parenthesis.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    rest.split_ascii_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / USER_HZ
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=30).map(f64::from).collect();
        let (value, pct) = tail(&sorted);
        assert_eq!(value, 20.0);
        assert!((pct - 66.666).abs() < 0.01);
        assert_eq!(sorted.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(tail(&sorted[..12]), (6.5, 50.0));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn median_and_geometric_mean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}

//! Order statistics over repetition results, and the process's peak RSS.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly between
/// neighbouring order statistics; `NaN` when empty.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = sorted.get(lo + 1).copied().unwrap_or(last);
    let frac = pos - lo as f64;
    f64::from(sorted[lo]) + frac * (f64::from(hi) - f64::from(sorted[lo]))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn quantile_interpolates_order_statistics() {
        let xs: Vec<u32> = (0..=100).map(|x| x * 10).collect();
        assert_eq!(quantile(&xs, 0.5), 500.0);
        assert_eq!(quantile(&xs, 0.999), 999.0);
        assert_eq!(quantile(&xs, 1.0), 1000.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}

//! The benchmark's own arithmetic: order statistics, the percentile rule,
//! simulated-time throughput, the per-layer closure identity, the error
//! rate and the metric-name charset. Everything here is a pure function so
//! the unit tests below pin it exactly.

/// Median of the samples (mean of the two middle values for an even
/// count); `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail percentile as reported: the value and the percentile it
/// actually is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

/// The highest percentile, at most `target`, that leaves at least
/// `min_above` samples strictly above it by rank (nearest-rank method:
/// the p-th percentile of n sorted samples is the `ceil(p·n/100)`-th).
/// With too few samples for any percentile to qualify, the maximum is
/// reported as the 100th percentile.
pub fn tail_percentile(xs: &[f64], target: f64, min_above: usize) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "tail_percentile of no samples");
    let target_rank = ((target / 100.0) * n as f64).ceil().max(1.0) as usize;
    let (rank, percentile) = if n - target_rank.min(n) >= min_above {
        (target_rank, target)
    } else if n > min_above {
        (n - min_above, 100.0 * (n - min_above) as f64 / n as f64)
    } else {
        (n, 100.0)
    };
    Tail {
        value: s[rank - 1],
        percentile,
    }
}

/// Simulated nanoseconds per wall-clock day: `steps` MD steps of `dt_fs`
/// femtoseconds took `wall_s` seconds. Under r-RESPA every inner step
/// advances `dt_fs`; `longrange_every` only groups steps into cycles, so
/// `steps = cycles × longrange_every`.
pub fn ns_per_day(dt_fs: f64, steps: u64, wall_s: f64) -> f64 {
    dt_fs * 1e-6 * steps as f64 / wall_s * 86_400.0
}

/// MD steps in `cycles` outer RESPA cycles.
pub fn respa_steps(cycles: u64, longrange_every: u32) -> u64 {
    cycles * longrange_every.max(1) as u64
}

/// Outside-in accounting of one measured span: named layer rows plus an
/// `unattributed` remainder defined so the rows close on the span exactly.
pub struct Closure {
    pub rows: Vec<(&'static str, f64)>,
    pub total: f64,
}

impl Closure {
    /// The share of the span no replayed layer call accounts for
    /// (integration, constraints, kicks, dispatch). Negative when the
    /// replayed calls ran slower than the same work inside the span.
    pub fn unattributed(&self) -> f64 {
        self.total - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    /// Largest row by value, with `unattributed` competing as a row.
    pub fn largest(&self) -> (&'static str, f64) {
        let mut best = ("unattributed", self.unattributed());
        for &(name, v) in &self.rows {
            if v > best.1 {
                best = (name, v);
            }
        }
        best
    }

    /// True when rows + unattributed reproduce the total within a few
    /// ulps of the total.
    pub fn closes(&self) -> bool {
        let sum = self.rows.iter().map(|r| r.1).sum::<f64>() + self.unattributed();
        (sum - self.total).abs() <= 1e-9 * self.total.abs().max(1.0)
    }
}

/// Failed checks over attempted checks; 0 when nothing was attempted is
/// never reported because a run always attempts at least one check.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "error rate without a base");
    failed as f64 / attempted as f64
}

/// Metric names: 1 to 64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// SplitMix64: derives every per-workload seed from the one `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_above() {
        // 100 samples 1..=100: p90 is the 90th value, 10 values above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_percentile(&xs, 90.0, 10);
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        // 40 samples: p90 would leave 4 above, so fall to rank 30 (p75).
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail_percentile(&xs, 90.0, 10);
        assert_eq!((t.value, t.percentile), (30.0, 75.0));
        // 101 samples: ceil(90.9) = 91st value, 10 above.
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0, 10).value, 91.0);
        // Shuffled input gives the same answer.
        let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 90.0, 10).value, 30.0);
        // Ten or fewer samples: no percentile qualifies; report the max.
        let xs = [5.0, 1.0, 9.0];
        let t = tail_percentile(&xs, 90.0, 10);
        assert_eq!((t.value, t.percentile), (9.0, 100.0));
    }

    #[test]
    fn ns_per_day_counts_every_respa_inner_step() {
        // 100 cycles of longrange_every = 2 at 2.5 fs = 500 fs = 0.0005 ns
        // in 1 s of wall time: 0.0005 × 86400 = 43.2 ns/day.
        let steps = respa_steps(100, 2);
        assert_eq!(steps, 200);
        assert!((ns_per_day(2.5, steps, 1.0) - 43.2).abs() < 1e-9);
        // Twice the wall time halves the rate; longrange_every 0 counts as 1.
        assert!((ns_per_day(2.5, steps, 2.0) - 21.6).abs() < 1e-9);
        assert_eq!(respa_steps(7, 0), 7);
    }

    #[test]
    fn closure_rows_plus_unattributed_equal_the_total() {
        let c = Closure {
            rows: vec![("a", 3.25), ("b", 1.5), ("c", 0.125)],
            total: 6.0,
        };
        assert_eq!(c.unattributed(), 1.125);
        assert!(c.closes());
        assert_eq!(c.largest(), ("a", 3.25));
        // Replays slower than the span: unattributed goes negative and the
        // identity still holds.
        let c = Closure {
            rows: vec![("a", 5.0), ("b", 2.0)],
            total: 6.0,
        };
        assert_eq!(c.unattributed(), -1.0);
        assert!(c.closes());
    }

    #[test]
    fn error_rate_is_failures_over_attempts() {
        assert_eq!(error_rate(0, 17), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
    }

    #[test]
    #[should_panic(expected = "without a base")]
    fn error_rate_needs_a_base() {
        error_rate(0, 0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "ms_per_step_p50",
            "core.cycle_ms",
            "fft.transform_ns_per_mesh_point",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ns/day",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn splitmix_is_a_fixed_function() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}

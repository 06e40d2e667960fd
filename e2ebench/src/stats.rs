//! Order statistics for benchmark samples.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for even counts);
/// `0.0` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external checker computes.
/// A single sample is its own quartiles; an empty sample gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (`0.0` when the median
/// is zero).
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Time of a pass made of parts, from repeated passes: each part at its
/// fastest over the passes, summed. Contention on a shared host only
/// adds time, and it comes in bursts shorter than a pass, so per-part
/// minima track the code's cost more steadily than any one pass does.
pub fn sum_of_minima(passes: &[Vec<f64>]) -> f64 {
    let parts = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..parts)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The highest of the standard percentiles (50, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it, as `(percentile, value)`,
/// by nearest rank. `None` when fewer than 20 samples exist, since not
/// even the median then has ten samples above it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// How a change compares with its parent on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own spread is wider than the bound, or there are
    /// fewer than ten pairs: no claim either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge paired runs: `parent[i]` and `change[i]` ran back to back.
///
/// A gain needs at least ten pairs, the change winning at least nine
/// tenths of them (ties count for neither side), and medians further
/// apart than the parent's interquartile range. Otherwise the change
/// regresses when its median is worse than the parent's by more than
/// `bound` (a share of the parent's median). A parent whose relative
/// IQR exceeds `bound` leaves the metric unresolved, unless every
/// change run reads better than every parent run.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    // Positive when `b` is better than `a`.
    let gain = |a: f64, b: f64| if lower_is_better { a - b } else { b - a };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(p, c) > 0.0)
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    if wins * 10 >= pairs * 9 && gain(pm, cm) > q3 - q1 {
        return Verdict::Improved;
    }
    let all_better = if lower_is_better {
        change.iter().copied().fold(f64::MIN, f64::max)
            < parent.iter().copied().fold(f64::MAX, f64::min)
    } else {
        change.iter().copied().fold(f64::MAX, f64::min)
            > parent.iter().copied().fold(f64::MIN, f64::max)
    };
    if relative_iqr(parent) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if -gain(pm, cm) > bound * pm.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Length of `[start, end)` covered by the union of `intervals` (each
/// clipped to the window first). Overlapping intervals count once.
fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of it that the
/// union of its children's intervals covers.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped index extrapolates past the sample.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_iqr_is_share_of_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn sum_of_minima_takes_each_part_at_its_fastest() {
        let passes = vec![
            vec![1.0, 5.0, 2.0],
            vec![2.0, 3.0, 4.0],
            vec![3.0, 4.0, 1.5],
        ];
        assert_eq!(sum_of_minima(&passes), 1.0 + 3.0 + 1.5);
        assert_eq!(sum_of_minima(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn verdict_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        // Every pair won by 10%: a gain (lower is better).
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.05), Verdict::Improved);
        // Same runs read as a loss when higher is better.
        assert_eq!(verdict(&parent, &faster, false, 0.05), Verdict::Regressed);
        // Eight wins and two ties: ties count for neither side, so 8/10
        // is short of nine tenths.
        let mut mostly = faster.clone();
        mostly[0] = parent[0];
        mostly[1] = parent[1];
        assert_eq!(verdict(&parent, &mostly, true, 0.05), Verdict::Unchanged);
        // Nine wins and one tie is enough.
        mostly[1] = faster[1];
        assert_eq!(verdict(&parent, &mostly, true, 0.05), Verdict::Improved);
        // Fewer than ten pairs never resolves.
        assert_eq!(
            verdict(&parent[..9], &faster[..9], true, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn verdict_is_unresolved_when_the_parent_spread_exceeds_the_bound() {
        let parent: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
            .collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.02).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.05), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let all_faster = vec![70.0; 10];
        assert_eq!(
            verdict(&parent, &all_faster, true, 0.05),
            Verdict::Unchanged
        );
        // A tight parent and a 10% slower change regress against a 5% bound.
        let tight = vec![100.0; 10];
        let worse = vec![110.0; 10];
        assert_eq!(verdict(&tight, &worse, true, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&tight, &tight, true, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Span [0, 100); children [10, 30) and [20, 50) overlap on
        // [20, 30): the union covers 40, so self time is 60.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 50)]), 60);
        // Disjoint children add up; a child sticking out is clipped.
        assert_eq!(self_time(0, 100, &[(0, 10), (90, 120)]), 80);
        assert_eq!(self_time(5, 10, &[]), 5);
        // A nested grandchild interval inside a child counts once.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
    }
}

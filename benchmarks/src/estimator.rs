//! The estimators every reported number goes through.
//!
//! A run is seven independent rounds. Inside a round the timed phase is cut
//! into *slices* of a quarter second; each slice has its own rate, CPU per
//! op and latency percentiles, taken from exact pre-allocated logs. The
//! round's value is the **quiet-side quartile over its slices**, the run's
//! value the **quiet-side quartile over its rounds** ([`quiet_quartile`]).

use crate::sys::reserved;

/// Wall time of one slice. Longer than any op (a train step is 20 ms, a
/// request under 1 ms) so that a slice's median latency is a median, shorter
/// than the 0.3–1.5 s episodes in which a neighbour slows this host down so
/// that slices between episodes exist.
pub const SLICE_NS: u64 = 250_000_000;

/// Slices to make room for when a timed phase lasts `seconds`, with slack.
pub fn slices_in(seconds: f64) -> usize {
    (seconds * 1e9 / SLICE_NS as f64).ceil() as usize + 16
}

fn quantile_rank(q: f64, samples: u64) -> u64 {
    ((q * samples as f64).ceil() as u64).clamp(1, samples)
}

/// The `q`-quantile of an ascending sample: the value of rank `ceil(q * n)`.
pub fn percentile(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[quantile_rank(q, sorted.len() as u64) as usize - 1] as f64
}

/// How many of `samples` lie beyond the `q`-quantile's rank.
pub fn samples_beyond(q: f64, samples: u64) -> u64 {
    samples - quantile_rank(q, samples)
}

/// The percentile rule: a tail percentile is worth reporting only when at
/// least ten samples lie beyond it.
pub fn percentile_allowed(q: f64, samples: u64) -> bool {
    samples > 0 && samples_beyond(q, samples) >= 10
}

/// Median of a non-empty set; the mean of the middle two for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The quartile of `values` on their better side: the first quartile when
/// lower is better, the third when higher is.
///
/// This is how a round's slices become one number, and a run's rounds.
/// Other tenants of a shared host only ever slow the benchmark down —
/// measured here as 0.3–1.5 s episodes of 1.7x step time, at times covering
/// more than half of a minute — so a median moves with the neighbours (40 %
/// run to run in such a phase) while the quiet-side quartile reads the
/// code's own cost as long as a third of the slices fell between episodes,
/// and unlike the best slice it does not hang on one lucky draw. Quartiles
/// interpolate linearly between order statistics, ends included.
pub fn quiet_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = (sorted.len() - 1) as f64 * if lower_is_better { 0.25 } else { 0.75 };
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// `(max - min) / median`: the noise gauge over a run's rounds.
pub fn spread_share(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// A reading of the three running totals, taken at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub ops: u64,
}

/// What happened between two consecutive marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub ops: u64,
}

/// Pre-allocated log of slice boundaries for one round.
///
/// Boundaries sit on a grid of [`SLICE_NS`] from the round's start, but a
/// generator thread can only look at the clock between ops, so a mark lands
/// at the first look *after* a boundary and every slice carries its own
/// measured length.
pub struct SliceLog {
    marks: Vec<Mark>,
    next_ns: u64,
}

impl SliceLog {
    pub fn with_capacity(slices: usize) -> Self {
        let filler = Mark {
            wall_ns: 1,
            cpu_ns: 1,
            ops: 1,
        };
        SliceLog {
            marks: reserved(filler, slices + 1),
            next_ns: 0,
        }
    }

    /// Opens the round: forgets the previous one and records the origin.
    pub fn start(&mut self, origin: Mark) {
        self.marks.clear();
        self.push(origin);
    }

    /// Whether a boundary has passed since the last mark.
    pub fn due(&self, wall_ns: u64) -> bool {
        wall_ns >= self.next_ns
    }

    /// Records a boundary reading and returns whether there was room for
    /// it. A full log drops the reading: the round then has fewer slices,
    /// never a reallocation inside the timed phase.
    pub fn push(&mut self, mark: Mark) -> bool {
        let room = self.marks.len() < self.marks.capacity();
        if room {
            self.marks.push(mark);
        }
        let origin = self.marks[0].wall_ns;
        let passed = (mark.wall_ns - origin) / SLICE_NS;
        self.next_ns = origin + (passed + 1) * SLICE_NS;
        room
    }

    /// Slices begun so far, the open one included.
    pub fn begun(&self) -> usize {
        self.marks.len()
    }

    /// The slices between consecutive marks. Whatever ran after the last
    /// mark is an incomplete slice and is left out.
    pub fn slices(&self) -> Vec<Slice> {
        self.marks
            .windows(2)
            .map(|pair| Slice {
                wall_ns: pair[1].wall_ns - pair[0].wall_ns,
                cpu_ns: pair[1].cpu_ns - pair[0].cpu_ns,
                ops: pair[1].ops - pair[0].ops,
            })
            .collect()
    }
}

/// One generator's exact latency log for a round, cut where the slices are.
/// Recording never allocates; a full log drops what does not fit. Latencies
/// are nanoseconds in 32 bits: an op of more than 4.29 s reads as 4.29 s.
pub struct OpLog {
    latencies_ns: Vec<u32>,
    /// Index of the first op of each slice.
    starts: Vec<u32>,
}

impl OpLog {
    pub fn with_capacity(ops: usize, slices: usize) -> Self {
        OpLog {
            latencies_ns: reserved(1, ops),
            starts: reserved(1, slices + 1),
        }
    }

    pub fn clear(&mut self) {
        self.latencies_ns.clear();
        self.starts.clear();
    }

    pub fn record(&mut self, latency_ns: u64) {
        if self.latencies_ns.len() < self.latencies_ns.capacity() {
            self.latencies_ns
                .push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
        }
    }

    /// Opens slices until `begun` have been: the ops recorded from here on
    /// belong to the newest.
    pub fn begin_slices(&mut self, begun: usize) {
        while self.starts.len() < begun.min(self.starts.capacity()) {
            self.starts.push(self.latencies_ns.len() as u32);
        }
    }

    /// The latencies recorded during slice `index`.
    pub fn slice(&self, index: usize) -> &[u32] {
        let bound = |i: usize| {
            self.starts
                .get(i)
                .map_or(self.latencies_ns.len(), |&s| s as usize)
        };
        &self.latencies_ns[bound(index)..bound(index + 1)]
    }

    /// Everything recorded since the first slice began.
    pub fn all(&self) -> &[u32] {
        &self.latencies_ns[self.starts.first().map_or(0, |&s| s as usize)..]
    }
}

/// A round's timed phase reduced to its numbers: the quiet-side quartile
/// over its slices of each slice's rate, CPU per op and latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    pub throughput_ops_s: f64,
    pub cpu_ms_per_op: f64,
    pub latency_p50_ms: f64,
    /// The tail percentile and which one it is: p99 where every slice has
    /// ten samples beyond its own p99 (then the quartile over slices of
    /// that), else the highest of p99 and p90 that the round's ops pooled
    /// have ten samples beyond, if either.
    pub latency_tail: Option<(f64, f64)>,
    pub latency_samples: u64,
}

/// Reduces a round. `logs` are its generators' latency logs; slices in which
/// no op completed or no latency was logged are left out. The pooled tail is
/// over every op of the timed phase, the last, incomplete slice included.
pub fn reduce(slices: &[Slice], logs: &[&OpLog]) -> Reduced {
    let (mut rates, mut costs, mut p50s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut every_slice_has_a_tail = true;
    for (index, slice) in slices
        .iter()
        .enumerate()
        .filter(|(_, s)| s.ops > 0 && s.wall_ns > 0)
    {
        rates.push(slice.ops as f64 * 1e9 / slice.wall_ns as f64);
        costs.push(slice.cpu_ns as f64 / slice.ops as f64 / 1e6);
        let mut latencies: Vec<u32> = logs
            .iter()
            .flat_map(|log| log.slice(index))
            .copied()
            .collect();
        if latencies.is_empty() {
            continue;
        }
        latencies.sort_unstable();
        p50s.push(percentile(&latencies, 0.50) / 1e6);
        p99s.push(percentile(&latencies, 0.99) / 1e6);
        every_slice_has_a_tail &= percentile_allowed(0.99, latencies.len() as u64);
    }
    let mut pooled: Vec<u32> = logs.iter().flat_map(|log| log.all()).copied().collect();
    pooled.sort_unstable();
    let samples = pooled.len() as u64;
    let latency_tail = if every_slice_has_a_tail && !p99s.is_empty() {
        Some((0.99, quiet_quartile(&p99s, true)))
    } else {
        [0.99, 0.90]
            .into_iter()
            .find(|&q| percentile_allowed(q, samples))
            .map(|q| (q, percentile(&pooled, q) / 1e6))
    };
    Reduced {
        throughput_ops_s: quiet_quartile(&rates, false),
        cpu_ms_per_op: quiet_quartile(&costs, true),
        latency_p50_ms: quiet_quartile(&p50s, true),
        latency_tail,
        latency_samples: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 500.0);
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&sorted, 1.0), 1000.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond; 999 has 9.
        assert!(percentile_allowed(0.99, 1_000));
        assert!(!percentile_allowed(0.99, 999));
        // A 3 s round of 18 ms steps: p99 is out, p90 is in.
        assert!(!percentile_allowed(0.99, 166));
        assert!(percentile_allowed(0.90, 166));
        assert!(!percentile_allowed(0.5, 0));
        assert_eq!(samples_beyond(0.5, 20), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 5.0]), 4.5);
        let rounds = [100.0, 25.0, 101.0, 24.0, 99.0, 26.0, 100.5];
        assert!((spread_share(&rounds) - 77.0 / 99.0).abs() < 1e-12);
    }

    #[test]
    fn slices_and_rounds_reduce_to_their_quiet_side_quartile() {
        // Seven rates, four of them slowed by a neighbour: the median is a
        // slowed one, the third quartile is not.
        let rates = [26.0, 100.0, 25.0, 24.0, 99.0, 98.0, 27.0];
        assert_eq!(median(&rates), 27.0);
        assert_eq!(quiet_quartile(&rates, false), 98.5);
        // The same as latencies: the first quartile, interpolated.
        let latencies = [38.0, 10.0, 40.0, 41.0, 10.2, 10.4, 37.0];
        assert!((quiet_quartile(&latencies, true) - 10.3).abs() < 1e-9);
        // Exact order statistics where the position is whole.
        assert_eq!(quiet_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0], true), 2.0);
        assert_eq!(quiet_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0], false), 4.0);
        assert_eq!(quiet_quartile(&[7.0], true), 7.0);
    }

    fn mark(wall_ms: u64, cpu_ms: u64, ops: u64) -> Mark {
        Mark {
            wall_ns: wall_ms * 1_000_000,
            cpu_ns: cpu_ms * 1_000_000,
            ops,
        }
    }

    #[test]
    fn slices_are_cut_at_the_first_look_after_a_grid_boundary() {
        let mut log = SliceLog::with_capacity(8);
        log.start(mark(1_000, 0, 0));
        assert!(!log.due(1_249_999_999));
        assert!(log.due(1_250_000_000));
        // The generator looks 18 ms late; the next boundary stays on the grid.
        assert!(log.push(mark(1_268, 260, 14)));
        assert!(!log.due(1_499_000_000));
        assert!(log.due(1_500_000_000));
        // A stall skips a whole boundary: one long slice, grid kept.
        assert!(log.push(mark(1_820, 800, 40)));
        assert!(log.due(2_000_000_000));
        assert_eq!(log.begun(), 3);
        let slices = log.slices();
        assert_eq!(slices.len(), 2);
        assert_eq!(
            (slices[0].wall_ns, slices[0].cpu_ns, slices[0].ops),
            (268_000_000, 260_000_000, 14)
        );
        assert_eq!((slices[1].wall_ns, slices[1].ops), (552_000_000, 26));
    }

    #[test]
    fn a_full_slice_log_drops_marks_and_restarting_forgets_the_round() {
        let mut log = SliceLog::with_capacity(2);
        log.start(mark(0, 0, 0));
        assert!(log.push(mark(250, 250, 10)));
        assert!(log.push(mark(500, 500, 20)));
        assert!(!log.push(mark(750, 750, 30)));
        assert_eq!(log.slices().len(), 2);
        log.start(mark(9_000, 0, 0));
        assert!(log.slices().is_empty());
        assert!(log.due(9_250_000_000) && !log.due(9_249_999_999));
    }

    #[test]
    fn an_op_log_is_cut_where_the_slices_are_and_drops_what_does_not_fit() {
        let mut log = OpLog::with_capacity(5, 4);
        log.record(1); // warm-up, before the first slice
        log.begin_slices(1);
        log.record(10);
        log.record(11);
        log.begin_slices(3); // slice 1 passed without an op of this generator
        log.record(30);
        log.record(u64::MAX);
        log.record(99); // no room left
        assert_eq!(log.slice(0), &[10, 11]);
        assert_eq!(log.slice(1), &[] as &[u32]);
        assert_eq!(log.slice(2), &[30, u32::MAX]);
        assert_eq!(log.slice(3), &[] as &[u32]);
        assert_eq!(log.all(), &[10, 11, 30, u32::MAX]);
        log.clear();
        assert!(log.all().is_empty());
    }

    #[test]
    fn a_round_reduces_to_quartiles_over_its_slices() {
        // Four slices of a quarter second; the third one is slowed.
        let slice = |ops: u64, cpu_ms: u64| Slice {
            wall_ns: 250_000_000,
            cpu_ns: cpu_ms * 1_000_000,
            ops,
        };
        let slices = [
            slice(100, 200),
            slice(104, 208),
            slice(50, 200),
            slice(96, 192),
        ];
        let mut log = OpLog::with_capacity(400, 8);
        for (index, (ops, latency_ms)) in [(100, 2u64), (104, 2), (50, 5), (96, 3)]
            .into_iter()
            .enumerate()
        {
            log.begin_slices(index + 1);
            (0..ops).for_each(|_| log.record(latency_ms * 1_000_000));
        }
        let round = reduce(&slices, &[&log]);
        // Rates 400, 416, 200, 384 -> third quartile 404; latencies 2, 2, 5, 3
        // ms -> first quartile 2; CPU per op 2, 2, 4, 2 ms -> 2.
        assert_eq!(round.throughput_ops_s, 404.0);
        assert_eq!(round.latency_p50_ms, 2.0);
        assert_eq!(round.cpu_ms_per_op, 2.0);
        assert_eq!(round.latency_samples, 350);
        // No slice has ten samples beyond its p99, but the round's 350 ops
        // have 35 beyond their p90.
        assert_eq!(round.latency_tail, Some((0.90, 5.0)));
    }
}

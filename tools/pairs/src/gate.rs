//! What alternating pairs say about one (workload, host metric): both
//! sides' medians and quartiles, how many pairs the change won, and the
//! host-speed gate's verdict.

/// A host metric of `BENCHMARK.json`'s `end_to_end` list: whether higher
/// is better, and the share of the parent's median by which it may get
/// worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMetric {
    pub name: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The host metrics every workload reports. The `model_*` metrics are
/// deterministic in the seed and go through `--model` instead.
pub const HOST_METRICS: [HostMetric; 3] = [
    HostMetric {
        name: "setup_s",
        higher_is_better: false,
        bound: 0.25,
    },
    HostMetric {
        name: "wall_tokens_per_s",
        higher_is_better: true,
        bound: 0.25,
    },
    HostMetric {
        name: "peak_rss_mb",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// One side's samples: median and quartiles by the rule of Python's
/// `statistics.quantiles(n=4)` (the "exclusive" method), which the
/// benchmark's own results files use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// # Panics
    ///
    /// On no samples or a NaN sample.
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN sample"));
        assert!(!v.is_empty(), "a summary of no samples");
        if v.len() == 1 {
            return Self {
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let n = v.len();
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    pub fn iqr(self) -> f64 {
        self.q3 - self.q1
    }
}

/// The fewest pairs a gain or a loss can rest on.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least [`MIN_PAIRS`] pairs, the change won nine in ten or
    /// more, and its median is better than the parent's by more than the
    /// parent's inter-quartile range.
    Gain,
    /// The same, the other way round, but within the metric's bound.
    Loss,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regressed,
    /// None of the above: the pairs cannot tell the two apart, or are
    /// too few to.
    Even,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Self::Gain => "gain",
            Self::Loss => "loss",
            Self::Regressed => "regressed",
            Self::Even => "even",
        }
    }
}

/// One (workload, host metric) over `(parent, change)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    pub parent: Summary,
    pub change: Summary,
    /// Pairs in which the change was strictly better.
    pub wins: usize,
    /// Pairs in which the change was strictly worse.
    pub losses: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges `pairs` of `(parent, change)` samples of `metric`.
///
/// # Panics
///
/// On no pairs or a NaN sample.
pub fn judge(metric: HostMetric, pairs: &[(f64, f64)]) -> Judged {
    let parent = Summary::of(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let change = Summary::of(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    // How much better the change is than the parent, in the metric's unit.
    let better = |parent: f64, change: f64| {
        if metric.higher_is_better {
            change - parent
        } else {
            parent - change
        }
    };
    let wins = pairs.iter().filter(|&&(p, c)| better(p, c) > 0.0).count();
    let losses = pairs.iter().filter(|&&(p, c)| better(p, c) < 0.0).count();
    let n = pairs.len();
    let apart = better(parent.median, change.median);
    let enough = n >= MIN_PAIRS;
    let verdict = if -apart > metric.bound * parent.median.abs() {
        Verdict::Regressed
    } else if enough && wins * 10 >= n * 9 && apart > parent.iqr() {
        Verdict::Gain
    } else if enough && losses * 10 >= n * 9 && -apart > parent.iqr() {
        Verdict::Loss
    } else {
        Verdict::Even
    };
    Judged {
        parent,
        change,
        wins,
        losses,
        pairs: n,
        verdict,
    }
}

/// The `<workload> <metric> <value> <unit>` lines of a benchmark run's
/// stdout, as `(workload, metric, value)`.
pub fn metric_lines(stdout: &str) -> Vec<(&str, &str, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                [workload, metric, value, _unit] if !workload.starts_with('#') => {
                    Some((workload, metric, value.parse().ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: HostMetric = HOST_METRICS[1];
    const RSS: HostMetric = HOST_METRICS[2];

    /// Ten parent runs around 100 (quartiles 98.75 / 101.25).
    const PARENT: [f64; 10] = [
        97.0, 103.0, 99.0, 101.0, 100.0, 98.0, 102.0, 100.0, 99.0, 101.0,
    ];

    /// Canned child output: one workload's metric lines among the
    /// comments and the result line a benchmark run prints.
    fn child_output(wall: f64) -> String {
        format!(
            "# long-decode: open loop\n\
             long-decode setup_s 0.0000013 s\n\
             long-decode wall_tokens_per_s {wall} tokens/s\n\
             long-decode peak_rss_mb 5.7 MB\n\
             long-decode stream_digest 0x12ab hex\n\
             # results written to out/results.json\n\
             {{\"correct\":true,\"attempted\":42,\"failed\":0}}\n"
        )
    }

    /// The pairs of `change` against [`PARENT`], each side read back from
    /// canned child output.
    fn pairs(change: [f64; 10]) -> Vec<(f64, f64)> {
        let wall = |value: f64| {
            let out = child_output(value);
            let lines = metric_lines(&out);
            let found = lines
                .iter()
                .find(|l| (l.0, l.1) == ("long-decode", WALL.name));
            found.expect("the wall line").2
        };
        PARENT
            .iter()
            .zip(change)
            .map(|(&p, c)| (wall(p), wall(c)))
            .collect()
    }

    #[test]
    fn nine_wins_of_ten_past_the_parents_spread_are_a_gain() {
        // ×1.10, but the change loses the parent's best pair.
        let mut change = PARENT.map(|p| p * 1.10);
        change[1] = 102.0;
        let judged = judge(WALL, &pairs(change));
        assert_eq!((judged.wins, judged.pairs), (9, 10));
        assert_eq!(judged.verdict, Verdict::Gain);
        // Five pairs won out of five are too few to call.
        let five = &pairs(PARENT.map(|p| p * 1.10))[..5];
        assert_eq!(judge(WALL, five).verdict, Verdict::Even);
    }

    #[test]
    fn eight_wins_of_ten_are_no_gain() {
        let mut change = PARENT.map(|p| p * 1.10);
        change[1] = 102.0;
        change[6] = 101.0;
        let judged = judge(WALL, &pairs(change));
        assert_eq!((judged.wins, judged.losses), (8, 2));
        assert!(judged.change.median - judged.parent.median > judged.parent.iqr());
        assert_eq!(judged.verdict, Verdict::Even);
    }

    #[test]
    fn medians_inside_the_parents_spread_are_no_gain_even_winning_every_pair() {
        let judged = judge(WALL, &pairs(PARENT.map(|p| p + 1.0)));
        assert_eq!(judged.wins, 10);
        assert_eq!(judged.parent.iqr(), 2.5);
        assert_eq!(judged.change.median - judged.parent.median, 1.0);
        assert_eq!(judged.verdict, Verdict::Even);
    }

    #[test]
    fn a_loss_within_the_bound_and_a_regression_past_it() {
        let judged = judge(WALL, &pairs(PARENT.map(|p| p * 0.9)));
        assert_eq!((judged.losses, judged.verdict), (10, Verdict::Loss));
        let judged = judge(WALL, &pairs(PARENT.map(|p| p * 0.7)));
        assert_eq!(judged.verdict, Verdict::Regressed);
        // Lower is better for memory: 30 % more is past its bound.
        let rss: Vec<_> = PARENT.iter().map(|&p| (p, p * 1.3)).collect();
        assert_eq!(judge(RSS, &rss).verdict, Verdict::Regressed);
        let rss: Vec<_> = PARENT.iter().map(|&p| (p, p * 0.8)).collect();
        assert_eq!(judge(RSS, &rss).verdict, Verdict::Gain);
    }

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // Python: statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // [1..=9] == [2.5, 5.0, 7.5].
        let s = Summary::of(&ten[..9]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn only_metric_lines_are_read() {
        let out = child_output(950.5);
        let lines = metric_lines(&out);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[1], ("long-decode", "wall_tokens_per_s", 950.5));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

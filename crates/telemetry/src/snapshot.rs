//! Point-in-time, JSON-serializable views of the registry.

use serde::Serialize;

use crate::metrics::{Counter, Gauge, Histogram, Series, Timer};

/// A frozen counter value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// A frozen gauge value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// A frozen timer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimerSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total accumulated seconds.
    pub total_seconds: f64,
    /// Mean seconds per span (0 when empty).
    pub mean_seconds: f64,
    /// Longest single span in seconds.
    pub max_seconds: f64,
}

/// One histogram bucket: observations `<= le` not counted by any earlier
/// bucket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// A frozen histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets in increasing bound order.
    pub buckets: Vec<HistogramBucket>,
}

/// A frozen series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// The recorded trajectory, in push order.
    pub values: Vec<f64>,
    /// Observations dropped at [`crate::SERIES_CAP`].
    pub truncated: u64,
}

/// Every registered metric, frozen and sorted by name. Serializes to the
/// `telemetry` block of `BENCH_mdp.json` via the workspace serde shim.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// Whether recording was enabled when the snapshot was taken.
    pub enabled: bool,
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All timers.
    pub timers: Vec<TimerSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// All series.
    pub series: Vec<SeriesSnapshot>,
}

impl TelemetrySnapshot {
    pub(crate) fn empty(enabled: bool) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled,
            counters: Vec::new(),
            gauges: Vec::new(),
            timers: Vec::new(),
            histograms: Vec::new(),
            series: Vec::new(),
        }
    }

    pub(crate) fn push_counter(&mut self, name: &str, c: &Counter) {
        self.counters.push(CounterSnapshot {
            name: name.to_string(),
            value: c.value(),
        });
    }

    pub(crate) fn push_gauge(&mut self, name: &str, g: &Gauge) {
        self.gauges.push(GaugeSnapshot {
            name: name.to_string(),
            value: g.value(),
        });
    }

    pub(crate) fn push_timer(&mut self, name: &str, t: &Timer) {
        let count = t.count();
        let total_seconds = t.total_nanos() as f64 / 1e9;
        self.timers.push(TimerSnapshot {
            name: name.to_string(),
            count,
            total_seconds,
            mean_seconds: if count == 0 {
                0.0
            } else {
                total_seconds / count as f64
            },
            max_seconds: t.max_nanos() as f64 / 1e9,
        });
    }

    pub(crate) fn push_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.push(HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h
                .nonzero_buckets()
                .into_iter()
                .map(|(le, count)| HistogramBucket { le, count })
                .collect(),
        });
    }

    pub(crate) fn push_series(&mut self, name: &str, s: &Series) {
        self.series.push(SeriesSnapshot {
            name: name.to_string(),
            values: s.values(),
            truncated: s.truncated(),
        });
    }

    pub(crate) fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.timers.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        self.series.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// The value of a counter by name. A counter that was never registered
    /// reads 0, exactly like one that was registered and never moved: a
    /// snapshot cannot tell the two apart, so no reading depends on which
    /// code path (or which earlier test) happened to register the name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The value of a gauge by name; 0 if never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.value)
    }

    /// The histogram by name; empty if never registered.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .cloned()
            .unwrap_or_else(|| HistogramSnapshot {
                name: name.to_string(),
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            })
    }

    /// The series trajectory by name; empty if never registered.
    pub fn series(&self, name: &str) -> SeriesSnapshot {
        self.series
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .unwrap_or_else(|| SeriesSnapshot {
                name: name.to_string(),
                values: Vec::new(),
                truncated: 0,
            })
    }

    /// The timer by name; empty if never registered.
    pub fn timer(&self, name: &str) -> TimerSnapshot {
        self.timers
            .iter()
            .find(|t| t.name == name)
            .cloned()
            .unwrap_or_else(|| TimerSnapshot {
                name: name.to_string(),
                count: 0,
                total_seconds: 0.0,
                mean_seconds: 0.0,
                max_seconds: 0.0,
            })
    }

    /// The incremental change since `baseline`: what was recorded between
    /// the two snapshots, without ever resetting the live registry (see
    /// the reset contract on [`crate::reset`]).
    ///
    /// Per metric family:
    ///
    /// * **Counters, timers, histograms** — accumulation counts are
    ///   subtracted (saturating, so a reset between the snapshots degrades
    ///   to the full current value rather than wrapping); entries that did
    ///   not change are dropped. A timer's `max_seconds` and a histogram's
    ///   `min`/`max` are lifetime extrema, not window extrema — they carry
    ///   the *current* value, the one field that cannot be differenced.
    /// * **Gauges** — instantaneous values; the delta keeps the current
    ///   value and drops gauges that did not move.
    /// * **Series** — append-only trajectories; the delta is the suffix
    ///   pushed since the baseline.
    ///
    /// Metrics absent from the baseline (registered later) read as zero
    /// there, so they appear whole.
    pub fn delta_since(&self, baseline: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut delta = TelemetrySnapshot::empty(self.enabled);
        for c in &self.counters {
            let before = baseline.counter(&c.name);
            let value = c.value.saturating_sub(before);
            if value > 0 {
                delta.counters.push(CounterSnapshot {
                    name: c.name.clone(),
                    value,
                });
            }
        }
        for g in &self.gauges {
            if baseline.gauge(&g.name) != g.value {
                delta.gauges.push(g.clone());
            }
        }
        for t in &self.timers {
            let base = baseline.timer(&t.name);
            let count = t.count.saturating_sub(base.count);
            if count == 0 {
                continue;
            }
            let total_seconds = (t.total_seconds - base.total_seconds).max(0.0);
            delta.timers.push(TimerSnapshot {
                name: t.name.clone(),
                count,
                total_seconds,
                mean_seconds: total_seconds / count as f64,
                max_seconds: t.max_seconds,
            });
        }
        for h in &self.histograms {
            let base = baseline.histogram(&h.name);
            let count = h.count.saturating_sub(base.count);
            if count == 0 {
                continue;
            }
            let buckets = h
                .buckets
                .iter()
                .filter_map(|b| {
                    let before = base
                        .buckets
                        .iter()
                        .find(|x| x.le == b.le)
                        .map_or(0, |x| x.count);
                    let c = b.count.saturating_sub(before);
                    (c > 0).then_some(HistogramBucket { le: b.le, count: c })
                })
                .collect();
            delta.histograms.push(HistogramSnapshot {
                name: h.name.clone(),
                count,
                sum: h.sum.saturating_sub(base.sum),
                min: h.min,
                max: h.max,
                buckets,
            });
        }
        for s in &self.series {
            let base = baseline.series(&s.name);
            let skip = base.values.len().min(s.values.len());
            let values: Vec<f64> = s.values[skip..].to_vec();
            let truncated = s.truncated.saturating_sub(base.truncated);
            if !values.is_empty() || truncated > 0 {
                delta.series.push(SeriesSnapshot {
                    name: s.name.clone(),
                    values,
                    truncated,
                });
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serializes_to_json() {
        let snap = TelemetrySnapshot {
            enabled: true,
            counters: vec![CounterSnapshot {
                name: "a".into(),
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "g".into(),
                value: -2,
            }],
            timers: vec![TimerSnapshot {
                name: "t".into(),
                count: 1,
                total_seconds: 0.5,
                mean_seconds: 0.5,
                max_seconds: 0.5,
            }],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                count: 2,
                sum: 4,
                min: 1,
                max: 3,
                buckets: vec![HistogramBucket { le: 3, count: 2 }],
            }],
            series: vec![SeriesSnapshot {
                name: "s".into(),
                values: vec![0.5, 0.25],
                truncated: 0,
            }],
        };
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""enabled":true"#));
        assert!(json.contains(r#""counters":[{"name":"a","value":3}]"#));
        assert!(json.contains(r#""buckets":[{"le":3,"count":2}]"#));
        assert!(json.contains(r#""values":[0.5,0.25]"#));
    }

    #[test]
    fn delta_subtracts_counts_and_keeps_changes_only() {
        let mut before = TelemetrySnapshot::empty(true);
        before.counters.push(CounterSnapshot {
            name: "steady".into(),
            value: 5,
        });
        before.counters.push(CounterSnapshot {
            name: "moving".into(),
            value: 2,
        });
        before.gauges.push(GaugeSnapshot {
            name: "level".into(),
            value: 7,
        });
        before.timers.push(TimerSnapshot {
            name: "t".into(),
            count: 2,
            total_seconds: 1.0,
            mean_seconds: 0.5,
            max_seconds: 0.8,
        });
        let mut after = before.clone();
        after.counters[1].value = 9;
        after.counters.push(CounterSnapshot {
            name: "fresh".into(),
            value: 4,
        });
        after.timers[0] = TimerSnapshot {
            name: "t".into(),
            count: 6,
            total_seconds: 3.0,
            mean_seconds: 0.5,
            max_seconds: 0.9,
        };
        let d = after.delta_since(&before);
        assert_eq!(d.counter("steady"), 0, "unchanged counters are dropped");
        assert_eq!(d.counter("moving"), 7);
        assert_eq!(d.counter("fresh"), 4, "new metrics appear whole");
        assert!(d.gauges.is_empty(), "unmoved gauges are dropped");
        let t = d.timer("t");
        assert_eq!(t.count, 4);
        assert!((t.total_seconds - 2.0).abs() < 1e-12);
        assert!((t.mean_seconds - 0.5).abs() < 1e-12);
        assert_eq!(t.max_seconds, 0.9, "max carries the current extremum");
    }

    #[test]
    fn delta_diffs_histograms_per_bucket_and_series_by_suffix() {
        let mut before = TelemetrySnapshot::empty(true);
        before.histograms.push(HistogramSnapshot {
            name: "h".into(),
            count: 3,
            sum: 6,
            min: 1,
            max: 4,
            buckets: vec![
                HistogramBucket { le: 1, count: 1 },
                HistogramBucket { le: 4, count: 2 },
            ],
        });
        before.series.push(SeriesSnapshot {
            name: "s".into(),
            values: vec![1.0, 0.5],
            truncated: 0,
        });
        let mut after = before.clone();
        after.histograms[0].count = 5;
        after.histograms[0].sum = 22;
        after.histograms[0].max = 8;
        after.histograms[0].buckets = vec![
            HistogramBucket { le: 1, count: 1 },
            HistogramBucket { le: 4, count: 3 },
            HistogramBucket { le: 8, count: 1 },
        ];
        after.series[0].values.push(0.25);
        let d = after.delta_since(&before);
        let h = d.histogram("h");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 16);
        assert_eq!(
            h.buckets,
            vec![
                HistogramBucket { le: 4, count: 1 },
                HistogramBucket { le: 8, count: 1 },
            ],
            "only buckets that grew survive, with differenced counts"
        );
        assert_eq!(d.series("s").values, vec![0.25]);
        let none = after.delta_since(&after);
        assert!(none.histograms.is_empty() && none.series.is_empty());
    }

    #[test]
    fn timer_mean_handles_empty() {
        let t = Timer::default();
        let mut snap = TelemetrySnapshot::empty(false);
        snap.push_timer("t", &t);
        assert_eq!(snap.timers[0].mean_seconds, 0.0);
        assert_eq!(snap.timer("t").count, 0);
    }
}

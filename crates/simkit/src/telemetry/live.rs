//! Live (streaming) aggregation with bounded memory.
//!
//! [`TraceAnalysis`] in exact mode keeps every finite observation so its
//! percentiles are exact — the right trade for a finished trace, but a
//! watcher that follows a multi-hour sweep cannot afford a growing
//! buffer per metric, and an in-process health monitor must not turn
//! the run it watches into an allocation benchmark. This module holds
//! the two pieces behind the analysis's bounded mode:
//!
//! * [`P2Grid`] — an extended-P² (Jain & Chlamtac; Raatikainen's
//!   multi-quantile extension) marker grid: thirteen markers tracking
//!   several quantiles jointly in O(1) memory and O(1) update, exact
//!   for the first thirteen observations and validated against the
//!   exact [`stats::percentile`] in tests.
//!   The dense grid keeps every reported quantile's interpolation
//!   bracket narrow, which is what lets the estimate survive bimodal
//!   gaps and heavy tails that defeat the classic five-marker form.
//!   A bounded [`Rollup`](super::analyze::Rollup) ranks through one;
//! * [`LiveSink`] — a [`TelemetrySink`] folding events into a bounded
//!   [`TraceAnalysis`] as they are emitted, self-timing its own cost so
//!   a run can report (and CI can gate) the overhead of being watched.
//!   `experiments::telemetry::TelemetryCtx` attaches one to every
//!   traced run; its snapshot feeds the run's metrics table.

use super::analyze::TraceAnalysis;
use super::{Event, TelemetrySink};
use crate::stats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The marker grid: the quantile each marker tracks. Chosen so every
/// *reported* quantile (0.5, 0.95, 0.99) has both neighbours within
/// 0.125 rank points — narrow interpolation brackets are what keep the
/// estimates honest across bimodal density gaps and heavy tails, where
/// the classic five-marker P² (whose median bracket spans 0.25–0.75)
/// drifts by tens of rank points.
const MARKER_Q: [f64; 13] = [
    0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.6875, 0.75, 0.875, 0.95, 0.975, 0.99, 1.0,
];

/// Number of markers in the grid.
const MARKERS: usize = MARKER_Q.len();

/// Streaming multi-quantile estimator via the extended P² algorithm
/// (Jain & Chlamtac, CACM 1985; Raatikainen's simultaneous-quantile
/// extension): a fixed grid of thirteen markers whose heights converge
/// on thirteen fixed quantiles (0, 0.125, …, 0.99, 1) without storing
/// the sample.
///
/// The first thirteen observations are kept verbatim, so estimates for
/// n ≤ 13 equal the exact linear-interpolated percentile. Beyond that
/// the estimate carries the algorithm's usual error, which shrinks with
/// sample size and is bounded in rank terms (see the module tests for
/// the documented tolerance).
#[derive(Debug, Clone, PartialEq)]
pub struct P2Grid {
    /// Marker heights (sorted ascending once initialised).
    heights: [f64; MARKERS],
    /// Actual marker positions (1-based ranks).
    positions: [f64; MARKERS],
    /// Observations folded in so far.
    count: u64,
}

impl Default for P2Grid {
    fn default() -> Self {
        P2Grid::new()
    }
}

impl P2Grid {
    /// A fresh estimator.
    pub fn new() -> Self {
        P2Grid {
            heights: [0.0; MARKERS],
            positions: [0.0; MARKERS],
            count: 0,
        }
    }

    /// Observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one finite observation in. Non-finite values must be
    /// filtered by the caller (the rollup layer counts them separately).
    pub fn observe(&mut self, x: f64) {
        if (self.count as usize) < MARKERS {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count as usize == MARKERS {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
                for (i, p) in self.positions.iter_mut().enumerate() {
                    *p = (i + 1) as f64;
                }
            }
            return;
        }
        self.count += 1;

        // Locate the marker cell containing x, extending the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[MARKERS - 1] {
            self.heights[MARKERS - 1] = x;
            MARKERS - 2
        } else {
            // heights[k] <= x < heights[k+1] for some interior k.
            (0..MARKERS - 1)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is below the top marker")
        };
        for i in (k + 1)..MARKERS {
            self.positions[i] += 1.0;
        }

        // Nudge the interior markers toward their desired ranks.
        let n = self.count as f64;
        for (i, &q) in MARKER_Q.iter().enumerate().take(MARKERS - 1).skip(1) {
            let desired = 1.0 + (n - 1.0) * q;
            let d = desired - self.positions[i];
            let ahead = self.positions[i + 1] - self.positions[i];
            let behind = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && ahead > 1.0) || (d <= -1.0 && behind < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height update for marker `i`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola escapes the neighbour heights.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate of quantile `q`; `None` before any
    /// observation or for a `q` the grid does not track. Exact
    /// (matching [`stats::percentile`]) while n ≤ 13.
    pub fn estimate(&self, q: f64) -> Option<f64> {
        let marker = MARKER_Q.iter().position(|&t| (t - q).abs() < 1e-12)?;
        match self.count {
            0 => None,
            n if (n as usize) < MARKERS => {
                let mut head = self.heights[..n as usize].to_vec();
                head.sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
                stats::percentile(&head, q * 100.0)
            }
            _ => Some(self.heights[marker]),
        }
    }
}

/// A [`TelemetrySink`] that folds every event into a bounded
/// [`TraceAnalysis`] as it is emitted, timing itself so the run can
/// report what live aggregation cost.
///
/// Intended to ride in a fanout next to the JSONL sink: the run gains
/// an in-process aggregate (queryable mid-run via
/// [`LiveSink::snapshot`], rendered as the metrics table, fed to the
/// rules engine) at a measured, self-reported price —
/// [`LiveSink::overhead_us`] backs the `telemetry.live.overhead`
/// counter and the BENCH live-overhead axis.
#[derive(Debug)]
pub struct LiveSink {
    analysis: Mutex<TraceAnalysis>,
    overhead_ns: AtomicU64,
}

impl Default for LiveSink {
    fn default() -> Self {
        LiveSink {
            analysis: Mutex::new(TraceAnalysis::bounded()),
            overhead_ns: AtomicU64::new(0),
        }
    }
}

impl LiveSink {
    /// An empty sink.
    pub fn new() -> Self {
        LiveSink::default()
    }

    /// A snapshot of the aggregate state so far.
    pub fn snapshot(&self) -> TraceAnalysis {
        self.analysis.lock().expect("live sink poisoned").clone()
    }

    /// Events folded in so far.
    pub fn events(&self) -> u64 {
        self.analysis.lock().expect("live sink poisoned").events
    }

    /// Total time spent inside the aggregator, whole microseconds.
    pub fn overhead_us(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed) / 1_000
    }
}

impl TelemetrySink for LiveSink {
    fn record(&self, event: &Event) {
        let started = Instant::now();
        self.analysis
            .lock()
            .expect("live sink poisoned")
            .observe(event);
        self.overhead_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use crate::telemetry::analyze::{ParsedEvent, Rollup};
    use crate::telemetry::{EventKind, Telemetry};
    use std::sync::Arc;

    /// Exact reference percentile over a sample.
    fn exact(values: &[f64], p: f64) -> f64 {
        stats::percentile(values, p).expect("non-empty sample")
    }

    /// Rank of `estimate` within `values`: the fraction of the sample
    /// strictly below it. A quantile estimator is judged by how close
    /// this lands to the target quantile — value-space error is
    /// meaningless for heavy tails and bimodal gaps.
    fn rank_of(values: &[f64], estimate: f64) -> f64 {
        let below = values.iter().filter(|&&v| v < estimate).count();
        below as f64 / values.len() as f64
    }

    /// Documented tolerance: for n ≥ 200 the P² estimate of quantile q
    /// must sit within 5 percentile points of rank q.
    const RANK_TOL: f64 = 0.05;

    fn check_rank(values: &[f64], q: f64) {
        let mut est = P2Grid::new();
        for &v in values {
            est.observe(v);
        }
        let rank = rank_of(values, est.estimate(q).expect("non-empty"));
        assert!(
            (rank - q).abs() <= RANK_TOL,
            "q={q}: estimate rank {rank:.4} off target by {:.4}",
            (rank - q).abs()
        );
    }

    #[test]
    fn p2_is_exact_below_the_marker_count() {
        // n < 13 (the marker count) must match stats::percentile bit
        // for bit — this covers the adversarial n < 5 case exactly.
        let sample = [
            4.0, -1.5, 2.25, 9.0, 0.0, 7.5, -3.0, 1.0, 6.0, 2.0, 8.0, 5.0,
        ];
        for n in 1..=sample.len() {
            let head = &sample[..n];
            let mut est = P2Grid::new();
            for &v in head {
                est.observe(v);
            }
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(est.estimate(q), Some(exact(head, q * 100.0)), "n={n} q={q}");
            }
        }
        assert_eq!(P2Grid::new().estimate(0.5), None);
    }

    #[test]
    fn p2_tracks_a_constant_distribution_exactly() {
        let mut est = P2Grid::new();
        for _ in 0..1000 {
            est.observe(42.5);
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(est.estimate(q), Some(42.5), "q={q}");
        }
    }

    #[test]
    fn p2_ignores_untracked_quantiles() {
        let mut est = P2Grid::new();
        for i in 0..100 {
            est.observe(i as f64);
        }
        assert_eq!(est.estimate(0.42), None);
        assert_eq!(est.count(), 100);
    }

    #[test]
    fn p2_tracks_uniform_and_ramp_distributions() {
        let mut rng = DeterministicRng::new(0x11ec);
        let uniform: Vec<f64> = (0..2000).map(|_| rng.uniform_f64() * 10.0).collect();
        let ramp: Vec<f64> = (0..2000).map(|i| i as f64 * 0.5).collect();
        for q in [0.5, 0.95, 0.99] {
            check_rank(&uniform, q);
            check_rank(&ramp, q);
        }
        // Uniform on [0, 10]: value-space agreement is also tight.
        let mut est = P2Grid::new();
        for &v in &uniform {
            est.observe(v);
        }
        let err = (est.estimate(0.5).unwrap() - exact(&uniform, 50.0)).abs();
        assert!(err < 0.5, "uniform p50 off by {err}");
    }

    #[test]
    fn p2_tracks_bimodal_distributions() {
        // Two far-apart modes: 70% near 1.0, 30% near 1000.0.
        let mut rng = DeterministicRng::new(0xb1d0);
        let bimodal: Vec<f64> = (0..3000)
            .map(|_| {
                if rng.uniform_f64() < 0.7 {
                    1.0 + rng.uniform_f64()
                } else {
                    1000.0 + rng.uniform_f64() * 10.0
                }
            })
            .collect();
        for q in [0.5, 0.95, 0.99] {
            check_rank(&bimodal, q);
        }
    }

    #[test]
    fn p2_tracks_heavy_tailed_distributions() {
        // Pareto-ish: x = u^-2 on (0, 1] has a heavy right tail.
        let mut rng = DeterministicRng::new(0x7a11);
        let heavy: Vec<f64> = (0..3000)
            .map(|_| (1.0 - rng.uniform_f64()).max(1e-6).powi(-2))
            .collect();
        for q in [0.5, 0.95, 0.99] {
            check_rank(&heavy, q);
        }
    }

    #[test]
    fn streaming_rollup_moments_are_exact() {
        let mut streaming = Rollup::bounded();
        let mut batch = Rollup::exact();
        let mut rng = DeterministicRng::new(0x5eed);
        for _ in 0..500 {
            let v = rng.uniform_f64() * 200.0 - 100.0;
            streaming.observe(v);
            batch.observe(v);
        }
        streaming.observe(f64::NAN);
        batch.observe(f64::NAN);
        assert_eq!(streaming.count(), batch.count());
        assert_eq!(streaming.non_finite(), batch.non_finite());
        assert_eq!(streaming.min(), batch.min());
        assert_eq!(streaming.max(), batch.max());
        assert_eq!(streaming.mean(), batch.mean());
        assert_eq!(streaming.percentile(0.0), batch.min());
        assert_eq!(streaming.percentile(100.0), batch.max());
        assert_eq!(streaming.percentile(42.0), None);
        assert!(batch.percentile(42.0).is_some());
        assert_eq!(streaming.values(), None);
    }

    /// A synthetic run exercising every aggregated kind.
    fn sample_events() -> Vec<Event> {
        let (tel, sink) = Telemetry::recorder();
        {
            let _run = tel.span("engine.run");
            for k in 0..40u64 {
                tel.event(EventKind::Gating, "engine.gating")
                    .field_u64("decision", k)
                    .field_u64("active", 10 + k % 7)
                    .field_u64("turned_on", 1)
                    .field_u64("turned_off", k % 3)
                    .emit();
                tel.counter("engine.decisions", 1);
                tel.histogram("engine.window_noise_pct", 4.0 + (k % 11) as f64);
                tel.solve("thermal.gs", 10 + (k % 5) as usize, 1e-9 * (k + 1) as f64);
                tel.event(EventKind::Emergency, "engine.emergency_check")
                    .field_u64("flagged_domains", k % 4)
                    .field_u64("true_domains", k % 5)
                    .field_u64("mispredicted", u64::from(k % 8 == 0))
                    .emit();
            }
            tel.gauge("thermal.max_silicon_c", 63.5);
            tel.gauge("bad.gauge", f64::NAN);
        }
        sink.events()
    }

    #[test]
    fn live_stats_match_batch_analysis_on_a_completed_trace() {
        let events = sample_events();
        let mut bounded_wire = TraceAnalysis::bounded();
        let mut bounded_emit = TraceAnalysis::bounded();
        let mut exact_wire = TraceAnalysis::new();
        let mut exact_emit = TraceAnalysis::new();
        for event in &events {
            let parsed = ParsedEvent::from_line(&event.to_json()).unwrap();
            bounded_wire.observe(&parsed);
            bounded_emit.observe(event);
            exact_wire.observe(&parsed);
            exact_emit.observe(event);
        }

        // Wire-side and emit-side folding agree completely, in both
        // modes.
        for (wire, emit) in [(&bounded_wire, &bounded_emit), (&exact_wire, &exact_emit)] {
            assert_eq!(wire.events, emit.events);
            assert_eq!(wire.counters, emit.counters);
            assert_eq!(wire.rollups, emit.rollups);
            assert_eq!(wire.spans, emit.spans);
            assert_eq!(wire.solvers, emit.solvers);
            assert_eq!(wire.gating, emit.gating);
            assert_eq!(wire.emergency, emit.emergency);
        }

        // Exact aggregates agree between the modes.
        let (bounded, exact) = (&bounded_wire, &exact_wire);
        assert_eq!(bounded.events, exact.events);
        for kind in EventKind::ALL {
            assert_eq!(bounded.kind_count(kind), exact.kind_count(kind), "{kind:?}");
        }
        assert_eq!(
            bounded.counter("engine.decisions"),
            exact.counter("engine.decisions")
        );
        assert_eq!(bounded.gating.decisions, exact.gating.decisions);
        assert_eq!(bounded.gating.turned_on, exact.gating.turned_on);
        assert_eq!(bounded.gating.turned_off, exact.gating.turned_off);
        assert_eq!(bounded.gating.churn(), exact.gating.churn());
        assert_eq!(bounded.emergency, exact.emergency);
        assert_eq!(bounded.first_t_s, exact.first_t_s);
        assert_eq!(bounded.last_t_s, exact.last_t_s);

        // Rollup moments are exact; percentiles near the exact values.
        let live_noise = bounded.rollup("engine.window_noise_pct").unwrap();
        let batch_noise = exact.rollup("engine.window_noise_pct").unwrap();
        assert_eq!(live_noise.count(), batch_noise.count());
        assert_eq!(live_noise.min(), batch_noise.min());
        assert_eq!(live_noise.max(), batch_noise.max());
        assert_eq!(live_noise.mean(), batch_noise.mean());
        let p50_err =
            (live_noise.percentile(50.0).unwrap() - batch_noise.percentile(50.0).unwrap()).abs();
        assert!(p50_err <= 1.0, "p50 estimate off by {p50_err}");

        // Non-finite gauges are counted, not ranked.
        let bad = bounded.rollup("bad.gauge").unwrap();
        assert_eq!((bad.count(), bad.non_finite()), (0, 1));

        // Solver sites roll up with exact solve counts.
        let gs = bounded.solver("thermal.gs").unwrap();
        assert_eq!(gs.solves(), exact.solver("thermal.gs").unwrap().solves());
        assert_eq!(
            gs.iters.min(),
            exact.solver("thermal.gs").unwrap().iters.min()
        );
        assert_eq!(bounded.total_solves(), 40);
        assert_eq!(
            bounded.span("engine.run").unwrap().completed(),
            exact.span("engine.run").unwrap().completed()
        );
    }

    #[test]
    fn rollups_are_keyed_per_track() {
        let sink = Arc::new(LiveSink::new());
        let t0 = Telemetry::with_sink(sink.clone());
        let t1 = Telemetry::with_sink_tracked(sink.clone(), 1);
        t0.gauge("cell.metric", 1.0);
        t1.gauge("cell.metric", 100.0);
        t1.gauge("cell.metric", 200.0);
        let stats = sink.snapshot();
        let per_track = |track: u64| {
            stats
                .rollups
                .iter()
                .find(|((t, n), _)| *t == track && n == "cell.metric")
                .map(|(_, r)| r.count())
        };
        assert_eq!(per_track(0), Some(1));
        assert_eq!(per_track(1), Some(2));
        assert_eq!(per_track(2), None);
        let merged = stats.rollup("cell.metric").unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), Some(1.0));
        assert_eq!(merged.max(), Some(200.0));
        assert!((merged.mean().unwrap() - 301.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn live_sink_counts_events_and_time() {
        let sink = Arc::new(LiveSink::new());
        let tel = Telemetry::with_sink(sink.clone());
        for k in 0..100 {
            tel.counter("ticks", k);
        }
        assert_eq!(sink.events(), 100);
        assert_eq!(sink.snapshot().counter("ticks"), (0..100).sum::<u64>());
        // Overhead accounting is monotone (may round to 0 µs on a fast
        // machine, but never goes backwards).
        let us = sink.overhead_us();
        tel.counter("ticks", 1);
        assert!(sink.overhead_us() >= us);
    }

    #[test]
    fn live_sink_aggregates_counters_and_histograms() {
        let sink = Arc::new(LiveSink::new());
        let tel = Telemetry::with_sink(sink.clone());
        tel.counter("engine.steps", 100);
        tel.counter("engine.steps", 50);
        tel.histogram("noise.pct", 1.0);
        tel.histogram("noise.pct", 3.0);
        tel.gauge("thermal.max_c", 85.0);
        let stats = sink.snapshot();
        assert_eq!(stats.rollup("noise.pct").unwrap().values(), None);
        assert_eq!(stats.counter("engine.steps"), 150);
        let h = stats.rollup("noise.pct").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
        let g = stats.rollup("thermal.max_c").expect("gauge recorded");
        assert_eq!(g.count(), 1);
        assert_eq!(stats.rollup_names(), ["noise.pct", "thermal.max_c"]);
    }

    #[test]
    fn live_sink_is_thread_safe() {
        let sink = Arc::new(LiveSink::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let tel = Telemetry::with_sink(sink.clone());
                scope.spawn(move || {
                    for i in 0..1000 {
                        tel.counter("hits", 1);
                        tel.histogram("vals", i as f64);
                    }
                });
            }
        });
        let stats = sink.snapshot();
        assert_eq!(stats.counter("hits"), 8000);
        let h = stats.rollup("vals").expect("histogram exists");
        assert_eq!(h.count(), 8000);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(999.0));
    }

    #[test]
    fn empty_stats_answer_safely() {
        let stats = TraceAnalysis::bounded();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.counter("nope"), 0);
        assert!(stats.rollup("nope").is_none());
        assert_eq!(stats.duration_s(), 0.0);
        assert_eq!(stats.gating.churn_per_decision(), None);
        assert!(stats.gating.active().is_none());
        assert_eq!(stats.emergency.emergency_rate(), None);
    }
}

//! Live (streaming) trace aggregation with bounded memory.
//!
//! [`analyze`](super::analyze) keeps every finite observation so its
//! percentiles are exact — the right trade for a finished trace, but a
//! watcher that follows a multi-hour sweep cannot afford a growing
//! buffer per metric, and an in-process health monitor must not turn
//! the run it watches into an allocation benchmark. This module is the
//! streaming half of that story:
//!
//! * [`P2Grid`] — an extended-P² (Jain & Chlamtac; Raatikainen's
//!   multi-quantile extension) marker grid: thirteen markers tracking
//!   several quantiles jointly in O(1) memory and O(1) update, exact
//!   for the first thirteen observations and validated against the
//!   exact [`stats::percentile`] in tests.
//!   The dense grid keeps every reported quantile's interpolation
//!   bracket narrow, which is what lets the estimate survive bimodal
//!   gaps and heavy tails that defeat the classic five-marker form;
//! * [`StreamingRollup`] — exact count / min / max / mean plus grid
//!   estimates for p50/p95/p99, mirroring the fields of the batch
//!   [`Rollup`](super::analyze::Rollup);
//! * [`LiveStats`] — a full incremental trace aggregate: per-kind
//!   event counts, counter totals, per-`(track, name)` value rollups,
//!   gating / emergency / solver aggregates. Counter, gating, and
//!   emergency totals are *exact* and match
//!   [`TraceAnalysis`](super::analyze::TraceAnalysis) on a completed
//!   trace; only rollup percentiles are estimates;
//! * [`LiveSink`] — a [`TelemetrySink`] folding events into a
//!   [`LiveStats`] as they are emitted, self-timing its own cost so a
//!   run can report (and CI can gate) the overhead of being watched.
//!
//! The [`rules`](super::rules) module evaluates health rules over a
//! [`LiveStats`]; `tg-obs watch` re-renders one as a live status line.

use super::analyze::{EmergencyStats, ParsedEvent};
use super::json::JsonValue;
use super::{Event, EventKind, FieldValue, TelemetrySink};
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

/// Bounded-memory distribution rollup of one named value stream: exact
/// count / non-finite count / min / max / mean, streaming p50/p95/p99.
///
/// The streaming counterpart of the batch
/// [`Rollup`](super::analyze::Rollup); the exact fields agree with it
/// bit for bit, the percentiles within the P² tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingRollup {
    count: u64,
    non_finite: u64,
    min: f64,
    max: f64,
    sum: f64,
    quantiles: P2Grid,
}

impl Default for StreamingRollup {
    fn default() -> Self {
        StreamingRollup {
            count: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            quantiles: P2Grid::new(),
        }
    }
}

impl StreamingRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        StreamingRollup::default()
    }

    /// Folds one observation in (non-finite values are counted but not
    /// ranked, matching the batch rollup).
    pub fn observe(&mut self, value: f64) {
        if value.is_finite() {
            self.count += 1;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.sum += value;
            self.quantiles.observe(value);
        } else {
            self.non_finite += 1;
        }
    }

    /// Counts an observation that carried no usable number.
    pub fn note_invalid(&mut self) {
        self.non_finite += 1;
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite / unusable observations.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest finite observation; `None` when empty (exact).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest finite observation; `None` when empty (exact).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Streaming percentile estimate. Supported points: 0 and 100
    /// (exact min/max), 50, 95, and 99 (P² grid estimates); anything
    /// else returns `None` — the streaming layer only tracks the
    /// quantiles the reports and rules use.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        match p {
            0.0 => self.min(),
            50.0 | 95.0 | 99.0 => self.quantiles.estimate(p / 100.0),
            100.0 => self.max(),
            _ => None,
        }
    }
}

/// Exact gating aggregate (streaming twin of
/// [`GatingStats`](super::analyze::GatingStats); only the active-count
/// distribution is estimated).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveGating {
    /// Gating events seen.
    pub decisions: u64,
    /// Regulators switched on across all decisions.
    pub turned_on: u64,
    /// Regulators switched off across all decisions.
    pub turned_off: u64,
    /// Active-regulator count per decision.
    pub active: StreamingRollup,
}

impl LiveGating {
    /// Total switching activity (on + off transitions).
    pub fn churn(&self) -> u64 {
        self.turned_on + self.turned_off
    }

    /// Mean switching activity per decision; `None` with no decisions.
    pub fn churn_per_decision(&self) -> Option<f64> {
        if self.decisions == 0 {
            None
        } else {
            Some(self.churn() as f64 / self.decisions as f64)
        }
    }
}

/// Solver-convergence streaming rollup for one solve site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveSolver {
    /// Iterations per solve.
    pub iters: StreamingRollup,
    /// Final relative residual per solve.
    pub residuals: StreamingRollup,
}

impl LiveSolver {
    /// Number of solve events folded in.
    pub fn solves(&self) -> u64 {
        self.iters.count() + self.iters.non_finite()
    }
}

/// The event fields the live aggregator reads, abstracted over the
/// emit-side [`Event`] (in-process [`LiveSink`]) and the consume-side
/// [`ParsedEvent`] (trace tailing) so both fold through one code path.
///
/// Numeric access mirrors the JSONL round trip: an emit-side non-finite
/// float reads as `None`, exactly as its `null` wire form would.
trait EventView {
    fn kind(&self) -> EventKind;
    fn name(&self) -> &str;
    fn t_s(&self) -> f64;
    fn num(&self, key: &str) -> Option<f64>;

    fn num_u64(&self, key: &str) -> Option<u64> {
        self.num(key).map(|v| v.max(0.0) as u64)
    }

    /// The track id stamped on the event (0 when absent).
    fn track(&self) -> u64 {
        self.num_u64("track").unwrap_or(0)
    }
}

impl EventView for ParsedEvent {
    fn kind(&self) -> EventKind {
        self.kind
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn t_s(&self) -> f64 {
        self.t_s
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(JsonValue::as_f64)
    }
}

impl EventView for Event {
    fn kind(&self) -> EventKind {
        self.kind
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn t_s(&self) -> f64 {
        self.t_s
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::U64(x) => Some(*x as f64),
                FieldValue::I64(x) => Some(*x as f64),
                FieldValue::F64(x) => x.is_finite().then_some(*x),
                FieldValue::Bool(_) | FieldValue::Str(_) => None,
            })
    }
}

/// Finds or inserts a key in an order-preserving keyed vector.
fn entry<K: PartialEq, T: Default>(vec: &mut Vec<(K, T)>, key: K) -> &mut T {
    if let Some(i) = vec.iter().position(|(k, _)| *k == key) {
        return &mut vec[i].1;
    }
    vec.push((key, T::default()));
    &mut vec.last_mut().expect("just pushed").1
}

/// A full incremental trace aggregate with bounded memory.
///
/// Fold events in with [`LiveStats::observe`] (parsed trace lines) or
/// [`LiveStats::observe_event`] (in-process emit-side events); both
/// produce identical state for the same stream. On a completed trace:
///
/// * event totals, per-kind counts, counter totals, gating decision /
///   churn counts, and every emergency field **equal** the batch
///   [`TraceAnalysis`](super::analyze::TraceAnalysis) exactly;
/// * rollup count / non-finite / min / max / mean are exact; p50 / p95
///   / p99 are P² estimates.
///
/// Value rollups are keyed by `(track, name)` so concurrent sweep cells
/// aggregate separately; [`LiveStats::merged_rollup`] combines the
/// tracks of one name (exact moments, count-weighted percentile
/// estimates) for name-level queries. All keyed collections preserve
/// first-appearance order, so renderings over a deterministic stream
/// are deterministic.
#[derive(Debug, Clone, Default)]
pub struct LiveStats {
    /// Events folded in.
    pub events: u64,
    kind_counts: [u64; EventKind::ALL.len()],
    /// Counter totals by name (summed across tracks).
    pub counters: Vec<(String, u64)>,
    /// Gauge/histogram/frame value rollups by `(track, name)`.
    pub rollups: Vec<((u64, String), StreamingRollup)>,
    /// Solver-convergence rollups by solve site.
    pub solvers: Vec<(String, LiveSolver)>,
    /// Gating-churn aggregate.
    pub gating: LiveGating,
    /// Voltage-emergency aggregate (shared with the batch layer — all
    /// fields exact).
    pub emergency: EmergencyStats,
    /// Timestamp of the first event.
    pub first_t_s: Option<f64>,
    /// Timestamp of the last event.
    pub last_t_s: Option<f64>,
    /// Malformed lines reported by the feeding reader.
    pub malformed_lines: u64,
    /// Whether the feeding reader currently sees a truncated tail.
    pub truncated: bool,
}

/// A name-level view over the per-track rollups of one name: exact
/// moments (summed/compared across tracks), count-weighted percentile
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRollup {
    /// Finite observations across all tracks.
    pub count: u64,
    /// Non-finite observations across all tracks.
    pub non_finite: u64,
    /// Smallest finite observation (exact).
    pub min: Option<f64>,
    /// Largest finite observation (exact).
    pub max: Option<f64>,
    /// Mean of finite observations (exact).
    pub mean: Option<f64>,
    /// Count-weighted p50 estimate.
    pub p50: Option<f64>,
    /// Count-weighted p95 estimate.
    pub p95: Option<f64>,
    /// Count-weighted p99 estimate.
    pub p99: Option<f64>,
}

impl MergedRollup {
    /// The merged percentile estimate for a supported point (0, 50, 95,
    /// 99, 100).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        match p {
            0.0 => self.min,
            50.0 => self.p50,
            95.0 => self.p95,
            99.0 => self.p99,
            100.0 => self.max,
            _ => None,
        }
    }
}

fn kind_index(kind: EventKind) -> usize {
    EventKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind is in ALL")
}

impl LiveStats {
    /// An empty aggregate.
    pub fn new() -> Self {
        LiveStats::default()
    }

    /// Folds one parsed trace event in.
    pub fn observe(&mut self, event: &ParsedEvent) {
        self.fold(event);
    }

    /// Folds one emit-side event in (used by [`LiveSink`]; equivalent
    /// to parsing the event's JSONL form and calling
    /// [`LiveStats::observe`]).
    pub fn observe_event(&mut self, event: &Event) {
        self.fold(event);
    }

    fn fold<E: EventView>(&mut self, event: &E) {
        self.events += 1;
        self.kind_counts[kind_index(event.kind())] += 1;
        let t = event.t_s();
        if self.first_t_s.is_none() {
            self.first_t_s = Some(t);
        }
        self.last_t_s = Some(self.last_t_s.map_or(t, |prev| prev.max(t)));
        match event.kind() {
            EventKind::Counter => {
                *entry(&mut self.counters, event.name().to_string()) +=
                    event.num_u64("delta").unwrap_or(1);
            }
            EventKind::Gauge | EventKind::Histogram => {
                let key = (event.track(), event.name().to_string());
                let rollup = entry(&mut self.rollups, key);
                match event.num("value") {
                    Some(v) => rollup.observe(v),
                    None => rollup.note_invalid(),
                }
            }
            EventKind::Solve => {
                let solver = entry::<_, LiveSolver>(&mut self.solvers, event.name().to_string());
                match event.num("iters") {
                    Some(i) => solver.iters.observe(i),
                    None => solver.iters.note_invalid(),
                }
                match event.num("residual") {
                    Some(r) => solver.residuals.observe(r),
                    None => solver.residuals.note_invalid(),
                }
            }
            EventKind::Gating => {
                self.gating.decisions += 1;
                self.gating.turned_on += event.num_u64("turned_on").unwrap_or(0);
                self.gating.turned_off += event.num_u64("turned_off").unwrap_or(0);
                match event.num("active") {
                    Some(a) => self.gating.active.observe(a),
                    None => self.gating.active.note_invalid(),
                }
            }
            EventKind::Emergency => {
                self.emergency.checks += 1;
                let flagged = event.num_u64("flagged_domains").unwrap_or(0);
                if flagged > 0 {
                    self.emergency.with_emergency += 1;
                }
                self.emergency.flagged_domains += flagged;
                self.emergency.true_domains += event.num_u64("true_domains").unwrap_or(0);
                self.emergency.mispredicted += event.num_u64("mispredicted").unwrap_or(0);
            }
            // Frame hotspot magnitude rides along as a value rollup,
            // matching the batch analyzer.
            EventKind::Frame => {
                if let Some(v) = event.num("value") {
                    let key = (event.track(), event.name().to_string());
                    entry::<_, StreamingRollup>(&mut self.rollups, key).observe(v);
                }
            }
            EventKind::SpanStart | EventKind::SpanEnd | EventKind::Progress => {}
        }
    }

    /// Number of events of one kind.
    pub fn kind_count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind_index(kind)]
    }

    /// Total of one named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value rollup of one `(track, name)` key.
    pub fn rollup(&self, track: u64, name: &str) -> Option<&StreamingRollup> {
        self.rollups
            .iter()
            .find(|((t, n), _)| *t == track && n == name)
            .map(|(_, r)| r)
    }

    /// A name-level view merging the per-track rollups of `name`:
    /// moments are exact; percentile estimates are count-weighted
    /// averages of the per-track estimates (identical to the single
    /// estimator when only one track carries the name — the common
    /// case).
    pub fn merged_rollup(&self, name: &str) -> Option<MergedRollup> {
        let parts: Vec<&StreamingRollup> = self
            .rollups
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, r)| r)
            .collect();
        if parts.is_empty() {
            return None;
        }
        let count: u64 = parts.iter().map(|r| r.count()).sum();
        let non_finite: u64 = parts.iter().map(|r| r.non_finite()).sum();
        let sum: f64 = parts.iter().map(|r| r.sum()).sum();
        let weighted = |pick: fn(&StreamingRollup) -> Option<f64>| -> Option<f64> {
            let mut acc = 0.0;
            let mut weight = 0u64;
            for r in &parts {
                if let Some(v) = pick(r) {
                    acc += v * r.count() as f64;
                    weight += r.count();
                }
            }
            (weight > 0).then(|| acc / weight as f64)
        };
        Some(MergedRollup {
            count,
            non_finite,
            min: parts
                .iter()
                .filter_map(|r| r.min())
                .fold(None, |a, v| Some(a.map_or(v, |x: f64| x.min(v)))),
            max: parts
                .iter()
                .filter_map(|r| r.max())
                .fold(None, |a, v| Some(a.map_or(v, |x: f64| x.max(v)))),
            mean: (count > 0).then(|| sum / count as f64),
            p50: weighted(|r| r.percentile(50.0)),
            p95: weighted(|r| r.percentile(95.0)),
            p99: weighted(|r| r.percentile(99.0)),
        })
    }

    /// The solver rollup of one solve site.
    pub fn solver(&self, site: &str) -> Option<&LiveSolver> {
        self.solvers.iter().find(|(n, _)| n == site).map(|(_, s)| s)
    }

    /// Total solve events across all sites.
    pub fn total_solves(&self) -> u64 {
        self.solvers.iter().map(|(_, s)| s.solves()).sum()
    }

    /// Span of event timestamps (0.0 for empty or single-event streams).
    pub fn duration_s(&self) -> f64 {
        match (self.first_t_s, self.last_t_s) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => 0.0,
        }
    }
}

/// A [`TelemetrySink`] that folds every event into a [`LiveStats`] as
/// it is emitted, timing itself so the run can report what live
/// aggregation cost.
///
/// Intended to ride in a fanout next to the JSONL sink: the run gains
/// an in-process health view (queryable mid-run via
/// [`LiveSink::snapshot`], fed to the rules engine) at a measured,
/// self-reported price — [`LiveSink::overhead_us`] backs the
/// `telemetry.live.overhead` counter and the BENCH live-overhead axis.
#[derive(Debug, Default)]
pub struct LiveSink {
    stats: Mutex<LiveStats>,
    events: AtomicU64,
    overhead_ns: AtomicU64,
}

impl LiveSink {
    /// An empty sink.
    pub fn new() -> Self {
        LiveSink::default()
    }

    /// A snapshot of the aggregate state so far.
    pub fn snapshot(&self) -> LiveStats {
        self.stats.lock().expect("live sink poisoned").clone()
    }

    /// Events folded in so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Total time spent inside the aggregator, whole microseconds.
    pub fn overhead_us(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed) / 1_000
    }
}

impl TelemetrySink for LiveSink {
    fn record(&self, event: &Event) {
        let started = Instant::now();
        self.stats
            .lock()
            .expect("live sink poisoned")
            .observe_event(event);
        self.overhead_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use crate::telemetry::analyze::TraceAnalysis;
    use crate::telemetry::Telemetry;

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
        let mut streaming = StreamingRollup::new();
        let mut batch = crate::telemetry::analyze::Rollup::default();
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
        let mean_err = (streaming.mean().unwrap() - batch.mean().unwrap()).abs();
        assert!(mean_err < 1e-9, "mean drift {mean_err}");
        assert_eq!(streaming.percentile(0.0), batch.min());
        assert_eq!(streaming.percentile(100.0), batch.max());
        assert_eq!(streaming.percentile(42.0), None);
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
        let mut live_wire = LiveStats::new();
        let mut live_emit = LiveStats::new();
        let mut batch = TraceAnalysis::new();
        for event in &events {
            let parsed = ParsedEvent::from_line(&event.to_json()).unwrap();
            live_wire.observe(&parsed);
            live_emit.observe_event(event);
            batch.observe(&parsed);
        }

        // Wire-side and emit-side folding agree completely.
        assert_eq!(live_wire.events, live_emit.events);
        assert_eq!(live_wire.counters, live_emit.counters);
        assert_eq!(live_wire.rollups, live_emit.rollups);
        assert_eq!(live_wire.gating, live_emit.gating);
        assert_eq!(live_wire.emergency, live_emit.emergency);

        // Exact aggregates equal the batch analyzer.
        assert_eq!(live_wire.events, batch.events);
        for kind in EventKind::ALL {
            assert_eq!(
                live_wire.kind_count(kind),
                batch.kind_count(kind),
                "{kind:?}"
            );
        }
        assert_eq!(
            live_wire.counter("engine.decisions"),
            batch.counter("engine.decisions")
        );
        assert_eq!(live_wire.gating.decisions, batch.gating.decisions);
        assert_eq!(live_wire.gating.turned_on, batch.gating.turned_on);
        assert_eq!(live_wire.gating.turned_off, batch.gating.turned_off);
        assert_eq!(live_wire.gating.churn(), batch.gating.churn());
        assert_eq!(live_wire.emergency, batch.emergency);
        assert_eq!(live_wire.first_t_s, batch.first_t_s);
        assert_eq!(live_wire.last_t_s, batch.last_t_s);

        // Rollup moments are exact; percentiles near the exact values.
        let live_noise = live_wire.merged_rollup("engine.window_noise_pct").unwrap();
        let batch_noise = batch.rollup("engine.window_noise_pct").unwrap();
        assert_eq!(live_noise.count, batch_noise.count());
        assert_eq!(live_noise.min, batch_noise.min());
        assert_eq!(live_noise.max, batch_noise.max());
        assert!((live_noise.mean.unwrap() - batch_noise.mean().unwrap()).abs() < 1e-12);
        let p50_err = (live_noise.p50.unwrap() - batch_noise.percentile(50.0).unwrap()).abs();
        assert!(p50_err <= 1.0, "p50 estimate off by {p50_err}");

        // Non-finite gauges are counted, not ranked.
        let bad = live_wire.merged_rollup("bad.gauge").unwrap();
        assert_eq!((bad.count, bad.non_finite), (0, 1));

        // Solver sites roll up with exact solve counts.
        let gs = live_wire.solver("thermal.gs").unwrap();
        assert_eq!(gs.solves(), batch.solver("thermal.gs").unwrap().solves());
        assert_eq!(
            gs.iters.min(),
            batch.solver("thermal.gs").unwrap().iters.min()
        );
        assert_eq!(live_wire.total_solves(), 40);
    }

    #[test]
    fn rollups_are_keyed_per_track() {
        let sink = std::sync::Arc::new(LiveSink::new());
        let t0 = Telemetry::with_sink(sink.clone());
        let t1 = Telemetry::with_sink_tracked(sink.clone(), 1);
        t0.gauge("cell.metric", 1.0);
        t1.gauge("cell.metric", 100.0);
        t1.gauge("cell.metric", 200.0);
        let stats = sink.snapshot();
        assert_eq!(stats.rollup(0, "cell.metric").unwrap().count(), 1);
        assert_eq!(stats.rollup(1, "cell.metric").unwrap().count(), 2);
        assert_eq!(stats.rollup(2, "cell.metric"), None);
        let merged = stats.merged_rollup("cell.metric").unwrap();
        assert_eq!(merged.count, 3);
        assert_eq!(merged.min, Some(1.0));
        assert_eq!(merged.max, Some(200.0));
        assert!((merged.mean.unwrap() - 301.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn live_sink_counts_events_and_time() {
        let sink = std::sync::Arc::new(LiveSink::new());
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
    fn empty_stats_answer_safely() {
        let stats = LiveStats::new();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.counter("nope"), 0);
        assert!(stats.merged_rollup("nope").is_none());
        assert_eq!(stats.duration_s(), 0.0);
        assert_eq!(stats.gating.churn_per_decision(), None);
        assert_eq!(stats.emergency.emergency_rate(), None);
    }
}

//! Trace analytics: the one fold over the telemetry event stream.
//!
//! The [`telemetry`](crate::telemetry) module *emits* structured traces;
//! this module *consumes* them. A [`TraceReader`] streams a
//! `trace.jsonl` file line by line through the hand-rolled
//! [`json`](super::json) parser (skipping corrupt interior lines and recovering from
//! a truncated final line, so a trace cut mid-write still analyzes), a
//! [`TraceTailer`] follows one that is still being written, and a
//! [`TraceAnalysis`] folds the event stream — parsed lines or emit-side
//! events alike, through [`EventView`] — into:
//!
//! * per-[`EventKind`] event counts and counter totals;
//! * per-name value [`Rollup`]s for gauges and histograms: exact
//!   count / min / max / mean, and p50/p95/p99 percentiles;
//! * span begin/end pairing per `(track, name)` into duration rollups
//!   ([`SpanStats`], with unmatched starts/ends surfaced rather than
//!   silently dropped);
//! * solver-convergence aggregates per solve site ([`SolverRollup`]:
//!   iteration and residual distributions);
//! * gating-churn ([`GatingStats`]) and voltage-emergency
//!   ([`EmergencyStats`]) aggregates.
//!
//! An analysis runs in one of two modes. *Exact* mode keeps every
//! observation, so its percentiles are exact; `tg-obs summarize`,
//! `diff`, and the perf snapshots use it. *Bounded* mode keeps a
//! [`P2Grid`] per rollup instead and stores nothing per observation;
//! `tg-obs watch` and `check`, the [`rules`](super::rules) engine, and
//! the in-process [`LiveSink`](super::live::LiveSink) use it.
//!
//! Nothing here panics on hostile input: unknown kinds, missing fields,
//! `null`ed non-finite numbers, and malformed lines are counted and
//! reported instead.
//!
//! # Examples
//!
//! ```
//! use simkit::telemetry::analyze::TraceAnalysis;
//! use simkit::telemetry::{EventKind, Telemetry};
//!
//! let (tel, sink) = Telemetry::recorder();
//! {
//!     let _span = tel.span("engine.run");
//!     tel.gauge("thermal.max_c", 81.5);
//!     tel.solve("thermal.gs", 12, 1e-9);
//! }
//! let trace: String = sink
//!     .events()
//!     .iter()
//!     .map(|e| e.to_json() + "\n")
//!     .collect();
//! let analysis = TraceAnalysis::from_reader(trace.as_bytes()).unwrap();
//! assert_eq!(analysis.events, 4);
//! assert_eq!(analysis.kind_count(EventKind::SpanEnd), 1);
//! assert_eq!(analysis.rollup("thermal.max_c").unwrap().count(), 1);
//! assert_eq!(analysis.solver("thermal.gs").unwrap().solves(), 1);
//!
//! // The emit-side events fold directly, with no JSON round trip.
//! let mut direct = TraceAnalysis::new();
//! for event in sink.events() {
//!     direct.observe(&event);
//! }
//! assert_eq!(direct.rollup("thermal.max_c"), analysis.rollup("thermal.max_c"));
//! ```

use super::json::JsonValue;
use super::live::P2Grid;
use super::{Event, EventKind, FieldValue};
use crate::stats;
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// One trace line decoded into its envelope and payload fields.
///
/// Unlike the emit-side [`Event`], field values are parsed
/// [`JsonValue`]s: a consumer cannot know the original Rust type, and
/// non-finite floats arrive as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Seconds since the producing handle's epoch.
    pub t_s: f64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name, e.g. `"thermal.max_silicon_c"`.
    pub name: String,
    /// Remaining payload members, in document order.
    pub fields: Vec<(String, JsonValue)>,
}

impl ParsedEvent {
    /// Decodes one JSONL trace line.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem: malformed JSON, a
    /// non-object document, a missing/invalid `kind`, `t`, or `name`.
    pub fn from_line(line: &str) -> Result<ParsedEvent, String> {
        let doc = super::json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let members = doc.as_object().ok_or("event is not a JSON object")?;
        let kind_str = doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"kind\"")?;
        let kind =
            EventKind::parse(kind_str).ok_or_else(|| format!("unknown kind {kind_str:?}"))?;
        let t_s = doc
            .get("t")
            .and_then(JsonValue::as_f64)
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or("missing finite numeric field \"t\"")?;
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"name\"")?;
        if name.is_empty() {
            return Err("empty \"name\"".into());
        }
        let name = name.to_string();
        let fields = members
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "t" | "kind" | "name"))
            .cloned()
            .collect();
        Ok(ParsedEvent {
            t_s,
            kind,
            name,
            fields,
        })
    }

    /// Looks up a payload field.
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A payload field as a number.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(JsonValue::as_f64)
    }

    /// A payload field as an unsigned integer (negative values clamp
    /// to 0, fractional values truncate).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field_f64(key).map(|v| v.max(0.0) as u64)
    }
}

/// Streaming JSONL trace reader with recovery.
///
/// Reads one event per [`TraceReader::next_event`] call. A malformed
/// line *with* a trailing newline (mid-file corruption) is counted in
/// [`malformed_lines`](TraceReader::malformed_lines) and skipped; a
/// malformed *final* line without one (the writer died mid-line, or the
/// file is still being appended to) ends the stream cleanly and sets
/// [`truncated`](TraceReader::truncated). Blank lines are ignored.
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    buf: String,
    lines_read: u64,
    malformed: u64,
    truncated: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered byte source.
    pub fn new(reader: R) -> Self {
        TraceReader {
            reader,
            buf: String::new(),
            lines_read: 0,
            malformed: 0,
            truncated: false,
        }
    }

    /// The next well-formed event, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including invalid UTF-8) from the
    /// underlying reader; recoverable *format* problems never error.
    pub fn next_event(&mut self) -> io::Result<Option<ParsedEvent>> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            let complete = self.buf.ends_with('\n');
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            self.lines_read += 1;
            match ParsedEvent::from_line(line) {
                Ok(event) => return Ok(Some(event)),
                Err(_) if !complete => {
                    // Final unterminated line: a writer cut mid-record.
                    self.truncated = true;
                    return Ok(None);
                }
                Err(_) => {
                    self.malformed += 1;
                }
            }
        }
    }

    /// Non-blank lines consumed so far (including bad ones).
    pub fn lines_read(&self) -> u64 {
        self.lines_read
    }

    /// Malformed interior lines skipped so far.
    pub fn malformed_lines(&self) -> u64 {
        self.malformed
    }

    /// Whether the stream ended in a truncated (unterminated,
    /// unparseable) final line.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(TraceReader::new(BufReader::new(File::open(path)?)))
    }
}

/// Incremental reader following a trace file that is still being
/// written — the tailing mode of [`TraceReader`].
///
/// Each [`TraceTailer::poll`] drains the complete (`\n`-terminated)
/// lines appended since the last poll and leaves anything after the
/// final newline untouched: the committed [`offset`](TraceTailer::offset)
/// only ever advances past whole lines, so a writer cut mid-record is
/// re-read — intact — on the next poll once the rest of the line lands.
/// A watcher can therefore persist the offset and
/// [`resume`](TraceTailer::resume) later; the resumed stream yields
/// exactly the events a one-shot read of the finished file would.
///
/// Malformed *complete* lines are counted and skipped, mirroring
/// [`TraceReader`]'s recovery behaviour.
#[derive(Debug)]
pub struct TraceTailer {
    file: File,
    offset: u64,
    malformed: u64,
    partial_tail: bool,
}

impl TraceTailer {
    /// Starts tailing `path` from the beginning.
    ///
    /// # Errors
    ///
    /// Propagates the open failure (e.g. the writer has not created the
    /// file yet — callers typically retry).
    pub fn follow(path: &Path) -> io::Result<Self> {
        TraceTailer::resume(path, 0)
    }

    /// Resumes tailing `path` from a previously committed byte
    /// `offset`. Resuming at [`TraceTailer::offset`] of an earlier
    /// tailer continues the stream without loss or duplication.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn resume(path: &Path, offset: u64) -> io::Result<Self> {
        Ok(TraceTailer {
            file: File::open(path)?,
            offset,
            malformed: 0,
            partial_tail: false,
        })
    }

    /// Drains the complete lines currently available past the committed
    /// offset, in file order. An empty vector means no complete new
    /// line has landed yet — poll again later.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format problems (malformed complete
    /// lines, invalid UTF-8, partial tails) never error.
    pub fn poll(&mut self) -> io::Result<Vec<ParsedEvent>> {
        use std::io::{Read, Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        let mut events = Vec::new();
        let mut consumed = 0usize;
        while let Some(len) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let bytes = &buf[consumed..consumed + len];
            consumed += len + 1;
            let line = match std::str::from_utf8(bytes) {
                Ok(text) => text.trim(),
                Err(_) => {
                    self.malformed += 1;
                    continue;
                }
            };
            if line.is_empty() {
                continue;
            }
            match ParsedEvent::from_line(line) {
                Ok(event) => events.push(event),
                Err(_) => self.malformed += 1,
            }
        }
        self.offset += consumed as u64;
        self.partial_tail = consumed < buf.len();
        Ok(events)
    }

    /// The committed byte offset: the start of the first line not yet
    /// returned as a complete event. Safe to persist and
    /// [`resume`](TraceTailer::resume) from.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Malformed complete lines skipped so far.
    pub fn malformed_lines(&self) -> u64 {
        self.malformed
    }

    /// Whether the last poll saw bytes after the final newline — a
    /// line still being written (or a writer that died mid-record).
    pub fn partial_tail(&self) -> bool {
        self.partial_tail
    }
}

/// The event fields the fold reads, abstracted over the emit-side
/// [`Event`] (folded in process by [`LiveSink`](super::live::LiveSink))
/// and the consume-side [`ParsedEvent`] (trace files), so both take the
/// one code path in [`TraceAnalysis::observe`].
///
/// Numeric access mirrors the JSONL round trip: an emit-side non-finite
/// float reads as `None`, exactly as its `null` wire form would.
pub trait EventView {
    /// Event kind.
    fn kind(&self) -> EventKind;

    /// Event name.
    fn name(&self) -> &str;

    /// Seconds since the producing handle's epoch.
    fn t_s(&self) -> f64;

    /// A numeric payload field; `None` when absent or not a number.
    fn num(&self, key: &str) -> Option<f64>;

    /// A numeric payload field as an unsigned integer (negative values
    /// clamp to 0, fractional values truncate).
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
        self.field_f64(key)
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

/// Distribution rollup of one value stream.
///
/// The moments are exact in both modes: finite-observation count,
/// minimum, maximum, and sum (accumulated in arrival order), plus a
/// separate count of non-finite observations — including the `null`s
/// the JSON writer substitutes for NaN. Percentiles depend on the mode:
///
/// * **exact** ([`Rollup::exact`]) keeps every finite observation, so
///   any percentile is exact ([`stats::percentile`]) — the right trade
///   for a finished trace, which holds thousands, not billions, of
///   observations per name;
/// * **bounded** ([`Rollup::bounded`]) keeps a [`P2Grid`] instead and
///   stores nothing per observation: p50/p95/p99 are P² estimates, p0
///   and p100 the exact minimum and maximum, any other point `None`.
///
/// A bounded rollup merged across tracks (see [`TraceAnalysis::rollup`])
/// keeps every track's grid and reports count-weighted estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    count: u64,
    non_finite: u64,
    min: f64,
    max: f64,
    sum: f64,
    ranks: Ranks,
}

/// What a [`Rollup`] ranks its percentiles from.
#[derive(Debug, Clone, PartialEq)]
enum Ranks {
    /// Every finite observation, in arrival order.
    Exact(Vec<f64>),
    /// One P² grid per track folded in.
    Bounded(Vec<P2Grid>),
}

impl Rollup {
    /// An empty rollup that keeps its observations.
    pub fn exact() -> Self {
        Rollup::with(Ranks::Exact(Vec::new()))
    }

    /// An empty rollup that keeps a P² grid instead of its
    /// observations.
    pub fn bounded() -> Self {
        Rollup::with(Ranks::Bounded(vec![P2Grid::new()]))
    }

    fn new(exact: bool) -> Self {
        if exact {
            Rollup::exact()
        } else {
            Rollup::bounded()
        }
    }

    fn with(ranks: Ranks) -> Self {
        // The sum starts at -0.0, the neutral element `Iterator::sum`
        // uses, so the running sum equals summing the kept values.
        Rollup {
            count: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: -0.0,
            ranks,
        }
    }

    /// Folds one observation in (non-finite values are counted but not
    /// ranked).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        match &mut self.ranks {
            Ranks::Exact(values) => values.push(value),
            Ranks::Bounded(grids) => grids[0].observe(value),
        }
    }

    /// Counts an observation that carried no usable number (absent
    /// field, or a `null` from a non-finite float).
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

    /// Smallest finite observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Percentile `p` (in `[0, 100]`) of the finite observations:
    /// linear-interpolated and exact in exact mode; in bounded mode the
    /// exact extremes for 0 and 100, the P² estimate for 50, 95, and 99
    /// (count-weighted across merged tracks), and `None` otherwise.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let grids = match &self.ranks {
            Ranks::Exact(values) => return stats::percentile(values, p),
            Ranks::Bounded(grids) => grids,
        };
        match p {
            0.0 => self.min(),
            100.0 => self.max(),
            50.0 | 95.0 | 99.0 => {
                let (mut acc, mut weight) = (0.0, 0u64);
                for grid in grids {
                    if let Some(v) = grid.estimate(p / 100.0) {
                        acc += v * grid.count() as f64;
                        weight += grid.count();
                    }
                }
                (weight > 0).then(|| acc / weight as f64)
            }
            _ => None,
        }
    }

    /// The finite observations in arrival order (exact mode); `None`
    /// for a bounded rollup, which keeps none.
    pub fn values(&self) -> Option<&[f64]> {
        match &self.ranks {
            Ranks::Exact(values) => Some(values),
            Ranks::Bounded(_) => None,
        }
    }
}

/// Combining the per-track entries of one name into its name-level
/// view.
trait Merge: Clone {
    fn merge(&mut self, other: &Self);
}

impl Merge for Rollup {
    fn merge(&mut self, other: &Rollup) {
        self.count += other.count;
        self.non_finite += other.non_finite;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        match (&mut self.ranks, &other.ranks) {
            (Ranks::Exact(a), Ranks::Exact(b)) => a.extend_from_slice(b),
            (Ranks::Bounded(a), Ranks::Bounded(b)) => a.extend_from_slice(b),
            _ => unreachable!("the rollups of one analysis share its mode"),
        }
    }
}

/// Span pairing outcome and completed-duration rollup for one span
/// name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Starts not yet matched by an end (non-zero at end of trace means
    /// the run died inside this span).
    pub open: u64,
    /// Durations (`dur_s`) of completed spans.
    pub durations: Rollup,
    /// Ends that arrived with no matching start on their track.
    pub unmatched_ends: u64,
}

impl SpanStats {
    fn new(exact: bool) -> Self {
        SpanStats {
            open: 0,
            durations: Rollup::new(exact),
            unmatched_ends: 0,
        }
    }

    /// Completed start/end pairs.
    pub fn completed(&self) -> u64 {
        self.durations.count() + self.durations.non_finite()
    }
}

impl Merge for SpanStats {
    fn merge(&mut self, other: &SpanStats) {
        self.open += other.open;
        self.durations.merge(&other.durations);
        self.unmatched_ends += other.unmatched_ends;
    }
}

/// Solver-convergence rollup for one solve site (`thermal.transient_cg`,
/// `pdn.ir_cg`, …): iteration-count and final-residual distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverRollup {
    /// Iterations per solve.
    pub iters: Rollup,
    /// Final relative residual per solve.
    pub residuals: Rollup,
}

impl SolverRollup {
    fn new(exact: bool) -> Self {
        SolverRollup {
            iters: Rollup::new(exact),
            residuals: Rollup::new(exact),
        }
    }

    /// Number of solve events folded in.
    pub fn solves(&self) -> u64 {
        self.iters.count() + self.iters.non_finite()
    }
}

impl Merge for SolverRollup {
    fn merge(&mut self, other: &SolverRollup) {
        self.iters.merge(&other.iters);
        self.residuals.merge(&other.residuals);
    }
}

/// Aggregate over the regulator gating decisions of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatingStats {
    /// Gating events seen.
    pub decisions: u64,
    /// Regulators switched on across all decisions.
    pub turned_on: u64,
    /// Regulators switched off across all decisions.
    pub turned_off: u64,
    /// Active-regulator count per decision, by track.
    pub active_by_track: Vec<(u64, Rollup)>,
}

impl GatingStats {
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

    /// Active-regulator count per decision, merged across tracks;
    /// `None` with no decisions.
    pub fn active(&self) -> Option<Cow<'_, Rollup>> {
        merged(self.active_by_track.iter().map(|(t, r)| (*t, r)).collect())
    }
}

/// Aggregate over the voltage-emergency checks of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmergencyStats {
    /// Emergency-check events seen.
    pub checks: u64,
    /// Checks that flagged at least one domain.
    pub with_emergency: u64,
    /// Domain flags raised, summed over all checks.
    pub flagged_domains: u64,
    /// Ground-truth emergency domains, summed over all checks.
    pub true_domains: u64,
    /// Mispredicted domains, summed over all checks.
    pub mispredicted: u64,
}

impl EmergencyStats {
    /// Fraction of checks that flagged an emergency; `None` with no
    /// checks.
    pub fn emergency_rate(&self) -> Option<f64> {
        if self.checks == 0 {
            None
        } else {
            Some(self.with_emergency as f64 / self.checks as f64)
        }
    }
}

/// A `(track, name)` key: the track id events carry (0 when absent)
/// and the event name.
pub type TrackKey = (u64, String);

/// Full rollup of one event stream — a finished trace, a trace being
/// tailed, or a run's events as they are emitted.
///
/// One fold ([`TraceAnalysis::observe`]) serves every consumer, in one
/// of two modes fixed at construction:
///
/// * **exact** ([`TraceAnalysis::new`], [`TraceAnalysis::from_path`]):
///   every [`Rollup`] keeps its observations, so percentiles are exact.
///   `tg-obs summarize`, `diff`, and the perf snapshots use it;
/// * **bounded** ([`TraceAnalysis::bounded`]): rollups keep P² grids
///   and nothing per observation. `tg-obs watch` and `check` and the
///   in-process [`LiveSink`](super::live::LiveSink) use it.
///
/// Event totals, per-kind counts, counter totals, gating decision /
/// churn counts, every emergency field, and rollup count / non-finite /
/// min / max / mean agree between the modes; only p50/p95/p99 differ,
/// by the P² estimation error.
///
/// Span pairing is keyed by `(track, name)` in both modes, so a
/// worker's span end never closes another worker's start. Value,
/// span-duration, solver, and gating-activity rollups are keyed by
/// `(track, name)` in bounded mode, because a P² estimate depends on
/// arrival order and parallel workers interleave. Exact mode files them
/// all under track 0: its statistics do not depend on arrival order
/// except through the floating-point sum, which thereby stays in trace
/// order. Name-level queries ([`TraceAnalysis::rollup`],
/// [`TraceAnalysis::span`], [`TraceAnalysis::solver`]) merge a name's
/// tracks in track order, so their answers do not depend on how the
/// workers interleaved either. All keyed collections preserve
/// first-appearance order, so reports over a deterministic trace are
/// deterministic.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    exact: bool,
    /// Well-formed events folded in.
    pub events: u64,
    kind_counts: [u64; EventKind::ALL.len()],
    /// Counter totals by name (summed across tracks).
    pub counters: Vec<(String, u64)>,
    /// Gauge/histogram/frame value rollups.
    pub rollups: Vec<(TrackKey, Rollup)>,
    /// Span pairing outcomes and durations.
    pub spans: Vec<(TrackKey, SpanStats)>,
    /// Open-span depth by the `(track, name)` the events carry.
    span_depth: Vec<(TrackKey, u64)>,
    /// Solver-convergence rollups by solve site.
    pub solvers: Vec<(TrackKey, SolverRollup)>,
    /// Gating-churn aggregate.
    pub gating: GatingStats,
    /// Voltage-emergency aggregate.
    pub emergency: EmergencyStats,
    /// Timestamp of the first event.
    pub first_t_s: Option<f64>,
    /// Timestamp of the last event.
    pub last_t_s: Option<f64>,
    /// Malformed lines the feeding reader skipped.
    pub malformed_lines: u64,
    /// Whether the trace ended (or, while tailing, currently ends) in a
    /// truncated final line.
    pub truncated: bool,
}

fn kind_index(kind: EventKind) -> usize {
    EventKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind is in ALL")
}

/// Finds or inserts `(track, name)` in an order-preserving keyed vector.
/// The search runs newest-first: the keys a sweep is filling are the
/// ones its running cells inserted last.
fn entry<'v, T>(
    vec: &'v mut Vec<(TrackKey, T)>,
    track: u64,
    name: &str,
    make: impl FnOnce() -> T,
) -> &'v mut T {
    match vec.iter().rposition(|((t, n), _)| *t == track && n == name) {
        Some(i) => &mut vec[i].1,
        None => {
            vec.push(((track, name.to_string()), make()));
            &mut vec.last_mut().expect("just pushed").1
        }
    }
}

/// The distinct names of a keyed vector, in first-appearance order.
fn names<T>(vec: &[(TrackKey, T)]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for ((_, name), _) in vec {
        if !out.contains(&name.as_str()) {
            out.push(name);
        }
    }
    out
}

/// The entries of one name in a keyed vector, with their tracks.
fn tracks_of<'v, T>(vec: &'v [(TrackKey, T)], name: &str) -> Vec<(u64, &'v T)> {
    vec.iter()
        .filter(|((_, n), _)| n == name)
        .map(|((t, _), v)| (*t, v))
        .collect()
}

/// A name-level view over per-track entries: the only entry as it is,
/// or all of them merged in track order; `None` when there are none.
fn merged<T: Merge>(mut parts: Vec<(u64, &T)>) -> Option<Cow<'_, T>> {
    parts.sort_by_key(|(track, _)| *track);
    let ((_, first), rest) = parts.split_first()?;
    if rest.is_empty() {
        return Some(Cow::Borrowed(*first));
    }
    let mut acc = (*first).clone();
    for (_, part) in rest {
        acc.merge(part);
    }
    Some(Cow::Owned(acc))
}

impl Default for TraceAnalysis {
    fn default() -> Self {
        TraceAnalysis::new()
    }
}

impl TraceAnalysis {
    /// An empty exact-mode analysis.
    pub fn new() -> Self {
        TraceAnalysis::with_mode(true)
    }

    /// An empty bounded-mode analysis: memory grows with the number of
    /// distinct `(track, name)` keys, never with the number of events.
    pub fn bounded() -> Self {
        TraceAnalysis::with_mode(false)
    }

    fn with_mode(exact: bool) -> Self {
        TraceAnalysis {
            exact,
            events: 0,
            kind_counts: [0; EventKind::ALL.len()],
            counters: Vec::new(),
            rollups: Vec::new(),
            spans: Vec::new(),
            span_depth: Vec::new(),
            solvers: Vec::new(),
            gating: GatingStats::default(),
            emergency: EmergencyStats::default(),
            first_t_s: None,
            last_t_s: None,
            malformed_lines: 0,
            truncated: false,
        }
    }

    /// Streams every event of a byte source into a fresh exact
    /// analysis.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors only; format problems are folded into
    /// [`malformed_lines`](TraceAnalysis::malformed_lines) /
    /// [`truncated`](TraceAnalysis::truncated).
    pub fn from_reader(reader: impl BufRead) -> io::Result<Self> {
        TraceAnalysis::new().read_from(reader)
    }

    /// Streams a trace file (conventionally `trace.jsonl`) into a fresh
    /// exact analysis.
    ///
    /// # Errors
    ///
    /// Propagates open/read failures.
    pub fn from_path(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        TraceAnalysis::from_reader(BufReader::new(file))
    }

    /// Streams every event of a byte source into this analysis, keeping
    /// its mode, and records the reader's malformed / truncated state.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors only.
    pub fn read_from(mut self, reader: impl BufRead) -> io::Result<Self> {
        let mut trace = TraceReader::new(reader);
        while let Some(event) = trace.next_event()? {
            self.observe(&event);
        }
        self.malformed_lines = trace.malformed_lines();
        self.truncated = trace.truncated();
        Ok(self)
    }

    /// Folds one event in — a parsed trace line or an emit-side event;
    /// both produce identical state for the same stream.
    pub fn observe(&mut self, event: &impl EventView) {
        self.events += 1;
        self.kind_counts[kind_index(event.kind())] += 1;
        let t = event.t_s();
        if self.first_t_s.is_none() {
            self.first_t_s = Some(t);
        }
        self.last_t_s = Some(self.last_t_s.map_or(t, |prev| prev.max(t)));
        let exact = self.exact;
        let name = event.name();
        let track = event.track();
        // Exact mode files every track under 0 (see the type docs).
        let lane = if exact { 0 } else { track };
        match event.kind() {
            EventKind::Counter => {
                let delta = event.num_u64("delta").unwrap_or(1);
                match self.counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, total)) => *total += delta,
                    None => self.counters.push((name.to_string(), delta)),
                }
            }
            EventKind::Gauge | EventKind::Histogram => {
                let rollup = entry(&mut self.rollups, lane, name, || Rollup::new(exact));
                match event.num("value") {
                    Some(v) => rollup.observe(v),
                    None => rollup.note_invalid(),
                }
            }
            EventKind::SpanStart => {
                *entry(&mut self.span_depth, track, name, || 0) += 1;
                entry(&mut self.spans, lane, name, || SpanStats::new(exact)).open += 1;
            }
            EventKind::SpanEnd => {
                let depth = entry(&mut self.span_depth, track, name, || 0);
                let paired = *depth > 0;
                if paired {
                    *depth -= 1;
                }
                let span = entry(&mut self.spans, lane, name, || SpanStats::new(exact));
                if paired {
                    span.open -= 1;
                    match event.num("dur_s") {
                        Some(d) => span.durations.observe(d),
                        None => span.durations.note_invalid(),
                    }
                } else {
                    span.unmatched_ends += 1;
                }
            }
            EventKind::Solve => {
                let solver = entry(&mut self.solvers, lane, name, || SolverRollup::new(exact));
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
                let gating = &mut self.gating;
                gating.decisions += 1;
                gating.turned_on += event.num_u64("turned_on").unwrap_or(0);
                gating.turned_off += event.num_u64("turned_off").unwrap_or(0);
                let active = match gating.active_by_track.iter().position(|(t, _)| *t == lane) {
                    Some(i) => &mut gating.active_by_track[i].1,
                    None => {
                        gating.active_by_track.push((lane, Rollup::new(exact)));
                        &mut gating.active_by_track.last_mut().expect("just pushed").1
                    }
                };
                match event.num("active") {
                    Some(a) => active.observe(a),
                    None => active.note_invalid(),
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
            // Frame payloads (grid data, lanes) are consumed by the
            // timeline exporter, not the aggregate rollups; hotspot
            // magnitude rides along as a plain value rollup when present.
            EventKind::Frame => {
                if let Some(v) = event.num("value") {
                    entry(&mut self.rollups, lane, name, || Rollup::new(exact)).observe(v);
                }
            }
            EventKind::Progress => {}
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

    /// Names carrying a value rollup, in first-appearance order.
    pub fn rollup_names(&self) -> Vec<&str> {
        names(&self.rollups)
    }

    /// The value rollup of one name, merged across tracks.
    pub fn rollup(&self, name: &str) -> Option<Cow<'_, Rollup>> {
        merged(tracks_of(&self.rollups, name))
    }

    /// Span names, in first-appearance order.
    pub fn span_names(&self) -> Vec<&str> {
        names(&self.spans)
    }

    /// The span stats of one name, merged across tracks.
    pub fn span(&self, name: &str) -> Option<Cow<'_, SpanStats>> {
        merged(tracks_of(&self.spans, name))
    }

    /// Solve sites, in first-appearance order.
    pub fn solver_names(&self) -> Vec<&str> {
        names(&self.solvers)
    }

    /// The solver rollup of one solve site, merged across tracks.
    pub fn solver(&self, site: &str) -> Option<Cow<'_, SolverRollup>> {
        merged(tracks_of(&self.solvers, site))
    }

    /// Total solve events across all sites.
    pub fn total_solves(&self) -> u64 {
        self.solvers.iter().map(|(_, s)| s.solves()).sum()
    }

    /// Span of event timestamps (0.0 for empty or single-event traces).
    pub fn duration_s(&self) -> f64 {
        match (self.first_t_s, self.last_t_s) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => 0.0,
        }
    }

    /// Spans left open or ended without a start on their track, summed
    /// over all names — 0 for a cleanly recorded trace.
    pub fn unpaired_spans(&self) -> u64 {
        self.spans
            .iter()
            .map(|(_, s)| s.open + s.unmatched_ends)
            .sum()
    }
}

/// Expands one event into exportable time-series points, appended to
/// `out` as `(series, value)` pairs (the timestamp is the event's own
/// `t_s`):
///
/// * gauges and histograms → one point on the series of that name;
/// * gating events → `<name>.active` (the active-regulator count);
/// * solve events → `<name>.iters` and `<name>.residual`;
/// * span ends → `<name>.dur_s`.
///
/// Everything else (counters, span starts, progress) carries no
/// plottable instantaneous value and contributes nothing. This is the
/// mapping behind `tg-obs export`: T_max arrives as the
/// `thermal.max_silicon_c` gauge, the measured per-window noise (after
/// the detector backstop clips a missed droop; Fig. 14) as the
/// `engine.window_noise_pct` histogram, the raw peak of every noise
/// analysis — the VT policies' ground-truth checks included — as the
/// `pdn.noise_max_pct` gauge, `n_on` as `engine.gating.active`, and
/// solver residuals as `<site>.residual`.
pub fn series_points(event: &ParsedEvent, out: &mut Vec<(String, f64)>) {
    match event.kind {
        EventKind::Gauge | EventKind::Histogram => {
            if let Some(v) = event.field_f64("value") {
                out.push((event.name.clone(), v));
            }
        }
        EventKind::Gating => {
            if let Some(a) = event.field_f64("active") {
                out.push((format!("{}.active", event.name), a));
            }
        }
        EventKind::Solve => {
            if let Some(i) = event.field_f64("iters") {
                out.push((format!("{}.iters", event.name), i));
            }
            if let Some(r) = event.field_f64("residual") {
                out.push((format!("{}.residual", event.name), r));
            }
        }
        EventKind::Frame => {
            if let Some(v) = event.field_f64("value") {
                out.push((event.name.clone(), v));
            }
        }
        EventKind::SpanEnd => {
            if let Some(d) = event.field_f64("dur_s") {
                out.push((format!("{}.dur_s", event.name), d));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    /// Records a small synthetic run and returns its JSONL text.
    fn sample_trace() -> String {
        let (tel, sink) = Telemetry::recorder();
        {
            let _run = tel.span("engine.run");
            for k in 0..4u64 {
                tel.event(EventKind::Gating, "engine.gating")
                    .field_u64("decision", k)
                    .field_u64("active", 10 + k)
                    .field_u64("turned_on", 1)
                    .field_u64("turned_off", if k > 1 { 2 } else { 0 })
                    .emit();
                tel.counter("engine.decisions", 1);
                tel.histogram("engine.window_noise_pct", 4.0 + k as f64);
                tel.solve("thermal.gs", 10 + k as usize, 1e-9 * (k + 1) as f64);
            }
            tel.event(EventKind::Emergency, "engine.emergency_check")
                .field_u64("flagged_domains", 2)
                .field_u64("true_domains", 1)
                .field_u64("mispredicted", 1)
                .emit();
            tel.event(EventKind::Emergency, "engine.emergency_check")
                .field_u64("flagged_domains", 0)
                .field_u64("true_domains", 0)
                .field_u64("mispredicted", 0)
                .emit();
            tel.gauge("thermal.max_silicon_c", 63.5);
        }
        sink.events().iter().map(|e| e.to_json() + "\n").collect()
    }

    #[test]
    fn analysis_counts_and_rolls_up() {
        let text = sample_trace();
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert_eq!(a.events, text.lines().count() as u64);
        assert_eq!(a.kind_count(EventKind::Gating), 4);
        assert_eq!(a.kind_count(EventKind::Emergency), 2);
        assert_eq!(a.counter("engine.decisions"), 4);

        let noise = a.rollup("engine.window_noise_pct").unwrap();
        assert_eq!(noise.count(), 4);
        assert_eq!(noise.min(), Some(4.0));
        assert_eq!(noise.max(), Some(7.0));
        assert_eq!(noise.percentile(50.0), Some(5.5));

        let gs = a.solver("thermal.gs").unwrap();
        assert_eq!(gs.solves(), 4);
        assert_eq!(gs.iters.percentile(0.0), Some(10.0));
        assert_eq!(gs.iters.percentile(100.0), Some(13.0));
        assert_eq!(gs.residuals.max(), Some(4e-9));

        assert_eq!(a.gating.decisions, 4);
        assert_eq!(a.gating.turned_on, 4);
        assert_eq!(a.gating.turned_off, 4);
        assert_eq!(a.gating.churn(), 8);
        assert_eq!(a.gating.churn_per_decision(), Some(2.0));
        assert_eq!(a.gating.active().unwrap().mean(), Some(11.5));

        assert_eq!(a.emergency.checks, 2);
        assert_eq!(a.emergency.with_emergency, 1);
        assert_eq!(a.emergency.flagged_domains, 2);
        assert_eq!(a.emergency.mispredicted, 1);
        assert_eq!(a.emergency.emergency_rate(), Some(0.5));

        let run = a.span("engine.run").unwrap();
        assert_eq!(run.completed(), 1);
        assert_eq!(run.open, 0);
        assert_eq!(run.unmatched_ends, 0);
        assert_eq!(a.unpaired_spans(), 0);
        assert!(run.durations.max().unwrap() >= 0.0);
        assert!(!a.truncated);
        assert_eq!(a.malformed_lines, 0);
    }

    #[test]
    fn truncated_final_line_is_recovered() {
        let mut text = sample_trace();
        // Cut the final record mid-JSON, dropping its newline.
        text.truncate(text.len() - 15);
        assert!(!text.ends_with('\n'));
        let full_events = sample_trace().lines().count() as u64;
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert!(a.truncated);
        assert_eq!(a.events, full_events - 1);
        assert_eq!(a.malformed_lines, 0);
    }

    #[test]
    fn malformed_interior_lines_are_skipped_and_counted() {
        let good = sample_trace();
        let lines: Vec<&str> = good.lines().collect();
        let text = format!(
            "{}\nnot json at all\n{{\"t\":1}}\n{}\n",
            lines[0],
            lines[1..].join("\n")
        );
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert_eq!(a.malformed_lines, 2);
        assert_eq!(a.events, lines.len() as u64);
        assert!(!a.truncated);
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = format!("\n\n{}\n\n", sample_trace());
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert_eq!(a.malformed_lines, 0);
        assert_eq!(a.events, sample_trace().lines().count() as u64);
    }

    #[test]
    fn null_values_count_as_non_finite() {
        // The writer emits NaN gauges as null; the rollup must not
        // panic and must surface the bad observation.
        let (tel, sink) = Telemetry::recorder();
        tel.gauge("g", f64::NAN);
        tel.gauge("g", 2.0);
        tel.solve("s", 3, f64::NAN);
        let text: String = sink.events().iter().map(|e| e.to_json() + "\n").collect();
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        let g = a.rollup("g").unwrap();
        assert_eq!(g.count(), 1);
        assert_eq!(g.non_finite(), 1);
        assert_eq!(g.percentile(99.0), Some(2.0));
        let s = a.solver("s").unwrap();
        assert_eq!(s.solves(), 1);
        assert_eq!(s.residuals.non_finite(), 1);
    }

    #[test]
    fn unmatched_spans_are_reported() {
        let lines = "\
            {\"t\":0.1,\"kind\":\"span_end\",\"name\":\"a\",\"dur_s\":0.1}\n\
            {\"t\":0.2,\"kind\":\"span_start\",\"name\":\"b\"}\n";
        let a = TraceAnalysis::from_reader(lines.as_bytes()).unwrap();
        assert_eq!(a.span("a").unwrap().unmatched_ends, 1);
        assert_eq!(a.span("b").unwrap().open, 1);
        assert_eq!(a.unpaired_spans(), 2);
    }

    #[test]
    fn spans_pair_per_track() {
        // A track-2 end must not close the track-0 start of the same
        // name: it is an unmatched end, and the real end pairs later.
        let lines = "\
            {\"t\":0.0,\"kind\":\"span_start\",\"name\":\"run\"}\n\
            {\"t\":0.1,\"kind\":\"span_end\",\"name\":\"run\",\"dur_s\":0.1,\"track\":2}\n\
            {\"t\":0.13,\"kind\":\"span_end\",\"name\":\"run\",\"dur_s\":0.13}\n";
        for mut a in [TraceAnalysis::new(), TraceAnalysis::bounded()] {
            a = a.read_from(lines.as_bytes()).unwrap();
            let run = a.span("run").unwrap();
            assert_eq!(run.completed(), 1);
            assert_eq!(run.open, 0);
            assert_eq!(run.unmatched_ends, 1);
            assert_eq!(run.durations.max(), Some(0.13));
            assert_eq!(a.unpaired_spans(), 1);
        }
    }

    /// A stream of solve, gauge, gating, and span events on three
    /// tracks, each track in its own order.
    fn per_track_streams() -> Vec<Vec<Event>> {
        (1..=3u64)
            .map(|track| {
                let sink = std::sync::Arc::new(crate::telemetry::MemorySink::default());
                let tel = Telemetry::with_sink_tracked(sink.clone(), track);
                let _cell = tel.span("sweep.cell");
                for k in 0..40u64 {
                    let x = (k * 37 + track * 11) % 53;
                    tel.solve("pdn.ir_cg", 20 + x as usize, 1e-9 * (x + 1) as f64);
                    tel.histogram("engine.window_noise_pct", 3.0 + x as f64 / 7.0);
                    tel.event(EventKind::Gating, "engine.gating")
                        .field_u64("active", 8 + x % 9)
                        .emit();
                }
                drop(_cell);
                sink.events()
            })
            .collect()
    }

    /// Interleaves the per-track streams round-robin, visiting the
    /// tracks in `order`; each track keeps its own event order.
    fn interleave(streams: &[Vec<Event>], order: &[usize]) -> Vec<Event> {
        let mut cursors = vec![0; streams.len()];
        let mut out = Vec::new();
        while out.len() < streams.iter().map(Vec::len).sum() {
            for &s in order {
                for _ in 0..=s {
                    if let Some(e) = streams[s].get(cursors[s]) {
                        out.push(e.clone());
                        cursors[s] += 1;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn bounded_results_do_not_depend_on_track_interleaving() {
        let streams = per_track_streams();
        let fold = |events: Vec<Event>| {
            let mut a = TraceAnalysis::bounded();
            for e in &events {
                a.observe(e);
            }
            a
        };
        let a = fold(interleave(&streams, &[0, 1, 2]));
        let b = fold(interleave(&streams, &[2, 0, 1]));
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let (sa, sb) = (
                a.solver("pdn.ir_cg").unwrap(),
                b.solver("pdn.ir_cg").unwrap(),
            );
            assert_eq!(sa.iters.percentile(p), sb.iters.percentile(p), "iters p{p}");
            assert_eq!(sa.residuals.percentile(p), sb.residuals.percentile(p));
            let (ra, rb) = (
                a.rollup("engine.window_noise_pct"),
                b.rollup("engine.window_noise_pct"),
            );
            assert_eq!(
                ra.unwrap().percentile(p),
                rb.unwrap().percentile(p),
                "noise p{p}"
            );
            let (ga, gb) = (a.gating.active().unwrap(), b.gating.active().unwrap());
            assert_eq!(ga.percentile(p), gb.percentile(p), "active p{p}");
        }
        assert_eq!(
            a.rollup("engine.window_noise_pct").unwrap().mean(),
            b.rollup("engine.window_noise_pct").unwrap().mean()
        );
        assert_eq!(a.span("sweep.cell"), b.span("sweep.cell"));
        assert_eq!(a.total_solves(), 120);
    }

    #[test]
    fn exact_mode_matches_a_single_stream_fold_on_multi_track_traces() {
        // Exact statistics over interleaved tracks equal the statistics
        // of the merged stream in arrival order, bit for bit — the sum
        // included.
        let events = interleave(&per_track_streams(), &[1, 2, 0]);
        let mut a = TraceAnalysis::new();
        let mut values = Vec::new();
        for e in &events {
            a.observe(e);
            if e.name == "engine.window_noise_pct" {
                values.push(e.num("value").unwrap());
            }
        }
        let noise = a.rollup("engine.window_noise_pct").unwrap();
        assert_eq!(noise.values(), Some(values.as_slice()));
        assert_eq!(noise.sum().to_bits(), values.iter().sum::<f64>().to_bits());
        assert_eq!(noise.mean(), stats::mean(&values));
        assert_eq!(noise.percentile(37.5), stats::percentile(&values, 37.5));
        assert_eq!(a.span("sweep.cell").unwrap().completed(), 3);
        assert_eq!(a.unpaired_spans(), 0);
    }

    #[test]
    fn bounded_mode_stores_nothing_per_observation() {
        let streams = per_track_streams();
        let footprint = |rounds: usize| {
            let mut a = TraceAnalysis::bounded();
            for _ in 0..rounds {
                for stream in &streams {
                    for e in stream {
                        a.observe(e);
                    }
                }
            }
            let rollups = a
                .rollups
                .iter()
                .map(|(_, r)| r)
                .chain(a.spans.iter().map(|(_, s)| &s.durations))
                .chain(a.solvers.iter().flat_map(|(_, s)| [&s.iters, &s.residuals]))
                .chain(a.gating.active_by_track.iter().map(|(_, r)| r));
            let mut kept = 0;
            for r in rollups {
                assert_eq!(r.values(), None);
                kept += 1;
            }
            (a.events, kept, a.span_depth.len(), a.counters.len())
        };
        let (small_events, small_kept, small_depth, small_counters) = footprint(1);
        let (large_events, large_kept, large_depth, large_counters) = footprint(50);
        assert_eq!(large_events, 50 * small_events);
        assert_eq!(
            (small_kept, small_depth, small_counters),
            (large_kept, large_depth, large_counters)
        );
    }

    #[test]
    fn series_points_expand_expected_kinds() {
        let (tel, sink) = Telemetry::recorder();
        tel.gauge("thermal.max_silicon_c", 63.5);
        tel.event(EventKind::Gating, "engine.gating")
            .field_u64("active", 12)
            .emit();
        tel.solve("pdn.ir_cg", 8, 1e-10);
        tel.counter("engine.steps", 50);
        let mut points = Vec::new();
        for event in sink.events() {
            let parsed = ParsedEvent::from_line(&event.to_json()).unwrap();
            series_points(&parsed, &mut points);
        }
        let names: Vec<&str> = points.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "thermal.max_silicon_c",
                "engine.gating.active",
                "pdn.ir_cg.iters",
                "pdn.ir_cg.residual"
            ]
        );
        assert_eq!(points[0].1, 63.5);
        assert_eq!(points[2].1, 8.0);
    }

    #[test]
    fn parsed_event_rejects_bad_envelopes() {
        for bad in [
            "[1,2]",
            "{\"kind\":\"gauge\",\"name\":\"x\"}",
            "{\"t\":1.0,\"kind\":\"nope\",\"name\":\"x\"}",
            "{\"t\":1.0,\"kind\":\"gauge\"}",
            "{\"t\":1.0,\"kind\":\"gauge\",\"name\":\"\"}",
            "{\"t\":-1.0,\"kind\":\"gauge\",\"name\":\"x\"}",
            "{\"t\":null,\"kind\":\"gauge\",\"name\":\"x\"}",
        ] {
            assert!(ParsedEvent::from_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_trace_analyzes_to_empty() {
        let a = TraceAnalysis::from_reader("".as_bytes()).unwrap();
        assert_eq!(a.events, 0);
        assert_eq!(a.duration_s(), 0.0);
        assert_eq!(a.first_t_s, None);
        assert!(a.counters.is_empty() && a.rollups.is_empty());
    }

    /// A scratch directory unique to the calling test.
    fn tail_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tg_tail_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn event_line(name: &str, value: u64) -> String {
        format!("{{\"t\":0.5,\"kind\":\"counter\",\"name\":\"{name}\",\"delta\":{value}}}\n")
    }

    #[test]
    fn tailer_holds_a_partial_final_line_until_it_completes() {
        use std::io::Write;
        let dir = tail_dir("partial");
        let path = dir.join("trace.jsonl");
        let full = event_line("a", 1);
        let (head, rest) = full.split_at(20);
        std::fs::write(&path, head).expect("write partial");

        let mut tailer = TraceTailer::follow(&path).expect("open");
        assert!(tailer.poll().expect("poll").is_empty());
        assert!(tailer.partial_tail());
        assert_eq!(tailer.offset(), 0, "partial bytes stay uncommitted");

        // The writer finishes the record (and appends another).
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen");
        write!(file, "{rest}{}", event_line("b", 2)).expect("complete line");
        drop(file);

        let events = tailer.poll().expect("poll");
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(!tailer.partial_tail());
        assert_eq!(tailer.malformed_lines(), 0);
        assert_eq!(
            tailer.offset() as usize,
            full.len() + event_line("b", 2).len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tailer_sees_appends_between_polls() {
        use std::io::Write;
        let dir = tail_dir("append");
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, event_line("first", 1)).expect("seed");
        let mut tailer = TraceTailer::follow(&path).expect("open");
        assert_eq!(tailer.poll().expect("poll").len(), 1);
        assert!(tailer.poll().expect("idle poll").is_empty());

        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen");
        for k in 0..5 {
            write!(file, "{}", event_line("more", k)).expect("append");
            file.flush().expect("flush");
            let events = tailer.poll().expect("poll");
            assert_eq!(events.len(), 1, "append {k} visible immediately");
            assert_eq!(events[0].field_u64("delta"), Some(k));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tailer_resume_at_offset_matches_a_one_shot_read() {
        let dir = tail_dir("resume");
        let path = dir.join("trace.jsonl");
        let mut trace = String::new();
        trace.push_str(&event_line("a", 1));
        trace.push_str("this line is garbage\n");
        trace.push_str(&event_line("b", 2));
        trace.push_str(&event_line("c", 3));
        std::fs::write(&path, &trace).expect("write");

        // Tail part of the file, remember the offset, then resume.
        let mut first = TraceTailer::follow(&path).expect("open");
        let mut streamed: Vec<String> = first
            .poll()
            .expect("poll")
            .iter()
            .map(|e| e.name.clone())
            .collect();
        let malformed = first.malformed_lines();
        let offset = first.offset();
        drop(first);
        let mut resumed = TraceTailer::resume(&path, offset).expect("resume");
        streamed.extend(resumed.poll().expect("poll").iter().map(|e| e.name.clone()));

        // One-shot batch read of the finished file.
        let mut reader = TraceReader::open(&path).expect("open");
        let mut batch = Vec::new();
        while let Some(event) = reader.next_event().expect("read") {
            batch.push(event.name.clone());
        }
        assert_eq!(streamed, batch);
        assert_eq!(
            malformed + resumed.malformed_lines(),
            reader.malformed_lines()
        );

        // Resuming mid-stream (after just the first line) also loses
        // nothing: offset commits are per-line.
        let first_line = event_line("a", 1).len() as u64;
        let mut mid = TraceTailer::resume(&path, first_line).expect("resume");
        let names: Vec<String> = mid
            .poll()
            .expect("poll")
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, ["b", "c"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

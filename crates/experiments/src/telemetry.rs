//! Wiring between experiment binaries and `simkit::telemetry`.
//!
//! A [`TelemetryCtx`] owns one telemetry output directory for a run:
//! every event goes to a `trace.jsonl` JSONL writer and, in parallel,
//! into a [`LiveSink`] — the bounded-mode
//! [`TraceAnalysis`] that `tg-obs watch` runs over a trace file, here
//! run in process — so binaries can print a counter/histogram summary
//! table next to their phase tables. Event counts are tracked at two
//! levels — per run and per sweep cell — so [`TelemetryCtx::finish`]
//! can write a `manifest.json` whose `events_total` provably matches
//! the number of trace lines.
//!
//! ```text
//! Telemetry handle ──► CountingSink (run or cell) ──► Fanout
//!                                                       ├─► JsonlSink (trace.jsonl)
//!                                                       └─► LiveSink  (bounded TraceAnalysis)
//! ```

use crate::context::ExpOptions;
use simkit::telemetry::analyze::TraceAnalysis;
use simkit::telemetry::live::LiveSink;
use simkit::telemetry::manifest::{RunManifest, MANIFEST_FILE, TRACE_FILE};
use simkit::telemetry::{CountingSink, FanoutSink, JsonlSink, Telemetry, TelemetrySink};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default trace-flush cadence (events per flush). Overridable with
/// `SIMKIT_FLUSH_EVERY` (`0` disables mid-run flushing); the default
/// keeps a tailing `tg-obs watch` at most a few hundred events stale
/// while costing one syscall per batch.
pub const DEFAULT_FLUSH_EVERY: u64 = 256;

/// The trace-flush cadence from `SIMKIT_FLUSH_EVERY`, defaulting to
/// [`DEFAULT_FLUSH_EVERY`].
fn flush_every_from_env() -> u64 {
    std::env::var("SIMKIT_FLUSH_EVERY")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_FLUSH_EVERY)
}

/// One run's telemetry outputs: a JSONL trace, an in-process
/// aggregate, and the bookkeeping needed to write a consistent
/// manifest.
#[derive(Debug)]
pub struct TelemetryCtx {
    dir: PathBuf,
    /// JSONL + aggregation fanout every event ends up in.
    shared: Arc<FanoutSink>,
    /// Counts run-level events (everything not attributed to a cell).
    run_counter: Arc<CountingSink>,
    live: Arc<LiveSink>,
    /// Whether [`TelemetryCtx::finish`] reports the aggregation cost.
    self_report: bool,
    telemetry: Telemetry,
    /// Next track id to hand out to a sweep cell. Track 0 is the
    /// run-level handle; cells get 1, 2, … so the profiler and the
    /// Chrome-trace export can keep concurrent cells on separate lanes.
    next_track: AtomicU64,
}

impl TelemetryCtx {
    /// Creates the output directory (and parents) and opens
    /// `trace.jsonl` inside it.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        TelemetryCtx::create_with(dir, false)
    }

    /// [`TelemetryCtx::create`] with the aggregation self-report:
    /// [`TelemetryCtx::finish`] then emits `telemetry.live.events` /
    /// `telemetry.live.overhead` counters reporting what the in-process
    /// aggregation cost.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn create_with(dir: impl Into<PathBuf>, self_report: bool) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let jsonl =
            Arc::new(JsonlSink::create(&dir.join(TRACE_FILE))?.flush_every(flush_every_from_env()));
        let live = Arc::new(LiveSink::new());
        let shared = Arc::new(FanoutSink::new(vec![
            jsonl as Arc<dyn TelemetrySink>,
            Arc::clone(&live) as Arc<dyn TelemetrySink>,
        ]));
        let run_counter = Arc::new(CountingSink::new(
            Arc::clone(&shared) as Arc<dyn TelemetrySink>
        ));
        let telemetry = Telemetry::with_sink(Arc::clone(&run_counter) as Arc<dyn TelemetrySink>);
        Ok(TelemetryCtx {
            dir,
            shared,
            run_counter,
            live,
            self_report,
            telemetry,
            next_track: AtomicU64::new(1),
        })
    }

    /// Builds a context from `--telemetry=<dir>` / `SIMKIT_TELEMETRY`
    /// (with `--live` / `SIMKIT_LIVE` turning on the aggregation
    /// self-report).
    /// Returns `None` when telemetry is not requested; a requested
    /// directory that cannot be created is reported on stderr and also
    /// yields `None` (the simulation still runs, untraced).
    pub fn from_options(opts: &ExpOptions) -> Option<Self> {
        let dir = opts.telemetry.as_ref()?;
        match TelemetryCtx::create_with(dir, opts.live) {
            Ok(ctx) => Some(ctx),
            Err(e) => {
                eprintln!("warning: cannot open telemetry dir {}: {e}", dir.display());
                None
            }
        }
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run-level telemetry handle (events count toward
    /// `run_events` in the manifest).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// A fresh handle for one sweep cell, with its own event counter
    /// (events count toward that cell's manifest entry, not
    /// `run_events`) and a unique track id (1, 2, …) stamped onto every
    /// event, so concurrent cells stay on separate timeline lanes.
    /// Sinks are shared, so the cell's events land in the same trace
    /// and aggregate.
    pub fn cell_handle(&self) -> (Telemetry, Arc<CountingSink>) {
        let counter = Arc::new(CountingSink::new(
            Arc::clone(&self.shared) as Arc<dyn TelemetrySink>
        ));
        let track = self.next_track.fetch_add(1, Ordering::Relaxed);
        let telemetry =
            Telemetry::with_sink_tracked(Arc::clone(&counter) as Arc<dyn TelemetrySink>, track);
        (telemetry, counter)
    }

    /// A snapshot of the bounded-mode aggregate of everything emitted
    /// so far (render with [`crate::report::metrics_report`]).
    pub fn analysis(&self) -> TraceAnalysis {
        self.live.snapshot()
    }

    /// Events emitted through the run-level handle so far.
    pub fn run_events(&self) -> u64 {
        self.run_counter.count()
    }

    /// Stamps `manifest.run_events`, flushes the trace, and writes
    /// `manifest.json` into the directory. Cell entries must already be
    /// in `manifest.cells`; run-level events are counted here so the
    /// manifest's `events_total` equals the trace's line count.
    ///
    /// With the self-report on, the aggregation cost is emitted first —
    /// `telemetry.live.events` (events folded) and
    /// `telemetry.live.overhead` (whole µs inside the aggregator) —
    /// through the run-level handle, so the counters land in the trace
    /// *before* `run_events` is stamped and the totals still match.
    ///
    /// # Errors
    ///
    /// Propagates flush and write failures.
    pub fn finish(&self, manifest: &mut RunManifest) -> io::Result<PathBuf> {
        if self.self_report {
            self.telemetry
                .counter("telemetry.live.events", self.live.events());
            self.telemetry
                .counter("telemetry.live.overhead", self.live.overhead_us());
        }
        manifest.run_events = self.run_events();
        self.telemetry.flush()?;
        let path = self.dir.join(MANIFEST_FILE);
        manifest.write(&path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::EventKind;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tg-telemetry-ctx-{tag}-{}", std::process::id()))
    }

    #[test]
    fn run_and_cell_events_are_counted_separately() {
        let dir = temp_dir("counts");
        let ctx = TelemetryCtx::create(&dir).unwrap();
        ctx.telemetry().counter("run.level", 1);
        let (cell_tel, cell_counter) = ctx.cell_handle();
        cell_tel.gauge("cell.level", 1.0);
        cell_tel.gauge("cell.level", 2.0);
        assert_eq!(ctx.run_events(), 1);
        assert_eq!(cell_counter.count(), 2);

        let mut manifest = RunManifest::new("test");
        manifest
            .cells
            .push(simkit::telemetry::manifest::CellManifest {
                label: "cell".into(),
                seconds: 0.0,
                events: cell_counter.count(),
                cached: false,
            });
        let path = ctx.finish(&mut manifest).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RunManifest::from_json(text.trim()).unwrap();
        assert_eq!(back.total_events(), 3);

        // Trace line count matches the manifest total.
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        assert_eq!(trace.lines().count() as u64, back.total_events());
        // Both handles fed the one aggregate.
        let analysis = ctx.analysis();
        assert_eq!(analysis.counter("run.level"), 1);
        assert_eq!(analysis.rollup("cell.level").unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_handles_get_distinct_track_ids() {
        let dir = temp_dir("tracks");
        let ctx = TelemetryCtx::create(&dir).unwrap();
        assert_eq!(ctx.telemetry().track(), 0);
        let (a, _) = ctx.cell_handle();
        let (b, _) = ctx.cell_handle();
        assert_eq!(a.track(), 1);
        assert_eq!(b.track(), 2);

        ctx.telemetry().counter("run.level", 1);
        a.counter("cell.level", 1);
        ctx.telemetry().flush().unwrap();
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        let mut lines = trace.lines();
        let run_line = lines.next().unwrap();
        let cell_line = lines.next().unwrap();
        // Track 0 stays off the wire; cells stamp theirs on every event.
        assert!(!run_line.contains("\"track\""));
        assert!(cell_line.contains("\"track\":1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_sink_reports_its_own_cost_in_the_trace() {
        let dir = temp_dir("live");
        let ctx = TelemetryCtx::create_with(&dir, true).unwrap();
        ctx.telemetry().counter("engine.decisions", 1);
        ctx.telemetry().gauge("thermal.max_c", 61.0);
        let stats = ctx.analysis();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.counter("engine.decisions"), 1);

        let mut manifest = RunManifest::new("test");
        ctx.finish(&mut manifest).unwrap();
        // The two payload events plus the two self-report counters all
        // count toward run_events, so the manifest matches the trace.
        assert_eq!(manifest.run_events, 4);
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        assert_eq!(trace.lines().count(), 4);
        assert!(trace.contains("telemetry.live.events"));
        assert!(trace.contains("telemetry.live.overhead"));
        // Without the flag the aggregate still runs, but reports
        // nothing into the trace.
        let plain = TelemetryCtx::create(&dir).unwrap();
        plain.telemetry().counter("engine.decisions", 1);
        let mut manifest = RunManifest::new("test");
        plain.finish(&mut manifest).unwrap();
        assert_eq!(manifest.run_events, 1);
        assert_eq!(plain.analysis().events, 1);
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        assert!(!trace.contains("telemetry.live"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_options_respects_absence() {
        assert!(TelemetryCtx::from_options(&ExpOptions::tiny()).is_none());
        let dir = temp_dir("opts");
        let opts = ExpOptions::tiny().with_telemetry(&dir);
        let ctx = TelemetryCtx::from_options(&opts).expect("telemetry dir creatable");
        ctx.telemetry()
            .event(EventKind::Progress, "run.start")
            .emit();
        assert_eq!(ctx.run_events(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

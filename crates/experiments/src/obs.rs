//! Run and snapshot diffing with per-metric relative tolerances.
//!
//! `tg-obs diff` reduces two runs (JSONL trace + manifest) or two
//! [`BenchSnapshot`]s to a flat list of [`MetricDelta`]s. Every metric
//! carries its own tolerance and *direction*:
//!
//! * deterministic simulation metrics (event counts, counters, gauge
//!   means, solver iterations, gating churn) gate **exactly** or near
//!   exactly in either direction — the engine is bit-reproducible, so
//!   any drift means behaviour changed;
//! * wall-clock metrics (span durations, phase seconds) are
//!   **informational** — they never gate, they are reported for eyes;
//! * snapshot performance metrics gate **directionally** with loose
//!   tolerances (throughput may only drop so far, solver iterations and
//!   peak RSS may only grow so far) — an improvement is never a
//!   failure.
//!
//! A diff with at least one [`Verdict::Regression`] is a non-zero exit
//! for the CLI; the offending metrics are named in the rendered table.

use crate::report::TextTable;
use crate::snapshot::BenchSnapshot;
use simkit::telemetry::analyze::TraceAnalysis;
use simkit::telemetry::manifest::RunManifest;
use simkit::telemetry::EventKind;

/// How a metric is allowed to move between baseline `a` and candidate
/// `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Any relative change beyond tolerance is a regression.
    BothWays,
    /// Only an increase beyond tolerance is a regression (iterations,
    /// RSS, residuals).
    HigherIsWorse,
    /// Only a decrease beyond tolerance is a regression (throughput).
    LowerIsWorse,
    /// Never gates; reported for context (wall-clock noise).
    Informational,
}

/// The outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or an allowed-direction change).
    Ok,
    /// Out of tolerance in a gating direction.
    Regression,
    /// Informational metric; never gates.
    Info,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name, e.g. `"solver.thermal.transient_cg.iters_p95"`.
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// Relative change `(b - a) / |a|` (sign preserved; ±∞ when the
    /// baseline is zero and the candidate is not).
    pub rel_change: f64,
    /// Allowed relative change.
    pub tolerance: f64,
    /// Gating direction.
    pub direction: Direction,
    /// Outcome.
    pub verdict: Verdict,
}

/// Per-metric tolerance overrides (`--tol name=rel` on the CLI) and the
/// cross-backend comparison mode (`--solver-agnostic`).
#[derive(Debug, Clone, Default)]
pub struct DiffConfig {
    overrides: Vec<(String, f64)>,
    solver_agnostic: bool,
}

impl DiffConfig {
    /// No overrides: built-in defaults apply.
    pub fn new() -> Self {
        DiffConfig::default()
    }

    /// Overrides the tolerance for one exact metric name.
    pub fn with_tolerance(mut self, metric: &str, tolerance: f64) -> Self {
        self.overrides.push((metric.to_string(), tolerance));
        self
    }

    /// Compares runs produced by *different solver backends*: solver
    /// sites are matched by their backend-stripped canonical name and
    /// only their solve counts gate (iteration counts and residuals are
    /// meaningless across solver families), while simulation metrics
    /// gate at [`PHYS_TOL`] instead of bit-tightness — different solvers
    /// agree to solver tolerance, not to the last ulp.
    pub fn solver_agnostic(mut self, yes: bool) -> Self {
        self.solver_agnostic = yes;
        self
    }

    fn tolerance(&self, metric: &str, default: f64) -> f64 {
        self.overrides
            .iter()
            .rev()
            .find(|(name, _)| name == metric)
            .map_or(default, |(_, t)| *t)
    }
}

/// The result of one diff: every compared metric, in comparison order.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All compared metrics.
    pub deltas: Vec<MetricDelta>,
}

impl DiffReport {
    fn push(
        &mut self,
        config: &DiffConfig,
        metric: String,
        a: f64,
        b: f64,
        default_tol: f64,
        direction: Direction,
    ) {
        let tolerance = config.tolerance(&metric, default_tol);
        let rel_change = if a == b {
            0.0
        } else if a == 0.0 {
            f64::INFINITY * (b - a).signum()
        } else {
            (b - a) / a.abs()
        };
        let verdict = match direction {
            Direction::Informational => Verdict::Info,
            _ if rel_change == 0.0 => Verdict::Ok,
            Direction::BothWays if rel_change.abs() > tolerance => Verdict::Regression,
            Direction::HigherIsWorse if rel_change > tolerance => Verdict::Regression,
            Direction::LowerIsWorse if rel_change < -tolerance => Verdict::Regression,
            _ => Verdict::Ok,
        };
        self.deltas.push(MetricDelta {
            metric,
            a,
            b,
            rel_change,
            tolerance,
            direction,
            verdict,
        });
    }

    /// The metrics that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regression)
    }

    /// Whether any metric regressed (CLI exit status).
    pub fn has_regression(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Merges another report's deltas in.
    pub fn extend(&mut self, other: DiffReport) {
        self.deltas.extend(other.deltas);
    }

    /// Renders the comparison as a column-aligned table. With
    /// `only_notable`, Ok rows are dropped (Info rows with a visible
    /// change and all regressions stay).
    pub fn render(&self, only_notable: bool) -> String {
        let mut table = TextTable::new(&["metric", "a", "b", "Δ%", "tol%", "verdict"]);
        for d in &self.deltas {
            if only_notable && d.verdict == Verdict::Ok {
                continue;
            }
            if only_notable && d.verdict == Verdict::Info && d.rel_change == 0.0 {
                continue;
            }
            let pct = |v: f64| {
                if v.is_finite() {
                    format!("{:+.2}", v * 100.0)
                } else {
                    "inf".to_string()
                }
            };
            table.add_row(vec![
                d.metric.clone(),
                format!("{:.6}", d.a),
                format!("{:.6}", d.b),
                pct(d.rel_change),
                format!("{:.2}", d.tolerance * 100.0),
                match d.verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Info => "info".to_string(),
                },
            ]);
        }
        table.render()
    }
}

/// Relative tolerance for simulation metrics in a cross-backend diff
/// ([`DiffConfig::solver_agnostic`]): direct and iterative solvers agree
/// to solver tolerance (measured ≤6e-9 relative on the hotspot
/// temperature — BENCH.md), far inside this bound, while any real
/// physics change is far outside it.
pub const PHYS_TOL: f64 = 1e-6;

/// Backend-stripped canonical solver-site name: `thermal.steady_cg`,
/// `thermal.steady_mgcg`, and `thermal.steady_direct` all solve the
/// steady conductance system, and `thermal.transient_cg` /
/// `thermal.transient_mgcg` / `thermal.transient_direct` all solve the
/// backward-Euler step — a cross-backend diff matches sites by *what*
/// they solve, not how. (`_mgcg` strips before `_cg`: the suffixes
/// overlap.)
fn canonical_site(name: &str) -> &str {
    name.strip_suffix("_mgcg")
        .or_else(|| name.strip_suffix("_cg"))
        .or_else(|| name.strip_suffix("_direct"))
        .unwrap_or(name)
}

/// Unions the names of two ordered name-keyed slices, preserving `a`'s
/// order then appending `b`-only names.
fn name_union<'s>(a: Vec<&'s str>, b: Vec<&'s str>) -> Vec<&'s str> {
    let mut names = a;
    for n in b {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    names
}

/// Compares two trace analyses.
///
/// Simulation metrics gate tightly (the engine is deterministic);
/// span-duration metrics are informational. A name present on only one
/// side shows up as a `count` metric with a zero on the missing side —
/// which gates, so a disappeared metric is a named regression, not a
/// silent hole.
pub fn diff_analyses(a: &TraceAnalysis, b: &TraceAnalysis, config: &DiffConfig) -> DiffReport {
    /// Relative slack for deterministic float aggregates: bitwise
    /// reproducibility is the repo's contract, but a diff should not
    /// fail on a last-ulp wobble in a mean.
    const EXACT: f64 = 0.0;
    const TIGHT: f64 = 1e-9;
    // Cross-backend comparisons agree to solver tolerance, not to the
    // last ulp of a deterministic replay.
    let metric_tol = if config.solver_agnostic {
        PHYS_TOL
    } else {
        TIGHT
    };

    let mut report = DiffReport::default();
    report.push(
        config,
        "events.total".into(),
        a.events as f64,
        b.events as f64,
        EXACT,
        Direction::BothWays,
    );
    for kind in EventKind::ALL {
        report.push(
            config,
            format!("events.{}", kind.as_str()),
            a.kind_count(kind) as f64,
            b.kind_count(kind) as f64,
            EXACT,
            Direction::BothWays,
        );
    }
    fn counter_names(x: &TraceAnalysis) -> Vec<&str> {
        x.counters.iter().map(|(n, _)| n.as_str()).collect()
    }
    for name in name_union(counter_names(a), counter_names(b)) {
        report.push(
            config,
            format!("counter.{name}"),
            a.counter(name) as f64,
            b.counter(name) as f64,
            EXACT,
            Direction::BothWays,
        );
    }
    for name in name_union(a.rollup_names(), b.rollup_names()) {
        let (ra, rb) = (a.rollup(name), b.rollup(name));
        let (ra, rb) = (ra.as_deref(), rb.as_deref());
        report.push(
            config,
            format!("metric.{name}.count"),
            ra.map_or(0.0, |r| r.count() as f64),
            rb.map_or(0.0, |r| r.count() as f64),
            EXACT,
            Direction::BothWays,
        );
        for (stat, get) in [
            ("mean", Rollfn::Mean),
            ("p50", Rollfn::P(50.0)),
            ("p99", Rollfn::P(99.0)),
        ] {
            report.push(
                config,
                format!("metric.{name}.{stat}"),
                ra.and_then(|r| get.eval(r)).unwrap_or(0.0),
                rb.and_then(|r| get.eval(r)).unwrap_or(0.0),
                metric_tol,
                Direction::BothWays,
            );
        }
    }
    if config.solver_agnostic {
        // Match sites by the system they solve; only the solve *counts*
        // gate (both backends must solve every system exactly as often).
        // Iteration counts and residuals are properties of the solver
        // family, not the simulation — they are not comparable and are
        // not reported here.
        let canon_solves = |x: &TraceAnalysis, canon: &str| -> f64 {
            x.solvers
                .iter()
                .filter(|((_, n), _)| canonical_site(n) == canon)
                .map(|(_, s)| s.solves() as f64)
                .sum()
        };
        let mut canon_names: Vec<&str> = Vec::new();
        for n in a.solver_names().into_iter().chain(b.solver_names()) {
            let c = canonical_site(n);
            if !canon_names.contains(&c) {
                canon_names.push(c);
            }
        }
        for canon in canon_names {
            report.push(
                config,
                format!("solver.{canon}.solves"),
                canon_solves(a, canon),
                canon_solves(b, canon),
                EXACT,
                Direction::BothWays,
            );
        }
    } else {
        for name in name_union(a.solver_names(), b.solver_names()) {
            let (sa, sb) = (a.solver(name), b.solver(name));
            let (sa, sb) = (sa.as_deref(), sb.as_deref());
            report.push(
                config,
                format!("solver.{name}.solves"),
                sa.map_or(0.0, |s| s.solves() as f64),
                sb.map_or(0.0, |s| s.solves() as f64),
                EXACT,
                Direction::BothWays,
            );
            report.push(
                config,
                format!("solver.{name}.iters_mean"),
                sa.and_then(|s| s.iters.mean()).unwrap_or(0.0),
                sb.and_then(|s| s.iters.mean()).unwrap_or(0.0),
                TIGHT,
                Direction::BothWays,
            );
            report.push(
                config,
                format!("solver.{name}.iters_p95"),
                sa.and_then(|s| s.iters.percentile(95.0)).unwrap_or(0.0),
                sb.and_then(|s| s.iters.percentile(95.0)).unwrap_or(0.0),
                TIGHT,
                Direction::BothWays,
            );
            report.push(
                config,
                format!("solver.{name}.residual_max"),
                sa.and_then(|s| s.residuals.max()).unwrap_or(0.0),
                sb.and_then(|s| s.residuals.max()).unwrap_or(0.0),
                TIGHT,
                Direction::BothWays,
            );
        }
    }
    report.push(
        config,
        "gating.decisions".into(),
        a.gating.decisions as f64,
        b.gating.decisions as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "gating.churn".into(),
        a.gating.churn() as f64,
        b.gating.churn() as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "gating.active_mean".into(),
        a.gating.active().and_then(|r| r.mean()).unwrap_or(0.0),
        b.gating.active().and_then(|r| r.mean()).unwrap_or(0.0),
        TIGHT,
        Direction::BothWays,
    );
    report.push(
        config,
        "emergency.checks".into(),
        a.emergency.checks as f64,
        b.emergency.checks as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "emergency.flagged_domains".into(),
        a.emergency.flagged_domains as f64,
        b.emergency.flagged_domains as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "emergency.mispredicted".into(),
        a.emergency.mispredicted as f64,
        b.emergency.mispredicted as f64,
        EXACT,
        Direction::BothWays,
    );
    for name in name_union(a.span_names(), b.span_names()) {
        report.push(
            config,
            format!("span.{name}.p50_s"),
            a.span(name)
                .and_then(|s| s.durations.percentile(50.0))
                .unwrap_or(0.0),
            b.span(name)
                .and_then(|s| s.durations.percentile(50.0))
                .unwrap_or(0.0),
            0.0,
            Direction::Informational,
        );
    }
    report
}

enum Rollfn {
    Mean,
    P(f64),
}

impl Rollfn {
    fn eval(&self, r: &simkit::telemetry::analyze::Rollup) -> Option<f64> {
        match self {
            Rollfn::Mean => r.mean(),
            Rollfn::P(p) => r.percentile(*p),
        }
    }
}

/// Compares two run manifests. Everything here is context (who produced
/// the runs, with what configuration), so all rows are informational —
/// except the event totals, which gate exactly like the trace counts.
pub fn diff_manifests(a: &RunManifest, b: &RunManifest, config: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    report.push(
        config,
        "manifest.config_hash_matches".into(),
        1.0,
        if a.config_hash() == b.config_hash() {
            1.0
        } else {
            0.0
        },
        0.0,
        Direction::Informational,
    );
    report.push(
        config,
        "manifest.threads".into(),
        a.threads as f64,
        b.threads as f64,
        0.0,
        Direction::Informational,
    );
    report.push(
        config,
        "manifest.cells".into(),
        a.cells.len() as f64,
        b.cells.len() as f64,
        0.0,
        Direction::BothWays,
    );
    report.push(
        config,
        "manifest.events_total".into(),
        a.total_events() as f64,
        b.total_events() as f64,
        0.0,
        Direction::BothWays,
    );
    report
}

/// Default tolerances for snapshot (performance) comparisons.
pub mod snapshot_tolerances {
    /// Throughput may drop this much before gating (wall-clock noise on
    /// shared CI hardware is real).
    pub const STEPS_PER_SEC: f64 = 0.25;
    /// Solver iterations are deterministic; a growth beyond this is a
    /// real algorithmic regression.
    pub const SOLVER_ITERS: f64 = 0.10;
    /// Peak RSS may grow this much before gating.
    pub const PEAK_RSS: f64 = 0.30;
    /// The frame recorder's share of run wall time may grow this much
    /// before gating (both the numerator and denominator are
    /// wall-clock, so the ratio is doubly env-sensitive; an order of
    /// magnitude means the recorder's cost model actually changed).
    pub const TELEMETRY_OVERHEAD: f64 = 9.0;
}

/// Compares two performance snapshots (`BENCH_*.json`).
///
/// Entries are matched by policy tag; an entry present on one side only
/// gates via the entry-count metric. Throughput gates downward, solver
/// iterations and peak RSS gate upward, phase/wall seconds are
/// informational.
pub fn diff_snapshots(a: &BenchSnapshot, b: &BenchSnapshot, config: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    report.push(
        config,
        "snap.entries".into(),
        a.entries.len() as f64,
        b.entries.len() as f64,
        0.0,
        Direction::BothWays,
    );
    if let (Some(ra), Some(rb)) = (a.peak_rss_bytes, b.peak_rss_bytes) {
        report.push(
            config,
            "snap.peak_rss_bytes".into(),
            ra as f64,
            rb as f64,
            snapshot_tolerances::PEAK_RSS,
            Direction::HigherIsWorse,
        );
    }
    // Frame-recorder overhead axis: the frame count is deterministic
    // for the pinned config and gates exactly; the recorder's share of
    // wall time gates loosely upward; raw wall seconds are for eyes.
    if let (Some(ta), Some(tb)) = (&a.telemetry, &b.telemetry) {
        report.push(
            config,
            "snap.telemetry.frames".into(),
            ta.frames as f64,
            tb.frames as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.telemetry.overhead_share".into(),
            ta.overhead_share(),
            tb.overhead_share(),
            snapshot_tolerances::TELEMETRY_OVERHEAD,
            Direction::HigherIsWorse,
        );
        report.push(
            config,
            "snap.telemetry.frames_wall_s".into(),
            ta.frames_wall_s,
            tb.frames_wall_s,
            0.0,
            Direction::Informational,
        );
        report.push(
            config,
            "snap.telemetry.base_wall_s".into(),
            ta.base_wall_s,
            tb.base_wall_s,
            0.0,
            Direction::Informational,
        );
    }
    // Live-aggregation overhead axis: mirrors the frame-recorder axis —
    // folded-event count is deterministic and gates exactly, the fold's
    // share of wall time gates loosely upward, raw walls are for eyes.
    if let (Some(la), Some(lb)) = (&a.live, &b.live) {
        report.push(
            config,
            "snap.live.events".into(),
            la.events as f64,
            lb.events as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.live.overhead_share".into(),
            la.overhead_share(),
            lb.overhead_share(),
            snapshot_tolerances::TELEMETRY_OVERHEAD,
            Direction::HigherIsWorse,
        );
        report.push(
            config,
            "snap.live.live_wall_s".into(),
            la.live_wall_s,
            lb.live_wall_s,
            0.0,
            Direction::Informational,
        );
        report.push(
            config,
            "snap.live.base_wall_s".into(),
            la.base_wall_s,
            lb.base_wall_s,
            0.0,
            Direction::Informational,
        );
    }
    // Scenario-service cache-hit axis: the counters are deterministic
    // for the pinned batch (cold engine runs = unique hashes, warm
    // answers = all from cache) and gate exactly — any drift means the
    // cache key or the executor's coalescing semantics changed. Walls
    // and the derived warm throughput are env-sensitive, so they stay
    // informational like every other wall-clock metric here.
    if let (Some(sa), Some(sb)) = (&a.serve, &b.serve) {
        report.push(
            config,
            "snap.serve.scenarios".into(),
            sa.scenarios as f64,
            sb.scenarios as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.serve.unique".into(),
            sa.unique as f64,
            sb.unique as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.serve.cold_misses".into(),
            sa.cold_misses as f64,
            sb.cold_misses as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.serve.cold_served".into(),
            sa.cold_served as f64,
            sb.cold_served as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.serve.warm_hits".into(),
            sa.warm_hits as f64,
            sb.warm_hits as f64,
            0.0,
            Direction::BothWays,
        );
        report.push(
            config,
            "snap.serve.cold_wall_s".into(),
            sa.cold_wall_s,
            sb.cold_wall_s,
            0.0,
            Direction::Informational,
        );
        report.push(
            config,
            "snap.serve.warm_wall_s".into(),
            sa.warm_wall_s,
            sb.warm_wall_s,
            0.0,
            Direction::Informational,
        );
        report.push(
            config,
            "snap.serve.warm_per_sec".into(),
            sa.warm_per_sec(),
            sb.warm_per_sec(),
            0.0,
            Direction::Informational,
        );
    }
    for ea in &a.entries {
        let Some(eb) = b.entries.iter().find(|e| e.policy == ea.policy) else {
            continue;
        };
        let p = &ea.policy;
        report.push(
            config,
            format!("snap.{p}.steps_per_sec"),
            ea.steps_per_sec,
            eb.steps_per_sec,
            snapshot_tolerances::STEPS_PER_SEC,
            Direction::LowerIsWorse,
        );
        report.push(
            config,
            format!("snap.{p}.wall_s"),
            ea.wall_s,
            eb.wall_s,
            0.0,
            Direction::Informational,
        );
        for (phase, seconds) in &ea.phases {
            let other = eb
                .phases
                .iter()
                .find(|(n, _)| n == phase)
                .map_or(0.0, |(_, s)| *s);
            report.push(
                config,
                format!("snap.{p}.phase.{phase}_s"),
                *seconds,
                other,
                0.0,
                Direction::Informational,
            );
        }
        for sa in &ea.solver {
            let Some(sb) = eb.solver.iter().find(|s| s.site == sa.site) else {
                report.push(
                    config,
                    format!("snap.{p}.solver.{}.solves", sa.site),
                    sa.solves as f64,
                    0.0,
                    0.0,
                    Direction::BothWays,
                );
                continue;
            };
            report.push(
                config,
                format!("snap.{p}.solver.{}.iters_p50", sa.site),
                sa.iters_p50,
                sb.iters_p50,
                snapshot_tolerances::SOLVER_ITERS,
                Direction::HigherIsWorse,
            );
            report.push(
                config,
                format!("snap.{p}.solver.{}.iters_p95", sa.site),
                sa.iters_p95,
                sb.iters_p95,
                snapshot_tolerances::SOLVER_ITERS,
                Direction::HigherIsWorse,
            );
            report.push(
                config,
                format!("snap.{p}.solver.{}.residual_max", sa.site),
                sa.residual_max,
                sb.residual_max,
                0.0,
                Direction::Informational,
            );
        }
    }
    // Grid-scaling axis: (grid, backend) cells are matched pairwise.
    // Iteration counts are deterministic and gate tightly; setup and
    // wall seconds are env-sensitive and stay informational. A cell
    // present on one side only gates via the solves metric, so dropping
    // a grid or backend from the axis cannot pass silently.
    for sa in &a.scaling {
        let cell = format!("snap.scaling.{}.{}", sa.grid, sa.backend);
        let Some(sb) = b
            .scaling
            .iter()
            .find(|s| s.grid == sa.grid && s.backend == sa.backend)
        else {
            report.push(
                config,
                format!("{cell}.solves"),
                sa.solves as f64,
                0.0,
                0.0,
                Direction::BothWays,
            );
            continue;
        };
        report.push(
            config,
            format!("{cell}.iters_mean"),
            sa.iters_mean,
            sb.iters_mean,
            snapshot_tolerances::SOLVER_ITERS,
            Direction::HigherIsWorse,
        );
        report.push(
            config,
            format!("{cell}.setup_s"),
            sa.setup_s,
            sb.setup_s,
            0.0,
            Direction::Informational,
        );
        report.push(
            config,
            format!("{cell}.wall_s"),
            sa.wall_s,
            sb.wall_s,
            0.0,
            Direction::Informational,
        );
    }
    for sb in &b.scaling {
        if !a
            .scaling
            .iter()
            .any(|s| s.grid == sb.grid && s.backend == sb.backend)
        {
            report.push(
                config,
                format!("snap.scaling.{}.{}.solves", sb.grid, sb.backend),
                0.0,
                sb.solves as f64,
                0.0,
                Direction::BothWays,
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::analyze::ParsedEvent;
    use simkit::telemetry::Telemetry;

    fn tiny_analysis(extra_iters: usize) -> TraceAnalysis {
        let (tel, sink) = Telemetry::recorder();
        tel.counter("engine.decisions", 3);
        tel.gauge("thermal.max_silicon_c", 63.5);
        tel.solve("thermal.gs", 10 + extra_iters, 1e-9);
        tel.event(simkit::telemetry::EventKind::Gating, "engine.gating")
            .field_u64("active", 12)
            .field_u64("turned_on", 1)
            .field_u64("turned_off", 0)
            .emit();
        let mut analysis = TraceAnalysis::new();
        for event in sink.events() {
            analysis.observe(&ParsedEvent::from_line(&event.to_json()).unwrap());
        }
        analysis
    }

    #[test]
    fn identical_analyses_have_zero_drift() {
        let a = tiny_analysis(0);
        let report = diff_analyses(&a, &a, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));
        assert!(report.deltas.iter().all(|d| d.rel_change == 0.0));
    }

    #[test]
    fn solver_iteration_growth_is_a_named_regression() {
        let a = tiny_analysis(0);
        let b = tiny_analysis(5);
        let report = diff_analyses(&a, &b, &DiffConfig::new());
        assert!(report.has_regression());
        let names: Vec<&str> = report.regressions().map(|d| d.metric.as_str()).collect();
        assert!(
            names.contains(&"solver.thermal.gs.iters_mean"),
            "regressions: {names:?}"
        );
    }

    #[test]
    fn missing_metric_gates_instead_of_vanishing() {
        let a = tiny_analysis(0);
        let mut b = tiny_analysis(0);
        b.rollups.clear();
        let report = diff_analyses(&a, &b, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "metric.thermal.max_silicon_c.count"));
    }

    fn backend_analysis(site: &'static str, temp: f64, solves: usize) -> TraceAnalysis {
        let (tel, sink) = Telemetry::recorder();
        tel.counter("engine.decisions", 3);
        tel.gauge("thermal.max_silicon_c", temp);
        for _ in 0..solves {
            tel.solve(site, if site.ends_with("_direct") { 1 } else { 42 }, 1e-9);
        }
        let mut analysis = TraceAnalysis::new();
        for event in sink.events() {
            analysis.observe(&ParsedEvent::from_line(&event.to_json()).unwrap());
        }
        analysis
    }

    #[test]
    fn solver_agnostic_diff_matches_sites_across_backends() {
        // A CG run and a direct run: different site names, different
        // iteration counts, temperatures agreeing to solver tolerance.
        let a = backend_analysis("thermal.transient_cg", 63.5, 4);
        let b = backend_analysis("thermal.transient_direct", 63.5 + 1e-7, 4);

        // The default (bit-tight) diff flags the renamed site and the
        // float wobble…
        let strict = diff_analyses(&a, &b, &DiffConfig::new());
        assert!(strict.has_regression());

        // …the solver-agnostic diff sees the same system solved the
        // same number of times and physics within PHYS_TOL.
        let config = DiffConfig::new().solver_agnostic(true);
        let report = diff_analyses(&a, &b, &config);
        assert!(!report.has_regression(), "{}", report.render(true));
        let solves = report
            .deltas
            .iter()
            .find(|d| d.metric == "solver.thermal.transient.solves")
            .expect("canonical solver row");
        assert_eq!((solves.a, solves.b), (4.0, 4.0));
        // Per-backend iteration stats are not comparable and not emitted.
        assert!(report.deltas.iter().all(|d| !d.metric.contains("iters")));
    }

    #[test]
    fn solver_agnostic_diff_still_gates_on_solve_counts_and_physics() {
        let a = backend_analysis("thermal.transient_cg", 63.5, 4);
        let config = DiffConfig::new().solver_agnostic(true);

        // One missing solve is a gating regression even across backends.
        let fewer = backend_analysis("thermal.transient_direct", 63.5, 3);
        let report = diff_analyses(&a, &fewer, &config);
        assert!(report
            .regressions()
            .any(|d| d.metric == "solver.thermal.transient.solves"));

        // So is a physics difference beyond PHYS_TOL.
        let hotter = backend_analysis("thermal.transient_direct", 64.2, 4);
        let report = diff_analyses(&a, &hotter, &config);
        assert!(report
            .regressions()
            .any(|d| d.metric.starts_with("metric.thermal.max_silicon_c")));
    }

    #[test]
    fn tolerance_overrides_win() {
        let a = tiny_analysis(0);
        let b = tiny_analysis(5);
        let config = DiffConfig::new()
            .with_tolerance("solver.thermal.gs.iters_mean", 10.0)
            .with_tolerance("solver.thermal.gs.iters_p95", 10.0)
            .with_tolerance("solver.thermal.gs.residual_max", 10.0);
        let report = diff_analyses(&a, &b, &config);
        assert!(!report.has_regression(), "{}", report.render(true));
    }

    #[test]
    fn snapshot_diff_gates_directionally() {
        let base = crate::snapshot::tests::sample("a", 4.0);

        // Identical snapshots: zero drift.
        let same = diff_snapshots(&base, &base, &DiffConfig::new());
        assert!(!same.has_regression(), "{}", same.render(true));

        // Injected solver-iteration regression: named, gating.
        let worse = crate::snapshot::tests::sample("b", 8.0);
        let report = diff_snapshots(&base, &worse, &DiffConfig::new());
        assert!(report.has_regression());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.oract.solver.transient.iters_p95"));

        // The reverse direction (fewer iterations) is an improvement,
        // not a failure.
        let better = diff_snapshots(&worse, &base, &DiffConfig::new());
        assert!(!better.has_regression(), "{}", better.render(true));
    }

    #[test]
    fn scaling_axis_gates_on_iterations_and_missing_cells() {
        let base = crate::snapshot::tests::sample("a", 4.0);

        // Multigrid losing its iteration advantage at a grid gates.
        let mut worse = base.clone();
        worse
            .scaling
            .iter_mut()
            .find(|s| s.backend == "mgcg")
            .unwrap()
            .iters_mean *= 3.0;
        let report = diff_snapshots(&base, &worse, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.scaling.64.mgcg.iters_mean"));

        // Wall-clock drift alone stays informational.
        let mut slower = base.clone();
        for s in &mut slower.scaling {
            s.wall_s *= 5.0;
            s.setup_s *= 5.0;
        }
        let report = diff_snapshots(&base, &slower, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));

        // Dropping a (grid, backend) cell cannot pass silently — in
        // either direction.
        let mut missing = base.clone();
        missing.scaling.retain(|s| s.backend != "mgcg");
        let report = diff_snapshots(&base, &missing, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.scaling.64.mgcg.solves"));
        let report = diff_snapshots(&missing, &base, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.scaling.64.mgcg.solves"));
    }

    #[test]
    fn telemetry_overhead_axis_gates_on_frames_and_share() {
        let base = crate::snapshot::tests::sample("a", 4.0);

        // A changed frame count means the sampling schedule changed.
        let mut fewer = base.clone();
        fewer.telemetry.as_mut().unwrap().frames -= 1;
        let report = diff_snapshots(&base, &fewer, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.telemetry.frames"));

        // An order-of-magnitude overhead-share blowup gates; wall-clock
        // wobble inside the loose tolerance does not.
        let mut costly = base.clone();
        costly.telemetry.as_mut().unwrap().overhead_us *= 20;
        let report = diff_snapshots(&base, &costly, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.telemetry.overhead_share"));
        let mut wobble = base.clone();
        wobble.telemetry.as_mut().unwrap().overhead_us *= 2;
        let report = diff_snapshots(&base, &wobble, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));

        // A side without the axis skips it instead of failing.
        let mut absent = base.clone();
        absent.telemetry = None;
        let report = diff_snapshots(&base, &absent, &DiffConfig::new());
        assert!(report
            .deltas
            .iter()
            .all(|d| !d.metric.starts_with("snap.telemetry")));
    }

    #[test]
    fn serve_axis_gates_on_counters_not_walls() {
        let base = crate::snapshot::tests::sample("a", 4.0);

        // An extra cold engine run means the cache key drifted.
        let mut leaky = base.clone();
        leaky.serve.as_mut().unwrap().cold_misses += 1;
        let report = diff_snapshots(&base, &leaky, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.serve.cold_misses"));

        // A warm pass that fell short of pure cache hits gates — in
        // either direction.
        let mut cold = base.clone();
        cold.serve.as_mut().unwrap().warm_hits -= 1;
        let report = diff_snapshots(&base, &cold, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.serve.warm_hits"));
        let report = diff_snapshots(&cold, &base, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.serve.warm_hits"));

        // Wall-clock (and hence throughput) drift stays informational.
        let mut slower = base.clone();
        slower.serve.as_mut().unwrap().warm_wall_s *= 10.0;
        slower.serve.as_mut().unwrap().cold_wall_s *= 10.0;
        let report = diff_snapshots(&base, &slower, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));

        // A side without the axis skips it instead of failing.
        let mut absent = base.clone();
        absent.serve = None;
        let report = diff_snapshots(&base, &absent, &DiffConfig::new());
        assert!(report
            .deltas
            .iter()
            .all(|d| !d.metric.starts_with("snap.serve")));
    }

    #[test]
    fn throughput_drop_beyond_tolerance_gates() {
        let base = crate::snapshot::tests::sample("a", 4.0);
        let mut slow = base.clone();
        slow.entries[0].steps_per_sec *= 0.5;
        let report = diff_snapshots(&base, &slow, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.oract.steps_per_sec"));
        // A faster candidate never gates.
        let fast = diff_snapshots(&slow, &base, &DiffConfig::new());
        assert!(!fast.has_regression());
    }

    #[test]
    fn manifest_diff_flags_event_totals_only() {
        let mut a = RunManifest::new("simulate");
        a.push_config("bench", "fft");
        a.run_events = 10;
        let mut b = a.clone();
        let same = diff_manifests(&a, &b, &DiffConfig::new());
        assert!(!same.has_regression());
        b.run_events = 11;
        b.push_config("bench2", "lu"); // hash differs: informational
        let diff = diff_manifests(&a, &b, &DiffConfig::new());
        let names: Vec<&str> = diff.regressions().map(|d| d.metric.as_str()).collect();
        assert_eq!(names, ["manifest.events_total"]);
    }

    #[test]
    fn render_marks_regressions() {
        let base = crate::snapshot::tests::sample("a", 4.0);
        let worse = crate::snapshot::tests::sample("b", 8.0);
        let table = diff_snapshots(&base, &worse, &DiffConfig::new()).render(true);
        assert!(table.contains("REGRESSION"));
        assert!(table.contains("iters_p95"));
    }

    #[test]
    fn zero_baseline_changes_are_infinite_but_finite_to_render() {
        let mut report = DiffReport::default();
        report.push(
            &DiffConfig::new(),
            "x".into(),
            0.0,
            1.0,
            0.0,
            Direction::BothWays,
        );
        assert!(report.has_regression());
        assert!(report.render(false).contains("inf"));
    }
}

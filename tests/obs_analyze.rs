//! Trace analytics end to end: the committed fixture run under
//! `crates/experiments/tests/fixtures/run_a/` has hand-computed
//! statistics, so [`simkit::telemetry::analyze::TraceAnalysis`] and the
//! renderers/diff engine built on it can be checked for exact values —
//! counts, percentiles, and span durations — not just for shape. Also
//! validates every committed `BENCH_*.json` perf snapshot against its
//! schema.

use experiments::obs::{diff_analyses, diff_snapshots, DiffConfig};
use experiments::report::analysis_report;
use experiments::snapshot::{BenchSnapshot, SNAPSHOT_SCHEMA};
use simkit::telemetry::analyze::TraceAnalysis;
use std::path::{Path, PathBuf};

fn fixture_run() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/experiments/tests/fixtures/run_a")
}

fn fixture_analysis() -> TraceAnalysis {
    TraceAnalysis::from_path(&fixture_run().join("trace.jsonl")).expect("fixture trace parses")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn fixture_counts_are_exact() {
    use simkit::telemetry::EventKind;
    let a = fixture_analysis();
    assert_eq!(a.events, 14);
    assert_eq!(a.malformed_lines, 0);
    assert!(!a.truncated);
    for (kind, expected) in [
        (EventKind::SpanStart, 1),
        (EventKind::SpanEnd, 1),
        (EventKind::Counter, 1),
        (EventKind::Gauge, 4),
        (EventKind::Histogram, 2),
        (EventKind::Gating, 1),
        (EventKind::Emergency, 1),
        (EventKind::Solve, 2),
        (EventKind::Progress, 1),
    ] {
        assert_eq!(a.kind_count(kind), expected, "{:?}", kind.as_str());
    }
    assert_eq!(a.counter("engine.steps"), 10);
    assert!(close(a.duration_s(), 0.13));
}

#[test]
fn fixture_percentiles_are_exact() {
    let a = fixture_analysis();
    let temp = a.rollup("thermal.max_silicon_c").expect("gauge rollup");
    assert_eq!(temp.count(), 4);
    assert_eq!(temp.min(), Some(60.0));
    assert_eq!(temp.max(), Some(66.0));
    assert_eq!(temp.mean(), Some(63.0));
    assert!(close(temp.percentile(50.0).unwrap(), 63.0));
    assert!(close(temp.percentile(95.0).unwrap(), 65.7));
    assert!(close(temp.percentile(99.0).unwrap(), 65.94));

    let noise = a.rollup("engine.window_noise_pct").expect("hist rollup");
    assert_eq!(noise.count(), 2);
    assert_eq!(noise.mean(), Some(6.0));
    assert!(close(noise.percentile(50.0).unwrap(), 6.0));
}

#[test]
fn fixture_spans_solvers_gating_emergency_are_exact() {
    let a = fixture_analysis();

    let run = a.span("engine.run").expect("span stats");
    assert_eq!(run.completed(), 1);
    assert_eq!(run.open, 0);
    assert_eq!(run.unmatched_ends, 0);
    assert!(close(run.durations.percentile(50.0).unwrap(), 0.13));
    assert!(close(run.durations.sum(), 0.13));

    let gs = a.solver("thermal.gs").expect("solver rollup");
    assert_eq!(gs.solves(), 2);
    assert!(close(gs.iters.percentile(50.0).unwrap(), 10.0));
    assert!(close(gs.iters.percentile(95.0).unwrap(), 11.8));
    assert_eq!(gs.iters.max(), Some(12.0));
    assert!(close(gs.residuals.max().unwrap(), 2e-10));

    assert_eq!(a.gating.decisions, 1);
    assert_eq!(a.gating.churn(), 3);
    assert_eq!(a.gating.active().unwrap().mean(), Some(10.0));

    assert_eq!(a.emergency.checks, 1);
    assert_eq!(a.emergency.with_emergency, 1);
    assert_eq!(a.emergency.flagged_domains, 2);
    assert_eq!(a.emergency.true_domains, 1);
    assert_eq!(a.emergency.mispredicted, 0);
    assert_eq!(a.emergency.emergency_rate(), Some(1.0));
}

#[test]
fn fixture_summary_renders_the_numbers() {
    let text = analysis_report(&fixture_analysis());
    for needle in [
        "events: 14",
        "engine.steps",
        "thermal.max_silicon_c",
        "65.7000", // p95 of the gauge
        "engine.run",
        "thermal.gs",
        "gating: 1 decisions, churn 3 (+2 / -1)",
        "emergency: 1 checks, 1 with emergencies (100.00% rate)",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn fixture_self_diff_has_zero_drift() {
    let a = fixture_analysis();
    let report = diff_analyses(&a, &a, &DiffConfig::new());
    assert!(!report.has_regression(), "{}", report.render(true));
    assert!(report.deltas.iter().all(|d| d.rel_change == 0.0));
}

/// Every committed BENCH_*.json must carry the schema tag and parse
/// back losslessly; an injected solver-iteration regression against it
/// must gate with the offending metric named.
#[test]
fn committed_bench_snapshots_validate_and_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = 0;
    for entry in std::fs::read_dir(root).expect("repo root readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        assert!(
            text.contains(SNAPSHOT_SCHEMA),
            "{name} lacks the {SNAPSHOT_SCHEMA} schema tag"
        );
        let snap = BenchSnapshot::from_json(&text)
            .unwrap_or_else(|e| panic!("{name} fails schema validation: {e}"));
        assert!(!snap.entries.is_empty(), "{name} has no policy entries");

        // Round trip.
        let again = BenchSnapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(again, snap);

        // Self-diff: zero drift. Injected regression: named and gating.
        assert!(!diff_snapshots(&snap, &snap, &DiffConfig::new()).has_regression());
        let mut worse = snap.clone();
        let entry = &mut worse.entries[0];
        let policy = entry.policy.clone();
        let site = entry.solver[0].site.clone();
        entry.solver[0].iters_p95 *= 2.0;
        let report = diff_snapshots(&snap, &worse, &DiffConfig::new());
        let metric = format!("snap.{policy}.solver.{site}.iters_p95");
        assert!(
            report.regressions().any(|d| d.metric == metric),
            "expected {metric} to regress"
        );
    }
    assert!(found > 0, "no committed BENCH_*.json snapshot at repo root");
}

/// The committed reference snapshot's grid-scaling axis must keep
/// proving the multigrid win: at its finest grid (≥10× the cells of the
/// production 64×64), mgcg needs ≤⅕ the iterations of Jacobi-CG and
/// ≤½ the total wall (hierarchy setup included) of the best PR-5
/// backend. These are committed numbers, so the gate is deterministic —
/// it fails when someone regenerates the snapshot from a build where
/// multigrid lost its advantage.
#[test]
fn committed_scaling_axis_proves_the_multigrid_win() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ref.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_ref.json readable");
    let snap = BenchSnapshot::from_json(&text).expect("reference snapshot parses");
    assert!(
        !snap.scaling.is_empty(),
        "BENCH_ref.json lacks the grid-scaling axis"
    );
    let finest = snap.scaling.iter().map(|s| s.grid).max().unwrap();
    assert!(
        finest * finest >= 10 * 64 * 64,
        "finest committed grid {finest}² is under 10× the production cell count"
    );
    let cell = |backend: &str| {
        snap.scaling
            .iter()
            .find(|s| s.grid == finest && s.backend == backend)
            .unwrap_or_else(|| panic!("no {backend} cell at {finest}×{finest}"))
    };
    let (cg, mgcg, direct) = (cell("cg"), cell("mgcg"), cell("direct"));
    assert!(
        mgcg.iters_mean * 5.0 <= cg.iters_mean,
        "mgcg {} vs cg {} iterations at {finest}×{finest}: advantage under 5×",
        mgcg.iters_mean,
        cg.iters_mean
    );
    let total = |s: &experiments::snapshot::ScalingEntry| s.setup_s + s.wall_s;
    let best_other = total(cg).min(total(direct));
    assert!(
        total(mgcg) * 2.0 <= best_other,
        "mgcg total {:.3}s vs best alternative {best_other:.3}s at {finest}×{finest}: \
         advantage under 2×",
        total(mgcg)
    );
}

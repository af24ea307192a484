//! `tgbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tgbench/Cargo.toml -- \
//!     --workload <standard-run|tiny-grid-cold|serve-warm-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics of a traced run and
//! writes its spans to `.bench_work/<workload>/spans-<seed>.jsonl`.
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--bless` regenerates `refs/references.csv`. `--time-setups` is how
//! a run times its set-ups in processes of their own (see
//! [`setup_seconds`]). See `NOTES.md` for the workloads, metrics and the
//! layer map.

mod check;
mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use check::{reference_line, Checker, ConfigTag, References};
use experiments::service::ScenarioSpec;
use floorplan::reference::power8_like;
use floorplan::Floorplan;
use host::{HostGauge, Pinned};
use layers::{
    probe_cache, probe_constructors, replay, CacheProbes, ConstructorProbes, ExactCounts,
    LayerTotals,
};
use stats::{median, summarize_latency};
use std::path::PathBuf;
use std::process::Stdio;
use std::time::Instant;
use trace::Tracer;
use workloads::{
    grid_specs, miss_specs, pass, setup, standard_config, tiny_config, Env, Pass, State, Workload,
    STANDARD_SCENARIOS, THREADS,
};

const USAGE: &str = "usage: tgbench --workload <standard-run|tiny-grid-cold|serve-warm-mixed> \
--seed <n> --seconds <s> --trace <0|1> [--time-setups] | tgbench --bless";

/// Seeds whose answers `refs/references.csv` pins.
const PINNED_SEEDS: std::ops::RangeInclusive<u64> = 0..=10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    /// Time set-ups for `--seconds` in this process (a set-up probe).
    TimeSetups(Args),
    Bless,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut time_setups) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--bless" => return Ok(Command::Bless),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--time-setups" => time_setups = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok(if time_setups {
        Command::TimeSetups(args)
    } else {
        Command::Run(args)
    })
}

impl Env {
    fn new(args: &Args) -> Self {
        Env {
            seed: args.seed,
            work: PathBuf::from(".bench_work").join(args.workload.name()),
            refs: References::pinned().require_all(PINNED_SEEDS.contains(&args.seed)),
            checker: Checker::default(),
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn peak_rss_mb() -> f64 {
    experiments::snapshot::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Share of `--seconds` spent timing set-ups.
const SETUP_SHARE: f64 = 0.1;
/// Fewest set-up probe processes a run starts.
const MIN_PROBES: usize = 3;
/// Seconds each set-up probe process times set-ups for (at least one).
const PROBE_SECONDS: &str = "0.1";

/// The set-up time of `workload`: set-ups are timed in fresh
/// processes, because one process's set-ups can sit apart from the
/// next process's by up to 50 % for its whole life. Starts
/// `--time-setups` probes one after the other until `budget` seconds
/// have elapsed (at least [`MIN_PROBES`]) and returns the median of
/// their scaled median set-up times. The probes' answers are checked
/// and counted like the run's own.
fn setup_seconds(workload: Workload, env: &mut Env, budget: f64) -> f64 {
    let started = Instant::now();
    let seed = env.seed.to_string();
    let mut medians = Vec::new();
    let mut probes = 0;
    while probes < MIN_PROBES || started.elapsed().as_secs_f64() < budget {
        probes += 1;
        let output = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(["--workload", workload.name(), "--seed", &seed])
                .args(["--seconds", PROBE_SECONDS, "--trace", "0", "--time-setups"])
                .stderr(Stdio::inherit())
                .output()
        });
        let stdout = match &output {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => format!("exit {}", out.status),
            Err(e) => e.to_string(),
        };
        let fields: Vec<f64> = stdout
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        match fields[..] {
            // The probe named its failures on the shared stderr.
            [median, raw, attempted, failed] => {
                eprintln!("[tgbench] set-up probe: median {raw:.6} s raw, {median:.6} s scaled");
                medians.push(median);
                env.checker.attempted += attempted as u64;
                env.checker.failed += failed as u64;
            }
            _ => env
                .checker
                .lost(&format!("set-up probe ({})", stdout.trim()), 1),
        }
    }
    let setup_s = median(&medians);
    eprintln!(
        "[tgbench] scaled set-up medians of {} probes: {medians:.6?}; median {setup_s:.6} s",
        medians.len()
    );
    setup_s
}

/// A set-up probe: times set-ups for `args.seconds` (at least one) and
/// prints `<scaled median seconds> <raw median seconds> <answers
/// checked> <answers failed>`.
fn time_setups(args: Args) {
    let mut env = Env::new(&args);
    // Only the serve set-up runs on the batch workers.
    let (_pin, mut gauge) = gauged(args.workload != Workload::ServeWarmMixed);
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let chip = power8_like();
        let state = setup(args.workload, &mut env, &chip, None);
        times.push(t0.elapsed().as_secs_f64());
        drop(state);
    }
    let raw = median(&times);
    println!(
        "{} {raw} {} {}",
        raw * gauge.scale(),
        env.checker.attempted,
        env.checker.failed
    );
}

/// Starts a host-speed gauge on the CPUs the timed work runs on.
/// Single-threaded work is pinned to one CPU (with the returned pin)
/// and only that CPU is gauged; multi-threaded work runs free and
/// every allowed CPU is gauged.
fn gauged(single_threaded: bool) -> (Option<Pinned>, HostGauge) {
    let cpus = host::allowed_cpus();
    if single_threaded {
        let pin = host::pin_current_thread(cpus[0]);
        (Some(pin), HostGauge::start(&cpus[..1]))
    } else {
        (None, HostGauge::start(&cpus))
    }
}

/// Timed passes until `seconds` have elapsed (at least one), each with
/// its host-speed scale from `gauge` (1 without one).
fn passes_for(
    seconds: f64,
    state: &mut State<'_>,
    env: &mut Env,
    mut gauge: Option<&mut HostGauge>,
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    if let Some(g) = gauge.as_mut() {
        g.scale(); // Drop the set-up's samples.
    }
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut p = pass(state, env, None);
        p.scale = gauge.as_mut().map_or(1.0, |g| g.scale());
        passes.push(p);
    }
    passes
}

fn end_to_end(workload: Workload, env: &mut Env, chip: &Floorplan, seconds: f64) -> Vec<Metric> {
    let setup_s = setup_seconds(workload, env, seconds * SETUP_SHARE);
    let (_pin, mut gauge) = gauged(workload == Workload::StandardRun);
    let mut state = setup(workload, env, chip, None);
    let passes = passes_for(
        seconds * (1.0 - SETUP_SHARE),
        &mut state,
        env,
        Some(&mut gauge),
    );
    for (i, p) in passes.iter().enumerate() {
        let s = summarize_latency(&p.latencies_ms);
        eprintln!(
            "[tgbench] pass {i}: wall {:.4} s raw, scale {:.4}, {} answers, latency p50 {:.4} ms, tail ({}, n={}) {:.4} ms (raw)",
            p.wall_s,
            p.scale,
            p.scenarios,
            s.p50,
            s.label,
            p.latencies_ms.len(),
            s.tail
        );
    }
    end_to_end_metrics(setup_s, &passes)
}

/// The end-to-end metrics: medians over the run's passes of their
/// timings at the reference host speed (each pass's timings times its
/// scale).
fn end_to_end_metrics(setup_s: f64, passes: &[Pass]) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let summaries: Vec<_> = passes
        .iter()
        .map(|p| (summarize_latency(&p.latencies_ms), p.scale))
        .collect();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", per_pass(&|p| p.wall_s * p.scale), "s"),
        metric(
            "scenarios_per_s",
            per_pass(&|p| p.scenarios as f64 / (p.wall_s * p.scale)),
            "1/s",
        ),
        metric(
            "sim_ms_per_host_s",
            per_pass(&|p| p.sim_ms / (p.wall_s * p.scale)),
            "ms/s",
        ),
        metric(
            "latency_ms.p50",
            median(&summaries.iter().map(|(s, k)| s.p50 * k).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "latency_ms.tail",
            median(
                &summaries
                    .iter()
                    .map(|(s, k)| s.tail * k)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(workload: Workload, env: &mut Env, chip: &Floorplan, seconds: f64) -> Vec<Metric> {
    let tracer = Tracer::new();
    let mut state = setup(workload, env, chip, Some(&tracer));
    // Untraced passes for half the budget: the baseline of the overhead.
    let baseline = passes_for(seconds / 2.0, &mut state, env, None);
    // Two traced passes: their exact counts must agree.
    let traced: Vec<Pass> = (0..2)
        .map(|_| pass(&mut state, env, Some(&tracer)))
        .collect();
    let layers: Vec<LayerTotals> = traced
        .iter()
        .map(|p| match &p.layers {
            Some(layers) => layers.clone(),
            // The batch executor keeps no `SimulationResult`: replay the
            // pass's simulated scenarios through the engine instead.
            None => {
                let (totals, problems) = replay(&tracer, &p.simulated, THREADS);
                env.checker.fail_if("replay", problems);
                totals
            }
        })
        .collect();
    let counts: Vec<ExactCounts> = traced
        .iter()
        .zip(&layers)
        .map(|(p, l)| ExactCounts {
            hits: p.counts.hits,
            misses: p.counts.misses,
            coalesced: p.counts.coalesced,
            invalid: p.counts.invalid,
            ..l.counts.clone()
        })
        .collect();
    env.checker.fail_if("fidelity", counts[0].drift(&counts[1]));

    let keyed = state.answered_keys(&traced[0]);
    let specs: Vec<ScenarioSpec> = keyed.iter().map(|(s, _)| s.clone()).collect();
    let ctor = probe_constructors(&tracer, chip, state.config(), &specs);
    let cache = probe_cache(&tracer, &env.work.join("probe-cache"), &keyed);

    let spans = env.work.join(format!("spans-{}.jsonl", env.seed));
    if let Err(e) = tracer.write(&spans) {
        eprintln!("[tgbench] cannot write {}: {e}", spans.display());
    }
    eprintln!(
        "[tgbench] {} spans written to {}",
        tracer.spans().len(),
        spans.display()
    );

    layer_metrics(&LayerRun {
        baseline,
        traced,
        layers,
        counts,
        ctor,
        cache,
    })
}

/// What the traced run measured.
#[derive(Default)]
struct LayerRun {
    /// Untraced passes: the baseline of the tracing overhead.
    baseline: Vec<Pass>,
    traced: Vec<Pass>,
    /// Engine accounting of each traced pass.
    layers: Vec<LayerTotals>,
    /// Exact counts of each traced pass.
    counts: Vec<ExactCounts>,
    ctor: ConstructorProbes,
    cache: CacheProbes,
}

/// The per-layer metrics: engine totals and pass figures averaged over
/// the traced passes, counts from the first (they must all agree).
fn layer_metrics(run: &LayerRun) -> Vec<Metric> {
    let (layers, traced, ctor, cache) = (&run.layers, &run.traced, &run.ctor, &run.cache);
    let n_layers = layers.len().max(1) as f64;
    let mean = |f: &dyn Fn(&LayerTotals) -> f64| layers.iter().map(f).sum::<f64>() / n_layers;
    let n_traced = traced.len().max(1) as f64;
    let mean_pass = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>() / n_traced;
    let c = run.counts.first().cloned().unwrap_or_default();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let families = c.families.max(1);
    let overhead = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>())
        - median(&run.baseline.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let answered = c.hits + c.misses + c.coalesced;
    let queue_depth_max = traced.first().map_or(0, |p| p.queue_depth_max);
    vec![
        metric("pdn.noise_s", mean(&|l| l.noise_s), "s"),
        metric("pdn.noise.solves", c.noise_solves as f64, "count"),
        metric(
            "pdn.noise.iters_mean",
            ratio(c.noise_iters, c.noise_solves),
            "count",
        ),
        metric("pdn.windows", c.windows as f64, "count"),
        metric("thermal.transient_s", mean(&|l| l.transient_s), "s"),
        metric(
            "thermal.transient.solves",
            c.transient_solves as f64,
            "count",
        ),
        metric(
            "thermal.transient.iters_mean",
            ratio(c.transient_iters, c.transient_solves),
            "count",
        ),
        metric("thermal.steady_s", mean(&|l| l.steady_s), "s"),
        metric("thermal.steady.solves", c.steady_solves as f64, "count"),
        metric(
            "thermal.steady.iters_mean",
            ratio(c.steady_iters, c.steady_solves),
            "count",
        ),
        metric("thermogater.calibrate_s", mean(&|l| l.calibrate_s), "s"),
        metric(
            "thermogater.calibrations_per_family",
            ratio(c.calibrations, families),
            "count",
        ),
        metric("thermogater.policy_s", mean(&|l| l.policy_s), "s"),
        metric("thermogater.run_s", mean(&|l| l.run_s), "s"),
        metric(
            "thermogater.unattributed_s",
            mean(&|l| l.run_s - l.attributed_s),
            "s",
        ),
        metric("thermogater.engine_new_s", ctor.engine_new_s, "s"),
        metric("workload.trace_s", mean(&|l| l.trace_s), "s"),
        metric(
            "workload.traces_per_family",
            ratio(c.traces, families),
            "count",
        ),
        metric("workload.generate_s", ctor.generate_s, "s"),
        metric("power.calibrated_s", ctor.power_calibrated_s, "s"),
        metric("thermal.model_new_s", ctor.thermal_model_new_s, "s"),
        metric("pdn.model_new_s", ctor.pdn_model_new_s, "s"),
        metric("experiments.hash_s", cache.hash_s, "s"),
        metric("experiments.cache.load_s", cache.load_s, "s"),
        metric("experiments.cache.store_s", cache.store_s, "s"),
        metric("experiments.serve.hits", c.hits as f64, "count"),
        metric("experiments.serve.misses", c.misses as f64, "count"),
        metric("experiments.serve.coalesced", c.coalesced as f64, "count"),
        metric("experiments.serve.invalid", c.invalid as f64, "count"),
        metric(
            "experiments.serve.queue_depth_max",
            queue_depth_max as f64,
            "count",
        ),
        metric(
            "experiments.serve.hit_ratio",
            ratio(c.hits, answered),
            "ratio",
        ),
        metric("experiments.batch.busy_s", mean_pass(&|p| p.busy_s), "s"),
        metric("experiments.batch.wait_s", mean_pass(&|p| p.wait_s), "s"),
        metric(
            "experiments.batch.worker_util",
            mean_pass(&|p| p.busy_s / (p.threads.max(1) as f64 * p.wall_s.max(f64::MIN_POSITIVE))),
            "ratio",
        ),
        metric("bench.trace_overhead_s", overhead, "s"),
    ]
}

fn json_result(checker: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    )
}

fn run(args: Args) {
    let mut env = Env::new(&args);
    let chip = power8_like();
    let metrics = if args.trace {
        per_layer(args.workload, &mut env, &chip, args.seconds)
    } else {
        end_to_end(args.workload, &mut env, &chip, args.seconds)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            env.checker
                .fail_if(m.name, vec![format!("non-finite value {}", m.value)]);
        }
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    for m in &metrics {
        eprintln!("[tgbench] {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for dir in ["grid-cache", "serve-cache"] {
        let _ = std::fs::remove_dir_all(env.work.join(dir));
    }
    println!("{}", json_result(&env.checker, &metrics));
}

/// Regenerates `refs/references.csv`: every scenario the workloads ask
/// for, at every pinned seed.
fn bless() {
    let mut jobs: Vec<(ConfigTag, ScenarioSpec)> = Vec::new();
    for seed in PINNED_SEEDS {
        let standard = standard_config(seed);
        for &(b, p) in &STANDARD_SCENARIOS {
            jobs.push((
                ConfigTag::Standard,
                ScenarioSpec::new(b, p, standard.clone()),
            ));
        }
        for spec in grid_specs(&tiny_config(seed))
            .into_iter()
            .chain(miss_specs(seed))
        {
            jobs.push((ConfigTag::Tiny, spec));
        }
    }
    // Longest first, so the two workers finish together.
    jobs.sort_by_key(|(tag, _)| *tag != ConfigTag::Standard);
    let tracer = Tracer::new();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let lines = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((tag, spec)) = jobs.get(i) else {
                    break;
                };
                let (record, _, _) =
                    layers::traced_run(&tracer, 0, spec).expect("reference scenario runs");
                let line = reference_line(*tag, spec.engine_config.seed, &record);
                lines.lock().expect("lines lock").push(line);
            });
        }
    });
    let mut lines = lines.into_inner().expect("lines lock");
    lines.sort();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/refs/references.csv");
    let text = format!(
        "# tgbench pinned answers (regenerate with `--bless`): <config>,<engine seed hex>,<record csv>\n{}\n",
        lines.join("\n")
    );
    std::fs::write(path, text).expect("write references");
    eprintln!("[tgbench] wrote {} references to {path}", lines.len());
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(args),
        Ok(Command::TimeSetups(args)) => time_setups(args),
        Ok(Command::Bless) => bless(),
        Err(e) => {
            eprintln!("tgbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed in one section of BENCHMARK.json.
    fn manifest_names(section: &str) -> Vec<String> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|chunk| chunk[..chunk.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn metric_names_match_the_pattern_and_the_manifest() {
        let passes = [Pass {
            wall_s: 1.0,
            scale: 1.0,
            latencies_ms: vec![1.0, 2.0, 3.0],
            ..Pass::default()
        }];
        let end_to_end = names(&end_to_end_metrics(0.5, &passes));
        let per_layer = names(&layer_metrics(&LayerRun::default()));
        assert_eq!(end_to_end, manifest_names("end_to_end"));
        assert_eq!(per_layer, manifest_names("per_layer"));
        for name in end_to_end.iter().chain(&per_layer) {
            assert!(valid_name(name), "{name}");
        }
        assert!(end_to_end.contains(&"setup_s".to_string()));
        assert_eq!(manifest_names("workloads").len(), Workload::ALL.len());
        for w in Workload::ALL {
            assert!(manifest_names("workloads").contains(&w.name().to_string()));
        }
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let Ok(Command::Run(a)) = args("--workload tiny-grid-cold --seed 3 --seconds 10 --trace 1")
        else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::TinyGridCold, 3, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload standard-run --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload standard-run --seed 1 --trace 0").is_err());
        assert!(matches!(
            args("--workload standard-run --seed 1 --seconds 0.1 --trace 0 --time-setups"),
            Ok(Command::TimeSetups(_))
        ));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checker = Checker::default();
        checker.answer("x", vec![]);
        checker.answer("y", vec!["wrong".into()]);
        let line = json_result(&checker, &[metric("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}

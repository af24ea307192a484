//! Per-layer attribution for the traced run.
//!
//! Engine-internal time comes from the engine's own public accounting
//! (`SimulationResult::phase_times` and `solver_profile`); constructor,
//! trace-synthesis and cache costs come from direct probes of the
//! layers' public functions, each call wrapped in a span.

use crate::check::bit_equal;
use crate::stats::median;
use crate::trace::Tracer;
use experiments::service::{ScenarioCache, ScenarioSpec};
use experiments::sweep::SweepRecord;
use floorplan::reference::power8_like;
use floorplan::Floorplan;
use pdn::PdnModel;
use power::PowerModel;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use thermal::ThermalModel;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine, SimulationResult};
use workload::{TraceGenerator, WorkloadSpec};

/// Counts that must repeat exactly across runs of the same code and
/// seed. A drift is a benchmark failure, not noise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactCounts {
    pub noise_solves: u64,
    pub noise_iters: u64,
    pub transient_solves: u64,
    pub transient_iters: u64,
    pub steady_solves: u64,
    pub steady_iters: u64,
    pub windows: u64,
    pub calibrations: u64,
    pub traces: u64,
    pub families: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub invalid: u64,
}

impl ExactCounts {
    fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("pdn.noise.solves", self.noise_solves),
            ("pdn.noise.iters", self.noise_iters),
            ("thermal.transient.solves", self.transient_solves),
            ("thermal.transient.iters", self.transient_iters),
            ("thermal.steady.solves", self.steady_solves),
            ("thermal.steady.iters", self.steady_iters),
            ("pdn.windows", self.windows),
            ("thermogater.calibrations", self.calibrations),
            ("workload.traces", self.traces),
            ("families", self.families),
            ("experiments.serve.hits", self.hits),
            ("experiments.serve.misses", self.misses),
            ("experiments.serve.coalesced", self.coalesced),
            ("experiments.serve.invalid", self.invalid),
        ]
    }

    /// Named differences between two runs' counts.
    pub fn drift(&self, other: &ExactCounts) -> Vec<String> {
        self.fields()
            .into_iter()
            .zip(other.fields())
            .filter(|((_, a), (_, b))| a != b)
            .map(|((name, a), (_, b))| format!("{name} drifted {a} -> {b}"))
            .collect()
    }
}

/// Engine-phase seconds and exact counts summed over one pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub trace_s: f64,
    pub calibrate_s: f64,
    pub steady_s: f64,
    pub policy_s: f64,
    pub transient_s: f64,
    pub noise_s: f64,
    /// Sum of the spans around `SimulationEngine::run`.
    pub run_s: f64,
    /// Sum of every phase the engine attributed.
    pub attributed_s: f64,
    pub counts: ExactCounts,
    families: BTreeSet<(String, u64)>,
}

impl LayerTotals {
    /// Folds in one run's accounting; `spec` names its family.
    pub fn add(&mut self, spec: &ScenarioSpec, result: &SimulationResult, run_s: f64) {
        let phases = result.phase_times();
        self.trace_s += phases.seconds("trace");
        self.calibrate_s += phases.seconds("calibrate");
        self.steady_s += phases.seconds("steady");
        self.policy_s += phases.seconds("policy");
        self.transient_s += phases.seconds("transient");
        self.noise_s += phases.seconds("noise");
        self.attributed_s += phases.total_seconds();
        self.run_s += run_s;
        let c = &mut self.counts;
        c.calibrations += phases.samples("calibrate");
        c.traces += phases.samples("trace");
        c.windows += result.window_noise_percent().len() as u64;
        let profile = result.solver_profile();
        for (site, solves, iters) in [
            ("noise", &mut c.noise_solves, &mut c.noise_iters),
            ("transient", &mut c.transient_solves, &mut c.transient_iters),
            ("steady", &mut c.steady_solves, &mut c.steady_iters),
        ] {
            if let Some(agg) = profile.get(site) {
                *solves += agg.solves;
                *iters += agg.iterations;
            }
        }
        self.families
            .insert((spec.benchmark.label().to_string(), family_hash(spec)));
        c.families = self.families.len() as u64;
    }

    pub fn merge(&mut self, other: &LayerTotals) {
        self.trace_s += other.trace_s;
        self.calibrate_s += other.calibrate_s;
        self.steady_s += other.steady_s;
        self.policy_s += other.policy_s;
        self.transient_s += other.transient_s;
        self.noise_s += other.noise_s;
        self.run_s += other.run_s;
        self.attributed_s += other.attributed_s;
        let (c, o) = (&mut self.counts, &other.counts);
        c.noise_solves += o.noise_solves;
        c.noise_iters += o.noise_iters;
        c.transient_solves += o.transient_solves;
        c.transient_iters += o.transient_iters;
        c.steady_solves += o.steady_solves;
        c.steady_iters += o.steady_iters;
        c.windows += o.windows;
        c.calibrations += o.calibrations;
        c.traces += o.traces;
        self.families.extend(other.families.iter().cloned());
        c.families = self.families.len() as u64;
    }
}

/// A (benchmark, configuration) family: the scenario hash with the
/// policy fixed, so every policy of one benchmark and config shares it.
fn family_hash(spec: &ScenarioSpec) -> u64 {
    ScenarioSpec::new(
        spec.benchmark,
        PolicyKind::AllOn,
        spec.engine_config.clone(),
    )
    .content_hash()
}

/// Runs one scenario through the engine exactly as the batch executor
/// does per cell (chip, engine, run), with a span around each call.
pub fn traced_run(
    tracer: &Tracer,
    parent: u64,
    spec: &ScenarioSpec,
) -> Result<(SweepRecord, SimulationResult, f64), String> {
    let scenario = tracer.fresh_id();
    let (chip, _) = tracer.span("floorplan.power8_like", parent, scenario, |_| power8_like());
    let (engine, _) = tracer.span("thermogater.engine_new", parent, scenario, |_| {
        SimulationEngine::new(&chip, spec.engine_config.clone())
    });
    let (result, run_s) = tracer.span("thermogater.run", parent, scenario, |_| {
        engine.run(spec.benchmark, spec.policy)
    });
    let result = result.map_err(|e| format!("{}: {e}", spec.label()))?;
    Ok((SweepRecord::from_result(&result), result, run_s))
}

/// Replays `specs` through the engine on `threads` workers, checking
/// each record bit for bit against the answer the workload received.
/// Returns the pass totals and the names of mismatching scenarios.
pub fn replay(
    tracer: &Tracer,
    specs: &[(ScenarioSpec, SweepRecord)],
    threads: usize,
) -> (LayerTotals, Vec<String>) {
    let ((totals, problems), _) = tracer.span("bench.replay", 0, 0, |root| {
        let next = AtomicUsize::new(0);
        let totals = Mutex::new(LayerTotals::default());
        let problems = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| {
                    let mut local = LayerTotals::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((spec, answered)) = specs.get(i) else {
                            break;
                        };
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                traced_run(tracer, root, spec)
                            }));
                        match outcome {
                            Ok(Ok((record, result, run_s))) => {
                                local.add(spec, &result, run_s);
                                if !bit_equal(&record, answered) {
                                    problems.lock().expect("problems lock").push(format!(
                                        "replay of {} differs from the served answer",
                                        spec.label()
                                    ));
                                }
                            }
                            Ok(Err(e)) => problems.lock().expect("problems lock").push(e),
                            Err(_) => problems
                                .lock()
                                .expect("problems lock")
                                .push(format!("replay of {} panicked", spec.label())),
                        }
                    }
                    totals.lock().expect("totals lock").merge(&local);
                });
            }
        });
        (
            totals.into_inner().expect("totals lock"),
            problems.into_inner().expect("problems lock"),
        )
    });
    (totals, problems)
}

/// Per-call seconds of the layers' constructors and of trace synthesis
/// under one configuration.
#[derive(Debug, Clone, Default)]
pub struct ConstructorProbes {
    pub engine_new_s: f64,
    pub power_calibrated_s: f64,
    pub thermal_model_new_s: f64,
    pub pdn_model_new_s: f64,
    pub generate_s: f64,
}

const PROBE_REPS: usize = 5;

fn probe<R>(tracer: &Tracer, parent: u64, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            tracer
                .span(name, parent, 0, |_| std::hint::black_box(f()))
                .1
        })
        .collect();
    median(&times)
}

pub fn probe_constructors(
    tracer: &Tracer,
    chip: &Floorplan,
    config: &EngineConfig,
    specs: &[ScenarioSpec],
) -> ConstructorProbes {
    let (probes, _) = tracer.span("bench.probe_constructors", 0, 0, |root| {
        let mut thermal_config = config.thermal.clone();
        thermal_config.solver = config.solver;
        let mut pdn_config = config.pdn.clone();
        pdn_config.solver = config.solver;
        let generator = TraceGenerator::new(chip);
        let mut benchmarks: Vec<_> = specs.iter().map(|s| s.benchmark).collect();
        benchmarks.sort_by_key(|b| b.label());
        benchmarks.dedup();
        let generate: Vec<f64> = benchmarks
            .iter()
            .map(|&b| {
                probe(tracer, root, "workload.generate_spec", || {
                    generator.generate_spec(&WorkloadSpec::Single(b), config.duration)
                })
            })
            .collect();
        ConstructorProbes {
            engine_new_s: probe(tracer, root, "thermogater.engine_new", || {
                SimulationEngine::new(chip, config.clone())
            }),
            power_calibrated_s: probe(tracer, root, "power.calibrated", || {
                PowerModel::calibrated(chip, config.tech.clone())
            }),
            thermal_model_new_s: probe(tracer, root, "thermal.model_new", || {
                ThermalModel::new(chip, thermal_config.clone())
            }),
            pdn_model_new_s: probe(tracer, root, "pdn.model_new", || {
                PdnModel::new(chip, pdn_config.clone())
            }),
            generate_s: median(&generate),
        }
    });
    probes
}

/// Per-call seconds of the scenario service's hash and cache calls.
#[derive(Debug, Clone, Default)]
pub struct CacheProbes {
    pub hash_s: f64,
    pub load_s: f64,
    pub store_s: f64,
}

/// Probes `content_hash`, `ScenarioCache::store` and
/// `ScenarioCache::load` on the workload's own keys, in a scratch
/// cache under `dir`.
pub fn probe_cache(
    tracer: &Tracer,
    dir: &Path,
    keys: &[(ScenarioSpec, SweepRecord)],
) -> CacheProbes {
    let (probes, _) = tracer.span("bench.probe_cache", 0, 0, |root| {
        let _ = std::fs::remove_dir_all(dir);
        let cache = ScenarioCache::new(dir);
        let (mut hash, mut load, mut store) = (Vec::new(), Vec::new(), Vec::new());
        for (spec, record) in keys {
            for _ in 0..PROBE_REPS {
                hash.push(
                    tracer
                        .span("experiments.content_hash", root, 0, |_| {
                            std::hint::black_box(spec.content_hash())
                        })
                        .1,
                );
                store.push(
                    tracer
                        .span("experiments.cache.store", root, 0, |_| {
                            cache.store(spec, record)
                        })
                        .1,
                );
                load.push(
                    tracer
                        .span("experiments.cache.load", root, 0, |_| cache.load(spec))
                        .1,
                );
            }
        }
        let _ = std::fs::remove_dir_all(dir);
        CacheProbes {
            hash_s: median(&hash),
            load_s: median(&load),
            store_s: median(&store),
        }
    });
    probes
}

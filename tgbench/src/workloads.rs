//! The three workloads: one standard run, the cold 14 × 8 tiny grid,
//! and warm mixed serving. Each has a set-up and a repeatable timed
//! pass; every answer a pass receives is checked. Serve answers are
//! checked against their cold record as they arrive, so the pass holds
//! none of them; everything else is checked after the clock stops.

use crate::check::{
    bit_equal, compare, golden_tiny, record_label, record_problems, Checker, ConfigTag, References,
};
use crate::layers::{ExactCounts, LayerTotals};
use crate::trace::{root, within, Scope, Tracer};
use experiments::context::ExpOptions;
use experiments::service::{
    run_batch, BatchOptions, BatchOutcome, CellSource, ScenarioCache, ScenarioSpec, ServeCounters,
};
use experiments::sweep::SweepRecord;
use floorplan::Floorplan;
use simkit::linalg::SolverBackend;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Worker threads of the batch workloads (the reference box has 2 cores).
pub const THREADS: usize = 2;

/// The scenarios of one standard run, back to back on one engine.
pub const STANDARD_SCENARIOS: [(Benchmark, PolicyKind); 3] = [
    (Benchmark::LuNcb, PolicyKind::AllOn),
    (Benchmark::LuNcb, PolicyKind::PracVT),
    (Benchmark::Raytrace, PolicyKind::PracVT),
];

/// Requests per serve-warm-mixed pass.
pub const SERVE_REQUESTS: usize = 60_000;
/// Warm keys simulated into the cache during set-up.
pub const SERVE_WARM_KEYS: usize = 24;
/// Seed-varied misses per pass, each submitted twice back to back.
pub const SERVE_MISSES: [(Benchmark, PolicyKind); 3] = [
    (Benchmark::Fft, PolicyKind::OracVT),
    (Benchmark::Radix, PolicyKind::AllOn),
    (Benchmark::Barnes, PolicyKind::PracT),
];

/// Engine seed of benchmark seed `seed`; seed 0 is the engine default,
/// the seed of the repository's golden fixture.
pub fn engine_seed(seed: u64) -> u64 {
    EngineConfig::standard().seed ^ seed
}

pub fn standard_config(seed: u64) -> EngineConfig {
    EngineConfig {
        solver: SolverBackend::Auto,
        seed: engine_seed(seed),
        ..EngineConfig::standard()
    }
}

pub fn tiny_config(seed: u64) -> EngineConfig {
    EngineConfig {
        solver: SolverBackend::Auto,
        seed: engine_seed(seed),
        ..ExpOptions::tiny().engine_config()
    }
}

/// Cell `i` of the full 14 × 8 grid, benchmark-major like `sweep::grid`.
fn grid_cell(i: usize) -> (Benchmark, PolicyKind) {
    let n = PolicyKind::ALL.len();
    (Benchmark::ALL[i / n], PolicyKind::ALL[i % n])
}

pub fn grid_specs(config: &EngineConfig) -> Vec<ScenarioSpec> {
    (0..Benchmark::ALL.len() * PolicyKind::ALL.len())
        .map(grid_cell)
        .map(|(b, p)| ScenarioSpec::new(b, p, config.clone()))
        .collect()
}

/// The grid cell of serve key `i`: a fixed spread (37 is coprime with
/// 112). Keys `0..SERVE_WARM_KEYS` are warm; the next one is torn.
fn serve_cell(i: usize) -> usize {
    (i * 37 + 5) % (Benchmark::ALL.len() * PolicyKind::ALL.len())
}

/// The engine seed of serve miss `k` under benchmark seed `seed`.
pub fn miss_seed(seed: u64, k: usize) -> u64 {
    engine_seed(seed) ^ (0x6d69_7373_0000 + k as u64)
}

pub fn miss_specs(seed: u64) -> Vec<ScenarioSpec> {
    SERVE_MISSES
        .iter()
        .enumerate()
        .map(|(k, &(b, p))| {
            let config = EngineConfig {
                seed: miss_seed(seed, k),
                ..tiny_config(seed)
            };
            ScenarioSpec::new(b, p, config)
        })
        .collect()
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG so program changes cannot change the inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StandardRun,
    TinyGridCold,
    ServeWarmMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StandardRun,
        Workload::TinyGridCold,
        Workload::ServeWarmMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StandardRun => "standard-run",
            Workload::TinyGridCold => "tiny-grid-cold",
            Workload::ServeWarmMixed => "serve-warm-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a run shares across its passes.
pub struct Env {
    pub seed: u64,
    pub work: PathBuf,
    pub refs: References,
    pub checker: Checker,
}

/// One timed pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Host-speed scale of the pass (see `host`); its timings times
    /// this are its timings at the reference speed.
    pub scale: f64,
    pub scenarios: usize,
    /// Simulated ROI milliseconds the engine computed.
    pub sim_ms: f64,
    pub latencies_ms: Vec<f64>,
    /// Sum of per-answer service seconds (`BatchOutcome::seconds`).
    pub busy_s: f64,
    /// Sum of delivery latency minus service time.
    pub wait_s: f64,
    pub threads: usize,
    /// Serve counters (the engine counts come from a replay).
    pub counts: ExactCounts,
    pub queue_depth_max: u64,
    /// Engine accounting, where the pass drives the engine directly.
    pub layers: Option<LayerTotals>,
    /// Scenarios this pass simulated, with their answers.
    pub simulated: Vec<(ScenarioSpec, SweepRecord)>,
}

pub enum State<'c> {
    Standard {
        engine: Box<SimulationEngine<'c>>,
        config: EngineConfig,
    },
    Grid {
        specs: Vec<ScenarioSpec>,
        cache: ScenarioCache,
        config: EngineConfig,
    },
    Serve(Box<Serve>),
}

impl State<'_> {
    pub fn config(&self) -> &EngineConfig {
        match self {
            State::Standard { config, .. } | State::Grid { config, .. } => config,
            State::Serve(serve) => &serve.config,
        }
    }

    /// The distinct scenarios a pass asks for, with their answers: the
    /// keys the traced run probes the scenario service with.
    pub fn answered_keys(&self, pass: &Pass) -> Vec<(ScenarioSpec, SweepRecord)> {
        match self {
            State::Serve(serve) => serve
                .keys
                .iter()
                .filter_map(|spec| {
                    let record = serve.cold.get(&spec.content_hash())?;
                    Some((spec.clone(), record.clone()))
                })
                .collect(),
            _ => pass.simulated.clone(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Hit(usize),
    /// Miss `k`; `first` marks the first of its back-to-back pair.
    Miss {
        k: usize,
        first: bool,
    },
    Corrupt,
}

pub struct Serve {
    cache: ScenarioCache,
    keys: Vec<ScenarioSpec>,
    corrupt: ScenarioSpec,
    corrupt_bytes: Vec<u8>,
    misses: Vec<ScenarioSpec>,
    requests: Vec<Request>,
    cold: HashMap<u64, SweepRecord>,
    config: EngineConfig,
}

/// Builds a workload's state on `chip`. Times nothing itself; the
/// caller times the whole call.
pub fn setup<'c>(
    workload: Workload,
    env: &mut Env,
    chip: &'c Floorplan,
    tracer: Option<&Tracer>,
) -> State<'c> {
    within(root(tracer), "bench.setup", 0, |scope| match workload {
        Workload::StandardRun => {
            let config = standard_config(env.seed);
            let engine = within(scope, "thermogater.engine_new", 0, |_| {
                SimulationEngine::new(chip, config.clone())
            });
            State::Standard {
                engine: Box::new(engine),
                config,
            }
        }
        Workload::TinyGridCold => {
            let config = tiny_config(env.seed);
            // Warm the constructors once (no engine is kept: the batch
            // executor builds one per cell).
            within(scope, "thermogater.engine_new", 0, |_| {
                drop(SimulationEngine::new(chip, config.clone()))
            });
            let cache = ScenarioCache::new(env.work.join("grid-cache"));
            let _ = std::fs::remove_dir_all(cache.dir());
            std::fs::create_dir_all(cache.dir()).expect("create grid cache directory");
            State::Grid {
                specs: grid_specs(&config),
                cache,
                config,
            }
        }
        Workload::ServeWarmMixed => State::Serve(Box::new(setup_serve(env, scope))),
    })
}

fn setup_serve(env: &mut Env, scope: Scope<'_>) -> Serve {
    let config = tiny_config(env.seed);
    let grid = grid_specs(&config);
    let mut cells = (0..=SERVE_WARM_KEYS).map(|i| grid[serve_cell(i)].clone());
    let keys: Vec<ScenarioSpec> = cells.by_ref().take(SERVE_WARM_KEYS).collect();
    let corrupt = cells.next().expect("one cell beyond the warm keys");
    let cache = ScenarioCache::new(env.work.join("serve-cache"));
    let _ = std::fs::remove_dir_all(cache.dir());

    let mut warm = keys.clone();
    warm.push(corrupt.clone());
    let counters = ServeCounters::default();
    let mut cold = HashMap::new();
    let opts = BatchOptions {
        quiet: true,
        ..BatchOptions::for_threads(THREADS)
    };
    within(scope, "experiments.run_batch", 0, |_| {
        run_batch(&cache, warm, &opts, None, &counters, |outcome| {
            cold.insert(outcome.hash, outcome.record);
        })
    });
    for record in cold.values() {
        env.checker
            .check_record(&env.refs, ConfigTag::Tiny, config.seed, record);
    }
    let corrupt_path = cache.path(&corrupt);
    let text = std::fs::read(&corrupt_path).expect("read the entry to corrupt");
    // A torn write: the header survives, half the record does not.
    let corrupt_bytes = text[..text.len() / 2].to_vec();

    let misses = miss_specs(env.seed);
    let requests = serve_requests(env.seed, keys.len(), misses.len());
    Serve {
        cache,
        keys,
        corrupt,
        corrupt_bytes,
        misses,
        requests,
        cold,
        config,
    }
}

/// The request stream of one pass: hits skewed (1/rank) over the warm
/// keys in a seed-permuted order, with each miss pair and the corrupt
/// request at a seed-chosen place in its own segment of the stream.
fn serve_requests(seed: u64, n_keys: usize, n_misses: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x5e12_7e00);
    let mut rank: Vec<usize> = (0..n_keys).collect();
    for i in (1..n_keys).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    let weights: Vec<f64> = (0..n_keys).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut requests: Vec<Request> = (0..SERVE_REQUESTS)
        .map(|_| {
            let u = rng.unit();
            let r = cumulative.partition_point(|&c| c < u).min(n_keys - 1);
            Request::Hit(rank[r])
        })
        .collect();
    let events = n_misses + 1;
    let segment = SERVE_REQUESTS / events;
    for e in 0..events {
        let at = e * segment + rng.below(segment - 2);
        if e < n_misses {
            requests[at] = Request::Miss { k: e, first: true };
            requests[at + 1] = Request::Miss { k: e, first: false };
        } else {
            requests[at] = Request::Corrupt;
        }
    }
    requests
}

/// Runs one timed pass and checks its answers.
pub fn pass(state: &mut State<'_>, env: &mut Env, tracer: Option<&Tracer>) -> Pass {
    within(root(tracer), "bench.pass", 0, |scope| match state {
        State::Standard { engine, config } => standard_pass(engine, config, env, scope),
        State::Grid {
            specs,
            cache,
            config,
        } => grid_pass(specs, cache, config, env, scope),
        State::Serve(serve) => serve_pass(serve, env, scope),
    })
}

fn standard_pass(
    engine: &SimulationEngine<'_>,
    config: &EngineConfig,
    env: &mut Env,
    scope: Scope<'_>,
) -> Pass {
    let mut pass = Pass {
        threads: 1,
        layers: scope.map(|_| LayerTotals::default()),
        ..Pass::default()
    };
    let started = Instant::now();
    for &(b, p) in &STANDARD_SCENARIOS {
        let spec = ScenarioSpec::new(b, p, config.clone());
        let t0 = Instant::now();
        let scenario = scope.map_or(0, |(t, _)| t.fresh_id());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            within(scope, "thermogater.run", scenario, |_| engine.run(b, p))
        }));
        let seconds = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(Ok(result)) => {
                let record = SweepRecord::from_result(&result);
                env.checker
                    .check_record(&env.refs, ConfigTag::Standard, config.seed, &record);
                if let Some(layers) = pass.layers.as_mut() {
                    layers.add(&spec, &result, seconds);
                }
                pass.busy_s += seconds;
                pass.scenarios += 1;
                pass.sim_ms += config.duration.get() * 1e3;
                pass.simulated.push((spec, record));
            }
            Ok(Err(e)) => env
                .checker
                .answer(&spec.label(), vec![format!("engine error: {e}")]),
            Err(_) => env.checker.lost(&spec.label(), 1),
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    // The request is one standard run: the ROADMAP's unit of latency.
    pass.latencies_ms = vec![pass.wall_s * 1e3];
    pass
}

/// What one batch pass delivered.
struct Delivered {
    wall_s: f64,
    answers: usize,
    latencies_ms: Vec<f64>,
    busy_s: f64,
    counters: ServeCounters,
    panicked: bool,
}

/// Streams requests `0..n` through `run_batch` on [`THREADS`] workers,
/// timing each from the feeder pulling it to its in-order delivery.
/// The feeder clones `spec(i)` as it pulls request `i`. `barrier(i)`
/// marks requests the feeder may pull only once every earlier request
/// has been delivered. Each answer is handed to `on_answer` as it is
/// delivered; the pass keeps none of them itself.
fn batch_pass<'s>(
    cache: &ScenarioCache,
    n: usize,
    spec: impl Fn(usize) -> &'s ScenarioSpec + Sync,
    barrier: impl Fn(usize) -> bool + Sync,
    scope: Scope<'_>,
    mut on_answer: impl FnMut(BatchOutcome),
) -> Delivered {
    let pulled: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let delivered = (Mutex::new(0usize), Condvar::new());
    let opts = BatchOptions {
        quiet: true,
        ..BatchOptions::for_threads(THREADS)
    };
    let counters = ServeCounters::default();
    let mut latencies_ms = Vec::with_capacity(n);
    let mut busy_s = 0.0;
    let started = Instant::now();
    let feed = (0..n).map(|i| {
        if barrier(i) {
            let (lock, ready) = &delivered;
            let mut done = lock.lock().expect("delivery count lock");
            while *done < i {
                done = ready.wait(done).expect("delivery count lock");
            }
        }
        pulled[i].store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        spec(i).clone()
    });
    let run = || {
        run_batch(cache, feed, &opts, None, &counters, |outcome| {
            let now = started.elapsed().as_nanos() as u64;
            let latency = now.saturating_sub(pulled[outcome.index].load(Ordering::Relaxed));
            latencies_ms.push(latency as f64 * 1e-6);
            busy_s += outcome.seconds;
            on_answer(outcome);
            let (lock, ready) = &delivered;
            *lock.lock().expect("delivery count lock") += 1;
            ready.notify_all();
        })
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        within(scope, "experiments.run_batch", 0, |_| run())
    }));
    let wall_s = started.elapsed().as_secs_f64();
    Delivered {
        wall_s,
        answers: latencies_ms.len(),
        latencies_ms,
        busy_s,
        counters,
        panicked: result.is_err(),
    }
}

fn fill_batch_stats(pass: &mut Pass, delivered: &Delivered, sim_ms_each: f64) {
    let c = &delivered.counters;
    pass.wall_s = delivered.wall_s;
    pass.scenarios = delivered.answers;
    pass.latencies_ms = delivered.latencies_ms.clone();
    pass.busy_s = delivered.busy_s;
    pass.wait_s = (delivered.latencies_ms.iter().sum::<f64>() * 1e-3 - delivered.busy_s).max(0.0);
    pass.threads = THREADS;
    pass.counts.hits = c.hits.load(Ordering::Relaxed);
    pass.counts.misses = c.misses.load(Ordering::Relaxed);
    pass.counts.coalesced = c.coalesced.load(Ordering::Relaxed);
    pass.counts.invalid = c.invalid.load(Ordering::Relaxed);
    pass.queue_depth_max = c.queue_depth_max();
    pass.sim_ms = pass.counts.misses as f64 * sim_ms_each;
}

fn grid_pass(
    specs: &[ScenarioSpec],
    cache: &ScenarioCache,
    config: &EngineConfig,
    env: &mut Env,
    scope: Scope<'_>,
) -> Pass {
    // Every pass starts from an empty cache: the grid is cold.
    let _ = std::fs::remove_dir_all(cache.dir());
    std::fs::create_dir_all(cache.dir()).expect("create grid cache directory");
    let mut answers = Vec::with_capacity(specs.len());
    let delivered = batch_pass(
        cache,
        specs.len(),
        |i| &specs[i],
        |_| false,
        scope,
        |outcome| answers.push((outcome.source, outcome.record)),
    );
    let mut pass = Pass::default();
    fill_batch_stats(&mut pass, &delivered, config.duration.get() * 1e3);

    let checker = &mut env.checker;
    if delivered.panicked {
        checker.lost("tiny grid", (specs.len() - answers.len()) as u64);
    }
    for (spec, (source, record)) in specs.iter().zip(answers) {
        checker.check_record(&env.refs, ConfigTag::Tiny, config.seed, &record);
        if source != CellSource::Simulated {
            checker.fail_if(
                &spec.label(),
                vec![format!("cold cell answered as {source:?}")],
            );
        }
        pass.simulated.push((spec.clone(), record));
    }
    if config.seed == engine_seed(0) {
        for golden in golden_tiny() {
            let label = record_label(&golden);
            let got = pass
                .simulated
                .iter()
                .find(|(_, r)| record_label(r) == label);
            let problems = match got {
                Some((_, record)) => compare(record, &golden),
                None => vec!["missing from the grid".into()],
            };
            checker.fail_if(&format!("golden_tiny {label}"), problems);
        }
    }
    pass
}

fn serve_pass(serve: &mut Serve, env: &mut Env, scope: Scope<'_>) -> Pass {
    // Reset the per-pass inputs: misses absent, one entry torn.
    for spec in &serve.misses {
        let _ = std::fs::remove_file(serve.cache.path(spec));
    }
    std::fs::write(serve.cache.path(&serve.corrupt), &serve.corrupt_bytes)
        .expect("write the corrupted entry");

    let Serve {
        cache,
        keys,
        corrupt,
        misses,
        requests,
        cold,
        config,
        ..
    } = serve;
    let spec = |i: usize| match requests[i] {
        Request::Hit(k) => &keys[k],
        Request::Miss { k, .. } => &misses[k],
        Request::Corrupt => &*corrupt,
    };
    // A miss pair starts only once everything before it is answered,
    // so both copies meet idle workers and the second coalesces.
    let barrier = |i: usize| matches!(requests[i], Request::Miss { first: true, .. });
    // Each answer is checked against the cold record for its hash as it
    // arrives, and then dropped. The first answer for a hash with no
    // cold record yet (a miss on the first pass) becomes its cold
    // record; a re-simulation must equal the earlier one.
    let mut problems: HashMap<usize, Vec<String>> = HashMap::new();
    let mut first_of: HashMap<u64, usize> = HashMap::new();
    let mut simulated = Vec::new();
    let delivered = batch_pass(cache, requests.len(), spec, barrier, scope, |outcome| {
        first_of.entry(outcome.hash).or_insert(outcome.index);
        match cold.get(&outcome.hash) {
            Some(c) if !bit_equal(&outcome.record, c) => {
                problems.entry(outcome.index).or_default().push(format!(
                    "{:?} answer differs from the cold record",
                    outcome.source
                ))
            }
            Some(_) => {}
            None if outcome.source != CellSource::Cache => {
                cold.insert(outcome.hash, outcome.record.clone());
            }
            None => problems
                .entry(outcome.index)
                .or_default()
                .push("Cache answer without a cold record".into()),
        }
        if outcome.source == CellSource::Simulated {
            simulated.push((outcome.index, outcome.record));
        }
    });
    let mut pass = Pass::default();
    fill_batch_stats(&mut pass, &delivered, config.duration.get() * 1e3);
    pass.simulated = simulated
        .into_iter()
        .map(|(i, record)| (spec(i).clone(), record))
        .collect();

    // Every later answer for a hash is bit-equal to its cold record
    // (checked above), so the full check runs once per hash.
    for (hash, &i) in &first_of {
        let seed = spec(i).engine_config.seed;
        let found = record_problems(&env.refs, ConfigTag::Tiny, seed, &cold[hash]);
        if !found.is_empty() {
            problems.entry(i).or_default().extend(found);
        }
    }
    let checker = &mut env.checker;
    if delivered.panicked {
        checker.lost("serve", (requests.len() - delivered.answers) as u64);
    }
    checker.passed((delivered.answers - problems.len()) as u64);
    let mut failed: Vec<_> = problems.into_iter().collect();
    failed.sort_by_key(|(i, _)| *i);
    for (i, found) in failed {
        checker.answer(&format!("request {i} {}", spec(i).label()), found);
    }
    // Every miss and the torn entry simulate once; all else is a hit
    // or a coalesced copy.
    let n_sim = misses.len() as u64 + 1;
    let c = &pass.counts;
    let expected = (n_sim, 1, requests.len() as u64 - n_sim);
    if !delivered.panicked && (c.misses, c.invalid, c.hits + c.coalesced) != expected {
        checker.fail_if(
            "serve counters",
            vec![format!(
                "hits={} misses={} coalesced={} invalid={}; expected (misses, invalid, hits+coalesced) = {expected:?}",
                c.hits, c.misses, c.coalesced, c.invalid
            )],
        );
    }
    pass
}

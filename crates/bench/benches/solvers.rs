//! Micro-benchmarks of the numerical kernels every experiment leans on:
//! the blocked-CSR SpMV kernel, the thermal steady-state solve per
//! backend (Jacobi-CG vs multigrid-CG vs direct), the backward-Euler
//! transient step per solver backend, the sparse LDLᵀ
//! factor/refactor/solve kernels, the PDN IR-drop solve per backend,
//! and workload trace generation.

use criterion::{criterion_group, criterion_main, Criterion};
use floorplan::reference::power8_like;
use pdn::{PdnConfig, PdnModel};
use simkit::linalg::{LdltFactor, LdltWorkspace, SolverBackend};
use simkit::units::{Seconds, Watts};
use std::hint::black_box;
use thermal::{PowerMap, ThermalConfig, ThermalModel};
use vreg::GatingState;
use workload::{Benchmark, TraceGenerator};

fn spmv_kernel(c: &mut Criterion) {
    // The 4-wide blocked SpMV on the real 64×64 conductance matrix
    // (n = 8193, ~5 nnz/row plus the dense sink row): the inner kernel
    // of every CG iteration and multigrid smoothing sweep.
    let chip = power8_like();
    let model = ThermalModel::new(&chip, ThermalConfig::standard());
    let a = model.conductance_matrix();
    let n = a.rows();
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i % 13) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    c.bench_function("spmv/thermal_64x64", |b| {
        b.iter(|| a.mul_vec_into(black_box(&x), &mut y))
    });
}

fn thermal_solvers(c: &mut Criterion) {
    let chip = power8_like();
    let model = ThermalModel::new(&chip, ThermalConfig::coarse());
    let mut pm = PowerMap::new(&model);
    for block in chip.blocks() {
        pm.add_block(block.id(), Watts::new(2.0)).unwrap();
    }
    c.bench_function("thermal/steady_state_cg_32x32", |b| {
        b.iter(|| model.steady_state(black_box(&pm)).unwrap())
    });

    let mut stepper = model.stepper(Seconds::from_micros(20.0));
    let mut state = model.steady_state(&pm).unwrap();
    c.bench_function("thermal/transient_step_32x32", |b| {
        b.iter(|| stepper.step(black_box(&mut state), &pm).unwrap())
    });

    // Steady solves from a cold state under each pinned backend on the
    // production 64×64 grid, against a warm cache (factor / hierarchy
    // built before the measured region): BENCH.md's grid-scaling story
    // in microbench form.
    for backend in [SolverBackend::Cg, SolverBackend::Mgcg, SolverBackend::Direct] {
        let config = ThermalConfig {
            solver: backend,
            ..ThermalConfig::standard()
        };
        let model = ThermalModel::new(&chip, config);
        let mut pm = PowerMap::new(&model);
        for block in chip.blocks() {
            pm.add_block(block.id(), Watts::new(2.0)).unwrap();
        }
        let mut scratch = thermal::SteadyScratch::new();
        let mut state = model.ambient_state();
        model
            .steady_state_with_scratch(&pm, &mut state, &mut scratch)
            .unwrap();
        let name = format!("thermal/steady_state_64x64_{}", backend.name());
        c.bench_function(&name, |b| {
            b.iter(|| {
                state = model.ambient_state();
                model
                    .steady_state_with_scratch(black_box(&pm), &mut state, &mut scratch)
                    .unwrap()
            })
        });
    }

    // The same step under each pinned backend: BENCH.md's honest
    // direct-vs-iterative transient comparison comes from these rows.
    for backend in [
        SolverBackend::Direct,
        SolverBackend::GaussSeidel,
        SolverBackend::Cg,
        SolverBackend::Mgcg,
    ] {
        let config = ThermalConfig {
            solver: backend,
            ..ThermalConfig::coarse()
        };
        let model = ThermalModel::new(&chip, config);
        let mut pm = PowerMap::new(&model);
        for block in chip.blocks() {
            pm.add_block(block.id(), Watts::new(2.0)).unwrap();
        }
        let mut stepper = model.stepper(Seconds::from_micros(20.0));
        let mut state = model.steady_state(&pm).unwrap();
        let name = format!("thermal/transient_step_32x32_{}", backend.name());
        c.bench_function(&name, |b| {
            b.iter(|| stepper.step(black_box(&mut state), &pm).unwrap())
        });
    }
}

fn direct_factorization(c: &mut Criterion) {
    // The LDLᵀ kernels on the real 32×32 conductance matrix (n = 2049):
    // full factor (ordering + symbolic + numeric), values-only refactor,
    // and the allocation-free triangular solve.
    let chip = power8_like();
    let model = ThermalModel::new(&chip, ThermalConfig::coarse());
    let a = model.conductance_matrix();
    c.bench_function("direct/factor_thermal_32x32", |b| {
        b.iter(|| LdltFactor::new(black_box(a)).unwrap())
    });

    let mut factor = LdltFactor::new(a).unwrap();
    c.bench_function("direct/refactor_thermal_32x32", |b| {
        b.iter(|| factor.refactor(black_box(a)).unwrap())
    });

    let n = a.rows();
    let rhs: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64).collect();
    let mut x = vec![0.0; n];
    let mut ws = LdltWorkspace::new();
    c.bench_function("direct/trisolve_thermal_32x32", |b| {
        b.iter(|| factor.solve_into(black_box(&rhs), &mut x, &mut ws).unwrap())
    });
}

fn pdn_solvers(c: &mut Criterion) {
    let chip = power8_like();
    let model = PdnModel::new(&chip, PdnConfig::reference());
    let powers = vec![Watts::new(1.5); chip.blocks().len()];
    let all_on = GatingState::all_on(chip.vr_sites().len());
    c.bench_function("pdn/ir_drop_16_domains", |b| {
        b.iter(|| model.ir_drop(black_box(&all_on), &powers).unwrap())
    });

    // Per-backend IR solve: the cached-factor direct path vs CG vs
    // multigrid-CG. With the warm-start carry the repeat solves below
    // converge almost instantly; the measured cost is residual checking
    // plus the preconditioner apply, which is the steady-state regime of
    // an engine run with stable gating.
    for backend in [SolverBackend::Direct, SolverBackend::Cg, SolverBackend::Mgcg] {
        let config = PdnConfig {
            solver: backend,
            ..PdnConfig::reference()
        };
        let model = PdnModel::new(&chip, config);
        let name = format!("pdn/ir_drop_16_domains_{}", backend.name());
        c.bench_function(&name, |b| {
            b.iter(|| model.ir_drop(black_box(&all_on), &powers).unwrap())
        });
    }
}

fn workload_generation(c: &mut Criterion) {
    let chip = power8_like();
    let generator = TraceGenerator::new(&chip);
    c.bench_function("workload/trace_1ms_52_blocks", |b| {
        b.iter(|| generator.generate(black_box(Benchmark::Fft), Seconds::from_millis(1.0)))
    });
}

criterion_group!(
    benches,
    spmv_kernel,
    thermal_solvers,
    direct_factorization,
    pdn_solvers,
    workload_generation
);
criterion_main!(benches);

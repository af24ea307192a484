//! End-to-end integration tests: the full stack (workload → power →
//! regulators → thermal → PDN → governor) on the reference chip.

use floorplan::reference::power8_like;
use simkit::units::Seconds;
use thermal::ThermalConfig;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::microtrace::{WARMUP_CYCLES, WINDOW_CYCLES};
use workload::Benchmark;

fn tiny_config() -> EngineConfig {
    EngineConfig {
        duration: Seconds::from_millis(3.0),
        thermal: ThermalConfig::coarse(),
        noise_window_count: 6,
        profiling_decisions: 4,
        ..EngineConfig::standard()
    }
}

#[test]
fn every_policy_completes_and_is_physical() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    for policy in PolicyKind::ALL {
        let r = engine
            .run(Benchmark::WaterSpatial, policy)
            .unwrap_or_else(|e| panic!("{policy} failed: {e}"));
        let t = r.max_temperature().get();
        assert!(t > 45.0 && t < 110.0, "{policy}: T_max {t}");
        assert!(r.max_gradient() >= 0.0, "{policy}");
        assert!(
            r.mean_efficiency() > 0.5 && r.mean_efficiency() <= 1.0,
            "{policy}: η {}",
            r.mean_efficiency()
        );
        assert_eq!(r.decisions().len(), 3, "{policy}");
        assert_eq!(r.policy(), policy);
        assert_eq!(r.benchmark(), Benchmark::WaterSpatial);
    }
}

#[test]
fn gating_respects_supply_constraints_in_every_decision() {
    // Factor (I) of Section 4: the active set must be able to supply the
    // demand — at least n_on regulators on per domain, and never zero.
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    for policy in [PolicyKind::Naive, PolicyKind::OracT, PolicyKind::PracVT] {
        let r = engine.run(Benchmark::Barnes, policy).unwrap();
        for decision in r.decisions() {
            for domain in chip.domains() {
                let active = decision.gating.active_among(domain.vrs());
                let required = decision.n_on[domain.id().0];
                assert!(
                    active >= required.min(domain.vr_count()),
                    "{policy}: domain {} has {active} active, needs {required}",
                    domain.name()
                );
                assert!(active >= 1, "{policy}: unpowered domain");
            }
        }
    }
}

#[test]
fn efficiency_gating_beats_all_on_and_tracks_demand() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let all_on = engine.run(Benchmark::Volrend, PolicyKind::AllOn).unwrap();
    let gated = engine.run(Benchmark::Volrend, PolicyKind::OracT).unwrap();
    // Gating sustains near-peak conversion efficiency on a light load...
    assert!(gated.mean_efficiency() > all_on.mean_efficiency() + 0.02);
    // ...which means less conversion loss dissipated on-chip.
    assert!(gated.mean_total_vr_loss().get() < all_on.mean_total_vr_loss().get());
    // And the active count reflects the light load.
    assert!(gated.mean_active_count() < 60.0);
}

#[test]
fn off_chip_baseline_is_coolest_and_lossless() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let off = engine.run(Benchmark::Fmm, PolicyKind::OffChip).unwrap();
    let on = engine.run(Benchmark::Fmm, PolicyKind::AllOn).unwrap();
    assert_eq!(off.mean_total_vr_loss().get(), 0.0);
    assert!(off.max_noise_percent().is_none());
    // On-chip conversion loss heats the die.
    assert!(on.max_temperature() > off.max_temperature());
    assert!(on.max_gradient() > off.max_gradient());
}

#[test]
fn noise_is_analyzed_for_gating_policies() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let r = engine.run(Benchmark::Radix, PolicyKind::OracT).unwrap();
    assert_eq!(r.window_noise_percent().len(), 6);
    let max = r.max_noise_percent().expect("noise analyzed");
    assert!(max > 0.0 && max < 60.0, "noise {max}");
    assert!(r.emergency_cycle_fraction().is_some());
    // OracT has no detector backstop, so the worst window's per-cycle
    // trace peaks at exactly the worst window's reported noise.
    let trace = r.worst_window_trace().expect("worst window recorded");
    assert_eq!(trace.len(), WINDOW_CYCLES - WARMUP_CYCLES);
    assert_eq!(trace.iter().copied().fold(0.0, f64::max), max);
}

#[test]
fn time_series_are_shape_consistent() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let r = engine.run(Benchmark::OceanCp, PolicyKind::PracT).unwrap();
    let steps = r.total_power().len();
    assert_eq!(r.active_count().len(), steps);
    assert_eq!(r.vr_temperatures().sample_count(), steps);
    assert_eq!(r.vr_temperatures().channel_count(), chip.vr_sites().len());
    // Heat map at T_max uses the configured grid.
    assert_eq!(r.heatmap_at_tmax().len(), 32);
    assert!(r.heatmap_at_tmax().iter().all(|row| row.len() == 32));
    // Total power stays within the chip's physical envelope.
    let max_power = r.total_power().max().unwrap();
    assert!(max_power > 10.0 && max_power < 160.0, "power {max_power}");
}

#[test]
fn engine_types_are_send_and_sync() {
    // Sweeps parallelise by sharing one engine across threads; these
    // bounds are part of the public contract (C-SEND-SYNC).
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimulationEngine<'static>>();
    assert_send_sync::<thermogater::SimulationResult>();
    assert_send_sync::<thermogater::EngineConfig>();
    assert_send_sync::<thermal::ThermalModel>();
    assert_send_sync::<pdn::PdnModel>();
    assert_send_sync::<simkit::Error>();
}

#[test]
fn runs_are_reproducible_bit_for_bit() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let a = engine.run(Benchmark::Fft, PolicyKind::OracVT).unwrap();
    let b = engine.run(Benchmark::Fft, PolicyKind::OracVT).unwrap();
    assert_eq!(a.max_temperature(), b.max_temperature());
    assert_eq!(a.max_gradient(), b.max_gradient());
    assert_eq!(a.window_noise_percent(), b.window_noise_percent());
    assert_eq!(a.total_power().values(), b.total_power().values());
}

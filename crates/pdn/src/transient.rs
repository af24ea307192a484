//! Cycle-resolution transient (di/dt) noise.
//!
//! One entry point, [`noise_series`]: given a sampled cycle window of
//! load-current multipliers (from `workload::microtrace`-style
//! generators), the transient voltage response is the convolution of the
//! per-cycle current steps with an underdamped impulse-response kernel:
//!
//! ```text
//! h[k] = Z_eff · cos(2π k / T_ring) · decay(k)
//! ```
//!
//! `Z_eff` grows when fewer regulators are active and when the active set
//! sits farther from the load (the `distance_factor`); `decay(k)` is the
//! passive RC decay until the regulator's control loop reacts (after
//! `response_cycles`), then a fast regulated decay — which is how a
//! faster regulator (POWER8-style LDO vs. FIVR, Fig. 15) earns its lower
//! transient noise.
//!
//! [`crate::NoiseAnalyzer`] runs this pass once per domain and window; the
//! peak, the Table 2 emergency residency and the Fig. 14 trace are all
//! read from the resulting series in [`crate::NoiseReport`].

use crate::config::PdnConfig;
use simkit::units::{Amps, Hertz, Seconds};

/// Parameters of one transient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientParams {
    /// Mean domain load current over the window.
    pub mean_current: Amps,
    /// Active regulators in the domain.
    pub n_active: usize,
    /// Total regulators in the domain.
    pub n_total: usize,
    /// Spatial weakening factor from
    /// [`crate::PdnModel::active_distance_factor`] (≈1 under all-on).
    pub distance_factor: f64,
    /// Regulator control-loop response time.
    pub response_time: Seconds,
    /// Clock frequency (cycle length of the window samples).
    pub frequency: Hertz,
}

/// The per-cycle transient-noise magnitude over the analysis region of a
/// window, as fractions of Vdd — the one pass over the impulse kernel.
/// Its maximum is the transient peak of Figs. 11/14/15; add the static IR
/// fraction on top for total noise (Table 2 residency, the Fig. 14 trace).
///
/// `multipliers` are per-cycle current multipliers around a mean of 1
/// (see `workload::microtrace`); the first `warmup` cycles seed the
/// convolution but are excluded from the series.
///
/// # Panics
///
/// Panics when `n_active` is zero or exceeds `n_total`, or when
/// `warmup >= multipliers.len()`.
pub fn noise_series(
    config: &PdnConfig,
    params: &TransientParams,
    multipliers: &[f64],
    warmup: usize,
) -> Vec<f64> {
    assert!(
        params.n_active > 0 && params.n_active <= params.n_total,
        "n_active {} outside [1, {}]",
        params.n_active,
        params.n_total
    );
    assert!(warmup < multipliers.len(), "warm-up swallows the window");
    let kernel = impulse_kernel(config, params);
    let i_mean = params.mean_current.get().max(0.0);
    let vdd = config.vdd.get();
    // Direct convolution of the per-cycle current steps: windows are 2 K
    // cycles and kernels O(100), so this stays cheap.
    (warmup..multipliers.len())
        .map(|n| {
            let mut v = 0.0;
            let k_max = kernel.len().min(n);
            for (k, &h) in kernel.iter().take(k_max).enumerate() {
                let idx = n - k;
                let di = i_mean * (multipliers[idx] - multipliers[idx - 1]);
                v += h * di;
            }
            v.abs() / vdd
        })
        .collect()
}

/// The impulse-response kernel for the given configuration.
fn impulse_kernel(config: &PdnConfig, params: &TransientParams) -> Vec<f64> {
    let response_cycles = (params.response_time.get() * params.frequency.get()).max(1.0);
    // A regulator that reacts within the first droop (≈ a quarter of the
    // ring period) partially suppresses even the initial undershoot; a
    // slow loop only helps the tail. This is the (modest) LDO-vs-FIVR
    // advantage of Fig. 15.
    let quarter = config.ring_period_cycles / 4.0;
    let first_droop_suppression = 1.0 - 0.25 * quarter / (quarter + response_cycles);
    let z_eff = config.z_transient_ohm
        * (config.z_reference_active / params.n_active as f64).sqrt()
        * params.distance_factor.max(0.1)
        * first_droop_suppression;
    // Regulated decay: a few cycles once the loop has reacted.
    let regulated_tau = 8.0;
    let len = (response_cycles + 5.0 * regulated_tau).ceil() as usize;
    let omega = 2.0 * std::f64::consts::PI / config.ring_period_cycles;
    (0..len)
        .map(|k| {
            let kf = k as f64;
            let passive = (-kf / config.passive_decay_cycles).exp();
            let regulated = if kf > response_cycles {
                (-(kf - response_cycles) / regulated_tau).exp()
            } else {
                1.0
            };
            z_eff * (omega * kf).cos() * passive * regulated
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n_active: usize, response_ns: f64) -> TransientParams {
        TransientParams {
            mean_current: Amps::new(8.0),
            n_active,
            n_total: 9,
            distance_factor: 1.0,
            response_time: Seconds::from_nanos(response_ns),
            frequency: Hertz::from_ghz(4.0),
        }
    }

    /// A window with one large current step in the middle.
    fn step_window(len: usize, at: usize, height: f64) -> Vec<f64> {
        (0..len)
            .map(|i| if i < at { 1.0 } else { 1.0 + height })
            .collect()
    }

    /// Peak transient noise of a window: the maximum of its series.
    fn peak(cfg: &PdnConfig, p: &TransientParams, w: &[f64], warmup: usize) -> f64 {
        noise_series(cfg, p, w, warmup)
            .into_iter()
            .fold(0.0, f64::max)
    }

    #[test]
    fn quiet_window_has_no_noise() {
        let cfg = PdnConfig::default();
        let w = vec![1.0; 2000];
        let series = noise_series(&cfg, &params(9, 15.0), &w, 1000);
        assert_eq!(series.len(), 1000);
        assert!(series.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bigger_steps_make_more_noise() {
        let cfg = PdnConfig::default();
        let small = peak(&cfg, &params(9, 15.0), &step_window(2000, 1500, 0.1), 1000);
        let large = peak(&cfg, &params(9, 15.0), &step_window(2000, 1500, 0.4), 1000);
        assert!(large > 3.0 * small, "large {large} small {small}");
    }

    #[test]
    fn fewer_active_regulators_mean_more_noise() {
        let cfg = PdnConfig::default();
        let w = step_window(2000, 1500, 0.3);
        let strong = peak(&cfg, &params(9, 15.0), &w, 1000);
        let weak = peak(&cfg, &params(2, 15.0), &w, 1000);
        assert!(weak > 1.5 * strong, "weak {weak} strong {strong}");
    }

    #[test]
    fn faster_regulator_means_less_noise() {
        // The Fig. 15 effect: the LDO's sub-ns response truncates the
        // ring-down that the 15 ns FIVR lets ring.
        let cfg = PdnConfig::default();
        let w = step_window(2000, 1500, 0.3);
        let fivr = peak(&cfg, &params(9, 15.0), &w, 1000);
        let ldo = peak(&cfg, &params(9, 0.8), &w, 1000);
        assert!(ldo < fivr, "ldo {ldo} fivr {fivr}");
        assert!(
            ldo > 0.3 * fivr,
            "effect should be modest, got {ldo} vs {fivr}"
        );
    }

    #[test]
    fn distance_factor_scales_noise_linearly() {
        let cfg = PdnConfig::default();
        let w = step_window(2000, 1500, 0.3);
        let near = peak(&cfg, &params(9, 15.0), &w, 1000);
        let mut p = params(9, 15.0);
        p.distance_factor = 2.0;
        let far = peak(&cfg, &p, &w, 1000);
        assert!((far / near - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_starts_at_z_eff_and_decays() {
        let cfg = PdnConfig::default();
        let p = params(9, 15.0);
        let k = impulse_kernel(&cfg, &p);
        // k[0] is z_transient scaled by the first-droop suppression
        // factor, which stays within (0.75, 1].
        assert!(k[0] > 0.75 * cfg.z_transient_ohm && k[0] <= cfg.z_transient_ohm);
        let tail = k[k.len() - 1].abs();
        assert!(tail < 0.05 * k[0].abs(), "tail {tail}");
    }

    #[test]
    fn steps_in_warmup_do_not_count_for_peak_but_do_seed_state() {
        let cfg = PdnConfig::default();
        // Step well inside warm-up, long before the analysis region: the
        // ring has decayed by cycle 1000, so the peak is near zero.
        let early = step_window(2000, 200, 0.4);
        let f = peak(&cfg, &params(9, 15.0), &early, 1000);
        let direct = peak(&cfg, &params(9, 15.0), &step_window(2000, 1500, 0.4), 1000);
        assert!(f < 0.05 * direct, "early {f} direct {direct}");
        // A step just before the analysis region still rings into it:
        // warm-up cycles seed the convolution state.
        let seeded = peak(&cfg, &params(9, 15.0), &step_window(2000, 995, 0.4), 1000);
        assert!(seeded > 0.5 * direct, "seeded {seeded} direct {direct}");
    }

    #[test]
    #[should_panic(expected = "n_active")]
    fn zero_active_panics() {
        let cfg = PdnConfig::default();
        noise_series(&cfg, &params(0, 15.0), &[1.0, 1.0], 0);
    }

    #[test]
    #[should_panic(expected = "warm-up swallows the window")]
    fn warmup_covering_the_window_panics() {
        let cfg = PdnConfig::default();
        noise_series(&cfg, &params(9, 15.0), &[1.0, 1.0], 2);
    }
}

//! Cycle-resolution transient (di/dt) noise.
//!
//! One entry point, [`noise_series`]: given a sampled cycle window of
//! load-current multipliers (from `workload::microtrace`-style
//! generators), the transient voltage response is the convolution of the
//! per-cycle current steps `d[n] = I_mean · (m[n] − m[n−1])` with an
//! underdamped impulse-response kernel of length `L = ⌈R + 5·τ_r⌉`:
//!
//! ```text
//! h[k] = Z_eff · cos(ω k) · e^(−k/τ_p) · r(k),   r(k) = 1              for k ≤ R
//!                                                r(k) = e^(−(k−R)/τ_r)  for k > R
//! ```
//!
//! `Z_eff` grows when fewer regulators are active and when the active set
//! sits farther from the load (the `distance_factor`); `e^(−k/τ_p)` is the
//! passive RC decay and `r(k)` the fast regulated decay once the
//! regulator's control loop reacts after `R = response_cycles` — which is
//! how a faster regulator (POWER8-style LDO vs. FIVR, Fig. 15) earns its
//! lower transient noise. `ω = 2π / T_ring`.
//!
//! # The recursion
//!
//! Each decay segment of `h` is the real part of a truncated complex
//! geometric series. With the pole `a = e^(−1/τ_p)·e^(iω)`, the
//! regulated pole `b = a·e^(−1/τ_r)`, and `k₁ = ⌊R⌋ + 1` — the number of
//! taps `k < L` the kernel keeps in its first segment (`k ≤ R`) —
//!
//! ```text
//! h[k] = Z_eff · Re(a^k)                 for 0 ≤ k < k₁
//! h[k] = Z_eff · Re(p · b^(k−k₁))        for k₁ ≤ k < L,   p = e^(−(k₁−R)/τ_r) · a^k₁
//! ```
//!
//! so `y[n] = Σ_k h[k]·d[n−k] = Z_eff · (Re s₁[n] + Re(p · s₂[n]))` with
//! two one-pole recursions, each fed by a delayed start tap and a delayed
//! end tap:
//!
//! ```text
//! s₁[n] = a·s₁[n−1] + d[n]    − a^k₁·d[n−k₁]
//! s₂[n] = b·s₂[n−1] + d[n−k₁] − b^(L−k₁)·d[n−L]
//! ```
//!
//! That is the truncated kernel exactly, not an approximation of it, at
//! two complex multiply-adds per cycle instead of `L` taps. The second
//! segment is rebased at `k₁` so no factor `e^(R/τ_r)` appears, however
//! slow the regulator. Conventions shared with the direct convolution:
//! `d[0] = 0` (the window's first cycle has no predecessor) and
//! `d[j] = 0` for `j < 0`. A segment's sum is exactly zero while no
//! nonzero step lies in its span (the last `k₁` cycles for `s₁`, the
//! `L − k₁` before those for `s₂`); the recursion then holds it at zero
//! instead of carrying the rounding residue of the taps that cancelled,
//! so a cycle no step reaches has exactly zero noise, as in the
//! convolution, and a decaying tail is not swamped by the residue of
//! the larger response before it. The recursion starts `L − 1` cycles
//! before the warm-up ends, because no earlier step reaches the
//! analysed series.
//!
//! [`direct_noise_series`] keeps the `O(W·L)` convolution as the
//! reference the recursion is checked against (unit tests and the
//! `diff.recursive_vs_direct` oracle of `tg-verify`); nothing on the
//! simulation path calls it.
//!
//! [`crate::NoiseAnalyzer`] runs [`noise_series`] once per domain and
//! window; the peak, the Table 2 emergency residency and the Fig. 14
//! trace are all read from the resulting series in
//! [`crate::NoiseReport`].

use crate::config::PdnConfig;
use simkit::units::{Amps, Hertz, Seconds};
use std::ops::{Add, Mul, Sub};

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
/// window, as fractions of Vdd — the one pass over the impulse response.
/// Its maximum is the transient peak of Figs. 11/14/15; add the static IR
/// fraction on top for total noise (Table 2 residency, the Fig. 14 trace).
///
/// `multipliers` are per-cycle current multipliers around a mean of 1
/// (see `workload::microtrace`); the first `warmup` cycles seed the
/// filter state but are excluded from the series. Runs the two-pole
/// recursion of the [module docs](self) in `O(W)`; it equals
/// [`direct_noise_series`] up to rounding, and exactly (zero) on every
/// cycle that no current step reaches.
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
    check_inputs(params, multipliers, warmup);
    let kernel = Kernel::new(config, params);
    let (len, k1) = (kernel.len, kernel.split());
    let pole = |k: usize, tau_inv: f64| {
        let k = k as f64;
        let r = (-k * tau_inv).exp();
        Complex {
            re: r * (kernel.omega * k).cos(),
            im: r * (kernel.omega * k).sin(),
        }
    };
    let passive_inv = 1.0 / kernel.passive_tau;
    let both_inv = passive_inv + 1.0 / REGULATED_TAU;
    let a = pole(1, passive_inv);
    let b = pole(1, both_inv);
    let a_k1 = pole(k1, passive_inv);
    let b_tail = pole(len - k1, both_inv);
    let p = a_k1 * (-(k1 as f64 - kernel.response_cycles) / REGULATED_TAU).exp();

    // Only the last `L` steps reach a cycle, so the first analysed cycle
    // needs none before `start`. `steps[L + i]` is `d[start + i]`; the `L`
    // leading zeros stand for the steps before `start` (and `d[0] = 0`),
    // so both delayed taps read in bounds.
    let start = (warmup + 1).saturating_sub(len);
    let mut steps = vec![0.0; len + multipliers.len() - start];
    for n in start.max(1)..multipliers.len() {
        steps[len + n - start] = multipliers[n] - multipliers[n - 1];
    }
    let scale = kernel.z_eff * params.mean_current.get().max(0.0) / config.vdd.get();
    let (mut s1, mut s2) = (Complex::ZERO, Complex::ZERO);
    // Cycles since a nonzero step last entered each segment. A segment
    // with no step left in its span is exactly zero, and is reset to
    // zero rather than left to carry rounding residue.
    let (mut since1, mut since2) = (k1, len - k1);
    let mut series = Vec::with_capacity(multipliers.len() - warmup);
    for (i, n) in (start..multipliers.len()).enumerate() {
        let (d, d1, d_len) = (steps[len + i], steps[len + i - k1], steps[i]);
        since1 = if d != 0.0 { 0 } else { since1 + 1 };
        since2 = if d1 != 0.0 { 0 } else { since2 + 1 };
        s1 = if since1 < k1 {
            a * s1 + (Complex::real(d) - a_k1 * d1)
        } else {
            Complex::ZERO
        };
        s2 = if since2 < len - k1 {
            b * s2 + (Complex::real(d1) - b_tail * d_len)
        } else {
            Complex::ZERO
        };
        if n >= warmup {
            series.push((scale * (s1.re + (p * s2).re)).abs());
        }
    }
    series
}

/// The reference for [`noise_series`]: the same series by direct
/// `O(W·L)` convolution of the current steps with the materialised
/// impulse-response kernel. The recursion must match it up to rounding;
/// only tests and the `diff.recursive_vs_direct` oracle call it.
///
/// # Panics
///
/// As [`noise_series`].
pub fn direct_noise_series(
    config: &PdnConfig,
    params: &TransientParams,
    multipliers: &[f64],
    warmup: usize,
) -> Vec<f64> {
    check_inputs(params, multipliers, warmup);
    let kernel = impulse_kernel(config, params);
    let i_mean = params.mean_current.get().max(0.0);
    let vdd = config.vdd.get();
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

fn check_inputs(params: &TransientParams, multipliers: &[f64], warmup: usize) {
    assert!(
        params.n_active > 0 && params.n_active <= params.n_total,
        "n_active {} outside [1, {}]",
        params.n_active,
        params.n_total
    );
    assert!(warmup < multipliers.len(), "warm-up swallows the window");
}

/// Regulated decay constant τ_r, cycles: a few cycles once the loop has
/// reacted.
const REGULATED_TAU: f64 = 8.0;

/// The impulse response's shape, shared by the recursion and the
/// reference kernel.
struct Kernel {
    z_eff: f64,
    /// `R`, the regulator response in cycles (at least 1).
    response_cycles: f64,
    /// `L = ⌈R + 5·τ_r⌉` taps.
    len: usize,
    omega: f64,
    passive_tau: f64,
}

impl Kernel {
    fn new(config: &PdnConfig, params: &TransientParams) -> Self {
        let response_cycles = (params.response_time.get() * params.frequency.get()).max(1.0);
        // A regulator that reacts within the first droop (≈ a quarter of
        // the ring period) partially suppresses even the initial
        // undershoot; a slow loop only helps the tail. This is the
        // (modest) LDO-vs-FIVR advantage of Fig. 15.
        let quarter = config.ring_period_cycles / 4.0;
        let first_droop_suppression = 1.0 - 0.25 * quarter / (quarter + response_cycles);
        Kernel {
            z_eff: config.z_transient_ohm
                * (config.z_reference_active / params.n_active as f64).sqrt()
                * params.distance_factor.max(0.1)
                * first_droop_suppression,
            response_cycles,
            len: (response_cycles + 5.0 * REGULATED_TAU).ceil() as usize,
            omega: 2.0 * std::f64::consts::PI / config.ring_period_cycles,
            passive_tau: config.passive_decay_cycles,
        }
    }

    /// `k₁`: how many taps precede the regulated decay, i.e. the number
    /// of `k < L` with `k ≤ R` ([`Kernel::tap`]'s own test, since
    /// `k as f64 ≤ R` ⇔ `k ≤ ⌊R⌋`, and `L > R + 1`).
    fn split(&self) -> usize {
        self.response_cycles.floor() as usize + 1
    }

    /// `h[k]`.
    fn tap(&self, k: usize) -> f64 {
        let kf = k as f64;
        let passive = (-kf / self.passive_tau).exp();
        let regulated = if kf > self.response_cycles {
            (-(kf - self.response_cycles) / REGULATED_TAU).exp()
        } else {
            1.0
        };
        self.z_eff * (self.omega * kf).cos() * passive * regulated
    }
}

/// The materialised impulse-response kernel for the given configuration.
fn impulse_kernel(config: &PdnConfig, params: &TransientParams) -> Vec<f64> {
    let kernel = Kernel::new(config, params);
    (0..kernel.len).map(|k| kernel.tap(k)).collect()
}

/// A complex number: just enough arithmetic for the two recursions.
#[derive(Debug, Clone, Copy)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::DeterministicRng;

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

    /// Parameters whose response is exactly `cycles` (a 1 Hz clock).
    fn params_in_cycles(n_active: usize, cycles: f64) -> TransientParams {
        TransientParams {
            response_time: Seconds::new(cycles),
            frequency: Hertz::new(1.0),
            ..params(n_active, 15.0)
        }
    }

    /// A window with one large current step in the middle.
    fn step_window(len: usize, at: usize, height: f64) -> Vec<f64> {
        (0..len)
            .map(|i| if i < at { 1.0 } else { 1.0 + height })
            .collect()
    }

    /// A 2 K-cycle window with per-cycle shot noise and a few large
    /// steps, the shape of a `workload::microtrace` window.
    fn busy_window(seed: u64) -> Vec<f64> {
        let mut rng = DeterministicRng::new(seed);
        let mut level = 1.0;
        (0..2000)
            .map(|_| {
                if rng.bernoulli(0.004) {
                    level = rng.uniform_range(0.6, 1.4);
                }
                level + 0.02 * rng.normal()
            })
            .collect()
    }

    /// Peak transient noise of a window: the maximum of its series.
    fn peak(cfg: &PdnConfig, p: &TransientParams, w: &[f64], warmup: usize) -> f64 {
        noise_series(cfg, p, w, warmup)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Asserts the recursion matches the direct convolution to 1e-12 of
    /// the direct series' peak (exactly, where that peak is zero).
    fn assert_matches_direct(p: &TransientParams, w: &[f64], warmup: usize) {
        let cfg = PdnConfig::default();
        let fast = noise_series(&cfg, p, w, warmup);
        let direct = direct_noise_series(&cfg, p, w, warmup);
        assert_eq!(fast.len(), direct.len());
        let scale = direct.iter().copied().fold(0.0, f64::max);
        for (n, (f, d)) in fast.iter().zip(&direct).enumerate() {
            assert!(
                (f - d).abs() <= 1e-12 * scale,
                "cycle {n}: recursive {f:e} vs direct {d:e} (peak {scale:e}, {p:?}, warm-up {warmup})"
            );
        }
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
    fn recursion_matches_direct_convolution() {
        for (seed, &cycles) in [0.5, 1.0, 3.2, 17.0, 60.0, 2999.0].iter().enumerate() {
            // One active regulator is the largest effective impedance.
            for n_active in [1, 3, 9] {
                for warmup in [0, 1000] {
                    let w = busy_window(seed as u64 * 16 + n_active as u64);
                    assert_matches_direct(&params_in_cycles(n_active, cycles), &w, warmup);
                }
            }
        }
        // The engine's FIVR: R = 15 ns × 4 GHz.
        assert_matches_direct(&params(9, 15.0), &busy_window(99), 1000);
    }

    #[test]
    fn recursion_matches_direct_without_warmup() {
        // d[0] = 0: the first cycle has no predecessor, so no step.
        let w = busy_window(7);
        assert_matches_direct(&params(9, 15.0), &w, 0);
        let series = noise_series(&PdnConfig::default(), &params(9, 15.0), &w, 0);
        assert_eq!(series[0], 0.0);
    }

    #[test]
    fn recursion_matches_direct_below_one_cycle_response() {
        // R < 1 clamps to one cycle: k₁ = 2.
        let p = params_in_cycles(9, 0.25);
        let kernel = Kernel::new(&PdnConfig::default(), &p);
        assert_eq!((kernel.response_cycles, kernel.split()), (1.0, 2));
        assert_matches_direct(&p, &busy_window(3), 1000);
    }

    #[test]
    fn recursion_matches_direct_at_an_integral_response() {
        // k = R itself stays in the unregulated segment.
        let p = params_in_cycles(9, 40.0);
        let kernel = Kernel::new(&PdnConfig::default(), &p);
        assert_eq!(kernel.split(), 41);
        assert_eq!(
            kernel.tap(40),
            impulse_kernel(&PdnConfig::default(), &p)[40]
        );
        assert_matches_direct(&p, &busy_window(4), 1000);
        assert_matches_direct(&p, &step_window(2000, 1000 - 40, 0.3), 1000);
    }

    #[test]
    fn recursion_matches_direct_with_a_kernel_longer_than_the_window() {
        let p = params_in_cycles(3, 2500.0);
        assert!(Kernel::new(&PdnConfig::default(), &p).len > 2000);
        for warmup in [0, 1000, 1999] {
            assert_matches_direct(&p, &busy_window(5), warmup);
        }
    }

    #[test]
    fn split_is_the_kernel_segment_boundary() {
        let cfg = PdnConfig::default();
        for p in [
            params(9, 15.0),
            params(9, 0.8),
            params_in_cycles(9, 0.5),
            params_in_cycles(9, 1.0),
            params_in_cycles(9, 7.0),
            params_in_cycles(9, 7.999_999_999),
            params_in_cycles(9, 2999.0),
        ] {
            let kernel = Kernel::new(&cfg, &p);
            let unregulated = (0..kernel.len)
                .filter(|&k| k as f64 <= kernel.response_cycles)
                .count();
            assert_eq!(kernel.split(), unregulated, "{p:?}");
            assert!(kernel.split() < kernel.len);
        }
    }

    #[test]
    fn decayed_steps_leave_exact_zeros() {
        let cfg = PdnConfig::default();
        let p = params(9, 15.0);
        let len = Kernel::new(&cfg, &p).len;
        let w = step_window(2000, 1200, 0.4);
        let series = noise_series(&cfg, &p, &w, 1000);
        let direct = direct_noise_series(&cfg, &p, &w, 1000);
        assert!(series[200 + len - 1] > 0.0);
        // A kernel length after the only step, both are exactly zero.
        assert!(series[200 + len..].iter().all(|&v| v == 0.0));
        assert!(direct[200 + len..].iter().all(|&v| v == 0.0));
        assert_matches_direct(&p, &w, 1000);
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

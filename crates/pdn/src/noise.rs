//! Combined voltage-noise analysis (static IR drop + transient di/dt).

use crate::config::PdnConfig;
use crate::grid::PdnModel;
use crate::transient::{noise_series, TransientParams};
use floorplan::{DomainId, Floorplan};
use simkit::perf::SolverAgg;
use simkit::telemetry::Telemetry;
use simkit::units::{Hertz, Seconds, Watts};
use simkit::Result;
use vreg::GatingState;

/// Per-domain voltage noise of one sampled window, as fractions of
/// nominal Vdd: the maximum (IR + transient peak), the static IR part,
/// and the per-cycle transient series the peak was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseReport {
    per_domain: Vec<f64>,
    per_domain_ir: Vec<f64>,
    per_domain_series: Vec<Vec<f64>>,
    ir_solve: SolverAgg,
}

impl NoiseReport {
    /// Builds a report from raw per-domain total-noise fractions
    /// (indexed by [`DomainId`]) — mainly for tests and external tooling;
    /// [`NoiseAnalyzer::analyze`] is the normal source of reports. The
    /// static IR component is taken as zero and the transient series as
    /// empty.
    pub fn from_fractions(per_domain: Vec<f64>) -> Self {
        let n = per_domain.len();
        NoiseReport {
            per_domain,
            per_domain_ir: vec![0.0; n],
            per_domain_series: vec![Vec::new(); n],
            ir_solve: SolverAgg::default(),
        }
    }

    /// Aggregated CG convergence statistics of the IR solves behind this
    /// report (zero solves for [`NoiseReport::from_fractions`] reports).
    pub fn ir_solve_stats(&self) -> SolverAgg {
        self.ir_solve
    }

    /// The static IR-drop component of one domain's noise, as a fraction
    /// of Vdd (total minus this is the transient peak).
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_ir_fraction(&self, domain: DomainId) -> f64 {
        self.per_domain_ir[domain.0]
    }

    /// Noise of one domain as a fraction of Vdd.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_fraction(&self, domain: DomainId) -> f64 {
        self.per_domain[domain.0]
    }

    /// Worst noise across all domains, as a fraction of Vdd.
    pub fn max_fraction(&self) -> f64 {
        self.per_domain.iter().copied().fold(0.0, f64::max)
    }

    /// Worst noise across all domains, in percent of Vdd (the unit of
    /// Figs. 11/14/15).
    pub fn max_percent(&self) -> f64 {
        self.max_fraction() * 100.0
    }

    /// Domains whose noise exceeds `threshold_fraction` of Vdd.
    pub fn domains_over(&self, threshold_fraction: f64) -> Vec<DomainId> {
        self.per_domain
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > threshold_fraction)
            .map(|(i, _)| DomainId(i))
            .collect()
    }

    /// All per-domain fractions, indexed by [`DomainId`].
    pub fn fractions(&self) -> &[f64] {
        &self.per_domain
    }

    /// Number of analysis cycles whose total noise in one domain
    /// (transient + static IR) strictly exceeds `threshold_fraction` of
    /// Vdd — the quantity behind Table 2's "% execution time spent in
    /// voltage emergencies". Zero for [`NoiseReport::from_fractions`]
    /// reports, which carry no series.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn cycles_over(&self, domain: DomainId, threshold_fraction: f64) -> usize {
        let ir = self.per_domain_ir[domain.0];
        self.per_domain_series[domain.0]
            .iter()
            .filter(|&&v| v + ir > threshold_fraction)
            .count()
    }

    /// One domain's per-cycle total noise (transient + static IR) over the
    /// analysis region, in percent of Vdd — the Fig. 14 trace. Its
    /// maximum is the domain's fraction in percent.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn trace_percent(&self, domain: DomainId) -> Vec<f64> {
        let ir = self.per_domain_ir[domain.0];
        self.per_domain_series[domain.0]
            .iter()
            .map(|&v| (v + ir) * 100.0)
            .collect()
    }
}

/// One noise evaluation's inputs for a single sampled cycle window.
#[derive(Debug)]
pub struct WindowInputs<'a> {
    /// Per-block load powers at the window's instant.
    pub block_powers: &'a [Watts],
    /// Per-domain cycle-current multipliers for the window (indexed by
    /// [`DomainId`]); each slice is one window of per-cycle multipliers.
    pub domain_multipliers: &'a [Vec<f64>],
    /// Warm-up cycles that seed the convolution but are excluded from the
    /// analysed series.
    pub warmup: usize,
}

/// Combines static IR-drop solves with transient window analysis into the
/// paper's per-domain maximum-voltage-noise metric.
#[derive(Debug, Clone)]
pub struct NoiseAnalyzer {
    frequency: Hertz,
    response_time: Seconds,
    telemetry: Telemetry,
}

impl NoiseAnalyzer {
    /// Creates an analyzer for a chip clocked at `frequency` whose
    /// regulators respond in `response_time`.
    pub fn new(frequency: Hertz, response_time: Seconds) -> Self {
        NoiseAnalyzer {
            frequency,
            response_time,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; each analysis then emits a
    /// `pdn.ir_direct`, `pdn.ir_cg`, or `pdn.ir_mgcg` solve event (aggregated over the
    /// per-domain solves, named after the configured solver backend,
    /// carrying the factor/solve wall-clock split) and a
    /// `pdn.noise_max_pct` gauge.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Clock frequency used to convert response times to cycles.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// Regulator response time used for the transient kernel.
    pub fn response_time(&self) -> Seconds {
        self.response_time
    }

    /// Evaluates the total (IR + transient) noise of every domain for one
    /// sampled window under the given gating state.
    ///
    /// # Errors
    ///
    /// Propagates IR-solve errors (floating domains, size mismatches).
    pub fn analyze(
        &self,
        chip: &Floorplan,
        model: &PdnModel,
        gating: &GatingState,
        inputs: &WindowInputs<'_>,
    ) -> Result<NoiseReport> {
        let ir = model.ir_drop(gating, inputs.block_powers)?;
        let config: &PdnConfig = model.config();
        let n = chip.domains().len();
        let mut report = NoiseReport {
            per_domain: Vec::with_capacity(n),
            per_domain_ir: Vec::with_capacity(n),
            per_domain_series: Vec::with_capacity(n),
            ir_solve: ir.solve_stats(),
        };
        for domain in chip.domains() {
            let d = domain.id();
            let mean_current = domain
                .blocks()
                .iter()
                .map(|&b| inputs.block_powers[b.0])
                .sum::<Watts>()
                / config.vdd;
            let params = TransientParams {
                mean_current,
                n_active: gating.active_among(domain.vrs()).max(1),
                n_total: domain.vr_count(),
                distance_factor: model.active_distance_factor(d, gating, inputs.block_powers),
                response_time: self.response_time,
                frequency: self.frequency,
            };
            let series = noise_series(
                config,
                &params,
                &inputs.domain_multipliers[d.0],
                inputs.warmup,
            );
            let peak = series.iter().copied().fold(0.0, f64::max);
            report.per_domain.push(ir.domain_fraction(d) + peak);
            report.per_domain_ir.push(ir.domain_fraction(d));
            report.per_domain_series.push(series);
        }
        if self.telemetry.is_enabled() {
            let solve = report.ir_solve;
            let event = match ir.backend() {
                "direct" => "pdn.ir_direct",
                "mgcg" => "pdn.ir_mgcg",
                _ => "pdn.ir_cg",
            };
            self.telemetry.solve_timed(
                event,
                solve.iterations as usize,
                solve.max_residual,
                ir.backend(),
                ir.factor_seconds(),
                ir.solve_seconds(),
            );
            self.telemetry
                .gauge("pdn.noise_max_pct", report.max_percent());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdnConfig;
    use floorplan::reference::power8_like;
    use simkit::DeterministicRng;

    fn step_window(len: usize, at: usize, height: f64) -> Vec<f64> {
        (0..len)
            .map(|i| if i < at { 1.0 } else { 1.0 + height })
            .collect()
    }

    fn setup() -> (floorplan::Floorplan, PdnModel, NoiseAnalyzer) {
        let chip = power8_like();
        let model = PdnModel::new(&chip, PdnConfig::default());
        let analyzer = NoiseAnalyzer::new(Hertz::from_ghz(4.0), Seconds::from_nanos(15.0));
        (chip, model, analyzer)
    }

    #[test]
    fn all_on_noise_is_in_band() {
        let (chip, model, analyzer) = setup();
        let powers = vec![Watts::new(1.5); chip.blocks().len()];
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|i| step_window(2000, 1200 + 37 * i, 0.25))
            .collect();
        let gating = GatingState::all_on(chip.vr_sites().len());
        let report = analyzer
            .analyze(
                &chip,
                &model,
                &gating,
                &WindowInputs {
                    block_powers: &powers,
                    domain_multipliers: &windows,
                    warmup: 1000,
                },
            )
            .unwrap();
        let pct = report.max_percent();
        assert!(pct > 2.0 && pct < 25.0, "all-on noise {pct}%");
    }

    #[test]
    fn memory_side_gating_worsens_noise() {
        let (chip, model, analyzer) = setup();
        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|b| {
                if b.kind().is_logic() {
                    Watts::new(2.5)
                } else {
                    Watts::new(0.5)
                }
            })
            .collect();
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|_| step_window(2000, 1500, 0.3))
            .collect();
        let inputs = WindowInputs {
            block_powers: &powers,
            domain_multipliers: &windows,
            warmup: 1000,
        };
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let base = analyzer.analyze(&chip, &model, &all_on, &inputs).unwrap();
        // OracT-like: keep only memory-side VRs in every core domain.
        let mut gated = all_on.clone();
        for domain in chip.domains() {
            for &v in domain.vrs() {
                if chip.vr_site(v).neighborhood() == floorplan::VrNeighborhood::Logic {
                    gated.set(v, false).unwrap();
                }
            }
        }
        // L3 domains have only memory VRs — all still on; core domains
        // run on 3 of 9.
        let worse = analyzer.analyze(&chip, &model, &gated, &inputs).unwrap();
        assert!(
            worse.max_fraction() > 1.3 * base.max_fraction(),
            "gated {} vs all-on {}",
            worse.max_percent(),
            base.max_percent()
        );
    }

    #[test]
    fn domains_over_threshold_detection() {
        let report = NoiseReport::from_fractions(vec![0.05, 0.12, 0.09, 0.15]);
        assert_eq!(report.domains_over(0.10), vec![DomainId(1), DomainId(3)]);
        assert!((report.max_percent() - 15.0).abs() < 1e-12);
        assert_eq!(report.fractions().len(), 4);
    }

    /// One analysed window on the reference chip: the memory-side gating
    /// of `memory_side_gating_worsens_noise` under uniform powers and a
    /// per-domain step window, with the given warm-up.
    fn gated_report(
        warmup: usize,
    ) -> (Floorplan, PdnModel, NoiseAnalyzer, GatingState, NoiseReport) {
        let (chip, model, analyzer) = setup();
        let powers = vec![Watts::new(1.5); chip.blocks().len()];
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|i| step_window(2000, 1500 + 11 * i, 0.3))
            .collect();
        let mut gating = GatingState::all_on(chip.vr_sites().len());
        for domain in chip.domains() {
            for &v in domain.vrs() {
                if chip.vr_site(v).neighborhood() == floorplan::VrNeighborhood::Logic {
                    gating.set(v, false).unwrap();
                }
            }
        }
        let report = analyzer
            .analyze(
                &chip,
                &model,
                &gating,
                &WindowInputs {
                    block_powers: &powers,
                    domain_multipliers: &windows,
                    warmup,
                },
            )
            .unwrap();
        (chip, model, analyzer, gating, report)
    }

    #[test]
    fn noise_series_peak_matches_report_peak() {
        let (chip, model, analyzer, gating, report) = gated_report(1000);
        let powers = vec![Watts::new(1.5); chip.blocks().len()];
        for domain in chip.domains() {
            let d = domain.id();
            let params = TransientParams {
                mean_current: Watts::new(1.5) * domain.blocks().len() as f64 / model.config().vdd,
                n_active: gating.active_among(domain.vrs()),
                n_total: domain.vr_count(),
                distance_factor: model.active_distance_factor(d, &gating, &powers),
                response_time: analyzer.response_time(),
                frequency: analyzer.frequency(),
            };
            let window = step_window(2000, 1500 + 11 * d.0, 0.3);
            let series = noise_series(model.config(), &params, &window, 1000);
            assert_eq!(series.len(), 1000);
            let peak = series.iter().copied().fold(0.0, f64::max);
            assert_eq!(
                report.domain_fraction(d),
                report.domain_ir_fraction(d) + peak,
                "domain {d:?}"
            );
            let trace = report.trace_percent(d);
            assert_eq!(trace.len(), 1000);
            assert_eq!(
                trace.iter().copied().fold(0.0, f64::max),
                report.domain_fraction(d) * 100.0
            );
        }
    }

    #[test]
    fn cycles_over_counts_threshold_crossings() {
        let (chip, _, _, _, report) = gated_report(1000);
        let d = chip.domains()[0].id();
        let ir = report.domain_ir_fraction(d);
        assert!(ir > 0.0);
        // With a huge threshold nothing crosses.
        assert_eq!(report.cycles_over(d, 10.0), 0);
        // With a threshold below the static IR floor every cycle crosses.
        assert_eq!(report.cycles_over(d, 0.0), 1000);
        assert_eq!(report.cycles_over(d, ir * 0.5), 1000);
        // Intermediate threshold: some but not all cycles cross.
        let peak = report.domain_fraction(d);
        let some = report.cycles_over(d, ir + (peak - ir) * 0.5);
        assert!(some > 0 && some < 1000, "crossings {some}");
        // The comparison is strict: a threshold equal to the peak sample
        // plus IR does not count it, the next float down does.
        assert_eq!(report.cycles_over(d, peak), 0);
        assert!(report.cycles_over(d, f64::from_bits(peak.to_bits() - 1)) >= 1);

        // No warm-up: the whole 2 K-cycle window is analysed.
        let (_, _, _, _, cold) = gated_report(0);
        assert_eq!(cold.cycles_over(d, 0.0), 2000);
        assert_eq!(cold.trace_percent(d).len(), 2000);
        assert_eq!(cold.cycles_over(d, 10.0), 0);

        // Reports built from bare fractions carry no series.
        let bare = NoiseReport::from_fractions(vec![0.05, 0.12]);
        assert_eq!(bare.cycles_over(DomainId(1), 0.0), 0);
        assert!(bare.trace_percent(DomainId(1)).is_empty());
    }

    #[test]
    fn analysis_reports_ir_solve_stats_and_emits_telemetry() {
        use simkit::telemetry::{EventKind, Telemetry};

        let (chip, model, mut analyzer) = setup();
        let (tel, sink) = Telemetry::recorder();
        analyzer.set_telemetry(tel);
        let powers = vec![Watts::new(1.0); chip.blocks().len()];
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|_| step_window(2000, 1500, 0.2))
            .collect();
        let gating = GatingState::all_on(chip.vr_sites().len());
        let report = analyzer
            .analyze(
                &chip,
                &model,
                &gating,
                &WindowInputs {
                    block_powers: &powers,
                    domain_multipliers: &windows,
                    warmup: 1000,
                },
            )
            .unwrap();
        let solve = report.ir_solve_stats();
        assert_eq!(solve.solves as usize, chip.domains().len());
        assert!(solve.iterations > 0, "IR solve iterations were dropped");
        assert!(solve.max_residual.is_finite() && solve.max_residual <= 1e-9);
        assert_eq!(sink.count_kind(EventKind::Solve), 1);
        assert_eq!(sink.count_kind(EventKind::Gauge), 1);
        assert!(sink.events().iter().any(|e| e.name == "pdn.noise_max_pct"));
    }

    #[test]
    fn analysis_is_deterministic() {
        let (chip, model, analyzer) = setup();
        let mut rng = DeterministicRng::new(5);
        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|_| Watts::new(1.0 + rng.uniform_f64()))
            .collect();
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|_| step_window(2000, 1500, 0.2))
            .collect();
        let inputs = WindowInputs {
            block_powers: &powers,
            domain_multipliers: &windows,
            warmup: 1000,
        };
        let gating = GatingState::all_on(chip.vr_sites().len());
        let a = analyzer.analyze(&chip, &model, &gating, &inputs).unwrap();
        let b = analyzer.analyze(&chip, &model, &gating, &inputs).unwrap();
        assert_eq!(a, b);
    }
}

//! Correctness of every answer the benchmark receives.
//!
//! The model is not validated against hardware, so "correct" means
//! agreement with the pinned references in `refs/references.csv`
//! (and, at the default seed, with the repository's `golden_tiny.csv`
//! fixture). Seeds without references are checked against physical
//! invariants only. Mismatches are counted and named on stderr; they
//! never abort the run.

use experiments::sweep::SweepRecord;
use std::collections::HashMap;

/// Relative tolerance of every float field against its reference.
pub const REL_TOL: f64 = 1e-6;
/// Absolute floor of the tolerance, for fields whose reference is 0.
pub const ABS_TOL: f64 = 1e-12;
/// Ambient temperature of the reference package, °C.
pub const AMBIENT_C: f64 = 45.0;

/// Pinned records, written by `--bless`.
pub const REFERENCES: &str = include_str!("../refs/references.csv");
/// The repository's tiny-sweep fixture (default seed only).
pub const GOLDEN_TINY: &str =
    include_str!("../../crates/experiments/tests/fixtures/golden_tiny.csv");

/// Which engine configuration a record was computed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfigTag {
    Standard,
    Tiny,
}

impl ConfigTag {
    pub fn name(self) -> &'static str {
        match self {
            ConfigTag::Standard => "standard",
            ConfigTag::Tiny => "tiny",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [ConfigTag::Standard, ConfigTag::Tiny]
            .into_iter()
            .find(|t| t.name() == name)
    }
}

/// What identifies a reference: configuration, engine seed, and the
/// record's `benchmark,policy` labels.
pub type RefKey = (ConfigTag, u64, String);

pub fn record_label(record: &SweepRecord) -> String {
    let csv = record.to_csv();
    let mut parts = csv.splitn(3, ',');
    format!(
        "{},{}",
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default()
    )
}

/// One reference line: `<config>,<engine seed hex>,<record csv>`.
pub fn reference_line(tag: ConfigTag, engine_seed: u64, record: &SweepRecord) -> String {
    format!("{},{engine_seed:x},{}", tag.name(), record.to_csv())
}

#[derive(Debug, Default, Clone)]
pub struct References {
    records: HashMap<RefKey, SweepRecord>,
    /// Whether every answer must have a reference: the run's seed is
    /// one the references were made for.
    required: bool,
}

impl References {
    /// Parses reference lines; `#` lines are comments. Malformed lines
    /// are an error: a reference that cannot be read checks nothing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut records = HashMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ',');
            let (Some(tag), Some(seed), Some(body)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("malformed reference line {line:?}"));
            };
            let tag = ConfigTag::parse(tag).ok_or_else(|| format!("unknown config in {line:?}"))?;
            let seed = u64::from_str_radix(seed, 16).map_err(|e| format!("{e} in {line:?}"))?;
            let record = SweepRecord::from_csv(body)
                .ok_or_else(|| format!("malformed record in {line:?}"))?;
            records.insert((tag, seed, record_label(&record)), record);
        }
        Ok(References {
            records,
            required: false,
        })
    }

    pub fn pinned() -> Self {
        References::parse(REFERENCES).expect("pinned references parse")
    }

    pub fn get(&self, tag: ConfigTag, engine_seed: u64, label: &str) -> Option<&SweepRecord> {
        self.records.get(&(tag, engine_seed, label.to_string()))
    }

    /// Requires (or not) a reference for every answer checked.
    pub fn require_all(self, required: bool) -> Self {
        References { required, ..self }
    }
}

fn floats(record: &SweepRecord) -> [(&'static str, Option<f64>); 8] {
    [
        ("tmax_c", Some(record.tmax_c)),
        ("gradient_c", Some(record.gradient_c)),
        ("mean_efficiency", Some(record.mean_efficiency)),
        ("mean_loss_w", Some(record.mean_loss_w)),
        ("max_noise_pct", record.max_noise_pct),
        ("emergency_fraction", record.emergency_fraction),
        ("mean_active", Some(record.mean_active)),
        ("r_squared", record.r_squared),
    ]
}

/// Field-named differences between `got` and `want` beyond the
/// tolerance. Labels and the presence of optional fields must match
/// exactly.
pub fn compare(got: &SweepRecord, want: &SweepRecord) -> Vec<String> {
    let mut out = Vec::new();
    if record_label(got) != record_label(want) {
        out.push(format!(
            "label {} != {}",
            record_label(got),
            record_label(want)
        ));
    }
    for ((name, g), (_, w)) in floats(got).into_iter().zip(floats(want)) {
        match (g, w) {
            (Some(g), Some(w)) => {
                let close = (g - w).abs() <= REL_TOL * w.abs() + ABS_TOL;
                if !close {
                    out.push(format!("{name} {g:e} != {w:e}"));
                }
            }
            (None, None) => {}
            _ => out.push(format!("{name} {g:?} != {w:?}")),
        }
    }
    out
}

/// Physical invariants every record must satisfy on any seed.
pub fn invariants(record: &SweepRecord) -> Vec<String> {
    let mut out = Vec::new();
    for (name, value) in floats(record) {
        if let Some(v) = value {
            if !v.is_finite() {
                out.push(format!("{name} is not finite ({v})"));
            }
        }
    }
    if !(record.mean_efficiency > 0.0 && record.mean_efficiency <= 1.0) {
        out.push(format!(
            "efficiency {} outside (0, 1]",
            record.mean_efficiency
        ));
    }
    if record.tmax_c.is_nan() || record.tmax_c <= AMBIENT_C {
        out.push(format!("T_max {} not above ambient", record.tmax_c));
    }
    if let Some(f) = record.emergency_fraction {
        if !(0.0..=1.0).contains(&f) {
            out.push(format!("emergency fraction {f} outside [0, 1]"));
        }
    }
    out
}

/// Bitwise equality of two records: a cache hit must be byte-equal to
/// the cold record for its hash.
pub fn bit_equal(a: &SweepRecord, b: &SweepRecord) -> bool {
    let bits = |r: &SweepRecord| floats(r).map(|(_, v)| v.map(f64::to_bits));
    a.benchmark == b.benchmark && a.policy == b.policy && bits(a) == bits(b)
}

/// The golden fixture's records (default seed, tiny configuration).
pub fn golden_tiny() -> Vec<SweepRecord> {
    GOLDEN_TINY
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| SweepRecord::from_csv(l).expect("golden_tiny.csv rows parse"))
        .collect()
}

/// Tallies answers and failures; every failure is named on stderr.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Counts one answer; `problems` empty means it passed.
    pub fn answer(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        self.fail_if(what, problems);
    }

    /// Counts `n` answers that passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records problems against an already-counted answer (or against
    /// the run as a whole, e.g. a drifting count).
    pub fn fail_if(&mut self, what: &str, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("[tgbench] FAILED {what}: {}", problems.join("; "));
        }
    }

    /// Counts `n` answers that never arrived (panic or error).
    pub fn lost(&mut self, what: &str, n: u64) {
        if n > 0 {
            self.attempted += n;
            self.failed += n;
            eprintln!("[tgbench] FAILED {what}: {n} answers lost");
        }
    }

    /// Full check of one answer: invariants always, the pinned
    /// reference when one exists for its configuration and seed.
    pub fn check_record(
        &mut self,
        refs: &References,
        tag: ConfigTag,
        engine_seed: u64,
        record: &SweepRecord,
    ) {
        let what = format!(
            "{} {} seed {engine_seed:x}",
            tag.name(),
            record_label(record)
        );
        self.answer(&what, record_problems(refs, tag, engine_seed, record));
    }
}

/// Everything wrong with one answer: broken invariants, a mismatch
/// with its pinned reference when the configuration, seed and label
/// have one, and a missing reference when every answer needs one.
/// (On another seed an engine seed can still equal a pinned one: a
/// serve miss's seed mixes the run's seed with the miss's index.)
pub fn record_problems(
    refs: &References,
    tag: ConfigTag,
    engine_seed: u64,
    record: &SweepRecord,
) -> Vec<String> {
    let mut problems = invariants(record);
    match refs.get(tag, engine_seed, &record_label(record)) {
        Some(want) => problems.extend(compare(record, want)),
        None if refs.required => problems.push("no pinned reference".into()),
        None => {}
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermogater::PolicyKind;
    use workload::Benchmark;

    fn record() -> SweepRecord {
        SweepRecord {
            benchmark: Benchmark::Fft,
            policy: PolicyKind::OracVT,
            tmax_c: 66.25,
            gradient_c: 10.5,
            mean_efficiency: 0.89,
            mean_loss_w: 9.1,
            max_noise_pct: Some(22.6),
            emergency_fraction: Some(0.0),
            mean_active: 71.5,
            r_squared: Some(0.98),
        }
    }

    #[test]
    fn references_round_trip_through_their_line_format() {
        let line = reference_line(ConfigTag::Tiny, 0xabc, &record());
        let refs = References::parse(&format!("# comment\n{line}\n")).unwrap();
        assert_eq!(
            refs.get(ConfigTag::Tiny, 0xabc, "fft,oracvt"),
            Some(&record())
        );
        assert_eq!(refs.get(ConfigTag::Standard, 0xabc, "fft,oracvt"), None);
        assert!(References::parse("tiny,zz,fft").is_err());
    }

    #[test]
    fn only_a_pinned_seed_needs_a_reference_for_every_answer() {
        let refs = References::parse(&reference_line(ConfigTag::Tiny, 7, &record())).unwrap();
        // Same engine seed, another scenario: on an unpinned run seed
        // only the invariants apply.
        let other = SweepRecord {
            policy: PolicyKind::AllOn,
            ..record()
        };
        assert!(record_problems(&refs, ConfigTag::Tiny, 7, &other).is_empty());
        let refs = refs.require_all(true);
        assert_eq!(
            record_problems(&refs, ConfigTag::Tiny, 7, &other),
            vec!["no pinned reference".to_string()]
        );
        assert!(record_problems(&refs, ConfigTag::Tiny, 7, &record()).is_empty());
    }

    #[test]
    fn a_perturbed_reference_fails_the_check_without_aborting() {
        let refs = References::parse(&reference_line(ConfigTag::Tiny, 7, &record())).unwrap();
        let mut checker = Checker::default();
        checker.check_record(&refs, ConfigTag::Tiny, 7, &record());
        assert_eq!((checker.attempted, checker.failed), (1, 0));
        // T_max off by 1e-3, far outside REL_TOL.
        let mut wrong = record();
        wrong.tmax_c *= 1.0 + 1e-3;
        let refs = References::parse(&reference_line(ConfigTag::Tiny, 7, &wrong)).unwrap();
        checker.check_record(&refs, ConfigTag::Tiny, 7, &record());
        checker.check_record(&refs, ConfigTag::Tiny, 7, &record());
        assert_eq!((checker.attempted, checker.failed), (3, 2));
    }

    #[test]
    fn comparisons_name_fields_and_respect_the_tolerance() {
        let want = record();
        let mut got = record();
        got.gradient_c *= 1.0 + 0.1 * REL_TOL;
        assert!(compare(&got, &want).is_empty());
        got.gradient_c *= 1.0 + 10.0 * REL_TOL;
        got.r_squared = None;
        let problems = compare(&got, &want);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("gradient_c"));
        assert!(problems[1].starts_with("r_squared"));
        assert!(!bit_equal(&got, &want));
        assert!(bit_equal(&want, &record()));
    }

    #[test]
    fn invariants_catch_unphysical_records() {
        assert!(invariants(&record()).is_empty());
        let mut bad = record();
        bad.mean_efficiency = 1.2;
        bad.tmax_c = 30.0;
        bad.max_noise_pct = Some(f64::NAN);
        assert_eq!(invariants(&bad).len(), 3);
    }

    #[test]
    fn golden_fixture_rows_parse() {
        assert_eq!(golden_tiny().len(), 4);
    }
}

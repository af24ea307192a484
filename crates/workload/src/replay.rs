//! Importing and exporting activity traces.
//!
//! The synthetic suite stands in for the paper's SNIPER+McPAT pipeline,
//! but a downstream user with *real* per-unit activity traces (from their
//! own performance model, RTL activity counters, or measurement) should
//! be able to drive ThermoGater with them. This module reads and writes
//! the simple CSV interchange format:
//!
//! ```text
//! # dt_us=1.0
//! block_0,block_1,...,block_N-1
//! 0.52,0.48,...,0.10
//! 0.55,0.47,...,0.11
//! ```
//!
//! One row per sample instant, one column per [`BlockId`](floorplan::BlockId) in floorplan
//! order, activities in `[0, 1]`.

use crate::mix::WorkloadSpec;
use crate::trace::ActivityTrace;
use crate::Benchmark;
use simkit::series::TraceMatrix;
use simkit::units::Seconds;
use simkit::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};

/// Writes a trace in the CSV interchange format.
///
/// Accepts any [`Write`]r by value; pass `&mut writer` to keep using the
/// writer afterwards.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when the underlying writer fails.
pub fn write_csv<W: Write>(trace: &ActivityTrace, mut writer: W) -> Result<()> {
    let io_err = |e: std::io::Error| Error::invalid_argument(format!("write failed: {e}"));
    writeln!(writer, "# dt_us={}", trace.dt().as_micros()).map_err(io_err)?;
    let n_blocks = trace.activity().channel_count();
    let header: Vec<String> = (0..n_blocks).map(|b| format!("block_{b}")).collect();
    writeln!(writer, "{}", header.join(",")).map_err(io_err)?;
    for s in 0..trace.sample_count() {
        let row: Vec<String> = (0..n_blocks)
            .map(|b| format!("{:.6}", trace.activity().channel(b)[s]))
            .collect();
        writeln!(writer, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

/// Reads a trace from the CSV interchange format.
///
/// Accepts any [`Read`]er by value; pass `&mut reader` to keep using the
/// reader afterwards. The trace is tagged with the given benchmark label
/// (external traces usually replace one of the suite's slots; use any
/// member of [`Benchmark::ALL`]).
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when the header is missing, the
/// sample interval is not positive, a row has the wrong number of
/// columns, or an activity is not a finite number in `[0, 1]`.
pub fn read_csv<R: Read>(reader: R, benchmark: Benchmark) -> Result<ActivityTrace> {
    let mut lines = BufReader::new(reader).lines();
    let io_err = |e: std::io::Error| Error::invalid_argument(format!("read failed: {e}"));

    // Metadata line: "# dt_us=<f64>".
    let meta = lines
        .next()
        .ok_or_else(|| Error::invalid_argument("empty trace file"))?
        .map_err(io_err)?;
    let dt_us: f64 = meta
        .strip_prefix("# dt_us=")
        .ok_or_else(|| Error::invalid_argument("missing '# dt_us=' metadata line"))?
        .trim()
        .parse()
        .map_err(|e| Error::invalid_argument(format!("bad dt_us: {e}")))?;
    if dt_us <= 0.0 || !dt_us.is_finite() {
        return Err(Error::invalid_argument("dt_us must be positive"));
    }

    // Header line defines the column count.
    let header = lines
        .next()
        .ok_or_else(|| Error::invalid_argument("missing header line"))?
        .map_err(io_err)?;
    let n_blocks = header.split(',').count();
    if n_blocks == 0 {
        return Err(Error::invalid_argument("header has no columns"));
    }

    let mut matrix = TraceMatrix::new(n_blocks, Seconds::from_micros(dt_us));
    let mut row = vec![0.0f64; n_blocks];
    for (line_no, line) in lines.enumerate() {
        let line = line.map_err(io_err)?;
        if line.trim().is_empty() {
            continue;
        }
        let mut count = 0;
        for (i, cell) in line.split(',').enumerate() {
            if i >= n_blocks {
                return Err(Error::invalid_argument(format!(
                    "row {} has more than {n_blocks} columns",
                    line_no + 3
                )));
            }
            let v: f64 = cell.trim().parse().map_err(|e| {
                Error::invalid_argument(format!("row {}: bad value: {e}", line_no + 3))
            })?;
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(Error::invalid_argument(format!(
                    "row {}: activity {v} outside [0, 1]",
                    line_no + 3
                )));
            }
            row[i] = v;
            count += 1;
        }
        if count != n_blocks {
            return Err(Error::invalid_argument(format!(
                "row {} has {count} columns, expected {n_blocks}",
                line_no + 3
            )));
        }
        matrix.push_column(&row)?;
    }
    if matrix.sample_count() == 0 {
        return Err(Error::invalid_argument("trace has no samples"));
    }
    Ok(ActivityTrace::from_parts(
        WorkloadSpec::Single(benchmark),
        matrix,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceGenerator;
    use floorplan::reference::power8_like;

    #[test]
    fn roundtrip_preserves_shape_and_values() {
        let chip = power8_like();
        let original =
            TraceGenerator::new(&chip).generate(Benchmark::Volrend, Seconds::from_micros(200.0));
        let mut buffer = Vec::new();
        write_csv(&original, &mut buffer).unwrap();
        let restored = read_csv(buffer.as_slice(), Benchmark::Volrend).unwrap();
        assert_eq!(
            restored.activity().channel_count(),
            original.activity().channel_count()
        );
        assert_eq!(restored.sample_count(), original.sample_count());
        assert!((restored.dt().as_micros() - original.dt().as_micros()).abs() < 1e-9);
        // Values survive to the written precision.
        for b in 0..original.activity().channel_count() {
            for s in 0..original.sample_count() {
                let a = original.activity().channel(b)[s];
                let r = restored.activity().channel(b)[s];
                assert!((a - r).abs() < 1e-6, "block {b} sample {s}");
            }
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        let no_meta = "block_0\n0.5\n";
        assert!(read_csv(no_meta.as_bytes(), Benchmark::Fft).is_err());

        let bad_dt = "# dt_us=-1\nblock_0\n0.5\n";
        assert!(read_csv(bad_dt.as_bytes(), Benchmark::Fft).is_err());

        let no_samples = "# dt_us=1\nblock_0\n";
        assert!(read_csv(no_samples.as_bytes(), Benchmark::Fft).is_err());

        let out_of_range = "# dt_us=1\nblock_0\n1.5\n";
        assert!(read_csv(out_of_range.as_bytes(), Benchmark::Fft).is_err());

        let ragged = "# dt_us=1\nblock_0,block_1\n0.5\n";
        assert!(read_csv(ragged.as_bytes(), Benchmark::Fft).is_err());

        let too_wide = "# dt_us=1\nblock_0\n0.5,0.6\n";
        assert!(read_csv(too_wide.as_bytes(), Benchmark::Fft).is_err());

        let not_a_number = "# dt_us=1\nblock_0\nabc\n";
        assert!(read_csv(not_a_number.as_bytes(), Benchmark::Fft).is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "# dt_us=2.5\nblock_0,block_1\n0.1,0.2\n\n0.3,0.4\n";
        let trace = read_csv(text.as_bytes(), Benchmark::Radix).unwrap();
        assert_eq!(trace.sample_count(), 2);
        assert_eq!(trace.activity().channel(1), &[0.2, 0.4]);
        assert!((trace.dt().as_micros() - 2.5).abs() < 1e-12);
        assert_eq!(trace.benchmark(), Benchmark::Radix);
    }
}

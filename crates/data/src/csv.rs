//! Minimal CSV persistence for datasets (features followed by a label
//! column). Hand-rolled because no CSV crate is in the sanctioned
//! dependency set; the format is the plain comma-separated layout the
//! UCI repository distributes.

use crate::dataset::Dataset;
use std::io::{BufRead, BufWriter, Write};

/// Error reading a dataset from CSV.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadCsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A field failed to parse as a number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// A row has a different number of columns than the first row.
    Ragged {
        /// 1-based line number.
        line: usize,
    },
    /// The file contains no data rows.
    Empty,
}

impl core::fmt::Display for ReadCsvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error reading csv: {e}"),
            Self::Parse { line, field } => {
                write!(f, "line {line}: cannot parse field {field:?} as a number")
            }
            Self::Ragged { line } => write!(f, "line {line}: inconsistent column count"),
            Self::Empty => write!(f, "csv contains no data rows"),
        }
    }
}

impl std::error::Error for ReadCsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadCsvError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes `dataset` as CSV: one row per sample, features then the
/// integer label, no header. Float features are written with enough
/// digits to round-trip exactly; a NaN reads back as the quiet NaN of
/// its sign.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use flint_data::{csv, synth::SynthSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ds = SynthSpec::new(10, 3, 2).generate();
/// let mut buf = Vec::new();
/// csv::write_csv(&ds, &mut buf)?;
/// let back = csv::read_csv(&buf[..], 2)?;
/// assert_eq!(back.n_samples(), 10);
/// # Ok(())
/// # }
/// ```
pub fn write_csv<W: Write>(dataset: &Dataset, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for (row, label) in dataset.iter() {
        for v in row {
            // {:?} prints the shortest representation that round-trips,
            // except for a sign-negative NaN, which it prints as `NaN`.
            // FLInt order keys send the two NaN signs opposite ways.
            if v.is_nan() && v.is_sign_negative() {
                w.write_all(b"-NaN,")?;
            } else {
                write!(w, "{v:?},")?;
            }
        }
        writeln!(w, "{label}")?;
    }
    w.flush()
}

/// Reads a dataset from CSV produced by [`write_csv`] (or any
/// headerless numeric CSV whose last column is the class label).
///
/// `n_classes` declares the label universe (labels must be
/// `< n_classes`); pass the true class count of the data.
///
/// # Errors
///
/// [`ReadCsvError`] on I/O failure, unparsable fields, ragged rows, an
/// empty file, or out-of-range labels (reported as
/// [`ReadCsvError::Parse`] on the label field).
pub fn read_csv<R: BufRead>(reader: R, n_classes: usize) -> Result<Dataset, ReadCsvError> {
    let mut rows: Vec<(Vec<f32>, u32)> = Vec::new();
    let mut n_features = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let nf = fields.len() - 1;
        match n_features {
            None => n_features = Some(nf),
            Some(want) if want != nf => return Err(ReadCsvError::Ragged { line: i + 1 }),
            _ => {}
        }
        let mut feats = Vec::with_capacity(nf);
        for field in &fields[..nf] {
            let v: f32 = field.trim().parse().map_err(|_| ReadCsvError::Parse {
                line: i + 1,
                field: (*field).to_owned(),
            })?;
            feats.push(v);
        }
        let label_text = fields[nf].trim();
        let label: u32 = label_text.parse().map_err(|_| ReadCsvError::Parse {
            line: i + 1,
            field: label_text.to_owned(),
        })?;
        if label as usize >= n_classes {
            return Err(ReadCsvError::Parse {
                line: i + 1,
                field: label_text.to_owned(),
            });
        }
        rows.push((feats, label));
    }
    let n_features = n_features.ok_or(ReadCsvError::Empty)?;
    Dataset::from_rows(n_features, n_classes, rows).map_err(|_| ReadCsvError::Empty)
    // unreachable: validated above
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;

    #[test]
    fn round_trip_exact_bits() {
        let ds = SynthSpec::new(50, 4, 3).seed(9).generate();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).expect("in-memory write");
        let back = read_csv(&buf[..], 3).expect("read back");
        assert_eq!(back.n_samples(), ds.n_samples());
        assert_eq!(back.n_features(), ds.n_features());
        for i in 0..ds.n_samples() {
            assert_eq!(back.label(i), ds.label(i));
            for (a, b) in back.sample(i).iter().zip(ds.sample(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "1.0,2.0,0\n1.0,oops,1\n";
        let err = read_csv(text.as_bytes(), 2).unwrap_err();
        match err {
            ReadCsvError::Parse { line, field } => {
                assert_eq!(line, 2);
                assert_eq!(field, "oops");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ragged_rows_detected() {
        let text = "1.0,2.0,0\n1.0,1\n";
        assert!(matches!(
            read_csv(text.as_bytes(), 2).unwrap_err(),
            ReadCsvError::Ragged { line: 2 }
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            read_csv("".as_bytes(), 2).unwrap_err(),
            ReadCsvError::Empty
        ));
        assert!(matches!(
            read_csv("\n\n".as_bytes(), 2).unwrap_err(),
            ReadCsvError::Empty
        ));
    }

    #[test]
    fn out_of_range_label_rejected() {
        let text = "1.0,5\n";
        assert!(matches!(
            read_csv(text.as_bytes(), 2).unwrap_err(),
            ReadCsvError::Parse { line: 1, .. }
        ));
    }

    #[test]
    fn whitespace_and_blank_lines_tolerated() {
        let text = " 1.5 , 2.5 , 1 \n\n -0.5 , 0.25 , 0 \n";
        let ds = read_csv(text.as_bytes(), 2).expect("parse");
        assert_eq!(ds.n_samples(), 2);
        assert_eq!(ds.sample(1), &[-0.5, 0.25]);
    }
}

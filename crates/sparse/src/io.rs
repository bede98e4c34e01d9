//! Matrix Market I/O (coordinate format).
//!
//! Supports `real`, `integer`, and `pattern` fields with `general` or
//! `symmetric` symmetry — the subset that covers the matrices a symmetric
//! direct solver consumes. Pattern entries get value `1.0`.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::error::SparseError;
use std::fmt::Write;
use std::fs;
use std::path::Path;

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only lower triangle stored; the rest is implied.
    Symmetric,
}

/// Value field declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    Pattern,
}

/// Parse a Matrix Market string into a [`CooMatrix`] plus its symmetry tag.
///
/// For `symmetric` files, the returned triplets are exactly the stored
/// (lower-triangle) entries — no mirroring is performed, matching the
/// solver's lower-CSC convention.
pub fn parse_matrix_market(text: &str) -> Result<(CooMatrix, MmSymmetry), SparseError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::BadMatrixMarket("empty input".into()))?;
    let htoks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if htoks.len() < 5 || htoks[0] != "%%matrixmarket" || htoks[1] != "matrix" {
        return Err(SparseError::BadMatrixMarket(format!(
            "bad header line: {header}"
        )));
    }
    if htoks[2] != "coordinate" {
        return Err(SparseError::BadMatrixMarket(format!(
            "unsupported format {} (only coordinate)",
            htoks[2]
        )));
    }
    let field = match htoks[3].as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => {
            return Err(SparseError::BadMatrixMarket(format!(
                "unsupported field {other}"
            )))
        }
    };
    let symmetry = match htoks[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => {
            return Err(SparseError::BadMatrixMarket(format!(
                "unsupported symmetry {other}"
            )))
        }
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line =
        size_line.ok_or_else(|| SparseError::BadMatrixMarket("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| SparseError::BadMatrixMarket(format!("bad size token {t}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(SparseError::BadMatrixMarket(format!(
            "size line must have 3 fields, got: {size_line}"
        )));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    // Reserve no more than the text can hold (an entry line takes at least
    // 4 bytes): a wrong count must end in the count error below, not in an
    // allocation the file never needed.
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz.min(text.len() / 4));
    let mut seen = 0usize;
    for line in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = t.split_whitespace().collect();
        let need = if field == MmField::Pattern { 2 } else { 3 };
        if toks.len() < need {
            return Err(SparseError::BadMatrixMarket(format!(
                "entry line too short: {t}"
            )));
        }
        let r: usize = toks[0]
            .parse()
            .map_err(|_| SparseError::BadMatrixMarket(format!("bad row index {}", toks[0])))?;
        let c: usize = toks[1]
            .parse()
            .map_err(|_| SparseError::BadMatrixMarket(format!("bad col index {}", toks[1])))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(SparseError::BadMatrixMarket(format!(
                "index ({r}, {c}) out of 1-based range {nrows}x{ncols}"
            )));
        }
        let v = match field {
            MmField::Pattern => 1.0,
            _ => toks[2]
                .parse::<f64>()
                .map_err(|_| SparseError::BadMatrixMarket(format!("bad value {}", toks[2])))?,
        };
        if symmetry == MmSymmetry::Symmetric && r < c {
            return Err(SparseError::BadMatrixMarket(format!(
                "symmetric file stores upper entry ({r}, {c})"
            )));
        }
        coo.push(r - 1, c - 1, v);
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::BadMatrixMarket(format!(
            "declared {nnz} entries but found {seen}"
        )));
    }
    Ok((coo, symmetry))
}

/// Read a symmetric Matrix Market file into symmetric-lower CSC form.
/// `general` files are accepted if square: the lower triangle is extracted.
pub fn read_sym_lower(path: &Path) -> Result<CscMatrix, SparseError> {
    let text = fs::read_to_string(path)?;
    parse_sym_lower(&text)
}

/// As [`read_sym_lower`], from an in-memory string.
///
/// An order above twice the entry count is [`SparseError::BadMatrixMarket`]:
/// every row and column of a nonsingular symmetric matrix holds an entry,
/// and one stored entry covers at most two of them, so such a matrix could
/// not be factored (and its column pointers alone would be sized by the
/// declared order, not by the text).
pub fn parse_sym_lower(text: &str) -> Result<CscMatrix, SparseError> {
    let (coo, sym) = parse_matrix_market(text)?;
    if coo.nrows() != coo.ncols() {
        return Err(SparseError::NotSquare {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
        });
    }
    if coo.nrows() > coo.nnz().saturating_mul(2) {
        return Err(SparseError::BadMatrixMarket(format!(
            "order {} is more than twice the {} stored entries: the matrix is singular",
            coo.nrows(),
            coo.nnz()
        )));
    }
    let csc = match sym {
        MmSymmetry::Symmetric => coo.to_csc(),
        MmSymmetry::General => coo.lower_triangle().to_csc(),
    };
    csc.check_sym_lower()?;
    Ok(csc)
}

/// Serialize a symmetric-lower CSC matrix as a `symmetric real` Matrix
/// Market string. Values are written in the shortest form that parses back
/// to the same bits.
pub fn write_sym_lower(a: &CscMatrix) -> String {
    let mut out = String::with_capacity(64 + a.nnz() * 16);
    out.push_str("%%MatrixMarket matrix coordinate real symmetric\n");
    let _ = writeln!(out, "{} {} {}", a.nrows(), a.ncols(), a.nnz());
    for c in 0..a.ncols() {
        let (rows, vals) = a.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            let _ = writeln!(out, "{} {} {v:e}", r + 1, c + 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn parse_symmetric_real() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 4.0\n\
                    2 1 -1.0\n\
                    2 2 4.0\n\
                    3 3 4.0\n";
        let a = parse_sym_lower(text).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.get(2, 2), Some(4.0));
    }

    #[test]
    fn parse_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    2 2 3\n1 1\n2 1\n2 2\n";
        let (coo, sym) = parse_matrix_market(text).unwrap();
        assert_eq!(sym, MmSymmetry::Symmetric);
        assert_eq!(coo.nnz(), 3);
        assert!(coo.iter().all(|(_, _, v)| v == 1.0));
    }

    #[test]
    fn parse_general_extracts_lower() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 4\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n2 2 2.0\n";
        let a = parse_sym_lower(text).unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(1, 0), Some(-1.0));
    }

    #[test]
    fn roundtrip_through_string() {
        let a = gen::laplace2d(4, 3, gen::Stencil2d::FivePoint);
        let text = write_sym_lower(&a);
        let b = parse_sym_lower(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_through_file() {
        let a = gen::random_spd(20, 3, 5);
        let dir = std::env::temp_dir();
        let path = dir.join("parfact_io_test.mtx");
        std::fs::write(&path, write_sym_lower(&a)).unwrap();
        let b = read_sym_lower(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_keeps_every_bit() {
        // Values that need all 17 significant digits, subnormals, both
        // zeros and the extremes.
        let vals = [
            0.1 + 0.2,
            1.0 / 3.0,
            std::f64::consts::PI,
            -2.0f64.sqrt(),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            -0.0,
            0.0,
            f64::MAX,
            -f64::MAX,
            f64::EPSILON,
            1e22,
            123456789012345680.0,
        ];
        let mut coo = CooMatrix::new(vals.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            coo.push(i, i, v);
            if i > 0 {
                coo.push(i, 0, -v);
            }
        }
        let a = coo.to_csc();
        let b = parse_sym_lower(&write_sym_lower(&a)).unwrap();
        assert_eq!(a.colptr(), b.colptr());
        assert_eq!(a.rowind(), b.rowind());
        let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn a_huge_declared_count_is_the_count_error() {
        // Neither count may reach the allocator: the reservation is capped
        // by the text, and the mismatch is the typed error.
        for nnz in ["2000000000000000000", "1000000000000000"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real symmetric\n1 1 {nnz}\n1 1 1.0\n");
            match parse_matrix_market(&text) {
                Err(SparseError::BadMatrixMarket(msg)) => {
                    assert_eq!(msg, format!("declared {nnz} entries but found 1"))
                }
                other => panic!("expected the count error, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_order_past_twice_the_entries_is_rejected_before_any_allocation() {
        let header = "%%MatrixMarket matrix coordinate real symmetric\n";
        for order in ["2000000000000000000", "1000000000000"] {
            let text = format!("{header}{order} {order} 0\n");
            match parse_sym_lower(&text) {
                Err(SparseError::BadMatrixMarket(msg)) => assert_eq!(
                    msg,
                    format!("order {order} is more than twice the 0 stored entries: the matrix is singular")
                ),
                other => panic!("expected the order error, got {other:?}"),
            }
        }
        // At the bound the matrix goes on to the structure checks, and the
        // empty matrix parses.
        assert!(matches!(
            parse_sym_lower(&format!("{header}2 2 1\n2 1 1.0\n")),
            Err(SparseError::MissingDiagonal { col: 0 })
        ));
        let empty = parse_sym_lower(&format!("{header}0 0 0\n")).unwrap();
        assert_eq!((empty.nrows(), empty.nnz()), (0, 0));
        assert!(matches!(
            parse_sym_lower(&format!("{header}3 3 1\n1 1 1.0\n")),
            Err(SparseError::BadMatrixMarket(_))
        ));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_matrix_market("%%NotMatrixMarket x y z w\n1 1 0\n").is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(matches!(
            parse_matrix_market(text),
            Err(SparseError::BadMatrixMarket(_))
        ));
    }

    #[test]
    fn rejects_upper_entry_in_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n";
        assert!(parse_matrix_market(text).is_err());
    }

    #[test]
    fn rejects_out_of_range_index() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(parse_matrix_market(text).is_err());
    }

    #[test]
    fn rejects_array_format() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(parse_matrix_market(text).is_err());
    }
}

//! Error taxonomy for the sparse substrate.

use std::fmt;

/// Errors produced while building, converting or reading sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Operation requires a square matrix.
    NotSquare { nrows: usize, ncols: usize },
    /// Operation requires a symmetric-lower matrix but an upper entry was found.
    NotLower { row: usize, col: usize },
    /// Symmetric-lower storage needs every diagonal entry stored; column
    /// `col` has none.
    MissingDiagonal { col: usize },
    /// Dimension mismatch between operands.
    DimMismatch { expected: usize, got: usize },
    /// Malformed Matrix Market input.
    BadMatrixMarket(String),
    /// Underlying I/O failure (message only, to keep the error `Clone + Eq`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "matrix must be square, got {nrows}x{ncols}")
            }
            SparseError::NotLower { row, col } => write!(
                f,
                "symmetric-lower storage violated by upper-triangle entry ({row}, {col})"
            ),
            SparseError::MissingDiagonal { col } => write!(
                f,
                "diagonal entry ({col}, {col}) is not stored; store it, as an explicit zero if need be"
            ),
            SparseError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SparseError::BadMatrixMarket(msg) => write!(f, "bad Matrix Market data: {msg}"),
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

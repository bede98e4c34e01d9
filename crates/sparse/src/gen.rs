//! Reproducible problem generators.
//!
//! The SC'09 evaluation ran on large structural-mechanics matrices (sheet
//! metal forming) and model PDE problems. Those industrial matrices are not
//! redistributable, so this module generates synthetic equivalents that
//! exercise the same solver behaviour (see DESIGN.md, "Substitutions"):
//!
//! - [`laplace2d`] / [`laplace3d`] — finite-difference Laplacians, the
//!   standard model problems for sparse direct-solver scaling studies;
//! - [`elasticity3d`] — a 3-D hexahedral-mesh, 3-dof-per-node, block-coupled
//!   SPD matrix shaped like a linear-elasticity stiffness matrix;
//! - [`random_spd`] — randomized diagonally-dominant SPD matrices.
//!
//! All generators return the solver's symmetric-lower CSC convention and are
//! deterministic (seeded where randomized).

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stencil choice for [`laplace2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stencil2d {
    /// 4-neighbor coupling, diagonal 4.
    FivePoint,
    /// 8-neighbor coupling, diagonal 8.
    NinePoint,
}

/// Stencil choice for [`laplace3d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stencil3d {
    /// 6-neighbor coupling, diagonal 6.
    SevenPoint,
    /// 26-neighbor coupling, diagonal 26.
    TwentySevenPoint,
}

/// Tridiagonal `[-1, 2, -1]` matrix of order `n` (1-D Laplacian).
// lint:allow(R7) user-facing generator: the 1-D model problem
pub fn tridiagonal(n: usize) -> CscMatrix {
    let mut a = CooMatrix::with_capacity(n, n, 2 * n);
    for i in 0..n {
        a.push(i, i, 2.0);
        if i + 1 < n {
            a.push(i + 1, i, -1.0);
        }
    }
    a.to_csc()
}

/// Arrowhead matrix: dense first row/column plus diagonal. A classic
/// ordering stress test — eliminating the hub first causes total fill,
/// eliminating it last causes none.
// lint:allow(R7) user-facing generator: the all-or-nothing fill stress case for orderings
pub fn arrowhead(n: usize) -> CscMatrix {
    let mut a = CooMatrix::with_capacity(n, n, 2 * n);
    a.push(0, 0, n as f64);
    for i in 1..n {
        a.push(i, i, 4.0);
        a.push(i, 0, -1.0);
    }
    a.to_csc()
}

/// 2-D grid Laplacian on an `nx x ny` grid, symmetric-lower CSC.
/// SPD (strictly diagonally dominant at the boundary).
pub fn laplace2d(nx: usize, ny: usize, stencil: Stencil2d) -> CscMatrix {
    assert!(nx > 0 && ny > 0);
    let n = nx * ny;
    let id = |x: usize, y: usize| -> usize { x + nx * y };
    let (diag, offsets): (f64, &[(isize, isize)]) = match stencil {
        Stencil2d::FivePoint => (4.0, &[(-1, 0), (0, -1)]),
        Stencil2d::NinePoint => (8.0, &[(-1, 0), (0, -1), (-1, -1), (1, -1)]),
    };
    let mut a = CooMatrix::with_capacity(n, n, n * (1 + offsets.len()));
    for y in 0..ny {
        for x in 0..nx {
            let v = id(x, y);
            a.push(v, v, diag);
            for &(dx, dy) in offsets {
                let (ux, uy) = (x as isize + dx, y as isize + dy);
                if ux >= 0 && uy >= 0 && (ux as usize) < nx && (uy as usize) < ny {
                    let u = id(ux as usize, uy as usize);
                    // Offsets chosen so u < v; store at (v, u) = lower.
                    a.push(v.max(u), v.min(u), -1.0);
                }
            }
        }
    }
    a.to_csc()
}

/// 3-D grid Laplacian on an `nx x ny x nz` grid, symmetric-lower CSC.
pub fn laplace3d(nx: usize, ny: usize, nz: usize, stencil: Stencil3d) -> CscMatrix {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let n = nx * ny * nz;
    let id = |x: usize, y: usize, z: usize| -> usize { x + nx * (y + ny * z) };
    let mut offsets: Vec<(isize, isize, isize)> = Vec::new();
    match stencil {
        Stencil3d::SevenPoint => {
            offsets.extend_from_slice(&[(-1, 0, 0), (0, -1, 0), (0, 0, -1)]);
        }
        Stencil3d::TwentySevenPoint => {
            // All 13 "lexicographically negative" neighbors of the 27-point
            // stencil (so each undirected pair is generated exactly once).
            for dz in -1isize..=1 {
                for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        if (dz, dy, dx) < (0, 0, 0) {
                            offsets.push((dx, dy, dz));
                        }
                    }
                }
            }
        }
    }
    let diag = match stencil {
        Stencil3d::SevenPoint => 6.0,
        Stencil3d::TwentySevenPoint => 26.0,
    };
    let mut a = CooMatrix::with_capacity(n, n, n * (1 + offsets.len()));
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = id(x, y, z);
                a.push(v, v, diag);
                for &(dx, dy, dz) in &offsets {
                    let (ux, uy, uz) = (x as isize + dx, y as isize + dy, z as isize + dz);
                    if ux >= 0
                        && uy >= 0
                        && uz >= 0
                        && (ux as usize) < nx
                        && (uy as usize) < ny
                        && (uz as usize) < nz
                    {
                        let u = id(ux as usize, uy as usize, uz as usize);
                        a.push(v.max(u), v.min(u), -1.0);
                    }
                }
            }
        }
    }
    a.to_csc()
}

/// 3-D elasticity-style matrix: `nx x ny x nz` nodes, **3 dof per node**,
/// 27-point node connectivity, 3x3 coupling blocks
/// `-(w0 I + w1 d dᵀ/|d|²)` along the node-offset direction `d`, and a
/// compensating block-diagonal that keeps the matrix strictly block
/// diagonally dominant (hence SPD).
///
/// This mimics the structure that makes structural-mechanics matrices
/// interesting to a supernodal solver: multiple dof per node give dense
/// 3x3 blocks and rich supernodes, and the 3-D connectivity gives the
/// `O(n^{4/3})` factor growth of 3-D problems. Order is `3 * nx * ny * nz`.
pub fn elasticity3d(nx: usize, ny: usize, nz: usize) -> CscMatrix {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let nnode = nx * ny * nz;
    let n = 3 * nnode;
    let id = |x: usize, y: usize, z: usize| -> usize { x + nx * (y + ny * z) };
    let (w0, w1) = (1.0, 2.0);
    // Per-node running diagonal block (symmetric 3x3, lower storage).
    let mut diag = vec![[0.0f64; 6]; nnode]; // [d00,d10,d11,d20,d21,d22]
    let mut a = CooMatrix::with_capacity(n, n, 14 * 9 * nnode + 6 * nnode);

    let mut couple = |vnode: usize, unode: usize, d: [f64; 3], coo: &mut CooMatrix| {
        // Block B = w0 I + w1 (d d^T)/|d|^2 ; off-diagonal contribution is -B.
        let norm2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let mut b = [[0.0f64; 3]; 3];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, bij) in bi.iter_mut().enumerate() {
                *bij = w1 * d[i] * d[j] / norm2;
                if i == j {
                    *bij += w0;
                }
            }
        }
        // Off-diagonal block at (vnode, unode), vnode > unode: all 9 entries
        // are in the lower triangle because 3*vnode >= 3*unode + 3.
        for (i, bi) in b.iter().enumerate() {
            for (j, &bij) in bi.iter().enumerate() {
                coo.push(3 * vnode + i, 3 * unode + j, -bij);
            }
        }
        // Accumulate +B (+ a multiple of I for strictness) into both nodes'
        // diagonal blocks; B is symmetric so lower storage suffices.
        for node in [vnode, unode] {
            let dd = &mut diag[node];
            dd[0] += b[0][0];
            dd[1] += b[1][0];
            dd[2] += b[1][1];
            dd[3] += b[2][0];
            dd[4] += b[2][1];
            dd[5] += b[2][2];
        }
    };

    // The 13 lexicographically-negative neighbor offsets (27-pt connectivity).
    let mut offsets: Vec<(isize, isize, isize)> = Vec::new();
    for dz in -1isize..=1 {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if (dz, dy, dx) < (0, 0, 0) {
                    offsets.push((dx, dy, dz));
                }
            }
        }
    }
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = id(x, y, z);
                for &(dx, dy, dz) in &offsets {
                    let (ux, uy, uz) = (x as isize + dx, y as isize + dy, z as isize + dz);
                    if ux >= 0
                        && uy >= 0
                        && uz >= 0
                        && (ux as usize) < nx
                        && (uy as usize) < ny
                        && (uz as usize) < nz
                    {
                        let u = id(ux as usize, uy as usize, uz as usize);
                        couple(v, u, [dx as f64, dy as f64, dz as f64], &mut a);
                    }
                }
            }
        }
    }
    // Emit diagonal blocks with a +I safety margin for strict dominance.
    for node in 0..nnode {
        let d = &diag[node];
        let base = 3 * node;
        a.push(base, base, d[0] + 1.0);
        a.push(base + 1, base, d[1]);
        a.push(base + 1, base + 1, d[2] + 1.0);
        a.push(base + 2, base, d[3]);
        a.push(base + 2, base + 1, d[4]);
        a.push(base + 2, base + 2, d[5] + 1.0);
    }
    a.to_csc()
}

/// Anisotropic 2-D Laplacian: 5-point stencil with coupling `-1` in x and
/// `-eps` in y (diagonal `2 + 2 eps`). Strong anisotropy stretches the
/// graph's geometry and stresses partitioners/orderings — separators want
/// to cut the weak direction.
// lint:allow(R7) user-facing generator: the anisotropic model problem
pub fn laplace2d_aniso(nx: usize, ny: usize, eps: f64) -> CscMatrix {
    assert!(nx > 0 && ny > 0);
    assert!(eps > 0.0);
    let n = nx * ny;
    let id = |x: usize, y: usize| -> usize { x + nx * y };
    let mut a = CooMatrix::with_capacity(n, n, 3 * n);
    for y in 0..ny {
        for x in 0..nx {
            let v = id(x, y);
            a.push(v, v, 2.0 + 2.0 * eps);
            if x > 0 {
                a.push(v, id(x - 1, y), -1.0);
            }
            if y > 0 {
                a.push(v, id(x, y - 1), -eps);
            }
        }
    }
    a.to_csc()
}

/// Shifted Laplacian `A - shift·I` on a 2-D grid — a Helmholtz-style
/// symmetric **indefinite** model problem. For `0 < shift < 8` (interior
/// eigenvalues of the 5-point stencil lie in `(0, 8)`), some eigenvalues
/// go negative: the classic stress test for indefinite factorizations.
// lint:allow(R7) user-facing generator: the symmetric indefinite model problem
pub fn helmholtz2d(nx: usize, ny: usize, shift: f64) -> CscMatrix {
    let mut a = laplace2d(nx, ny, Stencil2d::FivePoint);
    let colptr = a.colptr().to_vec();
    let vals = a.values_mut();
    for (c, &lo) in colptr[..colptr.len() - 1].iter().enumerate() {
        let _ = c;
        vals[lo] -= shift; // diagonal is the first entry of each column
    }
    a
}

/// Random strictly diagonally dominant SPD matrix of order `n` with roughly
/// `k` off-diagonal entries per row, seeded and reproducible.
pub fn random_spd(n: usize, k: usize, seed: u64) -> CscMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (k + 1));
    for i in 0..n {
        coo.push(i, i, 0.0); // placeholder, fixed below
        if i == 0 {
            continue;
        }
        for _ in 0..k.min(i) {
            let j = rng.gen_range(0..i);
            let v = rng.gen_range(-1.0..1.0);
            coo.push(i, j, v);
        }
    }
    let mut a = coo.to_csc();
    // diag[i] = 1 + sum of |offdiag| in row i and column i.
    let mut rowsum = vec![0.0f64; n];
    for c in 0..n {
        let (rows, vals) = a.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            if r != c {
                rowsum[r] += v.abs();
                rowsum[c] += v.abs();
            }
        }
    }
    // The diagonal entry is always the first entry of its column here.
    let colptr = a.colptr().to_vec();
    let vals = a.values_mut();
    for (c, &lo) in colptr[..n].iter().enumerate() {
        vals[lo] = rowsum[c] + 1.0;
    }
    a
}

/// A symmetric matrix that is **not** positive definite (one negative
/// eigenvalue introduced by a large negative diagonal entry). Used for
/// failure-injection tests: Cholesky must reject it, LDLᵀ must handle it.
// lint:allow(R7) user-facing generator: a seeded matrix no LLᵀ engine may accept
pub fn indefinite(n: usize, seed: u64) -> CscMatrix {
    let mut a = random_spd(n, 3, seed);
    let colptr = a.colptr().to_vec();
    let vals = a.values_mut();
    let c = n / 2;
    vals[colptr[c]] = -5.0; // break positive definiteness
    a
}

/// Build a generator problem from a compact textual spec — the shared
/// `--gen` syntax of the command-line tools:
///
/// - `lap2d:NX[xNY]` — 2-D five-point Laplacian (`NY` defaults to `NX`)
/// - `lap3d:NX[xNYxNZ]` — 3-D seven-point Laplacian (cube by default)
/// - `elast3d:NX[xNYxNZ]` — 3-D elasticity-like block SPD matrix
///
/// Returns a descriptive error for anything else.
pub fn by_spec(spec: &str) -> Result<CscMatrix, String> {
    let (kind, dims) = spec
        .split_once(':')
        .ok_or_else(|| format!("generator spec '{spec}' must look like lap3d:12 or lap2d:40x30"))?;
    let parts: Result<Vec<usize>, _> = dims.split('x').map(str::parse::<usize>).collect();
    let parts = parts.map_err(|_| format!("bad dimensions in generator spec '{spec}'"))?;
    if parts.is_empty() || parts.contains(&0) {
        return Err(format!("generator spec '{spec}' needs positive dimensions"));
    }
    let dim = |i: usize| parts.get(i).copied().unwrap_or(parts[0]);
    match (kind, parts.len()) {
        ("lap2d", 1 | 2) => Ok(laplace2d(dim(0), dim(1), Stencil2d::FivePoint)),
        ("lap3d", 1 | 3) => Ok(laplace3d(dim(0), dim(1), dim(2), Stencil3d::SevenPoint)),
        ("elast3d", 1 | 3) => Ok(elasticity3d(dim(0), dim(1), dim(2))),
        ("lap2d" | "lap3d" | "elast3d", _) => {
            Err(format!("wrong number of dimensions in '{spec}'"))
        }
        _ => Err(format!(
            "unknown generator '{kind}' (expected lap2d, lap3d, or elast3d)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn tridiagonal_structure() {
        let a = tridiagonal(5);
        a.check_sym_lower().unwrap();
        assert_eq!(a.nnz(), 9);
        assert_eq!(a.get(2, 2), Some(2.0));
        assert_eq!(a.get(3, 2), Some(-1.0));
    }

    #[test]
    fn laplace2d_five_point() {
        let a = laplace2d(3, 3, Stencil2d::FivePoint);
        a.check_sym_lower().unwrap();
        assert_eq!(a.nrows(), 9);
        // Interior node 4 couples to 1, 3 (below in index) in lower triangle.
        assert_eq!(a.get(4, 1), Some(-1.0));
        assert_eq!(a.get(4, 3), Some(-1.0));
        assert_eq!(a.get(4, 4), Some(4.0));
        // nnz = 9 diag + 12 edges.
        assert_eq!(a.nnz(), 21);
    }

    #[test]
    fn laplace2d_nine_point_connectivity() {
        let a = laplace2d(3, 3, Stencil2d::NinePoint);
        a.check_sym_lower().unwrap();
        // Center node 4 has all 8 neighbors; check a diagonal coupling.
        assert_eq!(a.get(4, 0), Some(-1.0));
        assert_eq!(a.get(8, 4), Some(-1.0));
    }

    #[test]
    fn laplace3d_seven_point() {
        let a = laplace3d(3, 3, 3, Stencil3d::SevenPoint);
        a.check_sym_lower().unwrap();
        assert_eq!(a.nrows(), 27);
        // 27 diag + 3 * (2*3*3) edges = 27 + 54.
        assert_eq!(a.nnz(), 81);
        // Center of the cube (1,1,1) = 13 couples to (1,1,0) = 4.
        assert_eq!(a.get(13, 4), Some(-1.0));
    }

    #[test]
    fn laplace3d_27_point_diag() {
        let a = laplace3d(3, 3, 3, Stencil3d::TwentySevenPoint);
        a.check_sym_lower().unwrap();
        assert_eq!(a.get(13, 13), Some(26.0));
        // Corner-corner coupling exists: (0,0,0)=0 with (1,1,1)=13.
        assert_eq!(a.get(13, 0), Some(-1.0));
    }

    #[test]
    fn laplacians_are_spd_via_cg() {
        let a = laplace2d(6, 5, Stencil2d::FivePoint);
        let b = vec![1.0; a.nrows()];
        assert!(ops::cg(&a, &b, 1e-10, 500).is_some());
    }

    #[test]
    fn elasticity_shape_and_spd() {
        let a = elasticity3d(3, 3, 2);
        a.check_sym_lower().unwrap();
        assert_eq!(a.nrows(), 3 * 18);
        // SPD check: CG converges.
        let b = vec![1.0; a.nrows()];
        assert!(ops::cg(&a, &b, 1e-10, 2000).is_some());
    }

    #[test]
    fn elasticity_has_dense_node_blocks() {
        let a = elasticity3d(2, 2, 2);
        // Off-diagonal 3x3 block between node 1 and node 0 is full:
        // entries (3..6) x (0..3) all present.
        for i in 3..6 {
            for j in 0..3 {
                assert!(a.get(i, j).is_some(), "missing block entry ({i}, {j})");
            }
        }
    }

    #[test]
    fn random_spd_is_dominant_and_deterministic() {
        let a = random_spd(50, 4, 123);
        let b = random_spd(50, 4, 123);
        assert_eq!(a, b);
        a.check_sym_lower().unwrap();
        // Strict diagonal dominance by construction.
        let n = a.nrows();
        let mut offsum = vec![0.0f64; n];
        for c in 0..n {
            let (rows, vals) = a.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                if r != c {
                    offsum[r] += v.abs();
                    offsum[c] += v.abs();
                }
            }
        }
        for c in 0..n {
            assert!(a.get(c, c).unwrap() > offsum[c]);
        }
    }

    #[test]
    fn indefinite_matrix_is_not_spd() {
        let a = indefinite(10, 7);
        // CG on an indefinite matrix is not guaranteed to converge; check the
        // broken diagonal directly.
        assert_eq!(a.get(5, 5), Some(-5.0));
    }

    #[test]
    fn aniso_laplacian_structure() {
        let a = laplace2d_aniso(4, 3, 0.01);
        a.check_sym_lower().unwrap();
        assert!((a.get(0, 0).unwrap() - 2.02).abs() < 1e-15);
        assert_eq!(a.get(1, 0), Some(-1.0)); // x coupling
        assert_eq!(a.get(4, 0), Some(-0.01)); // y coupling
                                              // Still SPD (diagonally dominant up to boundary).
        assert!(ops::cg(&a, &[1.0; 12], 1e-10, 500).is_some());
    }

    #[test]
    fn helmholtz_is_indefinite_for_interior_shift() {
        let a = helmholtz2d(10, 10, 4.0);
        a.check_sym_lower().unwrap();
        assert_eq!(a.get(0, 0), Some(0.0)); // 4 - 4
                                            // The smallest 2-D Laplacian eigenvalue on a 10x10 grid is about
                                            // 2 (2 - 2 cos(pi/11)) ≈ 0.16 << 4, so A - 4I has negative
                                            // eigenvalues: x^T A x < 0 for the lowest mode.
        let n = a.nrows();
        let mode: Vec<f64> = (0..n)
            .map(|v| {
                let (x, y) = (v % 10, v / 10);
                ((x + 1) as f64 * std::f64::consts::PI / 11.0).sin()
                    * ((y + 1) as f64 * std::f64::consts::PI / 11.0).sin()
            })
            .collect();
        let mut ax = vec![0.0; n];
        a.sym_spmv(&mode, &mut ax);
        let rayleigh = ops::dot(&mode, &ax) / ops::dot(&mode, &mode);
        assert!(rayleigh < 0.0, "lowest mode must be negative: {rayleigh}");
    }

    #[test]
    fn by_spec_parses_and_rejects() {
        assert_eq!(
            by_spec("lap2d:7").unwrap(),
            laplace2d(7, 7, Stencil2d::FivePoint)
        );
        assert_eq!(
            by_spec("lap2d:7x5").unwrap(),
            laplace2d(7, 5, Stencil2d::FivePoint)
        );
        assert_eq!(
            by_spec("lap3d:4x3x2").unwrap(),
            laplace3d(4, 3, 2, Stencil3d::SevenPoint)
        );
        assert_eq!(by_spec("elast3d:3").unwrap(), elasticity3d(3, 3, 3));
        for bad in [
            "lap3d",
            "lap3d:",
            "lap3d:0",
            "lap3d:4x3",
            "heat:5",
            "lap2d:axb",
        ] {
            assert!(by_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn arrowhead_structure() {
        let a = arrowhead(6);
        a.check_sym_lower().unwrap();
        assert_eq!(a.nnz(), 11);
        assert_eq!(a.get(5, 0), Some(-1.0));
    }
}

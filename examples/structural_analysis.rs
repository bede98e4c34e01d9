//! A structural-mechanics-shaped workload: factor a 3-D elasticity-style
//! stiffness matrix with the shared-memory parallel engine, then reuse the
//! symbolic analysis across "load steps" (refactorization with new values —
//! the pattern sheet-metal-forming simulations hammer on).
//!
//! ```text
//! cargo run --release --example structural_analysis [nx] [ny] [nz]
//! ```

use parfact::core::smp::SmpOpts;
use parfact::core::solver::{Engine, FactorOpts, RhsBlock, SolveEngine, SolveOpts, SparseCholesky};
use parfact::sparse::{gen, ops};
use std::time::Instant;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("grid dims must be integers"))
        .collect();
    let (nx, ny, nz) = match args.as_slice() {
        [x, y, z] => (*x, *y, *z),
        [] => (14, 14, 14),
        _ => panic!("usage: structural_analysis [nx ny nz]"),
    };

    // 3 degrees of freedom per node, 27-point connectivity: the structure
    // that makes supernodal solvers shine on mechanics problems.
    let a = gen::elasticity3d(nx, ny, nz);
    println!(
        "elasticity mesh {nx}x{ny}x{nz}: n = {} dof, nnz(lower) = {}",
        a.nrows(),
        a.nnz()
    );

    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let opts = FactorOpts::new().engine(Engine::Smp(SmpOpts { threads }));
    let t0 = Instant::now();
    let mut chol = SparseCholesky::factorize(&a, &opts).expect("stiffness matrix must be SPD");
    println!(
        "factor ({} threads): {:.0} ms  |  nnz(L) = {}, {:.2} Gflop",
        threads,
        t0.elapsed().as_secs_f64() * 1e3,
        chol.factor_nnz(),
        chol.factor_flops() / 1e9
    );

    // Static load: uniform gravity-ish right-hand side. Solve with one
    // refinement step on the tree-parallel engine.
    let b = vec![-9.81; a.nrows()];
    let solve_opts = SolveOpts::new()
        .refine(1)
        .engine(SolveEngine::Smp { threads });
    let out = chol
        .solve_with(RhsBlock::single(&b), &solve_opts)
        .expect("solve");
    println!(
        "solve + 1 refinement: residual = {:.3e}, max displacement = {:.4}",
        out.residual.unwrap(),
        out.x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    );

    // Load stepping: same sparsity, stiffening material each step.
    let mut a_step = a.clone();
    for step in 1..=3 {
        for v in a_step.values_mut() {
            *v *= 1.15;
        }
        let t = Instant::now();
        chol.refactorize(&a_step, Engine::Smp(SmpOpts { threads }))
            .expect("refactorization");
        let x = chol.solve(&b);
        println!(
            "load step {step}: refactor {:.0} ms (symbolic reused), residual {:.3e}",
            t.elapsed().as_secs_f64() * 1e3,
            ops::sym_residual_inf(&a_step, &x, &b)
        );
    }
    println!("ok");
}

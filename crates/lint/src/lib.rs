//! `parfact-lint` — determinism & protocol static analysis for this
//! workspace.
//!
//! Every engine in this repo carries a bitwise-determinism contract
//! (seq ≡ smp ≡ dist, traced ≡ untraced, recovered ≡ fault-free). The
//! parity tests enforce it dynamically; this crate enforces the code
//! shapes that *break* it statically, at CI time, before any schedule
//! executes. See [`rules`] for the rule catalogue (R1–R7) and the
//! `lint:allow` pragma convention, [`lex`] for the comment/string-aware
//! line lexer, and [`report`] for the JSON report format.
//!
//! Zero external dependencies (the JSON writer is
//! `parfact_trace::json`, the same hand-rolled layer the solver reports
//! use). Run it with:
//!
//! ```text
//! cargo run -p parfact-lint -- --deny-all
//! ```

pub mod lex;
pub mod report;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use report::Report;
pub use rules::{lint_text, FileReport, Finding, Suppressed, RULES};

/// Lint every workspace `.rs` file under `root`: the per-file rules,
/// then R7 over the whole tree.
pub fn lint_tree(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for (rel, abs) in walk::workspace_files(root)? {
        files.push((rel, std::fs::read_to_string(&abs)?));
    }
    Ok(Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        files: rules::lint_files(&files)
            .into_iter()
            .filter(|fr| !fr.findings.is_empty() || !fr.suppressed.is_empty())
            .collect(),
    })
}

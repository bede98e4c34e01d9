//! The determinism & protocol rules, and the `lint:allow` pragma layer.
//!
//! Each rule is a line-level pattern matcher over the lexed code view (see
//! [`crate::lex`]); comments and string contents can never fire a rule.
//! Every rule is grounded in a concrete hazard for this codebase's
//! bitwise-determinism contract (seq ≡ smp ≡ dist, traced ≡ untraced,
//! recovered ≡ fault-free):
//!
//! * **R1 `host-clock`** — `Instant::now`/`SystemTime` outside the bench
//!   crate. Virtual-time code in `mpsim`/`dist` must never read wall
//!   time; the trace-collector epoch and the solver's phase timers are
//!   legitimate and carry `lint:allow(R1)` pragmas.
//! * **R2 `unordered-iter`** — iteration over `HashMap`/`HashSet`.
//!   Iteration order is seeded per-process, so any numeric accumulation
//!   or message emission driven by it differs run to run. Keyed access
//!   (`get`/`entry`/`remove`) is fine and never flagged. The sorted-drain
//!   idiom — collect into a `Vec` and `.sort*` it within two lines — is
//!   recognized and stays quiet; `BTreeMap` is the other compliant fix.
//! * **R3 `undocumented-unsafe`** — every `unsafe` must carry a
//!   `// SAFETY:` (or `/// # Safety`) justification within the five
//!   preceding lines or on the same line.
//! * **R4 `fma-contraction`** — no `mul_add`/FMA intrinsics or
//!   `f*_fast` intrinsics in `crates/dense`/`crates/core`. The per-entry
//!   determinism contract (see `parfact_dense::pack`) requires separate
//!   multiply-then-add so AVX and portable paths round identically.
//! * **R5 `raw-message-tag`** — in `crates/core/src/`, the tag argument
//!   of any mpsim message primitive must route through the centralized
//!   namespace (`dist::front::tag`) or a named `*_tag` helper/`TAG_*`
//!   constant — never a raw integer literal or bare `as u64` cast.
//! * **R6 `entropy-rng`** — no `thread_rng`/`from_entropy`/`OsRng`/
//!   `rand::random`: every RNG must be seeded from the input so repeated
//!   runs are reproducible.
//! * **R7 `test-only-item`** — a `pub`/`pub(crate)` `fn` whose name
//!   appears on no other non-test line of the workspace: code that only
//!   tests call either earns a production caller or is deleted. Test code
//!   is every file under a `tests/` directory, every `#[cfg(test)]` item
//!   (up to its closing brace or `;`, the rule `scripts/loc.sh` counts
//!   by), comments and doc examples; examples, binaries and the benchmark
//!   are callers. Unlike R1–R6 it needs the whole tree, so it runs in
//!   [`crate::lint_tree`] after the per-file rules.
//!
//! Suppression: `// lint:allow(R1) <reason>` on the offending line, or on
//! a comment line directly above it, moves the finding to the report's
//! `suppressed` list (the reason is the audit trail). A pragma without a
//! reason, or naming an unknown rule, is itself a finding (**P0**).

use crate::lex::{is_ident, lex, FileView};
use std::collections::BTreeMap;

/// `(id, short name)` for every rule, in report order.
pub const RULES: &[(&str, &str)] = &[
    ("R1", "host-clock"),
    ("R2", "unordered-iter"),
    ("R3", "undocumented-unsafe"),
    ("R4", "fma-contraction"),
    ("R5", "raw-message-tag"),
    ("R6", "entropy-rng"),
    ("R7", "test-only-item"),
    ("P0", "bad-pragma"),
];

/// Short name for a rule id.
pub fn rule_name(id: &str) -> &'static str {
    RULES
        .iter()
        .find(|(rid, _)| *rid == id)
        .map(|(_, n)| *n)
        .unwrap_or("unknown")
}

/// One violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule id (`R1`…`R7`, `P0`).
    pub rule: &'static str,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

/// A finding silenced by a `lint:allow` pragma, with its recorded reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Suppressed {
    pub finding: Finding,
    pub reason: String,
}

/// Lint results for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
}

/// A parsed `lint:allow(<rules>) reason` pragma.
struct Pragma {
    /// 0-based line the pragma comment sits on.
    line: usize,
    /// 0-based line of code the pragma applies to.
    target: usize,
    rules: Vec<String>,
    reason: String,
}

/// Lint one file's source text with the per-file rules (R1–R6).
/// `relpath` is the workspace-relative path (`/`-separated); it selects
/// which path-scoped rules apply.
pub fn lint_text(relpath: &str, text: &str) -> FileReport {
    let view = lex(text);
    let (pragmas, raw) = file_findings(relpath, &view);
    partition(relpath, &pragmas, raw)
}

/// Lint a whole tree, given as `(workspace-relative path, source text)`
/// per file: the per-file rules on each file, then R7 over all of them.
/// One report per file, in the order given.
pub(crate) fn lint_files(files: &[(String, String)]) -> Vec<FileReport> {
    let views: Vec<FileView> = files.iter().map(|(_, text)| lex(text)).collect();
    let mut raw: Vec<(Vec<Pragma>, Vec<Finding>)> = files
        .iter()
        .zip(&views)
        .map(|((rel, _), view)| file_findings(rel, view))
        .collect();
    let paths: Vec<&str> = files.iter().map(|(rel, _)| rel.as_str()).collect();
    for (file, finding) in rule_r7(&paths, &views) {
        raw[file].1.push(finding);
    }
    paths
        .iter()
        .zip(raw)
        .map(|(rel, (pragmas, found))| partition(rel, &pragmas, found))
        .collect()
}

/// The file's pragmas, and the findings of its malformed pragmas and of
/// the per-file rules.
fn file_findings(relpath: &str, view: &FileView) -> (Vec<Pragma>, Vec<Finding>) {
    let (pragmas, mut raw) = collect_pragmas(view);
    rule_r1(relpath, view, &mut raw);
    rule_r2(view, &mut raw);
    rule_r3(view, &mut raw);
    rule_r4(relpath, view, &mut raw);
    rule_r5(relpath, view, &mut raw);
    rule_r6(view, &mut raw);
    (pragmas, raw)
}

/// Split one file's findings into those a pragma silences and the rest.
fn partition(relpath: &str, pragmas: &[Pragma], raw: Vec<Finding>) -> FileReport {
    let mut report = FileReport {
        path: relpath.to_string(),
        ..Default::default()
    };
    for f in raw {
        let hit = pragmas.iter().find(|p| {
            (p.target == f.line - 1 || p.line == f.line - 1) && p.rules.iter().any(|r| r == f.rule)
        });
        match hit {
            Some(p) => report.suppressed.push(Suppressed {
                finding: f,
                reason: p.reason.clone(),
            }),
            None => report.findings.push(f),
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (a.finding.line, a.finding.rule).cmp(&(b.finding.line, b.finding.rule)));
    report
}

/// Parse every `lint:allow(...)` pragma; malformed ones become P0
/// findings.
fn collect_pragmas(view: &FileView) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for (i, comment) in view.plain_comments.iter().enumerate() {
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            let after = &rest[pos + "lint:allow(".len()..];
            let Some(close) = after.find(')') else {
                findings.push(Finding {
                    rule: "P0",
                    line: i + 1,
                    message: "unclosed lint:allow pragma".to_string(),
                });
                break;
            };
            let rules: Vec<String> = after[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let reason = after[close + 1..].trim().to_string();
            let bad: Vec<&String> = rules
                .iter()
                .filter(|r| !RULES.iter().any(|(id, _)| id == r) || *r == "P0")
                .collect();
            if rules.is_empty() || !bad.is_empty() {
                findings.push(Finding {
                    rule: "P0",
                    line: i + 1,
                    message: format!(
                        "lint:allow pragma names no valid rule (got `{}`)",
                        after[..close].trim()
                    ),
                });
            } else if reason.is_empty() {
                findings.push(Finding {
                    rule: "P0",
                    line: i + 1,
                    message: "lint:allow pragma without a reason — the reason is the audit trail"
                        .to_string(),
                });
            } else {
                // Target: this line if it carries code, else the next
                // line that does.
                let target = if view.has_code(i) {
                    i
                } else {
                    (i + 1..view.nlines())
                        .find(|&j| view.has_code(j))
                        .unwrap_or(i)
                };
                pragmas.push(Pragma {
                    line: i,
                    target,
                    rules,
                    reason,
                });
            }
            rest = &after[close + 1..];
        }
    }
    (pragmas, findings)
}

/// True when `needle` occurs in `hay` delimited by non-identifier chars.
fn has_token(hay: &str, needle: &str) -> bool {
    token_pos(hay, needle, 0).is_some()
}

/// Find `needle` at or after `from`, delimited by non-identifier chars.
fn token_pos(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut start = from;
    while let Some(rel) = hay.get(start..).and_then(|h| h.find(needle)) {
        let pos = start + rel;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1] as char);
        let after = pos + needle.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after] as char);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

// ---------------------------------------------------------------- R1

fn rule_r1(relpath: &str, view: &FileView, out: &mut Vec<Finding>) {
    // Bench binaries and examples measure wall time by design.
    if relpath.starts_with("crates/bench/") || relpath.starts_with("examples/") {
        return;
    }
    for (i, line) in view.code.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime"] {
            if line.contains(pat) {
                out.push(Finding {
                    rule: "R1",
                    line: i + 1,
                    message: format!(
                        "host clock read (`{pat}`): virtual-time code must not read wall time; \
                         legitimate timers need `// lint:allow(R1) <reason>`"
                    ),
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- R2

/// Iterator-producing methods whose order is the map's internal order.
const ITER_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "into_keys()",
    "into_values()",
    "into_iter()",
    "drain(",
    "retain(",
];

fn rule_r2(view: &FileView, out: &mut Vec<Finding>) {
    let names = hash_bindings(&view.code);
    if names.is_empty() {
        return;
    }
    for (i, line) in view.code.iter().enumerate() {
        let mut hit: Option<&str> = None;
        for name in &names {
            // `name.iter()` / `name.drain()` / … anywhere on the line.
            let mut from = 0;
            while let Some(pos) = token_pos(line, name, from) {
                let after = &line[pos + name.len()..];
                if let Some(meth) = after.strip_prefix('.') {
                    if ITER_METHODS.iter().any(|m| meth.starts_with(m)) {
                        hit = Some(name);
                    }
                }
                from = pos + 1;
            }
            // `for … in …name…` loop headers.
            if hit.is_none() && line.contains("for ") {
                if let Some(pos) = line.find(" in ") {
                    if has_token(&line[pos + 4..], name) {
                        hit = Some(name);
                    }
                }
            }
            if hit.is_some() {
                break;
            }
        }
        if let Some(name) = hit {
            // Sorted-drain idiom: the collected Vec is sorted within the
            // next two lines, so the order is canonical after all.
            let sorted = (i..view.nlines().min(i + 3)).any(|j| view.code[j].contains(".sort"));
            if !sorted {
                out.push(Finding {
                    rule: "R2",
                    line: i + 1,
                    message: format!(
                        "iteration over unordered `{name}` — order is seeded per process; \
                         drain through a sorted Vec, switch to BTreeMap, or justify with \
                         `// lint:allow(R2) <reason>`"
                    ),
                });
            }
        }
    }
}

/// Names bound (let bindings or struct fields) to `HashMap`/`HashSet`
/// types anywhere in the file.
fn hash_bindings(code: &[String]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in code {
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = token_pos(line, ty, from) {
                from = pos + 1;
                if let Some(name) = binding_before(line, pos) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Extract the binding name to the left of a `HashMap`/`HashSet` mention:
/// `let [mut] NAME: HashMap<…>`, `NAME: std::collections::HashMap<…>`
/// (struct field), or `let [mut] NAME = HashMap::new()`.
fn binding_before(line: &str, ty_pos: usize) -> Option<String> {
    let before = line[..ty_pos].trim_end();
    // Strip a fully-qualified path prefix.
    let before = before
        .strip_suffix("std::collections::")
        .or_else(|| before.strip_suffix("collections::"))
        .unwrap_or(before)
        .trim_end();
    // `… NAME :` (type ascription / struct field) or `… NAME =` (init).
    let before = before
        .strip_suffix(':')
        .or_else(|| before.strip_suffix('='))?;
    let before = before.strip_suffix(':').unwrap_or(before).trim_end();
    let name_end = before.len();
    let name_start = before
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident(*c))
        .last()
        .map(|(p, _)| p)?;
    let name = &before[name_start..name_end];
    (!name.is_empty() && !name.chars().next().unwrap().is_ascii_digit()).then(|| name.to_string())
}

// ---------------------------------------------------------------- R3

fn rule_r3(view: &FileView, out: &mut Vec<Finding>) {
    for (i, line) in view.code.iter().enumerate() {
        if !has_token(line, "unsafe") {
            continue;
        }
        // Documented when SAFETY (or a `# Safety` doc section) appears in
        // a comment on this line or within the five lines above.
        let lo = i.saturating_sub(5);
        let documented = (lo..=i).any(|j| {
            let c = &view.comments[j];
            c.contains("SAFETY") || c.contains("# Safety")
        });
        if !documented {
            out.push(Finding {
                rule: "R3",
                line: i + 1,
                message: "`unsafe` without a `// SAFETY:` justification on the line or within \
                          the 5 preceding lines"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- R4

const FMA_PATTERNS: &[&str] = &[
    "mul_add",
    "fmadd",
    "fmsub",
    "fnmadd",
    "fadd_fast",
    "fmul_fast",
    "fsub_fast",
    "fdiv_fast",
];

fn rule_r4(relpath: &str, view: &FileView, out: &mut Vec<Finding>) {
    if !(relpath.starts_with("crates/dense/") || relpath.starts_with("crates/core/")) {
        return;
    }
    for (i, line) in view.code.iter().enumerate() {
        if let Some(pat) = FMA_PATTERNS.iter().find(|p| line.contains(**p)) {
            out.push(Finding {
                rule: "R4",
                line: i + 1,
                message: format!(
                    "`{pat}` fuses the multiply-add rounding step — kernels must keep separate \
                     mul/add so AVX and portable paths stay bitwise identical"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R5

/// mpsim message primitives whose second argument is the tag.
const MSG_PRIMITIVES: &[&str] = &[
    ".send(",
    ".send::<",
    ".isend(",
    ".isend::<",
    ".recv(",
    ".recv::<",
    ".ibcast(",
    ".ibcast::<",
];

fn rule_r5(relpath: &str, view: &FileView, out: &mut Vec<Finding>) {
    if !relpath.starts_with("crates/core/src/") || relpath.ends_with("dist/front.rs") {
        return;
    }
    for (i, line) in view.code.iter().enumerate() {
        let mut seen_args_at: Vec<(usize, usize)> = Vec::new();
        for prim in MSG_PRIMITIVES {
            let mut from = 0;
            while let Some(rel) = line.get(from..).and_then(|l| l.find(prim)) {
                let pos = from + rel;
                from = pos + 1;
                // Land on the argument-list `(`: directly at the match's
                // paren, or after the turbofish's matching `>`.
                let args_open = if prim.ends_with("::<") {
                    match_turbofish(view, i, pos + prim.len())
                } else {
                    Some((i, pos + prim.len() - 1))
                };
                let Some((open_line, open_col)) = args_open else {
                    continue;
                };
                if seen_args_at.contains(&(open_line, open_col)) {
                    continue;
                }
                seen_args_at.push((open_line, open_col));
                let Some(args) = top_level_args(view, open_line, open_col) else {
                    continue;
                };
                let Some(tag_arg) = args.get(1) else {
                    continue;
                };
                if tag_is_raw(tag_arg) {
                    out.push(Finding {
                        rule: "R5",
                        line: i + 1,
                        message: format!(
                            "raw message tag `{}` outside the centralized namespace — route \
                             through `dist::front::tag` or a named `*_tag` helper / `TAG_*` \
                             constant",
                            tag_arg.trim()
                        ),
                    });
                }
            }
        }
    }
}

/// A tag expression is raw when it contains a standalone integer literal
/// or a bare unsigned cast, and references no named tag helper/constant.
fn tag_is_raw(arg: &str) -> bool {
    if arg.contains("tag") || arg.chars().any(|c| c.is_ascii_uppercase()) {
        return false;
    }
    has_integer_literal(arg) || arg.contains(" as u")
}

/// True when `s` contains a digit run not embedded in an identifier.
fn has_integer_literal(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            if i == 0 || !is_ident(b[i - 1] as char) {
                return true;
            }
            // Skip the rest of this identifier/number.
            while i < b.len() && is_ident(b[i] as char) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    false
}

/// From the char after `::<` at (`line`, `col`), scan past the matching
/// `>` and return the position of the `(` that follows.
fn match_turbofish(view: &FileView, line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 1i32;
    let (mut l, mut c) = (line, col);
    for _ in 0..2000 {
        let bytes = view.code.get(l)?.as_bytes();
        if c >= bytes.len() {
            l += 1;
            c = 0;
            continue;
        }
        match bytes[c] {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    // Expect `(` next (possibly after whitespace).
                    let mut cc = c + 1;
                    loop {
                        let lb = view.code.get(l)?.as_bytes();
                        if cc >= lb.len() {
                            return None;
                        }
                        match lb[cc] {
                            b'(' => return Some((l, cc)),
                            b' ' | b'\t' => cc += 1,
                            _ => return None,
                        }
                    }
                }
            }
            _ => {}
        }
        c += 1;
    }
    None
}

/// Collect the top-level comma-separated arguments of the call whose `(`
/// sits at (`line`, `col`), scanning across up to 12 lines.
fn top_level_args(view: &FileView, line: usize, col: usize) -> Option<Vec<String>> {
    let mut args = vec![String::new()];
    let mut depth = 0i32;
    let (mut l, mut c) = (line, col);
    loop {
        if l > line + 12 {
            return None;
        }
        let bytes = view.code.get(l)?.as_bytes();
        if c >= bytes.len() {
            l += 1;
            c = 0;
            args.last_mut().unwrap().push(' ');
            continue;
        }
        let ch = bytes[c] as char;
        match ch {
            '(' | '[' | '{' => {
                depth += 1;
                if depth > 1 {
                    args.last_mut().unwrap().push(ch);
                }
            }
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(args);
                }
                args.last_mut().unwrap().push(ch);
            }
            ',' if depth == 1 => args.push(String::new()),
            _ => args.last_mut().unwrap().push(ch),
        }
        c += 1;
    }
}

// ---------------------------------------------------------------- R6

const ENTROPY_PATTERNS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "rand::random",
    "getrandom",
];

fn rule_r6(view: &FileView, out: &mut Vec<Finding>) {
    for (i, line) in view.code.iter().enumerate() {
        if let Some(pat) = ENTROPY_PATTERNS.iter().find(|p| line.contains(**p)) {
            out.push(Finding {
                rule: "R6",
                line: i + 1,
                message: format!(
                    "entropy-seeded RNG (`{pat}`): every RNG must be seeded from the input so \
                     repeated runs are bitwise reproducible"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R7

/// R7 over the whole tree: `(file index, finding)` for every `pub` fn
/// whose name no other non-test line mentions. A mention is any
/// identifier token except the name right after `fn` (a definition, so
/// two unused methods of one name do not keep each other alive).
fn rule_r7(paths: &[&str], views: &[FileView]) -> Vec<(usize, Finding)> {
    let code: Vec<Vec<&str>> = paths
        .iter()
        .zip(views)
        .map(|(rel, view)| non_test_lines(rel, view))
        .collect();
    let mut defs: Vec<(usize, usize, &str)> = Vec::new();
    for (f, lines) in code.iter().enumerate() {
        for (i, line) in lines.iter().enumerate() {
            if let Some(name) = pub_fn_name(line) {
                defs.push((f, i, name));
            }
        }
    }
    let mut mentions: BTreeMap<&str, Vec<(usize, usize)>> = defs
        .iter()
        .map(|&(_, _, name)| (name, Vec::new()))
        .collect();
    for (f, lines) in code.iter().enumerate() {
        for (i, line) in lines.iter().enumerate() {
            let mut after_fn = false;
            for word in line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()) {
                if !after_fn {
                    if let Some(at) = mentions.get_mut(word) {
                        at.push((f, i));
                    }
                }
                after_fn = word == "fn";
            }
        }
    }
    defs.into_iter()
        .filter(|&(f, i, name)| mentions[name].iter().all(|&at| at == (f, i)))
        .map(|(f, i, name)| {
            let finding = Finding {
                rule: "R7",
                line: i + 1,
                message: format!(
                    "`{name}` has no caller outside test code — give it a production \
                     caller, delete it, or justify with `// lint:allow(R7) <reason>`"
                ),
            };
            (f, finding)
        })
        .collect()
}

/// The code of each line outside test code; `""` for a line of a file
/// under `tests/` or of a `#[cfg(test)]` item.
fn non_test_lines<'a>(relpath: &str, view: &'a FileView) -> Vec<&'a str> {
    if relpath.split('/').any(|dir| dir == "tests") {
        return vec![""; view.nlines()];
    }
    let mut lines: Vec<&str> = view.code.iter().map(String::as_str).collect();
    let mut i = 0;
    while i < lines.len() {
        let Some(col) = lines[i].find("#[cfg(test)]") else {
            i += 1;
            continue;
        };
        let end = item_end(&view.code, i, col + "#[cfg(test)]".len());
        lines[i..=end].fill("");
        i = end + 1;
    }
    lines
}

/// The line on which the item that starts at (`line`, `col`) ends: its
/// first `;` outside any bracket, or the `}` that closes its body.
fn item_end(code: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0i32;
    for (l, text) in code.iter().enumerate().skip(line) {
        let from = if l == line { col } else { 0 };
        for b in text.bytes().skip(from) {
            match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' => depth -= 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return l;
                    }
                }
                b';' if depth == 0 => return l,
                _ => {}
            }
        }
    }
    code.len() - 1
}

/// The name a `pub fn` / `pub(crate) fn` line defines (`const`, `async`,
/// `unsafe` and `extern "…"` qualifiers allowed).
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub")?;
    let rest = match rest.strip_prefix('(') {
        Some(restricted) => &restricted[restricted.find(')')? + 1..],
        None if rest.starts_with(char::is_whitespace) => rest,
        None => return None,
    };
    let mut words = rest.split_whitespace();
    loop {
        match words.next()? {
            "fn" => break,
            "const" | "async" | "unsafe" | "extern" => {}
            w if w.starts_with('"') => {}
            _ => return None,
        }
    }
    let word = words.next()?;
    let name = &word[..word.find(|c: char| !is_ident(c)).unwrap_or(word.len())];
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_text(path, src)
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn r1_fires_and_respects_bench_scope() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![("R1", 1)]);
        assert!(findings("crates/bench/src/bin/b.rs", src).is_empty());
        // Comment mentions never fire.
        assert!(findings("crates/core/src/x.rs", "// no Instant::now() here\n").is_empty());
    }

    #[test]
    fn r2_tracks_bindings_and_sorted_drain() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let mut cache: HashMap<usize, f64> = HashMap::new();\n    for (k, v) in &cache { use_it(k, v); }\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![("R2", 4)]);
        let sorted = "fn f(cache: HashMap<usize, f64>) {\n    let mut items: Vec<_> = cache.into_iter().collect();\n    items.sort_unstable_by_key(|(k, _)| *k);\n}\n";
        assert!(findings("crates/core/src/x.rs", sorted).is_empty());
        // Keyed access is always fine.
        let keyed = "fn f(m: &mut HashMap<usize, f64>) { m.insert(1, 2.0); let _ = m.get(&1); m.remove(&1); }\n";
        assert!(findings("crates/core/src/x.rs", keyed).is_empty());
    }

    #[test]
    fn r3_accepts_safety_within_five_lines() {
        let bad = "fn f(p: *mut f64) { unsafe { *p = 0.0 }; }\n";
        assert_eq!(findings("crates/core/src/x.rs", bad), vec![("R3", 1)]);
        let good = "// SAFETY: caller guarantees p is valid.\nfn f(p: *mut f64) { unsafe { *p = 0.0 }; }\n";
        assert!(findings("crates/core/src/x.rs", good).is_empty());
        let doc = "/// # Safety\n/// p must be valid.\nunsafe fn f(p: *mut f64) {}\n";
        assert!(findings("crates/core/src/x.rs", doc).is_empty());
    }

    #[test]
    fn r4_scoped_to_kernel_crates() {
        let src = "fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n";
        assert_eq!(findings("crates/dense/src/x.rs", src), vec![("R4", 1)]);
        assert!(findings("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn r4_fires_on_the_avx512_fused_intrinsics() {
        // The 512-bit kernels are where an FMA is most tempting: one
        // instruction instead of two on the critical resource.
        for fused in ["_mm512_fmadd_pd", "_mm512_fnmadd_pd"] {
            let src = format!(
                "fn f(a: __m512d, b: __m512d, c: __m512d) -> __m512d {{ {fused}(a, b, c) }}\n"
            );
            assert_eq!(findings("crates/dense/src/pack.rs", &src), vec![("R4", 1)]);
        }
        let split = "fn f(a: __m512d, b: __m512d, c: __m512d) -> __m512d { _mm512_add_pd(c, _mm512_mul_pd(a, b)) }\n";
        assert!(findings("crates/dense/src/pack.rs", split).is_empty());
    }

    #[test]
    fn the_shipped_simd_kernels_pass_r3_and_r4() {
        // Not a fixture: the real kernel sources, so an intrinsic block
        // added without its SAFETY note (or with an FMA) fails here as
        // well as in `parfact-lint --deny-all`.
        let kernels = [
            (
                "crates/dense/src/pack.rs",
                include_str!("../../dense/src/pack.rs"),
            ),
            (
                "crates/dense/src/blas.rs",
                include_str!("../../dense/src/blas.rs"),
            ),
            (
                "crates/dense/src/chol.rs",
                include_str!("../../dense/src/chol.rs"),
            ),
        ];
        for (path, src) in kernels {
            assert!(
                src.contains("unsafe"),
                "{path}: expected an unsafe dispatch or intrinsic block"
            );
            assert_eq!(findings(path, src), vec![], "{path}");
        }
        assert!(
            kernels[0].1.contains("_mm512_mul_pd"),
            "the AVX-512 microkernel moved"
        );
    }

    #[test]
    fn r5_tag_position_analysis() {
        let raw = "fn f(rank: &mut Rank) { rank.send(0, 42, payload); }\n";
        assert_eq!(findings("crates/core/src/dist/x.rs", raw), vec![("R5", 1)]);
        let cast = "fn f(rank: &mut Rank, j: usize) { rank.recv::<(Vec<usize>, Vec<f64>)>(0, j as u64); }\n";
        assert_eq!(
            findings("crates/core/src/baseline/x.rs", cast),
            vec![("R5", 1)]
        );
        let named =
            "fn f(rank: &mut Rank, s: usize) { rank.isend(1, front::tag(s, PHASE_L11), p); }\n";
        assert!(findings("crates/core/src/dist/x.rs", named).is_empty());
        let var = "fn f(rank: &mut Rank, t_l11: u64) { let m = rank.recv::<Panel>(0, t_l11); }\n";
        assert!(findings("crates/core/src/dist/x.rs", var).is_empty());
        // front.rs itself is the namespace.
        assert!(findings("crates/core/src/dist/front.rs", raw).is_empty());
        // Out of scope: mpsim's own tests exercise the raw layer.
        assert!(findings("crates/mpsim/src/lib.rs", raw).is_empty());
    }

    #[test]
    fn r6_fires_on_entropy_rngs() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(findings("crates/order/src/x.rs", src), vec![("R6", 1)]);
    }

    #[test]
    fn pragmas_suppress_with_reason_and_audit() {
        let src = "// lint:allow(R1) phase timer: measures real host work, never virtual time\nlet t = Instant::now();\n";
        let rep = lint_text("crates/core/src/x.rs", src);
        assert!(rep.findings.is_empty());
        assert_eq!(rep.suppressed.len(), 1);
        assert!(rep.suppressed[0].reason.contains("phase timer"));
        // Trailing form.
        let src = "let t = Instant::now(); // lint:allow(R1) epoch for trace timestamps\n";
        let rep = lint_text("crates/core/src/x.rs", src);
        assert!(rep.findings.is_empty());
        assert_eq!(rep.suppressed.len(), 1);
    }

    #[test]
    fn bad_pragmas_are_findings() {
        let no_reason = "let t = Instant::now(); // lint:allow(R1)\n";
        let rep = lint_text("crates/core/src/x.rs", no_reason);
        assert!(rep.findings.iter().any(|f| f.rule == "P0"));
        // The R1 finding still stands: a malformed pragma suppresses nothing.
        assert!(rep.findings.iter().any(|f| f.rule == "R1"));
        let unknown = "let t = Instant::now(); // lint:allow(R9) because\n";
        let rep = lint_text("crates/core/src/x.rs", unknown);
        assert!(rep.findings.iter().any(|f| f.rule == "P0"));
    }
}

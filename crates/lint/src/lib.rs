//! `globe-lint` — the repo-native static-analysis pass.
//!
//! Four rules, all built on one hand-rolled lexer (strings, char
//! literals, and comments are skipped correctly — no regex-over-source
//! false positives):
//!
//! - **panic** — no `unwrap`/`expect`/`panic!`-family in non-test code
//!   of the protocol crates (`core`, `net`, `wire`, `coherence`);
//! - **time** — no raw `-`/`duration_since` on time-named operands
//!   outside the clock implementation (`net/src/time.rs`);
//! - **lock-order** — nested `.lock()` pairs in the runtime files must
//!   follow the partial order declared in `crates/lint/lock_order.toml`;
//! - **wire-frame** — every `CoherenceMsg` variant must have encode +
//!   decode arms with matching tags, proptest coverage, an
//!   ARCHITECTURE.md mention, and a trace story (or exemption) in
//!   `crates/lint/frame_trace.toml`.
//!
//! Suppression grammar: `// lint: allow(<rule>) — <reason>` on the
//! offending line or the line above. The reason is mandatory; a bare
//! allow is itself a finding. See `cargo run -p globe-lint -- --check`.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

use diag::{Diagnostic, Rule};
use rules::locks::LockConfig;
use rules::wire::WireInputs;

/// Crates whose `src/` trees are bound by the panic and time rules.
pub const PROTOCOL_CRATES: &[&str] = &["core", "net", "wire", "coherence"];

/// Files bound by the lock-order rule (workspace-relative).
pub const LOCK_FILES: &[&str] = &[
    "crates/core/src/tcp_runtime.rs",
    "crates/core/src/shard_runtime.rs",
    "crates/core/src/store_engine.rs",
    "crates/core/src/space.rs",
    "crates/net/src/tcp.rs",
];

/// The clock implementation, exempt from the time rule (it is the one
/// place allowed to define subtraction).
const TIME_IMPL: &str = "crates/net/src/time.rs";

/// Runs every rule over the workspace at `root`. Returns findings
/// sorted by file then line; configuration errors are returned as
/// `Err` (a broken config must fail the gate, not pass it quietly).
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let lock_doc = read_doc(root, "crates/lint/lock_order.toml")?;
    let lock_cfg = LockConfig::from_doc(&lock_doc)?;
    let frame_cfg = read_doc(root, "crates/lint/frame_trace.toml")?;

    let mut diags = Vec::new();

    for krate in PROTOCOL_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        for file in rust_files(&src_dir) {
            let rel = rel_path(root, &file);
            let src = std::fs::read_to_string(&file).map_err(|e| format!("read {rel}: {e}"))?;
            let lexed = lexer::lex(&src);
            let mut file_diags = rules::panics::check(&rel, &lexed);
            if rel != TIME_IMPL {
                file_diags.extend(rules::time::check(&rel, &lexed));
            }
            if LOCK_FILES.contains(&rel.as_str()) {
                file_diags.extend(rules::locks::check(&rel, &lexed, &lock_cfg));
            }
            diags.extend(scan::apply_allows(&rel, &lexed, file_diags));
        }
    }

    // The wire rule is a cross-file check; allow comments do not apply
    // (a missing surface has no single line to hang an allow on —
    // exemptions live in frame_trace.toml instead).
    let messages = read_lexed(root, "crates/core/src/messages.rs")?;
    let proptest = read_lexed(root, "crates/core/tests/proptest_messages.rs")?;
    let trace_src = read(root, "crates/core/src/trace.rs")?;
    let arch_src = read(root, "docs/ARCHITECTURE.md")?;
    diags.extend(rules::wire::check(&WireInputs {
        messages: &messages,
        messages_path: "crates/core/src/messages.rs",
        proptest: &proptest,
        proptest_path: "crates/core/tests/proptest_messages.rs",
        trace_src: &trace_src,
        trace_path: "crates/core/src/trace.rs",
        arch_src: &arch_src,
        arch_path: "docs/ARCHITECTURE.md",
        frame_cfg: &frame_cfg,
        frame_cfg_path: "crates/lint/frame_trace.toml",
    }));

    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(diags)
}

/// Counts findings per rule, for the summary line.
pub fn summarize(diags: &[Diagnostic]) -> String {
    let count = |r: Rule| diags.iter().filter(|d| d.rule == r).count();
    format!(
        "{} finding(s): {} panic, {} time, {} lock-order, {} wire-frame",
        diags.len(),
        count(Rule::Panic),
        count(Rule::Time),
        count(Rule::LockOrder),
        count(Rule::WireFrame),
    )
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))
}

fn read_lexed(root: &Path, rel: &str) -> Result<lexer::Lexed, String> {
    Ok(lexer::lex(&read(root, rel)?))
}

fn read_doc(root: &Path, rel: &str) -> Result<config::Doc, String> {
    config::Doc::parse(&read(root, rel)?).map_err(|e| format!("{rel}: {e}"))
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `dir`, recursively, sorted for deterministic
/// output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

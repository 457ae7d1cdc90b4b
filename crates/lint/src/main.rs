#![forbid(unsafe_code)]
//! `memtree_lint` — text-based repo lints, run from the workspace root
//! (CI's `lint-repo` job; locally `cargo run -p memtree_lint`).
//!
//! Four rules, all enforced as plain line scans (no parsing, no deps —
//! the point is a fast, dependency-free gate that cannot rot):
//!
//! 1. **ordering-justification** — every `Ordering::Relaxed` /
//!    `Ordering::SeqCst` site in library code must carry a
//!    `// ordering:` justification comment within the preceding
//!    [`ORDERING_LOOKBACK`] lines (one comment may cover a short run of
//!    sites, e.g. a pair of `fetch_add`s), or be covered by
//!    [`ALLOWLIST`]. Acquire/Release/AcqRel sites are encouraged but not
//!    forced: the two extremes are where reviewers most need the "why"
//!    (Relaxed because a proof says so, SeqCst because it costs).
//! 2. **no-unwrap** — `.unwrap()` / `.expect(` and the `unreachable!` /
//!    `todo!` / `unimplemented!` macros are banned in
//!    `memtree_runtime` and `memtree_service` library code (panicking
//!    in the scheduling substrate kills a worker silently; errors must
//!    flow through `PlatformError`). Tests, benches, bins, and other
//!    crates are out of scope.
//! 3. **design-sections** — every `§N[.M]` reference in sources and
//!    root-level docs must name a section heading that actually exists
//!    in DESIGN.md (stale refs are how design docs die).
//! 4. **one-test-kit** — a `fn arb_tree`, a `fn roomy`, or a
//!    `"MEMTREE_TEST_…"` string (a read of a CI-pinned test variable)
//!    outside `crates/testkit` fails: properties draw their trees, bounds
//!    and counts from `memtree_testkit` (DESIGN.md §7), not from a copy.
//!    The scan covers whole files, unit-test modules included.
//!
//! Scope conventions the scans rely on (checked by rule violations, not
//! by magic): unit-test modules sit at the end of a file behind a
//! `mod tests` line — both code rules stop scanning there.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Lines to look back from an atomic-ordering site for a `// ordering:`
/// justification. Generous enough for a doc-style block comment plus a
/// couple of cfg/attribute lines and a short run of related sites.
const ORDERING_LOOKBACK: usize = 14;

/// `(path-prefix, reason)` pairs exempt from the ordering rule.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "vendor/minloom/",
        "the model checker implements the memory model; its internal \
         std atomics are scheduler bookkeeping, not protocol sites",
    ),
    (
        "vendor/proptest/",
        "offline stand-in mirroring upstream proptest internals",
    ),
    (
        "crates/lint/",
        "the linter itself: its needle string literals are not atomic sites",
    ),
];

/// What the no-unwrap rule bans. `panic!` is deliberately absent:
/// `Workload::FailAt` panics by design.
const UNWRAP_NEEDLES: [&str; 5] = [
    ".unwrap()",
    ".expect(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// `(path, reason)` pairs exempt from the no-unwrap rule.
const UNWRAP_ALLOWLIST: &[(&str, &str)] = &[(
    "crates/runtime/src/conformance.rs",
    "macro-generated test-harness support; its expansions live inside \
     #[test] functions where panicking on a failed run is the point",
)];

/// What the one-test-kit rule bans outside [`TESTKIT`].
const TESTKIT_NEEDLES: [&str; 3] = ["fn arb_tree", "fn roomy", "\"MEMTREE_TEST_"];

/// The one crate the test-kit needles belong in.
const TESTKIT: &str = "crates/testkit/";

/// Roots scanned for `.rs` files.
const RS_ROOTS: &[&str] = &["crates", "vendor", "src", "tests", "examples"];

/// Root-level docs scanned for `§` references, besides every `.rs` file.
/// Paper/corpus notes (PAPERS.md, SNIPPETS.md, …) quote external text
/// and are deliberately out of scope.
const DOC_FILES: &[&str] = &["DESIGN.md", "README.md", "ROADMAP.md"];

fn main() {
    let root = std::env::current_dir().expect("cwd");
    if !root.join("DESIGN.md").is_file() {
        eprintln!("memtree_lint: run from the workspace root (DESIGN.md not found)");
        std::process::exit(2);
    }

    let mut violations: Vec<String> = Vec::new();
    let rs_files = collect_rs_files(&root);

    let sections = design_sections(&root);
    for file in &rs_files {
        let rel = rel_path(&root, file);
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        if (rel.starts_with("crates/") || rel.starts_with("vendor/")) && rel.contains("/src/") {
            check_ordering(&rel, &text, &mut violations);
        }
        if is_no_unwrap_scope(&rel) {
            check_unwrap(&rel, &text, &mut violations);
        }
        if !rel.starts_with(TESTKIT) && !rel.starts_with("crates/lint/") {
            check_testkit(&rel, &text, &mut violations);
        }
        check_sections(&rel, &text, &sections, &mut violations);
    }
    for doc in DOC_FILES {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            check_sections(doc, &text, &sections, &mut violations);
        }
    }

    if violations.is_empty() {
        println!(
            "memtree_lint: OK ({} .rs files, {} DESIGN.md sections)",
            rs_files.len(),
            sections.len()
        );
        return;
    }
    eprintln!("memtree_lint: {} violation(s)\n", violations.len());
    for v in &violations {
        eprintln!("  {v}");
    }
    std::process::exit(1);
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in RS_ROOTS {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Build artifacts only ever appear under target/.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn allowlisted(rel: &str) -> bool {
    ALLOWLIST.iter().any(|(prefix, _)| rel.starts_with(prefix))
}

/// Index of the line holding `mod tests` (the end-of-file unit-test
/// convention): scanning stops there for the code rules.
fn tests_mod_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with("mod tests") || t.starts_with("pub mod tests")
        })
        .unwrap_or(lines.len())
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//")
}

fn check_ordering(rel: &str, text: &str, violations: &mut Vec<String>) {
    if allowlisted(rel) {
        return;
    }
    let lines: Vec<&str> = text.lines().collect();
    let end = tests_mod_start(&lines);
    for (i, line) in lines[..end].iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        if !(line.contains("Ordering::Relaxed") || line.contains("Ordering::SeqCst")) {
            continue;
        }
        let start = i.saturating_sub(ORDERING_LOOKBACK);
        let justified = lines[start..=i].iter().any(|l| l.contains("// ordering:"));
        if !justified {
            let mut v = String::new();
            let _ = write!(
                v,
                "{rel}:{}: Relaxed/SeqCst atomic site without a `// ordering:` \
                 justification within {ORDERING_LOOKBACK} lines",
                i + 1
            );
            violations.push(v);
        }
    }
}

fn is_no_unwrap_scope(rel: &str) -> bool {
    (rel.starts_with("crates/runtime/src/") || rel.starts_with("crates/service/src/"))
        && !rel.contains("/bin/")
        && !UNWRAP_ALLOWLIST.iter().any(|(path, _)| rel == *path)
}

fn check_unwrap(rel: &str, text: &str, violations: &mut Vec<String>) {
    let lines: Vec<&str> = text.lines().collect();
    let end = tests_mod_start(&lines);
    for (i, line) in lines[..end].iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        for needle in UNWRAP_NEEDLES {
            if line.contains(needle) {
                let mut v = String::new();
                let _ = write!(
                    v,
                    "{rel}:{}: `{needle}` in runtime/service library code — \
                     route the error through PlatformError instead",
                    i + 1
                );
                violations.push(v);
            }
        }
    }
}

fn check_testkit(rel: &str, text: &str, violations: &mut Vec<String>) {
    for (i, line) in text.lines().enumerate() {
        if is_comment(line) {
            continue;
        }
        for needle in TESTKIT_NEEDLES {
            if line.contains(needle) {
                violations.push(format!(
                    "{rel}:{}: `{needle}` outside {TESTKIT} — draw it from memtree_testkit",
                    i + 1
                ));
            }
        }
    }
}

/// Section numbers with headings in DESIGN.md (`## 6. …`, `### 6.12 …`).
fn design_sections(root: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(root.join("DESIGN.md")) else {
        return Vec::new();
    };
    let mut sections = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("#") else {
            continue;
        };
        let rest = rest.trim_start_matches('#').trim_start();
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let num = num.trim_end_matches('.').to_string();
        if !num.is_empty() {
            sections.push(num);
        }
    }
    sections
}

fn check_sections(rel: &str, text: &str, sections: &[String], violations: &mut Vec<String>) {
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find('§') {
            rest = &rest[pos + '§'.len_utf8()..];
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            let num = num.trim_end_matches('.').to_string();
            if num.is_empty() {
                continue;
            }
            if !sections.contains(&num) {
                let mut v = String::new();
                let _ = write!(
                    v,
                    "{rel}:{}: reference to DESIGN.md §{num}, which has no such section",
                    i + 1
                );
                violations.push(v);
            }
        }
    }
}

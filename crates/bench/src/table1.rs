//! Table 1: code-size breakdown by module.
//!
//! The paper reports C/C++ line counts for its prototype; we report the
//! Rust line counts of the corresponding subsystems in this repository,
//! mapped as:
//!
//! | Paper module | This repository |
//! |--------------|-----------------|
//! | Agent        | `crates/host` |
//! | Disc.        | `crates/controller/src/discovery.rs` |
//! | Maint.       | `crates/controller/src` minus `discovery.rs` |
//! | Graph        | `crates/topology` |
//! | +Flowlet     | `crates/ext/src/flowlet.rs` |
//! | +Router      | `crates/ext/src/router.rs` |

use std::path::{Path, PathBuf};

use crate::report::Report;

/// Paper's Table 1, in lines of C/C++.
pub const PAPER: [(&str, u64); 7] = [
    ("Agent", 5_000),
    ("Disc.", 600),
    ("Maint.", 200),
    ("Graph", 1_700),
    ("Total", 7_500),
    ("+Flowlet", 100),
    ("+Router", 100),
];

/// Workspace root, resolved from this crate's manifest.
#[must_use]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate sits two levels below the root")
        .to_path_buf()
}

/// Counts non-blank source lines across the given paths (files or
/// directories, recursively, `.rs` only). Test modules count too — the
/// paper's numbers include its evaluation code ("about 1/4 of our
/// engineering efforts dedicated to" evaluation).
#[must_use]
pub fn count_lines(paths: &[PathBuf]) -> u64 {
    let mut total = 0;
    for p in paths {
        total += count_path(p);
    }
    total
}

fn count_path(p: &Path) -> u64 {
    if p.is_file() {
        if p.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = std::fs::read_to_string(p) else {
                return 0;
            };
            return text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        }
        return 0;
    }
    let Ok(entries) = std::fs::read_dir(p) else {
        return 0;
    };
    entries.flatten().map(|e| count_path(&e.path())).sum()
}

/// Runs the Table 1 reproduction.
#[must_use]
pub fn run(_quick: bool) -> Report {
    let root = workspace_root();
    let crates = root.join("crates");
    let agent = count_lines(&[crates.join("host/src")]);
    let disc = count_lines(&[crates.join("controller/src/discovery.rs")]);
    // Everything else in the crate, so no file can fall out of the count.
    let maint = count_lines(&[crates.join("controller/src")]) - disc;
    let graph = count_lines(&[crates.join("topology/src")]);
    let flowlet = count_lines(&[crates.join("ext/src/flowlet.rs")]);
    let router = count_lines(&[crates.join("ext/src/router.rs")]);
    let core_total = agent + disc + maint + graph;

    let mut r = Report::new("Table 1 — code breakdown (non-blank lines)");
    r.note("Paper counts C/C++ of the prototype; we count the Rust of the");
    r.note("corresponding subsystems (tests included, as the paper's");
    r.note("engineering-effort accounting includes evaluation code).");
    r.header(["module", "paper (C/C++)", "this repo (Rust)"]);
    let ours = [
        ("Agent", agent),
        ("Disc.", disc),
        ("Maint.", maint),
        ("Graph", graph),
        ("Total", core_total),
        ("+Flowlet", flowlet),
        ("+Router", router),
    ];
    for ((name, paper), (name2, got)) in PAPER.iter().zip(ours.iter()) {
        assert_eq!(name, name2);
        r.row([(*name).to_owned(), paper.to_string(), got.to_string()]);
    }
    // Whole-repository size for context.
    let all = count_lines(&[
        crates.clone(),
        root.join("src"),
        root.join("tests"),
        root.join("examples"),
    ]);
    r.note(String::new());
    r.note(format!("entire repository: {all} non-blank Rust lines"));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_plausible() {
        let s = run(true).render();
        assert!(s.contains("Agent"));
        assert!(s.contains("+Router"));
        // The discovery module alone is several hundred lines.
        let root = workspace_root();
        let disc = count_lines(&[root.join("crates/controller/src/discovery.rs")]);
        assert!(disc > 300, "discovery.rs has {disc} lines?");
    }

    #[test]
    fn count_ignores_non_rust() {
        let root = workspace_root();
        assert_eq!(count_lines(&[root.join("Cargo.toml")]), 0);
    }
}

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
    let mut lines = 0;
    for_each_rust_file(p, &mut |_, text| {
        lines += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    });
    lines
}

/// Calls `f(path, text)` for every readable `.rs` file at or under `p`.
fn for_each_rust_file(p: &Path, f: &mut impl FnMut(&Path, &str)) {
    if p.is_file() {
        if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(p) {
                f(p, &text);
            }
        }
    } else if let Ok(entries) = std::fs::read_dir(p) {
        for e in entries.flatten() {
            for_each_rust_file(&e.path(), f);
        }
    }
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

    /// The body of the brace-balanced `{ … }` opening at or after `from`.
    fn braced(text: &str, from: usize) -> &str {
        let open = from + text[from..].find('{').expect("an opening brace");
        let mut depth = 0;
        let close = text[open..].char_indices().find(|&(_, c)| {
            depth += i32::from(c == '{') - i32::from(c == '}');
            depth == 0
        });
        &text[open + 1..open + close.expect("a closing brace").0]
    }

    /// Whether `text` sets `field` of struct `name` the way a caller
    /// does: a statement assigning through `.field` or below it (not
    /// counted in the non-test half of `name`'s `own_file`, which reads
    /// its config — a `.field =` there is another struct's), or a
    /// `name { … }` literal naming it that is neither the definition, an
    /// `impl` header, nor the tail expression of its own `fn default`.
    fn sets(text: &str, name: &str, field: &str, own_file: bool) -> bool {
        let tests = text.split_once("#[cfg(test)]").map_or("", |t| t.1);
        let callers = if own_file { tests } else { text };
        let path = |c: char| c == '.' || c == '_' || c.is_alphanumeric();
        let assigned = callers.match_indices(&format!(".{field}")).any(|(i, m)| {
            let rest = &callers[i + m.len()..];
            rest.starts_with([' ', '.']) && rest.trim_start_matches(path).starts_with(" = ")
        });
        let own_default = format!("fn default() -> {name} {{");
        let not_a_literal = ["struct", "for", "impl", "->", &own_default];
        assigned
            || text.match_indices(&format!("{name} {{")).any(|(i, _)| {
                let (pre, body) = (text[..i].trim_end(), braced(text, i).replace("::", "@"));
                let named = body.match_indices(field).any(|(j, _)| {
                    let after = body[j + field.len()..].trim_start();
                    body[..j].ends_with([' ', '\n', ','])
                        && (after.is_empty() || after.starts_with([':', ',']))
                });
                named && !not_a_literal.iter().any(|w| pre.ends_with(w))
            })
    }

    /// The rule of DESIGN.md "Configuration surface", kept from eroding:
    /// every `pub` field of a `pub struct *Config` / `*Params` is set by
    /// a caller somewhere in the tree, tests and the benchmark package
    /// included. A field only its default sets is a constant, not a knob.
    #[test]
    fn every_config_field_is_set_by_some_caller() {
        let (root, mut sources) = (workspace_root(), Vec::new());
        for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
            for_each_rust_file(&root.join(dir), &mut |_, text| {
                sources.push(text.to_owned())
            });
        }
        let mut unset = Vec::new();
        for text in &sources {
            for (at, _) in text.match_indices("pub struct ") {
                let rest = &text[at + 11..];
                let name = &rest[..rest.find([' ', '{', '<', '(', ';']).unwrap_or(0)];
                if !(name.ends_with("Config") || name.ends_with("Params")) {
                    continue;
                }
                let fields = braced(text, at)
                    .lines()
                    .filter_map(|l| l.trim().strip_prefix("pub "));
                for field in fields.filter_map(|l| Some(l.split_once(':')?.0)) {
                    let own = |t| std::ptr::eq(t, text);
                    if !sources.iter().any(|t| sets(t, name, field, own(t))) {
                        unset.push(format!("{name}::{field}"));
                    }
                }
            }
        }
        assert!(unset.is_empty(), "nothing sets, so constants: {unset:?}");
    }

    #[test]
    fn count_ignores_non_rust() {
        let root = workspace_root();
        assert_eq!(count_lines(&[root.join("Cargo.toml")]), 0);
    }
}

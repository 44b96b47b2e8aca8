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

    /// Every `.rs` file under `dirs`, read once: the one source reader
    /// behind the config-field, public-surface and purity rules.
    fn sources(dirs: &[&str]) -> Vec<(PathBuf, String)> {
        let (root, mut files) = (workspace_root(), Vec::new());
        for dir in dirs {
            for_each_rust_file(&root.join(dir), &mut |path, text| {
                let path = path.strip_prefix(&root).expect("under the root");
                files.push((path.to_path_buf(), text.to_owned()));
            });
        }
        files
    }

    /// `text`'s code lines with every line and trailing `//` comment
    /// (docs included) removed.
    fn uncommented(text: &str) -> String {
        text.lines()
            .map(|line| line.split(" // ").next().unwrap_or(line).trim_end())
            .filter(|code| !code.trim_start().starts_with("//"))
            .flat_map(|code| [code, "\n"])
            .collect()
    }

    /// What ships of `text`: comments and every `#[cfg(test)]` item
    /// removed — as rustfmt lays items out, from the attribute to the
    /// first line that ends the item at the attribute's indentation.
    fn production(text: &str) -> String {
        let (mut out, mut in_test_item) = (String::new(), None);
        for code in uncommented(text).lines() {
            let indent = code.len() - code.trim_start().len();
            match in_test_item {
                None if code.trim_start() == "#[cfg(test)]" => in_test_item = Some(indent),
                None => out.extend([code, "\n"]),
                Some(at) if at == indent && code.ends_with([';', '}']) => in_test_item = None,
                Some(_) => {}
            }
        }
        out
    }

    /// How often `name` occurs in `text` as a whole identifier.
    fn mentions(text: &str, name: &str) -> usize {
        let ident = |c: char| c == '_' || c.is_alphanumeric();
        let whole = |&(i, _): &(usize, &str)| {
            !text[..i].ends_with(ident) && !text[i + name.len()..].starts_with(ident)
        };
        text.match_indices(name).filter(whole).count()
    }

    /// The rule of DESIGN.md "Configuration surface", kept from eroding:
    /// every `pub` field of a `pub struct *Config` / `*Params` is set by
    /// a caller somewhere in the tree, tests and the benchmark package
    /// included. A field only its default sets is a constant, not a knob.
    #[test]
    fn every_config_field_is_set_by_some_caller() {
        let sources = sources(&["crates", "src", "tests", "examples", "benchmark/src"]);
        let mut unset = Vec::new();
        for (_, text) in &sources {
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
                    if !sources.iter().any(|(_, t)| sets(t, name, field, own(t))) {
                        unset.push(format!("{name}::{field}"));
                    }
                }
            }
        }
        assert!(unset.is_empty(), "nothing sets, so constants: {unset:?}");
    }

    /// ROADMAP item 9, kept from eroding: a `pub fn` under `crates/*/src`
    /// is named somewhere besides its own definition and its own crate's
    /// `#[cfg(test)]` code — by shipped code anywhere, a `tests/`
    /// directory, or another crate's unit tests. A comment is not a
    /// caller. One that is not named is test scaffolding on the public
    /// surface (or dead): delete it, or move it into the test module
    /// that needs it.
    #[test]
    fn no_pub_fn_exists_only_for_its_own_crates_tests() {
        let sources = sources(&["crates", "src", "tests", "examples", "benchmark/src"]);
        let crate_of = |p: &Path| p.iter().nth(1).map(ToOwned::to_owned);
        let in_src = |p: &Path| p.starts_with("crates") && p.iter().nth(2) == Some("src".as_ref());
        // Per file: its code with tests (what another crate may call
        // from), and what ships of it (what its own crate may).
        let code: Vec<(&Path, String, String)> = sources
            .iter()
            .map(|(p, t)| (p.as_path(), uncommented(t), production(t)))
            .collect();
        let mut test_only = Vec::new();
        for (path, _, shipped) in code.iter().filter(|(p, ..)| in_src(p)) {
            for (at, _) in shipped.match_indices("pub fn ") {
                let rest = &shipped[at + 7..];
                let name = &rest[..rest.find(['(', '<']).unwrap_or(0)];
                let elsewhere = code.iter().any(|(p, with_tests, shipped)| {
                    let foreign = !in_src(p) || crate_of(p) != crate_of(path);
                    let text = if foreign { with_tests } else { shipped };
                    mentions(text, name) > usize::from(p == path)
                });
                if !elsewhere {
                    test_only.push(format!("{}::{name}", path.display()));
                }
            }
        }
        assert!(
            test_only.is_empty(),
            "only their own tests call: {test_only:#?}"
        );
    }

    /// The seam the pure cores stand on (DESIGN.md §6.5, §9.3, §10): each
    /// must stay steppable without a simulator, so nothing it ships may
    /// reach for one, for telemetry, for randomness or for a clock.
    #[test]
    fn cores_are_pure() {
        const CORES: [(&str, &str); 5] = [
            ("Replica", "crates/controller/src/replication.rs"),
            ("GrayBoard", "crates/controller/src/gray.rs"),
            ("PatchAcceptor", "crates/host/src/failure.rs"),
            ("GrayDetector", "crates/host/src/failure.rs"),
            ("RequestRetry", "crates/host/src/failure.rs"),
        ];
        let sources = sources(&["crates/controller/src", "crates/host/src"]);
        for (core, file) in CORES {
            let text = sources.iter().find(|(p, _)| p == Path::new(file));
            let code = production(&text.unwrap_or_else(|| panic!("{file} exists")).1);
            assert!(
                code.contains(&format!("pub struct {core}")),
                "{core} left {file}"
            );
            let crates = [
                "dumbnet_sim",
                "dumbnet_topology",
                "dumbnet_telemetry",
                "rand",
            ];
            for needle in crates.into_iter().chain(["Ctx", "ctx", "now()"]) {
                let clean = mentions(&code, needle) == 0;
                assert!(
                    clean,
                    "{core}: {file} mentions `{needle}` outside its tests"
                );
            }
        }
    }

    #[test]
    fn count_ignores_non_rust() {
        let root = workspace_root();
        assert_eq!(count_lines(&[root.join("Cargo.toml")]), 0);
    }
}

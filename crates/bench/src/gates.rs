//! The harness's one table: what a figure is, what a gate is, and the
//! one strict command line in front of both.
//!
//! [`FIGURES`] names every runnable artifact, [`GATES`] every pinned
//! expectation over them. The `figures` binary, CI
//! (`figures gate <row>`) and `cargo test` (the quick rows) all read
//! these two tables, so a checksum pin or a gate's flag set exists in
//! exactly one place.

use std::fmt::Display;

use crate::{
    chaos_soak, dpfuzz, fig07, fig08, fig08c, fig09, fig10, fig11, fig11c, fig11d, fig11e, fig12,
    fig13, fig14, perf, table1, table2,
};

const USAGE: &str = "\
usage: figures <name> [flags] | all [--quick] | gate <row> | list
flags: --quick --shards N --seed S --seeds N --cases N --hybrid --no-world
       --check-full-solve --check-determinism --json FILE --expect N";

/// A parsed command line: the union of the flags figures take. Numbers
/// are decimal or `0x` hex; a figure supplies the default of a flag it
/// takes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[allow(missing_docs)] // Each field is the flag of the same name.
pub struct Args {
    pub quick: bool,
    pub shards: Option<u32>,
    pub seed: Option<u64>,
    pub seeds: Option<u64>,
    pub cases: Option<u64>,
    pub hybrid: bool,
    pub no_world: bool,
    pub check_full_solve: bool,
    pub check_determinism: bool,
    pub json: Option<String>,
    pub expect: Option<u64>,
}

/// Why a command did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Process exit code: 2 for a usage error, 1 for a failed figure or
    /// gate.
    pub code: i32,
    /// What to print on stderr.
    pub text: String,
}

fn usage(why: impl Display) -> Failure {
    Failure {
        code: 2,
        text: format!("error: {why}\n{USAGE}"),
    }
}

impl Args {
    /// Parses `argv` for the figure `name`, which accepts `--quick` plus
    /// the flags listed in `takes`.
    ///
    /// # Errors
    ///
    /// A usage [`Failure`] naming the flag: unknown, not taken by this
    /// figure, missing its value, or given a non-numeric one.
    pub fn parse(name: &str, takes: &str, argv: &[String]) -> Result<Args, Failure> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| usage(format_args!("{flag} needs a value")))
            };
            let mut number = || {
                let v = value()?;
                v.strip_prefix("0x")
                    .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
                    .map_err(|_| usage(format_args!("{flag} needs a number, got {v:?}")))
            };
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--hybrid" => args.hybrid = true,
                "--no-world" => args.no_world = true,
                "--check-full-solve" => args.check_full_solve = true,
                "--check-determinism" => args.check_determinism = true,
                "--shards" => {
                    let n = u32::try_from(number()?);
                    args.shards = Some(n.map_err(|_| usage("--shards needs a 32-bit number"))?);
                }
                "--seed" => args.seed = Some(number()?),
                "--seeds" => args.seeds = Some(number()?),
                "--cases" => args.cases = Some(number()?),
                "--expect" => args.expect = Some(number()?),
                "--json" => args.json = Some(value()?.clone()),
                _ => return Err(usage(format_args!("unknown flag {flag}"))),
            }
            if flag != "--quick" && !takes.split(' ').any(|t| t == flag) {
                return Err(usage(format_args!("{name} does not take {flag}")));
            }
        }
        Ok(args)
    }
}

/// What running a figure produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Exactly the bytes the figure prints on stdout.
    pub stdout: String,
    /// The deterministic work fingerprint, for figures that have one.
    pub checksum: Option<u64>,
    /// The machine-readable document `--json FILE` writes.
    pub json: Option<String>,
    /// Set when the figure itself found a violation (exit 1).
    pub failure: Option<String>,
}

impl Outcome {
    /// An outcome that prints `body` and a newline.
    pub fn text(body: impl Display) -> Outcome {
        Outcome {
            stdout: format!("{body}\n"),
            ..Outcome::default()
        }
    }

    /// A violation the figure found itself.
    #[must_use]
    pub fn violation(why: String) -> Outcome {
        Outcome {
            failure: Some(why),
            ..Outcome::default()
        }
    }

    /// A figure that prints `body`, with its JSON document and checksum.
    fn checked(body: impl Display, json: String, checksum: u64) -> Outcome {
        Outcome {
            checksum: Some(checksum),
            json: Some(json),
            ..Outcome::text(body)
        }
    }
}

fn fig08c_outcome(a: &Args) -> Outcome {
    let fig = fig08c::sweep(a.quick);
    Outcome::checked(fig.report(), fig.to_json(), fig.checksum())
}

fn fig12_outcome(a: &Args) -> Outcome {
    let (report, checksum) = fig12::run(a.quick);
    Outcome {
        checksum: Some(checksum),
        ..Outcome::text(report)
    }
}

fn fig11e_outcome(a: &Args) -> Outcome {
    let fig = fig11e::sweep(a.quick);
    Outcome::checked(fig.to_json(), fig.to_json(), fig.checksum())
}

fn fig14_outcome(a: &Args) -> Outcome {
    let fig = fig14::sweep(a.quick, a.check_full_solve);
    Outcome::checked(fig.to_json(), fig.to_json(), fig.checksum())
}

/// A figure's harness.
pub type Run = fn(&Args) -> Outcome;

/// `(name, flags taken besides --quick, harness, one line for list)`.
/// The names are those of the former one-per-figure binaries.
pub type Figure = (&'static str, &'static str, Run, &'static str);

/// `figures all` runs the paper's own artifacts: this many leading rows
/// of [`FIGURES`], in the paper's order.
const PAPER_FIGURES: usize = 11;

/// Every runnable artifact.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    ("fig07_fpga_resources", "", |a| Outcome::text(fig07::run(a.quick)),
        "Fig. 7 + §7.1: FPGA resources vs. port count, FPGA latency"),
    ("table1_code_breakdown", "", |a| Outcome::text(table1::run(a.quick)),
        "Table 1: lines of code per subsystem, this repo vs. the paper"),
    ("fig08a_discovery_scale", "--shards",
        |a| Outcome::text(fig08::run_a_sharded(a.quick, a.shards.unwrap_or(1))),
        "Fig. 8(a) + §7.2.1: discovery time vs. network size"),
    ("fig08b_discovery_ports", "", |a| Outcome::text(fig08::run_b(a.quick)),
        "Fig. 8(b): discovery time vs. ports per switch (8x8x8 cube)"),
    ("fig09_throughput", "", |a| Outcome::text(fig09::run(a.quick)),
        "Fig. 9 + §7.2.2: single-host and aggregate leaf-to-leaf throughput"),
    ("fig10_latency_cdf", "", |a| Outcome::text(fig10::run(a.quick)),
        "Fig. 10: all-pairs ping RTT CDF, cold path caches"),
    ("table2_kernel_module", "", |a| Outcome::text(table2::measure(a.quick)),
        "Table 2: PathTable lookup / verify / find-path latency (host wall-clock)"),
    ("fig11a_notification_delay", "", |a| Outcome::text(fig11::run_a(a.quick)),
        "Fig. 11(a): failure-notification delay CDF"),
    ("fig11b_failover_vs_stp", "", |a| Outcome::text(fig11::run_b(a.quick)),
        "Fig. 11(b): recovery throughput, DumbNet vs. spanning tree"),
    ("fig12_pathgraph_size", "--expect", fig12_outcome,
        "Fig. 12: path-graph size vs. epsilon (Algorithm 1)"),
    ("fig13_hibench", "", |a| Outcome::text(fig13::run(a.quick)),
        "Fig. 13: HiBench-style job durations, TE vs. single path"),
    ("fig08c_batch_convergence", "--json --expect", fig08c_outcome,
        "ext: batched, pipelined control-plane sweep (report; JSON via --json)"),
    ("fig11c_chaos_recovery", "--shards",
        |a| Outcome::text(fig11c::run_c_sharded(a.quick, a.shards.unwrap_or(1))),
        "ext: recovery time vs. uniform packet loss (JSON)"),
    ("fig11d_controller_failover", "", |a| Outcome::text(fig11d::run_d(a.quick)),
        "ext: leader crash/partition to quorum takeover (JSON)"),
    ("fig11e_gray_recovery", "--json --expect", fig11e_outcome,
        "ext: gray-failure detection vs. binary keepalives (JSON)"),
    ("fig14_incast_mix", "--check-full-solve --json --expect", fig14_outcome,
        "ext: incast + elephant/mice mixes on the hybrid engine, fat-tree k=32 (JSON)"),
    ("chaos_soak", "--seeds --shards --hybrid", chaos_soak::run,
        "gate: crash/partition/gray-fault seed matrix over three controllers"),
    ("dp_fuzz", "--cases --seed --no-world --check-determinism", dpfuzz::figure,
        "gate: differential data-plane fuzz (switch vs. reference model vs. codecs)"),
    ("engine_forward_storm", "--expect", perf::storm,
        "hot path: packet storm down a switch chain, one world and 8 shards"),
    ("fig08a_fat_tree", "--expect", perf::discovery,
        "hot path: windowed (16) fat-tree discovery, k=20 (k=8 quick)"),
    ("fig10_path_service", "--expect", perf::path_service,
        "hot path: cold-cache ping mesh, path-graph service"),
    ("fig11c_chaos_p05", "--expect", perf::chaos_p05,
        "hot path: failure recovery at 5 % packet loss"),
    ("flowsim_churn", "--expect", perf::flow_churn,
        "hot path: flow-solver churn, incremental vs. full re-solve"),
    ("telemetry_determinism", "", perf::telemetry_determinism,
        "gate: two same-seed fabric boots serialize identical telemetry"),
    ("shard_determinism", "", perf::shard_determinism,
        "gate: storm and fabric boot byte-identical at 1 and 8 shards"),
];

/// What a gate row holds its figure to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The figure's checksum is exactly this.
    Checksum(u64),
    /// The figure reports no violation.
    Passes,
    /// As [`Expect::Passes`], and the `seed …` lines it prints are those
    /// of the named row.
    SeedLinesOf(&'static str),
}
use Expect::{Checksum, Passes, SeedLinesOf};

/// `(row, figure, args, expect)`.
pub type Gate = (&'static str, &'static str, &'static str, Expect);

/// Every pinned expectation; CI runs each as `figures gate <row>`.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    ("storm",               "engine_forward_storm",     "--quick", Checksum(180_009)),
    ("discovery",           "fig08a_fat_tree",          "--quick", Checksum(78_865)),
    ("fig08c",              "fig08c_batch_convergence", "--quick", Checksum(236_734)),
    ("fig12",               "fig12_pathgraph_size",     "--quick", Checksum(579_563_193_537_634_432)),
    ("path-service",        "fig10_path_service",       "",        Checksum(1_300)),
    ("chaos-p05",           "fig11c_chaos_p05",         "",        Checksum(7_168)),
    ("flow-churn",          "flowsim_churn",            "--quick", Checksum(350_028_950_212_709)),
    ("fig11e",              "fig11e_gray_recovery",     "--quick", Checksum(125_517_559)),
    ("fig14",               "fig14_incast_mix",         "--quick", Checksum(275_300_932)),
    ("telemetry",           "telemetry_determinism",    "",        Passes),
    ("shards",              "shard_determinism",        "",        Passes),
    ("dp-fuzz",             "dp_fuzz",    "--quick --check-determinism",    Passes),
    ("soak",                "chaos_soak", "--seeds 24",                     Passes),
    ("soak-sharded",        "chaos_soak", "--seeds 24 --shards 4",          SeedLinesOf("soak")),
    ("soak-hybrid",         "chaos_soak", "--seeds 24 --hybrid",            Passes),
    ("soak-hybrid-sharded", "chaos_soak", "--seeds 24 --hybrid --shards 4", SeedLinesOf("soak-hybrid")),
];

fn figure(name: &str) -> Result<&'static Figure, Failure> {
    let found = FIGURES.iter().find(|f| f.0 == name);
    found.ok_or_else(|| usage(format_args!("unknown figure {name} (see `figures list`)")))
}

fn gate(row: &str) -> Result<&'static Gate, Failure> {
    let found = GATES.iter().find(|g| g.0 == row);
    found.ok_or_else(|| usage(format_args!("unknown gate row {row} (see `figures list`)")))
}

/// A failure that names itself: which row, what ran, what was expected,
/// what came out, and the command line that reproduces it.
fn mismatch(row: &str, name: &str, argv: &str, expected: &str, got: &str) -> Failure {
    Failure {
        code: 1,
        text: format!(
            "gate {row} FAILED\n  figure:    {name}\n  args:      {argv}\n  \
             expected:  {expected}\n  got:       {got}\n  reproduce: cargo run \
             --release --offline -p dumbnet-bench --bin figures -- {name} {argv}"
        ),
    }
}

/// Runs one figure, emits its stdout, writes `--json FILE`, and holds it
/// to passing and — when `--expect` gives one — to a checksum.
fn hold(
    row: &str,
    &(name, takes, run, _): &Figure,
    argv: &[String],
    emit: &mut dyn FnMut(&str),
) -> Result<Outcome, Failure> {
    let args = Args::parse(name, takes, argv)?;
    let out = run(&args);
    emit(&out.stdout);
    if let (Some(path), Some(json)) = (&args.json, &out.json) {
        std::fs::write(path, format!("{json}\n")).map_err(|e| Failure {
            code: 1,
            text: format!("writing {path}: {e}"),
        })?;
    }
    let argv = argv.join(" ");
    if let Some(why) = &out.failure {
        return Err(mismatch(row, name, &argv, "no violation", why));
    }
    if let Some(want) = args.expect {
        let got = out
            .checksum
            .expect("only figures that yield a checksum take --expect");
        if got != want {
            let (want, got) = (format!("checksum {want}"), format!("checksum {got}"));
            return Err(mismatch(row, name, &argv, &want, &got));
        }
        eprintln!("{name} checksum ok ({got})");
    }
    Ok(out)
}

/// A row's command line: its args, and its checksum as `--expect`.
fn gate_argv(&(_, _, args, expect): &Gate) -> Vec<String> {
    let mut argv: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
    if let Checksum(want) = expect {
        argv.extend(["--expect".to_owned(), want.to_string()]);
    }
    argv
}

fn run_gate(gate_row: &Gate, emit: &mut dyn FnMut(&str)) -> Result<Outcome, Failure> {
    let &(row, name, args, expect) = gate_row;
    let out = hold(row, figure(name)?, &gate_argv(gate_row), emit)?;
    if let SeedLinesOf(other) = expect {
        let reference = run_gate(gate(other)?, emit)?;
        let seeds = |o: &Outcome| -> String {
            let lines = o.stdout.lines().filter(|l| l.starts_with("seed "));
            lines.fold(String::new(), |all, l| all + "\n" + l)
        };
        let (ours, theirs) = (seeds(&out), seeds(&reference));
        if ours != theirs {
            let expected = format!("the seed lines of row {other}:{theirs}");
            return Err(mismatch(row, name, args, &expected, &ours));
        }
    }
    eprintln!("gate {row} ok");
    Ok(out)
}

fn list() -> String {
    let mut out = String::from("figures:\n");
    for (name, takes, _, about) in FIGURES {
        let takes = format!("--quick {takes}");
        out += &format!("  {name:<27} {about}  [{}]\n", takes.trim_end());
    }
    out += "gates (figures gate <row>):\n";
    for (row, name, args, expect) in GATES {
        out += &format!("  {row:<20} {name} {args} -> {expect:?}\n");
    }
    out
}

/// The whole `figures` command line: `argv` without the program name,
/// stdout through `emit` (figure by figure, so `all` streams).
///
/// # Errors
///
/// A [`Failure`] carrying the exit code and the stderr text.
pub fn cli(argv: &[String], emit: &mut dyn FnMut(&str)) -> Result<(), Failure> {
    let (cmd, rest) = argv.split_first().ok_or_else(|| usage("nothing to run"))?;
    match (cmd.as_str(), rest) {
        ("list", []) => emit(&list()),
        ("list", _) => return Err(usage("list takes no arguments")),
        ("all", _) => {
            let args = Args::parse("all", "", rest)?;
            for (_, _, run, _) in &FIGURES[..PAPER_FIGURES] {
                emit(&run(&args).stdout);
            }
        }
        ("gate", [row]) => drop(run_gate(gate(row)?, emit)?),
        ("gate", _) => return Err(usage("gate takes exactly one row")),
        (name, _) => drop(hold("(command line)", figure(name)?, rest, emit)?),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &str) -> Result<String, Failure> {
        let argv: Vec<String> = argv.split_whitespace().map(str::to_owned).collect();
        let mut out = String::new();
        cli(&argv, &mut |text| out += text).map(|()| out)
    }

    #[test]
    fn valid_command_line_parses_and_runs() {
        let argv = ["--seeds", "0x10", "--shards", "4", "--hybrid"].map(str::to_owned);
        let want = Args {
            seeds: Some(16),
            shards: Some(4),
            hybrid: true,
            ..Args::default()
        };
        let got = Args::parse("chaos_soak", "--seeds --shards --hybrid", &argv);
        assert_eq!(got, Ok(want));
        let out = run("fig07_fpga_resources --quick").expect("runs");
        assert!(out.starts_with("== Figure 7"), "{out}");
    }

    #[test]
    fn each_violation_exits_2_naming_the_flag() {
        for (argv, error) in [
            ("chaos_soak --shard 4", "unknown flag --shard"),
            ("fig08a_discovery_scale --shards", "--shards needs a value"),
            ("chaos_soak --seeds eight", "--seeds needs a number, got"),
            (
                "fig09_throughput --expect 5",
                "fig09_throughput does not take",
            ),
            ("fig99_nothing", "unknown figure fig99_nothing"),
            ("gate nope", "unknown gate row nope"),
        ] {
            let failure = run(argv).expect_err(argv);
            assert_eq!(failure.code, 2, "{argv}");
            let named = failure.text.starts_with(&format!("error: {error}"));
            assert!(named, "{argv}: {}", failure.text);
        }
    }

    #[test]
    fn a_mismatch_names_row_expectation_result_and_reproducer() {
        let failure = run("fig11c_chaos_p05 --expect 1").expect_err("1 is not the checksum");
        assert_eq!(failure.code, 1);
        let text = failure.text;
        let head = "gate (command line) FAILED\n  figure:    fig11c_chaos_p05\n  \
                    args:      --expect 1\n  expected:  checksum 1\n  got:       checksum ";
        assert!(text.starts_with(head), "{text}");
        assert!(
            text.ends_with("--bin figures -- fig11c_chaos_p05 --expect 1"),
            "{text}"
        );
    }

    #[test]
    fn tables_are_consistent() {
        for (i, (name, ..)) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|f| f.0 != *name), "{name} twice");
        }
        assert!(!FIGURES[PAPER_FIGURES - 1].3.starts_with("ext:"));
        assert!(FIGURES[PAPER_FIGURES].3.starts_with("ext:"));
        for (i, &(row, name, _, expect)) in GATES.iter().enumerate() {
            assert!(GATES[..i].iter().all(|g| g.0 != row), "{row} twice");
            let &(_, takes, ..) = figure(name).expect(row);
            Args::parse(name, takes, &gate_argv(&GATES[i])).expect(row);
            if let SeedLinesOf(other) = expect {
                gate(other).expect(row);
            }
        }
    }

    #[test]
    fn ci_runs_every_row_and_pins_nothing_itself() {
        let yml = include_str!("../../../.github/workflows/ci.yml");
        for (row, ..) in GATES {
            let step = format!("--bin figures -- gate {row}\n");
            assert!(yml.contains(&step), "no CI step runs gate {row}");
        }
        assert!(!yml.contains("--expect"), "a checksum pin lives in ci.yml");
    }

    #[test]
    fn quick_rows_hold() {
        // Behaviour-preservation gate: an engine change must not alter
        // what the hot-path scenarios compute.
        for row in
            "storm discovery fig08c fig12 path-service chaos-p05 flow-churn telemetry".split(' ')
        {
            run(&format!("gate {row}")).unwrap_or_else(|failure| panic!("{}", failure.text));
        }
    }
}

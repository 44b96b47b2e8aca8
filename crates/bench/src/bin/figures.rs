//! The one harness binary: `figures <name> [flags]`, `figures all`,
//! `figures gate <row>`, `figures list` (see `dumbnet_bench::gates`).
//! Exits 2 on a usage error, 1 on a failed figure or gate.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failure) = dumbnet_bench::gates::cli(&argv, &mut |text| print!("{text}")) {
        eprintln!("{}", failure.text);
        std::process::exit(failure.code);
    }
}

//! The repo benchmark: six workloads, end-to-end host-time metrics and a
//! per-layer ledger measured from outside (see README.md).
//!
//! One process, one thread, closed loop. Three passes:
//!
//! * **timed** — tracing and allocation counting off; repetition 0 of
//!   every workload is warm-up, then repetitions run round-robin across
//!   the selected workloads so a slow phase of the host hits all alike;
//! * **counted / traced** — repetitions with the counting allocator on
//!   (peak heap, allocations per unit of work) and with benchmark-side
//!   spans on (where the time goes);
//! * **kernel** — isolated loops over single layers and slope runs.
//!
//! Invoked with `--workload W --seed N --seconds S --trace 0|1` it
//! measures one workload for about `S` seconds and ends its output with
//! one JSON line (the contract in `BENCHMARK.json`); invoked bare it
//! runs the full set with fixed work per workload.

mod alloc;
mod kernels;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use alloc::AllocCounts;
use stats::{summarize, Summary};
use trace::Tracer;
use workloads::{Rep, WorkUnit, Workload, PIN_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--reps N | --seconds S] \
                     [--trace 0|1] [--out FILE] [--self-check]";

/// How long the timed pass measures each workload.
#[derive(Clone, Copy)]
enum Length {
    /// A fixed number of repetitions (`None`: the workload's own).
    Reps(Option<usize>),
    /// Until the workload's repetitions have taken this many seconds.
    Seconds(f64),
}

/// Which metric families a run measures and prints: `--trace 0` the
/// end-to-end ones only, `--trace 1` the per-layer ones only, neither
/// flag both.
#[derive(Clone, Copy)]
pub struct Show {
    pub end_to_end: bool,
    pub per_layer: bool,
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    length: Length,
    show: Show,
    out: PathBuf,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::ALL.iter().collect(),
        seed: PIN_SEED,
        length: Length::Reps(None),
        show: Show {
            end_to_end: true,
            per_layer: true,
        },
        out: report::out_dir().join("report.json"),
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = workloads::by_name(&v).ok_or(format!("unknown workload {v}"))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--reps" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| bad(&v))?;
                if n == 0 {
                    return Err(bad(&v));
                }
                args.length = Length::Reps(Some(n));
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(&v));
                }
                args.length = Length::Seconds(s);
            }
            "--trace" => {
                let traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                };
                args.show = Show {
                    end_to_end: !traced,
                    per_layer: traced,
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--self-check" => args.self_check = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Fewest timed repetitions a time-limited run takes.
const MIN_REPS: usize = 3;
/// Share of `--seconds` a per-layer run spends on untraced reference
/// repetitions (the rest of its budget goes to the traced pass).
const REFERENCE_SHARE: f64 = 0.3;
/// Spans reserved up front, so that recording allocates nothing while a
/// repetition runs.
const SPAN_RESERVE: usize = 1 << 14;
/// Traced repetitions per workload; the fastest is reported.
const TRACED_REPS: usize = 2;

/// Everything measured for one workload in one set.
pub struct Run {
    pub w: &'static Workload,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    setup: Vec<f64>,
    wall: Vec<f64>,
    /// Seconds the timed repetitions have taken so far.
    spent: f64,
    /// First repetition: every later one must reproduce its checksum and
    /// exact values.
    reference: Option<Rep>,
    counted: Option<(Rep, AllocCounts)>,
    traced: Option<Rep>,
    pub tracer: Tracer,
    /// Filled by [`Run::finish`] once every pass has run.
    pub end_to_end: Values,
    pub per_layer: Values,
}

impl Run {
    fn new(w: &'static Workload) -> Run {
        Run {
            w,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup: Vec::new(),
            wall: Vec::new(),
            spent: 0.0,
            reference: None,
            counted: None,
            traced: None,
            tracer: Tracer::off(),
            end_to_end: Values::new(),
            per_layer: Values::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("FAIL {}: {what}", self.w.name);
        self.failures.push(what);
    }

    /// Runs one repetition and verifies it: invariants, the pinned
    /// checksum at the pin seed, and agreement with the first repetition
    /// on the checksum and on every exact value both report.
    fn attempt(&mut self, seed: u64, tr: &mut Tracer) -> Option<Rep> {
        self.attempted += 1;
        let rep = match catch_unwind(AssertUnwindSafe(|| (self.w.run)(seed, tr))) {
            Ok(rep) => rep,
            Err(_) => {
                tr.abandon_open_spans();
                self.fail("repetition panicked".to_owned());
                return None;
            }
        };
        let mut wrong = rep.broken.clone();
        if seed == PIN_SEED && rep.checksum != self.w.pin {
            wrong.push(format!(
                "checksum {:#018x} differs from the pin {:#018x}",
                rep.checksum, self.w.pin
            ));
        }
        if let Some(first) = &self.reference {
            if rep.checksum != first.checksum {
                wrong.push(format!(
                    "checksum {:#018x} differs from the first repetition's {:#018x}",
                    rep.checksum, first.checksum
                ));
            }
            for (name, v) in &rep.exact {
                let before = first.exact.iter().find(|(n, _)| n == name);
                if before.is_some_and(|(_, b)| b.to_bits() != v.to_bits()) {
                    wrong.push(format!("{name} = {v} differs between repetitions"));
                }
            }
        } else {
            self.reference = Some(rep.clone());
        }
        if wrong.is_empty() {
            Some(rep)
        } else {
            self.fail(wrong.join("; "));
            None
        }
    }

    fn timed_rep(&mut self, seed: u64, keep: bool) {
        if let Some(rep) = self.attempt(seed, &mut Tracer::off()) {
            if keep {
                self.spent += rep.setup_s + rep.wall_s;
                self.setup.push(rep.setup_s);
                self.wall.push(rep.wall_s);
            }
        }
    }

    /// One repetition with the allocator counting and spans off. With
    /// `twice`, a second one must report identical counts: the proof
    /// that the counts are exact.
    fn counted_pass(&mut self, seed: u64, twice: bool) {
        let count = |run: &mut Run| {
            alloc::start();
            let rep = run.attempt(seed, &mut Tracer::off());
            let counts = alloc::stop();
            rep.map(|r| (r, counts))
        };
        self.counted = count(self);
        if twice {
            let again = count(self);
            if let (Some((a, ac)), Some((b, bc))) = (&self.counted, &again) {
                let same = ac == bc
                    && (a.run_allocs, a.run_alloc_bytes) == (b.run_allocs, b.run_alloc_bytes);
                if !same {
                    self.fail(format!(
                        "allocation counts differ between two passes: {ac:?} vs {bc:?}"
                    ));
                }
            }
        }
    }

    /// [`TRACED_REPS`] repetitions with spans on, each into its own
    /// recorder; the fastest is kept, so that what is compared with the
    /// timed pass's minimum is again a minimum.
    fn traced_pass(&mut self, seed: u64) {
        for _ in 0..TRACED_REPS {
            let mut tr = Tracer::with_capacity(true, SPAN_RESERVE);
            tr.set_rep(self.attempted as u32);
            let open = tr.begin("rep");
            let Some(rep) = self.attempt(seed, &mut tr) else {
                continue;
            };
            tr.end(open);
            if self
                .traced
                .as_ref()
                .is_none_or(|best| rep.wall_s < best.wall_s)
            {
                (self.traced, self.tracer) = (Some(rep), tr);
            }
        }
    }

    pub fn wall(&self) -> Option<Summary> {
        (!self.wall.is_empty()).then(|| summarize(&self.wall))
    }

    pub fn setup(&self) -> Option<Summary> {
        (!self.setup.is_empty()).then(|| summarize(&self.setup))
    }

    /// Derives the metrics from what the passes measured.
    fn finish(&mut self, kernels: &Values) {
        self.end_to_end = self.measure_end_to_end();
        self.per_layer = self.measure_per_layer(kernels);
    }

    /// The end-to-end metrics (empty when the workload never completed a
    /// timed and a counted repetition).
    fn measure_end_to_end(&self) -> Values {
        let mut m = Values::new();
        if let (Some(wall), Some(setup), Some((_, counts))) =
            (self.wall(), self.setup(), &self.counted)
        {
            m.insert("wall_s", wall.min);
            m.insert("setup_s", setup.min);
            m.insert("peak_heap_mb", counts.peak_bytes as f64 / 1e6);
        }
        m
    }

    /// The per-layer metrics: every catalogue name, 0 where this
    /// workload never enters the layer.
    fn measure_per_layer(&self, kernels: &Values) -> Values {
        let mut m: Values = metrics::PER_LAYER
            .iter()
            .map(|&(n, _, _)| (n, 0.0))
            .collect();
        m.extend(kernels.iter().map(|(&n, &v)| (n, v)));
        m.insert(
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        let wall = self.wall();
        if let Some(w) = wall {
            m.insert("wall.median_s", w.median);
            m.insert("wall.q1_s", w.q1);
            m.insert("wall.q3_s", w.q3);
            m.insert("wall.samples", w.n as f64);
            m.insert(
                "wall.unresolved",
                f64::from(u8::from(w.spread() > stats::UNRESOLVED_SPREAD)),
            );
        }
        // Exact values: the traced repetition reports the most; fall
        // back to whichever repetition ran.
        let exact = self
            .traced
            .as_ref()
            .or(self.counted.as_ref().map(|c| &c.0))
            .or(self.reference.as_ref());
        for &(name, v) in exact.iter().flat_map(|r| &r.exact) {
            m.insert(name, v);
        }
        let events = m["sim.events"];
        let wall_min = wall.map_or(0.0, |w| w.min);
        if let Some((rep, _)) = &self.counted {
            let (allocs, bytes) = (rep.run_allocs as f64, rep.run_alloc_bytes as f64);
            if events > 0.0 {
                m.insert("sim.allocs_per_event", allocs / events);
                m.insert("sim.alloc_bytes_per_event", bytes / events);
            }
            match self.w.work_unit {
                WorkUnit::Probe => {
                    m.insert("controller.allocs_per_probe", allocs / rep.work as f64)
                }
                WorkUnit::Op => m.insert("sim.flowsim.allocs_per_op", allocs / rep.work as f64),
                WorkUnit::Event | WorkUnit::Solve => None,
            };
        }
        if self.w.work_unit == WorkUnit::Probe && wall_min > 0.0 {
            m.insert(
                "controller.ns_per_probe",
                wall_min * 1e9 / m["controller.probes_sent"],
            );
        }
        if let Some(rep) = &self.traced {
            let tr = &self.tracer;
            m.extend(rep.timed.iter().copied());
            let run_ms = (tr.total_ns("sim.run") + tr.total_ns("sim.inject")) / 1e6;
            m.insert("sim.run_ms", run_ms);
            if events > 0.0 {
                m.insert("sim.ns_per_event", run_ms * 1e6 / events);
            }
            for (metric, span) in [
                ("topology.generate_ms", "topology.generate"),
                ("core.fabric_build_ms", "core.fabric_build"),
                ("workload.plan_ms", "workload.plan"),
                ("workload.flowmap_build_ms", "workload.flowmap_build"),
                ("telemetry.snapshot_ms", "telemetry.snapshot"),
                ("telemetry.to_json_ms", "telemetry.to_json"),
            ] {
                m.insert(metric, tr.total_ns(span) / 1e6);
            }
            for (metric, span) in [
                ("sim.flowsim.start_us", "sim.flowsim.start"),
                ("sim.flowsim.reroute_us", "sim.flowsim.reroute"),
                ("sim.flowsim.advance_us", "sim.flowsim.advance"),
                ("sim.flowsim.capacity_us", "sim.flowsim.capacity"),
                ("sim.flowsim.rate_query_us", "sim.flowsim.rate_query"),
            ] {
                m.insert(metric, stats::median(&tr.durations(span)) / 1e3);
            }
            if wall_min > 0.0 {
                m.insert("trace.overhead_share", rep.wall_s / wall_min - 1.0);
                if m["fabric.cold_ms"] > 0.0 {
                    m.insert("fabric.steady_ms", wall_min * 1e3 - m["fabric.cold_ms"]);
                }
                let attributed: f64 = report::attribution(self.w, &m)
                    .iter()
                    .map(|a| a.share_of(wall_min))
                    .sum();
                m.insert("sim.unattributed_share", 1.0 - attributed);
            }
        }
        m
    }
}

/// One complete set: every selected workload through every pass.
fn run_set(args: &Args) -> Vec<Run> {
    let show = args.show;
    let mut runs: Vec<Run> = args.workloads.iter().map(|&w| Run::new(w)).collect();

    // Timed pass. Repetition 0 is warm-up.
    for run in &mut runs {
        run.timed_rep(args.seed, false);
    }
    let done = |run: &Run| match args.length {
        Length::Reps(n) => run.wall.len() >= n.unwrap_or(run.w.reps),
        Length::Seconds(s) => {
            let budget = if show.end_to_end {
                s
            } else {
                s * REFERENCE_SHARE
            };
            run.wall.len() >= MIN_REPS && run.spent >= budget
        }
    };
    loop {
        let mut ran = false;
        for run in &mut runs {
            // A workload that keeps failing stops after its quota of
            // attempts instead of spinning.
            if !done(run) && run.failed < 3 {
                run.timed_rep(args.seed, true);
                ran = true;
            }
        }
        if !ran {
            break;
        }
    }

    for run in &mut runs {
        run.counted_pass(args.seed, show.per_layer);
        if show.per_layer {
            run.traced_pass(args.seed);
        }
        // Once per set, outside any timed region: the workload against a
        // second implementation of the same results.
        if let (Some(check), Some(first)) = (run.w.cross_check, &run.reference) {
            run.attempted += 1;
            if let Err(e) = check(args.seed, first.checksum) {
                run.fail(e);
            }
        }
    }
    let kernels = if show.per_layer {
        kernels::run(args.seed)
    } else {
        Values::new()
    };
    for run in &mut runs {
        run.finish(&kernels);
    }
    runs
}

/// Compares two sets of the same code: every gated end-to-end metric
/// within its own bound, every exact value identical, nothing
/// unresolved. Returns the disagreements, naming workload and metric.
fn self_check(a: &[Run], b: &[Run]) -> Vec<String> {
    let mut bad = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let name = ra.w.name;
        let (ea, eb) = (&ra.end_to_end, &rb.end_to_end);
        for m in &metrics::END_TO_END {
            match (ea.get(m.name), eb.get(m.name)) {
                (Some(&x), Some(&y)) => {
                    let worse = (x.max(y) - x.min(y)) / x.min(y);
                    if worse > m.bound {
                        bad.push(format!(
                            "{name} {}: {x} vs {y} differ by {:.1} % (bound {:.0} %)",
                            m.name,
                            worse * 1e2,
                            m.bound * 1e2
                        ));
                    }
                }
                _ => bad.push(format!("{name} {}: not measured", m.name)),
            }
        }
        let exact = |r: &Run| r.traced.as_ref().map(|t| t.exact.clone());
        if exact(ra) != exact(rb) {
            bad.push(format!("{name}: exact values differ between the two sets"));
        }
        let counts = |r: &Run| r.counted.as_ref().map(|c| (c.1, c.0.run_allocs));
        if counts(ra) != counts(rb) {
            bad.push(format!(
                "{name}: allocation counts differ between the two sets"
            ));
        }
        for r in [ra, rb] {
            if r.wall()
                .is_some_and(|w| w.spread() > stats::UNRESOLVED_SPREAD)
            {
                bad.push(format!(
                    "{name} wall_s: unresolved (spread above {})",
                    stats::UNRESOLVED_SPREAD
                ));
            }
        }
    }
    bad
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = run_set(&args);
    let mut ok = report::print(&set, args.show);
    if args.self_check {
        let second = run_set(&args);
        ok &= report::print(&second, args.show);
        let bad = self_check(&set, &second);
        for line in &bad {
            eprintln!("SELF-CHECK {line}");
        }
        println!(
            "self-check: {}",
            if bad.is_empty() {
                "two sets agree"
            } else {
                "FAILED"
            }
        );
        ok &= bad.is_empty();
    }
    if let Err(e) = report::write_files(&set, &args.out, args.show, args.seed) {
        eprintln!("cannot write the report: {e}");
        ok = false;
    }
    // The contract's result line: one workload, last line of stdout.
    if let [run] = set.as_slice() {
        println!("{}", report::result_line(run, args.show));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

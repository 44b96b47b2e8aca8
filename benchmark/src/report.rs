//! Output: the `workload metric value unit` lines, the "where the time
//! goes" tables, the JSON report, the Chrome traces and the contract's
//! result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::metrics::{self, unit_of};
use crate::trace;
use crate::workloads::Workload;
use crate::{Run, Show, Values};

/// `benchmark/out/` of the checkout this binary was built in
/// (git-ignored; the only place the benchmark writes).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One row of the outside estimate: a kernel's unit cost times the
/// number of times the workload's own counters say the layer ran.
pub struct Attribution {
    pub kernel: &'static str,
    pub count: f64,
    pub cost_ns: f64,
}

impl Attribution {
    /// Share of a `wall_s`-second run this layer accounts for — the most
    /// a faster layer could save.
    pub fn share_of(&self, wall_s: f64) -> f64 {
        self.count * self.cost_ns / (wall_s * 1e9)
    }
}

/// The workload's attribution rows, priced with the measured kernels.
pub fn attribution(w: &Workload, m: &Values) -> Vec<Attribution> {
    (w.attribute)(m)
        .into_iter()
        .map(|(kernel, count)| {
            let ns_per_unit = match unit_of(kernel) {
                "ns" => 1.0,
                "us" => 1e3,
                "ms" => 1e6,
                unit => panic!("kernel {kernel} is not a host time: {unit}"),
            };
            Attribution {
                kernel,
                count,
                cost_ns: m[kernel] * ns_per_unit,
            }
        })
        .collect()
}

/// A number for humans: six significant digits.
fn short(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

/// Prints every metric as `workload metric value unit`, then the
/// per-workload attribution tables. Returns whether the set is correct.
pub fn print(set: &[Run], show: Show) -> bool {
    let mut ok = true;
    for run in set {
        let name = run.w.name;
        if show.end_to_end {
            for (&metric, &v) in &run.end_to_end {
                println!("{name} {metric} {} {}", short(v), unit_of(metric));
            }
            // The spread behind the gated minima, always visible.
            for (label, s) in [("wall_s", run.wall()), ("setup_s", run.setup())] {
                if let Some(s) = s {
                    println!(
                        "{name} {label}.spread min {} q1 {} median {} q3 {} n {}{}",
                        short(s.min),
                        short(s.q1),
                        short(s.median),
                        short(s.q3),
                        s.n,
                        if s.spread() > crate::stats::UNRESOLVED_SPREAD {
                            " UNRESOLVED"
                        } else {
                            ""
                        }
                    );
                }
            }
        }
        if show.per_layer {
            for (&metric, &v) in &run.per_layer {
                println!("{name} {metric} {} {}", short(v), unit_of(metric));
            }
        }
        println!(
            "{name} verification {}/{} repetitions correct",
            run.attempted - run.failed,
            run.attempted
        );
        ok &= run.failed == 0 && !run.end_to_end.is_empty();
    }
    if show.per_layer {
        for run in set {
            print!("{}", time_table(run));
        }
    }
    ok
}

/// "Where the time goes (outside estimate)" for one workload: self time
/// of the benchmark-side spans of the traced repetition, then each
/// applicable kernel multiplied out by the workload's own counts.
fn time_table(run: &Run) -> String {
    let m = &run.per_layer;
    let mut out = format!(
        "\n{} — where the time goes (outside estimate)\n",
        run.w.name
    );
    let spans = run.tracer.spans();
    let rep_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::dur_ns)
        .sum();
    let _ = writeln!(
        out,
        "  {:<28} {:>12} {:>8} {:>8}",
        "span (self time)", "ms", "share", "calls"
    );
    for (name, self_ns, calls) in trace::self_time_by_name(spans) {
        let _ = writeln!(
            out,
            "  {:<28} {:>12.3} {:>7.1}% {:>8}",
            name,
            self_ns as f64 / 1e6,
            self_ns as f64 * 1e2 / rep_ns.max(1) as f64,
            calls
        );
    }
    let wall = m["wall.median_s"].min(run.wall().map_or(f64::MAX, |w| w.min));
    let _ = writeln!(
        out,
        "  {:<28} {:>12} {:>12} {:>8}",
        "kernel x count", "count", "ns each", "of wall"
    );
    for a in attribution(run.w, m) {
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12.1} {:>7.1}%",
            a.kernel,
            a.count,
            a.cost_ns,
            a.share_of(wall) * 1e2
        );
    }
    let _ = writeln!(
        out,
        "  sim.unattributed_share {:.3}   trace.overhead_share {:.4}",
        m["sim.unattributed_share"], m["trace.overhead_share"]
    );
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (shortest form that round-trips).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
fn json_metrics(values: &Values) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(name, &v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(v),
                json_string(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The metrics a run reports under `show`.
fn selected(run: &Run, show: Show) -> Values {
    let mut values = Values::new();
    if show.end_to_end {
        values.extend(&run.end_to_end);
    }
    if show.per_layer {
        values.extend(&run.per_layer);
    }
    values
}

/// The contract's result line for a one-workload run.
pub fn result_line(run: &Run, show: Show) -> String {
    let complete = !show.end_to_end || run.end_to_end.len() == metrics::END_TO_END.len();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0 && complete,
        run.attempted,
        run.failed,
        json_metrics(&selected(run, show))
    )
}

/// Writes the JSON report to `out` and, after a traced pass, one
/// Chrome trace per workload to `benchmark/out/trace-<workload>.json`.
pub fn write_files(set: &[Run], out: &Path, show: Show, seed: u64) -> std::io::Result<()> {
    let rows: Vec<String> = set
        .iter()
        .map(|run| {
            let failures: Vec<String> = run.failures.iter().map(|f| json_string(f)).collect();
            let spread = |s: Option<crate::stats::Summary>| {
                s.map_or("null".to_owned(), |s| {
                    format!(
                        "{{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"samples\": {}, \"unresolved\": {}}}",
                        json_number(s.min),
                        json_number(s.q1),
                        json_number(s.median),
                        json_number(s.q3),
                        s.n,
                        s.spread() > crate::stats::UNRESOLVED_SPREAD
                    )
                })
            };
            format!(
                "    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}],\n     \
                 \"wall_s\": {}, \"setup_s\": {},\n     \"metrics\": {}}}",
                json_string(run.w.name),
                run.attempted,
                run.failed,
                failures.join(", "),
                spread(run.wall()),
                spread(run.setup()),
                json_metrics(&selected(run, show))
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"seed\": {seed},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, doc)?;
    if show.per_layer {
        std::fs::create_dir_all(out_dir())?;
        for run in set {
            let path = out_dir().join(format!("trace-{}.json", run.w.name));
            std::fs::write(
                path,
                trace::chrome_trace_json(run.w.name, run.tracer.spans()),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_strings_are_escaped() {
        assert_eq!(json_number(1.203_456_789_012), "1.203456789012");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(5_400_009.0), "5400009");
        assert_eq!(short(0.001_234_567_89), "0.00123457");
        assert_eq!(short(123.456_789), "123.457");
    }

    #[test]
    fn attribution_share_is_count_times_cost_over_wall() {
        let a = Attribution {
            kernel: "sim.queue.near_ns_per_op",
            count: 1e6,
            cost_ns: 100.0,
        };
        assert!((a.share_of(1.0) - 0.1).abs() < 1e-12);
        assert!((a.share_of(0.5) - 0.2).abs() < 1e-12);
    }
}

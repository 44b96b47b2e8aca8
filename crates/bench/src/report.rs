//! Plain-text report building and the one JSON emitter, shared by all
//! harnesses.

use dumbnet_types::SimDuration;

/// A formatted experiment report: a title, free-form preamble lines, and
/// an aligned table.
#[derive(Debug, Default, Clone)]
pub struct Report {
    title: String,
    notes: Vec<String>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report.
    #[must_use]
    pub fn new(title: &str) -> Report {
        Report {
            title: title.to_owned(),
            ..Report::default()
        }
    }

    /// Adds a preamble line.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Report {
        self.notes.push(line.into());
        self
    }

    /// Sets the column headers.
    pub fn header<I, S>(&mut self, cols: I) -> &mut Report
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Adds a data row.
    pub fn row<I, S>(&mut self, cols: I) -> &mut Report
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cols.into_iter().map(Into::into).collect());
        self
    }

    /// Adds a separator row.
    pub fn rule(&mut self) -> &mut Report {
        self.rows.push(vec!["--".to_owned()]);
        self
    }

    /// Renders the report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        if self.header.is_empty() && self.rows.is_empty() {
            return out;
        }
        out.push('\n');
        // Column widths over header + rows.
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            if row.len() < 2 {
                continue; // Separator or empty.
            }
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let render_row = |row: &[String]| -> String {
            if row.len() == 1 && row[0] == "--" {
                let total: usize = width.iter().sum::<usize>() + 2 * width.len().saturating_sub(1);
                return "-".repeat(total);
            }
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_owned()
        };
        if !self.header.is_empty() {
            out.push_str(&render_row(&self.header));
            out.push('\n');
            out.push_str(&render_row(&[String::from("--")]));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with `digits` decimals.
#[must_use]
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// A scalar in a figure's JSON document. Output is a pure function of
/// the value: no maps, no host clocks, floats at a stated precision.
#[derive(Debug, Clone, Copy)]
pub enum Json<'a> {
    /// An unsigned integer.
    Int(u64),
    /// A float printed with this many decimals.
    Float(f64, usize),
    /// `true` / `false`.
    Bool(bool),
    /// A quoted string (`"` and `\` escaped).
    Str(&'a str),
    /// `null`, for an absent measurement.
    Null,
}

impl Json<'_> {
    /// A duration as milliseconds at three decimals; `null` when absent.
    #[must_use]
    pub fn millis(d: Option<SimDuration>) -> Json<'static> {
        d.map_or(Json::Null, |d| Json::Float(d.as_secs_f64() * 1e3, 3))
    }
}

impl std::fmt::Display for Json<'_> {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Json::Int(v) => write!(out, "{v}"),
            Json::Float(v, digits) => write!(out, "{v:.digits$}"),
            Json::Bool(v) => write!(out, "{v}"),
            Json::Str(v) => write!(out, "\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
            Json::Null => out.write_str("null"),
        }
    }
}

/// One flat object on one line, fields in the order given.
#[must_use]
pub fn json_object(fields: &[(&str, Json<'_>)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The figure envelope: the `head` scalars one per line, then each named
/// array of [`json_object`] lines.
#[must_use]
pub fn json_document(head: &[(&str, Json<'_>)], arrays: &[(&str, Vec<String>)]) -> String {
    let mut members: Vec<String> = head
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    for (name, objects) in arrays {
        let lines: Vec<String> = objects.iter().map(|o| format!("    {o}")).collect();
        members.push(format!("  \"{name}\": [\n{}\n  ]", lines.join(",\n")));
    }
    format!("{{\n{}\n}}", members.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("demo");
        r.note("a note");
        r.header(["col", "value"]);
        r.row(["short", "1"]);
        r.row(["a-longer-cell", "22"]);
        let s = r.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a note"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows align on the same column start.
        let col2 = lines
            .iter()
            .filter(|l| l.contains("22") || l.contains("value"))
            .map(|l| l.find(['2', 'v']).unwrap())
            .collect::<Vec<_>>();
        assert!(col2.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn json_emitter_covers_every_value_kind() {
        let point = json_object(&[
            ("n", Json::Int(7)),
            ("ms", Json::Float(1.23456, 3)),
            ("whole", Json::Float(99.6, 0)),
            ("ok", Json::Bool(true)),
            ("who", Json::Str("a \"b\" \\ c")),
            ("gone", Json::Null),
        ]);
        assert_eq!(
            point,
            r#"{"n": 7, "ms": 1.235, "whole": 100, "ok": true, "who": "a \"b\" \\ c", "gone": null}"#
        );
        let doc = json_document(
            &[("figure", Json::Str("x")), ("checksum", Json::Int(3))],
            &[("series", vec![point.clone(), "{}".to_owned()])],
        );
        let want = format!(
            "{{\n  \"figure\": \"x\",\n  \"checksum\": 3,\n  \"series\": [\n    {point},\n    {{}}\n  ]\n}}"
        );
        assert_eq!(doc, want);
    }

    #[test]
    fn empty_report_is_title_only() {
        let r = Report::new("t");
        assert_eq!(r.render(), "== t ==\n");
    }
}

//! Pluggable result emitters: ASCII tables, CSV, and JSON Lines.
//!
//! The ASCII helpers ([`render_table`], [`fmt_secs`]) are the ones the
//! bench binaries have always shared (formerly in `tsbus_bench`; they
//! moved here so campaign reports and hand-rolled figures format
//! identically). The [`Emitter`] implementations render a whole
//! [`CampaignReport`] in long format — one row per
//! `(point, replication)` — with the JSONL output canonical and sorted,
//! so two runs of the same campaign compare byte-for-byte no matter how
//! many threads executed them.

use crate::json::Json;
use crate::run::CampaignReport;
use std::fmt::Write as _;

/// Renders an ASCII table: a header row plus data rows, columns padded to
/// the widest cell.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
///
/// # Examples
///
/// ```
/// let table = tsbus_lab::render_table(
///     &["x", "y"],
///     &[vec!["1".into(), "2".into()]],
/// );
/// assert!(table.contains("| 1 | 2 |"));
/// ```
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        let mut line = String::from("|");
        for (w, cell) in widths.iter().zip(cells) {
            let _ = write!(line, " {cell:<w$} |");
        }
        out.push_str(&line);
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    write_row(&mut out, &header_cells);
    let mut rule = String::from("|");
    for w in &widths {
        let _ = write!(rule, "{:-<1$}|", "", w + 2);
    }
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Formats seconds with a sensible precision for report tables.
#[must_use]
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

/// Renders a [`CampaignReport`] to a string in some format.
pub trait Emitter {
    /// Renders the report.
    fn format<P>(&self, report: &CampaignReport<P>) -> String;
    /// Conventional file extension (without the dot).
    fn extension(&self) -> &'static str;
}

/// Long-format ASCII table: point key, replication, then one column per
/// metric of the first record.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsciiEmitter;

/// RFC-4180-flavored CSV, same long format as [`AsciiEmitter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvEmitter;

/// Canonical JSON Lines: one object per `(point, replication)` in
/// campaign order — the format the determinism tests compare.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonlEmitter;

fn metric_columns<P>(report: &CampaignReport<P>) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    for point in &report.points {
        for rep in &point.reps {
            for name in rep.names() {
                if !cols.iter().any(|c| c == name) {
                    cols.push(name.to_owned());
                }
            }
        }
    }
    cols
}

fn cell_text(value: Option<&Json>) -> String {
    match value {
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.encode(),
    }
}

impl Emitter for AsciiEmitter {
    fn format<P>(&self, report: &CampaignReport<P>) -> String {
        let cols = metric_columns(report);
        let mut header: Vec<&str> = vec!["point", "rep"];
        header.extend(cols.iter().map(String::as_str));
        let mut rows = Vec::new();
        for point in &report.points {
            for (rep_idx, rep) in point.reps.iter().enumerate() {
                let json = rep.to_json();
                let mut row = vec![point.key.clone(), rep_idx.to_string()];
                row.extend(cols.iter().map(|c| cell_text(json.get(c))));
                rows.push(row);
            }
        }
        render_table(&header, &rows)
    }

    fn extension(&self) -> &'static str {
        "txt"
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

impl Emitter for CsvEmitter {
    fn format<P>(&self, report: &CampaignReport<P>) -> String {
        let cols = metric_columns(report);
        let mut out = String::from("point,replication");
        for c in &cols {
            out.push(',');
            out.push_str(&csv_escape(c));
        }
        out.push('\n');
        for point in &report.points {
            for (rep_idx, rep) in point.reps.iter().enumerate() {
                let json = rep.to_json();
                let _ = write!(out, "{},{rep_idx}", csv_escape(&point.key));
                for c in &cols {
                    out.push(',');
                    out.push_str(&csv_escape(&cell_text(json.get(c))));
                }
                out.push('\n');
            }
        }
        out
    }

    fn extension(&self) -> &'static str {
        "csv"
    }
}

impl Emitter for JsonlEmitter {
    fn format<P>(&self, report: &CampaignReport<P>) -> String {
        let mut out = String::new();
        for point in &report.points {
            for (rep_idx, rep) in point.reps.iter().enumerate() {
                let line = Json::Obj(vec![
                    ("campaign".into(), Json::Str(report.name.clone())),
                    ("point".into(), Json::Str(point.key.clone())),
                    ("replication".into(), Json::from(rep_idx as u64)),
                    ("metrics".into(), rep.to_json()),
                ]);
                out.push_str(&line.encode());
                out.push('\n');
            }
        }
        out
    }

    fn extension(&self) -> &'static str {
        "jsonl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::run::{run_campaign, Campaign, ExecOpts};

    fn report() -> CampaignReport<i64> {
        let campaign = Campaign::new("emit-test", vec![1i64, 2]).with_replications(2);
        run_campaign(
            &campaign,
            &ExecOpts::serial(),
            |p| format!("p={p}"),
            |p, ctx| {
                #[allow(clippy::cast_precision_loss)]
                Metrics::new()
                    .f64("v", *p as f64)
                    .u64("seed", ctx.seed)
                    .str("tag", "a,b")
            },
        )
        .expect("toy campaign")
    }

    #[test]
    fn table_pads_columns() {
        let t = render_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| name   | v  |"));
        assert!(lines[2].contains("| a      | 1  |"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn seconds_formatting_scales() {
        assert_eq!(fmt_secs(140.2), "140s");
        assert_eq!(fmt_secs(5.25), "5.2s");
        assert_eq!(fmt_secs(0.0042), "4.20ms");
        assert_eq!(fmt_secs(0.0000042), "4.2µs");
    }

    #[test]
    fn ascii_long_format() {
        let text = AsciiEmitter.format(&report());
        assert!(text.starts_with("| point"), "{text}");
        assert_eq!(text.lines().count(), 2 + 4, "{text}");
        assert!(text.contains("| p=2"));
    }

    #[test]
    fn csv_escapes_commas() {
        let text = CsvEmitter.format(&report());
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("point,replication,v,seed,tag"));
        assert!(text.contains("\"a,b\""), "{text}");
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let text = JsonlEmitter.format(&report());
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v = Json::parse(line).expect("valid JSON");
            assert_eq!(v.get("campaign").and_then(Json::as_str), Some("emit-test"));
            assert!(v.get("metrics").is_some());
        }
    }

    #[test]
    fn extensions() {
        assert_eq!(AsciiEmitter.extension(), "txt");
        assert_eq!(CsvEmitter.extension(), "csv");
        assert_eq!(JsonlEmitter.extension(), "jsonl");
    }
}

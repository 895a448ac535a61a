//! Shared harness utilities for the experiment binaries (E1–E10).
//!
//! Every binary regenerates one theorem-derived table/figure (see
//! `DESIGN.md` §4) and prints it as a markdown table with the theory
//! prediction next to the measurement; `EXPERIMENTS.md` records the
//! outputs. This crate holds the shared glue: markdown rendering, small
//! statistics, worst-case aggregation over query grids, the
//! environment-variable quick mode, and the one comparator behind
//! `annsctl bench-gate` ([`gate`]).
//!
//! # Example
//!
//! ```
//! use anns_bench::MarkdownTable;
//!
//! let mut table = MarkdownTable::new(&["k", "probes"]);
//! table.row(vec!["2".into(), "14".into()]);
//! let rendered = table.render();
//! assert!(rendered.contains("probes"));
//! assert!(rendered.lines().count() >= 3, "header, rule, row");
//! ```

use anns_cellprobe::ProbeLedger;

pub mod gate;
pub mod server_bench;

/// The shared hot-set workload generator, re-exported from
/// `anns_engine::testkit` so the engine's equivalence tests, `annsctl
/// serve`/`bench-serve`, and the criterion benches all draw the *same*
/// traffic shape from the same seed.
pub use anns_engine::testkit::hot_set_workload;

/// A printable markdown table.
pub struct MarkdownTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        MarkdownTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum; 0 for empty input.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(0.0, f64::max)
}

/// Worst-case ledger over a set of runs: element-wise per-round maxima.
/// Upper-bounds every run's round widths, but **over-counts totals** when
/// runs finish at different round indices — use [`worst_totals`] for the
/// worst-case probe/round totals the paper's bounds describe.
pub fn worst_ledger(ledgers: &[ProbeLedger]) -> ProbeLedger {
    ledgers
        .iter()
        .fold(ProbeLedger::default(), |acc, l| acc.worst_case(l))
}

/// Worst-case totals over a set of runs: `(max total probes, max rounds,
/// max single-round width)`.
pub fn worst_totals(ledgers: &[ProbeLedger]) -> (usize, usize, usize) {
    let probes = ledgers
        .iter()
        .map(ProbeLedger::total_probes)
        .max()
        .unwrap_or(0);
    let rounds = ledgers.iter().map(ProbeLedger::rounds).max().unwrap_or(0);
    let width = ledgers
        .iter()
        .map(ProbeLedger::max_round_probes)
        .max()
        .unwrap_or(0);
    (probes, rounds, width)
}

/// Quick mode: set `ANNS_QUICK=1` to shrink experiment grids (used by the
/// smoke tests and by `cargo bench` pre-flight).
pub fn quick_mode() -> bool {
    std::env::var("ANNS_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Scales a trial count down in quick mode.
pub fn trials(full: usize) -> usize {
    if quick_mode() {
        (full / 8).max(2)
    } else {
        full
    }
}

/// Prints the standard experiment header.
pub fn experiment_header(id: &str, reproduces: &str) {
    println!("# {id} — {reproduces}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_aligns_columns() {
        let mut t = MarkdownTable::new(&["k", "probes"]);
        t.row(vec!["1".into(), "1234".into()]);
        t.row(vec!["12".into(), "5".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| k |") || lines[0].contains("|  k |"));
        assert!(lines[1].starts_with("|-") || lines[1].starts_with("| -"));
        // All lines same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn row_width_is_enforced() {
        let mut t = MarkdownTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
    }

    #[test]
    fn worst_ledger_is_elementwise_max() {
        let a = ProbeLedger {
            per_round: vec![2, 3],
            ..ProbeLedger::default()
        };
        let b = ProbeLedger {
            per_round: vec![4],
            ..ProbeLedger::default()
        };
        let w = worst_ledger(&[a.clone(), b.clone()]);
        assert_eq!(w.per_round, vec![4, 3]);
        // Totals must come from worst_totals, not the element-wise max
        // (which would report 7 > max(5, 4)).
        let (probes, rounds, width) = worst_totals(&[a, b]);
        assert_eq!(probes, 5);
        assert_eq!(rounds, 2);
        assert_eq!(width, 4);
    }

    #[test]
    fn trials_scale_in_quick_mode() {
        // Can't mutate the environment safely in parallel tests; just check
        // the arithmetic of both branches.
        assert!(trials(64) == 64 || trials(64) == 8);
    }
}

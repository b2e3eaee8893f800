//! Plain-text table rendering for experiment results.

use std::fmt;

use hbc_probe::{ProbeRegistry, Stage, StallBreakdown};

/// A simple aligned text table, the output format of every experiment
/// driver.
///
/// # Example
///
/// ```
/// use hbc_core::report::Table;
///
/// let mut t = Table::new("demo", &["size", "ipc"]);
/// t.push(vec!["32K".into(), "1.81".into()]);
/// let text = t.to_string();
/// assert!(text.contains("demo") && text.contains("1.81"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width must match headers");
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, for programmatic access.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders as comma-separated values (headers first).
    pub fn to_csv(&self) -> String {
        let _span = crate::spans::enter(Stage::FigureReport);
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let _span = crate::spans::enter(Stage::FigureReport);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let header: Vec<String> =
            self.headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
        writeln!(f, "{}", header.join("  "))?;
        writeln!(f, "{}", "-".repeat(header.join("  ").len()))?;
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Renders a [`ProbeRegistry`] snapshot as a two-column table: every
/// counter by name, then every histogram summarized as
/// `count/mean/min..max`.
///
/// # Example
///
/// ```
/// use hbc_core::report::probe_table;
/// use hbc_probe::{Probe, ProbeRegistry};
///
/// let mut reg = ProbeRegistry::new();
/// reg.set(Probe::MemLbHits, 9);
/// let t = probe_table(&reg);
/// assert!(t.to_string().contains("mem.lb.hits"));
/// ```
pub fn probe_table(reg: &ProbeRegistry) -> Table {
    let mut t = Table::new("probes", &["probe", "value"]);
    for (probe, value) in reg.counters() {
        t.push(vec![probe.name().to_string(), value.to_string()]);
    }
    for (probe, h) in reg.histograms() {
        t.push(vec![
            probe.name().to_string(),
            format!("n={} mean={} range={}..{}", h.count(), fmt_f(h.mean(), 2), h.min(), h.max()),
        ]);
    }
    t
}

/// Renders a [`StallBreakdown`] as a cause/cycles/share table, with a
/// trailing total row. Shares are fractions of the charged cycles, so they
/// sum to 100% whenever the attribution ran.
pub fn stall_table(stall: &StallBreakdown) -> Table {
    let mut t = Table::new("stall breakdown", &["cause", "cycles", "share"]);
    for (cause, cycles) in stall.iter() {
        t.push(vec![cause.label().to_string(), cycles.to_string(), fmt_pct(stall.fraction(cause))]);
    }
    t.push(vec!["total".to_string(), stall.total().to_string(), fmt_pct(1.0)]);
    t
}

/// Formats a float with `prec` decimals (experiment cell helper).
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a ratio as a percentage with two decimals.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("t", &["a", "bbbb"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.starts_with("t\n"));
        assert!(s.contains("  a  bbbb"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("t", &["x", "y"]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rejected() {
        let mut t = Table::new("t", &["x", "y"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.1234), "12.34%");
    }

    #[test]
    fn probe_table_lists_counters_and_histograms() {
        use hbc_probe::{Histogram, HistogramProbe, Probe};
        let mut reg = ProbeRegistry::new();
        reg.set(Probe::CpuRunCycles, 100);
        let mut width = Histogram::default();
        width.record_n(4, 10);
        reg.set_histogram(HistogramProbe::CpuIssueWidthUsed, width);
        let t = probe_table(&reg);
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(s.contains("cpu.run.cycles") && s.contains("100"));
        assert!(s.contains("n=10 mean=4.00 range=4..4"));
    }

    #[test]
    fn stall_table_sums_to_total() {
        use hbc_probe::StallCause;
        let mut b = StallBreakdown::default();
        b.charge(StallCause::Commit);
        b.charge(StallCause::Commit);
        b.charge(StallCause::DramBusy);
        let t = stall_table(&b);
        assert_eq!(t.len(), StallCause::COUNT + 1, "one row per cause plus the total");
        let total = t.rows().last().unwrap();
        assert_eq!(total[0], "total");
        assert_eq!(total[1], "3");
    }
}

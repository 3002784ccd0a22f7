//! Per-figure experiment drivers. Each `figN` module reproduces the data of
//! the paper's Figure N as a typed struct plus a uniform [`FigureReport`]
//! (console rows + CSV) that the `irnuma-bench` `figures` binary renders.

pub mod ablations;
pub mod cost_comparison;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod input_sensitivity;

use irnuma_sim::{sweep_region, Machine};
use irnuma_workloads::{InputSize, RegionSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rendered figure: column names and stringified rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureReport {
    pub id: String,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Headline observations (paper-vs-measured notes).
    pub notes: Vec<String>,
}

impl FigureReport {
    pub fn new(id: &str, title: &str, columns: &[&str]) -> FigureReport {
        FigureReport {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV into `dir/<id>.csv` (atomic: a crash mid-write leaves
    /// any previous figure CSV intact, never a torn one).
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("{}.csv", self.id));
        irnuma_store::atomic_write(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        writeln!(f, "{}", self.columns.join(" | "))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(" | "))?;
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// One region tuned on each input size (§IV-E): its size-1 time under
/// every configuration of the machine's space, and the indices of the
/// configurations that are fastest on size 1 (native tuning) and on size 2
/// (the tuning transferred to size 1).
pub(crate) struct SizeTransfer {
    pub size1: Vec<f64>,
    pub native: usize,
    pub transferred: usize,
}

/// Sweep `r` over `m`'s configuration space on both input sizes, `calls`
/// sampled calls per configuration.
pub(crate) fn size_transfer(r: &RegionSpec, m: &Machine, calls: u32) -> SizeTransfer {
    let sweep = |size| sweep_region(r, m, size, calls).expect("every configuration simulates");
    let best = |v: &[f64]| {
        let fastest = v.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1));
        fastest.map(|(i, _)| i).expect("a machine has configurations")
    };
    let size1 = sweep(InputSize::Size1);
    let transferred = best(&sweep(InputSize::Size2));
    SizeTransfer { native: best(&size1), transferred, size1 }
}

/// Format a float with 3 decimals (uniform across reports).
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_to_csv() {
        let mut r = FigureReport::new("figX", "demo", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.push_row(vec!["3".into(), "4".into()]);
        r.note("hello");
        let csv = r.to_csv();
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
        let shown = format!("{r}");
        assert!(shown.contains("figX"));
        assert!(shown.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_enforced() {
        let mut r = FigureReport::new("f", "t", &["a", "b"]);
        r.push_row(vec!["1".into()]);
    }
}

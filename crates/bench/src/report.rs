//! Result reporting: aligned text tables on stdout plus JSON rows under
//! `results/` so EXPERIMENTS.md can cite machine-readable numbers.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// A named experiment report that renders tables and persists JSON.
pub struct Report {
    experiment: String,
    lines: Vec<String>,
}

impl Report {
    /// Starts a report for `experiment` (e.g. `"table4"`). Setting
    /// `HISRECT_METRICS=1` turns on obs collection for the run; the
    /// snapshot lands next to the report on [`Report::save`].
    pub fn new(experiment: &str) -> Self {
        if metrics_requested() {
            obs::set_enabled(true);
        }
        let mut r = Self {
            experiment: experiment.to_string(),
            lines: Vec::new(),
        };
        r.line(&format!("== {experiment} =="));
        r
    }

    /// Adds (and echoes) one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        self.lines.push(s.to_string());
    }

    /// Renders an aligned table: `header` then `rows`.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        self.line(&fmt_row(&head));
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        self.line(&fmt_row(&rule));
        for row in rows {
            self.line(&fmt_row(row));
        }
    }

    /// Persists a serializable payload as `results/<experiment>.json` and
    /// the rendered text as `results/<experiment>.txt`.
    pub fn save<T: Serialize>(&self, payload: &T) {
        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let json = serde_json::to_string_pretty(payload).expect("serializable payload");
        let jpath = dir.join(format!("{}.json", self.experiment));
        if let Err(e) = fs::write(&jpath, json) {
            eprintln!("warning: cannot write {}: {e}", jpath.display());
        }
        let tpath = dir.join(format!("{}.txt", self.experiment));
        if let Err(e) = fs::write(&tpath, self.lines.join("\n") + "\n") {
            eprintln!("warning: cannot write {}: {e}", tpath.display());
        }
        println!("[saved {} and {}]", jpath.display(), tpath.display());
        if obs::enabled() {
            let mpath = dir.join(format!("{}_metrics.json", self.experiment));
            match obs::report::write_snapshot(&mpath) {
                Ok(()) => println!("[saved {}]", mpath.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", mpath.display()),
            }
        }
    }
}

/// True when the `HISRECT_METRICS` environment variable asks for obs
/// collection (any value except `0`, `false`, `off` or empty).
pub fn metrics_requested() -> bool {
    std::env::var("HISRECT_METRICS")
        .map(|v| !matches!(v.as_str(), "" | "0" | "false" | "off"))
        .unwrap_or(false)
}

/// `results/` at the root of the checkout the process runs in, found
/// from the working directory at run time (cargo starts benches and tests
/// in `crates/bench`, binaries wherever they are launched), so a binary
/// built in one checkout writes into the checkout it is run from. Falls
/// back to `results/` under the working directory.
pub fn results_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    workspace_results(&cwd).unwrap_or_else(|| PathBuf::from("results"))
}

/// `results/` under the nearest ancestor of `from` (itself included) that
/// holds this workspace's `crates/bench`.
fn workspace_results(from: &Path) -> Option<PathBuf> {
    from.ancestors()
        .find(|dir| dir.join("crates/bench/Cargo.toml").is_file())
        .map(|root| root.join("results"))
}

/// Formats a metric as the paper does (4 decimals).
pub fn m4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_handles_ragged_rows() {
        let mut r = Report::new("selftest");
        r.table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer-cell".into(), "2".into()],
            ],
        );
        assert!(r.lines.iter().any(|l| l.contains("longer-cell")));
    }

    #[test]
    fn m4_formats_four_decimals() {
        assert_eq!(m4(0.93414), "0.9341");
        assert_eq!(m4(1.0), "1.0000");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let dir = results_dir();
        assert!(dir.ends_with("results"), "{}", dir.display());
        let root = dir.parent().expect("results/ has a parent");
        assert!(
            root.join("crates/bench/Cargo.toml").is_file(),
            "{}",
            dir.display()
        );
        // Resolved from where the process runs, not where it was built: a
        // copy of the checkout gets its own results/, a directory outside
        // any checkout none.
        let copy = std::env::temp_dir().join(format!("hisrect-results-{}", std::process::id()));
        let inner = copy.join("crates/bench/src");
        fs::create_dir_all(&inner).unwrap();
        fs::write(copy.join("crates/bench/Cargo.toml"), "").unwrap();
        let found = workspace_results(&inner);
        let outside = workspace_results(&std::env::temp_dir());
        fs::remove_dir_all(&copy).unwrap();
        assert_eq!(found, Some(copy.join("results")));
        assert_eq!(outside, None);
    }
}

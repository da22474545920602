//! Shared plumbing for the figure/table regeneration binaries and the
//! Criterion benchmarks.
//!
//! Every binary accepts the same small set of command-line flags:
//!
//! * `--scale <f>`   — fraction of the published data-set size to generate
//!   (default 0.05; the originals range from 11 k to 581 k objects, so the
//!   default keeps a laptop run under a minute per figure),
//! * `--max-nodes <n>` — x-axis extent (default 100, as in the paper),
//! * `--folds <n>`   — cross-validation folds (default 4, as in the paper),
//! * `--queries <n>` — cap on test queries per fold (default 400),
//! * `--seed <n>`    — RNG seed (default 42),
//! * `--csv`         — additionally print the raw CSV of every curve.

#![deny(missing_docs)]
#![warn(clippy::all)]

use bayestree::{DescentStrategy, RefinementStrategy};
use bt_eval::CurveConfig;
use bt_index::PageGeometry;

/// Command-line options shared by the regeneration binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Fraction of the published data-set size to generate.
    pub scale: f64,
    /// Largest node budget on the x-axis.
    pub max_nodes: usize,
    /// Number of cross-validation folds.
    pub folds: usize,
    /// Cap on test queries per fold.
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulated disk-page size in bytes; the fanout and leaf capacity of
    /// every tree are derived from it (the paper: "M is given through the
    /// fanout, which in turn is dictated by the page size").
    pub page_bytes: usize,
    /// Whether to print raw CSV in addition to the chart.
    pub csv: bool,
    /// Positional arguments (e.g. the workload name for `figure4`).
    pub positional: Vec<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 0.05,
            max_nodes: 100,
            folds: 4,
            queries: 400,
            seed: 42,
            page_bytes: 2048,
            csv: false,
            positional: Vec::new(),
        }
    }
}

impl RunOptions {
    /// Parses options from an iterator of arguments (excluding the program
    /// name).  Unknown flags abort with a message.
    ///
    /// # Panics
    ///
    /// Panics on malformed flag values.
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => options.scale = next_value(&mut iter, "--scale"),
                "--max-nodes" => options.max_nodes = next_value(&mut iter, "--max-nodes"),
                "--folds" => options.folds = next_value(&mut iter, "--folds"),
                "--queries" => options.queries = next_value(&mut iter, "--queries"),
                "--seed" => options.seed = next_value(&mut iter, "--seed"),
                "--page" => options.page_bytes = next_value(&mut iter, "--page"),
                "--csv" => options.csv = true,
                other if other.starts_with("--") => {
                    panic!("unknown flag {other}; supported: --scale --max-nodes --folds --queries --seed --page --csv")
                }
                other => options.positional.push(other.to_string()),
            }
        }
        options
    }

    /// Parses options from the process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The [`CurveConfig`] corresponding to these options, with the tree
    /// geometry left at the library default (a 4 KiB page).
    #[must_use]
    pub fn curve_config(&self) -> CurveConfig {
        CurveConfig {
            max_nodes: self.max_nodes,
            folds: self.folds,
            seed: self.seed,
            descent: DescentStrategy::default(),
            refinement: RefinementStrategy::default(),
            geometry: None,
            max_test_queries: Some(self.queries),
        }
    }

    /// The [`CurveConfig`] for a workload of the given dimensionality, with
    /// the fanout and leaf capacity derived from `--page`.
    #[must_use]
    pub fn curve_config_for(&self, dims: usize) -> CurveConfig {
        CurveConfig {
            geometry: Some(PageGeometry::from_page_size(self.page_bytes, dims)),
            ..self.curve_config()
        }
    }
}

fn next_value<T: std::str::FromStr, I: Iterator<Item = String>>(iter: &mut I, flag: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    iter.next()
        .unwrap_or_else(|| panic!("{flag} requires a value"))
        .parse()
        .unwrap_or_else(|e| panic!("invalid value for {flag}: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_protocol() {
        let o = RunOptions::default();
        assert_eq!(o.max_nodes, 100);
        assert_eq!(o.folds, 4);
    }

    #[test]
    fn flags_are_parsed() {
        let o = RunOptions::parse(
            ["--scale", "0.2", "--max-nodes", "50", "--csv", "gender"]
                .iter()
                .map(ToString::to_string),
        );
        assert!((o.scale - 0.2).abs() < 1e-12);
        assert_eq!(o.max_nodes, 50);
        assert!(o.csv);
        assert_eq!(o.positional, vec!["gender".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = RunOptions::parse(["--bogus".to_string()]);
    }

    #[test]
    fn curve_config_propagates_options() {
        let o = RunOptions::parse(
            ["--queries", "10", "--folds", "3"]
                .iter()
                .map(ToString::to_string),
        );
        let c = o.curve_config();
        assert_eq!(c.folds, 3);
        assert_eq!(c.max_test_queries, Some(10));
    }
}

//! Shared harness utilities: run configuration, markdown-ish table printing, and JSON
//! result persistence.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Configuration shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Dataset scale factor relative to the profile sizes.
    pub scale: f32,
    /// Restrict sweeps to a representative subset.
    pub quick: bool,
    /// Base random seed.
    pub seed: u64,
    /// Label budget for the semi-supervised EM experiments (the paper uses 500).
    pub label_budget: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.2,
            quick: false,
            seed: 42,
            label_budget: 100,
        }
    }
}

impl HarnessConfig {
    /// Builds the configuration from the environment (`SUDOWOODO_SCALE`, `SUDOWOODO_QUICK`,
    /// `SUDOWOODO_SEED`, `SUDOWOODO_LABELS`); an unset variable keeps its default.
    ///
    /// # Errors
    /// A variable that is set but does not parse, named in the message.
    /// `SUDOWOODO_QUICK` takes `1`, `0`, `true` or `false`.
    pub fn from_env() -> Result<Self, String> {
        fn var<T>(name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<Option<T>, String> {
            let Some(raw) = std::env::var_os(name) else {
                return Ok(None);
            };
            raw.to_str()
                .and_then(parse)
                .map(Some)
                .ok_or_else(|| format!("{name}={raw:?} does not parse"))
        }
        let quick = |s: &str| match s.to_ascii_lowercase().as_str() {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            _ => None,
        };
        let defaults = HarnessConfig::default();
        Ok(HarnessConfig {
            scale: var("SUDOWOODO_SCALE", |s| s.parse().ok())?.unwrap_or(defaults.scale),
            quick: var("SUDOWOODO_QUICK", quick)?.unwrap_or(defaults.quick),
            seed: var("SUDOWOODO_SEED", |s| s.parse().ok())?.unwrap_or(defaults.seed),
            label_budget: var("SUDOWOODO_LABELS", |s| s.parse().ok())?
                .unwrap_or(defaults.label_budget),
        })
    }

    /// A Sudowoodo configuration sized for harness runs (small encoder, few epochs) so a
    /// full experiment sweep finishes on a laptop CPU; the *relative* comparisons between
    /// variants are what the harness reports.
    pub fn sudowoodo_config(&self) -> sudowoodo_core::SudowoodoConfig {
        sudowoodo_core::SudowoodoConfig {
            encoder: sudowoodo_core::EncoderConfig {
                kind: sudowoodo_core::EncoderKind::MeanPool,
                dim: 32,
                layers: 1,
                heads: 2,
                ff_hidden: 64,
                max_len: 32,
            },
            projector_dim: 32,
            pretrain_epochs: if self.quick { 2 } else { 3 },
            batch_size: 16,
            max_corpus_size: 2_000,
            finetune_epochs: if self.quick { 4 } else { 6 },
            finetune_batch_size: 16,
            num_clusters: 12,
            pseudo_multiplier: 4,
            blocking_k: 10,
            seed: self.seed,
            ..sudowoodo_core::SudowoodoConfig::default()
        }
    }
}

/// Prints an aligned text table (header + rows) to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Persists experiment results as JSON under `target/experiments/<name>.json`.
pub struct ResultWriter {
    directory: PathBuf,
}

impl Default for ResultWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultWriter {
    /// Creates the writer (and the output directory).
    pub fn new() -> Self {
        let directory = PathBuf::from("target/experiments");
        let _ = fs::create_dir_all(&directory);
        ResultWriter { directory }
    }

    /// Writes a serializable value as pretty JSON; failures are reported but non-fatal.
    pub fn write<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.directory.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    println!("(results written to {})", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
        }
    }
}

/// Formats an `f32` with one decimal as the paper's F1 tables do (scores in percent).
pub fn pct(x: f32) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back_to_defaults() {
        let c = HarnessConfig::default();
        assert_eq!(c.scale, 0.2);
        assert!(!c.quick);
        let sc = c.sudowoodo_config();
        assert!(sc.max_corpus_size <= 2_000);
        // Built from the defaults, not from the test configuration: dense, unquantized.
        assert_eq!(sc.pseudo_multiplier, 4);
        assert_eq!(sc.blocking_shard_capacity, None);
        assert_eq!(sc.shard_quantization, None);
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.783), "78.3");
        assert_eq!(pct(1.0), "100.0");
    }

    /// The only test that sets these process-wide variables, so it runs them one at a time.
    #[test]
    fn from_env_rejects_malformed_values_naming_the_variable() {
        let malformed = [
            ("SUDOWOODO_SCALE", "O.5"),
            ("SUDOWOODO_QUICK", "yes"),
            ("SUDOWOODO_SEED", "-1"),
            ("SUDOWOODO_LABELS", "1e3"),
        ];
        for (name, value) in malformed {
            std::env::set_var(name, value);
            let error = HarnessConfig::from_env().expect_err(name);
            std::env::remove_var(name);
            assert!(error.contains(name) && error.contains(value), "{error}");
        }
        std::env::set_var("SUDOWOODO_SCALE", "0.5");
        std::env::set_var("SUDOWOODO_QUICK", "TRUE");
        let config = HarnessConfig::from_env();
        std::env::remove_var("SUDOWOODO_SCALE");
        std::env::remove_var("SUDOWOODO_QUICK");
        let config = config.expect("well-formed values parse");
        assert_eq!((config.scale, config.quick), (0.5, true));
    }

    #[test]
    fn result_writer_creates_files() {
        let writer = ResultWriter::new();
        writer.write("harness_smoke_test", &vec![1, 2, 3]);
        assert!(std::path::Path::new("target/experiments/harness_smoke_test.json").exists());
    }
}

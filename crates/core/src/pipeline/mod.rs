//! Task pipelines built on top of the Sudowoodo framework: Entity Matching (blocking +
//! matching), data cleaning (error correction), and column matching (semantic type
//! detection).

pub mod cleaning;
pub mod columns;
pub mod em;

pub use cleaning::{CleaningPipeline, CleaningResult};
pub use columns::{ColumnMatchResult, ColumnPipeline};
pub use em::{EmPipeline, EmResult, EmTimings};

use sudowoodo_index::BlockingIndex;

use crate::config::SudowoodoConfig;

/// Builds the blocking index every pipeline retrieves through, applying the full
/// blocking configuration in one place so the pipelines cannot drift:
///
/// * layout, spill, and quantization — `blocking_shard_capacity` /
///   `shard_memory_budget` / `shard_quantization`
///   ([`BlockingIndex::build_with_options`]);
/// * the query-batch cache — `blocking_query_cache`
///   ([`BlockingIndex::set_query_cache_capacity`]);
/// * persistence — when `snapshot_dir` is set, the built index is saved there
///   ([`BlockingIndex::save_snapshot`]) so a serving process (`sudowoodo-serve`) can
///   load it cold and answer queries without rebuilding. A snapshot I/O failure is a
///   warning, never a pipeline failure — persistence is an optimization.
pub(crate) fn build_blocking_index(
    config: &SudowoodoConfig,
    vectors: Vec<Vec<f32>>,
) -> BlockingIndex {
    let mut index = BlockingIndex::build_with_options(
        vectors,
        config.blocking_shard_capacity,
        config.shard_memory_budget,
        config.shard_quantization,
    );
    index.set_query_cache_capacity(config.blocking_query_cache);
    if let Some(dir) = &config.snapshot_dir {
        if let Err(e) = index.save_snapshot(dir) {
            eprintln!(
                "warning: blocking-index snapshot into {} failed (serving will need a \
                 rebuild): {e}",
                dir.display()
            );
        }
    }
    index
}

/// Persists the fine-tuned matcher next to the index snapshot when `snapshot_dir` is
/// set — the model half of the same train-once/serve-many contract: a serving process
/// loads `model.swmodel` cold ([`crate::model_snapshot::load_matcher`]) and answers
/// `EMBED`/`MATCH` traffic bit-identically to this process. Like the index snapshot,
/// an I/O failure is a warning, never a pipeline failure.
pub(crate) fn persist_matcher(config: &SudowoodoConfig, matcher: &crate::matcher::PairMatcher) {
    let Some(dir) = &config.snapshot_dir else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "warning: could not create snapshot dir {}: {e}",
            dir.display()
        );
        return;
    }
    let path = dir.join(crate::model_snapshot::MODEL_SNAPSHOT_FILE);
    if let Err(e) = crate::model_snapshot::save_matcher(matcher, &path) {
        eprintln!(
            "warning: model snapshot into {} failed (EMBED/MATCH serving will need a \
             retrain): {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use crate::encoder::Encoder;
    use crate::matcher::PairMatcher;

    /// `persist_matcher` reads only `snapshot_dir`, so one configuration covers it.
    #[test]
    fn persist_matcher_writes_a_loadable_model_beside_the_index_snapshot() {
        let corpus: Vec<String> = (0..4).map(|i| format!("[COL] t [VAL] item {i}")).collect();
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), &corpus, 1);
        let matcher = PairMatcher::new(encoder, true, 1);

        // No snapshot_dir: a no-op, nothing written anywhere.
        let mut config = SudowoodoConfig::test_config();
        config.snapshot_dir = None;
        persist_matcher(&config, &matcher);

        // With snapshot_dir: the model lands beside the index snapshot and loads back.
        let dir =
            std::env::temp_dir().join(format!("sudowoodo-persist-matcher-{}", std::process::id()));
        config.snapshot_dir = Some(dir.clone());
        persist_matcher(&config, &matcher);
        let path = dir.join(crate::model_snapshot::MODEL_SNAPSHOT_FILE);
        let loaded = crate::model_snapshot::load_matcher(&path).expect("model must load");
        assert_eq!(loaded.encoder.config, matcher.encoder.config);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

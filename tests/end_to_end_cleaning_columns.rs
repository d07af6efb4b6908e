//! Cross-crate integration tests: the data-cleaning and column-matching pipelines plus
//! their baselines.

use sudowoodo::baselines::{
    run_baran, run_column_baseline, ColumnFeaturizer, ErrorDetection, PairClassifier,
};
use sudowoodo::datasets::columns::sample_labeled_pairs;
use sudowoodo::prelude::*;

/// Shrinks a test configuration to these datasets.
fn tiny_config(mut c: SudowoodoConfig) -> SudowoodoConfig {
    c.pretrain_epochs = 1;
    c.finetune_epochs = 2;
    c.max_corpus_size = 120;
    c.blocking_k = 4;
    c
}

/// Runs `f` on [`tiny_config`] once per encoder kind of the test configurations. The
/// cleaning pipeline builds no blocking index, so the layout axis would only repeat a run.
fn for_each_cleaning_config(mut f: impl FnMut(SudowoodoConfig)) {
    SudowoodoConfig::for_each_test_config(|c| {
        if c.blocking_shard_capacity.is_none() {
            f(tiny_config(c))
        }
    });
}

#[test]
fn cleaning_pipeline_and_baran_produce_comparable_outputs() {
    let dataset = CleaningProfile::beers().generate(0.08, 41);
    let baran = run_baran(&dataset, ErrorDetection::Perfect, 8, 41);
    for_each_cleaning_config(|config| {
        let sudowoodo = CleaningPipeline::new(config).run(&dataset, 8);
        for f1 in [sudowoodo.correction.f1, baran.correction.f1] {
            assert!((0.0..=1.0).contains(&f1));
        }
        // Consistency of the reported counts (at this tiny scale the matcher may
        // legitimately propose very few corrections; absolute quality is covered by the
        // benchmark harness).
        assert!(sudowoodo.errors_in_scope <= dataset.errors.len());
        assert_eq!(sudowoodo.labeled_rows, 8);
    });
}

#[test]
fn cleaning_pipeline_never_counts_labeled_rows_in_the_evaluation() {
    let dataset = CleaningProfile::hospital().generate(0.1, 43);
    for_each_cleaning_config(|config| {
        let result = CleaningPipeline::new(config).run(&dataset, 10);
        assert!(result.errors_in_scope <= dataset.errors.len());
        assert_eq!(result.labeled_rows, 10);
    });
}

#[test]
fn column_pipeline_discovers_clusters_with_reasonable_purity() {
    let corpus = ColumnProfile {
        num_columns: 80,
        min_values: 5,
        max_values: 8,
    }
    .generate(1.0, 45);
    let mut candidates = Vec::new();
    for i in 0..corpus.len() {
        if let Some(j) = (i + 1..corpus.len()).find(|&j| corpus.same_type(i, j)) {
            candidates.push((i, j));
        }
        let other = (i * 31 + 7) % corpus.len();
        if other != i {
            candidates.push((i.min(other), i.max(other)));
        }
    }
    let (train, valid, test) = sample_labeled_pairs(&corpus, &candidates, 80, 45);
    // Column blocking goes through the index: every encoder on every layout.
    SudowoodoConfig::for_each_test_config(|c| {
        let result = ColumnPipeline::new(tiny_config(c)).run(&corpus, &train, &valid, &test);
        assert!(result.num_clusters >= 1 && result.num_clusters <= corpus.len());
        assert!((0.0..=1.0).contains(&result.purity));
        assert!((0.0..=1.0).contains(&result.test.f1));
    });
}

#[test]
fn sherlock_and_sato_baselines_run_on_the_same_splits_as_sudowoodo() {
    let corpus = ColumnProfile {
        num_columns: 80,
        min_values: 5,
        max_values: 8,
    }
    .generate(1.0, 47);
    let candidates: Vec<(usize, usize)> = (0..corpus.len() - 1).map(|i| (i, i + 1)).collect();
    let (train, valid, test) = sample_labeled_pairs(&corpus, &candidates, 60, 47);
    for featurizer in [ColumnFeaturizer::Sherlock, ColumnFeaturizer::Sato] {
        let result = run_column_baseline(
            &corpus,
            featurizer,
            PairClassifier::LR,
            &train,
            &valid,
            &test,
            47,
        );
        assert!(
            (0.0..=1.0).contains(&result.test.f1),
            "{}: invalid F1",
            result.method
        );
    }
}

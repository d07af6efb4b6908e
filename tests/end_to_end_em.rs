//! Cross-crate integration tests: the full Entity Matching flow (datasets → pre-training →
//! blocking → pseudo labeling → fine-tuning → evaluation) and its baselines.

use sudowoodo::baselines::{run_auto_fuzzy_join, run_ditto, run_zeroer};
use sudowoodo::prelude::*;

/// Shrinks a test configuration to these datasets.
fn tiny_config(mut c: SudowoodoConfig) -> SudowoodoConfig {
    c.pretrain_epochs = 1;
    c.finetune_epochs = 2;
    c.max_corpus_size = 150;
    c.blocking_k = 5;
    c
}

/// Runs `f` on [`tiny_config`] under every test configuration (both encoders, both
/// blocking layouts).
fn for_each_tiny_config(mut f: impl FnMut(SudowoodoConfig)) {
    SudowoodoConfig::for_each_test_config(|c| f(tiny_config(c)));
}

#[test]
fn sudowoodo_pipeline_beats_the_unsupervised_baselines_on_clean_data() {
    // On the easy (DBLP-ACM-like) dataset, the fine-tuned matcher with pseudo labels should
    // comfortably beat the rule/generative unsupervised baselines.
    let dataset = EmProfile::dblp_acm().generate(0.1, 21);
    let zeroer = run_zeroer(&dataset, 21);
    let autofj = run_auto_fuzzy_join(&dataset);
    for_each_tiny_config(|config| {
        // At this miniature scale the synthetic easy dataset is almost perfectly separable
        // by raw similarity, so the baselines can reach ~1.0; only require that the learned
        // matcher stays in the same ballpark (the full comparison is produced by the
        // benchmark harness). The from-scratch compact Transformer learns more slowly than
        // MeanPool in one miniature epoch, so it gets a wider margin — this test guards
        // pipeline functionality, not architecture quality.
        let margin = match config.encoder.kind {
            EncoderKind::MeanPool => 0.15,
            EncoderKind::Transformer => 0.30,
        };
        let sudowoodo = EmPipeline::new(config).run(&dataset, Some(60));
        assert!(
            sudowoodo.matching.f1 + margin >= zeroer.matching.f1.min(autofj.matching.f1),
            "Sudowoodo F1 {} should not fall far behind the weaker unsupervised baseline ({} / {})",
            sudowoodo.matching.f1,
            zeroer.matching.f1,
            autofj.matching.f1
        );
        assert!(
            sudowoodo.matching.f1 > 0.3,
            "F1 too low: {:?}",
            sudowoodo.matching
        );
    });
}

#[test]
fn blocking_with_learned_embeddings_reaches_high_recall_at_moderate_k() {
    let dataset = EmProfile::dblp_acm().generate(0.1, 23);
    for_each_tiny_config(|config| {
        let result = EmPipeline::new(config).run(&dataset, Some(40));
        assert!(
            result.blocking.recall > 0.5,
            "blocking recall too low: {:?}",
            result.blocking
        );
        // The candidate set must be far smaller than the cross product.
        assert!(result.blocking.cssr < 0.5);
    });
}

#[test]
fn pseudo_labels_are_mostly_correct_on_easy_data() {
    let dataset = EmProfile::dblp_acm().generate(0.1, 25);
    for_each_tiny_config(|config| {
        let result = EmPipeline::new(config).run(&dataset, Some(40));
        let (tpr, tnr) = result
            .pseudo_quality
            .expect("pseudo labels enabled by default");
        // Negative pseudo labels should be almost always right (they dominate the candidate
        // space); positive ones should be clearly better than random given the 18% positive
        // rate.
        assert!(tnr > 0.8, "TNR too low: {tnr}");
        assert!(tpr > 0.3, "TPR too low: {tpr}");
    });
}

#[test]
fn ablation_variants_and_ditto_all_run_on_the_same_dataset() {
    let dataset = EmProfile::abt_buy().generate(0.08, 27);
    for_each_tiny_config(|config| {
        for variant in [
            config.clone().simclr(),
            config.clone().without("PL"),
            config.clone(),
        ] {
            let name = variant.variant_name();
            let result = EmPipeline::new(variant).run(&dataset, Some(30));
            assert!(
                result.matching.f1.is_finite() && (0.0..=1.0).contains(&result.matching.f1),
                "variant {name} produced an invalid F1"
            );
        }
        let ditto = run_ditto(&dataset, Some(30), &config);
        assert!((0.0..=1.0).contains(&ditto.matching.f1));
    });
}

#[test]
fn pipeline_is_deterministic_for_a_fixed_seed() {
    let dataset = EmProfile::beer().generate(0.1, 31);
    for_each_tiny_config(|config| {
        let a = EmPipeline::new(config.clone()).run(&dataset, Some(30));
        let b = EmPipeline::new(config).run(&dataset, Some(30));
        assert_eq!(a.matching.f1, b.matching.f1);
        assert_eq!(a.blocking.num_candidates, b.blocking.num_candidates);
        assert_eq!(a.num_pseudo_labels, b.num_pseudo_labels);
    });
}

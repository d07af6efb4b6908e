//! End-to-end smoke tier for `EncoderKind::Transformer`.
//!
//! The pipeline integration tests historically leaned on MeanPool-shaped configurations;
//! this suite pins the batched masked-attention Transformer path through the full EM flow
//! (pre-train → block → pseudo-label → fine-tune → evaluate) and asserts the tape-graph
//! and inference forwards of the *trained* encoder stay identical — the end-to-end
//! counterpart of the layer-level `crates/nn/tests/attention_equivalence.rs` tier.

use sudowoodo::prelude::*;
use sudowoodo_augment::CutoffPlan;
use sudowoodo_nn::tape::Tape;

/// Pins the Transformer on a test configuration and shrinks it to these datasets.
fn transformer_config(mut c: SudowoodoConfig) -> SudowoodoConfig {
    c.encoder.kind = EncoderKind::Transformer;
    c.pretrain_epochs = 1;
    c.finetune_epochs = 2;
    c.max_corpus_size = 120;
    c.blocking_k = 5;
    c
}

/// On both blocking layouts of the test configurations (their encoder axis is pinned).
#[test]
fn em_pipeline_runs_end_to_end_with_the_transformer_encoder() {
    let dataset = EmProfile::abt_buy().generate(0.08, 33);
    SudowoodoConfig::for_each_test_config(|c| {
        if c.encoder.kind != EncoderKind::Transformer {
            return;
        }
        let result = EmPipeline::new(transformer_config(c)).run(&dataset, Some(40));

        assert!(
            result.matching.f1.is_finite() && (0.0..=1.0).contains(&result.matching.f1),
            "Transformer pipeline produced a bogus F1: {}",
            result.matching.f1
        );
        assert!(
            (0.0..=1.0).contains(&result.blocking.recall),
            "Transformer pipeline produced a bogus blocking recall: {}",
            result.blocking.recall
        );
        assert!(result
            .pretrain_report
            .epoch_losses
            .iter()
            .all(|l| l.is_finite()));
    });
}

#[test]
fn trained_transformer_encoder_batch_and_inference_paths_agree() {
    // Train on real pipeline data (weights move away from their benign initialization),
    // then require the batched tape graph (`encode_batch`, the training path) and the
    // batched inference path (`infer_chunk`) — and the frozen per-sequence oracle — to
    // produce identical embeddings, seeded and deterministic.
    let dataset = EmProfile::abt_buy().generate(0.08, 55);
    let corpus = dataset.corpus();
    // `pretrain` never builds a blocking index, so one layout covers it.
    let (encoder, _report) = pretrain(&corpus, &transformer_config(SudowoodoConfig::test_config()));

    let texts: Vec<String> = corpus.iter().take(24).cloned().collect();
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();

    let mut tape = Tape::new();
    let batched = encoder.encode_batch(&mut tape, &refs, &CutoffPlan::noop());
    let batched = tape.value(batched).clone();

    let inferred = encoder.infer_chunk(&texts);
    assert!(
        batched.approx_eq(&inferred, 1e-4),
        "trained Transformer: encode_batch and infer_chunk embeddings diverged"
    );

    let reference = encoder.infer_chunk_reference(&texts);
    assert!(
        inferred.approx_eq(&reference, 1e-4),
        "trained Transformer: batched inference diverged from the per-sequence oracle"
    );

    // embed_all routes through infer_chunk in parallel chunks; it must agree row-by-row.
    let all = encoder.embed_all(&texts);
    for (r, row) in all.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            assert!(
                (v - inferred.get(r, c)).abs() < 1e-5,
                "embed_all row {r} diverged from infer_chunk"
            );
        }
    }
}

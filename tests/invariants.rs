//! Randomized cross-crate invariants.
//!
//! The seed expressed these as `proptest` properties; that crate is unavailable in the
//! offline build environment, so the same invariants run as seeded random sweeps over the
//! in-repo `rand` shim instead (deterministic per seed, many cases per invariant).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo::augment::{augment, DaOp};
use sudowoodo::core::encoder::Encoder;
use sudowoodo::core::EncoderConfig;
use sudowoodo::index::CosineIndex;
use sudowoodo::text::serialize::{serialize_record, split_serialized_attributes};
use sudowoodo::text::Record;

/// Random lowercase word of length `lo..=hi`.
fn random_word(rng: &mut StdRng, lo: usize, hi: usize) -> String {
    let len = rng.gen_range(lo..=hi);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

/// Random record with 1-3 attributes of short alphanumeric values.
fn random_record(rng: &mut StdRng) -> Record {
    let n = rng.gen_range(1..4usize);
    Record::from_pairs((0..n).map(|i| {
        let attr = format!("{}{i}", random_word(rng, 2, 8));
        let words = rng.gen_range(1..4usize);
        let value = (0..words)
            .map(|_| random_word(rng, 1, 6))
            .collect::<Vec<_>>()
            .join(" ");
        (attr, value)
    }))
}

#[test]
fn serialization_roundtrips_attribute_names() {
    for seed in 0..32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = random_record(&mut rng);
        let serialized = serialize_record(&record);
        let parsed = split_serialized_attributes(&serialized);
        assert_eq!(parsed.len(), record.len(), "seed {seed}");
        for ((attr, _), (orig_attr, _)) in parsed.iter().zip(record.iter()) {
            assert_eq!(attr.as_str(), orig_attr, "seed {seed}");
        }
    }
}

#[test]
fn augmentation_preserves_marker_balance() {
    for seed in 0..32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = random_record(&mut rng);
        let serialized = serialize_record(&record);
        for op in DaOp::entity_ops() {
            let out = augment(&serialized, op, &mut rng);
            assert_eq!(
                out.matches("[COL]").count(),
                out.matches("[VAL]").count(),
                "operator {} broke the [COL]/[VAL] structure (seed {seed}): {out}",
                op.name()
            );
        }
    }
}

#[test]
fn embeddings_are_always_unit_length() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(3..6usize);
        let corpus: Vec<String> = (0..count)
            .map(|_| serialize_record(&random_record(&mut rng)))
            .collect();
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), &corpus, 1);
        for embedding in encoder.embed_all(&corpus) {
            let norm: f32 = embedding.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(
                (norm - 1.0).abs() < 1e-3,
                "embedding norm {norm} not unit (seed {seed})"
            );
        }
    }
}

#[test]
fn knn_results_are_sorted_and_self_is_nearest() {
    for seed in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(2..10usize);
        let vectors: Vec<Vec<f32>> = (0..count)
            .map(|_| {
                let v: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                // Skip degenerate all-zero vectors.
                if v.iter().all(|x| x.abs() < 1e-3) {
                    vec![1.0, 0.0, 0.0, 0.0]
                } else {
                    v
                }
            })
            .collect();
        let index = CosineIndex::build(vectors.clone());
        for (i, query) in vectors.iter().enumerate() {
            // (query, id, score) triples of a one-query join.
            let hits = index.knn_join(std::slice::from_ref(query), 3);
            assert!(!hits.is_empty());
            // Scores sorted descending.
            for pair in hits.windows(2) {
                assert!(pair[0].2 >= pair[1].2 - 1e-6, "seed {seed}");
            }
            // The vector itself must be among the top hits with cosine ~1.
            assert!(
                hits.iter()
                    .any(|h| h.1 == i || (h.2 - hits[0].2).abs() < 1e-5),
                "seed {seed}: self not among nearest"
            );
        }
    }
}

//! `em_pipeline`: the build-once path of the paper's runtime figures —
//! `EmPipeline::run` on a synthetic Abt-Buy at 3k x 3k records, Transformer encoder,
//! every optimisation on, pseudo labels on, dense blocking, 500 labels.
//!
//! One operation is one pipeline run; the window repeats it on the same inputs. The
//! traced run drives the same stages through their public functions, one span each.

use std::collections::HashSet;
use std::time::Instant;

use sudowoodo_core::config::{EncoderConfig, EncoderKind, SudowoodoConfig};
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo_core::pipeline::em::evaluate_matcher;
use sudowoodo_core::pipeline::EmPipeline;
use sudowoodo_core::pseudo::generate_pseudo_labels;
use sudowoodo_datasets::em::{EmDataset, EmProfile};
use sudowoodo_index::{evaluate_blocking, BlockingIndex};
use sudowoodo_ml::metrics::best_f1_threshold;
use sudowoodo_text::serialize::serialize_record;

use super::{finish_trace, guard, Params};
use crate::measure::{median, peak_rss_mb, timed, Report};
use crate::probes;
use crate::trace::Tracer;

/// Quality floors; a run below either is a failed operation. The model is trained
/// for seconds, so over seeds 11..=20 at the seed commit F1 ranges 0.21-0.48 (median
/// 0.38) and recall@10 0.56-0.64 (median 0.60): 0.9 x the median would fail four
/// seeds in ten, and a workload may not fail. The floors therefore sit below the
/// lowest value seen — they catch a collapse (a constant prediction scores F1 0), not
/// a drift; the values themselves are reported as `quality.*`.
const F1_FLOOR: f32 = 0.10;
const RECALL_FLOOR: f32 = 0.45;

/// What one pipeline run is sized to, in seconds: a window holds `seconds / 10`
/// runs, one at least, so how long a run measures does not depend on how fast it is.
const NOMINAL_RUN_SECONDS: f64 = 10.0;

struct Sizes {
    scale: f32,
    label_budget: usize,
    config: SudowoodoConfig,
    setups: usize,
}

impl Sizes {
    fn new(p: &Params) -> Self {
        // The experiment harness's model size with the Transformer encoder: small
        // enough that a pipeline run takes seconds, not minutes, on two cores.
        let base = SudowoodoConfig {
            encoder: EncoderConfig {
                kind: EncoderKind::Transformer,
                dim: 32,
                layers: 1,
                heads: 2,
                ff_hidden: 64,
                max_len: 32,
            },
            projector_dim: 32,
            batch_size: 16,
            num_clusters: 12,
            pseudo_multiplier: 4,
            seed: p.seed,
            ..SudowoodoConfig::default()
        };
        if p.quick {
            Sizes {
                scale: 0.3,
                label_budget: 40,
                config: SudowoodoConfig {
                    pretrain_epochs: 1,
                    max_corpus_size: 64,
                    finetune_epochs: 1,
                    pseudo_multiplier: 2,
                    ..base
                },
                setups: 2,
            }
        } else {
            // Calibrated so one run takes about 3 s here with pretraining 55-65 %,
            // fine-tuning 30-40 % and blocking under 10 % of it.
            Sizes {
                scale: 10.0,
                label_budget: 500,
                config: SudowoodoConfig {
                    pretrain_epochs: 4,
                    max_corpus_size: 2_800,
                    finetune_epochs: 2,
                    pseudo_multiplier: 2,
                    ..base
                },
                setups: 9,
            }
        }
    }
}

/// What one pass over the pipeline's stages measured.
struct Staged {
    f1: f32,
    recall_at_k: f32,
    wall_s: f64,
    pretrain_s: f64,
    pretrain_steps: usize,
    finetune_s: f64,
    embed_s: f64,
    build_s: f64,
    join_s: f64,
    pseudo_s: f64,
    serialize_s: f64,
    predict_s: f64,
    predicted_pairs: usize,
}

fn serialize_tables(dataset: &EmDataset) -> (Vec<String>, Vec<String>) {
    (
        dataset.table_a.iter().map(serialize_record).collect(),
        dataset.table_b.iter().map(serialize_record).collect(),
    )
}

/// `EmPipeline::run`, stage by stage through public functions, one span per call.
fn staged(
    pipeline: &EmPipeline,
    dataset: &EmDataset,
    label_budget: usize,
    tracer: &mut Tracer,
) -> Staged {
    let config = &pipeline.config;
    let (mut s, wall_s) = tracer.span("em_pipeline", |t| {
        let ((encoder, pretrain_report), pretrain_s) =
            t.span("core.pretrain", |_| pipeline.pretrain_encoder(dataset));

        let ((texts_a, texts_b), serialize_block_s) =
            t.span("text.serialize", |_| serialize_tables(dataset));
        let (emb_a, embed_a_s) = t.span("core.embed_all", |_| encoder.embed_all(&texts_a));
        let (emb_b, embed_b_s) = t.span("core.embed_all", |_| encoder.embed_all(&texts_b));
        let (index, build_s) = t.span("index.build", |_| BlockingIndex::build(emb_b, None));
        let (candidates, join_s) = t.span("index.knn_join", |_| {
            index.knn_join(&emb_a, config.blocking_k)
        });
        let (blocking, _) = t.span("index.evaluate_blocking", |_| {
            let pairs: Vec<(usize, usize)> = candidates.iter().map(|&(a, b, _)| (a, b)).collect();
            evaluate_blocking(
                &pairs,
                &dataset.gold_matches,
                dataset.table_a.len(),
                dataset.table_b.len(),
            )
        });

        let (labeled, _) = t.span("core.sample_labels", |_| {
            pipeline.sample_labels(dataset, Some(label_budget))
        });
        let (pseudo, pseudo_s) = t.span("core.pseudo", |_| {
            let labeled_keys: HashSet<(usize, usize)> =
                labeled.iter().map(|p| (p.a, p.b)).collect();
            let unlabeled: Vec<(usize, usize, f32)> = candidates
                .iter()
                .copied()
                .filter(|(a, b, _)| !labeled_keys.contains(&(*a, *b)))
                .collect();
            let target = labeled.len() * (config.pseudo_multiplier - 1);
            generate_pseudo_labels(&unlabeled, config.pseudo_positive_ratio, target)
        });

        let ((texts_a, texts_b), serialize_train_s) =
            t.span("text.serialize", |_| serialize_tables(dataset));
        let (train_pairs, _) = t.span("bench.train_pairs", |_| {
            let labeled = labeled.iter().map(|p| (p.a, p.b, p.label));
            let pseudo = pseudo.labels.iter().map(|p| (p.a, p.b, p.label));
            labeled
                .chain(pseudo)
                .map(|(a, b, label)| TrainPair::new(texts_a[a].clone(), texts_b[b].clone(), label))
                .collect::<Vec<TrainPair>>()
        });
        let mut matcher = PairMatcher::new(encoder, config.use_diff_head, config.seed);
        let (_, finetune_s) = t.span("core.fine_tune", |_| {
            matcher.fine_tune(
                &train_pairs,
                &FineTuneConfig {
                    epochs: config.finetune_epochs,
                    batch_size: config.finetune_batch_size,
                    learning_rate: config.finetune_lr,
                    seed: config.seed,
                },
            )
        });

        let eval_pairs: Vec<(String, String)> = labeled
            .iter()
            .map(|p| (texts_a[p.a].clone(), texts_b[p.b].clone()))
            .collect();
        let (scores, predict_labeled_s) = t.span("core.predict_scores", |_| {
            matcher.predict_scores(&eval_pairs)
        });
        let (threshold, _) = t.span("ml.best_f1_threshold", |_| {
            let gold: Vec<bool> = labeled.iter().map(|p| p.label).collect();
            best_f1_threshold(&scores, &gold).0
        });
        let (matching, evaluate_s) = t.span("core.evaluate_matcher", |_| {
            evaluate_matcher(&matcher, dataset, &dataset.test, threshold)
        });

        Staged {
            f1: matching.f1,
            recall_at_k: blocking.recall,
            wall_s: 0.0,
            pretrain_s,
            pretrain_steps: pretrain_report.steps,
            finetune_s,
            embed_s: embed_a_s + embed_b_s,
            build_s,
            join_s,
            pseudo_s,
            serialize_s: serialize_block_s + serialize_train_s,
            predict_s: predict_labeled_s + evaluate_s,
            predicted_pairs: eval_pairs.len() + dataset.test.len(),
        }
    });
    s.wall_s = wall_s;
    s
}

pub fn run(p: &Params) -> Result<Report, String> {
    let sizes = Sizes::new(p);
    let dataset = EmProfile::abt_buy().generate(sizes.scale, p.seed);
    let records = dataset.table_a.len() + dataset.table_b.len();
    let pipeline = EmPipeline::new(sizes.config.clone());

    // Set-up: what happens to the inputs before any training — serialising the
    // corpus and building the vocabulary — several times over.
    let setup_samples: Vec<f64> = (0..sizes.setups)
        .map(|_| {
            timed(|| {
                let corpus = dataset.corpus();
                Encoder::from_corpus(sizes.config.encoder, &corpus, p.seed)
            })
            .1
        })
        .collect();

    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut quality = Vec::new();
    let mut tracer = Tracer::new(p.trace, Instant::now());
    if p.trace {
        // The first run of a process pays for page faults and heap growth: one run is
        // discarded so the untraced and the traced run start from the same state.
        pipeline.run(&dataset, Some(sizes.label_budget));
        let (result, untraced_wall) = timed(|| pipeline.run(&dataset, Some(sizes.label_budget)));
        quality.push((result.matching.f1, result.blocking.recall));
        let s = staged(&pipeline, &dataset, sizes.label_budget, &mut tracer);
        quality.push((s.f1, s.recall_at_k));
        walls.push(s.wall_s);
        report.set("trace.overhead_share", s.wall_s / untraced_wall - 1.0);
        report.set("core.pretrain_s", s.pretrain_s);
        report.set(
            "core.pretrain_steps_per_s",
            s.pretrain_steps as f64 / s.pretrain_s,
        );
        report.set("core.finetune_s", s.finetune_s);
        report.set(
            "core.predict_pairs_per_s",
            s.predicted_pairs as f64 / s.predict_s,
        );
        report.set("core.embed_records_per_s", records as f64 / s.embed_s);
        report.set("core.pseudo_s", s.pseudo_s);
        report.set("text.serialize_s", s.serialize_s);
        report.set("core.train_share", (s.pretrain_s + s.finetune_s) / s.wall_s);
        report.set(
            "index.build_rows_per_s",
            dataset.table_b.len() as f64 / s.build_s,
        );
        report.set("index.join_busy_s", s.join_s);
        report.set(
            "index.scored_pairs_per_s",
            (dataset.table_a.len() * dataset.table_b.len()) as f64 / s.join_s,
        );
        report.notes.push(format!(
            "stage shares of the traced run: pretrain {:.3}, fine-tune {:.3}, embed + build + join {:.3}",
            s.pretrain_s / s.wall_s,
            s.finetune_s / s.wall_s,
            (s.embed_s + s.build_s + s.join_s) / s.wall_s
        ));
    } else {
        let runs = (p.seconds / NOMINAL_RUN_SECONDS).round().max(1.0) as usize;
        for _ in 0..runs {
            let (result, wall) = timed(|| pipeline.run(&dataset, Some(sizes.label_budget)));
            walls.push(wall);
            quality.push((result.matching.f1, result.blocking.recall));
            if walls.len() == 1 {
                let t = result.timings;
                report.notes.push(format!(
                    "first run: pretrain {:.3} s, blocking {:.3} s, fine-tune {:.3} s of {:.3} s; \
                     {} pseudo labels",
                    t.pretrain_secs,
                    t.blocking_secs,
                    t.finetune_secs,
                    t.total_secs,
                    result.num_pseudo_labels
                ));
                if !p.quick {
                    let train = (t.pretrain_secs + t.finetune_secs) / t.total_secs;
                    guard(train >= 0.80, || {
                        format!("pretraining + fine-tuning are {train:.2} of the wall, below 0.80")
                    })?;
                }
            }
        }
    }
    let peak_rss = peak_rss_mb();

    let below_floor = quality
        .iter()
        .filter(|(f1, recall)| !p.quick && (*f1 < F1_FLOOR || *recall < RECALL_FLOOR))
        .count();
    let (f1, recall) = *quality.last().expect("at least one run");
    report.set_outcome(quality.len() as u64, below_floor as u64);
    report.set("quality.f1", f64::from(f1));
    report.set("quality.recall_at_k", f64::from(recall));
    report.set(
        "ops_per_s",
        (walls.len() * records) as f64 / walls.iter().sum::<f64>(),
    );
    report.set_latency_ms(&walls);
    report.set("peak_rss_mb", peak_rss);
    report.set("setup_s", median(&setup_samples));
    report.notes.push(format!(
        "{} run(s) over {records} records: walls {walls:?} s; F1 {f1:.4}, recall@{} {recall:.4}; set-ups {setup_samples:?} s",
        walls.len(),
        sizes.config.blocking_k
    ));

    if p.trace {
        finish_trace(
            &mut report,
            p,
            "em_pipeline",
            vec![tracer.into_spans()],
            true,
        )?;
    }
    probes::run(&mut report);
    Ok(report)
}

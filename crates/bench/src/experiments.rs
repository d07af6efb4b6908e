//! One function per table / figure of the paper's evaluation section.
//!
//! Every function returns a [`TableResult`] that the `paper` binary prints and persists as
//! JSON. The functions honour [`HarnessConfig::quick`] by restricting sweeps to
//! representative subsets.

use serde::Serialize;

use sudowoodo_baselines::{
    run_auto_fuzzy_join, run_baran, run_column_baseline_grid, run_deepmatcher_full, run_ditto,
    run_dlblock_curve, run_rotom, run_zeroer, ErrorDetection,
};
use sudowoodo_core::config::SudowoodoConfig;
use sudowoodo_core::pipeline::{CleaningPipeline, ColumnPipeline, EmPipeline};
use sudowoodo_datasets::cleaning::CleaningProfile;
use sudowoodo_datasets::columns::{sample_labeled_pairs, ColumnProfile};
use sudowoodo_datasets::difficulty::difficulty_levels;
use sudowoodo_datasets::em::{EmDataset, EmProfile};

use crate::harness::{pct, print_table, HarnessConfig};

/// A printed table in machine-readable form.
#[derive(Clone, Debug, Serialize)]
pub struct TableResult {
    /// Experiment identifier (e.g. `table05`).
    pub id: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl TableResult {
    fn new(id: &str, header: &[&str], rows: Vec<Vec<String>>) -> Self {
        TableResult {
            id: id.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    /// Prints the table.
    pub fn print(&self, title: &str) {
        let header: Vec<&str> = self.header.iter().map(|s| s.as_str()).collect();
        print_table(title, &header, &self.rows);
    }
}

fn em_profiles(config: &HarnessConfig) -> Vec<EmProfile> {
    if config.quick {
        vec![EmProfile::dblp_acm(), EmProfile::walmart_amazon()]
    } else {
        EmProfile::semi_supervised_suite()
    }
}

fn generate(profile: &EmProfile, config: &HarnessConfig) -> EmDataset {
    profile.generate(config.scale, config.seed)
}

/// Table II / XVII — EM dataset statistics.
pub fn table02_em_datasets(config: &HarnessConfig) -> TableResult {
    let mut rows = Vec::new();
    for profile in EmProfile::full_suite() {
        let stats = profile.generate(config.scale, config.seed).stats();
        rows.push(vec![
            stats.name,
            stats.size_a.to_string(),
            stats.size_b.to_string(),
            stats.train_valid.to_string(),
            stats.test.to_string(),
            format!("{:.1}%", stats.positive_rate * 100.0),
        ]);
    }
    TableResult::new(
        "table02",
        &["Dataset", "TableA", "TableB", "Train+Valid", "Test", "%pos"],
        rows,
    )
}

/// Table V — F1 for semi-supervised matching, including the ablation variants.
pub fn table05_semi_supervised(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let budget = config.label_budget;
    let datasets: Vec<EmDataset> = em_profiles(config)
        .iter()
        .map(|p| generate(p, config))
        .collect();

    // (name, runner) pairs; each runner returns the test F1 for one dataset.
    type Runner<'a> = Box<dyn Fn(&EmDataset) -> f32 + 'a>;
    let mut methods: Vec<(String, Runner)> = Vec::new();
    if !config.quick {
        let b = base.clone();
        methods.push((
            "DeepMatcher (full)".to_string(),
            Box::new(move |d| run_deepmatcher_full(d, &b).matching.f1),
        ));
        let b = base.clone();
        methods.push((
            format!("Ditto ({budget})"),
            Box::new(move |d| run_ditto(d, Some(budget), &b).matching.f1),
        ));
        let b = base.clone();
        let larger = budget + budget / 2;
        methods.push((
            format!("Ditto ({larger})"),
            Box::new(move |d| run_ditto(d, Some(larger), &b).matching.f1),
        ));
        let b = base.clone();
        methods.push((
            format!("Rotom ({budget})"),
            Box::new(move |d| run_rotom(d, Some(budget), &b).matching.f1),
        ));
    } else {
        let b = base.clone();
        methods.push((
            format!("Ditto ({budget})"),
            Box::new(move |d| run_ditto(d, Some(budget), &b).matching.f1),
        ));
    }

    let variants: Vec<SudowoodoConfig> = if config.quick {
        vec![
            base.clone().simclr(),
            base.clone().without("PL"),
            base.clone(),
        ]
    } else {
        vec![
            base.clone().simclr(),
            base.clone().without("cut").without("RR").without("cls"),
            base.clone().without("cut").without("RR"),
            base.clone().without("cut"),
            base.clone().without("PL"),
            base.clone().without("RR"),
            base.clone().without("cls"),
            base.clone(),
        ]
    };
    for variant in variants {
        let name = variant.variant_name();
        methods.push((
            name,
            Box::new(move |d| {
                EmPipeline::new(variant.clone())
                    .run(d, Some(budget))
                    .matching
                    .f1
            }),
        ));
    }

    let mut header: Vec<String> = vec!["Method".to_string()];
    header.extend(datasets.iter().map(|d| d.name.clone()));
    header.push("average".to_string());
    let mut rows = Vec::new();
    for (name, runner) in methods {
        let mut row = vec![name];
        let mut scores = Vec::new();
        for dataset in &datasets {
            let f1 = runner(dataset);
            scores.push(f1);
            row.push(pct(f1));
        }
        row.push(pct(scores.iter().sum::<f32>() / scores.len().max(1) as f32));
        rows.push(row);
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    TableResult::new("table05", &header_refs, rows)
}

/// Table VI — F1 for unsupervised matching.
pub fn table06_unsupervised(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let datasets: Vec<EmDataset> = em_profiles(config)
        .iter()
        .map(|p| generate(p, config))
        .collect();
    let mut header: Vec<String> = vec!["Method".to_string()];
    header.extend(datasets.iter().map(|d| d.name.clone()));
    header.push("average".to_string());

    type Runner<'a> = Box<dyn Fn(&EmDataset) -> f32 + 'a>;
    let seed = config.seed;
    let simple_variant = base.clone().without("cut").without("RR").without("cls");
    let full_variant = base.clone();
    let methods: Vec<(String, Runner)> = vec![
        (
            "ZeroER".to_string(),
            Box::new(move |d| run_zeroer(d, seed).matching.f1),
        ),
        (
            "Auto-FuzzyJoin".to_string(),
            Box::new(|d| run_auto_fuzzy_join(d).matching.f1),
        ),
        (
            "Sudowoodo (-cut,-RR,-cls)".to_string(),
            Box::new(move |d| {
                EmPipeline::new(simple_variant.clone())
                    .run(d, Some(0))
                    .matching
                    .f1
            }),
        ),
        (
            "Sudowoodo".to_string(),
            Box::new(move |d| {
                EmPipeline::new(full_variant.clone())
                    .run(d, Some(0))
                    .matching
                    .f1
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, runner) in methods {
        let mut row = vec![name];
        let mut scores = Vec::new();
        for dataset in &datasets {
            let f1 = runner(dataset);
            scores.push(f1);
            row.push(pct(f1));
        }
        row.push(pct(scores.iter().sum::<f32>() / scores.len().max(1) as f32));
        rows.push(row);
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    TableResult::new("table06", &header_refs, rows)
}

/// Table VII + Figure 7 — blocking quality (recall / candidate counts / CSSR curves).
pub fn table07_fig07_blocking(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let ks: Vec<usize> = if config.quick {
        vec![1, 5, 10, 20]
    } else {
        vec![1, 2, 5, 10, 15, 20]
    };
    let mut rows = Vec::new();
    for profile in em_profiles(config) {
        let dataset = generate(&profile, config);
        let dlblock = run_dlblock_curve(&dataset, &ks);
        let sudowoodo = EmPipeline::new(base.clone()).blocking_curve(&dataset, &ks);
        for (dl, sw) in dlblock.iter().zip(sudowoodo.iter()) {
            rows.push(vec![
                dataset.name.clone(),
                dl.k.to_string(),
                format!("{:.3}", dl.quality.recall),
                dl.quality.num_candidates.to_string(),
                format!("{:.2}%", dl.quality.cssr * 100.0),
                format!("{:.3}", sw.1.recall),
                sw.1.num_candidates.to_string(),
                format!("{:.2}%", sw.1.cssr * 100.0),
            ]);
        }
    }
    TableResult::new(
        "table07_fig07",
        &[
            "Dataset",
            "k",
            "DL-Block R",
            "DL-Block #cand",
            "DL-Block CSSR",
            "Sudowoodo R",
            "Sudowoodo #cand",
            "Sudowoodo CSSR",
        ],
        rows,
    )
}

/// Table VIII — error-correction F1 for data cleaning.
pub fn table08_cleaning(config: &HarnessConfig) -> TableResult {
    let profiles = if config.quick {
        vec![CleaningProfile::beers(), CleaningProfile::hospital()]
    } else {
        CleaningProfile::suite()
    };
    let labeled_rows = 20;
    let base = config.sudowoodo_config();
    let mut no_pretrain = base.clone();
    no_pretrain.pretrain_epochs = 0; // the "RoBERTa-base" analog: fine-tuning only

    let mut header = vec!["Method".to_string()];
    header.extend(profiles.iter().map(|p| p.name.to_string()));
    header.push("average".to_string());
    let mut table: Vec<(String, Vec<f32>)> = vec![
        ("Raha + Baran".to_string(), Vec::new()),
        ("Perfect ED + Baran".to_string(), Vec::new()),
        ("RoBERTa-base (no pre-training)".to_string(), Vec::new()),
        ("Sudowoodo".to_string(), Vec::new()),
    ];
    for profile in &profiles {
        let dataset = profile.generate(config.scale, config.seed);
        table[0].1.push(
            run_baran(
                &dataset,
                ErrorDetection::RahaLike,
                labeled_rows,
                config.seed,
            )
            .correction
            .f1,
        );
        table[1].1.push(
            run_baran(&dataset, ErrorDetection::Perfect, labeled_rows, config.seed)
                .correction
                .f1,
        );
        table[2].1.push(
            CleaningPipeline::new(no_pretrain.clone())
                .run(&dataset, labeled_rows)
                .correction
                .f1,
        );
        table[3].1.push(
            CleaningPipeline::new(base.clone())
                .run(&dataset, labeled_rows)
                .correction
                .f1,
        );
    }
    let rows = table
        .into_iter()
        .map(|(name, scores)| {
            let mut row = vec![name];
            row.extend(scores.iter().map(|&f| pct(f)));
            row.push(pct(scores.iter().sum::<f32>() / scores.len().max(1) as f32));
            row
        })
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    TableResult::new("table08", &header_refs, rows)
}

fn column_setup(
    config: &HarnessConfig,
) -> (
    sudowoodo_datasets::columns::ColumnCorpus,
    Vec<sudowoodo_datasets::ColumnPair>,
    Vec<sudowoodo_datasets::ColumnPair>,
    Vec<sudowoodo_datasets::ColumnPair>,
) {
    let corpus =
        ColumnProfile::default().generate(if config.quick { 0.4 } else { 1.0 }, config.seed);
    // Candidate pairs enriched in same-type pairs, mirroring kNN blocking output.
    let mut candidates = Vec::new();
    for i in 0..corpus.len() {
        if let Some(j) = (i + 1..corpus.len()).find(|&j| corpus.same_type(i, j)) {
            candidates.push((i, j));
        }
        let other = (i * 53 + 17) % corpus.len();
        if other != i {
            candidates.push((i.min(other), i.max(other)));
        }
    }
    let num_pairs = if config.quick { 240 } else { 600 };
    let (train, valid, test) = sample_labeled_pairs(&corpus, &candidates, num_pairs, config.seed);
    (corpus, train, valid, test)
}

/// Tables X / XII — column matching: Sherlock/Sato × classifiers versus Sudowoodo.
pub fn table10_12_column_matching(config: &HarnessConfig) -> TableResult {
    let (corpus, train, valid, test) = column_setup(config);
    let mut rows = Vec::new();
    for result in run_column_baseline_grid(&corpus, &train, &valid, &test, config.seed) {
        rows.push(vec![
            result.method,
            pct(result.valid.precision),
            pct(result.valid.recall),
            pct(result.valid.f1),
            pct(result.test.precision),
            pct(result.test.recall),
            pct(result.test.f1),
        ]);
    }
    let pipeline = ColumnPipeline::new(config.sudowoodo_config());
    let sw = pipeline.run(&corpus, &train, &valid, &test);
    rows.push(vec![
        "Sudowoodo".to_string(),
        pct(sw.valid.precision),
        pct(sw.valid.recall),
        pct(sw.valid.f1),
        pct(sw.test.precision),
        pct(sw.test.recall),
        pct(sw.test.f1),
    ]);
    TableResult::new(
        "table10_12",
        &[
            "Method", "Valid P", "Valid R", "Valid F1", "Test P", "Test R", "Test F1",
        ],
        rows,
    )
}

/// Tables IX / XIII — discovered column clusters: counts, purity, and example clusters.
pub fn table09_13_column_clusters(config: &HarnessConfig) -> TableResult {
    let (corpus, train, valid, test) = column_setup(config);
    let pipeline = ColumnPipeline::new(config.sudowoodo_config());
    let result = pipeline.run(&corpus, &train, &valid, &test);
    let mut rows = vec![
        vec!["#columns".to_string(), corpus.len().to_string()],
        vec![
            "#labeled pairs (train)".to_string(),
            result.labeled_pairs.to_string(),
        ],
        vec![
            "#clusters discovered".to_string(),
            result.num_clusters.to_string(),
        ],
        vec![
            "#multi-column clusters".to_string(),
            result.num_multi_clusters.to_string(),
        ],
        vec![
            "cluster purity".to_string(),
            format!("{:.1}%", result.purity * 100.0),
        ],
        vec![
            "blocking time (s)".to_string(),
            format!("{:.2}", result.blocking_secs),
        ],
        vec![
            "matching time (s)".to_string(),
            format!("{:.2}", result.matching_secs),
        ],
    ];
    // Example fine-grained subtypes present in the corpus (Table IX flavour).
    for fine in ["central eu city", "baseball in-game event", "company name"] {
        if let Some(fine_idx) = corpus.fine_names.iter().position(|n| n == fine) {
            let examples: Vec<String> = corpus
                .columns
                .iter()
                .zip(&corpus.fine_labels)
                .filter(|(_, &f)| f == fine_idx)
                .take(1)
                .flat_map(|(c, _)| c.values.iter().take(3).cloned())
                .collect();
            rows.push(vec![
                format!("example subtype: {fine}"),
                examples.join(" | "),
            ]);
        }
    }
    TableResult::new("table09_13", &["Quantity", "Value"], rows)
}

/// Table XI — pseudo-label quality (TPR / TNR of the generated training set).
pub fn table11_pseudo_quality(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let mut rows = Vec::new();
    for profile in em_profiles(config) {
        let dataset = generate(&profile, config);
        for (name, variant, budget) in [
            (
                "SimCLR",
                {
                    // SimCLR with pseudo labels re-enabled to measure raw label quality.
                    let mut v = base.clone().simclr();
                    v.use_pseudo_labels = true;
                    v
                },
                Some(config.label_budget),
            ),
            ("Sudowoodo", base.clone(), Some(config.label_budget)),
            ("Sudowoodo (no label)", base.clone(), Some(0)),
        ] {
            let result = EmPipeline::new(variant).run(&dataset, budget);
            if let Some((tpr, tnr)) = result.pseudo_quality {
                rows.push(vec![
                    dataset.name.clone(),
                    name.to_string(),
                    pct(tpr),
                    pct(tnr),
                    result.num_pseudo_labels.to_string(),
                ]);
            }
        }
    }
    TableResult::new(
        "table11",
        &["Dataset", "Method", "TPR", "TNR", "#pseudo labels"],
        rows,
    )
}

/// Figure 8 — hyper-parameter sensitivity sweeps on one dataset.
pub fn fig08_sensitivity(config: &HarnessConfig) -> TableResult {
    let profile = EmProfile::abt_buy();
    let dataset = generate(&profile, config);
    let base = config.sudowoodo_config();
    let budget = Some(config.label_budget);
    let mut rows = Vec::new();

    let cutoff_ratios: Vec<f32> = if config.quick {
        vec![0.01, 0.05]
    } else {
        vec![0.01, 0.03, 0.05, 0.08]
    };
    for r in cutoff_ratios {
        let mut v = base.clone();
        v.cutoff_ratio = r;
        let f1 = EmPipeline::new(v).run(&dataset, budget).matching.f1;
        rows.push(vec!["cutoff_ratio".into(), format!("{r}"), pct(f1)]);
    }
    let cluster_counts: Vec<usize> = if config.quick {
        vec![4, 16]
    } else {
        vec![4, 8, 16, 32]
    };
    for k in cluster_counts {
        let mut v = base.clone();
        v.num_clusters = k;
        let f1 = EmPipeline::new(v).run(&dataset, budget).matching.f1;
        rows.push(vec!["num_clusters".into(), k.to_string(), pct(f1)]);
    }
    let alphas: Vec<f32> = if config.quick {
        vec![1e-3, 1e-1]
    } else {
        vec![1e-4, 1e-3, 1e-2, 1e-1]
    };
    for a in alphas {
        let mut v = base.clone();
        v.bt_alpha = a;
        let f1 = EmPipeline::new(v).run(&dataset, budget).matching.f1;
        rows.push(vec!["alpha_bt".into(), format!("{a}"), pct(f1)]);
    }
    let multipliers: Vec<usize> = if config.quick {
        vec![2, 8]
    } else {
        vec![2, 4, 6, 8, 10]
    };
    for m in multipliers {
        let mut v = base.clone();
        v.pseudo_multiplier = m;
        let f1 = EmPipeline::new(v).run(&dataset, budget).matching.f1;
        rows.push(vec!["multiplier".into(), m.to_string(), pct(f1)]);
    }
    TableResult::new("fig08", &["Hyper-parameter", "Value", "F1 (Abt-Buy)"], rows)
}

/// Figures 9 / 10 / 11 — running time of EM, blocking, and data cleaning.
pub fn fig09_11_runtime(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let budget = Some(config.label_budget);
    let mut rows = Vec::new();
    for profile in em_profiles(config) {
        let dataset = generate(&profile, config);
        let simclr = EmPipeline::new(base.clone().simclr()).run(&dataset, budget);
        let sudowoodo = EmPipeline::new(base.clone()).run(&dataset, budget);
        let ditto = run_ditto(&dataset, budget, &base);
        let dm = run_deepmatcher_full(&dataset, &base);
        rows.push(vec![
            "EM (Fig 9)".into(),
            dataset.name.clone(),
            format!("{:.2}", simclr.timings.total_secs),
            format!("{:.2}", ditto.seconds),
            format!("{:.2}", sudowoodo.timings.total_secs),
            format!("{:.2}", dm.seconds),
        ]);
        rows.push(vec![
            "Blocking (Fig 10)".into(),
            dataset.name.clone(),
            format!("{:.2}", sudowoodo.timings.blocking_secs),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    let cleaning_profiles = if config.quick {
        vec![CleaningProfile::beers()]
    } else {
        CleaningProfile::suite()
    };
    let mut no_pretrain = base.clone();
    no_pretrain.pretrain_epochs = 0;
    for profile in cleaning_profiles {
        let dataset = profile.generate(config.scale, config.seed);
        let plain = CleaningPipeline::new(no_pretrain.clone()).run(&dataset, 20);
        let sudowoodo = CleaningPipeline::new(base.clone()).run(&dataset, 20);
        rows.push(vec![
            "Cleaning (Fig 11)".into(),
            dataset.name.clone(),
            format!("{:.2}", plain.pretrain_secs + plain.finetune_secs),
            String::new(),
            format!("{:.2}", sudowoodo.pretrain_secs + sudowoodo.finetune_secs),
            String::new(),
        ]);
    }
    TableResult::new(
        "fig09_11",
        &[
            "Figure",
            "Dataset",
            "SimCLR/RoBERTa (s)",
            "Ditto (s)",
            "Sudowoodo (s)",
            "DeepMatcher full (s)",
        ],
        rows,
    )
}

/// Tables XIV / XV — candidate-correction statistics and the cleaning ablation.
pub fn table14_15_cleaning_detail(config: &HarnessConfig) -> TableResult {
    let profiles = if config.quick {
        vec![CleaningProfile::beers(), CleaningProfile::rayyan()]
    } else {
        CleaningProfile::suite()
    };
    let base = config.sudowoodo_config();
    let mut rows = Vec::new();
    for profile in &profiles {
        let dataset = profile.generate(config.scale, config.seed);
        let stats = dataset.stats();
        rows.push(vec![
            "candidates (Table XIV)".into(),
            stats.name.clone(),
            format!("coverage {:.1}%", stats.coverage * 100.0),
            format!("#cand {:.1}", stats.avg_candidates),
            format!("error rate {:.1}%", stats.error_rate * 100.0),
        ]);
        for variant in [
            base.clone().without("cut"),
            base.clone().without("RR"),
            base.clone().without("cls"),
            base.clone(),
        ] {
            let name = variant.variant_name();
            let result = CleaningPipeline::new(variant).run(&dataset, 20);
            rows.push(vec![
                "ablation (Table XV)".into(),
                stats.name.clone(),
                name,
                pct(result.correction.f1),
                String::new(),
            ]);
        }
    }
    TableResult::new(
        "table14_15",
        &["Section", "Dataset", "Entry", "Value", "Extra"],
        rows,
    )
}

/// Table XVI — performance gain of Sudowoodo over Ditto per Jaccard difficulty level.
pub fn table16_difficulty(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let budget = Some(config.label_budget);
    let mut rows = Vec::new();
    let profiles = if config.quick {
        vec![EmProfile::abt_buy()]
    } else {
        vec![
            EmProfile::abt_buy(),
            EmProfile::walmart_amazon(),
            EmProfile::dblp_acm(),
        ]
    };
    for profile in profiles {
        let dataset = generate(&profile, config);
        // Train both systems once, then evaluate per difficulty level.
        let pipeline = EmPipeline::new(base.clone());
        let (encoder, _) = pipeline.pretrain_encoder(&dataset);
        let (candidates, _) = pipeline.block(&encoder, &dataset, base.blocking_k);
        let labeled = pipeline.sample_labels(&dataset, budget);
        let pseudo = sudowoodo_core::generate_pseudo_labels(
            &candidates,
            base.pseudo_positive_ratio,
            labeled.len() * base.pseudo_multiplier.saturating_sub(1),
        );
        let fine_tune = sudowoodo_core::FineTuneConfig {
            epochs: base.finetune_epochs,
            batch_size: base.finetune_batch_size,
            learning_rate: base.finetune_lr,
            seed: base.seed,
        };
        let texts_a: Vec<String> = dataset
            .table_a
            .iter()
            .map(sudowoodo_text::serialize_record)
            .collect();
        let texts_b: Vec<String> = dataset
            .table_b
            .iter()
            .map(sudowoodo_text::serialize_record)
            .collect();
        let pair = |a: usize, b: usize, label: bool| {
            sudowoodo_core::TrainPair::new(texts_a[a].clone(), texts_b[b].clone(), label)
        };
        let labeled_pairs: Vec<_> = labeled.iter().map(|p| pair(p.a, p.b, p.label)).collect();
        let mut train_pairs = labeled_pairs.clone();
        train_pairs.extend(pseudo.labels.iter().map(|p| pair(p.a, p.b, p.label)));
        let mut sudowoodo_matcher =
            sudowoodo_core::PairMatcher::new(encoder, base.use_diff_head, base.seed);
        sudowoodo_matcher.fine_tune(&train_pairs, &fine_tune);
        // Ditto-like: random-init encoder, labeled pairs only, concat head.
        let ditto_encoder =
            sudowoodo_core::Encoder::from_corpus(base.encoder, &dataset.corpus(), base.seed);
        let mut ditto_matcher = sudowoodo_core::PairMatcher::new(ditto_encoder, false, base.seed);
        ditto_matcher.fine_tune(&labeled_pairs, &fine_tune);

        for level in difficulty_levels(&dataset, &dataset.test, 5) {
            let sw = sudowoodo_core::pipeline::em::evaluate_matcher(
                &sudowoodo_matcher,
                &dataset,
                &level.pairs,
                0.5,
            );
            let ditto = sudowoodo_core::pipeline::em::evaluate_matcher(
                &ditto_matcher,
                &dataset,
                &level.pairs,
                0.5,
            );
            rows.push(vec![
                dataset.name.clone(),
                level.level.to_string(),
                pct(ditto.f1),
                pct(sw.f1),
                format!(
                    "[{:.2}, {:.2}]",
                    level.positive_jaccard_range.0, level.positive_jaccard_range.1
                ),
                format!(
                    "[{:.2}, {:.2}]",
                    level.negative_jaccard_range.0, level.negative_jaccard_range.1
                ),
            ]);
        }
    }
    TableResult::new(
        "table16",
        &[
            "Dataset",
            "Difficulty",
            "Ditto F1",
            "Sudowoodo F1",
            "pos Jaccard",
            "neg Jaccard",
        ],
        rows,
    )
}

/// Table XVIII — fully supervised EM.
pub fn table18_full_supervised(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let profiles = if config.quick {
        vec![EmProfile::beer(), EmProfile::fodors_zagats()]
    } else {
        EmProfile::full_suite()
    };
    let mut rows = Vec::new();
    for profile in profiles {
        let dataset = generate(&profile, config);
        let dm = run_deepmatcher_full(&dataset, &base).matching.f1;
        let ditto = run_ditto(&dataset, None, &base).matching.f1;
        let mut no_pl = base.clone().without("PL"); // full supervision: no pseudo labels
        no_pl.use_pseudo_labels = false;
        let without_rr = EmPipeline::new(no_pl.clone().without("RR"))
            .run(&dataset, None)
            .matching
            .f1;
        let full = EmPipeline::new(no_pl).run(&dataset, None).matching.f1;
        rows.push(vec![
            dataset.name.clone(),
            pct(dm),
            pct(ditto),
            pct(without_rr),
            pct(full),
        ]);
    }
    TableResult::new(
        "table18",
        &[
            "Dataset",
            "DeepMatcher",
            "Ditto",
            "Sudowoodo (w/o RR)",
            "Sudowoodo",
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> HarnessConfig {
        HarnessConfig {
            scale: 0.06,
            quick: true,
            seed: 3,
            label_budget: 30,
        }
    }

    #[test]
    fn table02_lists_all_eight_datasets() {
        let t = table02_em_datasets(&tiny_harness());
        assert_eq!(t.rows.len(), 8);
        assert_eq!(t.header.len(), 6);
    }

    #[test]
    fn quick_blocking_table_has_rows_for_each_k_and_dataset() {
        let t = table07_fig07_blocking(&tiny_harness());
        assert_eq!(t.rows.len(), 2 * 4); // 2 quick datasets x 4 ks
    }

    #[test]
    fn quick_unsupervised_table_runs() {
        let t = table06_unsupervised(&tiny_harness());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.header.len(), 2 + 2); // Method + 2 datasets + average
    }

    #[test]
    fn quick_pseudo_quality_table_runs() {
        let t = table11_pseudo_quality(&tiny_harness());
        assert!(!t.rows.is_empty());
        assert_eq!(t.header.len(), 5);
    }
}

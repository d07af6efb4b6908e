//! One function per table / figure of the paper's evaluation section.
//!
//! Every function returns a [`TableResult`] that the `paper` binary prints and persists as
//! JSON. The functions honour [`HarnessConfig::quick`] by restricting sweeps to
//! representative subsets.
//!
//! The F1 comparisons (Tables V, VI, VIII, XVIII) are data: a list of rows, each a label
//! and the `Method` it runs, scored over a list of datasets by one `grid`.

use serde::Serialize;

use sudowoodo_baselines::{
    run_auto_fuzzy_join, run_baran, run_column_baseline_grid, run_ditto, run_dlblock_curve,
    run_rotom, run_zeroer, ErrorDetection,
};
use sudowoodo_core::config::SudowoodoConfig;
use sudowoodo_core::pipeline::em::labeled_train_pairs;
use sudowoodo_core::pipeline::{CleaningPipeline, ColumnPipeline, EmPipeline};
use sudowoodo_datasets::cleaning::{CleaningDataset, CleaningProfile};
use sudowoodo_datasets::columns::{sample_labeled_pairs, ColumnProfile};
use sudowoodo_datasets::difficulty::difficulty_levels;
use sudowoodo_datasets::em::{EmDataset, EmProfile, LabeledPair};
use sudowoodo_ml::metrics::PrF1;

use crate::harness::{pct, print_table, HarnessConfig};

/// Rows labeled per cleaning dataset (the paper's 20).
const LABELED_ROWS: usize = 20;

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

fn generate(profiles: Vec<EmProfile>, config: &HarnessConfig) -> Vec<EmDataset> {
    profiles
        .iter()
        .map(|p| p.generate(config.scale, config.seed))
        .collect()
}

/// The semi-supervised suite, or two of its datasets in quick mode.
fn em_datasets(config: &HarnessConfig) -> Vec<EmDataset> {
    if config.quick {
        generate(
            vec![EmProfile::dblp_acm(), EmProfile::walmart_amazon()],
            config,
        )
    } else {
        generate(EmProfile::semi_supervised_suite(), config)
    }
}

/// A compared system of an F1 table: what it runs on and the F1 it scores there.
trait Method {
    /// The kind of dataset the system runs on.
    type Dataset;
    /// The column header of a dataset.
    fn dataset_name(dataset: &Self::Dataset) -> &str;
    /// The F1 the system scores on one dataset; `base` is the harness configuration the
    /// baselines train with.
    fn f1(&self, dataset: &Self::Dataset, base: &SudowoodoConfig) -> f32;
}

/// A compared EM system. A label budget of `None` is every train+valid label.
enum EmMethod {
    /// The Ditto-like baseline ([`run_ditto`]).
    Ditto(Option<usize>),
    /// The Rotom-like baseline ([`run_rotom`]).
    Rotom(Option<usize>),
    /// ZeroER ([`run_zeroer`]).
    ZeroEr,
    /// Auto-FuzzyJoin ([`run_auto_fuzzy_join`]).
    AutoFuzzyJoin,
    /// The Sudowoodo pipeline ([`EmPipeline`]) in one configuration.
    Sudowoodo(Box<SudowoodoConfig>, Option<usize>),
}

impl Method for EmMethod {
    type Dataset = EmDataset;

    fn dataset_name(dataset: &EmDataset) -> &str {
        &dataset.name
    }

    fn f1(&self, dataset: &EmDataset, base: &SudowoodoConfig) -> f32 {
        match self {
            EmMethod::Ditto(budget) => run_ditto(dataset, *budget, base).matching.f1,
            EmMethod::Rotom(budget) => run_rotom(dataset, *budget, base).matching.f1,
            EmMethod::ZeroEr => run_zeroer(dataset, base.seed).matching.f1,
            EmMethod::AutoFuzzyJoin => run_auto_fuzzy_join(dataset).matching.f1,
            EmMethod::Sudowoodo(config, budget) => {
                EmPipeline::new(SudowoodoConfig::clone(config))
                    .run(dataset, *budget)
                    .matching
                    .f1
            }
        }
    }
}

/// A compared error-correction system, trained on [`LABELED_ROWS`] rows.
enum CleaningMethod {
    /// The Baran-like corrector ([`run_baran`]) behind one error detector.
    Baran(ErrorDetection),
    /// The Sudowoodo cleaning pipeline ([`CleaningPipeline`]) in one configuration.
    Sudowoodo(Box<SudowoodoConfig>),
}

impl Method for CleaningMethod {
    type Dataset = CleaningDataset;

    fn dataset_name(dataset: &CleaningDataset) -> &str {
        &dataset.name
    }

    fn f1(&self, dataset: &CleaningDataset, base: &SudowoodoConfig) -> f32 {
        match self {
            CleaningMethod::Baran(detection) => {
                run_baran(dataset, *detection, LABELED_ROWS, base.seed)
                    .correction
                    .f1
            }
            CleaningMethod::Sudowoodo(config) => {
                CleaningPipeline::new(SudowoodoConfig::clone(config))
                    .run(dataset, LABELED_ROWS)
                    .correction
                    .f1
            }
        }
    }
}

/// F1 of every method on every dataset: one row per method, one column per dataset, and
/// an `average` column.
fn grid<M: Method>(
    id: &str,
    methods: Vec<(String, M)>,
    datasets: &[M::Dataset],
    base: &SudowoodoConfig,
) -> TableResult {
    let mut header = vec!["Method"];
    header.extend(datasets.iter().map(M::dataset_name));
    header.push("average");
    let rows = methods
        .into_iter()
        .map(|(label, method)| {
            let scores: Vec<f32> = datasets.iter().map(|d| method.f1(d, base)).collect();
            let mut row = vec![label];
            row.extend(scores.iter().map(|&f1| pct(f1)));
            row.push(pct(scores.iter().sum::<f32>() / scores.len().max(1) as f32));
            row
        })
        .collect();
    TableResult::new(id, &header, rows)
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
    let ditto = |budget| (format!("Ditto ({budget})"), EmMethod::Ditto(Some(budget)));
    let (mut methods, variants) = if config.quick {
        (
            vec![ditto(budget)],
            vec![
                base.clone().simclr(),
                base.clone().without("PL"),
                base.clone(),
            ],
        )
    } else {
        (
            vec![
                ("Ditto (full)".to_string(), EmMethod::Ditto(None)),
                ditto(budget),
                ditto(budget + budget / 2),
                (format!("Rotom ({budget})"), EmMethod::Rotom(Some(budget))),
            ],
            vec![
                base.clone().simclr(),
                base.clone().without("cut").without("RR").without("cls"),
                base.clone().without("cut").without("RR"),
                base.clone().without("cut"),
                base.clone().without("PL"),
                base.clone().without("RR"),
                base.clone().without("cls"),
                base.clone(),
            ],
        )
    };
    methods.extend(variants.into_iter().map(|v| {
        (
            v.variant_name(),
            EmMethod::Sudowoodo(v.into(), Some(budget)),
        )
    }));
    grid("table05", methods, &em_datasets(config), &base)
}

/// Table VI — F1 for unsupervised matching.
pub fn table06_unsupervised(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let simple = base.clone().without("cut").without("RR").without("cls");
    let methods = vec![
        ("ZeroER".to_string(), EmMethod::ZeroEr),
        ("Auto-FuzzyJoin".to_string(), EmMethod::AutoFuzzyJoin),
        (
            "Sudowoodo (-cut,-RR,-cls)".to_string(),
            EmMethod::Sudowoodo(simple.into(), Some(0)),
        ),
        (
            "Sudowoodo".to_string(),
            EmMethod::Sudowoodo(base.clone().into(), Some(0)),
        ),
    ];
    grid("table06", methods, &em_datasets(config), &base)
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
    for dataset in em_datasets(config) {
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
    let base = config.sudowoodo_config();
    let methods = vec![
        (
            "Raha + Baran".to_string(),
            CleaningMethod::Baran(ErrorDetection::RahaLike),
        ),
        (
            "Perfect ED + Baran".to_string(),
            CleaningMethod::Baran(ErrorDetection::Perfect),
        ),
        (
            "RoBERTa-base (no pre-training)".to_string(),
            CleaningMethod::Sudowoodo(without_pretraining(&base).into()),
        ),
        (
            "Sudowoodo".to_string(),
            CleaningMethod::Sudowoodo(base.clone().into()),
        ),
    ];
    let datasets: Vec<CleaningDataset> = profiles
        .iter()
        .map(|p| p.generate(config.scale, config.seed))
        .collect();
    grid("table08", methods, &datasets, &base)
}

/// The "RoBERTa-base" analog of the cleaning experiments: fine-tuning only.
fn without_pretraining(base: &SudowoodoConfig) -> SudowoodoConfig {
    SudowoodoConfig {
        pretrain_epochs: 0,
        ..base.clone()
    }
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
    let mut results: Vec<(String, PrF1, PrF1)> =
        run_column_baseline_grid(&corpus, &train, &valid, &test, config.seed)
            .into_iter()
            .map(|r| (r.method, r.valid, r.test))
            .collect();
    let sw = ColumnPipeline::new(config.sudowoodo_config()).run(&corpus, &train, &valid, &test);
    results.push(("Sudowoodo".to_string(), sw.valid, sw.test));
    let rows = results
        .into_iter()
        .map(|(method, v, t)| {
            let cells = [v.precision, v.recall, v.f1, t.precision, t.recall, t.f1];
            [vec![method], cells.map(pct).to_vec()].concat()
        })
        .collect();
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
    let result = ColumnPipeline::new(config.sudowoodo_config()).run(&corpus, &train, &valid, &test);
    let mut rows: Vec<Vec<String>> = [
        ("#columns", corpus.len().to_string()),
        ("#labeled pairs (train)", result.labeled_pairs.to_string()),
        ("#clusters discovered", result.num_clusters.to_string()),
        (
            "#multi-column clusters",
            result.num_multi_clusters.to_string(),
        ),
        ("cluster purity", format!("{:.1}%", result.purity * 100.0)),
        ("blocking time (s)", format!("{:.2}", result.blocking_secs)),
        ("matching time (s)", format!("{:.2}", result.matching_secs)),
    ]
    .into_iter()
    .map(|(quantity, value)| vec![quantity.to_string(), value])
    .collect();
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
    for dataset in em_datasets(config) {
        // SimCLR with pseudo labels re-enabled to measure raw label quality.
        let simclr = SudowoodoConfig {
            use_pseudo_labels: true,
            ..base.clone().simclr()
        };
        for (name, variant, budget) in [
            ("SimCLR", simclr, Some(config.label_budget)),
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
    let dataset = EmProfile::abt_buy().generate(config.scale, config.seed);
    let base = config.sudowoodo_config();
    // (hyper-parameter, quick values, full values, setter); counts are whole floats.
    type Setter = fn(&mut SudowoodoConfig, f32);
    let sweeps: [(&str, &[f32], &[f32], Setter); 4] = [
        (
            "cutoff_ratio",
            &[0.01, 0.05],
            &[0.01, 0.03, 0.05, 0.08],
            |c, v| c.cutoff_ratio = v,
        ),
        (
            "num_clusters",
            &[4.0, 16.0],
            &[4.0, 8.0, 16.0, 32.0],
            |c, v| c.num_clusters = v as usize,
        ),
        (
            "alpha_bt",
            &[1e-3, 1e-1],
            &[1e-4, 1e-3, 1e-2, 1e-1],
            |c, v| c.bt_alpha = v,
        ),
        (
            "multiplier",
            &[2.0, 8.0],
            &[2.0, 4.0, 6.0, 8.0, 10.0],
            |c, v| c.pseudo_multiplier = v as usize,
        ),
    ];
    let mut rows = Vec::new();
    for (name, quick, full, set) in sweeps {
        for &value in if config.quick { quick } else { full } {
            let mut variant = base.clone();
            set(&mut variant, value);
            let f1 = EmPipeline::new(variant)
                .run(&dataset, Some(config.label_budget))
                .matching
                .f1;
            rows.push(vec![name.to_string(), value.to_string(), pct(f1)]);
        }
    }
    TableResult::new("fig08", &["Hyper-parameter", "Value", "F1 (Abt-Buy)"], rows)
}

/// Figures 9 / 10 / 11 — running time of EM, blocking, and data cleaning.
pub fn fig09_11_runtime(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let budget = Some(config.label_budget);
    let mut rows = Vec::new();
    for dataset in em_datasets(config) {
        let simclr = EmPipeline::new(base.clone().simclr()).run(&dataset, budget);
        let sudowoodo = EmPipeline::new(base.clone()).run(&dataset, budget);
        let ditto = run_ditto(&dataset, budget, &base);
        let ditto_full = run_ditto(&dataset, None, &base);
        rows.push(vec![
            "EM (Fig 9)".into(),
            dataset.name.clone(),
            format!("{:.2}", simclr.timings.total_secs),
            format!("{:.2}", ditto.seconds),
            format!("{:.2}", sudowoodo.timings.total_secs),
            format!("{:.2}", ditto_full.seconds),
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
    for profile in cleaning_profiles {
        let dataset = profile.generate(config.scale, config.seed);
        let plain = CleaningPipeline::new(without_pretraining(&base)).run(&dataset, LABELED_ROWS);
        let sudowoodo = CleaningPipeline::new(base.clone()).run(&dataset, LABELED_ROWS);
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
            "Ditto full (s)",
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
            let result = CleaningPipeline::new(variant).run(&dataset, LABELED_ROWS);
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
    for dataset in generate(profiles, config) {
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
        let fine_tune = base.fine_tune_config();
        let pseudo: Vec<LabeledPair> = pseudo
            .labels
            .iter()
            .map(|p| LabeledPair {
                a: p.a,
                b: p.b,
                label: p.label,
            })
            .collect();
        let labeled_pairs = labeled_train_pairs(&dataset, &labeled);
        let mut train_pairs = labeled_pairs.clone();
        train_pairs.extend(labeled_train_pairs(&dataset, &pseudo));
        let mut sudowoodo_matcher =
            sudowoodo_core::PairMatcher::new(encoder, base.use_diff_head, base.seed);
        sudowoodo_matcher.fine_tune(&train_pairs, &fine_tune);
        // Ditto-like: random-init encoder, labeled pairs only, concat head.
        let ditto_encoder =
            sudowoodo_core::Encoder::from_corpus(base.encoder, &dataset.corpus(), base.seed);
        let mut ditto_matcher = sudowoodo_core::PairMatcher::new(ditto_encoder, false, base.seed);
        ditto_matcher.fine_tune(&labeled_pairs, &fine_tune);

        for level in difficulty_levels(&dataset, &dataset.test, 5) {
            let pairs = labeled_train_pairs(&dataset, &level.pairs);
            let sw = sudowoodo_matcher.evaluate(&pairs, 0.5);
            let ditto = ditto_matcher.evaluate(&pairs, 0.5);
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

/// Table XVIII — fully supervised EM: one row per dataset, one column per method.
pub fn table18_full_supervised(config: &HarnessConfig) -> TableResult {
    let base = config.sudowoodo_config();
    let profiles = if config.quick {
        vec![EmProfile::beer(), EmProfile::fodors_zagats()]
    } else {
        EmProfile::full_suite()
    };
    // Full supervision: every train+valid label and no pseudo labels.
    let no_pl = base.clone().without("PL");
    let methods = [
        ("Ditto", EmMethod::Ditto(None)),
        (
            "Sudowoodo (w/o RR)",
            EmMethod::Sudowoodo(no_pl.clone().without("RR").into(), None),
        ),
        ("Sudowoodo", EmMethod::Sudowoodo(no_pl.into(), None)),
    ];
    let mut header = vec!["Dataset"];
    header.extend(methods.iter().map(|(label, _)| *label));
    let rows = generate(profiles, config)
        .iter()
        .map(|dataset| {
            let mut row = vec![dataset.name.clone()];
            row.extend(methods.iter().map(|(_, m)| pct(m.f1(dataset, &base))));
            row
        })
        .collect();
    TableResult::new("table18", &header, rows)
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
    fn full_supervision_table_has_one_column_per_distinct_method() {
        let t = table18_full_supervised(&tiny_harness());
        assert_eq!(
            t.header,
            ["Dataset", "Ditto", "Sudowoodo (w/o RR)", "Sudowoodo"]
        );
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn quick_pseudo_quality_table_runs() {
        let t = table11_pseudo_quality(&tiny_harness());
        assert!(!t.rows.is_empty());
        assert_eq!(t.header.len(), 5);
    }
}

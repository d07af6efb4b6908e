//! Synthetic data-cleaning benchmarks (dirty tables + candidate corrections).
//!
//! The paper evaluates error correction on the Raha/Baran benchmark tables (`beers`,
//! `hospital`, `rayyan`, `tax` — Table III). This module generates synthetic counterparts:
//! a clean relational table, a dirty copy with injected errors of the four types the paper
//! lists (missing value, typo, formatting issue, violated attribute dependency), and a
//! candidate-correction generator emulating Baran's external error-correction tools with a
//! controllable coverage and candidate-set size (the facets reported in Tables III and XIV).

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sudowoodo_text::Table;

use crate::perturb::{reformat, typo};
use crate::vocab;

/// The error types of Table III.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorType {
    /// Missing value (cell replaced by empty / "N/A").
    MissingValue,
    /// Typographical error.
    Typo,
    /// Formatting issue (extra unit, case change, added symbol).
    FormattingIssue,
    /// Violated attribute dependency (value swapped with one that breaks an FD such as
    /// city -> state).
    ViolatedDependency,
}

impl ErrorType {
    /// Short code used in reports (MV / T / FI / VAD, as in Table III).
    pub fn code(&self) -> &'static str {
        match self {
            ErrorType::MissingValue => "MV",
            ErrorType::Typo => "T",
            ErrorType::FormattingIssue => "FI",
            ErrorType::ViolatedDependency => "VAD",
        }
    }
}

/// One injected error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Error type.
    pub error_type: ErrorType,
    /// The correct (clean) value.
    pub correct_value: String,
    /// The dirty value that replaced it.
    pub dirty_value: String,
}

/// A complete data-cleaning dataset.
#[derive(Clone, Debug)]
pub struct CleaningDataset {
    /// Dataset name (beers / hospital / rayyan / tax analogs).
    pub name: String,
    /// The dirty table given to the cleaning system.
    pub dirty: Table,
    /// The clean ground-truth table.
    pub clean: Table,
    /// All injected errors.
    pub errors: Vec<CellError>,
    /// Candidate corrections per cell `(row, col)`. Every erroneous cell has an entry;
    /// a fraction of clean cells also has (distractor) candidates, as Baran's generators do.
    /// Ordered by cell, so every walk over it is the same from one process to the next.
    pub candidates: BTreeMap<(usize, usize), Vec<String>>,
}

/// Summary statistics in the layout of Tables III / XIV.
#[derive(Clone, Debug, PartialEq)]
pub struct CleaningStats {
    /// Dataset name.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Fraction of cells that are erroneous.
    pub error_rate: f32,
    /// Error-type codes present.
    pub error_types: Vec<&'static str>,
    /// Fraction of erroneous cells whose ground-truth correction appears in the candidates.
    pub coverage: f32,
    /// Mean candidate-set size over cells that have candidates.
    pub avg_candidates: f32,
}

impl CleaningDataset {
    /// Indices of all cells `(row, col)` flagged as containing an error.
    pub fn error_cells(&self) -> Vec<(usize, usize)> {
        self.errors.iter().map(|e| (e.row, e.col)).collect()
    }

    /// Ground-truth correction for a cell, when that cell is erroneous.
    pub fn correction_for(&self, row: usize, col: usize) -> Option<&str> {
        self.errors
            .iter()
            .find(|e| e.row == row && e.col == col)
            .map(|e| e.correct_value.as_str())
    }

    /// Statistics of the dataset (Table III / XIV layout).
    pub fn stats(&self) -> CleaningStats {
        let total_cells = self.dirty.num_rows() * self.dirty.num_columns();
        let mut covered = 0usize;
        for e in &self.errors {
            if self
                .candidates
                .get(&(e.row, e.col))
                .map(|c| c.iter().any(|v| v == &e.correct_value))
                .unwrap_or(false)
            {
                covered += 1;
            }
        }
        let mut types: Vec<&'static str> =
            self.errors.iter().map(|e| e.error_type.code()).collect();
        types.sort_unstable();
        types.dedup();
        let candidate_sizes: Vec<usize> = self.candidates.values().map(|c| c.len()).collect();
        CleaningStats {
            name: self.name.clone(),
            rows: self.dirty.num_rows(),
            cols: self.dirty.num_columns(),
            error_rate: if total_cells == 0 {
                0.0
            } else {
                self.errors.len() as f32 / total_cells as f32
            },
            error_types: types,
            coverage: if self.errors.is_empty() {
                1.0
            } else {
                covered as f32 / self.errors.len() as f32
            },
            avg_candidates: if candidate_sizes.is_empty() {
                0.0
            } else {
                candidate_sizes.iter().sum::<usize>() as f32 / candidate_sizes.len() as f32
            },
        }
    }
}

/// Generation profile for one cleaning dataset.
#[derive(Clone, Debug)]
pub struct CleaningProfile {
    /// Dataset name.
    pub name: &'static str,
    /// Number of rows (at scale 1.0).
    pub rows: usize,
    /// Fraction of cells receiving an injected error.
    pub error_rate: f32,
    /// Error types to inject.
    pub error_types: Vec<ErrorType>,
    /// Probability that the true correction appears in a dirty cell's candidate set.
    pub coverage: f32,
    /// Average number of candidate corrections per cell.
    pub candidates_per_cell: usize,
    /// Which clean-table schema to use.
    pub schema: CleaningSchema,
}

/// The table schema families mirroring the four benchmark tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CleaningSchema {
    /// Beer catalog (name, style, ounces, abv, ibu, brewery, city, state).
    Beers,
    /// Hospital directory (name, address, city, state, zip, county, phone, measure code).
    Hospital,
    /// Bibliography screening (title, language, journal, created date, pagination).
    Rayyan,
    /// Personal tax records (name, gender, area code, phone, city, state, zip, salary, rate).
    Tax,
}

impl CleaningProfile {
    /// `beers` analog: moderate error rate, MV + FI + VAD errors, high coverage.
    pub fn beers() -> Self {
        CleaningProfile {
            name: "beers",
            rows: 600,
            error_rate: 0.16,
            error_types: vec![
                ErrorType::MissingValue,
                ErrorType::FormattingIssue,
                ErrorType::ViolatedDependency,
            ],
            coverage: 0.95,
            candidates_per_cell: 8,
            schema: CleaningSchema::Beers,
        }
    }

    /// `hospital` analog: low error rate, typos + VAD, high coverage.
    pub fn hospital() -> Self {
        CleaningProfile {
            name: "hospital",
            rows: 400,
            error_rate: 0.03,
            error_types: vec![ErrorType::Typo, ErrorType::ViolatedDependency],
            coverage: 0.9,
            candidates_per_cell: 8,
            schema: CleaningSchema::Hospital,
        }
    }

    /// `rayyan` analog: all four error types, *low* candidate coverage (the hard dataset).
    pub fn rayyan() -> Self {
        CleaningProfile {
            name: "rayyan",
            rows: 400,
            error_rate: 0.09,
            error_types: vec![
                ErrorType::MissingValue,
                ErrorType::Typo,
                ErrorType::FormattingIssue,
                ErrorType::ViolatedDependency,
            ],
            coverage: 0.52,
            candidates_per_cell: 12,
            schema: CleaningSchema::Rayyan,
        }
    }

    /// `tax` analog: low error rate, typos + FI + VAD, large candidate sets.
    pub fn tax() -> Self {
        CleaningProfile {
            name: "tax",
            rows: 800,
            error_rate: 0.04,
            error_types: vec![
                ErrorType::Typo,
                ErrorType::FormattingIssue,
                ErrorType::ViolatedDependency,
            ],
            coverage: 0.92,
            candidates_per_cell: 16,
            schema: CleaningSchema::Tax,
        }
    }

    /// The four datasets of the data-cleaning experiment (Table VIII).
    pub fn suite() -> Vec<CleaningProfile> {
        vec![Self::beers(), Self::hospital(), Self::rayyan(), Self::tax()]
    }

    /// Generates the dataset at the given scale and seed.
    pub fn generate(&self, scale: f32, seed: u64) -> CleaningDataset {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(self.name));
        let rows = ((self.rows as f32 * scale).round() as usize).max(10);
        let clean = generate_clean_table(self.schema, rows, &mut rng);
        let mut dirty = clean.clone();
        let num_cols = clean.num_columns();

        // Column value domains (for VAD errors and distractor candidates).
        let mut domains: Vec<Vec<String>> = Vec::with_capacity(num_cols);
        for c in 0..num_cols {
            let mut values = clean.column(c).values;
            values.sort();
            values.dedup();
            domains.push(values);
        }

        // Inject errors.
        let total_cells = rows * num_cols;
        let num_errors = ((total_cells as f32) * self.error_rate).round() as usize;
        let mut cells: Vec<(usize, usize)> = (0..rows)
            .flat_map(|r| (0..num_cols).map(move |c| (r, c)))
            .collect();
        cells.shuffle(&mut rng);
        let mut errors = Vec::with_capacity(num_errors);
        for &(row, col) in cells.iter().take(num_errors) {
            let correct = clean.cell(row, col).unwrap_or_default().to_string();
            if correct.is_empty() {
                continue;
            }
            let error_type = *self
                .error_types
                .choose(&mut rng)
                .expect("non-empty error types");
            let dirty_value = match error_type {
                ErrorType::MissingValue => {
                    if rng.gen_bool(0.5) {
                        String::new()
                    } else {
                        "n/a".to_string()
                    }
                }
                ErrorType::Typo => {
                    let t = typo(&correct, &mut rng);
                    if t == correct {
                        format!("{correct}x")
                    } else {
                        t
                    }
                }
                ErrorType::FormattingIssue => reformat(&correct, &mut rng),
                ErrorType::ViolatedDependency => {
                    // Replace with a different value from the same column's domain.
                    let domain = &domains[col];
                    let alt = domain
                        .iter()
                        .filter(|v| *v != &correct)
                        .nth(rng.gen_range(0..domain.len().max(2) - 1))
                        .cloned()
                        .unwrap_or_else(|| format!("{correct} alt"));
                    alt
                }
            };
            if dirty_value == correct {
                continue;
            }
            dirty.set_cell(row, col, dirty_value.clone());
            errors.push(CellError {
                row,
                col,
                error_type,
                correct_value: correct,
                dirty_value,
            });
        }

        // Candidate corrections: for erroneous cells, include the truth with prob `coverage`
        // plus distractors; a fraction of clean cells also receive (pure-distractor)
        // candidate sets so that the matcher must learn to reject corrections on clean cells.
        let mut candidates: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
        let error_lookup: HashMap<(usize, usize), &CellError> =
            errors.iter().map(|e| ((e.row, e.col), e)).collect();
        for (row, col) in cells.iter().copied() {
            let is_error = error_lookup.contains_key(&(row, col));
            let wants_candidates = is_error || rng.gen::<f32>() < 0.25;
            if !wants_candidates {
                continue;
            }
            let current = dirty.cell(row, col).unwrap_or_default().to_string();
            let mut cand: Vec<String> = Vec::new();
            if let Some(err) = error_lookup.get(&(row, col)) {
                if rng.gen::<f32>() < self.coverage {
                    cand.push(err.correct_value.clone());
                }
            }
            let domain = &domains[col];
            let extra = self.candidates_per_cell.saturating_sub(cand.len());
            for _ in 0..extra {
                let distractor = if domain.len() > 1 && rng.gen_bool(0.7) {
                    domain[rng.gen_range(0..domain.len())].clone()
                } else {
                    typo(&current, &mut rng)
                };
                if distractor != current && !cand.contains(&distractor) && !distractor.is_empty() {
                    cand.push(distractor);
                }
            }
            cand.shuffle(&mut rng);
            if !cand.is_empty() {
                candidates.insert((row, col), cand);
            }
        }

        CleaningDataset {
            name: self.name.to_string(),
            dirty,
            clean,
            errors,
            candidates,
        }
    }
}

fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Generates the clean table for a schema.
fn generate_clean_table(schema: CleaningSchema, rows: usize, rng: &mut impl Rng) -> Table {
    match schema {
        CleaningSchema::Beers => {
            let mut t = Table::new(
                "beers",
                vec![
                    "beer_name".into(),
                    "style".into(),
                    "ounces".into(),
                    "abv".into(),
                    "ibu".into(),
                    "brewery_name".into(),
                    "city".into(),
                    "state".into(),
                ],
            );
            for _ in 0..rows {
                let style = vocab::pick(vocab::BEER_STYLES, rng);
                let brewery = vocab::pick(vocab::BREWERIES, rng);
                let city_idx = rng.gen_range(0..vocab::US_CITIES.len());
                let state = vocab::US_STATES[city_idx % vocab::US_STATES.len()];
                t.push_row(vec![
                    format!("{} {}", vocab::pick(vocab::SONG_WORDS, rng), style),
                    style.to_string(),
                    ["12", "16", "19.2"][rng.gen_range(0..3)].to_string(),
                    format!("{:.3}", rng.gen_range(0.03..0.12)),
                    format!("{}", rng.gen_range(5..120)),
                    brewery.to_string(),
                    vocab::US_CITIES[city_idx].to_string(),
                    state.to_string(),
                ]);
            }
            t
        }
        CleaningSchema::Hospital => {
            let mut t = Table::new(
                "hospital",
                vec![
                    "name".into(),
                    "address".into(),
                    "city".into(),
                    "state".into(),
                    "zip".into(),
                    "county".into(),
                    "phone".into(),
                    "measure_name".into(),
                    "measure_code".into(),
                ],
            );
            for _ in 0..rows {
                let city_idx = rng.gen_range(0..vocab::US_CITIES.len());
                let state = vocab::US_STATES[city_idx % vocab::US_STATES.len()];
                let measure_idx = rng.gen_range(0..vocab::MEASURES.len());
                t.push_row(vec![
                    format!("{} memorial hospital", vocab::pick(vocab::LAST_NAMES, rng)),
                    format!(
                        "{} {}",
                        rng.gen_range(1..999),
                        vocab::pick(vocab::STREETS, rng)
                    ),
                    vocab::US_CITIES[city_idx].to_string(),
                    state.to_string(),
                    vocab::zip(rng),
                    format!("{} county", vocab::pick(vocab::LAST_NAMES, rng)),
                    vocab::phone(rng),
                    vocab::MEASURES[measure_idx].to_string(),
                    format!("m-{measure_idx}"),
                ]);
            }
            t
        }
        CleaningSchema::Rayyan => {
            let mut t = Table::new(
                "rayyan",
                vec![
                    "article_title".into(),
                    "article_language".into(),
                    "journal_title".into(),
                    "created_at".into(),
                    "pagination".into(),
                    "author_list".into(),
                ],
            );
            for _ in 0..rows {
                let start = rng.gen_range(1..400);
                t.push_row(vec![
                    format!(
                        "{} {}",
                        vocab::pick(vocab::PAPER_FRAMES, rng),
                        vocab::pick(vocab::PAPER_TOPICS, rng)
                    ),
                    vocab::pick(vocab::LANGUAGES, rng).to_string(),
                    format!("journal of {}", vocab::pick(vocab::PAPER_TOPICS, rng)),
                    format!(
                        "{}/{}/{}",
                        rng.gen_range(1..13),
                        rng.gen_range(1..29),
                        rng.gen_range(1..21)
                    ),
                    format!("{}-{}", start, start + rng.gen_range(1..40)),
                    format!("{{\"{}\"}}", vocab::person_name(rng)),
                ]);
            }
            t
        }
        CleaningSchema::Tax => {
            let mut t = Table::new(
                "tax",
                vec![
                    "f_name".into(),
                    "l_name".into(),
                    "gender".into(),
                    "area_code".into(),
                    "phone".into(),
                    "city".into(),
                    "state".into(),
                    "zip".into(),
                    "salary".into(),
                    "rate".into(),
                ],
            );
            for _ in 0..rows {
                let city_idx = rng.gen_range(0..vocab::US_CITIES.len());
                let state = vocab::US_STATES[city_idx % vocab::US_STATES.len()];
                t.push_row(vec![
                    vocab::pick(vocab::FIRST_NAMES, rng).to_string(),
                    vocab::pick(vocab::LAST_NAMES, rng).to_string(),
                    ["m", "f"][rng.gen_range(0..2)].to_string(),
                    format!("{}", rng.gen_range(200..990)),
                    vocab::phone(rng),
                    vocab::US_CITIES[city_idx].to_string(),
                    state.to_string(),
                    vocab::zip(rng),
                    format!("{}", rng.gen_range(1..40) * 2500),
                    format!("{:.1}", rng.gen_range(1.0..9.0)),
                ]);
            }
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_profiles_generate_expected_stats() {
        for profile in CleaningProfile::suite() {
            let ds = profile.generate(0.3, 17);
            let stats = ds.stats();
            assert!(stats.rows >= 10);
            assert!(
                !ds.errors.is_empty(),
                "{}: no errors injected",
                profile.name
            );
            // Error rate close to the profile target (scaled tables are small so allow slack).
            assert!(
                (stats.error_rate - profile.error_rate).abs() < profile.error_rate * 0.6 + 0.01,
                "{}: error rate {} vs target {}",
                profile.name,
                stats.error_rate,
                profile.error_rate
            );
            // Coverage close to the profile target.
            assert!(
                (stats.coverage - profile.coverage).abs() < 0.25,
                "{}: coverage {} vs target {}",
                profile.name,
                stats.coverage,
                profile.coverage
            );
            assert!(stats.avg_candidates > 1.0);
        }
    }

    #[test]
    fn dirty_cells_differ_from_clean_only_at_error_positions() {
        let ds = CleaningProfile::beers().generate(0.2, 3);
        let error_cells: std::collections::HashSet<(usize, usize)> =
            ds.error_cells().into_iter().collect();
        for r in 0..ds.clean.num_rows() {
            for c in 0..ds.clean.num_columns() {
                let clean = ds.clean.cell(r, c).unwrap();
                let dirty = ds.dirty.cell(r, c).unwrap();
                if error_cells.contains(&(r, c)) {
                    assert_ne!(clean, dirty, "error cell ({r},{c}) should differ");
                } else {
                    assert_eq!(clean, dirty, "clean cell ({r},{c}) should be untouched");
                }
            }
        }
    }

    #[test]
    fn every_error_records_the_clean_value() {
        let ds = CleaningProfile::hospital().generate(0.3, 5);
        for e in &ds.errors {
            assert_eq!(ds.clean.cell(e.row, e.col).unwrap(), e.correct_value);
            assert_eq!(ds.dirty.cell(e.row, e.col).unwrap(), e.dirty_value);
            assert_eq!(
                ds.correction_for(e.row, e.col),
                Some(e.correct_value.as_str())
            );
        }
        assert_eq!(ds.correction_for(usize::MAX, 0), None);
    }

    #[test]
    fn rayyan_has_lower_coverage_than_beers() {
        let beers = CleaningProfile::beers().generate(0.3, 7).stats();
        let rayyan = CleaningProfile::rayyan().generate(0.3, 7).stats();
        assert!(
            beers.coverage > rayyan.coverage + 0.2,
            "beers coverage {} should exceed rayyan coverage {}",
            beers.coverage,
            rayyan.coverage
        );
    }

    #[test]
    fn error_types_match_profile() {
        let ds = CleaningProfile::hospital().generate(0.3, 9);
        for e in &ds.errors {
            assert!(
                matches!(
                    e.error_type,
                    ErrorType::Typo | ErrorType::ViolatedDependency
                ),
                "hospital should only contain T and VAD errors"
            );
        }
        let stats = ds.stats();
        assert!(stats.error_types.contains(&"T") || stats.error_types.contains(&"VAD"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CleaningProfile::tax().generate(0.2, 21);
        let b = CleaningProfile::tax().generate(0.2, 21);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.errors, b.errors);
    }

    #[test]
    fn error_codes() {
        assert_eq!(ErrorType::MissingValue.code(), "MV");
        assert_eq!(ErrorType::Typo.code(), "T");
        assert_eq!(ErrorType::FormattingIssue.code(), "FI");
        assert_eq!(ErrorType::ViolatedDependency.code(), "VAD");
    }
}

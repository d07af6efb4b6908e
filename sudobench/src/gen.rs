//! Seeded input generators. The same seed gives byte-identical inputs; the program
//! under test only ever sees what these produce.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sudowoodo_datasets::em::{EmDataset, EmProfile};
use sudowoodo_text::serialize::serialize_record;

/// An independent generator per (seed, purpose), so adding a draw to one input
/// stream never shifts another.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Row order of a clustered corpus.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Rows shuffled across clusters: every shard holds a bit of every cluster, so
    /// no routing bound can exclude a shard.
    Shuffled,
    /// Rows grouped by cluster: a shard holds few clusters, so routing can prune.
    ByCluster,
}

/// Cluster centres in `[-1, 1]^dim` and the half-width of the uniform noise box each
/// row is drawn from around its centre.
///
/// How much routing can prune depends on the angles between the centres, and a handful
/// of random angles would make that a property of the seed. So the centres are one
/// fixed set under a seed-drawn signed permutation of the coordinates: every seed
/// gives different vectors with the same pairwise cosines, and so the same workload.
pub struct Clusters {
    pub centers: Vec<Vec<f32>>,
    pub spread: f32,
}

impl Clusters {
    pub fn new(seed: u64, count: usize, dim: usize, spread: f32) -> Self {
        let mut fixed = StdRng::seed_from_u64(0xC1A5_7E25);
        let base: Vec<Vec<f32>> = (0..count)
            .map(|_| (0..dim).map(|_| fixed.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut rng = rng_for(seed, 1);
        let mut source: Vec<usize> = (0..dim).collect();
        source.shuffle(&mut rng);
        let signs: Vec<f32> = (0..dim)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let centers = base
            .iter()
            .map(|c| (0..dim).map(|j| signs[j] * c[source[j]]).collect())
            .collect();
        Clusters { centers, spread }
    }

    fn row(&self, rng: &mut StdRng, cluster: usize) -> Vec<f32> {
        self.centers[cluster]
            .iter()
            .map(|c| c + rng.gen_range(-self.spread..self.spread))
            .collect()
    }

    /// `rows` vectors spread evenly over the clusters, in the given order.
    pub fn corpus(&self, rng: &mut StdRng, rows: usize, order: Order) -> Vec<Vec<f32>> {
        let per_cluster = rows.div_ceil(self.centers.len());
        let mut out: Vec<Vec<f32>> = (0..rows).map(|i| self.row(rng, i / per_cluster)).collect();
        if order == Order::Shuffled {
            out.shuffle(rng);
        }
        out
    }

    /// A query batch whose rows each come from a uniformly drawn cluster.
    pub fn mixed_batch(&self, rng: &mut StdRng, rows: usize) -> Vec<Vec<f32>> {
        (0..rows)
            .map(|_| {
                let cluster = rng.gen_range(0..self.centers.len());
                self.row(rng, cluster)
            })
            .collect()
    }

    /// A query batch drawn from one uniformly chosen cluster.
    pub fn topical_batch(&self, rng: &mut StdRng, rows: usize) -> Vec<Vec<f32>> {
        let cluster = rng.gen_range(0..self.centers.len());
        (0..rows).map(|_| self.row(rng, cluster)).collect()
    }
}

/// Zipf-distributed draws over `0..n`: item `i` has weight `1 / (i + 1)^exponent`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(exponent);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("a Zipf pool is never empty");
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Serialized records and labelled record pairs for the model-serving requests, from
/// the repository's synthetic Abt-Buy generator.
pub struct Texts {
    pub dataset: EmDataset,
    pub left: Vec<String>,
    pub right: Vec<String>,
}

impl Texts {
    pub fn new(scale: f32, seed: u64) -> Self {
        let dataset = EmProfile::abt_buy().generate(scale, seed);
        let left = dataset.table_a.iter().map(serialize_record).collect();
        let right = dataset.table_b.iter().map(serialize_record).collect();
        Texts {
            dataset,
            left,
            right,
        }
    }

    /// `n` records for one `EMBED` request.
    pub fn embed_batch(&self, rng: &mut StdRng, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| self.left[rng.gen_range(0..self.left.len())].clone())
            .collect()
    }

    /// `n` `(left, right)` record pairs for one `MATCH` request.
    pub fn match_batch(&self, rng: &mut StdRng, n: usize) -> (Vec<String>, Vec<String>) {
        (0..n)
            .map(|_| {
                (
                    self.left[rng.gen_range(0..self.left.len())].clone(),
                    self.right[rng.gen_range(0..self.right.len())].clone(),
                )
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(rows: &[Vec<f32>]) -> Vec<u8> {
        rows.iter()
            .flatten()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let make = |seed: u64| {
            let mut rng = rng_for(seed, 2);
            let clusters = Clusters::new(seed, 8, 16, 0.2);
            let corpus = clusters.corpus(&mut rng, 200, Order::Shuffled);
            let mixed = clusters.mixed_batch(&mut rng, 32);
            let topical = clusters.topical_batch(&mut rng, 16);
            let zipf = Zipf::new(64, 1.0);
            let draws: Vec<usize> = (0..100).map(|_| zipf.draw(&mut rng)).collect();
            let texts = Texts::new(0.1, seed);
            let embed = texts.embed_batch(&mut rng, 4);
            let pairs = texts.match_batch(&mut rng, 4);
            (
                bytes(&corpus),
                bytes(&mixed),
                bytes(&topical),
                draws,
                embed,
                pairs,
            )
        };
        assert!(make(11) == make(11));
        assert!(make(11) != make(12));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(512, 1.0);
        let mut rng = rng_for(3, 0);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 512));
        let head = draws.iter().filter(|&&d| d < 128).count() as f64 / draws.len() as f64;
        // The top quarter of a 512-item Zipf(1) pool carries H(128)/H(512) = 0.80 of the mass.
        assert!((0.77..0.83).contains(&head), "head share {head}");
    }

    #[test]
    fn every_seed_gives_the_same_geometry_in_different_vectors() {
        let dots = |c: &Clusters| -> Vec<f32> {
            let mut out = Vec::new();
            for a in &c.centers {
                for b in &c.centers {
                    out.push(a.iter().zip(b).map(|(x, y)| x * y).sum());
                }
            }
            out
        };
        let (one, other) = (Clusters::new(11, 6, 32, 0.1), Clusters::new(12, 6, 32, 0.1));
        assert!(one.centers != other.centers);
        assert!(dots(&one)
            .iter()
            .zip(dots(&other))
            .all(|(x, y)| (x - y).abs() < 1e-4));
    }

    #[test]
    fn cluster_order_keeps_clusters_contiguous() {
        let mut rng = rng_for(5, 0);
        let clusters = Clusters::new(5, 4, 8, 0.01);
        let corpus = clusters.corpus(&mut rng, 40, Order::ByCluster);
        for (i, row) in corpus.iter().enumerate() {
            let center = &clusters.centers[i / 10];
            assert!(row.iter().zip(center).all(|(x, c)| (x - c).abs() <= 0.01));
        }
    }
}

//! Answer checks. Every timed call is checked; a failed check counts the
//! call as a failed operation.
//!
//! Ground truth is exact farness on a fixed subset of vertices (the way
//! Cohen et al. score closeness estimates at million scale), computed once
//! per run with the plain serial BFS of `brics_graph` and never timed.

use brics::quality::symmetric_quality;
use brics::topk::TopK;
use brics::FarnessEstimate;
use brics_graph::traversal::Bfs;
use brics_graph::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Vertices in the reference subset.
const REFERENCE_SIZE: usize = 1000;

/// Exact farness of a seeded sample of vertices.
pub(crate) struct Reference {
    pub(crate) vertices: Vec<NodeId>,
    pub(crate) farness: Vec<u64>,
}

impl Reference {
    /// Draws `REFERENCE_SIZE` distinct vertices from `seed` and computes
    /// their exact farness, one serial BFS each.
    pub(crate) fn new(g: &CsrGraph, seed: u64) -> Self {
        let vertices = distinct_vertices(g.num_nodes(), REFERENCE_SIZE, seed);
        let farness = vertices
            .par_iter()
            .map_init(
                || Bfs::new(g.num_nodes()),
                |bfs, &v| serial_farness(g, bfs, v),
            )
            .collect();
        Self { vertices, farness }
    }

    /// The estimate's quality on the subset: mean of min/max of the scaled
    /// estimate and the exact farness (`brics::quality::symmetric_quality`).
    pub(crate) fn quality(&self, est: &FarnessEstimate) -> f64 {
        let scaled: Vec<f64> = self
            .vertices
            .iter()
            .map(|&v| est.scaled()[v as usize])
            .collect();
        symmetric_quality(&scaled, &self.farness)
    }

    /// The `k`-th smallest exact farness in the subset.
    pub(crate) fn kth_farness(&self, k: usize) -> u64 {
        let mut f = self.farness.clone();
        f.sort_unstable();
        f[k.min(f.len()) - 1]
    }
}

/// Exact farness of `v` by one serial BFS (the graph is connected).
fn serial_farness(g: &CsrGraph, bfs: &mut Bfs, v: NodeId) -> u64 {
    let (reached, sum) = bfs.run_with(g, v, |_, _| {});
    assert_eq!(reached, g.num_nodes(), "benchmark graphs are connected");
    sum
}

/// Checks a random or cumulative estimate: complete, one value per vertex,
/// and at least `floor` quality on the reference subset. Returns the
/// quality, or why the estimate failed.
pub(crate) fn estimate(
    g: &CsrGraph,
    reference: &Reference,
    est: &FarnessEstimate,
    floor: f64,
) -> Result<f64, String> {
    if est.is_partial() {
        return Err(format!("partial estimate ({:?})", est.outcome()));
    }
    if est.len() != g.num_nodes() {
        return Err(format!(
            "estimate has {} values for {} vertices",
            est.len(),
            g.num_nodes()
        ));
    }
    let q = reference.quality(est);
    if q.is_nan() || q < floor {
        return Err(format!("quality {q} below the floor {floor}"));
    }
    Ok(q)
}

/// Checks an exact top-`k` answer: `k` entries in ascending farness, each
/// equal to a fresh serial BFS sum, and no reference vertex outside the
/// answer strictly closer than its `k`-th value.
pub(crate) fn topk(g: &CsrGraph, reference: &Reference, k: usize, t: &TopK) -> Result<(), String> {
    if t.ranked.len() != k {
        return Err(format!("{} entries for k = {k}", t.ranked.len()));
    }
    if t.ranked.windows(2).any(|w| w[0].1 > w[1].1) {
        return Err("ranking not in ascending farness".into());
    }
    let mut bfs = Bfs::new(g.num_nodes());
    for &(v, f) in &t.ranked {
        let exact = serial_farness(g, &mut bfs, v);
        if exact != f {
            return Err(format!(
                "vertex {v}: reported farness {f}, BFS gives {exact}"
            ));
        }
    }
    let kth = t.ranked[k - 1].1;
    for (&v, &f) in reference.vertices.iter().zip(&reference.farness) {
        if f < kth && !t.ranked.iter().any(|&(u, _)| u == v) {
            return Err(format!(
                "reference vertex {v} (farness {f}) beats the k-th value {kth}"
            ));
        }
    }
    Ok(())
}

/// `count` distinct vertices of `0..n`, drawn from `seed`.
pub(crate) fn distinct_vertices(n: usize, count: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    rand::seq::index::sample(&mut rng, n, count.min(n))
        .iter()
        .map(|v| v as NodeId)
        .collect()
}

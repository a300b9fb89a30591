//! The flavor network: ingredients as nodes, edges weighted by shared
//! flavor compounds — the representation introduced by Ahn et al.
//! (2011), which the paper's analyses build on and which existing
//! replications study. Provided as a first-class substrate for
//! downstream network analyses (backbones, hubs, fingerprints).

use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::Metrics;
use culinaria_stats::{fault, pool};
use culinaria_tabular::{Column, Frame};

use crate::error::StageFailure;
use crate::pairing::OverlapCache;

/// An undirected weighted edge of the flavor network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Endpoint (the smaller ingredient id).
    pub a: IngredientId,
    /// Endpoint (the larger ingredient id).
    pub b: IngredientId,
    /// Number of shared flavor compounds.
    pub weight: u32,
}

/// The flavor network over an ingredient pool.
#[derive(Debug, Clone)]
pub struct FlavorNetwork {
    nodes: Vec<IngredientId>,
    /// Edges with weight ≥ 1, endpoints as local node indices.
    edges: Vec<(u32, u32, u32)>,
    /// Per-node weighted degree (strength).
    strength: Vec<u64>,
    /// Per-node unweighted degree.
    degree: Vec<u32>,
}

impl FlavorNetwork {
    /// Build the network over an explicit pool with `n_threads` workers
    /// (0 = available parallelism); pass `cuisine.ingredient_set()` to
    /// build a cuisine's network.
    ///
    /// The upper-triangular edge sweep is fanned row-wise over the
    /// shared worker pool on top of a parallel [`OverlapCache`] build;
    /// per-row edge lists merge **in row order**, so edges come out in
    /// the same row-major order as the serial double loop and the
    /// result is identical for every thread count.
    ///
    /// Instruments recorded through `metrics`: span `network.build`
    /// with children `network.build.overlap` (the [`OverlapCache`]
    /// build, which also records the `overlap.*` instruments) and
    /// `network.build.edges` (the edge sweep + serial fold), counters
    /// `network.nodes` and `network.edges`, plus the shared `pool.*`
    /// instruments. The network does not depend on whether `metrics`
    /// is enabled.
    ///
    /// Dead ingredient ids fail in the nested overlap build (stage
    /// `overlap.pack`) and failing edge rows at stage `network.row`;
    /// the `error.<stage>` counter is bumped and the lowest failing
    /// task index is reported.
    pub fn build(
        db: &FlavorDb,
        ingredients: &[IngredientId],
        n_threads: usize,
        metrics: &Metrics,
    ) -> Result<FlavorNetwork, StageFailure> {
        let build_span = metrics.span("network.build");
        let build_guard = build_span.enter();
        let overlap_guard = build_span.child("overlap").enter();
        let cache = OverlapCache::build(db, ingredients, n_threads, metrics)?;
        overlap_guard.stop();
        let n = cache.len();
        let edges_guard = build_span.child("edges").enter();
        let rows = pool::try_run_observed(
            n_threads,
            n,
            &pool::PoolObs::new(metrics),
            || (),
            |(), i| -> Result<Vec<(u32, u32)>, fault::InjectedFault> {
                fault::probe("network.row", i)?;
                let i = i as u32;
                let mut row: Vec<(u32, u32)> = Vec::new();
                for j in (i + 1)..n as u32 {
                    let w = cache.overlap(i, j);
                    if w > 0 {
                        row.push((j, w));
                    }
                }
                Ok(row)
            },
        )
        .map_err(|f| StageFailure::from_task("network.row", f).record(metrics))?;
        let mut edges = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        let mut strength = vec![0u64; n];
        let mut degree = vec![0u32; n];
        for (i, row) in rows.iter().enumerate() {
            for &(j, w) in row {
                edges.push((i as u32, j, w));
                strength[i] += u64::from(w);
                strength[j as usize] += u64::from(w);
                degree[i] += 1;
                degree[j as usize] += 1;
            }
        }
        edges_guard.stop();
        metrics.counter("network.nodes").add(n as u64);
        metrics.counter("network.edges").add(edges.len() as u64);
        build_guard.stop();
        Ok(FlavorNetwork {
            nodes: ingredients.to_vec(),
            edges,
            strength,
            degree,
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of positive-weight edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The nodes in local-index order.
    pub fn nodes(&self) -> &[IngredientId] {
        &self.nodes
    }

    /// Edge density: edges / possible pairs (0 for < 2 nodes).
    pub fn density(&self) -> f64 {
        let n = self.nodes.len();
        if n < 2 {
            return 0.0;
        }
        self.edges.len() as f64 / (n * (n - 1) / 2) as f64
    }

    /// Unweighted degree of a node (by local index).
    pub fn degree(&self, node: usize) -> u32 {
        self.degree[node]
    }

    /// Weighted degree (strength) of a node.
    pub fn strength(&self, node: usize) -> u64 {
        self.strength[node]
    }

    /// The `k` heaviest edges, descending by weight (ties by indices).
    pub fn top_edges(&self, k: usize) -> Vec<Edge> {
        let mut sorted = self.edges.clone();
        sorted.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        sorted
            .into_iter()
            .take(k)
            .map(|(i, j, w)| Edge {
                a: self.nodes[i as usize],
                b: self.nodes[j as usize],
                weight: w,
            })
            .collect()
    }

    /// The network *backbone*: edges with weight ≥ `min_weight`, as a
    /// new network over the same nodes.
    pub fn backbone(&self, min_weight: u32) -> FlavorNetwork {
        let n = self.nodes.len();
        let mut strength = vec![0u64; n];
        let mut degree = vec![0u32; n];
        let edges: Vec<(u32, u32, u32)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(_, _, w)| w >= min_weight)
            .collect();
        for &(i, j, w) in &edges {
            strength[i as usize] += u64::from(w);
            strength[j as usize] += u64::from(w);
            degree[i as usize] += 1;
            degree[j as usize] += 1;
        }
        FlavorNetwork {
            nodes: self.nodes.clone(),
            edges,
            strength,
            degree,
        }
    }

    /// The `k` highest-strength nodes as `(ingredient, strength)` —
    /// the flavor hubs.
    pub fn hubs(&self, k: usize) -> Vec<(IngredientId, u64)> {
        let mut idx: Vec<usize> = (0..self.nodes.len()).collect();
        idx.sort_by(|&a, &b| {
            self.strength[b]
                .cmp(&self.strength[a])
                .then(self.nodes[a].cmp(&self.nodes[b]))
        });
        idx.into_iter()
            .take(k)
            .map(|i| (self.nodes[i], self.strength[i]))
            .collect()
    }

    /// Global (transitivity-style) clustering coefficient of the
    /// unweighted backbone: 3 × triangles / connected triples. 0 when
    /// no triples exist.
    pub fn clustering_coefficient(&self) -> f64 {
        let n = self.nodes.len();
        // Adjacency sets for triangle counting.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(i, j, _) in &self.edges {
            adj[i as usize].push(j);
            adj[j as usize].push(i);
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        let mut triangles = 0u64;
        for &(i, j, _) in &self.edges {
            // Count common neighbours of i and j (each triangle counted
            // three times, once per edge).
            let (ai, aj) = (&adj[i as usize], &adj[j as usize]);
            let mut x = 0;
            let mut y = 0;
            while x < ai.len() && y < aj.len() {
                match ai[x].cmp(&aj[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
        }
        triangles /= 3;
        let triples: u64 = self
            .degree
            .iter()
            .map(|&d| u64::from(d) * u64::from(d.saturating_sub(1)) / 2)
            .sum();
        if triples == 0 {
            0.0
        } else {
            3.0 * triangles as f64 / triples as f64
        }
    }

    /// Degree distribution as a frame (`degree`, `count`).
    pub fn degree_distribution(&self) -> Frame {
        let mut counts = std::collections::BTreeMap::new();
        for &d in &self.degree {
            *counts.entry(i64::from(d)).or_insert(0i64) += 1;
        }
        let (degrees, tallies): (Vec<i64>, Vec<i64>) = counts.into_iter().unzip();
        Frame::from_columns(vec![
            ("degree", Column::from_i64s(&degrees)),
            ("count", Column::from_i64s(&tallies)),
        ])
        .expect("fresh frame")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::{Category, MoleculeId};

    /// Triangle a–b–c plus isolated d.
    fn fixture() -> (FlavorDb, Vec<IngredientId>) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(10);
        let a = db
            .add_ingredient("a", Category::Herb, vec![MoleculeId(0), MoleculeId(1)])
            .unwrap();
        let b = db
            .add_ingredient("b", Category::Herb, vec![MoleculeId(0), MoleculeId(2)])
            .unwrap();
        let c = db
            .add_ingredient(
                "c",
                Category::Herb,
                vec![MoleculeId(1), MoleculeId(2), MoleculeId(3)],
            )
            .unwrap();
        let d = db
            .add_ingredient("d", Category::Meat, vec![MoleculeId(9)])
            .unwrap();
        (db, vec![a, b, c, d])
    }

    /// An uninstrumented build over a live pool.
    fn build(db: &FlavorDb, pool: &[IngredientId], n_threads: usize) -> FlavorNetwork {
        FlavorNetwork::build(db, pool, n_threads, &Metrics::disabled()).expect("live pool")
    }

    #[test]
    fn builds_expected_topology() {
        let (db, pool) = fixture();
        let net = build(&db, &pool, 0);
        assert_eq!(net.n_nodes(), 4);
        assert_eq!(net.n_edges(), 3); // a–b, a–c, b–c; d isolated
        assert_eq!(net.degree(0), 2);
        assert_eq!(net.degree(3), 0);
        assert_eq!(net.strength(0), 2); // weight 1 + 1
        assert!((net.density() - 0.5).abs() < 1e-12); // 3 of 6 pairs
    }

    #[test]
    fn triangle_clustering_is_one() {
        let (db, pool) = fixture();
        let net = build(&db, &pool, 0);
        assert!((net.clustering_coefficient() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_edges_and_hubs() {
        let (db, pool) = fixture();
        let net = build(&db, &pool, 0);
        let top = net.top_edges(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].weight >= top[1].weight);
        let hubs = net.hubs(1);
        // c shares with both a and b → strength 2, tied with a and b;
        // the smallest id wins ties.
        assert_eq!(hubs[0].1, 2);
    }

    #[test]
    fn backbone_filters_weak_edges() {
        let (db, pool) = fixture();
        let net = build(&db, &pool, 0);
        // All edges have weight 1, so a min-weight-2 backbone is empty.
        let bb = net.backbone(2);
        assert_eq!(bb.n_edges(), 0);
        assert_eq!(bb.n_nodes(), 4);
        assert_eq!(bb.clustering_coefficient(), 0.0);
        // min-weight-1 is identity.
        assert_eq!(net.backbone(1).n_edges(), net.n_edges());
    }

    #[test]
    fn degree_distribution_frame() {
        let (db, pool) = fixture();
        let net = build(&db, &pool, 0);
        let f = net.degree_distribution();
        // Degrees: [2, 2, 2, 0] → two rows: degree 0 × 1, degree 2 × 3.
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(0, "count").unwrap(), culinaria_tabular::Value::Int(1));
        assert_eq!(f.get(1, "count").unwrap(), culinaria_tabular::Value::Int(3));
    }

    #[test]
    fn build_identical_for_any_thread_count() {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(40);
        let mut pool = Vec::new();
        for i in 0..60u64 {
            let mols = (0..40u32)
                .filter(|&m| (i * 7 + u64::from(m) * 13) % 5 == 0)
                .map(MoleculeId)
                .collect();
            pool.push(
                db.add_ingredient(&format!("ing{i}"), Category::Herb, mols)
                    .unwrap(),
            );
        }
        let serial = build(&db, &pool, 1);
        for threads in [0, 2, 8] {
            let parallel = build(&db, &pool, threads);
            assert_eq!(serial.edges, parallel.edges, "{threads} threads");
            assert_eq!(serial.strength, parallel.strength, "{threads} threads");
            assert_eq!(serial.degree, parallel.degree, "{threads} threads");
        }
    }

    #[test]
    fn observed_build_matches_and_records() {
        let (db, pool) = fixture();
        let plain = build(&db, &pool, 2);
        let metrics = Metrics::enabled();
        let observed = FlavorNetwork::build(&db, &pool, 2, &metrics).expect("live pool");
        assert_eq!(observed.edges, plain.edges);
        assert_eq!(observed.strength, plain.strength);
        assert_eq!(observed.degree, plain.degree);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("network.nodes"), Some(4));
        assert_eq!(snap.counter("network.edges"), Some(3));
        assert_eq!(snap.span("network.build").unwrap().calls, 1);
        assert_eq!(snap.span("network.build.overlap").unwrap().calls, 1);
        assert_eq!(snap.span("network.build.edges").unwrap().calls, 1);
        // The nested overlap build recorded its own instruments, and
        // both fan-outs went through the shared pool.
        assert_eq!(snap.span("overlap.build").unwrap().calls, 1);
        assert_eq!(snap.counter("pool.runs"), Some(2));
    }

    #[test]
    fn build_reports_dead_ids_at_any_thread_count() {
        let (mut db, pool) = fixture();
        db.remove_ingredient("b").expect("b exists");
        for threads in [1, 2, 8] {
            let failure = FlavorNetwork::build(&db, &pool, threads, &Metrics::disabled())
                .expect_err("dead id");
            assert_eq!(failure.stage, "overlap.pack");
            assert_eq!(failure.index, 1, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_node() {
        let (db, pool) = fixture();
        let empty = build(&db, &[], 0);
        assert_eq!(empty.n_nodes(), 0);
        assert_eq!(empty.density(), 0.0);
        let single = build(&db, &pool[..1], 0);
        assert_eq!(single.n_edges(), 0);
        assert_eq!(single.density(), 0.0);
    }
}

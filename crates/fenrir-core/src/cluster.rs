//! Hierarchical Agglomerative Clustering (§2.6.2 of the paper).
//!
//! Fenrir discovers routing "modes" by clustering routing vectors on their
//! Gower distance `1 − Φ`. The paper cites SLINK (Sibson 1973), and single
//! linkage — the default — is SLINK over the pointer representation: a
//! batch build reads the condensed matrix in place in `O(|T|²)` time and
//! `O(|T|)` memory, and each appended observation is inserted in `O(|T|)`.
//! Complete and average linkage run a greedy global-minimum engine with
//! cached nearest neighbours over a dense copy of the matrix. |T| is
//! observation times, a few thousand even for five years of daily data.
//!
//! The paper's **adaptive distance threshold** rule is implemented by
//! [`AdaptiveThreshold`]: sweep thresholds from 0 to 1 in steps of 0.01 and
//! accept the first flat clustering with fewer than 15 clusters, each backed
//! by at least 2 valid observations.

use crate::error::{Error, Result};
use crate::guard::DivergenceGuard;
use crate::similarity::SimilarityMatrix;

/// Linkage criterion for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Minimum pairwise distance (SLINK, the paper's citation). Prone to
    /// chaining but cheap and faithful to the paper.
    #[default]
    Single,
    /// Maximum pairwise distance; produces compact, similar-diameter modes.
    Complete,
    /// Unweighted average pairwise distance (UPGMA); the middle ground,
    /// benched in the ablation suite.
    Average,
}

/// One agglomeration step: clusters `a` and `b` merge at `distance` into a
/// new cluster of `size` leaves.
///
/// Cluster numbering follows the scipy convention: ids `0..n` are leaves
/// (observation indices); the merge at position `k` of
/// [`Dendrogram::merges`] creates cluster `n + k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happens.
    pub distance: f64,
    /// Number of leaves in the new cluster.
    pub size: usize,
}

/// The full merge tree produced by HAC, with merges in ascending distance
/// order so that cutting at a threshold is a single union-find pass.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    linkage: Linkage,
    merges: Vec<Merge>,
    /// The tree as SLINK keeps it; empty unless the linkage is single.
    pointer: Pointer,
}

/// `a` or `b`, whichever is smaller under `f64::total_cmp`.
fn total_min(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_lt() {
        b
    } else {
        a
    }
}

/// SLINK's pointer representation (Sibson 1973) of a single-linkage tree.
///
/// Leaf `i` is the largest leaf of its cluster up to height `lambda[i]`,
/// where it joins the cluster whose largest leaf is `pi[i] > i`. The last
/// leaf never joins a larger one: it has `pi[i] == i`, and its height reads
/// as above every distance, NaN included. Heights compare under
/// `f64::total_cmp`, like the greedy engine's merge keys. The
/// representation is a function of the single-linkage ultrametric alone,
/// so ties cannot make two derivations of it disagree.
#[derive(Debug, Clone, Default)]
struct Pointer {
    pi: Vec<usize>,
    lambda: Vec<f64>,
}

impl Pointer {
    /// Whether leaf `i` is still the largest of its cluster at height `d`.
    fn reaches(&self, i: usize, d: f64) -> bool {
        self.pi[i] == i || self.lambda[i].total_cmp(&d).is_ge()
    }

    /// One SLINK step in `O(n)`: append leaf `n = self.pi.len()` from its
    /// condensed row `Φ(n, 0..=n)`. `m` is scratch space.
    fn push(&mut self, row: &[f64], m: &mut Vec<f64>) {
        let n = self.pi.len();
        m.clear();
        // Bit-identical to `SimilarityMatrix::distance`.
        m.extend(row[..n].iter().map(|phi| 1.0 - phi));
        for i in 0..n {
            let p = self.pi[i];
            if self.reaches(i, m[i]) {
                if p != i {
                    m[p] = total_min(m[p], self.lambda[i]);
                }
                self.lambda[i] = m[i];
                self.pi[i] = n;
            } else {
                m[p] = total_min(m[p], m[i]);
            }
        }
        for i in 0..n {
            let p = self.pi[i];
            if p < n && self.lambda[i].total_cmp(&self.lambda[p]).is_ge() {
                self.pi[i] = n;
            }
        }
        self.pi.push(n);
        self.lambda.push(f64::INFINITY);
    }

    /// SLINK over the whole matrix, reading each condensed row in place.
    fn build(sim: &SimilarityMatrix) -> Pointer {
        let mut p = Pointer::default();
        let mut m = Vec::with_capacity(sim.len());
        for i in 0..sim.len() {
            p.push(sim.condensed_row(i), &mut m);
        }
        p
    }

    /// The pointer representation of the tree `merges` describes over `n`
    /// leaves (ids validated as in [`Dendrogram::from_parts`]). A merge at
    /// height `h` ends the run of the smaller of its two clusters' largest
    /// leaves; that leaf points at the largest leaf of its cluster once
    /// every merge at `h` is applied, so the order of merges inside a tie
    /// does not matter.
    fn from_merges(n: usize, merges: &[Merge]) -> Pointer {
        let mut p = Pointer {
            pi: (0..n).collect(),
            lambda: vec![f64::INFINITY; n],
        };
        let mut forest = Forest::new(n);
        let mut rep: Vec<usize> = (0..n).collect();
        let mut ended = Vec::new();
        for tie in ties(merges, |m| m.distance) {
            ended.clear();
            for m in tie {
                let (ra, rb) = (forest.find(rep[m.a]), forest.find(rep[m.b]));
                rep.push(ra);
                if ra != rb {
                    let leaf = forest.hi[ra].min(forest.hi[rb]);
                    p.lambda[leaf] = m.distance;
                    ended.push(leaf);
                    forest.join(ra, rb, m.distance, 0);
                }
            }
            for &leaf in &ended {
                let root = forest.find(leaf);
                p.pi[leaf] = forest.hi[root];
            }
        }
        p
    }

    /// The tree's merges: `prefix` verbatim (already in this tree's ids),
    /// then every join it leaves out, in canonical order.
    ///
    /// The canonical order is defined on leaves. A leaf that stops being
    /// the *smallest* leaf of its cluster at height `h` contributes one
    /// merge at `h`: its cluster joins the one holding the smallest leaf of
    /// the union formed at `h`. Merges go in `(h under total_cmp, leaf)`
    /// order, and union-find numbers the new clusters the scipy way.
    fn merges(&self, prefix: &[Merge]) -> Vec<Merge> {
        let n = self.pi.len();
        let mut order: Vec<usize> = (0..n).filter(|&i| self.pi[i] != i).collect();
        order.sort_unstable_by(|&x, &y| self.lambda[x].total_cmp(&self.lambda[y]).then(x.cmp(&y)));
        // Re-key each join from the largest leaf whose run ends to the
        // smallest: `(height, leaf, smallest leaf of the union)`.
        let mut joins: Vec<(f64, usize, usize)> = Vec::with_capacity(order.len());
        let mut forest = Forest::new(n);
        for tie in ties(&order, |&i| self.lambda[i]) {
            let start = joins.len();
            for &i in tie {
                let (ra, rb) = (forest.find(i), forest.find(self.pi[i]));
                if ra != rb {
                    let h = self.lambda[i];
                    joins.push((h, forest.lo[ra].max(forest.lo[rb]), 0));
                    forest.join(ra, rb, h, 0);
                }
            }
            for join in &mut joins[start..] {
                let root = forest.find(join.1);
                join.2 = forest.lo[root];
            }
            joins[start..].sort_unstable_by_key(|join| join.1);
        }
        let mut out = Vec::with_capacity(n.saturating_sub(1));
        let mut forest = Forest::new(n);
        let mut rep: Vec<usize> = (0..n).collect();
        for m in prefix {
            let (ra, rb) = (forest.find(rep[m.a]), forest.find(rep[m.b]));
            rep.push(ra);
            if ra == rb {
                // Only a corrupt prefix rejoins a cluster; an audit
                // catches the tree that results.
                forest.id[ra] = n + out.len();
            } else {
                forest.join(ra, rb, m.distance, n + out.len());
            }
            out.push(*m);
        }
        for (h, leaf, smallest) in joins {
            let (ra, rb) = (forest.find(leaf), forest.find(smallest));
            if ra != rb {
                let merge = forest.join(ra, rb, h, n + out.len());
                out.push(merge);
            }
        }
        out
    }
}

/// Maximal runs of `items` whose keys are bit-equal (one tie each).
fn ties<T>(items: &[T], key: impl Fn(&T) -> f64) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    std::iter::from_fn(move || {
        let first = key(rest.first()?).to_bits();
        let len = rest
            .iter()
            .take_while(|x| key(x).to_bits() == first)
            .count();
        let (tie, tail) = rest.split_at(len);
        rest = tail;
        Some(tie)
    })
}

/// Union-find over leaves. Each root knows its cluster's smallest and
/// largest leaf, its size, and its dendrogram id.
struct Forest {
    parent: Vec<usize>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    size: Vec<usize>,
    id: Vec<usize>,
}

impl Forest {
    fn new(n: usize) -> Forest {
        Forest {
            parent: (0..n).collect(),
            lo: (0..n).collect(),
            hi: (0..n).collect(),
            size: vec![1; n],
            id: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Join the clusters rooted at `a != b` into cluster `id`, returning
    /// the merge step at `distance`.
    fn join(&mut self, a: usize, b: usize, distance: f64, id: usize) -> Merge {
        let merge = Merge {
            a: self.id[a].min(self.id[b]),
            b: self.id[a].max(self.id[b]),
            distance,
            size: self.size[a] + self.size[b],
        };
        let (root, child) = if self.size[a] >= self.size[b] {
            (a, b)
        } else {
            (b, a)
        };
        self.parent[child] = root;
        self.lo[root] = self.lo[a].min(self.lo[b]);
        self.hi[root] = self.hi[a].max(self.hi[b]);
        self.size[root] = merge.size;
        self.id[root] = id;
        merge
    }
}

/// Working state of the greedy global-minimum agglomeration shared by
/// [`Dendrogram::build_greedy`] and [`Dendrogram::extend`] (complete and
/// average linkage).
///
/// Each *slot* is one leaf index; a merged cluster lives on in the slot of
/// its smaller member and the other slot retires. Every candidate pair is
/// ranked by a total-order key (see [`Engine::key`]) so the merge sequence
/// is a pure function of the distance matrix — independent of discovery
/// order, which is what lets an incremental resume reproduce the batch
/// result bit for bit.
struct Engine {
    linkage: Linkage,
    slots: usize,
    /// `slots × slots` working distances, Lance-Williams-updated on merge.
    d: Vec<f64>,
    active: Vec<bool>,
    size: Vec<usize>,
    /// Current dendrogram cluster id (scipy numbering) held by each slot.
    cluster_id: Vec<usize>,
    next_id: usize,
    /// Cached nearest neighbour per slot `(distance, neighbour_slot)`,
    /// cleared whenever a merge could change the answer.
    nn: Vec<Option<(f64, usize)>>,
}

impl Engine {
    fn from_leaves(sim: &SimilarityMatrix, linkage: Linkage) -> Engine {
        let n = sim.len();
        let mut d = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = sim.distance(i, j);
            }
        }
        Engine {
            linkage,
            slots: n,
            d,
            active: vec![true; n],
            size: vec![1; n],
            cluster_id: (0..n).collect(),
            next_id: n,
            nn: vec![None; n],
        }
    }

    /// Lexicographic merge key: distance first under `f64::total_cmp` (so a
    /// NaN distance sorts after every number instead of panicking the sort,
    /// and ties are never resolved by discovery order), then the cluster-id
    /// pair. Keys are distinct across candidate pairs, making the greedy
    /// choice canonical.
    fn key(&self, dist: f64, i: usize, j: usize) -> (f64, usize, usize) {
        let (ci, cj) = (self.cluster_id[i], self.cluster_id[j]);
        (dist, ci.min(cj), ci.max(cj))
    }

    fn key_lt(a: &(f64, usize, usize), b: &(f64, usize, usize)) -> bool {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .is_lt()
    }

    /// Nearest active neighbour of slot `i` by merge key.
    fn nearest(&self, i: usize) -> (f64, usize) {
        let mut best: Option<((f64, usize, usize), usize)> = None;
        for j in 0..self.slots {
            if j == i || !self.active[j] {
                continue;
            }
            let k = self.key(self.d[i * self.slots + j], i, j);
            if best.is_none_or(|(bk, _)| Self::key_lt(&k, &bk)) {
                best = Some((k, j));
            }
        }
        let (k, j) = best.expect("at least two active clusters");
        (k.0, j)
    }

    /// Merge the clusters in slots `x < y`, retiring `y`. Returns the
    /// recorded merge step.
    fn merge_slots(&mut self, x: usize, y: usize) -> Merge {
        debug_assert!(x < y && self.active[x] && self.active[y]);
        let n = self.slots;
        let dist = self.d[x * n + y];
        let (sx, sy) = (self.size[x], self.size[y]);
        let merge = Merge {
            a: self.cluster_id[x].min(self.cluster_id[y]),
            b: self.cluster_id[x].max(self.cluster_id[y]),
            distance: dist,
            size: sx + sy,
        };
        for m in 0..n {
            if m == x || m == y || !self.active[m] {
                continue;
            }
            let dxm = self.d[x * n + m];
            let dym = self.d[y * n + m];
            let new = match self.linkage {
                Linkage::Single => dxm.min(dym),
                Linkage::Complete => dxm.max(dym),
                Linkage::Average => (sx as f64 * dxm + sy as f64 * dym) / (sx + sy) as f64,
            };
            self.d[x * n + m] = new;
            self.d[m * n + x] = new;
            // The cache survives only if it cannot have been affected: its
            // neighbour still exists and the merged cluster is strictly
            // farther (a tie would need the id-based key re-evaluated).
            if let Some((cd, cj)) = self.nn[m] {
                if cj == x || cj == y || new.total_cmp(&cd).is_le() {
                    self.nn[m] = None;
                }
            }
        }
        self.active[y] = false;
        self.nn[y] = None;
        self.nn[x] = None;
        self.size[x] = sx + sy;
        self.cluster_id[x] = self.next_id;
        self.next_id += 1;
        merge
    }

    /// One greedy step: merge the globally closest pair of active clusters.
    fn merge_best(&mut self) -> Merge {
        let mut best: Option<((f64, usize, usize), usize, usize)> = None;
        for i in 0..self.slots {
            if !self.active[i] {
                continue;
            }
            let (dist, j) = match self.nn[i] {
                Some(cached) => cached,
                None => {
                    let fresh = self.nearest(i);
                    self.nn[i] = Some(fresh);
                    fresh
                }
            };
            let k = self.key(dist, i, j);
            if best.is_none_or(|(bk, _, _)| Self::key_lt(&k, &bk)) {
                best = Some((k, i, j));
            }
        }
        let (_, a, b) = best.expect("at least two active clusters");
        self.merge_slots(a.min(b), a.max(b))
    }

    /// Run greedy agglomeration until one cluster remains, appending each
    /// merge to `out`.
    fn run(&mut self, out: &mut Vec<Merge>) {
        let mut remaining = self.active.iter().filter(|&&a| a).count();
        while remaining > 1 {
            out.push(self.merge_best());
            remaining -= 1;
        }
    }
}

impl Dendrogram {
    /// Run HAC over the Gower distances of `sim` with the given linkage.
    ///
    /// The merge sequence is a pure function of the matrix, so two builds
    /// (or a build and an incremental [`Dendrogram::extend`]) agree
    /// exactly. Single linkage runs SLINK and emits its merges in the
    /// canonical leaf order described on [`Dendrogram::extend`]; the other
    /// linkages merge, at every step, the pair with the smallest
    /// `(distance, min id, max id)` key.
    ///
    /// Errors if the matrix is empty.
    pub fn build(sim: &SimilarityMatrix, linkage: Linkage) -> Result<Self> {
        if sim.is_empty() {
            return Err(Error::EmptyInput("similarity matrix"));
        }
        if linkage != Linkage::Single {
            return Self::build_greedy(sim, linkage);
        }
        let pointer = Pointer::build(sim);
        Ok(Dendrogram {
            n: sim.len(),
            linkage,
            merges: pointer.merges(&[]),
            pointer,
        })
    }

    /// Greedy global-minimum HAC: the engine [`Dendrogram::build`] runs for
    /// complete and average linkage. For single linkage it is the
    /// reference SLINK is tested against. It gives the same partition at
    /// every height and the same merge distances, but orders merges inside
    /// a tie by cluster id rather than by leaf.
    ///
    /// Errors if the matrix is empty.
    pub fn build_greedy(sim: &SimilarityMatrix, linkage: Linkage) -> Result<Self> {
        let n = sim.len();
        if n == 0 {
            return Err(Error::EmptyInput("similarity matrix"));
        }
        let mut merges = Vec::with_capacity(n - 1);
        if n > 1 {
            Engine::from_leaves(sim, linkage).run(&mut merges);
        }
        debug_assert!(
            merges
                .windows(2)
                .all(|w| w[0].distance.total_cmp(&w[1].distance).is_le()),
            "greedy merges must come out in ascending distance order"
        );
        Ok(Self::assemble(n, linkage, merges))
    }

    /// A tree from checked parts, with SLINK's view of it when single.
    fn assemble(n: usize, linkage: Linkage, merges: Vec<Merge>) -> Self {
        let pointer = match linkage {
            Linkage::Single => Pointer::from_merges(n, &merges),
            _ => Pointer::default(),
        };
        Dendrogram {
            n,
            linkage,
            merges,
            pointer,
        }
    }

    /// Grow the tree over observations newly appended to `sim` — the
    /// daily-operations path where an operator adds one sweep per day.
    ///
    /// Let `cutoff` be the smallest distance involving any new observation.
    /// No cluster containing a new observation can take part in a merge
    /// below `cutoff`, so the existing merges strictly below it are exactly
    /// the prefix a batch build over the grown matrix would produce. They
    /// are kept verbatim. The result is identical to
    /// `Dendrogram::build(sim, linkage)` — bit for bit, including tie
    /// resolution — which the property tests assert.
    ///
    /// Single linkage inserts each new observation into SLINK's pointer
    /// representation in `O(|T|)` and re-emits the merges above the
    /// prefix. Their canonical order is defined on leaves: the leaf that
    /// stops being the smallest of its cluster at height `h` contributes
    /// the merge that joins its cluster at `h`, and merges go in `(h under
    /// total_cmp, leaf)` order. Other linkages replay the prefix
    /// (Lance-Williams updates only) and resume greedy agglomeration.
    ///
    /// The first `self.len()` observations of `sim` must be the ones this
    /// tree was built from. Errors if the matrix shrank.
    pub fn extend(&mut self, sim: &SimilarityMatrix) -> Result<()> {
        let old_n = self.n;
        let new_n = sim.len();
        if new_n < old_n {
            return Err(Error::ShapeMismatch {
                what: "extended similarity matrix",
                expected: old_n,
                actual: new_n,
            });
        }
        if new_n == old_n {
            return Ok(());
        }
        // Every pair with a new observation lies in a new condensed row.
        let mut cutoff = f64::INFINITY;
        for j in old_n..new_n {
            for &phi in &sim.condensed_row(j)[..j] {
                cutoff = total_min(cutoff, 1.0 - phi);
            }
        }
        // Stable prefix: merges strictly below the cutoff. Internal ids are
        // rebased from `old_n + p` to `new_n + p`; the remap preserves the
        // relative order of every id pair that can tie below the cutoff, so
        // replayed tie-breaks match what the batch build would choose.
        let keep = self
            .merges
            .iter()
            .take_while(|m| m.distance.total_cmp(&cutoff).is_lt())
            .count();
        let remap = |id: usize| if id < old_n { id } else { new_n + (id - old_n) };

        if self.linkage == Linkage::Single {
            let mut m = Vec::with_capacity(new_n);
            for j in old_n..new_n {
                self.pointer.push(sim.condensed_row(j), &mut m);
            }
            let prefix: Vec<Merge> = self.merges[..keep]
                .iter()
                .map(|m| Merge {
                    a: remap(m.a),
                    b: remap(m.b),
                    ..*m
                })
                .collect();
            self.merges = self.pointer.merges(&prefix);
            self.n = new_n;
            return Ok(());
        }

        let mut engine = Engine::from_leaves(sim, self.linkage);
        let mut merges: Vec<Merge> = Vec::with_capacity(new_n - 1);
        // Slot currently holding each replayed cluster id.
        let mut slot_of: Vec<usize> = (0..new_n).collect();
        for m in &self.merges[..keep] {
            let (a, b) = (remap(m.a), remap(m.b));
            let (x, y) = (slot_of[a], slot_of[b]);
            let new_id = engine.next_id;
            let replayed = engine.merge_slots(x.min(y), x.max(y));
            debug_assert_eq!(replayed.distance.to_bits(), m.distance.to_bits());
            debug_assert_eq!((replayed.a, replayed.b), (a.min(b), a.max(b)));
            slot_of.push(x.min(y));
            debug_assert_eq!(slot_of.len() - 1, new_id);
            merges.push(replayed);
        }
        engine.run(&mut merges);
        self.n = new_n;
        self.merges = merges;
        Ok(())
    }

    /// Like [`Dendrogram::extend`], but wrapped in a runtime
    /// [`DivergenceGuard`]: sampled extends are cross-checked bit-for-bit
    /// against a batch [`Dendrogram::build`] over the same matrix (see
    /// [`Dendrogram::audit`]), and a quarantined guard steers every call
    /// straight to the batch path — the campaign continues with correct
    /// results instead of aborting.
    ///
    /// Returns whether the tree now in place was checked against, or
    /// rebuilt from, the batch build.
    pub fn extend_guarded(
        &mut self,
        sim: &SimilarityMatrix,
        guard: &mut DivergenceGuard,
    ) -> Result<bool> {
        if guard.quarantined() {
            *self = Dendrogram::build(sim, self.linkage)?;
            return Ok(true);
        }
        let old_n = self.n;
        self.extend(sim)?;
        let check = guard.should_check(self.n > old_n);
        if check {
            self.audit(sim, guard)?;
        }
        Ok(check)
    }

    /// Cross-check this tree bit-for-bit against a batch
    /// [`Dendrogram::build`] over `sim`. On mismatch the guard records a
    /// typed [`Error::IncrementalDivergence`](crate::error::Error), the
    /// batch tree replaces the diverged one, and the guard quarantines.
    pub fn audit(&mut self, sim: &SimilarityMatrix, guard: &mut DivergenceGuard) -> Result<()> {
        let batch = Dendrogram::build(sim, self.linkage)?;
        let same = |x: &Merge, y: &Merge| {
            x.a == y.a
                && x.b == y.b
                && x.size == y.size
                && x.distance.to_bits() == y.distance.to_bits()
        };
        let mismatch = self.n != batch.n
            || self.merges.len() != batch.merges.len()
            || self
                .merges
                .iter()
                .zip(&batch.merges)
                .any(|(a, b)| !same(a, b));
        if mismatch {
            let step = self
                .merges
                .iter()
                .zip(&batch.merges)
                .position(|(a, b)| !same(a, b));
            guard.record(
                "dendrogram",
                match step {
                    Some(k) => format!(
                        "merge {k} is {:?}, batch built {:?}",
                        self.merges[k], batch.merges[k]
                    ),
                    None => format!(
                        "{} leaves / {} merges vs batch {} / {}",
                        self.n,
                        self.merges.len(),
                        batch.n,
                        batch.merges.len()
                    ),
                },
            );
            *self = batch;
        }
        Ok(())
    }

    /// Rebuild a tree from previously recorded parts — the journal restore
    /// path, reusing a persisted merge prefix instead of re-clustering.
    /// Validates the merge count (`n − 1` for a complete tree), ascending
    /// distance order, and the scipy id convention (merge `k` references
    /// only clusters `< n + k` and creates cluster `n + k`). The merges are
    /// kept as given; see [`Dendrogram::normalized`].
    pub fn from_parts(n: usize, linkage: Linkage, merges: Vec<Merge>) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyInput("dendrogram leaves"));
        }
        if merges.len() != n - 1 {
            return Err(Error::ShapeMismatch {
                what: "dendrogram merges",
                expected: n - 1,
                actual: merges.len(),
            });
        }
        for (k, m) in merges.iter().enumerate() {
            if m.a >= m.b || m.b >= n + k || m.size < 2 || m.size > n {
                return Err(Error::InvalidParameter {
                    name: "merges",
                    message: format!("merge {k} ({m:?}) violates the id/size convention"),
                });
            }
        }
        if merges
            .windows(2)
            .any(|w| w[0].distance.total_cmp(&w[1].distance).is_gt())
        {
            return Err(Error::InvalidParameter {
                name: "merges",
                message: "merge distances are not ascending".into(),
            });
        }
        Ok(Self::assemble(n, linkage, merges))
    }

    /// This tree with a single-linkage merge list re-derived from its own
    /// pointer representation, so merges inside a tie come out in the
    /// canonical order [`Dendrogram::build`] emits. `O(|T| log |T|)`, with
    /// no pass over the matrix. Single-linkage trees recorded by the
    /// greedy engine order ties by cluster id; normalising them on restore
    /// lets them extend without a divergence. Other linkages are returned
    /// unchanged.
    pub fn normalized(mut self) -> Self {
        if self.linkage == Linkage::Single {
            self.merges = self.pointer.merges(&[]);
        }
        self
    }

    /// The linkage this tree was built with.
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Number of leaves (observation times).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dendrogram has no leaves.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The merge steps, ascending by distance.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Flat clustering: apply every merge with `distance <= threshold` and
    /// return one label per leaf. Labels are compacted to `0..k` in order of
    /// first appearance (so label ordering follows time for time-ordered
    /// inputs).
    pub fn cut(&self, threshold: f64) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        // Union leaves through each qualifying merge. Internal-node ids are
        // mapped to a representative leaf lazily via `rep`.
        let mut rep: Vec<Option<usize>> = vec![None; self.n + self.merges.len()];
        for (i, r) in rep.iter_mut().enumerate().take(self.n) {
            *r = Some(i);
        }
        for (k, m) in self.merges.iter().enumerate() {
            let ra = rep[m.a].expect("child created before parent");
            let rb = rep[m.b].expect("child created before parent");
            if m.distance <= threshold {
                let (fa, fb) = (find(&mut parent, ra), find(&mut parent, rb));
                parent[fa.max(fb)] = fa.min(fb);
            }
            rep[self.n + k] = Some(ra);
        }
        // Compact labels in order of first appearance.
        let mut label_of_root: Vec<Option<usize>> = vec![None; self.n];
        let mut labels = Vec::with_capacity(self.n);
        let mut next = 0usize;
        for i in 0..self.n {
            let r = find(&mut parent, i);
            let l = *label_of_root[r].get_or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            labels.push(l);
        }
        labels
    }

    /// Mode membership at an untrusted threshold: like [`Dendrogram::cut`]
    /// but validating the threshold domain first, for callers (e.g. a
    /// query server) that cannot vouch for the value. A non-finite or
    /// out-of-`[0, 1]` threshold is refused with a typed error instead of
    /// silently producing the all-separate or all-merged clustering.
    pub fn membership_at(&self, threshold: f64) -> Result<Vec<usize>> {
        if !threshold.is_finite() || !(0.0..=1.0).contains(&threshold) {
            return Err(Error::InvalidParameter {
                name: "threshold",
                message: format!("{threshold} is not a distance in [0, 1]"),
            });
        }
        Ok(self.cut(threshold))
    }

    /// Number of clusters produced by [`Dendrogram::cut`] at `threshold`.
    pub fn cluster_count(&self, threshold: f64) -> usize {
        self.cut(threshold)
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }
}

/// The paper's adaptive distance-threshold selection (§2.6.2):
///
/// > "we loop over a range of distance threshold \[0,1\] with step 0.01 and
/// > construct a new HAC model with the distance threshold. We choose the
/// > first HAC model with less than 15 clusters with at least 2 valid
/// > observations."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThreshold {
    /// Sweep step (paper: 0.01).
    pub step: f64,
    /// Accept a model only when it has fewer than this many clusters
    /// (paper: 15).
    pub max_clusters: usize,
    /// Every cluster must contain at least this many observations
    /// (paper: 2).
    pub min_cluster_size: usize,
}

impl Default for AdaptiveThreshold {
    fn default() -> Self {
        AdaptiveThreshold {
            step: 0.01,
            max_clusters: 15,
            min_cluster_size: 2,
        }
    }
}

/// Result of an adaptive-threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdChoice {
    /// The accepted threshold.
    pub threshold: f64,
    /// Flat cluster labels at that threshold, one per observation.
    pub labels: Vec<usize>,
    /// Number of clusters at that threshold.
    pub clusters: usize,
}

impl AdaptiveThreshold {
    /// Sweep thresholds ascending and return the first qualifying model.
    ///
    /// If no threshold in `[0, 1]` qualifies (possible only for degenerate
    /// inputs, e.g. a single observation), falls back to the full merge at
    /// threshold 1.0.
    ///
    /// Errors if parameters are out of domain.
    pub fn choose(&self, dendro: &Dendrogram) -> Result<ThresholdChoice> {
        if !(self.step > 0.0 && self.step <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "step",
                message: format!("{} not in (0, 1]", self.step),
            });
        }
        if self.max_clusters == 0 {
            return Err(Error::InvalidParameter {
                name: "max_clusters",
                message: "must be at least 1".into(),
            });
        }
        // Sweep by integer index: `t += step` accumulates binary
        // representation error (0.01 is not exactly representable), so the
        // swept thresholds would drift and 1.0 might be skipped or tested
        // twice depending on a fudge factor. `i as f64 * step` keeps each
        // threshold within one rounding of the ideal value, and the final
        // index is clamped so exactly 1.0 is always the last threshold.
        let steps = (1.0 / self.step).ceil() as usize;
        for i in 0..=steps {
            let t = if i == steps {
                1.0
            } else {
                i as f64 * self.step
            };
            let labels = dendro.cut(t);
            if let Some(choice) = self.qualify(t, labels) {
                return Ok(choice);
            }
        }
        let labels = dendro.cut(1.0);
        let clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
        Ok(ThresholdChoice {
            threshold: 1.0,
            labels,
            clusters,
        })
    }

    fn qualify(&self, threshold: f64, labels: Vec<usize>) -> Option<ThresholdChoice> {
        let clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
        if clusters == 0 || clusters >= self.max_clusters {
            return None;
        }
        let mut sizes = vec![0usize; clusters];
        for &l in &labels {
            sizes[l] += 1;
        }
        if sizes.iter().any(|&s| s < self.min_cluster_size) {
            return None;
        }
        Some(ThresholdChoice {
            threshold,
            labels,
            clusters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Similarity matrix from explicit distances.
    fn sim_from_dist(n: usize, f: impl Fn(usize, usize) -> f64) -> SimilarityMatrix {
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                v[i * n + j] = if i == j { 1.0 } else { 1.0 - f(i, j) };
            }
        }
        SimilarityMatrix::from_raw(n, v).unwrap()
    }

    /// Two tight groups {0,1,2} and {3,4} far apart.
    fn two_blobs() -> SimilarityMatrix {
        sim_from_dist(5, |i, j| {
            let g = |x: usize| usize::from(x >= 3);
            if g(i) == g(j) {
                0.1
            } else {
                0.9
            }
        })
    }

    #[test]
    fn empty_matrix_is_error() {
        let sim = SimilarityMatrix::from_raw(0, vec![]).unwrap();
        assert!(Dendrogram::build(&sim, Linkage::Single).is_err());
    }

    #[test]
    fn membership_at_validates_threshold_domain() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Average).unwrap();
        assert_eq!(d.membership_at(0.5).unwrap(), d.cut(0.5));
        for bad in [f64::NAN, f64::INFINITY, -0.01, 1.01] {
            assert!(matches!(
                d.membership_at(bad),
                Err(Error::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn single_leaf_has_no_merges() {
        let sim = SimilarityMatrix::from_raw(1, vec![1.0]).unwrap();
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        assert!(d.merges().is_empty());
        assert_eq!(d.cut(0.5), vec![0]);
    }

    #[test]
    fn merges_are_monotone_and_complete() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(&two_blobs(), linkage).unwrap();
            assert_eq!(d.merges().len(), 4);
            assert!(d
                .merges()
                .windows(2)
                .all(|w| w[0].distance <= w[1].distance));
            assert_eq!(d.merges().last().unwrap().size, 5);
        }
    }

    #[test]
    fn cut_recovers_the_two_blobs() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(&two_blobs(), linkage).unwrap();
            let labels = d.cut(0.5);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_ne!(labels[0], labels[3]);
            assert_eq!(d.cluster_count(0.5), 2);
        }
    }

    #[test]
    fn cut_at_one_merges_everything() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        assert_eq!(d.cluster_count(1.0), 1);
    }

    #[test]
    fn cut_below_min_distance_keeps_singletons() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        assert_eq!(d.cluster_count(0.05), 5);
    }

    #[test]
    fn labels_follow_first_appearance_order() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let labels = d.cut(0.5);
        assert_eq!(labels[0], 0); // first observation always labelled 0
        assert_eq!(labels[3], 1); // second cluster appears later in time
    }

    #[test]
    fn single_vs_complete_linkage_differ_on_chains() {
        // A chain 0-1-2-3 where consecutive points are 0.2 apart and the
        // ends are 0.6 apart. Single linkage merges the whole chain at 0.2;
        // complete linkage cannot join the ends until much higher.
        let sim = sim_from_dist(4, |i, j| {
            let d = i.abs_diff(j);
            match d {
                1 => 0.2,
                2 => 0.4,
                _ => 0.6,
            }
        });
        let ds = Dendrogram::build(&sim, Linkage::Single).unwrap();
        assert_eq!(ds.cluster_count(0.25), 1, "single linkage chains");
        let dc = Dendrogram::build(&sim, Linkage::Complete).unwrap();
        assert!(
            dc.cluster_count(0.25) > 1,
            "complete linkage resists chains"
        );
    }

    #[test]
    fn average_linkage_is_between_single_and_complete() {
        let sim = sim_from_dist(4, |i, j| {
            let d = i.abs_diff(j);
            match d {
                1 => 0.2,
                2 => 0.4,
                _ => 0.6,
            }
        });
        let height = |l: Linkage| {
            Dendrogram::build(&sim, l)
                .unwrap()
                .merges()
                .last()
                .unwrap()
                .distance
        };
        let (s, a, c) = (
            height(Linkage::Single),
            height(Linkage::Average),
            height(Linkage::Complete),
        );
        assert!(
            s <= a && a <= c,
            "single {s} <= average {a} <= complete {c}"
        );
    }

    #[test]
    fn adaptive_threshold_picks_the_blob_structure() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let choice = AdaptiveThreshold::default().choose(&d).unwrap();
        assert_eq!(choice.clusters, 2);
        // Accepted at the first sweep step reaching the intra-blob distance
        // (0.1 up to float rounding in both the step accumulation and the
        // 1 − Φ conversion).
        assert!(choice.threshold >= 0.1 - 1e-9 && choice.threshold < 0.2);
        assert_eq!(choice.labels, d.cut(choice.threshold));
    }

    #[test]
    fn adaptive_threshold_rejects_singleton_models() {
        // Distances: {0,1} at 0.1, {2} an outlier at 0.8 from both.
        let sim = sim_from_dist(3, |i, j| {
            if (i, j) == (0, 1) || (i, j) == (1, 0) {
                0.1
            } else {
                0.8
            }
        });
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let choice = AdaptiveThreshold::default().choose(&d).unwrap();
        // At 0.1 the model is {0,1},{2}: rejected (singleton). The accepted
        // threshold must swallow the outlier.
        assert!(choice.threshold >= 0.8 - 1e-9);
        assert_eq!(choice.clusters, 1);
    }

    #[test]
    fn adaptive_threshold_validates_parameters() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let bad_step = AdaptiveThreshold {
            step: 0.0,
            ..Default::default()
        };
        assert!(bad_step.choose(&d).is_err());
        let bad_max = AdaptiveThreshold {
            max_clusters: 0,
            ..Default::default()
        };
        assert!(bad_max.choose(&d).is_err());
    }

    #[test]
    fn adaptive_threshold_single_observation_falls_back() {
        let sim = SimilarityMatrix::from_raw(1, vec![1.0]).unwrap();
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let choice = AdaptiveThreshold::default().choose(&d).unwrap();
        assert_eq!(choice.clusters, 1);
        assert_eq!(choice.labels, vec![0]);
    }

    #[test]
    fn max_clusters_bound_is_exclusive() {
        // 4 equidistant points: any threshold below 0.5 gives 4 singletons;
        // at 0.5 everything merges. With max_clusters = 1 nothing qualifies
        // below full merge... with max 2, the 1-cluster model qualifies.
        let sim = sim_from_dist(4, |_, _| 0.5);
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let at = AdaptiveThreshold {
            max_clusters: 2,
            ..Default::default()
        };
        let choice = at.choose(&d).unwrap();
        assert_eq!(choice.clusters, 1);
    }

    #[test]
    fn identical_observations_merge_at_zero() {
        let sim = sim_from_dist(3, |_, _| 0.0);
        let d = Dendrogram::build(&sim, Linkage::Complete).unwrap();
        assert_eq!(d.cluster_count(0.0), 1);
    }

    #[test]
    fn nan_distances_do_not_panic() {
        // A NaN distance (e.g. from a degenerate weights edge case smuggled
        // in through from_raw) must not panic the merge ordering; under
        // total_cmp NaN sorts after every number, so NaN-distance merges
        // come last and everything else is unaffected.
        let mut v = vec![f64::NAN; 9];
        for i in 0..3 {
            v[i * 3 + i] = 1.0;
        }
        // Observations 0 and 1 are close; 2 is NaN-distant from both.
        v[1] = 0.9;
        v[3] = 0.9;
        let sim = SimilarityMatrix::from_raw(3, v).unwrap();
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(&sim, linkage).unwrap();
            assert_eq!(d.merges().len(), 2, "{linkage:?}");
            assert!((d.merges()[0].distance - 0.1).abs() < 1e-12);
            assert!(d.merges()[1].distance.is_nan());
        }
    }

    #[test]
    fn build_is_deterministic_under_ties() {
        // Every pair equidistant: the canonical key must resolve ties the
        // same way on every run, so two builds agree exactly.
        let sim = sim_from_dist(6, |_, _| 0.5);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let a = Dendrogram::build(&sim, linkage).unwrap();
            let b = Dendrogram::build(&sim, linkage).unwrap();
            assert_eq!(a.merges(), b.merges());
            // First merge is the smallest-id pair, and ids ascend.
            assert_eq!((a.merges()[0].a, a.merges()[0].b), (0, 1));
        }
    }

    #[test]
    fn extend_matches_batch_build() {
        // Grow 5 -> 8 observations; the incrementally extended tree must be
        // bit-for-bit the batch tree over the full matrix.
        let full = sim_from_dist(8, |i, j| {
            let g = |x: usize| if x >= 6 { 2 } else { usize::from(x >= 3) };
            if g(i) == g(j) {
                0.1 + 0.01 * i.abs_diff(j) as f64
            } else {
                0.8 + 0.01 * (i + j) as f64 / 10.0
            }
        });
        let prefix = {
            let n = 5;
            let mut v = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    v[i * n + j] = full.get(i, j);
                }
            }
            SimilarityMatrix::from_raw(n, v).unwrap()
        };
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let mut grown = Dendrogram::build(&prefix, linkage).unwrap();
            grown.extend(&full).unwrap();
            let batch = Dendrogram::build(&full, linkage).unwrap();
            assert_eq!(grown.merges(), batch.merges(), "{linkage:?}");
            assert_eq!(grown.len(), batch.len());
        }
    }

    #[test]
    fn extend_matches_batch_under_ties() {
        // All-equal distances maximise tie-break pressure on the replayed
        // prefix; the id rebasing must preserve every tie resolution.
        let full = sim_from_dist(7, |_, _| 0.5);
        let prefix = sim_from_dist(4, |_, _| 0.5);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let mut grown = Dendrogram::build(&prefix, linkage).unwrap();
            grown.extend(&full).unwrap();
            let batch = Dendrogram::build(&full, linkage).unwrap();
            assert_eq!(grown.merges(), batch.merges(), "{linkage:?}");
        }
    }

    #[test]
    fn extend_noop_and_shrink() {
        let sim = two_blobs();
        let mut d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let before = d.merges().to_vec();
        d.extend(&sim).unwrap();
        assert_eq!(d.merges(), &before[..]);
        let small = sim_from_dist(2, |_, _| 0.5);
        assert!(d.extend(&small).is_err());
    }

    #[test]
    fn from_parts_round_trips() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Average).unwrap();
        let back = Dendrogram::from_parts(d.len(), d.linkage(), d.merges().to_vec()).unwrap();
        assert_eq!(back.merges(), d.merges());
        assert_eq!(back.len(), d.len());
        assert_eq!(back.linkage(), d.linkage());
    }

    #[test]
    fn from_parts_rejects_malformed_trees() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let merges = d.merges().to_vec();
        // Wrong merge count.
        assert!(Dendrogram::from_parts(d.len(), Linkage::Single, merges[..2].to_vec()).is_err());
        // Descending distances.
        let mut reversed = merges.clone();
        reversed.reverse();
        assert!(Dendrogram::from_parts(d.len(), Linkage::Single, reversed).is_err());
        // Id out of the scipy range for its position.
        let mut bad = merges.clone();
        bad[0].b = d.len() + 5;
        assert!(Dendrogram::from_parts(d.len(), Linkage::Single, bad).is_err());
        assert!(Dendrogram::from_parts(0, Linkage::Single, vec![]).is_err());
    }

    #[test]
    fn extend_guarded_repairs_and_quarantines_on_divergence() {
        use crate::guard::{DivergenceGuard, SamplingRate};
        // Two tied pairs {0,1} and {2,3} at 0.1, far apart; a new
        // observation 4 lands at 0.3 from everyone.
        let full = sim_from_dist(5, |i, j| match (i / 2, j / 2) {
            _ if i == 4 || j == 4 => 0.3,
            (gi, gj) if gi == gj => 0.1,
            _ => 0.5,
        });
        // A *replayable but non-canonical* prefix: the tied 0.1 merges
        // recorded in the order (2,3) before (0,1). Batch tie-breaking
        // always picks the smaller id pair first, so no batch build ever
        // produces this tree — exactly the kind of state an incremental
        // bug would leave behind, and one the replay path accepts without
        // noticing (each merge is individually genuine).
        // Distances must be the bit-exact `1 − Φ` values the replay will
        // recompute, not decimal literals.
        let tie = full.distance(0, 1);
        let far = full.distance(0, 2);
        let poisoned = vec![
            Merge {
                a: 2,
                b: 3,
                distance: tie,
                size: 2,
            },
            Merge {
                a: 0,
                b: 1,
                distance: tie,
                size: 2,
            },
            Merge {
                a: 4,
                b: 5,
                distance: far,
                size: 4,
            },
        ];
        let mut d = Dendrogram::from_parts(4, Linkage::Single, poisoned).unwrap();
        let mut guard = DivergenceGuard::new(SamplingRate::always());
        d.extend_guarded(&full, &mut guard).unwrap();
        let batch = Dendrogram::build(&full, Linkage::Single).unwrap();
        assert_eq!(d.merges(), batch.merges());
        assert!(guard.quarantined());
        assert_eq!(guard.drain_new(), 1);
        // Quarantined extends keep producing the batch tree.
        d.extend_guarded(&full, &mut guard).unwrap();
        assert_eq!(d.merges(), batch.merges());
    }

    #[test]
    fn extend_guarded_clean_path_matches_batch() {
        use crate::guard::{DivergenceGuard, SamplingRate};
        let full = two_blobs();
        let prefix = sim_from_dist(3, |i, j| if i == j { 0.0 } else { 0.1 });
        let mut guard = DivergenceGuard::new(SamplingRate::always());
        let mut d = Dendrogram::build(&prefix, Linkage::Single).unwrap();
        d.extend_guarded(&full, &mut guard).unwrap();
        let batch = Dendrogram::build(&full, Linkage::Single).unwrap();
        assert_eq!(d.merges(), batch.merges());
        assert!(!guard.quarantined());
    }

    #[test]
    fn extend_from_single_leaf() {
        let prefix = SimilarityMatrix::from_raw(1, vec![1.0]).unwrap();
        let full = two_blobs();
        let mut grown = Dendrogram::build(&prefix, Linkage::Average).unwrap();
        grown.extend(&full).unwrap();
        let batch = Dendrogram::build(&full, Linkage::Average).unwrap();
        assert_eq!(grown.merges(), batch.merges());
    }

    /// Merges as comparable bits (a NaN distance never equals itself).
    fn merge_bits(d: &Dendrogram) -> Vec<(usize, usize, u64, usize)> {
        d.merges()
            .iter()
            .map(|m| (m.a, m.b, m.distance.to_bits(), m.size))
            .collect()
    }

    /// The leading `k × k` block of `sim`.
    fn leading(sim: &SimilarityMatrix, k: usize) -> SimilarityMatrix {
        let v = (0..k * k).map(|c| sim.get(c / k, c % k)).collect();
        SimilarityMatrix::from_raw(k, v).unwrap()
    }

    #[test]
    fn slink_matches_the_greedy_oracle_on_tie_heavy_matrices() {
        crate::rng::for_each_case("slink_matches_the_greedy_oracle", 96, |rng| {
            // Distances from a grid of at most 8 exact values, some NaN.
            let n = rng.gen_range(1usize..=64);
            let levels = rng.gen_range(1usize..=8);
            let nan = rng.gen_range(0.0..0.1);
            let mut v = vec![1.0; n * n];
            for i in 0..n {
                for j in 0..i {
                    let phi = if rng.gen_bool(nan) {
                        f64::NAN
                    } else {
                        1.0 - rng.gen_range(0..levels) as f64 / 8.0
                    };
                    v[i * n + j] = phi;
                    v[j * n + i] = phi;
                }
            }
            let sim = SimilarityMatrix::from_raw(n, v).unwrap();
            let slink = Dendrogram::build(&sim, Linkage::Single).unwrap();
            let oracle = Dendrogram::build_greedy(&sim, Linkage::Single).unwrap();

            // Same partition at every merge level, same heights, same
            // adaptive choice; only the order inside a tie may differ.
            let heights = |d: &Dendrogram| -> Vec<u64> {
                d.merges().iter().map(|m| m.distance.to_bits()).collect()
            };
            assert_eq!(heights(&slink), heights(&oracle));
            for m in oracle.merges() {
                assert_eq!(
                    slink.cut(m.distance),
                    oracle.cut(m.distance),
                    "at {}",
                    m.distance
                );
            }
            let at = AdaptiveThreshold::default();
            assert_eq!(at.choose(&slink).unwrap(), at.choose(&oracle).unwrap());
            // Normalising the oracle's tree is SLINK's tree.
            assert_eq!(merge_bits(&oracle.normalized()), merge_bits(&slink));

            // batch ≡ one-row extends ≡ multi-row extend ≡ from_parts + extend.
            let mut grown = Dendrogram::build(&leading(&sim, 1), Linkage::Single).unwrap();
            for k in 2..=n {
                grown.extend(&leading(&sim, k)).unwrap();
            }
            assert_eq!(merge_bits(&grown), merge_bits(&slink));
            let split = rng.gen_range(1..=n);
            let prefix = Dendrogram::build(&leading(&sim, split), Linkage::Single).unwrap();
            let mut multi = prefix.clone();
            multi.extend(&sim).unwrap();
            assert_eq!(merge_bits(&multi), merge_bits(&slink));
            let mut restored =
                Dendrogram::from_parts(split, Linkage::Single, prefix.merges().to_vec()).unwrap();
            restored.extend(&sim).unwrap();
            assert_eq!(merge_bits(&restored), merge_bits(&slink));
        });
    }

    #[test]
    fn tied_merges_follow_leaf_order() {
        // All six leaves equidistant: the leaf that stops being the
        // smallest of its cluster orders each merge, so the tree is a chain
        // growing from leaf 0 in leaf order.
        let d = Dendrogram::build(&sim_from_dist(6, |_, _| 0.5), Linkage::Single).unwrap();
        let pairs: Vec<(usize, usize)> = d.merges().iter().map(|m| (m.a, m.b)).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 6), (3, 7), (4, 8), (5, 9)]);
        // The greedy engine pairs ties by cluster id instead.
        let greedy = Dendrogram::build_greedy(&sim_from_dist(6, |_, _| 0.5), Linkage::Single);
        let pairs: Vec<(usize, usize)> = greedy
            .unwrap()
            .merges()
            .iter()
            .map(|m| (m.a, m.b))
            .collect();
        assert_eq!(pairs, vec![(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
    }
}

//! Benchmarks of hierarchical clustering: dendrogram construction (SLINK
//! for single linkage, the greedy engine for complete and average),
//! threshold cuts, and the paper's adaptive threshold sweep.

use fenrir_bench::timing::micro;
use fenrir_core::cluster::{AdaptiveThreshold, Dendrogram, Linkage};
use fenrir_core::rng::ChaCha8Rng;
use fenrir_core::similarity::SimilarityMatrix;
use std::hint::black_box;

/// A similarity matrix with `modes` planted blocks plus noise.
fn planted_modes(n: usize, modes: usize) -> SimilarityMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let labels: Vec<usize> = (0..n).map(|i| i * modes / n).collect();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let base = if labels[i] == labels[j] { 0.9 } else { 0.3 };
            let noise: f64 = rng.gen_range(-0.05..0.05);
            let s = if i == j {
                1.0
            } else {
                (base + noise).clamp(0.0, 1.0)
            };
            v[i * n + j] = s;
            v[j * n + i] = s;
        }
    }
    SimilarityMatrix::from_raw(n, v).expect("square")
}

fn bench_dendrogram() {
    for &n in &[128usize, 512, 1024] {
        let sim = planted_modes(n, 6);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            micro(&format!("dendrogram_build/{linkage:?}/{n}"), || {
                Dendrogram::build(black_box(&sim), linkage).expect("ok")
            });
        }
    }
}

fn bench_cut_and_adaptive() {
    let sim = planted_modes(512, 6);
    let dendro = Dendrogram::build(&sim, Linkage::Average).expect("ok");
    micro("threshold/single_cut", || {
        black_box(&dendro).cut(black_box(0.3))
    });
    micro("threshold/adaptive_sweep", || {
        AdaptiveThreshold::default()
            .choose(black_box(&dendro))
            .expect("ok")
    });
}

fn main() {
    bench_dendrogram();
    bench_cut_and_adaptive();
}

//! Incremental-vs-batch benchmarks: the daily-operations path.
//!
//! An operator appending one sweep per day to a multi-year series should
//! pay for the delta, not the history. This bench times the two hot
//! incremental paths against their from-scratch counterparts:
//!
//! 1. single-event route reconvergence — `RouteTable::recompute_after`
//!    on one link flap vs a full `RouteTable::compute`;
//! 2. single-observation matrix extension — `SimilarityMatrix::extend`
//!    by one appended observation vs recomputing all pairs;
//! 3. single-observation dendrogram extension — single-linkage
//!    `Dendrogram::extend` by one recurring observation vs a batch
//!    `Dendrogram::build`, swept over history length T = 256/1024/4096.
//!
//! Unlike the micro-benchmarks, this bench asserts a gate and emits
//! `BENCH_incremental.json` at the workspace root — the perf-trajectory
//! artifact CI uploads. The JSON is formatted by hand (the workspace has
//! no serializer dependency); the schema is flat on purpose.

use fenrir_bench::timing::mean_of_iters_ns;
use fenrir_core::cluster::{Dendrogram, Linkage};
use fenrir_core::ids::SiteId;
use fenrir_core::ids::SiteTable;
use fenrir_core::series::VectorSeries;
use fenrir_core::similarity::{SimilarityMatrix, UnknownPolicy};
use fenrir_core::time::Timestamp;
use fenrir_core::vector::{Catchment, RoutingVector};
use fenrir_core::weight::Weights;
use fenrir_netsim::routing::{RouteEvent, RouteTable, RoutingConfig};
use fenrir_netsim::topology::{Tier, TopologyBuilder};

/// Default topology size, matching the mid point of the netsim bench grid.
const STUBS: usize = 400;
/// Default series shape: one year of daily sweeps over 800 networks.
const OBSERVATIONS: usize = 365;
const NETWORKS: usize = 800;
/// History lengths of the dendrogram sweep; the last one is recorded.
const DENDRO_T: [usize; 3] = [256, 1024, 4096];
/// Networks per observation in the dendrogram sweep.
const DENDRO_NETWORKS: usize = 64;
/// The recurring-feed bound for one single-linkage extend at T=1024.
const DENDRO_EXTEND_NS_AT_1024: f64 = 1e6;

struct Comparison {
    name: &'static str,
    batch_ns: f64,
    incremental_ns: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.batch_ns / self.incremental_ns
    }
}

/// Time one link-flap reconvergence against a from-scratch fixed point.
fn bench_route_reconvergence() -> Comparison {
    let topo = TopologyBuilder {
        transit: 5,
        regional: STUBS / 16,
        stubs: STUBS,
        blocks_per_stub: 2,
        seed: 1,
        ..Default::default()
    }
    .build();
    let origins: Vec<_> = topo
        .tier_members(Tier::Regional)
        .iter()
        .take(4)
        .enumerate()
        .map(|(i, &a)| (a, i as u32))
        .collect();
    let cfg = RoutingConfig::default();
    let base = RouteTable::compute(&topo, &origins, &cfg);

    // The event: one stub's access link goes down. No preference pins are
    // involved, so the fixed point stays unique and the dirty-frontier
    // path (not the batch fallback) is what gets measured.
    let stub = topo.tier_members(Tier::Stub)[STUBS / 2];
    let provider = topo.neighbors(stub)[0].0;
    let down = RouteEvent::LinkDown {
        a: stub,
        b: provider,
    };

    let mut down_cfg = cfg.clone();
    down_cfg.disable_link(stub, provider);
    let batch_ns = mean_of_iters_ns(30, || RouteTable::compute(&topo, &origins, &down_cfg));
    // The incremental side pays for cloning the converged table too — that
    // is the real cost an `IncrementalRoutes`-style caller avoids by
    // mutating in place, so this measurement is an upper bound.
    let incremental_ns = mean_of_iters_ns(200, || {
        let mut table = base.clone();
        let mut origins = origins.clone();
        let mut cfg = cfg.clone();
        table.recompute_after(&topo, &mut origins, &mut cfg, &down);
        table
    });
    Comparison {
        name: "route_reconvergence",
        batch_ns,
        incremental_ns,
    }
}

/// A deterministic xorshift stream: the benches' inputs need no RNG crate.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn four_sites() -> SiteTable {
    SiteTable::from_names(["LAX", "MIA", "ARI", "SIN"])
}

/// A deterministic one-year series: 4 sites, `NETWORKS` networks, with a
/// sprinkle of unknowns so Φ exercises its policy branch.
fn series(observations: usize) -> VectorSeries {
    let mut s = VectorSeries::new(four_sites(), NETWORKS);
    let mut next = xorshift(0x5EED);
    for day in 0..observations {
        let catchments: Vec<Catchment> = (0..NETWORKS)
            .map(|_| {
                let r = next();
                if r.is_multiple_of(16) {
                    Catchment::Unknown
                } else {
                    Catchment::Site(SiteId((r % 4) as u16))
                }
            })
            .collect();
        s.push(RoutingVector::from_catchments(
            Timestamp::from_days(day as i64),
            catchments,
        ))
        .expect("ordered timestamps");
    }
    s
}

/// A recurring-regime series over `DENDRO_NETWORKS` networks: five
/// routing regimes that each return many times with a dwell of 1–4
/// observations, half the observations with one network moved. A new row
/// sits at Φ≈1 to old ones, the case that empties a greedy extend's stable
/// prefix.
fn regime_series(observations: usize) -> VectorSeries {
    let mut next = xorshift(0xD1A6);
    let site = |r: u64| Catchment::Site(SiteId((r % 4) as u16));
    let regimes: Vec<Vec<Catchment>> = (0..5)
        .map(|_| (0..DENDRO_NETWORKS).map(|_| site(next())).collect())
        .collect();
    let mut s = VectorSeries::new(four_sites(), DENDRO_NETWORKS);
    while s.len() < observations {
        let regime = &regimes[(next() % 5) as usize];
        let dwell = 1 + next() % 4;
        for _ in 0..dwell {
            let mut catchments = regime.clone();
            if next().is_multiple_of(2) {
                catchments[(next() % DENDRO_NETWORKS as u64) as usize] = site(next());
            }
            let day = s.len() as i64;
            s.push(RoutingVector::from_catchments(
                Timestamp::from_days(day),
                catchments,
            ))
            .expect("ordered timestamps");
            if s.len() == observations {
                break;
            }
        }
    }
    s
}

/// Time one-observation `extend` against an all-pairs recompute.
fn bench_matrix_extension() -> Comparison {
    let full = series(OBSERVATIONS);
    let prefix = series(OBSERVATIONS - 1);
    let w = Weights::uniform(NETWORKS);
    let policy = UnknownPolicy::Pessimistic;
    let base = SimilarityMatrix::compute(&prefix, &w, policy).expect("prefix matrix");

    let batch_ns = mean_of_iters_ns(3, || SimilarityMatrix::compute(&full, &w, policy));
    let incremental_ns = mean_of_iters_ns(20, || {
        let mut m = base.clone();
        m.extend(&full, &w, policy).expect("extend by one");
        m
    });
    Comparison {
        name: "matrix_extension",
        batch_ns,
        incremental_ns,
    }
}

/// Time a one-observation single-linkage `extend` at history length `t`
/// against a batch build over the same matrix.
fn bench_dendrogram_extension(t: usize) -> Comparison {
    let w = Weights::uniform(DENDRO_NETWORKS);
    let policy = UnknownPolicy::Pessimistic;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let full = SimilarityMatrix::compute_parallel(&regime_series(t), &w, policy, threads)
        .expect("full matrix");
    let prefix = SimilarityMatrix::from_condensed(t - 1, full.raw()[..t * (t - 1) / 2].to_vec())
        .expect("prefix matrix");
    let base = Dendrogram::build(&prefix, Linkage::Single).expect("prefix tree");

    let iters = (4096 / t).clamp(4, 16) as u32;
    let batch_ns = mean_of_iters_ns(iters, || Dendrogram::build(&full, Linkage::Single));
    let incremental_ns = mean_of_iters_ns(iters * 16, || {
        let mut d = base.clone();
        d.extend(&full).expect("extend by one");
        d
    });
    Comparison {
        name: "dendrogram_extension",
        batch_ns,
        incremental_ns,
    }
}

/// Hand-formatted JSON; the workspace has no serializer dependency.
fn render_json(comparisons: &[Comparison]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"incremental\",\n");
    out.push_str(&format!("  \"topology_stubs\": {STUBS},\n"));
    out.push_str(&format!("  \"series_observations\": {OBSERVATIONS},\n"));
    out.push_str(&format!("  \"series_networks\": {NETWORKS},\n"));
    out.push_str(&format!(
        "  \"dendrogram_observations\": {},\n",
        DENDRO_T[DENDRO_T.len() - 1]
    ));
    out.push_str(&format!("  \"dendrogram_networks\": {DENDRO_NETWORKS},\n"));
    out.push_str("  \"groups\": {\n");
    for (i, c) in comparisons.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"batch_ns\": {:.0}, \"incremental_ns\": {:.0}, \"speedup\": {:.2} }}{}\n",
            c.name,
            c.batch_ns,
            c.incremental_ns,
            c.speedup(),
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    // `cargo bench`/`cargo test --benches` pass harness flags; none apply.
    let mut sweep: Vec<(usize, Comparison)> = DENDRO_T
        .iter()
        .map(|&t| (t, bench_dendrogram_extension(t)))
        .collect();
    for (t, c) in &sweep {
        println!(
            "{:<24} T={t:<5} batch {:>12.0} ns   incremental {:>9.0} ns   speedup {:>8.2}x",
            c.name,
            c.batch_ns,
            c.incremental_ns,
            c.speedup()
        );
    }
    let extend_ns_at_1024 = sweep
        .iter()
        .find(|(t, _)| *t == 1024)
        .map(|(_, c)| c.incremental_ns)
        .expect("T=1024 is swept");
    let (_, recorded) = sweep.pop().expect("a swept T");
    let comparisons = [
        bench_route_reconvergence(),
        bench_matrix_extension(),
        recorded,
    ];
    for c in &comparisons {
        println!(
            "{:<24} batch {:>12.0} ns   incremental {:>12.0} ns   speedup {:>8.2}x",
            c.name,
            c.batch_ns,
            c.incremental_ns,
            c.speedup()
        );
    }
    let json = render_json(&comparisons);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(path, &json).expect("write BENCH_incremental.json");
    println!("wrote {path}");
    // A recurring-feed single-linkage fold at T=1024 stays under 1 ms.
    assert!(
        extend_ns_at_1024 < DENDRO_EXTEND_NS_AT_1024,
        "dendrogram extend at T=1024 takes {extend_ns_at_1024:.0} ns, over the 1 ms bar"
    );
    // The acceptance bar for the incremental paths: each must beat its
    // from-scratch counterpart by at least 5x on the default sizes.
    for c in &comparisons {
        assert!(
            c.speedup() >= 5.0,
            "{} speedup {:.2}x is below the 5x bar",
            c.name,
            c.speedup()
        );
    }
}

//! `gallery-10k`: HNSW and MIH over a 10,500-view catalogue.
//!
//! Set-up renders a `gallery_grid` catalogue (10 classes × 42 models ×
//! 5×5 views) and the queries (`data.render`), then describes each view
//! with the gist (256-d float) and signature (256-bit) descriptors of
//! `taor-bench`'s ANN harness (`ann.describe`). Half the queries
//! re-render catalogued models under another jitter stream (near
//! duplicates); half are views of models the catalogue does not hold. A
//! round builds both indexes and answers every query one at a time, in
//! several passes; rounds repeat while the next one fits in the run's
//! seconds.

use std::time::Instant;

use taor_bench::ann::{binary_signature, gist_descriptor};
use taor_data::{gallery_grid, Dataset, ObjectClass};
use taor_features::{
    exact_knn_binary, exact_knn_float, knn_match_float, mean_recall, recall_at_k,
    BinaryDescriptors, FloatDescriptors, HnswIndex, HnswParams, MihIndex, MihParams,
};

use crate::trace::{SpanId, Tracer};
use crate::{median, percentile, run_rounds, secs, Outcome, RunOpts};

pub const K: usize = 10;
const SETUPS: usize = 3;
/// Passes a round makes over the queries. Each pass answers every query
/// once through HNSW and twice through MIH, whose bucket probing is
/// cheaper per query but slows more when the shared host is busy. With
/// four passes a round takes about 14 s, so a 36-second run holds two
/// whole rounds on a fast or a slow host alike; a round count near its
/// boundary would flip from run to run and change each query's samples.
const QUERY_PASSES: usize = 4;
const MIH_PER_PASS: usize = 2;
/// Seed of the signature's comparison pairs. The pairs define the
/// descriptor, as ORB's fixed sampling pattern does, so they stay the
/// same for every workload seed; the seed draws only the views.
const SIG_SEED: u64 = 0x51C5;
const DIM: usize = 256;
const SIG_BYTES: usize = 32;

/// Catalogue and query shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub models_per_class: usize,
    pub yaw: usize,
    pub pitch: usize,
    /// Catalogued models per class re-rendered as near-duplicate queries.
    pub near_models: usize,
    /// Unseen models per class rendered as queries.
    pub unseen_models: usize,
}

impl Shape {
    pub fn of(opts: &RunOpts) -> Self {
        if opts.small {
            Shape { models_per_class: 4, yaw: 2, pitch: 2, near_models: 1, unseen_models: 1 }
        } else {
            Shape { models_per_class: 42, yaw: 5, pitch: 5, near_models: 4, unseen_models: 4 }
        }
    }
}

/// Described views: gist rows and signature rows, row-aligned.
pub struct Described {
    pub float: FloatDescriptors,
    pub binary: BinaryDescriptors,
}

impl Described {
    fn new() -> Self {
        Described { float: FloatDescriptors::new(DIM), binary: BinaryDescriptors::new(SIG_BYTES) }
    }

    /// Describe every view of `grid`.
    fn add(&mut self, grid: Dataset) {
        // By value: each view's pixels are freed once it is described.
        for li in grid.images {
            let g = gist_descriptor(&li.image);
            self.binary.push(&binary_signature(&g, SIG_SEED));
            self.float.push(&g);
        }
    }

    pub fn len(&self) -> usize {
        self.float.len()
    }

    pub fn is_empty(&self) -> bool {
        self.float.is_empty()
    }
}

/// One `gallery_grid` call: seed, models per class, jitter stream.
type Grid = (u64, usize, u64);

/// The catalogue grid, then the query grids: near duplicates (the first
/// `near_models` models of each class under jitter stream 1) and views
/// of models the catalogue does not hold.
fn grids(seed: u64, s: &Shape) -> (Grid, [Grid; 2]) {
    (
        (seed, s.models_per_class, 0),
        [(seed, s.near_models, 1), (seed ^ 0x0005_EE00_0000_0000, s.unseen_models, 0)],
    )
}

/// Render each grid (`data.render`) and describe it (`ann.describe`)
/// before rendering the next, so only one grid's images are alive at a
/// time. Returns the descriptors and the render and describe seconds.
fn render_and_describe(
    grids: &[Grid],
    s: &Shape,
    tr: &Tracer,
    root: SpanId,
    k: u64,
) -> (Described, f64, f64) {
    let (mut d, mut render_s, mut describe_s) = (Described::new(), 0.0, 0.0);
    for &(seed, models, jitter) in grids {
        let t = Instant::now();
        let views =
            tr.span("data.render", root, k, |_| gallery_grid(seed, models, s.yaw, s.pitch, jitter));
        render_s += secs(t);
        let t = Instant::now();
        tr.span("ann.describe", root, k, |_| d.add(views));
        describe_s += secs(t);
    }
    (d, render_s, describe_s)
}

pub fn words(row: &[u8]) -> Vec<u64> {
    row.chunks(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(b)
        })
        .collect()
}

/// Exact answers for every query, computed once per run apart from the
/// timed rounds.
pub struct Oracle {
    pub float: Vec<Vec<(usize, f32)>>,
    pub binary: Vec<Vec<(usize, u32)>>,
}

pub fn oracle(cat: &Described, q: &Described) -> Oracle {
    Oracle {
        float: (0..q.len()).map(|i| exact_knn_float(q.float.row(i), &cat.float, K)).collect(),
        binary: (0..q.len())
            .map(|i| exact_knn_binary(&words(q.binary.row(i)), &cat.binary, K))
            .collect(),
    }
}

/// Mean tie-tolerant recall@K of HNSW answers against the oracle.
pub fn hnsw_recall(found: &[Vec<(usize, f32)>], oracle: &[Vec<(usize, f32)>]) -> f64 {
    let per: Vec<f64> = found.iter().zip(oracle).map(|(a, e)| recall_at_k(a, e, K)).collect();
    mean_recall(&per)
}

/// An HNSW answer is approximate, but each one must still be `K`
/// distinct rows in ascending distance, no row may be nearer than the
/// exact ranking allows, and a row the exact search also returned must
/// carry the same distance.
pub fn check_hnsw(found: &[(usize, f32)], exact: &[(usize, f32)]) -> Vec<String> {
    let close = |a: f32, b: f32| (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0);
    let mut problems = Vec::new();
    if found.len() != exact.len() {
        problems.push(format!("{} neighbours, exact search {}", found.len(), exact.len()));
    }
    let mut rows: Vec<usize> = found.iter().map(|f| f.0).collect();
    rows.sort_unstable();
    rows.dedup();
    if rows.len() != found.len() {
        problems.push("a row is returned twice".to_string());
    }
    if found.windows(2).any(|w| w[1].1 < w[0].1) {
        problems.push("distances are not ascending".to_string());
    }
    for (i, (f, e)) in found.iter().zip(exact).enumerate() {
        if f.1 < e.1 && !close(f.1, e.1) {
            problems.push(format!("neighbour {i} at {} is nearer than the exact {}", f.1, e.1));
        }
    }
    for f in found {
        if let Some(e) = exact.iter().find(|e| e.0 == f.0) {
            if !close(f.1, e.1) {
                problems.push(format!("row {} at {} but exactly {}", f.0, f.1, e.1));
            }
        }
    }
    problems
}

/// MIH is exact: each answer must equal `exact_knn_binary`'s.
pub fn check_mih(found: &[(usize, u32)], exact: &[(usize, u32)]) -> Vec<String> {
    if found == exact {
        Vec::new()
    } else {
        vec![format!("MIH answered {found:?}, exact search {exact:?}")]
    }
}

pub fn run(opts: &RunOpts, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let shape = Shape::of(opts);

    // Set-up: render and describe, several times; the last views stay.
    let (catalogue_grid, query_grids) = grids(opts.seed, &shape);
    let (mut setups, mut renders, mut describes) = (Vec::new(), Vec::new(), Vec::new());
    let mut views = None;
    for k in 0..SETUPS {
        drop(views.take());
        let t = Instant::now();
        views = Some(tr.span("bench.setup", SpanId::NONE, k as u64, |root| {
            let k = k as u64;
            let (cat, r1, d1) = render_and_describe(&[catalogue_grid], &shape, tr, root, k);
            let (q, r2, d2) = render_and_describe(&query_grids, &shape, tr, root, k);
            renders.push(r1 + r2);
            describes.push(d1 + d2);
            (cat, q)
        }));
        setups.push(secs(t));
    }
    let (cat, q) = views.expect("at least one set-up ran");
    let n_near = ObjectClass::COUNT * shape.near_models * shape.yaw * shape.pitch;
    let oracle = tr.span("bench.oracle", SpanId::NONE, 0, |_| oracle(&cat, &q));

    let (mut builds, mut hnsw_builds, mut mih_builds) = (Vec::new(), Vec::new(), Vec::new());
    // A query's latency is the fastest of its timed answers in the run.
    // The answers are spread over the run, so a slow spell of the shared
    // host lasting part of it does not move the figures.
    let mut hnsw_us = vec![f64::INFINITY; q.len()];
    let mut mih_us = vec![f64::INFINITY; q.len()];
    let mut recalls = Vec::new();
    run_rounds(opts.budget(), |r| {
        tr.span("bench.round", SpanId::NONE, r, |root| {
            let t = Instant::now();
            let params = HnswParams { seed: opts.seed, ..HnswParams::default() };
            let hnsw = tr.span("features.hnsw_build", root, r, |_| {
                HnswIndex::build(cat.float.clone(), params).expect("catalogue rows are finite")
            });
            let hnsw_s = secs(t);
            let t = Instant::now();
            let mih = tr.span("features.mih_build", root, r, |_| {
                MihIndex::build(cat.binary.clone(), MihParams::default()).expect("signatures index")
            });
            let mih_s = secs(t);
            builds.push(hnsw_s + mih_s);
            hnsw_builds.push(hnsw_s);
            mih_builds.push(mih_s);

            let mut found_f = Vec::new();
            let mut found_b = Vec::new();
            tr.span("features.query", root, r, |_| {
                for _ in 0..QUERY_PASSES {
                    for (i, fastest) in hnsw_us.iter_mut().enumerate() {
                        let t = Instant::now();
                        found_f.push(hnsw.search(q.float.row(i), K));
                        *fastest = fastest.min(secs(t) * 1e6);
                    }
                    for _ in 0..MIH_PER_PASS {
                        for (i, fastest) in mih_us.iter_mut().enumerate() {
                            let t = Instant::now();
                            found_b.push(mih.search(q.binary.row(i), K));
                            *fastest = fastest.min(secs(t) * 1e6);
                        }
                    }
                }
            });

            tr.span("bench.check", root, r, |_| {
                // Recall is reported, not gated: with the default
                // parameters recall@10 misses 0.99 on some seeds, even
                // over the near duplicates, so a gate would fail some
                // runs and not others.
                let first = &found_f[..q.len()];
                recalls.push([
                    hnsw_recall(first, &oracle.float),
                    hnsw_recall(&first[..n_near], &oracle.float[..n_near]),
                    hnsw_recall(&first[n_near..], &oracle.float[n_near..]),
                ]);
                out.op("hnsw build", Vec::new());
                out.op("mih build", Vec::new());
                for (found, exact) in found_f.iter().zip(oracle.float.iter().cycle()) {
                    out.op("hnsw query", check_hnsw(found, exact));
                }
                for (found, exact) in found_b.iter().zip(oracle.binary.iter().cycle()) {
                    out.op("mih query", check_mih(found, exact));
                }
            });
        });
    });

    out.e2e("setup_s", median(&setups), "s");
    // The result is a lookup-ready gallery: both indexes built.
    out.e2e("result_s", median(&builds), "s");
    out.detail("index_build_s", median(&builds), "s");

    if tr.enabled() {
        out.detail("data.render_s", median(&renders), "s");
        out.detail("ann.describe_s", median(&describes), "s");
        out.detail("features.hnsw_build_s", median(&hnsw_builds), "s");
        out.detail("features.mih_build_s", median(&mih_builds), "s");
        // Detail only: a slow phase of the shared host lasting a whole
        // run moves these query latencies three to six times as much as
        // the index build, past any bound a comparison could hold them to.
        out.detail("features.hnsw_query_p50_us", median(&hnsw_us), "us");
        out.detail("features.mih_query_p50_us", median(&mih_us), "us");
        out.detail("features.hnsw_query_p99_us", percentile(&hnsw_us, 99.0), "us");
        out.detail("features.mih_query_p99_us", percentile(&mih_us, 99.0), "us");
        for (name, us) in [("hnsw", &hnsw_us), ("mih", &mih_us)] {
            for (kind, us) in [("near", &us[..n_near]), ("unseen", &us[n_near..])] {
                let p50 = median(us);
                out.detail(&format!("features.{name}_query_p50_us.{kind}"), p50, "us");
            }
        }
        for (i, name) in ["", ".near", ".unseen"].iter().enumerate() {
            let per_round: Vec<f64> = recalls.iter().map(|r| r[i]).collect();
            out.detail(&format!("features.hnsw_recall_at_10{name}"), median(&per_round), "ratio");
        }
        let t = Instant::now();
        tr.span("bench.probe", SpanId::NONE, 0, |root| {
            tr.span("features.flat_knn", root, 0, |_| knn_match_float(&q.float, &cat.float))
        })
        .expect("flat matcher accepts equal-width rows");
        out.detail("features.flat_knn_us_per_query", secs(t) * 1e6 / q.len() as f64, "us");
    }
    out
}

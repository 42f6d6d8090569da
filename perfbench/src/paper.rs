//! `paper-tables`: the nine tables of the paper through `PreparedRepro`.
//!
//! Set-up forces every shared artefact (datasets rendered, views
//! preprocessed, six descriptor indexes extracted) on a fresh cache,
//! three times, and reports the median. A round then generates tables
//! 1–3 and 5–9 (`match_tables_s`) and then Table 4 (`table4_s`), which
//! trains and evaluates the Siamese network; `result_s` is the two
//! together. Every table comes from the
//! program's own `table*_with` generator, and every generator's records
//! are checked. Rounds repeat while the next one fits in the run's
//! seconds.

use std::time::Instant;

use taor_bench::repro::{
    table1_with, table2_with, table3_ex_with, table4_with, table5_with, table6_with,
    table7or8_with, table9_with, TableOutput,
};
use taor_bench::{PreparedRepro, ReproConfig};
use taor_core::prelude::*;
use taor_data::{nyu_sns1_test_pairs, sns1_test_pairs, ObjectClass};

use crate::trace::{SpanId, Tracer};
use crate::{median, run_rounds, secs, Outcome, RunOpts};

/// Table 1 of the paper, in `ObjectClass::ALL` order.
pub const PAPER_SNS1: [usize; 10] = [14, 12, 8, 8, 8, 8, 6, 4, 8, 6];
pub const PAPER_SNS2: [usize; 10] = [10; 10];
pub const PAPER_NYU: [usize; 10] = [1000, 920, 790, 760, 726, 637, 617, 511, 495, 478];
/// Table 4's NYU+SNS1 evaluation set in the paper: similar and
/// dissimilar pairs. (The SNS1 set is every pair of SNS1 views, so its
/// supports follow from `PAPER_SNS1`.)
pub const PAPER_NYU_PAIRS: (usize, usize) = (4160, 4040);

const SETUPS: usize = 3;

/// The configuration a run uses: `repro --medium`, or a tiny variant
/// for the package's own tests.
pub fn config(opts: &RunOpts) -> ReproConfig {
    let mut cfg = ReproConfig::medium(opts.seed);
    if opts.small {
        cfg.nyu_per_class = Some(10);
        cfg.siamese.n_train_pairs = 40;
        cfg.siamese.train.max_epochs = 1;
        cfg.max_eval_pairs = Some(60);
    }
    cfg
}

/// Expected confusion-row sums per dataset label, and the cap on
/// Table 4's evaluation sets.
pub struct Cardinalities {
    sns1: [usize; 10],
    sns2: [usize; 10],
    nyu: [usize; 10],
    max_eval_pairs: Option<usize>,
}

impl Cardinalities {
    pub fn of(cfg: &ReproConfig) -> Self {
        let nyu = match cfg.nyu_per_class {
            None => PAPER_NYU,
            Some(n) => PAPER_NYU.map(|c| c.min(n)),
        };
        Cardinalities {
            sns1: PAPER_SNS1,
            sns2: PAPER_SNS2,
            nyu,
            max_eval_pairs: cfg.max_eval_pairs,
        }
    }

    /// Similar and dissimilar supports of an uncapped Table 4 pair set:
    /// SNS1 is every pair of SNS1 views, Σ C(n_c, 2) of them sharing a
    /// class (333 of 3,321 at Table 1 cardinalities); NYU+SNS1 is the
    /// paper's 4,160/4,040.
    fn table4_supports(&self, dataset: &str) -> (usize, usize) {
        if dataset.starts_with("NYU") {
            return PAPER_NYU_PAIRS;
        }
        let pairs = |n: usize| n * n.saturating_sub(1) / 2;
        let similar: usize = self.sns1.iter().map(|&n| pairs(n)).sum();
        (similar, pairs(self.sns1.iter().sum()) - similar)
    }

    /// The query set of a record's dataset label ("A v. B" → A).
    fn for_dataset(&self, dataset: &str) -> Option<&[usize; 10]> {
        match dataset.split(" v. ").next()? {
            "NYU" => Some(&self.nyu),
            "SNS1" => Some(&self.sns1),
            "SNS2" => Some(&self.sns2),
            _ => None,
        }
    }
}

/// Everything the detail report needs from one set-up.
struct SetupTimes {
    total: f64,
    render: f64,
    prepare: f64,
    extract: f64,
}

fn setup(cfg: &ReproConfig, tr: &Tracer, k: u64) -> (PreparedRepro, SetupTimes) {
    let t = Instant::now();
    let prep = PreparedRepro::new(cfg.clone());
    let (render, prepare, extract) = tr.span("bench.setup", SpanId::NONE, k, |root| {
        let render = timed(tr, "data.render", root, k, || {
            prep.sns1();
            prep.sns2();
            prep.nyu();
        });
        let prepare = timed(tr, "imgproc.prepare_views", root, k, || {
            prep.refs_sns1();
            prep.refs_sns2();
            prep.q_nyu();
        });
        let extract = timed(tr, "features.extract", root, k, || {
            prep.descriptors_sns1();
            prep.descriptors_sns2();
        });
        (render, prepare, extract)
    });
    (prep, SetupTimes { total: secs(t), render, prepare, extract })
}

fn timed(tr: &Tracer, name: &'static str, parent: SpanId, req: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    tr.span(name, parent, req, |_| f());
    secs(t)
}

/// Per-table timings of one round.
#[derive(Default)]
struct RoundTimes {
    tables: Vec<(usize, f64, usize)>,
    match_total: f64,
    table4: f64,
}

pub fn run(opts: &RunOpts, tr: &Tracer) -> Outcome {
    let cfg = config(opts);
    let card = Cardinalities::of(&cfg);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut prep = None;
    for k in 0..SETUPS {
        drop(prep.take());
        let (p, times) = setup(&cfg, tr, k as u64);
        setups.push(times);
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up ran");

    let mut rounds: Vec<RoundTimes> = Vec::new();
    run_rounds(opts.budget(), |r| {
        let times = tr.span("bench.round", SpanId::NONE, r, |root| {
            round(&prep, &card, tr, root, r, &mut out)
        });
        rounds.push(times);
    });

    let med = |f: &dyn Fn(&RoundTimes) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.e2e("setup_s", median(&setups.iter().map(|s| s.total).collect::<Vec<_>>()), "s");
    // The result is all nine tables, what `repro --medium` spends after
    // set-up; its two parts are the matching tables and Table 4.
    out.e2e("result_s", med(&|r| r.match_total + r.table4), "s");
    out.detail("match_tables_s", med(&|r| r.match_total), "s");
    out.detail("table4_s", med(&|r| r.table4), "s");

    if tr.enabled() {
        tr.span("bench.probe", SpanId::NONE, 0, |root| {
            extract_probe(&prep, tr, root, &mut out);
            siamese_probe(&prep, tr, root, &mut out);
        });
        let sm = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        out.detail("data.render_s", sm(&|s| s.render), "s");
        out.detail("imgproc.prepare_views_s", sm(&|s| s.prepare), "s");
        out.detail("features.extract_s", sm(&|s| s.extract), "s");
        for (i, &(table, _, pairs)) in rounds[0].tables.iter().enumerate() {
            let t = med(&|r| r.tables[i].1);
            out.detail(&format!("core.table{table}_s"), t, "s");
            if pairs > 0 {
                out.detail(&format!("core.table{table}.pairs"), pairs as f64, "count");
                out.detail(&format!("core.table{table}.pairs_per_s"), pairs as f64 / t, "1/s");
            }
        }
    }
    out
}

fn round(
    prep: &PreparedRepro,
    card: &Cardinalities,
    tr: &Tracer,
    root: SpanId,
    r: u64,
    out: &mut Outcome,
) -> RoundTimes {
    let mut times = RoundTimes::default();
    type Gen = fn(&PreparedRepro) -> TableOutput;
    let generators: [(&'static str, Gen); 8] = [
        ("core.table1", table1_with),
        ("core.table2", table2_with),
        ("core.table3", |p| table3_ex_with(p, false)),
        ("core.table5", table5_with),
        ("core.table6", table6_with),
        ("core.table7", |p| table7or8_with(p, 7)),
        ("core.table8", |p| table7or8_with(p, 8)),
        ("core.table9", table9_with),
    ];
    let mut outputs = Vec::new();
    for (span, generate) in generators {
        let t = Instant::now();
        let table = tr.span(span, root, r, |_| generate(prep));
        let dt = secs(t);
        times.tables.push((table.table, dt, table.pairs));
        times.match_total += dt;
        outputs.push(table);
    }

    // Table 4 is Siamese training plus evaluation: the nn layer.
    let t = Instant::now();
    let table4 = tr.span("nn.table4", root, r, |_| table4_with(prep, false, false));
    times.table4 = secs(t);

    tr.span("bench.check", root, r, |_| {
        let mih_orb = mih_orb_evaluation(prep);
        for table in &outputs {
            out.op(&format!("table {}", table.table), check_table(table, card, &mih_orb));
        }
        match &table4 {
            Ok(table) => out.op("table 4", check_table(table, card, &mih_orb)),
            Err(e) => out.op("table 4", vec![format!("training failed: {e}")]),
        }
    });
    times
}

/// Siamese training and evaluation split into their steps, each timed,
/// with every epoch timed from the training callback (traced runs only;
/// the rounds time `table4_with` whole). The steps are those
/// `table4_with` takes: train on SNS2 pairs, evaluate both pair sets.
fn siamese_probe(prep: &PreparedRepro, tr: &Tracer, root: SpanId, out: &mut Outcome) {
    let cfg = prep.cfg();
    let started = Instant::now();
    let mut last = started;
    let mut epochs = Vec::new();
    let trained = tr.span("nn.train", root, 0, |train_span| {
        try_train_siamese(prep.sns2(), &cfg.siamese, |_| {
            let now = Instant::now();
            tr.record("nn.epoch", train_span, 0, last, now);
            epochs.push(now.duration_since(last).as_secs_f64());
            last = now;
        })
    });
    let train_s = secs(started);
    let Ok((net, _)) = trained else {
        // The rounds count the failure; there is nothing to time.
        return;
    };

    let t = Instant::now();
    let eval_pairs = tr.span("nn.eval", root, 0, |_| {
        let mut pairs_sns1 = sns1_test_pairs(prep.sns1());
        let mut pairs_nyu = nyu_sns1_test_pairs(prep.nyu(), prep.sns1(), cfg.seed);
        if let Some(n) = cfg.max_eval_pairs {
            pairs_sns1.truncate(n);
            pairs_nyu.truncate(n);
        }
        for pairs in [&pairs_sns1, &pairs_nyu] {
            std::hint::black_box(evaluate_siamese(&net, pairs, &cfg.siamese.net));
        }
        pairs_sns1.len() + pairs_nyu.len()
    });
    let eval_s = secs(t);

    out.detail("nn.train_s", train_s, "s");
    out.detail("nn.epoch_s", median(&epochs), "s");
    out.detail("nn.epochs", epochs.len() as f64, "count");
    out.detail("nn.eval_s", eval_s, "s");
    out.detail("nn.eval_pairs_per_s", eval_pairs as f64 / eval_s, "1/s");
}

/// The ORB row of tables 3 and 9 recomputed through exact multi-index
/// hashing instead of the flat matcher (ratio 0.5, as both tables'
/// records hold it).
fn mih_orb_evaluation(prep: &PreparedRepro) -> Option<Evaluation> {
    let orb = DescriptorKind::ALL.iter().position(|k| *k == DescriptorKind::Orb)?;
    let q = prep.descriptors_sns1().get(orb)?;
    let r = prep.descriptors_sns2().get(orb)?;
    let diag = Diagnostics::new();
    let preds = try_classify_descriptors_with(q, r, 0.5, &diag, AnnIndexMode::Mih).ok()?;
    let truth: Vec<ObjectClass> = prep.sns1().images.iter().map(|i| i.class).collect();
    Some(evaluate(&truth, &preds))
}

/// Checks one matching table against properties its numbers must have.
pub fn check_table(
    table: &TableOutput,
    card: &Cardinalities,
    mih_orb: &Option<Evaluation>,
) -> Vec<String> {
    let mut problems = Vec::new();
    match table.table {
        1 => return check_table1(&table.text, card),
        4 => return check_table4(table, card),
        _ => {}
    }
    if table.records.is_empty() {
        problems.push("no records".to_string());
    }
    for rec in &table.records {
        let what = format!("{} / {}", rec.approach, rec.dataset);
        let Some(e) = &rec.evaluation else {
            problems.push(format!("{what}: no evaluation"));
            continue;
        };
        match card.for_dataset(&rec.dataset) {
            Some(expected) => {
                let rows: Vec<usize> = e.confusion.iter().map(|r| r.iter().sum()).collect();
                if rows != expected.to_vec() {
                    problems.push(format!("{what}: confusion rows {rows:?} != {expected:?}"));
                }
            }
            None => problems.push(format!("{what}: unknown dataset")),
        }
        problems.extend(check_evaluation(e).into_iter().map(|p| format!("{what}: {p}")));
        if let Some(acc) = rec.cumulative_accuracy {
            if acc != e.cumulative_accuracy {
                problems.push(format!("{what}: headline accuracy {acc} != evaluation"));
            }
        }
        let orb_row = rec.approach == "ORB" && (table.table == 3 || table.table == 9);
        if orb_row {
            match mih_orb {
                Some(m) if m.confusion == e.confusion => {}
                Some(_) => problems.push(format!("{what}: MIH confusion differs from flat")),
                None => problems.push(format!("{what}: MIH classification failed")),
            }
        }
    }
    problems
}

/// Recompute cumulative accuracy, recall, paper precision and F1 from
/// the confusion matrix.
pub fn check_evaluation(e: &Evaluation) -> Vec<String> {
    let mut problems = Vec::new();
    let n: usize = e.confusion.iter().flatten().sum();
    let diag: usize =
        e.confusion.iter().enumerate().map(|(i, r)| r.get(i).copied().unwrap_or(0)).sum();
    if n == 0 {
        return vec!["empty confusion matrix".to_string()];
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12;
    if !close(e.cumulative_accuracy, diag as f64 / n as f64) {
        problems.push(format!("cumulative accuracy {} != {diag}/{n}", e.cumulative_accuracy));
    }
    if e.per_class.len() != e.confusion.len() {
        problems.push("per-class rows do not match the confusion matrix".to_string());
    }
    for (c, (m, row)) in e.per_class.iter().zip(&e.confusion).enumerate() {
        let tp = row.get(c).copied().unwrap_or(0) as f64;
        let support: usize = row.iter().sum();
        let recall = if support > 0 { tp / support as f64 } else { 0.0 };
        let precision = tp / n as f64;
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        if m.support != support
            || !close(m.recall, recall)
            || !close(m.precision_paper, precision)
            || !close(m.f1, f1)
        {
            problems.push(format!("class {c}: metrics disagree with the confusion row"));
        }
    }
    problems
}

/// Table 1's rendered rows must equal the paper's cardinalities.
fn check_table1(text: &str, card: &Cardinalities) -> Vec<String> {
    let mut problems = Vec::new();
    for class in ObjectClass::ALL {
        let i = class.index();
        let expected = [card.sns1[i], card.sns2[i], card.nyu[i]];
        // The class's data row: its name followed by numbers only.
        let row = text.lines().find_map(|l| {
            let mut cells = l.split_whitespace();
            if cells.next() != Some(class.name()) {
                return None;
            }
            cells.map(|c| c.parse::<usize>().ok()).collect::<Option<Vec<_>>>()
        });
        if row.as_deref() != Some(&expected[..]) {
            problems.push(format!("{}: row {row:?} != {expected:?}", class.name()));
        }
    }
    problems
}

/// Table 4: two binary records, one per pair set, whose supports are the
/// pair sets' label counts (derived from Table 1, not from the pairs the
/// generator drew), whose precision, F1 and accuracy follow from recall
/// and support, and whose headline accuracy is the evaluation's.
pub fn check_table4(table: &TableOutput, card: &Cardinalities) -> Vec<String> {
    let mut problems = Vec::new();
    let sets = ["ShapeNetSet1 pairs", "NYU+ShapeNetSet1 pairs"];
    let names: Vec<&str> = table.records.iter().map(|r| r.dataset.as_str()).collect();
    if names != sets {
        problems.push(format!("records {names:?} != {sets:?}"));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9;
    for rec in &table.records {
        let what = &rec.dataset;
        let Some(e) = &rec.binary else {
            problems.push(format!("{what}: no binary evaluation"));
            continue;
        };
        let got = (e.similar.support, e.dissimilar.support);
        let full = card.table4_supports(what);
        match card.max_eval_pairs {
            Some(cap) if cap < full.0 + full.1 => {
                // A capped set: only the total is known.
                let total = got.0 + got.1;
                if total != cap {
                    problems.push(format!("{what}: supports {got:?} do not add up to {cap}"));
                }
            }
            _ => {
                if got != full {
                    problems.push(format!("{what}: supports {got:?} != {full:?}"));
                }
            }
        }
        // True positives of each side from its recall; the other side's
        // misses are this side's false positives.
        let tp_sim = (e.similar.recall * e.similar.support as f64).round();
        let tp_dis = (e.dissimilar.recall * e.dissimilar.support as f64).round();
        let n = (e.similar.support + e.dissimilar.support) as f64;
        let precision = |tp: f64, other_support: usize, other_tp: f64| {
            let predicted = tp + other_support as f64 - other_tp;
            if predicted > 0.0 {
                tp / predicted
            } else {
                0.0
            }
        };
        let sides = [
            ("similar", &e.similar, precision(tp_sim, e.dissimilar.support, tp_dis)),
            ("dissimilar", &e.dissimilar, precision(tp_dis, e.similar.support, tp_sim)),
        ];
        for (side, m, p) in sides {
            if !close(m.precision, p) {
                problems.push(format!("{what}: {side} precision {} != {p}", m.precision));
            }
            let f1 = if m.precision + m.recall > 0.0 {
                2.0 * m.precision * m.recall / (m.precision + m.recall)
            } else {
                0.0
            };
            if !close(m.f1, f1) {
                problems.push(format!("{what}: {side} F1 disagrees with precision/recall"));
            }
        }
        if n == 0.0 || !close(e.accuracy, (tp_sim + tp_dis) / n) {
            problems.push(format!("{what}: accuracy {} disagrees with recall", e.accuracy));
        }
        if rec.cumulative_accuracy != Some(e.accuracy) {
            problems.push(format!("{what}: headline accuracy differs from the evaluation"));
        }
    }
    problems
}

/// Per-kind descriptor extraction, timed on the set-up's datasets
/// (traced runs only; set-up itself extracts all kinds in one call).
fn extract_probe(prep: &PreparedRepro, tr: &Tracer, root: SpanId, out: &mut Outcome) {
    for kind in DescriptorKind::ALL {
        let t = Instant::now();
        tr.span("features.extract", root, 0, |_| {
            std::hint::black_box(extract_index(prep.sns1(), kind));
            std::hint::black_box(extract_index(prep.sns2(), kind));
        });
        let name = format!("features.extract_s.{}", kind.label().to_lowercase());
        out.detail(&name, secs(t), "s");
    }
}

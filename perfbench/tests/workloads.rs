//! The benchmark's own tests: each workload runs end to end at a small
//! scale and passes its checks, and a corrupted answer trips each check.

use serde_json::Value;
use taor_bench::repro::{table1_with, table4_with, table5_with, table9_with};
use taor_bench::{PreparedRepro, ReproConfig};
use taor_perfbench::gallery::{self, check_hnsw, check_mih, hnsw_recall};
use taor_perfbench::paper::{self, check_table, Cardinalities};
use taor_perfbench::serve::{check_reply, Answer, Expected, Reply};
use taor_perfbench::trace::Tracer;
use taor_perfbench::{host, per_layer, serve, Metric, Outcome, RunOpts};

fn small(seconds: f64) -> RunOpts {
    RunOpts { seed: 7, seconds, trace: true, small: true }
}

fn assert_clean(out: &Outcome, metrics: &[&str]) {
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "failures: {:?}", out.failures);
    for m in metrics {
        let v = out.metric(m).unwrap_or_else(|| panic!("{m} missing"));
        assert!(v.is_finite() && v > 0.0, "{m} = {v}");
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn manifest(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let Ok(Value::Map(top)) = serde_json::from_str::<Value>(&text) else {
        panic!("BENCHMARK.json is not a JSON object");
    };
    let Some((_, Value::Seq(list))) = top.iter().find(|(k, _)| k == key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    let field = |fields: &[(String, Value)], k: &str| match fields.iter().find(|(n, _)| n == k) {
        Some((_, Value::Str(s))) => s.clone(),
        _ => panic!("a {key} entry has no {k}"),
    };
    let mut names: Vec<(String, String)> = list
        .iter()
        .map(|m| match m {
            Value::Map(f) => (field(f, "name"), field(f, "unit")),
            _ => panic!("a {key} entry is not an object"),
        })
        .collect();
    names.sort();
    names
}

fn named(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut names: Vec<(String, String)> =
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    names.sort();
    names
}

/// The run prints exactly the manifest's metrics, in its units, as the
/// binary assembles them: every end-to-end metric never 0, and every
/// per-layer metric finite.
fn assert_prints_the_manifest(out: &Outcome, tr: &Tracer) {
    let mut e2e = out.end_to_end.clone();
    e2e.push(Metric {
        name: "peak_rss_mb".into(),
        value: host::peak_rss_mb().unwrap(),
        unit: "MiB",
    });
    assert_eq!(named(&e2e), manifest("end_to_end"));
    assert!(e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{e2e:?}");
    let layers = per_layer(out, tr, 1.0).expect("every span belongs to a known layer");
    assert_eq!(named(&layers), manifest("per_layer"));
    assert!(layers.iter().all(|m| m.value.is_finite() && m.value >= 0.0), "{layers:?}");
}

#[test]
fn paper_tables_runs_small_and_passes_its_checks() {
    let tr = Tracer::new(true);
    let out = paper::run(&small(0.1), &tr);
    assert_clean(
        &out,
        &["setup_s", "result_s", "match_tables_s", "table4_s", "nn.train_s", "core.table2_s"],
    );
    assert_eq!(out.attempted, 9, "one round of nine tables");
    assert_prints_the_manifest(&out, &tr);
    assert!(tr.coverage() > 0.9);
}

#[test]
fn serve_frames_runs_small_and_passes_its_checks() {
    let tr = Tracer::new(true);
    let out = serve::run(&small(1.0), &tr);
    assert_clean(
        &out,
        &[
            "setup_s",
            "result_s",
            "request_p50_ms",
            "frame_p50_ms",
            "frame_p99_ms",
            "nn.tower_ms.b6",
        ],
    );
    assert_prints_the_manifest(&out, &tr);
}

#[test]
fn gallery_runs_small_and_passes_its_checks() {
    let tr = Tracer::new(true);
    let out = gallery::run(&small(0.1), &tr);
    assert_clean(
        &out,
        &[
            "setup_s",
            "result_s",
            "index_build_s",
            "features.hnsw_query_p50_us",
            "features.mih_query_p50_us",
        ],
    );
    assert_prints_the_manifest(&out, &tr);
    assert!(out.metric("features.hnsw_recall_at_10").is_some_and(|r| r > 0.9));
}

fn tiny_prep() -> PreparedRepro {
    PreparedRepro::new(paper::config(&small(0.1)))
}

#[test]
fn corrupted_tables_trip_the_paper_checks() {
    let prep = tiny_prep();
    let card = Cardinalities::of(prep.cfg());
    let t5 = table5_with(&prep);
    assert!(check_table(&t5, &card, &None).is_empty());

    // A metric that no longer follows from its confusion matrix.
    let mut bad = t5.clone();
    if let Some(e) = bad.records[1].evaluation.as_mut() {
        e.per_class[0].f1 += 0.01;
    }
    assert!(!check_table(&bad, &card, &None).is_empty());

    // Confusion rows that no longer add up to the Table 1 cardinalities.
    let mut bad = t5.clone();
    if let Some(e) = bad.records[1].evaluation.as_mut() {
        e.confusion[0][0] += 1;
    }
    assert!(!check_table(&bad, &card, &None).is_empty());

    // A Table 1 cell that differs from the paper.
    let mut t1 = table1_with(&prep);
    assert!(check_table(&t1, &card, &None).is_empty());
    t1.text = t1.text.replacen("82", "83", 1);
    t1.text = t1.text.replacen("Chair   14", "Chair   15", 1);
    assert!(!check_table(&t1, &card, &None).is_empty());

    // An ORB row whose MIH recomputation disagrees with the flat row.
    let t9 = table9_with(&prep);
    let orb = t9.records.iter().find(|r| r.approach == "ORB").expect("ORB row");
    let flat = orb.evaluation.clone();
    assert!(check_table(&t9, &card, &flat).is_empty());
    let mut other = flat.clone().expect("ORB row is evaluated");
    other.confusion.swap(0, 1);
    assert!(!check_table(&t9, &card, &Some(other)).is_empty());
}

#[test]
fn corrupted_table4_trips_the_check() {
    let prep = tiny_prep();
    let card = Cardinalities::of(prep.cfg());
    let t4 = table4_with(&prep, false, false).expect("tiny Table 4 trains");
    assert!(check_table(&t4, &card, &None).is_empty());

    // Capped pair sets cannot have the paper's supports.
    let full = Cardinalities::of(&ReproConfig::medium(7));
    assert!(!check_table(&t4, &full, &None).is_empty());

    let corruptions: [fn(&mut taor_core::BinaryEvaluation); 4] = [
        |e| e.similar.support += 1,
        |e| e.dissimilar.precision = (e.dissimilar.precision + 0.25) % 1.0,
        |e| e.similar.f1 += 0.01,
        |e| e.accuracy = (e.accuracy + 0.25) % 1.0,
    ];
    for corrupt in corruptions {
        let mut bad = t4.clone();
        if let Some(e) = bad.records[1].binary.as_mut() {
            corrupt(e);
        }
        assert!(!check_table(&bad, &card, &None).is_empty());
    }
    let mut bad = t4.clone();
    bad.records.pop();
    assert!(!check_table(&bad, &card, &None).is_empty());
}

#[test]
fn frame_sizes_follow_the_patrol_frame_model() {
    let model: std::collections::BTreeSet<usize> =
        taor_data::patrol_frames(3, 9).iter().map(|f| f.objects.len()).collect();
    assert_eq!(model, serve::FRAME_CROPS.collect());
    let drawn = serve::frames(3, 0, 300, 60);
    assert!(drawn.iter().all(|f| serve::FRAME_CROPS.contains(&f.len())));
    assert!(drawn.iter().flatten().all(|&crop| crop < 60));
}

fn body(class: &str, ranking: &[&str], degraded: bool) -> Vec<u8> {
    let ranking: Vec<String> = ranking.iter().map(|c| format!("\"{c}\"")).collect();
    format!(
        "{{\"class\":\"{class}\",\"synset\":\"n0\",\"confidence\":0.5,\"ranking\":[{}],\
         \"pipeline\":\"siamese\",\"degraded\":{degraded},\"quarantined_samples\":0}}",
        ranking.join(",")
    )
    .into_bytes()
}

fn reply(status: u16, body: Vec<u8>) -> Reply {
    Reply { crop: 0, latency_ms: 1.0, answer: Answer { status, close: false, body } }
}

#[test]
fn corrupted_answers_trip_the_serve_checks() {
    let expected = [Expected {
        class: "Chair".to_string(),
        ranking: vec!["Chair".to_string(), "Lamp".to_string()],
    }];
    let good = body("Chair", &["Chair", "Lamp"], false);
    let mut bodies = Default::default();
    assert!(check_reply(&reply(200, good.clone()), &expected, &mut bodies).is_empty());
    assert!(check_reply(&reply(200, good.clone()), &expected, &mut bodies).is_empty());

    let cases = [
        reply(500, good.clone()),
        reply(200, body("Chair", &["Chair", "Lamp"], true)),
        reply(200, body("Lamp", &["Lamp", "Chair"], false)),
        reply(200, body("Chair", &["Chair", "Sofa"], false)),
        reply(200, b"not json".to_vec()),
    ];
    for bad in cases {
        let mut fresh = Default::default();
        assert!(!check_reply(&bad, &expected, &mut fresh).is_empty(), "{:?}", bad.answer);
    }

    // Same crop bytes, a different body (same class and ranking).
    let other = String::from_utf8(good).expect("ascii").replace("0.5", "0.6").into_bytes();
    assert!(!check_reply(&reply(200, other), &expected, &mut bodies).is_empty());
}

#[test]
fn corrupted_index_answers_trip_the_gallery_checks() {
    let exact = vec![(3usize, 4u32), (7, 9)];
    assert!(check_mih(&exact, &exact).is_empty());
    assert!(!check_mih(&[(3, 4), (8, 9)], &exact).is_empty());
    assert!(!check_mih(&[(3, 4)], &exact).is_empty());

    let exact: Vec<(usize, f32)> = (0..4).map(|i| (10 + i, i as f32)).collect();
    assert!(check_hnsw(&exact, &exact).is_empty());
    // An approximate answer that misses a neighbour is allowed...
    let missed = [(10, 0.0), (11, 1.0), (12, 2.0), (99, 3.5)];
    assert!(check_hnsw(&missed, &exact).is_empty());
    assert!(hnsw_recall(&[missed.to_vec()], std::slice::from_ref(&exact)) < 1.0);
    // ...but not one nearer than exact search, a wrong distance, a
    // repeated row, a short answer or an unsorted one.
    for bad in [
        vec![(10, 0.0), (11, 0.5), (12, 2.0), (13, 3.0)],
        vec![(10, 0.0), (11, 1.0), (12, 2.5), (99, 3.5)],
        vec![(10, 0.0), (10, 0.0), (12, 2.0), (13, 3.0)],
        vec![(10, 0.0), (11, 1.0), (12, 2.0)],
        vec![(10, 0.0), (12, 2.0), (11, 1.0), (13, 3.0)],
    ] {
        assert!(!check_hnsw(&bad, &exact).is_empty(), "{bad:?}");
    }
}

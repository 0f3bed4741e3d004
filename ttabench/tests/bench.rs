//! The benchmark's own contract: the tail rule, the metric catalogue, the
//! result document, and a tiny-size pass of every workload.

use xlmc::json::JsonValue;
use xlmc_ttabench::report::{per_layer, Metric, Outcome, END_TO_END};
use xlmc_ttabench::run::{run, Config, Size, Workload};
use xlmc_ttabench::stats::{median, tail, TAIL_BEYOND};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn tail_keeps_ten_samples_beyond() {
    for n in [11usize, 12, 25, 40, 100] {
        // Shuffled 1..=n: the value equals its ascending rank + 1.
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7) % n + 1) as f64).collect();
        let t = tail(&xs);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        assert_eq!(t.beyond, TAIL_BEYOND);
        assert_eq!(t.value, (n - TAIL_BEYOND) as f64);
        assert_eq!(t.percentile, 100.0 * (n - TAIL_BEYOND) as f64 / n as f64);
    }
    // Eleven samples: the minimum is the only rank with ten beyond it.
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(tail(&eleven).value, 1.0);
    // Too few samples: no rank qualifies and the maximum stands in.
    let t = tail(&[3.0, 9.0, 1.0]);
    assert_eq!((t.value, t.beyond, t.percentile), (9.0, 0, 100.0));
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_use_the_allowed_charset() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer().into_iter().map(|(n, _)| n));
    for name in &names {
        assert!(valid_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names repeat");
    for unit in END_TO_END
        .iter()
        .map(|(_, u)| *u)
        .chain(per_layer().iter().map(|(_, u)| *u))
    {
        assert!(valid_unit(unit), "{unit}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "semi;colon",
        "ü",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    assert!(valid_name("campaign.memory_write_s") && valid_name("9-a.b_c"));
    assert!(!valid_unit("") && !valid_unit("a b") && valid_unit("1/s") && valid_unit("%"));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    // The regression set may leave out a workload the benchmark can run
    // (answer_mlmc spreads too widely on a shared 2-CPU host).
    let workloads = listed("workloads");
    assert!(workloads.len() >= 2);
    for (name, _) in workloads {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}

/// Parse a rendered result line and check its exact shape.
fn assert_document_shape(line: &str, names: &[String]) -> JsonValue {
    let doc = JsonValue::parse(line).expect("the result line is JSON");
    let JsonValue::Obj(members) = &doc else {
        panic!("the result is not an object: {line}");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(doc.get("correct"), Some(JsonValue::Bool(_))));
    assert!(
        doc.get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted")
            >= 1
    );
    assert!(doc.get("failed").and_then(JsonValue::as_u64).is_some());
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is not an object");
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names);
    for (name, m) in metrics {
        let JsonValue::Obj(fields) = m else {
            panic!("{name} is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name}"
        );
    }
    doc
}

#[test]
fn result_document_has_the_contract_shape() {
    let outcome = Outcome {
        attempted: 3,
        failed: 1,
        metrics: vec![Metric {
            name: "answer_s".into(),
            value: 0.123456789012,
            unit: "s",
        }],
    };
    let doc = assert_document_shape(&outcome.render(), &["answer_s".to_owned()]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
    let value = doc
        .get("metrics")
        .and_then(|m| m.get("answer_s"))
        .and_then(|m| m.get("value"));
    assert_eq!(value.and_then(JsonValue::as_f64), Some(0.123456789012));
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::TINY,
    };
    let (outcome, _) = run(&cfg).expect("an operation completed");
    outcome
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|m| m.name == name).expect(name).value
}

fn check_tiny_untraced(workload: Workload) {
    let o = tiny(workload, false);
    let names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_document_shape(&o.render(), &names);
    assert_eq!(o.failed, 0, "{}: failed_fraction is not 0", workload.name());
    for m in &o.metrics {
        assert!(
            m.value > 0.0 && m.value.is_finite(),
            "{}: {m:?}",
            workload.name()
        );
    }
}

#[test]
fn tiny_answer_single_passes() {
    check_tiny_untraced(Workload::AnswerSingle);
}

#[test]
fn tiny_answer_mlmc_passes() {
    check_tiny_untraced(Workload::AnswerMlmc);
}

#[test]
fn tiny_sweep_grid_passes() {
    check_tiny_untraced(Workload::SweepGrid);
}

#[test]
fn tiny_traced_run_reports_every_layer_and_covers_each_operation() {
    let o = tiny(Workload::AnswerSingle, true);
    let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_document_shape(&o.render(), &names);
    assert_eq!(metric(&o, "failed_fraction"), 0.0);
    assert!(
        metric(&o, "trace.coverage") >= 0.95,
        "{}",
        metric(&o, "trace.coverage")
    );
}

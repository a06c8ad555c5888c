//! `BENCHMARK.json` declares exactly what the program reports.

use polarbench::gen::Spec;
use polarbench::metrics::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        Spec::all().len() + END_TO_END.len() + PER_LAYER.len()
    );
    for spec in Spec::all() {
        let entry = format!(
            "\"name\": \"{}\",\n      \"why\": \"{}\"",
            spec.name, spec.why
        );
        assert!(json.contains(&entry), "workload {} differs", spec.name);
    }
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "metric {} differs", d.name);
    }
}

//! The metric names and units the benchmark emits must be the ones
//! `BENCHMARK.json` declares, in each of its two lists.

use jmst_perfbench::report::{END_TO_END, PER_LAYER};

fn declared(section: &str) -> Vec<(String, String)> {
    let manifest = include_str!("../../BENCHMARK.json");
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    body.lines()
        .filter_map(|line| {
            let name = line.split("\"name\": \"").nth(1)?.split('"').next()?;
            let unit = line.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_owned(), unit.to_owned()))
        })
        .collect()
}

fn catalog(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit.to_owned()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    assert_eq!(declared("end_to_end"), catalog(&END_TO_END));
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    assert_eq!(declared("per_layer"), catalog(&PER_LAYER));
}

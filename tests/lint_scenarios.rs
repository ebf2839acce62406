//! The checked-in scenario files stay honest: every `*.cfg` under
//! `scenarios/` must parse, and the static lint pass must find no errors
//! — except files named `*.broken.cfg`, which exist to prove the linter
//! catches misconfigured tests before any message is sent. Every file
//! that parses also round-trips through `serialize_spec`.

use jmst::harness::lint_spec;
use jmst::harness::{parse_spec, serialize_spec};
use std::path::PathBuf;

fn scenario_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cfg"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenario files found in {dir:?}");
    files
}

#[test]
fn clean_scenarios_lint_clean_and_broken_ones_fail() {
    let mut saw_clean = false;
    let mut saw_broken = false;
    for path in scenario_files() {
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let broken = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.ends_with(".broken.cfg"));
        match parse_spec(&text) {
            Err(error) => assert!(broken, "{path:?} failed to parse: {error}"),
            Ok(spec) => {
                // Every file that parses round-trips: its spec prints,
                // and the printed text reads back as the same spec.
                let printed = serialize_spec(&spec)
                    .unwrap_or_else(|e| panic!("{path:?} parses but does not serialize: {e}"));
                let reparsed = parse_spec(&printed)
                    .unwrap_or_else(|e| panic!("{path:?} prints text that fails to parse: {e}"));
                assert_eq!(reparsed, spec, "{path:?} does not round-trip:\n{printed}");
                let report = lint_spec(&spec);
                if broken {
                    assert!(
                        report.has_errors(),
                        "{path:?} is named broken but linted clean:\n{report}"
                    );
                } else {
                    assert!(!report.has_errors(), "{path:?} has lint errors:\n{report}");
                }
            }
        }
        if broken {
            saw_broken = true;
        } else {
            saw_clean = true;
        }
    }
    assert!(saw_clean, "expected at least one clean scenario fixture");
    assert!(saw_broken, "expected at least one broken scenario fixture");
}

#[test]
fn linting_a_multi_hundred_scenario_corpus_stays_sub_second() {
    // The dead-subscription check reasons about each destination's
    // producer property sets; that per-destination work is computed once
    // per spec, not once per consumer. This pins the cost of linting a
    // corpus-sized population of property-heavy scenarios — a regression
    // back to per-consumer recomputation blows well past the bound.
    use jmst::api::destination::Destination;
    use jmst::api::value::Value;
    use jmst::harness::{ConsumerSpec, NodeSpec, ProducerSpec, TestSpec};

    let specs: Vec<TestSpec> = (0..300)
        .map(|case| {
            let mut node = NodeSpec::new("n");
            for p in 0..12 {
                let mut producer =
                    ProducerSpec::steady(Destination::topic(format!("t{}", p % 4)), 10.0, 64);
                for k in 0..8 {
                    producer =
                        producer.with_property(format!("p{k}"), Value::Long(i64::from(p * 8 + k)));
                }
                node = node.producer(producer);
            }
            for c in 0..12 {
                node = node.consumer(
                    ConsumerSpec::auto(Destination::topic(format!("t{}", c % 4))).with_selector(
                        format!("p{} = {} AND jmst_seq >= 0", c % 8, (c % 12) * 8 + c % 8),
                    ),
                );
            }
            TestSpec::new(format!("corpus-{case}")).node(node)
        })
        .collect();

    let started = std::time::Instant::now();
    let mut findings = 0usize;
    for spec in &specs {
        findings += lint_spec(spec).findings.len();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "linting {} scenarios took {elapsed:?} (found {findings} findings); \
         the per-destination producer index is supposed to make this sub-second",
        specs.len()
    );
}

#[test]
fn clean_prop_files_lint_clean_and_broken_ones_fail() {
    // Same contract for the standalone property files: every `*.prop`
    // under scenarios/props/ must parse and survive the static front end
    // — except `*.broken.prop`, which must be rejected with an error.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("props");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/props/ directory exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "prop"))
        .collect();
    files.sort();
    let mut saw_clean = false;
    let mut saw_broken = false;
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable property file");
        let broken = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.ends_with(".broken.prop"));
        match jmst::props::parse_properties(&text) {
            Err(error) => assert!(broken, "{path:?} failed to parse: {error}"),
            Ok(properties) => {
                let report = jmst::harness::lint_props(&properties);
                if broken {
                    assert!(
                        report.has_errors(),
                        "{path:?} is named broken but linted clean:\n{report}"
                    );
                } else {
                    assert!(!report.has_errors(), "{path:?} has lint errors:\n{report}");
                }
            }
        }
        if broken {
            saw_broken = true;
        } else {
            saw_clean = true;
        }
    }
    assert!(saw_clean, "expected at least one clean .prop fixture");
    assert!(saw_broken, "expected at least one broken .prop fixture");
}

#[test]
fn broken_fixture_names_the_dead_subscription() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("dead_subscription.broken.cfg");
    let spec = parse_spec(&std::fs::read_to_string(path).expect("fixture exists"))
        .expect("the broken fixture parses; only the lint pass rejects it");
    let report = lint_spec(&spec);
    let text = report.to_string();
    assert!(text.contains("dead subscription"), "{text}");
    assert!(text.contains("never match"), "{text}");
    assert!(report.warnings().count() >= 2, "{text}");
}

#[test]
fn clean_fixture_runs_and_routes_by_selector() {
    // The clean fixture is not just lintable — it runs end-to-end on the
    // reference broker and passes every safety property.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("selector_routing.cfg");
    let spec = parse_spec(&std::fs::read_to_string(path).expect("fixture exists"))
        .expect("clean fixture parses");
    assert!(lint_spec(&spec).is_clean());
    let broker = jmst::broker::ReferenceBroker::new();
    let trace = jmst::harness::ThreadedRunner::new()
        .run(std::sync::Arc::new(broker), None, &spec)
        .expect("scenario runs");
    let report = jmst::core::Analyzer::new().analyze(&trace);
    assert!(report.passed(), "{report}");
}

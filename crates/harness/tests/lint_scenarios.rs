//! Lint fixtures in scenario-text form: each fixture is a complete
//! `.cfg` scenario that must trip (or must not trip) a specific lint
//! rule, pinned by its stable rule id. This exercises the whole chain
//! the daemon prince runs — parse, validate, lint — not just the
//! in-memory spec builders.

use jmst_harness::{lint_spec, parse_spec, LintReport, Severity};

fn lint(text: &str) -> LintReport {
    let spec = parse_spec(text).unwrap_or_else(|e| panic!("fixture must parse: {e}\n---\n{text}"));
    lint_spec(&spec)
}

fn has_rule(report: &LintReport, severity: Severity, rule: &str) -> bool {
    report
        .findings
        .iter()
        .any(|f| f.severity == severity && f.rule == rule)
}

/// `clients` / `arrival_rate` without `open_loop = on` used to be a
/// parse-time hard error; now the keys are tolerated (the closed-loop
/// drivers ignore them) and the lint warns with a stable id.
#[test]
fn open_loop_keys_without_open_loop_warn() {
    let fixture = "\
[test]
name = forgot-open-loop
clients = 200
arrival_rate = 5000

[node n]
[producer]
destination = queue:q
rate = steady 50
[consumer]
destination = queue:q
";
    let report = lint(fixture);
    assert!(
        has_rule(&report, Severity::Warning, "open-loop-keys-ignored"),
        "{report}"
    );
    assert!(!report.has_errors(), "{report}");

    // Adding open_loop = on makes the same scenario clean.
    let fixed = fixture.replace("[test]\n", "[test]\nopen_loop = on\n");
    let report = lint(&fixed);
    assert!(
        !has_rule(&report, Severity::Warning, "open-loop-keys-ignored"),
        "{report}"
    );
}

/// Each companion key alone is enough to fire the warning, and the
/// message names the offending key.
#[test]
fn each_open_loop_key_alone_warns_and_is_named() {
    let base = |extra: &str| {
        format!(
            "[test]\nname = k\n{extra}\n[node n]\n[producer]\ndestination = queue:q\n\
             rate = steady 50\n[consumer]\ndestination = queue:q\n"
        )
    };
    let report = lint(&base("clients = 8"));
    let finding = report
        .warnings()
        .find(|f| f.rule == "open-loop-keys-ignored")
        .expect("clients alone warns");
    assert!(finding.message.contains("clients"), "{}", finding.message);
    assert!(
        !finding.message.contains("arrival_rate"),
        "{}",
        finding.message
    );

    let report = lint(&base("arrival_rate = 100"));
    let finding = report
        .warnings()
        .find(|f| f.rule == "open-loop-keys-ignored")
        .expect("arrival_rate alone warns");
    assert!(
        finding.message.contains("arrival_rate"),
        "{}",
        finding.message
    );
}

/// `queue_bound = 0` would reject every send (the broker clamps it to
/// 1): a lint error, because the experiment would silently change.
#[test]
fn zero_queue_bound_is_a_lint_error() {
    let fixture = "\
[test]
name = bound-zero
queue_bound = 0

[node n]
[producer]
destination = queue:q
rate = steady 50
[consumer]
destination = queue:q
";
    let report = lint(fixture);
    assert!(
        has_rule(&report, Severity::Error, "queue-bound-zero"),
        "{report}"
    );

    // Any positive bound is a legitimate back-pressure experiment.
    let report = lint(&fixture.replace("queue_bound = 0", "queue_bound = 32"));
    assert!(!has_rule(&report, Severity::Error, "queue-bound-zero"));
    assert!(report.is_clean(), "{report}");
}

/// Open-loop load composes with a queue bound without any finding: the
/// reactor soak scenario shape stays lint-clean.
#[test]
fn reactor_backpressure_scenario_is_clean() {
    let fixture = "\
[test]
name = reactor-soak
open_loop = on
clients = 1000
arrival_rate = 20000
queue_bound = 4096

[node load]
[producer]
destination = queue:firehose
rate = poisson 100
[consumer]
destination = queue:firehose
";
    let report = lint(fixture);
    assert!(report.is_clean(), "{report}");
}

/// The shipped scenario corpus stays consistent with the linter: plain
/// `.cfg` files are warning-free, `.broken.cfg` files carry at least
/// one error (they exist to prove the linter catches them).
#[test]
fn shipped_scenarios_lint_as_labelled() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("cfg") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let report = lint(&text);
        if name.ends_with(".broken.cfg") {
            assert!(report.has_errors(), "{name} should lint broken:\n{report}");
        } else {
            assert!(!report.has_errors(), "{name} should be clean:\n{report}");
        }
        seen += 1;
    }
    assert!(seen >= 5, "scenario corpus went missing ({seen} files)");
}

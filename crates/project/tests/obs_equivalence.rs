//! Differential equivalence: observability must be a pure observer.
//!
//! DESIGN.md §14 promises that arming the full observability stack —
//! span tracing into the ring buffer, metrics counters, the lot — does
//! not change a single byte of serialized figure output. This suite
//! renders figures 6–11 twice, once with tracing fully enabled and once
//! fully disabled, and diffs the JSON byte for byte. (Metrics counters
//! cannot be "turned off" — they are always-on atomics — so the
//! enabled/disabled axis is the trace channel, the only part with an
//! armed/disarmed state.)

use ucore_project::figures;
use ucore_project::results::FigureData;

/// Renders every projected figure, with span tracing armed when
/// `traced`.
fn render(traced: bool) -> Vec<(&'static str, String)> {
    let _guard = traced.then(|| ucore_obs::trace::start(ucore_obs::trace::DEFAULT_CAPACITY));
    let json = |fig: FigureData| serde_json::to_string(&fig).expect("figure serializes");
    vec![
        ("figure6", json(figures::figure6().expect("figure 6 projects"))),
        ("figure7", json(figures::figure7().expect("figure 7 projects"))),
        ("figure8", json(figures::figure8().expect("figure 8 projects"))),
        ("figure9", json(figures::figure9().expect("figure 9 projects"))),
        ("figure10", json(figures::figure10().expect("figure 10 projects"))),
        ("figure11", json(figures::figure11().expect("figure 11 projects"))),
    ]
}

#[test]
fn figure_json_is_byte_identical_with_and_without_tracing() {
    let plain = render(false);
    let traced = render(true);
    for ((name, expected), (_, got)) in plain.iter().zip(traced.iter()) {
        assert_eq!(got, expected, "{name} (traced vs not)");
    }
}

#[test]
fn traced_run_yields_a_decodable_trace_with_balanced_spans() {
    let guard = ucore_obs::trace::start(ucore_obs::trace::DEFAULT_CAPACITY);
    figures::figure6().expect("figure 6 projects");
    let encoded = ucore_obs::trace::encode().expect("tracing is armed");
    drop(guard);

    let trace = ucore_obs::Trace::decode(&encoded).expect("trace round-trips");
    assert_eq!(trace.dropped, 0, "figure 6 fits the default ring");
    // Figure 6 sweeps one batch of 120 points; every point opens an
    // `engine.node_point` span and (one optimizer call per point) an
    // `engine.optimize` span, plus the one `project.sweep` span.
    let mut enters = std::collections::BTreeMap::new();
    let mut exits = std::collections::BTreeMap::new();
    for event in &trace.events {
        let name = trace.name(event.name);
        match event.kind {
            ucore_obs::SpanKind::Enter => *enters.entry(name).or_insert(0u64) += 1,
            ucore_obs::SpanKind::Exit => *exits.entry(name).or_insert(0u64) += 1,
        }
    }
    assert_eq!(enters, exits, "every span enter has a matching exit");
    assert_eq!(enters.get("project.sweep"), Some(&1));
    assert_eq!(enters.get("engine.node_point"), Some(&120));
    assert_eq!(enters.get("engine.optimize"), Some(&120));
}

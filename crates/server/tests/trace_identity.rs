//! Property test: tracing never changes a single response byte.
//!
//! Two [`RequestHandler`]s over the same graph, config and deployment shape
//! — one bare, one with stage tracing at sample rate 1.0 (every request
//! traced, the strongest case) plus walk metrics — must answer every frame
//! sequence byte-identically, across samplers (legacy/alias), result
//! caching and request coalescing.  This is the contract that lets
//! operators flip tracing on in production without re-validating answers:
//! instrumentation reads clocks and bumps relaxed counters, and must never
//! consume an RNG draw or branch on a sampled value.
//!
//! The same run also pins the stage-sum invariant on everything the slow
//! log kept: per-stage timings are disjoint slices of a request's wall
//! time, so their sum can never exceed the request's end-to-end total.

use proptest::prelude::*;
use std::time::Duration;
use ugraph::UncertainGraphBuilder;
use usim_core::{QueryEngine, SamplerKind, SimRankConfig};
use usim_server::{CoalesceOptions, RequestHandler, DEFAULT_MAX_BATCH};

fn fig1_graph() -> ugraph::UncertainGraph {
    UncertainGraphBuilder::new(5)
        .arc(0, 2, 0.8)
        .arc(0, 3, 0.5)
        .arc(1, 0, 0.8)
        .arc(1, 2, 0.9)
        .arc(2, 0, 0.7)
        .arc(2, 3, 0.6)
        .arc(3, 4, 0.6)
        .arc(3, 1, 0.8)
        .build()
        .unwrap()
}

/// One deployment shape + frame sequence drawn per case.
#[derive(Debug)]
struct Case {
    alias: bool,
    cached: bool,
    coalesced: bool,
    frames: Vec<String>,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec((0u32..5, 10u64..15, 10u64..15, 1u64..5), 4..16),
    )
        .prop_map(|(alias, cached, coalesced, picks)| {
            let frames = picks
                .into_iter()
                .map(|(kind, u, v, k)| match kind {
                    0 => format!(r#"{{"type":"similarity","source":{u},"target":{v}}}"#),
                    1 => format!(r#"{{"type":"profile","source":{u},"target":{v}}}"#),
                    2 => format!(r#"{{"type":"top_k","source":{u},"k":{k}}}"#),
                    3 => format!(r#"{{"type":"batch","pairs":[[{u},{v}],[{v},{u}],[10,14]]}}"#),
                    // An accepted update moves the epoch mid-sequence, so
                    // identity also covers overlay-patched answers.
                    _ => format!(
                        r#"{{"type":"update","updates":[{{"op":"set","source":{u},"target":{v},"probability":0.35}}]}}"#
                    ),
                })
                .collect();
            Case {
                alias,
                cached,
                coalesced,
                frames,
            }
        })
}

fn build_handler(case: &Case, traced: bool) -> RequestHandler {
    let mut config = SimRankConfig::default().with_samples(80).with_seed(7);
    if case.alias {
        config = config.with_sampler(SamplerKind::Alias);
    }
    let mut handler = RequestHandler::with_cache(
        QueryEngine::new(&fig1_graph(), config),
        (10..15).collect(),
        DEFAULT_MAX_BATCH,
        if case.cached { 64 } else { 0 },
    );
    if case.coalesced {
        handler = handler.with_coalescing(CoalesceOptions {
            window: Duration::from_micros(50),
            cap: 4,
        });
    }
    if traced {
        handler = handler.with_tracing(1.0, 16).with_walk_metrics();
    }
    handler
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tracing_is_byte_invisible_on_the_wire(case in cases()) {
        let bare = build_handler(&case, false);
        let traced = build_handler(&case, true);
        for frame in &case.frames {
            let expected = bare.handle_line(frame).unwrap();
            let observed = traced.handle_line(frame).unwrap();
            prop_assert_eq!(
                &observed.json,
                &expected.json,
                "tracing changed bytes for {} (alias {}, cached {}, coalesced {})",
                frame,
                case.alias,
                case.cached,
                case.coalesced
            );
            prop_assert_eq!(observed.is_error, expected.is_error);
        }

        // Every traced request the slow log kept obeys the stage-sum
        // invariant: disjoint stage slices never sum past the total.
        let tracer = traced.tracer().expect("traced handler has a tracer");
        let slow = tracer.slow_log().snapshot();
        prop_assert!(!slow.is_empty(), "rate-1.0 tracing must feed the slow log");
        for entry in &slow {
            let stage_sum: u64 = entry.stages_us.iter().sum();
            prop_assert!(
                stage_sum <= entry.total_us,
                "stage sum {}us > total {}us (trace {}, kind {})",
                stage_sum,
                entry.total_us,
                entry.trace_id,
                entry.kind
            );
        }
    }
}

//! The double-run determinism gate: the same seed must reproduce the
//! whole-system chaos scenario byte-for-byte — trace and metrics — and a
//! different seed must not.

use rcmo_sim::{SimConfig, Simulator};

#[test]
fn same_seed_is_byte_identical_different_seed_is_not() {
    let a = Simulator::run(&SimConfig::small(42));
    let b = Simulator::run(&SimConfig::small(42));

    assert_eq!(
        a.trace_text, b.trace_text,
        "same seed must replay an identical event trace"
    );
    assert_eq!(
        a.metrics_text, b.metrics_text,
        "same seed must reproduce identical metrics"
    );
    assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
    assert_eq!(a.events_executed, b.events_executed);

    // The scenario is only a witness if something actually happened in it.
    assert!(
        a.events_executed > 500,
        "scenario too small: {}",
        a.events_executed
    );
    assert!(a.kills >= 1, "no shard was killed");
    assert!(a.failovers >= 1, "no room failed over");
    assert!(a.migrations >= 1, "no migration ran");
    assert!(a.crash_drills >= 1, "no storage crash drill ran");
    assert!(a.resyncs >= 1, "no persona ever resynced");
    assert!(
        a.violations.is_empty(),
        "oracle must be green:\n{}",
        a.violations.join("\n")
    );
    for (kind, count) in &a.actions {
        assert!(*count > 0, "persona kind {kind} never stepped");
    }

    let c = Simulator::run(&SimConfig::small(43));
    assert_ne!(
        a.trace_text, c.trace_text,
        "a different seed must produce a different trace"
    );
}

/// FNV-1a-64 of `bytes`, the same hash the trace fingerprint uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins seed 42's scenario to fixed values, so a refactor that must keep
/// behaviour identical (same routed calls, same room locks, same events)
/// cannot drift unseen. The metrics text counts routed calls and room
/// locks, so a change in either moves its length or its hash. A change
/// that is meant to move these numbers re-pins them and says why.
#[test]
fn seed_42_scenario_is_pinned() {
    let r = Simulator::run(&SimConfig::small(42));
    assert_eq!(r.trace_fingerprint, 0xd39f_34a5_8b21_498c);
    assert_eq!(r.trace_len, 3796);
    assert_eq!(r.metrics_text.len(), 8847);
    assert_eq!(fnv1a64(r.metrics_text.as_bytes()), 0x2fa1_a195_013b_34a9);
}

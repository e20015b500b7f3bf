//! The run's event trace: one line per simulator event, in execution
//! order, with virtual timestamps.
//!
//! The trace is the determinism witness. Every line is
//! `t=<virtual µs> <actor> <what>` — no wall-clock value, no pointer, no
//! hash-map iteration order ever reaches it — so two runs from the same
//! seed must produce byte-identical traces, and the double-run test
//! compares them whole. For large runs the FNV fingerprint summarizes the
//! trace in the exported report.

/// An append-only, deterministic event log.
#[derive(Debug, Default)]
pub struct EventTrace {
    lines: Vec<String>,
}

impl EventTrace {
    /// An empty trace.
    pub fn new() -> EventTrace {
        EventTrace::default()
    }

    /// Appends one event at virtual time `t_us`, attributed to `actor`.
    pub fn push(&mut self, t_us: u64, actor: &str, what: &str) {
        self.lines.push(format!("t={t_us} {actor} {what}"));
    }

    /// Number of trace lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` if nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The whole trace as one newline-joined text (the byte-comparison
    /// form).
    pub fn to_text(&self) -> String {
        self.lines.join("\n")
    }

    /// FNV-1a fingerprint of the trace text: the compact determinism
    /// witness E21 prints.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &self.lines {
            for &b in line.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= b'\n' as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_traces_fingerprint_equal() {
        let mut a = EventTrace::new();
        let mut b = EventTrace::new();
        for t in [(5, "x", "join ok"), (9, "y", "chat")] {
            a.push(t.0, t.1, t.2);
            b.push(t.0, t.1, t.2);
        }
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.push(10, "y", "chat");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), 2);
    }
}

//! Heartbeat-based shard failure detection in virtual time.
//!
//! Each shard beats over its own control link
//! ([`rcmo_netsim::HeartbeatLink`]); the tracker advances a virtual clock
//! and classifies every shard by how long its last beat is overdue:
//! within `suspect_after` intervals → [`ShardHealth::Alive`], then
//! [`ShardHealth::Suspect`] (calls retry, no failover yet), then
//! [`ShardHealth::Dead`] — the declaration the frontend's failover acts
//! on. Death is sticky: a declared-dead shard never rejoins under the
//! same id (the standard membership-protocol rule that keeps a zombie
//! from splitting the room directory).
//!
//! All nondeterminism lives in the seeded [`FaultSpec`] of each link, so a
//! run's entire suspect/dead timeline is reproducible from its seeds.

use rcmo_netsim::{FaultSpec, HeartbeatLink, Link};

use super::directory::ShardId;

/// A shard's health as the failure detector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Heartbeats arriving on schedule.
    Alive,
    /// Beats overdue past the suspicion threshold: calls to it retry with
    /// backoff, but its rooms stay put (it may just be stalled).
    Suspect,
    /// Beats overdue past the death threshold (or the process is known
    /// crashed): failover may rebuild its rooms elsewhere. Sticky.
    Dead,
}

impl ShardHealth {
    /// Gauge encoding for metrics (0 alive, 1 suspect, 2 dead).
    pub fn as_gauge(self) -> i64 {
        match self {
            ShardHealth::Alive => 0,
            ShardHealth::Suspect => 1,
            ShardHealth::Dead => 2,
        }
    }

    /// Inverse of [`Self::as_gauge`]: the frontend's data plane reads
    /// health back from the published gauge.
    pub(super) fn from_gauge(v: i64) -> ShardHealth {
        match v {
            0 => ShardHealth::Alive,
            1 => ShardHealth::Suspect,
            _ => ShardHealth::Dead,
        }
    }
}

#[derive(Debug)]
struct ShardState {
    link: HeartbeatLink,
    /// Virtual time of the last beat that arrived.
    last_arrival: f64,
    /// The process stopped beating entirely (seeded kill).
    crashed: bool,
    /// Sticky death latch.
    declared_dead: bool,
}

/// The frontend's failure detector: one heartbeat stream per shard, a
/// shared virtual clock, and the suspect/dead thresholds.
#[derive(Debug)]
pub struct HealthTracker {
    shards: Vec<ShardState>,
    interval_s: f64,
    suspect_after: u32,
    dead_after: u32,
    now_s: f64,
}

impl HealthTracker {
    /// A tracker over `faults.len()` shards, each beating every
    /// `interval_s` virtual seconds over `link` under its own fault model.
    /// A shard is suspect after `suspect_after` missed intervals and dead
    /// after `dead_after`.
    pub fn new(
        link: Link,
        faults: Vec<FaultSpec>,
        interval_s: f64,
        suspect_after: u32,
        dead_after: u32,
    ) -> HealthTracker {
        assert!(
            suspect_after >= 1 && dead_after > suspect_after,
            "thresholds must satisfy 1 <= suspect_after < dead_after"
        );
        let shards = faults
            .into_iter()
            .map(|fault| ShardState {
                link: HeartbeatLink::new(link, fault, interval_s),
                last_arrival: 0.0,
                crashed: false,
                declared_dead: false,
            })
            .collect();
        HealthTracker {
            shards,
            interval_s,
            suspect_after,
            dead_after,
            now_s: 0.0,
        }
    }

    /// The virtual clock.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Number of shards tracked.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` if no shards are tracked.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Marks a shard's process as crashed (a seeded kill): it stops
    /// beating, so the clock advancing past `dead_after` intervals will
    /// declare it dead.
    pub fn crash(&mut self, shard: ShardId) {
        self.shards[shard].crashed = true;
    }

    /// Advances the virtual clock by `dt_s`, pumping every live shard's
    /// heartbeat stream and latching deaths. Returns shards that became
    /// dead during this advance.
    pub fn advance(&mut self, dt_s: f64) -> Vec<ShardId> {
        assert!(dt_s >= 0.0, "time only moves forward");
        self.now_s += dt_s;
        let now = self.now_s;
        let mut newly_dead = Vec::new();
        for (id, s) in self.shards.iter_mut().enumerate() {
            if !s.crashed {
                if let Some(&last) = s.link.beats_until(now).last() {
                    s.last_arrival = last;
                }
            }
            if !s.declared_dead
                && Self::classify_raw(s, now, self.interval_s, self.suspect_after, self.dead_after)
                    == ShardHealth::Dead
            {
                s.declared_dead = true;
                newly_dead.push(id);
            }
        }
        newly_dead
    }

    fn classify_raw(
        s: &ShardState,
        now: f64,
        interval_s: f64,
        suspect_after: u32,
        dead_after: u32,
    ) -> ShardHealth {
        if s.declared_dead {
            return ShardHealth::Dead;
        }
        let overdue = (now - s.last_arrival) / interval_s;
        if overdue >= dead_after as f64 {
            ShardHealth::Dead
        } else if overdue >= suspect_after as f64 {
            ShardHealth::Suspect
        } else {
            ShardHealth::Alive
        }
    }

    /// The health of `shard` at the current virtual time.
    pub fn health(&self, shard: ShardId) -> ShardHealth {
        let s = &self.shards[shard];
        Self::classify_raw(
            s,
            self.now_s,
            self.interval_s,
            self.suspect_after,
            self.dead_after,
        )
    }

    /// Shards not declared dead (alive or merely suspect).
    pub fn surviving_shards(&self) -> Vec<ShardId> {
        (0..self.shards.len())
            .filter(|&s| self.health(s) != ShardHealth::Dead)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan() -> Link {
        Link::new(10_000_000.0, 0.005)
    }

    #[test]
    fn clean_shards_stay_alive() {
        let mut t = HealthTracker::new(lan(), vec![FaultSpec::none(); 3], 0.5, 2, 4);
        assert!(t.advance(60.0).is_empty());
        for s in 0..3 {
            assert_eq!(t.health(s), ShardHealth::Alive);
        }
        assert_eq!(t.surviving_shards(), vec![0, 1, 2]);
    }

    #[test]
    fn crash_walks_alive_suspect_dead_and_sticks() {
        let mut t = HealthTracker::new(lan(), vec![FaultSpec::none(); 2], 0.5, 2, 4);
        t.advance(10.0);
        t.crash(1);
        // One interval overdue: still alive (the detector is patient).
        t.advance(0.6);
        assert_eq!(t.health(1), ShardHealth::Alive);
        // Past 2 intervals: suspect. Past 4: dead, reported exactly once.
        t.advance(0.6);
        assert_eq!(t.health(1), ShardHealth::Suspect);
        let dead = t.advance(1.0);
        assert_eq!(dead, vec![1]);
        assert_eq!(t.health(1), ShardHealth::Dead);
        assert!(t.advance(100.0).is_empty(), "death reported once");
        assert_eq!(t.health(0), ShardHealth::Alive);
        assert_eq!(t.surviving_shards(), vec![0]);
    }

    #[test]
    fn stall_window_suspects_then_recovers() {
        // Outage [5, 6.2): beats at 5, 5.5, 6 are lost — the shard goes
        // suspect — then beating resumes and it is alive again. The
        // window stays short of the death threshold, so no latch.
        let spec = FaultSpec::none().with_outage(5.0, 6.2);
        let mut t = HealthTracker::new(lan(), vec![spec, FaultSpec::none()], 0.5, 2, 4);
        t.advance(4.9);
        assert_eq!(t.health(0), ShardHealth::Alive);
        t.advance(1.4); // now 6.3: last arrival ~4.5, overdue > 2 intervals
        assert_eq!(t.health(0), ShardHealth::Suspect);
        t.advance(0.5); // beats at 6.5+ arrive again
        assert_eq!(t.health(0), ShardHealth::Alive);
    }

    #[test]
    fn timelines_are_seed_deterministic() {
        let run = |seed| {
            let mut t = HealthTracker::new(lan(), vec![FaultSpec::lossy(0.4, seed); 2], 0.5, 2, 4);
            let mut timeline = Vec::new();
            for _ in 0..100 {
                t.advance(0.25);
                timeline.push((t.health(0), t.health(1)));
            }
            timeline
        };
        assert_eq!(run(9), run(9));
    }
}

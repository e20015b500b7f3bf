//! The pre-generated op script. `--seed` fixes the whole script before any
//! timing starts, so two runs of one seed issue identical calls; the
//! generator keeps a small model of each room (freeze holder, live
//! annotation count, open image) so that every scripted op is valid when
//! it runs — the workloads contain no op that is expected to fail.

use crate::params::Params;
use crate::rng::{Fnv, SplitMix64};

/// Annotation elements a room keeps live on its open image. Overlays are
/// stored inline in `FLD_CM` and a save past ~300 elements fails with
/// `RecordTooLarge`; scripts pair adds with deletes to stay far below.
pub const MAX_LIVE_ELEMENTS: u32 = 64;

/// Primitive components in the record's CP-net chain (ids 1..=12; 0 is the
/// root) and forms per component (flat / icon / hidden).
pub const COMPONENTS: u32 = 12;
pub const FORMS: u32 = 3;

/// Private working images per room for open/save (alternated).
pub const WORK_IMAGES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    Choose,
    Unchoose,
    AddText,
    AddLine,
    DelElement,
    Chat,
    /// Mix entry only: generated as `Freeze` or `Release`.
    FreezeToggle,
    Freeze,
    Release,
    FetchHot,
    FetchCold,
    Report,
    Render,
    OpLocal,
    /// Always followed by a `SaveDoc`.
    OpGlobal,
    SaveDoc,
    /// `leave` then `join` of the same user.
    LeaveJoin,
    /// `save_and_close_image` of the open image, then `open_image(a)`.
    SaveOpen,
    Insert,
    /// Close the room and re-create it from the pristine record.
    Recycle,
    /// Housekeeping: `advance(0.5)` + `maintain_replicas()`.
    Tick,
    /// A slow consumer's periodic drain + `resync`.
    SlowResync,
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    /// Index into the driver's own rooms.
    pub room: u8,
    /// Index into the room's members.
    pub member: u16,
    /// Kind-specific argument (component/form, image index, variant).
    pub a: u32,
}

struct RoomModel {
    frozen_by: Option<u16>,
    live: u32,
    open: u32,
    age: u32,
}

/// Index of a room's `k`-th private working image in the image catalog.
pub fn work_image(p: &Params, global_room: usize, k: usize) -> u32 {
    (p.images + global_room * WORK_IMAGES + k) as u32
}

/// The image a room has open when the script starts.
pub fn initial_open(p: &Params, global_room: usize) -> u32 {
    if p.private_work_images {
        work_image(p, global_room, 0)
    } else {
        0
    }
}

/// Generates driver `driver`'s script of `len` ops.
pub fn generate(p: &Params, driver: usize, seed: &SplitMix64, len: usize) -> Vec<Op> {
    let mut rng = seed.fork(0x5C21_0000 + driver as u64);
    let mix = p.mixes[driver].0;
    let total: u32 = mix.iter().map(|&(_, w)| w).sum();
    let rooms = p.rooms_per_driver;
    assert!(rooms <= 256, "Op::room is a u8");
    let mut models: Vec<RoomModel> = (0..rooms)
        .map(|r| RoomModel {
            frozen_by: None,
            live: 0,
            open: initial_open(p, driver * rooms + r),
            // Staggered so recycles spread evenly over the run.
            age: (r as u32 * p.recycle_every) / rooms as u32,
        })
        .collect();
    let mut ops = Vec::with_capacity(len + 8);
    let mut acts: u32 = 0;
    while ops.len() < len {
        if p.tick_every > 0 && ops.len() as u32 % p.tick_every == p.tick_every - 1 {
            ops.push(Op {
                kind: Kind::Tick,
                room: 0,
                member: 0,
                a: 0,
            });
            continue;
        }
        let mut room = rng.below(rooms as u32) as u8;
        let mut pick = rng.below(total);
        let mut kind = mix[0].0;
        for &(k, w) in mix {
            if pick < w {
                kind = k;
                break;
            }
            pick -= w;
        }
        // Checkpoint-barrier ops go to the next room that is not a plain one.
        if matches!(kind, Kind::SaveOpen | Kind::OpGlobal) && is_plain(p, room as usize) {
            room = ((room as usize + 1) % rooms) as u8;
        }
        let global_room = driver * rooms + room as usize;
        let m = &mut models[room as usize];
        if p.recycle_every > 0 && m.age >= p.recycle_every {
            *m = RoomModel {
                frozen_by: None,
                live: 0,
                open: initial_open(p, global_room),
                age: 0,
            };
            ops.push(Op {
                kind: Kind::Recycle,
                room,
                member: 0,
                a: 0,
            });
            continue;
        }
        m.age += 1;
        // In the lecture the presenter (member 0) drives the room and the
        // viewers only fetch, report and churn.
        let any_member = rng.below(p.members as u32) as u16;
        let viewer = if p.members > 1 {
            1 + rng.below(p.members as u32 - 1) as u16
        } else {
            0
        };
        let actor = if p.presenter_led { 0 } else { any_member };
        let reader = if p.presenter_led { viewer } else { any_member };
        let mut member = actor;
        let mut a = 0u32;
        match kind {
            Kind::AddText | Kind::AddLine | Kind::DelElement => {
                if let Some(holder) = m.frozen_by {
                    member = holder;
                }
                if kind != Kind::DelElement && m.live >= MAX_LIVE_ELEMENTS {
                    kind = Kind::DelElement;
                } else if kind == Kind::DelElement && m.live == 0 {
                    kind = Kind::AddLine;
                }
                if kind == Kind::DelElement {
                    m.live -= 1;
                } else {
                    m.live += 1;
                }
                a = rng.below(1 << 16);
            }
            Kind::FreezeToggle => match m.frozen_by.take() {
                Some(holder) => {
                    kind = Kind::Release;
                    member = holder;
                }
                None => {
                    kind = Kind::Freeze;
                    m.frozen_by = Some(member);
                }
            },
            Kind::Choose | Kind::OpLocal | Kind::OpGlobal => {
                a = (1 + rng.below(COMPONENTS)) << 8 | rng.below(FORMS);
                if kind == Kind::OpLocal {
                    member = reader;
                }
            }
            Kind::Unchoose => a = (1 + rng.below(COMPONENTS)) << 8,
            Kind::Chat => a = rng.below(8),
            Kind::FetchHot => {
                member = reader;
                a = rng.below(p.hot_set as u32);
            }
            Kind::FetchCold => {
                member = reader;
                a = rng.below(p.images as u32);
            }
            Kind::Render => {
                member = reader;
                // Where the catalog outgrows the hot set, renders are cold.
                a = rng.below(p.images.max(p.hot_set) as u32);
            }
            Kind::Report => member = reader,
            Kind::LeaveJoin => {
                member = reader;
                if m.frozen_by == Some(member) {
                    member = (member + 1) % p.members as u16;
                }
            }
            Kind::SaveOpen => {
                if let Some(holder) = m.frozen_by.take() {
                    ops.push(Op {
                        kind: Kind::Release,
                        room,
                        member: holder,
                        a: 0,
                    });
                }
                a = if p.private_work_images {
                    let other = usize::from(m.open == work_image(p, global_room, 0));
                    work_image(p, global_room, other)
                } else {
                    let mut next = rng.below(p.hot_set as u32);
                    if next == m.open {
                        next = (next + 1) % p.hot_set as u32;
                    }
                    next
                };
                m.open = a;
                m.live = 0;
            }
            Kind::Insert => a = rng.below(p.distinct_images as u32),
            Kind::SaveDoc => {}
            Kind::Freeze | Kind::Release | Kind::Recycle | Kind::Tick | Kind::SlowResync => {
                unreachable!("not a mix entry")
            }
        }
        ops.push(Op {
            kind,
            room,
            member,
            a,
        });
        if kind == Kind::OpGlobal {
            ops.push(Op {
                kind: Kind::SaveDoc,
                room,
                member,
                a: 0,
            });
        }
        // Each slow consumer drains and resyncs once per `slow_period`
        // room events, staggered one event apart.
        if p.slow_members > 0 && is_act(kind) {
            acts += 1;
            let due = acts % p.slow_period;
            if (due as usize) < p.slow_members {
                ops.push(Op {
                    kind: Kind::SlowResync,
                    room,
                    member: (p.members + due as usize) as u16,
                    a: 0,
                });
            }
        }
    }
    ops
}

/// Whether a driver's `room` is one of the barrier-free plain rooms.
pub fn is_plain(p: &Params, room: usize) -> bool {
    p.plain_rooms > 0 && p.rooms_per_driver > 1 && room % p.plain_rooms == 1
}

/// A mix of ops that neither read nor change the room model can be
/// replayed from its start when it runs out, so its script stays short.
pub fn wraps(mix: crate::params::Mix) -> bool {
    mix.iter().all(|&(k, _)| {
        matches!(
            k,
            Kind::FetchHot | Kind::FetchCold | Kind::Render | Kind::Report
        )
    })
}

/// Ops that are one `act()` call.
pub fn is_act(kind: Kind) -> bool {
    matches!(
        kind,
        Kind::Choose
            | Kind::Unchoose
            | Kind::AddText
            | Kind::AddLine
            | Kind::DelElement
            | Kind::Chat
            | Kind::Freeze
            | Kind::Release
            | Kind::OpLocal
            | Kind::OpGlobal
    )
}

/// Hash of a set of scripts: identical for identical seed and length.
pub fn hash(scripts: &[Vec<Op>]) -> u64 {
    let mut h = Fnv::new();
    for s in scripts {
        for op in s {
            h.write(&[op.kind as u8]);
            h.write(&[op.room]);
            h.write(&op.member.to_le_bytes());
            h.write(&op.a.to_le_bytes());
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Workload;

    #[test]
    fn same_seed_same_script_and_live_elements_stay_bounded() {
        for w in Workload::ALL {
            let p = Params::smoke(w);
            let seed = SplitMix64::new(7);
            let a = generate(&p, 0, &seed, 20_000);
            let b = generate(&p, 0, &seed, 20_000);
            assert_eq!(hash(std::slice::from_ref(&a)), hash(&[b]));
            let c = generate(&p, 0, &SplitMix64::new(8), 20_000);
            assert_ne!(hash(std::slice::from_ref(&a)), hash(&[c]));
            let mut live = vec![0i64; p.rooms_per_driver];
            for op in &a {
                let l = &mut live[op.room as usize];
                match op.kind {
                    Kind::AddText | Kind::AddLine => *l += 1,
                    Kind::DelElement => *l -= 1,
                    Kind::SaveOpen | Kind::Recycle => *l = 0,
                    _ => {}
                }
                assert!((0..=i64::from(MAX_LIVE_ELEMENTS)).contains(l), "{w:?}");
            }
        }
    }
}

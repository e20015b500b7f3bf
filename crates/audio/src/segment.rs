//! Automatic audio segmentation: distinguishing "signal and background
//! noise and among the various types of signals present" (speech, music,
//! artifacts) — the first capability the paper's audio browsing lists.
//!
//! A GMM per [`AudioClass`] is trained on synthetic material; classification
//! is per-frame maximum likelihood followed by median smoothing and merging
//! of consecutive frames into labelled [`Segment`]s.

use crate::features::{extract_features, FeatureConfig};
use crate::gmm::DiagGmm;
use crate::synth::{self, SynthConfig, VoiceProfile};
use rcmo_obs::wire::{Reader, Writer};
use std::ops::Range;

/// The classes the segmenter distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AudioClass {
    /// Near-silence / channel hum.
    Silence,
    /// Broadband background noise (artifacts).
    Noise,
    /// Human speech.
    Speech,
    /// Music.
    Music,
}

impl AudioClass {
    /// All classes, in a fixed order.
    pub const ALL: [AudioClass; 4] = [
        AudioClass::Silence,
        AudioClass::Noise,
        AudioClass::Speech,
        AudioClass::Music,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AudioClass::Silence => "silence",
            AudioClass::Noise => "noise",
            AudioClass::Speech => "speech",
            AudioClass::Music => "music",
        }
    }
}

/// A labelled span of frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Frame range (see [`FeatureConfig`] for the frame→sample mapping).
    pub frames: Range<usize>,
    /// The class assigned.
    pub class: AudioClass,
}

/// The trained segmenter: one GMM per class.
#[derive(Debug, Clone)]
pub struct SegmenterModel {
    models: Vec<(AudioClass, DiagGmm)>,
    features: FeatureConfig,
}

impl SegmenterModel {
    /// Trains on caller-provided material per class.
    pub fn train(
        material: &[(AudioClass, Vec<f64>)],
        features: FeatureConfig,
        components: usize,
        seed: u64,
    ) -> SegmenterModel {
        let mut models = Vec::new();
        for class in AudioClass::ALL {
            let mut frames = Vec::new();
            for (c, samples) in material {
                if *c == class {
                    frames.extend(extract_features(samples, &features));
                }
            }
            assert!(
                !frames.is_empty(),
                "no training material for class {}",
                class.name()
            );
            models.push((class, DiagGmm::train(&frames, components, 12, seed)));
        }
        SegmenterModel { models, features }
    }

    /// Trains on built-in synthetic material (several voices, a music bed,
    /// two noise levels).
    pub fn train_default(seed: u64) -> SegmenterModel {
        let cfg = SynthConfig {
            seed,
            ..SynthConfig::default()
        };
        let mut material: Vec<(AudioClass, Vec<f64>)> = Vec::new();
        for (i, voice) in [
            VoiceProfile::male("m"),
            VoiceProfile::female("f"),
            VoiceProfile::child("c"),
        ]
        .iter()
        .enumerate()
        {
            let sub = SynthConfig {
                seed: cfg.seed + i as u64 * 101,
                ..cfg
            };
            material.push((AudioClass::Speech, synth::babble(voice, 2.0, &sub)));
        }
        material.push((AudioClass::Music, synth::music(4.0, &cfg)));
        material.push((AudioClass::Noise, synth::noise(2.0, 0.12, &cfg)));
        material.push((
            AudioClass::Noise,
            synth::noise(
                2.0,
                0.05,
                &SynthConfig {
                    seed: cfg.seed + 5,
                    ..cfg
                },
            ),
        ));
        material.push((AudioClass::Silence, synth::silence(2.0, &cfg)));
        SegmenterModel::train(&material, FeatureConfig::default(), 3, seed)
    }

    /// The feature configuration the model was trained with.
    pub fn features(&self) -> &FeatureConfig {
        &self.features
    }

    /// Per-frame maximum-likelihood classification.
    pub fn classify_frames(&self, samples: &[f64]) -> Vec<AudioClass> {
        extract_features(samples, &self.features)
            .iter()
            .map(|frame| {
                self.models
                    .iter()
                    .max_by(|a, b| {
                        a.1.log_likelihood(frame)
                            .partial_cmp(&b.1.log_likelihood(frame))
                            .unwrap()
                    })
                    .expect("at least one class")
                    .0
            })
            .collect()
    }
}

/// Median-smooths a label sequence with the given half-window.
pub fn median_smooth(labels: &[AudioClass], half_window: usize) -> Vec<AudioClass> {
    if labels.is_empty() {
        return Vec::new();
    }
    (0..labels.len())
        .map(|i| {
            let lo = i.saturating_sub(half_window);
            let hi = (i + half_window + 1).min(labels.len());
            let mut counts = std::collections::BTreeMap::new();
            for &l in &labels[lo..hi] {
                *counts.entry(l).or_insert(0usize) += 1;
            }
            *counts
                .iter()
                .max_by_key(|(_, &c)| c)
                .expect("window nonempty")
                .0
        })
        .collect()
}

/// Merges consecutive identical labels into segments.
pub fn merge_segments(labels: &[AudioClass]) -> Vec<Segment> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..=labels.len() {
        if i == labels.len() || labels[i] != labels[start] {
            out.push(Segment {
                frames: start..i,
                class: labels[start],
            });
            start = i;
        }
    }
    out
}

/// Full pipeline: classify, smooth, merge.
pub fn segment_audio(model: &SegmenterModel, samples: &[f64]) -> Vec<Segment> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("audio.segment.us", rcmo_obs::bounds::LATENCY_US);
    let _t = LAT.start_timer();
    let labels = model.classify_frames(samples);
    let smoothed = median_smooth(&labels, 5);
    merge_segments(&smoothed)
}

/// Serialises segments for storage in an audio object's `FLD_SECTORS`
/// BLOB: `u32 count | per segment: u32 start, u32 end, u8 class`.
pub fn encode_segments(segments: &[Segment]) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + segments.len() * 9);
    w.u32(segments.len() as u32);
    for s in segments {
        w.u32(s.frames.start as u32);
        w.u32(s.frames.end as u32);
        w.u8(match s.class {
            AudioClass::Silence => 0,
            AudioClass::Noise => 1,
            AudioClass::Speech => 2,
            AudioClass::Music => 3,
        });
    }
    w.into_bytes()
}

/// Reverses [`encode_segments`]. Returns `None` on malformed input.
pub fn decode_segments(bytes: &[u8]) -> Option<Vec<Segment>> {
    let mut r = Reader::new(bytes);
    let count = r.count32(9).ok()?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let start = r.u32().ok()? as usize;
        let end = r.u32().ok()? as usize;
        let class = match r.u8().ok()? {
            0 => AudioClass::Silence,
            1 => AudioClass::Noise,
            2 => AudioClass::Speech,
            3 => AudioClass::Music,
            _ => return None,
        };
        if end < start {
            return None;
        }
        out.push(Segment {
            frames: start..end,
            class,
        });
    }
    r.finish().ok()?;
    Some(out)
}

/// Fraction of frames whose label matches a ground-truth labelling function.
pub fn frame_accuracy(
    model: &SegmenterModel,
    samples: &[f64],
    truth: impl Fn(usize) -> AudioClass,
) -> f64 {
    let labels = median_smooth(&model.classify_frames(samples), 5);
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(f, &l)| l == truth(model.features.frame_center(*f)))
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::LabeledAudio;

    fn model() -> SegmenterModel {
        SegmenterModel::train_default(7)
    }

    fn labelled_track(seed: u64) -> LabeledAudio {
        let cfg = SynthConfig {
            seed,
            ..SynthConfig::default()
        };
        let mut track = LabeledAudio::default();
        track.push("silence", synth::silence(0.8, &cfg));
        track.push(
            "speech",
            synth::babble(
                &VoiceProfile::female("f2"),
                1.2,
                &SynthConfig {
                    seed: seed + 1,
                    ..cfg
                },
            ),
        );
        track.push(
            "music",
            synth::music(
                1.2,
                &SynthConfig {
                    seed: seed + 2,
                    ..cfg
                },
            ),
        );
        track.push(
            "noise",
            synth::noise(
                0.8,
                0.1,
                &SynthConfig {
                    seed: seed + 3,
                    ..cfg
                },
            ),
        );
        track
    }

    fn class_of(label: &str) -> AudioClass {
        match label {
            "silence" => AudioClass::Silence,
            "noise" => AudioClass::Noise,
            "speech" => AudioClass::Speech,
            "music" => AudioClass::Music,
            other => panic!("unknown label {other}"),
        }
    }

    #[test]
    fn segmentation_recovers_ground_truth() {
        let model = model();
        let track = labelled_track(99);
        let acc = frame_accuracy(&model, &track.samples, |sample| {
            class_of(track.label_at(sample.min(track.len() - 1)).unwrap())
        });
        assert!(acc > 0.8, "frame accuracy {acc:.3}");
    }

    #[test]
    fn segments_cover_all_frames_in_order() {
        let model = model();
        let track = labelled_track(5);
        let segs = segment_audio(&model, &track.samples);
        assert!(!segs.is_empty());
        assert_eq!(segs[0].frames.start, 0);
        for w in segs.windows(2) {
            assert_eq!(w[0].frames.end, w[1].frames.start);
            assert_ne!(w[0].class, w[1].class);
        }
        let total = segs.last().unwrap().frames.end;
        assert_eq!(
            total,
            model.features().num_frames(track.len()),
            "segments span every frame"
        );
    }

    #[test]
    fn detects_the_four_classes() {
        let model = model();
        let track = labelled_track(123);
        let segs = segment_audio(&model, &track.samples);
        let found: std::collections::BTreeSet<AudioClass> = segs.iter().map(|s| s.class).collect();
        assert!(found.contains(&AudioClass::Speech), "{segs:?}");
        assert!(found.contains(&AudioClass::Music), "{segs:?}");
    }

    #[test]
    fn median_smoothing_removes_glitches() {
        use AudioClass::*;
        let labels = vec![
            Speech, Speech, Music, Speech, Speech, Speech, Speech, Noise, Speech, Speech,
        ];
        let smoothed = median_smooth(&labels, 2);
        assert!(smoothed.iter().all(|&l| l == Speech), "{smoothed:?}");
        assert!(median_smooth(&[], 3).is_empty());
    }

    #[test]
    fn segment_codec_roundtrip() {
        use AudioClass::*;
        let segs = vec![
            Segment {
                frames: 0..10,
                class: Silence,
            },
            Segment {
                frames: 10..55,
                class: Speech,
            },
            Segment {
                frames: 55..60,
                class: Music,
            },
        ];
        let bytes = encode_segments(&segs);
        assert_eq!(decode_segments(&bytes).unwrap(), segs);
        assert!(decode_segments(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_segments(&[1, 2]).is_none());
        let mut bad = bytes.clone();
        bad[4 + 8] = 9; // unknown class tag
        assert!(decode_segments(&bad).is_none());
        assert_eq!(decode_segments(&encode_segments(&[])).unwrap(), vec![]);
    }

    #[test]
    fn merge_segments_basics() {
        use AudioClass::*;
        let segs = merge_segments(&[Speech, Speech, Music, Music, Music, Silence]);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].frames, 0..2);
        assert_eq!(segs[1].frames, 2..5);
        assert_eq!(segs[2].class, Silence);
        assert!(merge_segments(&[]).is_empty());
    }
}

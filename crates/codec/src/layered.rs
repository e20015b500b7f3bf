//! The multi-layered progressive codec (main approximation + residual
//! layers in different bases). See the [crate docs](crate) for the scheme.
//!
//! Stream layout (little-endian):
//!
//! ```text
//! magic "LIC1" | u16 width | u16 height | u8 wavelet | u8 levels | u8 nlayers
//! per layer: u8 basis | f64 step (as u64 bits) | u32 byte_len | payload
//! ```
//!
//! Layer 0 is always the main wavelet approximation. Each layer's payload is
//! self-delimited by its length, so decoding a byte *prefix* of the stream
//! reconstructs from however many complete layers the prefix covers.

use crate::bits::{decode_coeffs, encode_coeffs, BitReader, BitWriter};
use crate::dct;
use crate::haar;
use crate::packet;
use crate::plane::Plane;
use crate::quant::{dequantize, quantize};
use rcmo_imaging::GrayImage;
use rcmo_obs::wire::{Reader, WireError, Writer};
use std::fmt;

/// Errors raised by the layered codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream header or a section failed to parse.
    Malformed(String),
    /// The prefix does not even cover the header plus the main layer.
    Truncated,
    /// Invalid encoder configuration.
    BadConfig(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed(m) => write!(f, "malformed stream: {m}"),
            CodecError::Truncated => write!(f, "stream shorter than the main layer"),
            CodecError::BadConfig(m) => write!(f, "bad encoder config: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Malformed(e.to_string())
    }
}

/// Which wavelet filters the main approximation.
pub type Wavelet = haar::Kind;

/// Basis of a residual layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Wavelet-packet best basis on 32×32 tiles.
    WaveletPacket,
    /// Block local cosine (8×8 DCT-II, zigzag).
    LocalCosine,
}

impl Basis {
    fn tag(self) -> u8 {
        match self {
            Basis::WaveletPacket => 1,
            Basis::LocalCosine => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Basis> {
        Some(match tag {
            1 => Basis::WaveletPacket,
            2 => Basis::LocalCosine,
            _ => return None,
        })
    }
}

/// One residual layer's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// The coding basis.
    pub basis: Basis,
    /// Dead-zone quantiser step (smaller = higher fidelity, more bytes).
    pub step: f64,
}

/// Encoder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Main-layer wavelet.
    pub wavelet: Wavelet,
    /// Wavelet decomposition depth (also the number of resolutions served).
    pub levels: usize,
    /// Main-layer quantiser step.
    pub main_step: f64,
    /// Residual layers, coarsest first.
    pub residual_layers: Vec<LayerSpec>,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            wavelet: Wavelet::Haar,
            levels: 4,
            main_step: 24.0,
            residual_layers: vec![
                LayerSpec {
                    basis: Basis::WaveletPacket,
                    step: 8.0,
                },
                LayerSpec {
                    basis: Basis::LocalCosine,
                    step: 3.0,
                },
            ],
        }
    }
}

/// Parsed stream metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// Original image width.
    pub width: usize,
    /// Original image height.
    pub height: usize,
    /// Wavelet of the main layer.
    pub wavelet: Wavelet,
    /// Decomposition depth.
    pub levels: usize,
    /// Byte length of each layer section (header excluded).
    pub layer_bytes: Vec<usize>,
    /// Offset where the first layer section starts.
    pub header_bytes: usize,
}

impl StreamInfo {
    /// Number of layer sections whose headers are present in the stream
    /// (for a complete stream, the `nlayers` of the file header).
    pub fn num_layers(&self) -> usize {
        self.layer_bytes.len()
    }

    /// Bytes needed to decode layers `0..=k` (`k` is a layer *index*, so
    /// `prefix_for_layers(0)` covers the stream header plus the base
    /// layer).
    ///
    /// Out-of-range contract: for `k >= num_layers()` the result
    /// **saturates** at the full stream length — every known section is
    /// counted, never more. The old implementation had the same numeric
    /// behaviour but silently, so callers probing "one more layer" could
    /// not tell a real deeper prefix from the clamp; the saturation is now
    /// part of the documented contract, and [`Self::prefix_for_layer_count`]
    /// offers the count-based form whose `0` case is the bare header.
    pub fn prefix_for_layers(&self, k: usize) -> usize {
        self.prefix_for_layer_count(k.saturating_add(1))
    }

    /// Bytes needed to decode the first `n` layers. Unlike the index-based
    /// [`Self::prefix_for_layers`], `n` is a *count*: `n == 0` returns the
    /// header-only size (`header_bytes` — a prefix that parses but renders
    /// nothing), and `n >= num_layers()` saturates at the full stream
    /// length.
    pub fn prefix_for_layer_count(&self, n: usize) -> usize {
        let sections: usize = self
            .layer_bytes
            .iter()
            .take(n)
            .map(|b| b + LAYER_HEADER)
            .sum();
        self.header_bytes + sections
    }

    /// The byte ladder of this stream: element `i` is the prefix length
    /// that decodes `i + 1` layers (`ladder.len() == num_layers()`, and the
    /// last rung is the full stream length). This is the real per-object
    /// size table adaptive delivery chooses depths from — the replacement
    /// for the old fixed-fraction degradation guess.
    pub fn layer_prefixes(&self) -> Vec<u64> {
        (1..=self.num_layers())
            .map(|n| self.prefix_for_layer_count(n) as u64)
            .collect()
    }
}

/// The parsed LIC1 stream header. The adaptive-delivery tier and the
/// netsim degradation path talk about the codec header under this name;
/// it is the same type as [`StreamInfo`].
pub type LayeredHeader = StreamInfo;

const MAGIC: &[u8; 4] = b"LIC1";
const LAYER_HEADER: usize = 1 + 8 + 4;
/// Deepest wavelet decomposition the encoder writes and the decoder reads.
const MAX_LEVELS: usize = 8;
/// Largest image, in pixels, the encoder writes and the decoder reads:
/// 4096², sixty-four 512² CT slices. A header is checked against it before
/// any buffer is sized, so a few bytes declaring 65 535 × 65 535 are an
/// error, not a 17 GB allocation.
pub const MAX_PIXELS: usize = 1 << 24;

fn padded_dims(w: usize, h: usize, levels: usize) -> (usize, usize) {
    let unit = (1usize << levels).max(packet::TILE).max(dct::N);
    (w.div_ceil(unit) * unit, h.div_ceil(unit) * unit)
}

fn encode_main(plane: &Plane, cfg: &EncoderConfig) -> (Vec<u8>, Plane) {
    let mut t = plane.clone();
    haar::forward(&mut t, cfg.levels, cfg.wavelet);
    let syms = quantize(t.data(), cfg.main_step);
    let mut w = BitWriter::new();
    encode_coeffs(&mut w, &syms);
    // Local reconstruction for the residual chain.
    let deq = dequantize(&syms, cfg.main_step);
    let mut recon = Plane::from_data(t.width(), t.height(), deq);
    haar::inverse(&mut recon, cfg.levels, cfg.wavelet);
    (w.finish(), recon)
}

fn encode_residual(residual: &Plane, spec: &LayerSpec) -> (Vec<u8>, Plane) {
    let (w, h) = (residual.width(), residual.height());
    let mut bw = BitWriter::new();
    let mut recon = Plane::new(w, h);
    match spec.basis {
        Basis::WaveletPacket => {
            for by in (0..h).step_by(packet::TILE) {
                for bx in (0..w).step_by(packet::TILE) {
                    let block = residual.block(bx, by, packet::TILE);
                    packet::encode_tile(&mut bw, block, packet::TILE, spec.step);
                }
            }
            // Decode locally (cheap: re-run the decoder on the bytes).
            let bytes = bw.finish();
            let mut br = BitReader::new(&bytes);
            for by in (0..h).step_by(packet::TILE) {
                for bx in (0..w).step_by(packet::TILE) {
                    let block = packet::decode_tile(&mut br, packet::TILE, spec.step)
                        .expect("just encoded");
                    recon.set_block(bx, by, packet::TILE, &block);
                }
            }
            (bytes, recon)
        }
        Basis::LocalCosine => {
            let mut zz_all: Vec<f64> = Vec::with_capacity(w * h);
            for by in (0..h).step_by(dct::N) {
                for bx in (0..w).step_by(dct::N) {
                    let block = residual.block(bx, by, dct::N);
                    zz_all.extend(dct::to_zigzag(&dct::forward(&block)));
                }
            }
            let syms = quantize(&zz_all, spec.step);
            encode_coeffs(&mut bw, &syms);
            let deq = dequantize(&syms, spec.step);
            let mut i = 0;
            for by in (0..h).step_by(dct::N) {
                for bx in (0..w).step_by(dct::N) {
                    let block = dct::inverse(&dct::from_zigzag(&deq[i..i + dct::N * dct::N]));
                    recon.set_block(bx, by, dct::N, &block);
                    i += dct::N * dct::N;
                }
            }
            (bw.finish(), recon)
        }
    }
}

/// Encodes an image into a progressive layered stream.
pub fn encode(img: &GrayImage, cfg: &EncoderConfig) -> Result<Vec<u8>, CodecError> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("codec.encode.us", rcmo_obs::bounds::LATENCY_US);
    let _t = LAT.start_timer();
    if cfg.levels == 0 || cfg.levels > MAX_LEVELS {
        return Err(CodecError::BadConfig(format!("levels = {}", cfg.levels)));
    }
    if cfg.main_step <= 0.0 || cfg.residual_layers.iter().any(|l| l.step <= 0.0) {
        return Err(CodecError::BadConfig(
            "quantiser steps must be positive".into(),
        ));
    }
    if img.width() > u16::MAX as usize
        || img.height() > u16::MAX as usize
        || img.width() * img.height() > MAX_PIXELS
    {
        return Err(CodecError::BadConfig(format!(
            "image too large: {}x{}",
            img.width(),
            img.height()
        )));
    }
    let (pw, ph) = padded_dims(img.width(), img.height(), cfg.levels);
    let padded = Plane::from_image(img).pad_to(pw, ph);

    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(img.width() as u16);
    w.u16(img.height() as u16);
    w.u8(match cfg.wavelet {
        Wavelet::Haar => 0,
        Wavelet::Cdf53 => 1,
    });
    w.u8(cfg.levels as u8);
    w.u8((1 + cfg.residual_layers.len()) as u8);

    let (main_bytes, mut recon) = encode_main(&padded, cfg);
    write_section(&mut w, 0, cfg.main_step, &main_bytes);

    for spec in &cfg.residual_layers {
        let residual = padded.sub(&recon);
        let (bytes, layer_recon) = encode_residual(&residual, spec);
        recon.add_assign(&layer_recon);
        write_section(&mut w, spec.basis.tag(), spec.step, &bytes);
    }
    Ok(w.into_bytes())
}

fn write_section(w: &mut Writer, tag: u8, step: f64, payload: &[u8]) {
    w.u8(tag);
    w.f64(step);
    w.bytes32(payload);
}

/// Parses the stream header and section table (tolerates truncation past the
/// header: `layer_bytes` only lists sections whose *headers* are present).
pub fn info(bytes: &[u8]) -> Result<StreamInfo, CodecError> {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC)?;
    let width = r.u16()? as usize;
    let height = r.u16()? as usize;
    let wavelet = match r.u8()? {
        0 => Wavelet::Haar,
        1 => Wavelet::Cdf53,
        t => return Err(CodecError::Malformed(format!("wavelet tag {t}"))),
    };
    let levels = r.u8()? as usize;
    let nlayers = r.u8()?;
    if width == 0
        || height == 0
        || width * height > MAX_PIXELS
        || nlayers == 0
        || !(1..=MAX_LEVELS).contains(&levels)
    {
        return Err(CodecError::Malformed(format!(
            "header: {width}x{height}, {levels} levels, {nlayers} layers"
        )));
    }
    let mut layer_bytes = Vec::new();
    for _ in 0..nlayers {
        if r.remaining() < LAYER_HEADER {
            break;
        }
        r.take(1 + 8)?; // basis tag and step, read by `sections`
        let len = r.u32()? as usize;
        layer_bytes.push(len);
        if r.take(len).is_err() {
            break;
        }
    }
    Ok(StreamInfo {
        width,
        height,
        wavelet,
        levels,
        layer_bytes,
        header_bytes: 11,
    })
}

struct LayerSection<'a> {
    tag: u8,
    step: f64,
    payload: &'a [u8],
}

/// Collects the layer sections fully contained in `bytes`.
fn sections<'a>(bytes: &'a [u8], si: &StreamInfo) -> Vec<LayerSection<'a>> {
    let mut r = Reader::new(bytes.get(si.header_bytes..).unwrap_or_default());
    let mut section = || -> Result<LayerSection<'a>, WireError> {
        Ok(LayerSection {
            tag: r.u8()?,
            step: r.f64()?,
            payload: r.bytes32()?,
        })
    };
    (0..si.num_layers()).map_while(|_| section().ok()).collect()
}

fn decode_main_plane(si: &StreamInfo, section: &LayerSection<'_>) -> Result<Plane, CodecError> {
    let (pw, ph) = padded_dims(si.width, si.height, si.levels);
    let mut r = BitReader::new(section.payload);
    let syms = decode_coeffs(&mut r, pw * ph)
        .map_err(|_| CodecError::Malformed("main layer ran out of bits".into()))?;
    if section.step <= 0.0 || !section.step.is_finite() {
        return Err(CodecError::Malformed("non-positive quantiser step".into()));
    }
    Ok(Plane::from_data(pw, ph, dequantize(&syms, section.step)))
}

fn decode_residual_plane(si: &StreamInfo, section: &LayerSection<'_>) -> Result<Plane, CodecError> {
    let (pw, ph) = padded_dims(si.width, si.height, si.levels);
    if section.step <= 0.0 || !section.step.is_finite() {
        return Err(CodecError::Malformed("non-positive quantiser step".into()));
    }
    let basis = Basis::from_tag(section.tag)
        .ok_or_else(|| CodecError::Malformed(format!("basis tag {}", section.tag)))?;
    let mut plane = Plane::new(pw, ph);
    match basis {
        Basis::WaveletPacket => {
            let mut r = BitReader::new(section.payload);
            for by in (0..ph).step_by(packet::TILE) {
                for bx in (0..pw).step_by(packet::TILE) {
                    let block = packet::decode_tile(&mut r, packet::TILE, section.step)
                        .map_err(|_| CodecError::Malformed("packet tile truncated".into()))?;
                    plane.set_block(bx, by, packet::TILE, &block);
                }
            }
        }
        Basis::LocalCosine => {
            let mut r = BitReader::new(section.payload);
            let n = pw * ph;
            let syms = decode_coeffs(&mut r, n)
                .map_err(|_| CodecError::Malformed("cosine layer truncated".into()))?;
            let deq = dequantize(&syms, section.step);
            let mut i = 0;
            for by in (0..ph).step_by(dct::N) {
                for bx in (0..pw).step_by(dct::N) {
                    let block = dct::inverse(&dct::from_zigzag(&deq[i..i + dct::N * dct::N]));
                    plane.set_block(bx, by, dct::N, &block);
                    i += dct::N * dct::N;
                }
            }
        }
    }
    Ok(plane)
}

/// Decodes as many complete layers as `bytes` contains; returns the image
/// and the number of layers used. Needs at least the main layer.
pub fn decode_prefix(bytes: &[u8]) -> Result<(GrayImage, usize), CodecError> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("codec.decode.us", rcmo_obs::bounds::LATENCY_US);
    static LAYERS: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("codec.decode.layers", rcmo_obs::bounds::SMALL_COUNT);
    let _t = LAT.start_timer();
    let si = info(bytes)?;
    let secs = sections(bytes, &si);
    if secs.is_empty() {
        return Err(CodecError::Truncated);
    }
    let mut coeffs = decode_main_plane(&si, &secs[0])?;
    haar::inverse(&mut coeffs, si.levels, si.wavelet);
    let mut recon = coeffs;
    for section in &secs[1..] {
        let layer = decode_residual_plane(&si, section)?;
        recon.add_assign(&layer);
    }
    LAYERS.record(secs.len() as u64);
    Ok((recon.crop(si.width, si.height).to_image(), secs.len()))
}

/// Encodes towards a byte budget: binary-searches a global quality scale
/// (the main-layer quantiser step, with residual steps scaled
/// proportionally) so the stream is as fine as possible without exceeding
/// `budget_bytes`. Returns the stream and the configuration that produced
/// it. Fails if even the coarsest quality (step 2048) exceeds the budget.
///
/// This is the "various degrees of resolution" service of the paper's
/// compression-transfer module: one call per target link speed.
pub fn encode_to_budget(
    img: &GrayImage,
    template: &EncoderConfig,
    budget_bytes: usize,
) -> Result<(Vec<u8>, EncoderConfig), CodecError> {
    let scaled = |main_step: f64| -> EncoderConfig {
        let ratio = main_step / template.main_step;
        EncoderConfig {
            wavelet: template.wavelet,
            levels: template.levels,
            main_step,
            residual_layers: template
                .residual_layers
                .iter()
                .map(|l| LayerSpec {
                    basis: l.basis,
                    step: l.step * ratio,
                })
                .collect(),
        }
    };
    let coarsest = scaled(2048.0);
    let coarse_stream = encode(img, &coarsest)?;
    if coarse_stream.len() > budget_bytes {
        return Err(CodecError::BadConfig(format!(
            "budget {budget_bytes} B below the coarsest encoding ({} B)",
            coarse_stream.len()
        )));
    }
    let mut lo = 1.0f64; // fine (large streams)
    let mut hi = 2048.0f64; // coarse (small streams)
    let mut best = (coarse_stream, coarsest);
    for _ in 0..14 {
        let mid = (lo * hi).sqrt(); // geometric: steps act multiplicatively
        let cfg = scaled(mid);
        let stream = encode(img, &cfg)?;
        if stream.len() <= budget_bytes {
            best = (stream, cfg);
            hi = mid; // can afford finer quality
        } else {
            lo = mid;
        }
    }
    Ok(best)
}

/// Decodes the full stream.
pub fn decode(bytes: &[u8]) -> Result<GrayImage, CodecError> {
    Ok(decode_prefix(bytes)?.0)
}

/// Decodes the main layer at a reduced resolution: `drop` wavelet scales are
/// skipped, yielding a `⌈w/2^drop⌉ × ⌈h/2^drop⌉` image. `drop = 0` is the
/// full-size main approximation; `drop` must be `≤ levels`.
pub fn decode_resolution(bytes: &[u8], drop: usize) -> Result<GrayImage, CodecError> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("codec.decode_resolution.us", rcmo_obs::bounds::LATENCY_US);
    let _t = LAT.start_timer();
    let si = info(bytes)?;
    if drop > si.levels {
        return Err(CodecError::Malformed(format!(
            "resolution drop {drop} exceeds {} levels",
            si.levels
        )));
    }
    let secs = sections(bytes, &si);
    if secs.is_empty() {
        return Err(CodecError::Truncated);
    }
    let coeffs = decode_main_plane(&si, &secs[0])?;
    let (pw, ph) = (coeffs.width() >> drop, coeffs.height() >> drop);
    // The top-left pw×ph region holds LL_drop with the deeper levels inside.
    let mut sub = Plane::new(pw, ph);
    for y in 0..ph {
        for x in 0..pw {
            sub.set(x, y, coeffs.get(x, y));
        }
    }
    if si.levels > drop {
        haar::inverse(&mut sub, si.levels - drop, si.wavelet);
    }
    // Haar's per-level DC gain is 2 (2-D); undo the `drop` skipped levels.
    let gain = match si.wavelet {
        Wavelet::Haar => (1u64 << drop) as f64,
        Wavelet::Cdf53 => 1.0,
    };
    if gain != 1.0 {
        for v in sub.data_mut() {
            *v /= gain;
        }
    }
    let w = si.width.div_ceil(1 << drop);
    let h = si.height.div_ceil(1 << drop);
    Ok(sub.crop(w.min(sub.width()), h.min(sub.height())).to_image())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmo_imaging::{ct_phantom, psnr};

    fn test_image() -> GrayImage {
        ct_phantom(96, 3, 11).unwrap()
    }

    #[test]
    fn encoder_refuses_what_the_decoder_would() {
        let cfg = EncoderConfig::default();
        // Both sides fit the header's u16 fields; the product does not.
        let big = GrayImage::new(4097, 4096).unwrap();
        assert!(big.width() * big.height() > MAX_PIXELS);
        assert!(matches!(encode(&big, &cfg), Err(CodecError::BadConfig(_))));
        // The bound is inclusive: a stream at exactly MAX_PIXELS parses.
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(4096);
        w.u16(4096);
        w.bytes(&[0, 1, 1]);
        assert_eq!(info(&w.into_bytes()).unwrap().width, 4096);
    }

    #[test]
    fn roundtrip_improves_with_layers() {
        let img = test_image();
        let cfg = EncoderConfig::default();
        let bytes = encode(&img, &cfg).unwrap();
        let si = info(&bytes).unwrap();
        assert_eq!(si.layer_bytes.len(), 3);

        let mut last_psnr = 0.0;
        for k in 0..3 {
            let prefix = si.prefix_for_layers(k);
            let (out, used) = decode_prefix(&bytes[..prefix]).unwrap();
            assert_eq!(used, k + 1);
            let p = psnr(&img, &out);
            assert!(
                p > last_psnr,
                "layer {k}: psnr {p:.2} not above {last_psnr:.2}"
            );
            last_psnr = p;
        }
        assert!(last_psnr > 30.0, "full reconstruction {last_psnr:.2} dB");
    }

    #[test]
    fn full_decode_equals_prefix_with_all_layers() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let a = decode(&bytes).unwrap();
        let (b, used) = decode_prefix(&bytes).unwrap();
        assert_eq!(used, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn cdf53_wavelet_works() {
        let img = test_image();
        let cfg = EncoderConfig {
            wavelet: Wavelet::Cdf53,
            ..EncoderConfig::default()
        };
        let bytes = encode(&img, &cfg).unwrap();
        let out = decode(&bytes).unwrap();
        assert!(psnr(&img, &out) > 28.0);
    }

    #[test]
    fn finer_main_step_gives_better_base_layer() {
        let img = test_image();
        let quality = |step: f64| {
            let cfg = EncoderConfig {
                main_step: step,
                residual_layers: vec![],
                ..EncoderConfig::default()
            };
            let bytes = encode(&img, &cfg).unwrap();
            (psnr(&img, &decode(&bytes).unwrap()), bytes.len())
        };
        let (p_fine, n_fine) = quality(8.0);
        let (p_coarse, n_coarse) = quality(32.0);
        assert!(p_fine > p_coarse);
        assert!(n_fine > n_coarse);
    }

    #[test]
    fn multiresolution_decoding() {
        let img = test_image();
        let cfg = EncoderConfig::default();
        let bytes = encode(&img, &cfg).unwrap();
        let full = decode_resolution(&bytes, 0).unwrap();
        assert_eq!(full.width(), 96);
        let half = decode_resolution(&bytes, 1).unwrap();
        assert_eq!(half.width(), 48);
        let quarter = decode_resolution(&bytes, 2).unwrap();
        assert_eq!(quarter.width(), 24);
        // The half-resolution image approximates the downsampled original.
        let down = img.downsample2x().unwrap();
        let p = psnr(&down, &half);
        assert!(p > 25.0, "half-res psnr {p:.2}");
        assert!(decode_resolution(&bytes, cfg.levels + 1).is_err());
    }

    #[test]
    fn truncation_below_main_layer_fails() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        assert!(matches!(
            decode_prefix(&bytes[..11]),
            Err(CodecError::Truncated)
        ));
        assert!(decode_prefix(&bytes[..5]).is_err());
        assert!(decode(b"????").is_err());
    }

    #[test]
    fn prefix_for_layers_saturates_past_the_last_layer() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let si = info(&bytes).unwrap();
        let full = si.prefix_for_layers(si.num_layers() - 1);
        assert_eq!(full, bytes.len(), "last rung is the full stream");
        // The documented out-of-range contract: any deeper index clamps to
        // the full stream length, never beyond it.
        for k in [si.num_layers(), si.num_layers() + 1, usize::MAX] {
            assert_eq!(si.prefix_for_layers(k), full);
        }
        assert_eq!(si.prefix_for_layer_count(si.num_layers() + 7), full);
    }

    #[test]
    fn zero_layer_count_is_the_bare_header() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let si = info(&bytes).unwrap();
        // A zero-layer prefix is exactly the stream header: it parses
        // (info succeeds) but carries no decodable section.
        assert_eq!(si.prefix_for_layer_count(0), si.header_bytes);
        let reparsed = info(&bytes[..si.prefix_for_layer_count(0)]).unwrap();
        assert_eq!(reparsed.num_layers(), 0);
        // And the index-based form with k = 0 includes the base layer.
        assert_eq!(si.prefix_for_layers(0), si.prefix_for_layer_count(1));
        assert!(si.prefix_for_layers(0) > si.header_bytes);
    }

    #[test]
    fn layer_prefix_ladder_is_monotonic_and_ends_at_full_length() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let si = info(&bytes).unwrap();
        let ladder = si.layer_prefixes();
        assert_eq!(ladder.len(), si.num_layers());
        for w in ladder.windows(2) {
            assert!(w[0] < w[1], "ladder must be strictly increasing");
        }
        assert_eq!(*ladder.last().unwrap() as usize, bytes.len());
        // Each rung decodes exactly its layer count.
        for (i, &rung) in ladder.iter().enumerate() {
            let (_, used) = decode_prefix(&bytes[..rung as usize]).unwrap();
            assert_eq!(used, i + 1);
        }
    }

    #[test]
    fn arbitrary_prefix_is_safe() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let si = info(&bytes).unwrap();
        let l0 = si.prefix_for_layers(0);
        // Any cut between layer boundaries decodes to the layers before it.
        for cut in [l0, l0 + 1, l0 + 37, bytes.len() - 1] {
            let (out, used) = decode_prefix(&bytes[..cut]).unwrap();
            assert!(used >= 1);
            assert_eq!(out.width(), img.width());
        }
    }

    #[test]
    fn nonsquare_and_odd_sizes() {
        let img = GrayImage::from_fn(70, 45, |x, y| ((x * 3 + y * 5) % 256) as u8).unwrap();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(out.width(), 70);
        assert_eq!(out.height(), 45);
        assert!(psnr(&img, &out) > 25.0);
    }

    #[test]
    fn bad_configs_rejected() {
        let img = test_image();
        assert!(encode(
            &img,
            &EncoderConfig {
                levels: 0,
                ..EncoderConfig::default()
            }
        )
        .is_err());
        assert!(encode(
            &img,
            &EncoderConfig {
                main_step: 0.0,
                ..EncoderConfig::default()
            }
        )
        .is_err());
        assert!(encode(
            &img,
            &EncoderConfig {
                residual_layers: vec![LayerSpec {
                    basis: Basis::LocalCosine,
                    step: -1.0
                }],
                ..EncoderConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn encode_to_budget_respects_and_uses_the_budget() {
        let img = test_image();
        let template = EncoderConfig::default();
        let unconstrained = encode(&img, &template).unwrap().len();
        for budget in [unconstrained / 2, unconstrained, unconstrained * 2] {
            let (stream, cfg) = encode_to_budget(&img, &template, budget).unwrap();
            assert!(stream.len() <= budget, "{} > {budget}", stream.len());
            assert!(cfg.main_step >= 1.0);
            let out = decode(&stream).unwrap();
            assert_eq!(out.width(), img.width());
        }
        // Bigger budgets buy strictly better quality.
        let (small, _) = encode_to_budget(&img, &template, unconstrained / 2).unwrap();
        let (large, _) = encode_to_budget(&img, &template, unconstrained * 2).unwrap();
        assert!(psnr(&img, &decode(&large).unwrap()) > psnr(&img, &decode(&small).unwrap()));
        // Impossible budgets are rejected.
        assert!(encode_to_budget(&img, &template, 16).is_err());
    }

    #[test]
    fn compression_actually_compresses() {
        let img = test_image();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let raw = img.width() * img.height();
        assert!(
            bytes.len() < raw / 2,
            "stream {} bytes vs raw {raw}",
            bytes.len()
        );
    }

    #[test]
    fn layer_spec_mix_packet_then_cosine_and_reverse() {
        let img = test_image();
        for layers in [
            vec![
                LayerSpec {
                    basis: Basis::LocalCosine,
                    step: 8.0,
                },
                LayerSpec {
                    basis: Basis::WaveletPacket,
                    step: 3.0,
                },
            ],
            vec![LayerSpec {
                basis: Basis::WaveletPacket,
                step: 4.0,
            }],
        ] {
            let cfg = EncoderConfig {
                residual_layers: layers,
                ..EncoderConfig::default()
            };
            let bytes = encode(&img, &cfg).unwrap();
            assert!(psnr(&img, &decode(&bytes).unwrap()) > 30.0);
        }
    }
}

//! # rcmo-codec — the multi-layered hybrid image codec
//!
//! Reimplementation of the paper's image-compression-transfer module
//! (Averbuch et al. \[1,3,20\]): an image is encoded as "the superposition of
//! one main approximation, and a sequence of residuals", where *different
//! bases* code the main approximation and the residual layers:
//!
//! * the **main approximation** is a multi-level 2-D wavelet transform
//!   (orthonormal Haar or CDF 5/3 lifting) coarsely quantised;
//! * each **residual layer** encodes `original − reconstruction-so-far` in
//!   either a **wavelet-packet best basis** (Coifman–Wickerhauser cost
//!   pruning on dyadic tiles) or a block **local-cosine (DCT-II)** basis,
//!   with a finer quantiser per layer.
//!
//! The bitstream is *progressive*: each layer is a self-delimited section,
//! so any byte prefix that covers `k` complete sections decodes to the
//! `k`-layer reconstruction ([`decode_prefix`]) — this is what lets the
//! conferencing system serve the same stored image to different partners at
//! different qualities (paper Fig. 9) by transferring BLOB prefixes. The
//! main layer additionally supports decoding at reduced *resolution*
//! ([`decode_resolution`]): reconstructing only the first `k` wavelet scales
//! yields a `w/2^k × h/2^k` image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod dct;
pub mod haar;
pub mod layered;
pub mod packet;
pub mod plane;
pub mod quant;

pub use layered::{
    decode, decode_prefix, decode_resolution, encode, encode_to_budget, Basis, CodecError,
    EncoderConfig, LayerSpec, LayeredHeader, StreamInfo, Wavelet, MAX_PIXELS,
};
pub use plane::Plane;

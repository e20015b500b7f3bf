//! 8-bit grayscale raster images.

use rcmo_obs::wire::{Reader, Writer};
use std::fmt;

/// Errors raised by image operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImagingError {
    /// Width/height of zero or a dimension mismatch.
    BadDimensions(String),
    /// A rectangle fell outside the image bounds.
    OutOfBounds(String),
    /// A serialized image failed to decode.
    Codec(String),
}

impl fmt::Display for ImagingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImagingError::BadDimensions(m) => write!(f, "bad dimensions: {m}"),
            ImagingError::OutOfBounds(m) => write!(f, "out of bounds: {m}"),
            ImagingError::Codec(m) => write!(f, "image codec: {m}"),
        }
    }
}

impl std::error::Error for ImagingError {}

impl From<rcmo_obs::wire::WireError> for ImagingError {
    fn from(e: rcmo_obs::wire::WireError) -> Self {
        ImagingError::Codec(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ImagingError>;

/// An 8-bit grayscale image stored row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GrayImage {
    /// A black image of the given size.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::BadDimensions(format!("{width}x{height}")));
        }
        Ok(GrayImage {
            width,
            height,
            pixels: vec![0; width * height],
        })
    }

    /// Builds an image from a per-pixel function.
    pub fn from_fn(width: usize, height: usize, f: impl Fn(usize, usize) -> u8) -> Result<Self> {
        let mut img = GrayImage::new(width, height)?;
        for y in 0..height {
            for x in 0..width {
                img.pixels[y * width + x] = f(x, y);
            }
        }
        Ok(img)
    }

    /// Wraps raw row-major pixels.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Result<Self> {
        if width == 0 || height == 0 || pixels.len() != width * height {
            return Err(ImagingError::BadDimensions(format!(
                "{width}x{height} with {} pixels",
                pixels.len()
            )));
        }
        Ok(GrayImage {
            width,
            height,
            pixels,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw pixel buffer (row-major).
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel at `(x, y)`; panics out of bounds (checked in debug).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Sets pixel `(x, y)` if inside the image (silently ignores outside —
    /// convenient for raster drawing).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = v;
        }
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// 256-bin histogram.
    pub fn histogram(&self) -> [u64; 256] {
        let mut h = [0u64; 256];
        for &p in &self.pixels {
            h[p as usize] += 1;
        }
        h
    }

    /// Copies out the rectangle `(x, y, w, h)`.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Result<GrayImage> {
        if w == 0 || h == 0 {
            return Err(ImagingError::BadDimensions(format!("{w}x{h}")));
        }
        if x + w > self.width || y + h > self.height {
            return Err(ImagingError::OutOfBounds(format!(
                "crop ({x},{y},{w},{h}) from {}x{}",
                self.width, self.height
            )));
        }
        let mut out = GrayImage::new(w, h)?;
        for row in 0..h {
            let src = (y + row) * self.width + x;
            let dst = row * w;
            out.pixels[dst..dst + w].copy_from_slice(&self.pixels[src..src + w]);
        }
        Ok(out)
    }

    /// Nearest-neighbour resize.
    pub fn resize_nearest(&self, w: usize, h: usize) -> Result<GrayImage> {
        let mut out = GrayImage::new(w, h)?;
        for y in 0..h {
            let sy = y * self.height / h;
            for x in 0..w {
                let sx = x * self.width / w;
                out.pixels[y * w + x] = self.get(sx, sy);
            }
        }
        Ok(out)
    }

    /// Bilinear resize (the quality path used for zoom).
    pub fn resize_bilinear(&self, w: usize, h: usize) -> Result<GrayImage> {
        let mut out = GrayImage::new(w, h)?;
        let sx_max = (self.width - 1) as f64;
        let sy_max = (self.height - 1) as f64;
        for y in 0..h {
            let fy = if h == 1 {
                0.0
            } else {
                y as f64 * sy_max / (h - 1) as f64
            };
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(self.height - 1);
            let dy = fy - y0 as f64;
            for x in 0..w {
                let fx = if w == 1 {
                    0.0
                } else {
                    x as f64 * sx_max / (w - 1) as f64
                };
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(self.width - 1);
                let dx = fx - x0 as f64;
                let p00 = self.get(x0, y0) as f64;
                let p10 = self.get(x1, y0) as f64;
                let p01 = self.get(x0, y1) as f64;
                let p11 = self.get(x1, y1) as f64;
                let v = p00 * (1.0 - dx) * (1.0 - dy)
                    + p10 * dx * (1.0 - dy)
                    + p01 * (1.0 - dx) * dy
                    + p11 * dx * dy;
                out.pixels[y * w + x] = v.round().clamp(0.0, 255.0) as u8;
            }
        }
        Ok(out)
    }

    /// The paper's zoom operation: magnify the selected region to the full
    /// image size with bilinear interpolation.
    pub fn zoom(&self, x: usize, y: usize, w: usize, h: usize) -> Result<GrayImage> {
        self.crop(x, y, w, h)?
            .resize_bilinear(self.width, self.height)
    }

    /// Halves both dimensions by 2×2 averaging (resolution pyramids).
    pub fn downsample2x(&self) -> Result<GrayImage> {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        let mut out = GrayImage::new(w, h)?;
        for y in 0..h {
            for x in 0..w {
                let x0 = (2 * x).min(self.width - 1);
                let x1 = (2 * x + 1).min(self.width - 1);
                let y0 = (2 * y).min(self.height - 1);
                let y1 = (2 * y + 1).min(self.height - 1);
                let sum = self.get(x0, y0) as u32
                    + self.get(x1, y0) as u32
                    + self.get(x0, y1) as u32
                    + self.get(x1, y1) as u32;
                out.pixels[y * w + x] = (sum / 4) as u8;
            }
        }
        Ok(out)
    }

    /// Serialises to bytes (magic + dims + raw pixels) for BLOB storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(12 + self.pixels.len());
        w.bytes(b"GIM1");
        w.u32(self.width as u32);
        w.u32(self.height as u32);
        w.bytes(&self.pixels);
        w.into_bytes()
    }

    /// Reverses [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<GrayImage> {
        let mut r = Reader::new(bytes);
        r.magic(b"GIM1")?;
        let w = r.u32()? as usize;
        let h = r.u32()? as usize;
        let pixels = r.take(w.saturating_mul(h))?;
        r.finish()?;
        GrayImage::from_pixels(w, h, pixels.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x + y) % 256) as u8).unwrap()
    }

    #[test]
    fn construction_and_bounds() {
        assert!(GrayImage::new(0, 5).is_err());
        assert!(GrayImage::from_pixels(2, 2, vec![0; 3]).is_err());
        let img = gradient(8, 4);
        assert_eq!(img.width(), 8);
        assert_eq!(img.height(), 4);
        assert_eq!(img.get(3, 2), 5);
    }

    #[test]
    fn set_ignores_out_of_bounds() {
        let mut img = GrayImage::new(4, 4).unwrap();
        img.set(10, 10, 255); // no panic
        img.set(1, 1, 7);
        assert_eq!(img.get(1, 1), 7);
    }

    #[test]
    fn crop_extracts_subimage() {
        let img = gradient(10, 10);
        let c = img.crop(2, 3, 4, 5).unwrap();
        assert_eq!(c.width(), 4);
        assert_eq!(c.height(), 5);
        assert_eq!(c.get(0, 0), img.get(2, 3));
        assert_eq!(c.get(3, 4), img.get(5, 7));
        assert!(img.crop(8, 8, 4, 4).is_err());
        assert!(img.crop(0, 0, 0, 1).is_err());
    }

    #[test]
    fn resize_nearest_identity() {
        let img = gradient(6, 6);
        assert_eq!(img.resize_nearest(6, 6).unwrap(), img);
    }

    #[test]
    fn resize_bilinear_preserves_constant_images() {
        let img = GrayImage::from_fn(7, 5, |_, _| 99).unwrap();
        let big = img.resize_bilinear(20, 13).unwrap();
        assert!(big.pixels().iter().all(|&p| p == 99));
    }

    #[test]
    fn zoom_magnifies_region() {
        let img = GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0 } else { 200 }).unwrap();
        let z = img.zoom(8, 0, 8, 16).unwrap();
        assert_eq!(z.width(), 16);
        assert_eq!(z.height(), 16);
        // The zoomed right half is all bright.
        assert!(z.pixels().iter().all(|&p| p > 150));
    }

    #[test]
    fn downsample_averages() {
        let img = GrayImage::from_fn(4, 4, |x, y| ((x % 2) * 100 + (y % 2) * 100) as u8).unwrap();
        let d = img.downsample2x().unwrap();
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 2);
        // Each 2x2 block is {0,100,100,200} → mean 100.
        assert!(d.pixels().iter().all(|&p| p == 100));
    }

    #[test]
    fn histogram_and_mean() {
        let img = GrayImage::from_fn(4, 1, |x, _| (x as u8) * 10).unwrap();
        let h = img.histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[10], 1);
        assert_eq!(h[30], 1);
        assert!((img.mean() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn byte_roundtrip() {
        let img = gradient(33, 17);
        let bytes = img.to_bytes();
        assert_eq!(GrayImage::from_bytes(&bytes).unwrap(), img);
        assert!(GrayImage::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(GrayImage::from_bytes(&bad).is_err());
        assert!(GrayImage::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}

//! Annotation overlays: the text and line elements conference partners draw
//! on an image.
//!
//! The paper's IP module supports "deleting of text elements and line
//! elements", which only makes sense if annotations are *vector objects
//! layered over* the pixels rather than burned into them. An
//! [`AnnotatedImage`] is a base [`GrayImage`] plus a list of elements, each
//! with a stable [`ElementId`] so a partner can delete someone else's marker;
//! [`AnnotatedImage::render`] rasterises the current state (with a built-in
//! 5×7 bitmap font for text).

use crate::image::{GrayImage, ImagingError, Result};
use rcmo_obs::wire::{Reader, Writer};

/// Stable identifier of one overlay element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub u64);

/// A text annotation at a pixel position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextElement {
    /// Anchor x (left edge of the first glyph).
    pub x: usize,
    /// Anchor y (top edge).
    pub y: usize,
    /// The text (rendered in upper-case 5×7 glyphs).
    pub text: String,
    /// Glyph intensity (255 = white ink).
    pub intensity: u8,
    /// Integer scale factor (1 = 5×7 pixels per glyph).
    pub scale: usize,
}

/// A straight line annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineElement {
    /// Start point.
    pub x0: i64,
    /// Start point.
    pub y0: i64,
    /// End point.
    pub x1: i64,
    /// End point.
    pub y1: i64,
    /// Ink intensity.
    pub intensity: u8,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Element {
    Text(TextElement),
    Line(LineElement),
}

/// An image plus its editable annotation overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedImage {
    base: GrayImage,
    elements: Vec<(ElementId, Element)>,
    next_id: u64,
}

impl AnnotatedImage {
    /// Wraps a base image with an empty overlay.
    pub fn new(base: GrayImage) -> Self {
        AnnotatedImage {
            base,
            elements: Vec::new(),
            next_id: 1,
        }
    }

    /// The unannotated pixels.
    pub fn base(&self) -> &GrayImage {
        &self.base
    }

    /// Number of overlay elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Ids of all elements, in insertion order.
    pub fn element_ids(&self) -> Vec<ElementId> {
        self.elements.iter().map(|(id, _)| *id).collect()
    }

    fn alloc(&mut self) -> ElementId {
        let id = ElementId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Adds a text element ("when one user writes some text on an image ...
    /// the others can see the text").
    pub fn add_text(&mut self, text: TextElement) -> ElementId {
        let id = self.alloc();
        self.elements.push((id, Element::Text(text)));
        id
    }

    /// Adds a line element.
    pub fn add_line(&mut self, line: LineElement) -> ElementId {
        let id = self.alloc();
        self.elements.push((id, Element::Line(line)));
        id
    }

    /// Deletes an element by id (the IP module's delete operation).
    pub fn delete_element(&mut self, id: ElementId) -> Result<()> {
        let before = self.elements.len();
        self.elements.retain(|(eid, _)| *eid != id);
        if self.elements.len() == before {
            return Err(ImagingError::OutOfBounds(format!(
                "no overlay element {}",
                id.0
            )));
        }
        Ok(())
    }

    /// Rasterises base + overlay into a fresh image.
    pub fn render(&self) -> GrayImage {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("imaging.render.us", rcmo_obs::bounds::LATENCY_US);
        let _t = LAT.start_timer();
        let mut out = self.base.clone();
        for (_, e) in &self.elements {
            match e {
                Element::Text(t) => draw_text(&mut out, t),
                Element::Line(l) => draw_line(&mut out, l),
            }
        }
        out
    }

    /// Serialises base + overlay for change propagation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(b"AIM1");
        w.bytes32(&self.base.to_bytes());
        w.bytes(&self.overlay_to_bytes());
        w.into_bytes()
    }

    /// Serialises only the overlay (elements + id counter) — the compact
    /// form stored next to an image whose pixels live elsewhere.
    pub fn overlay_to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u64(self.next_id);
        w.u32(self.elements.len() as u32);
        for (id, e) in &self.elements {
            w.u64(id.0);
            match e {
                Element::Text(t) => {
                    w.u8(0);
                    w.u32(t.x as u32);
                    w.u32(t.y as u32);
                    w.u8(t.intensity);
                    w.u32(t.scale as u32);
                    w.str32(&t.text);
                }
                Element::Line(l) => {
                    w.u8(1);
                    for v in [l.x0, l.y0, l.x1, l.y1] {
                        w.u64(v as u64);
                    }
                    w.u8(l.intensity);
                }
            }
        }
        w.into_bytes()
    }

    /// Reverses [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<AnnotatedImage> {
        let mut r = Reader::new(bytes);
        r.magic(b"AIM1")?;
        let base = GrayImage::from_bytes(r.bytes32()?)?;
        Self::from_parts(base, r.take(r.remaining())?)
    }

    /// Reassembles an image from its pixels and an overlay produced by
    /// [`overlay_to_bytes`](Self::overlay_to_bytes).
    pub fn from_parts(base: GrayImage, overlay: &[u8]) -> Result<AnnotatedImage> {
        let mut r = Reader::new(overlay);
        let next_id = r.u64()?;
        // Smallest element: id, tag, and a text body with no text.
        let count = r.count32(8 + 1 + 17)?;
        let mut elements = Vec::with_capacity(count);
        for _ in 0..count {
            let id = ElementId(r.u64()?);
            let element = match r.u8()? {
                0 => Element::Text(TextElement {
                    x: r.u32()? as usize,
                    y: r.u32()? as usize,
                    intensity: r.u8()?,
                    scale: r.u32()? as usize,
                    text: r.str32()?,
                }),
                1 => Element::Line(LineElement {
                    x0: r.u64()? as i64,
                    y0: r.u64()? as i64,
                    x1: r.u64()? as i64,
                    y1: r.u64()? as i64,
                    intensity: r.u8()?,
                }),
                t => return Err(ImagingError::Codec(format!("bad element tag {t}"))),
            };
            elements.push((id, element));
        }
        r.finish()?;
        Ok(AnnotatedImage {
            base,
            elements,
            next_id,
        })
    }
}

/// Bresenham line drawing.
fn draw_line(img: &mut GrayImage, l: &LineElement) {
    let (mut x0, mut y0, x1, y1) = (l.x0, l.y0, l.x1, l.y1);
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut e = dx + dy;
    loop {
        if x0 >= 0 && y0 >= 0 {
            img.set(x0 as usize, y0 as usize, l.intensity);
        }
        if x0 == x1 && y0 == y1 {
            break;
        }
        let e2 = 2 * e;
        if e2 >= dy {
            e += dy;
            x0 += sx;
        }
        if e2 <= dx {
            e += dx;
            y0 += sy;
        }
    }
}

fn draw_text(img: &mut GrayImage, t: &TextElement) {
    let scale = t.scale.max(1);
    let mut cursor = t.x;
    for ch in t.text.chars() {
        let glyph = glyph_for(ch.to_ascii_uppercase());
        for (row, bits) in glyph.iter().enumerate() {
            for col in 0..5 {
                if bits & (1 << (4 - col)) != 0 {
                    for dy in 0..scale {
                        for dx in 0..scale {
                            img.set(
                                cursor + col * scale + dx,
                                t.y + row * scale + dy,
                                t.intensity,
                            );
                        }
                    }
                }
            }
        }
        cursor += 6 * scale; // 5 columns + 1 space
    }
}

/// 5×7 bitmap glyphs for A–Z, 0–9 and a few symbols; unknown characters
/// render as a filled box.
fn glyph_for(ch: char) -> [u8; 7] {
    match ch {
        'A' => [0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'B' => [0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E],
        'C' => [0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E],
        'D' => [0x1E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1E],
        'E' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F],
        'F' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10],
        'G' => [0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F],
        'H' => [0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'I' => [0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E],
        'J' => [0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C],
        'K' => [0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11],
        'L' => [0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F],
        'M' => [0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11],
        'N' => [0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11],
        'O' => [0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'P' => [0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10],
        'Q' => [0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D],
        'R' => [0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11],
        'S' => [0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E],
        'T' => [0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04],
        'U' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'V' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04],
        'W' => [0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11],
        'X' => [0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11],
        'Y' => [0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04],
        'Z' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F],
        '0' => [0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E],
        '1' => [0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E],
        '2' => [0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F],
        '3' => [0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E],
        '4' => [0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02],
        '5' => [0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E],
        '6' => [0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E],
        '7' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08],
        '8' => [0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E],
        '9' => [0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C],
        ' ' => [0x00; 7],
        '.' => [0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C],
        ',' => [0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08],
        '-' => [0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00],
        '+' => [0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00],
        ':' => [0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00],
        '!' => [0x04, 0x04, 0x04, 0x04, 0x04, 0x00, 0x04],
        '?' => [0x0E, 0x11, 0x01, 0x02, 0x04, 0x00, 0x04],
        _ => [0x1F; 7],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> GrayImage {
        GrayImage::new(64, 64).unwrap()
    }

    #[test]
    fn add_and_render_text() {
        let mut ai = AnnotatedImage::new(base());
        ai.add_text(TextElement {
            x: 2,
            y: 2,
            text: "CT".to_string(),
            intensity: 255,
            scale: 1,
        });
        let r = ai.render();
        let lit = r.pixels().iter().filter(|&&p| p == 255).count();
        assert!(lit > 10, "glyphs drew {lit} pixels");
        // Base image untouched.
        assert!(ai.base().pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn add_and_render_line() {
        let mut ai = AnnotatedImage::new(base());
        ai.add_line(LineElement {
            x0: 0,
            y0: 0,
            x1: 63,
            y1: 63,
            intensity: 200,
        });
        let r = ai.render();
        for d in [0usize, 10, 30, 63] {
            assert_eq!(r.get(d, d), 200);
        }
    }

    #[test]
    fn delete_restores_pixels() {
        let mut ai = AnnotatedImage::new(base());
        let id = ai.add_line(LineElement {
            x0: 0,
            y0: 5,
            x1: 63,
            y1: 5,
            intensity: 99,
        });
        assert_eq!(ai.render().get(30, 5), 99);
        ai.delete_element(id).unwrap();
        assert_eq!(ai.render().get(30, 5), 0);
        assert!(ai.delete_element(id).is_err(), "double delete rejected");
    }

    #[test]
    fn element_ids_are_stable_and_unique() {
        let mut ai = AnnotatedImage::new(base());
        let a = ai.add_text(TextElement {
            x: 0,
            y: 0,
            text: "A".into(),
            intensity: 255,
            scale: 1,
        });
        let b = ai.add_line(LineElement {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: 1,
            intensity: 1,
        });
        assert_ne!(a, b);
        ai.delete_element(a).unwrap();
        let c = ai.add_text(TextElement {
            x: 0,
            y: 0,
            text: "C".into(),
            intensity: 255,
            scale: 1,
        });
        assert_ne!(b, c, "ids are never reused");
        assert_eq!(ai.element_ids(), vec![b, c]);
    }

    #[test]
    fn line_clipping_is_safe() {
        let mut ai = AnnotatedImage::new(base());
        ai.add_line(LineElement {
            x0: -20,
            y0: -20,
            x1: 100,
            y1: 100,
            intensity: 50,
        });
        let r = ai.render(); // no panic
        assert_eq!(r.get(10, 10), 50);
    }

    #[test]
    fn scaled_text_is_larger() {
        let mut small = AnnotatedImage::new(base());
        small.add_text(TextElement {
            x: 0,
            y: 0,
            text: "X".into(),
            intensity: 255,
            scale: 1,
        });
        let mut big = AnnotatedImage::new(base());
        big.add_text(TextElement {
            x: 0,
            y: 0,
            text: "X".into(),
            intensity: 255,
            scale: 3,
        });
        let count = |im: &GrayImage| im.pixels().iter().filter(|&&p| p == 255).count();
        assert_eq!(count(&big.render()), 9 * count(&small.render()));
    }

    #[test]
    fn byte_roundtrip() {
        let mut ai = AnnotatedImage::new(base());
        ai.add_text(TextElement {
            x: 3,
            y: 4,
            text: "HI!".into(),
            intensity: 250,
            scale: 2,
        });
        ai.add_line(LineElement {
            x0: 1,
            y0: 2,
            x1: 60,
            y1: 9,
            intensity: 7,
        });
        let bytes = ai.to_bytes();
        let back = AnnotatedImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, ai);
        assert!(AnnotatedImage::from_bytes(&bytes[..20]).is_err());
        assert!(AnnotatedImage::from_bytes(b"XXXX").is_err());
    }
}

//! Spatial layout model.
//!
//! The markup language's `WHERE` keyword "introduces placing attributes in
//! media's representation, such as image's coordination on the display
//! device", and `HEIGHT`/`WIDTH` size an image. The layout abstraction is one
//! of the model's four logical abstractions (content / layout /
//! synchronization / interconnection).

use std::fmt;

/// An axis-aligned rectangle on the presentation desktop, in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Region {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Region {
    /// Construct a region.
    pub const fn new(x: i32, y: i32, width: u32, height: u32) -> Self {
        Region {
            x,
            y,
            width,
            height,
        }
    }
    /// Right edge (exclusive).
    pub const fn right(&self) -> i32 {
        self.x + self.width as i32
    }
    /// Bottom edge (exclusive).
    pub const fn bottom(&self) -> i32 {
        self.y + self.height as i32
    }
    /// True iff the region has zero area.
    pub const fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }
    /// Do two regions overlap (share at least one pixel)?
    pub fn overlaps(&self, other: &Region) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x < other.right()
            && other.x < self.right()
            && self.y < other.bottom()
            && other.y < self.bottom()
    }
    /// Does this region fully contain the other?
    pub fn contains(&self, other: &Region) -> bool {
        other.is_empty()
            || (self.x <= other.x
                && self.y <= other.y
                && self.right() >= other.right()
                && self.bottom() >= other.bottom())
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{}) {}x{}", self.x, self.y, self.width, self.height)
    }
}

/// Text style flags of the markup language (`B`, `I`, `U` keywords).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TextStyle {
    /// Boldface (`<B>`).
    pub bold: bool,
    /// Italics (`<I>`).
    pub italic: bool,
    /// Underline (`<U>`).
    pub underline: bool,
}

impl TextStyle {
    /// Plain, unstyled text.
    pub const PLAIN: TextStyle = TextStyle {
        bold: false,
        italic: false,
        underline: false,
    };
}

/// Heading levels (`H1`, `H2`, `H3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadingLevel {
    /// `<H1>`
    H1,
    /// `<H2>`
    H2,
    /// `<H3>`
    H3,
}

impl HeadingLevel {
    /// Numeric level 1..=3.
    pub fn level(self) -> u8 {
        match self {
            HeadingLevel::H1 => 1,
            HeadingLevel::H2 => 2,
            HeadingLevel::H3 => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_detection() {
        let a = Region::new(0, 0, 100, 100);
        let b = Region::new(50, 50, 100, 100);
        let c = Region::new(100, 0, 10, 10); // touches a's right edge: no overlap
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&Region::new(10, 10, 0, 5)));
    }

    #[test]
    fn containment() {
        let a = Region::new(0, 0, 100, 100);
        assert!(a.contains(&Region::new(10, 10, 50, 50)));
        assert!(a.contains(&a));
        assert!(!a.contains(&Region::new(90, 90, 20, 20)));
        // Empty regions are contained everywhere.
        assert!(a.contains(&Region::new(500, 500, 0, 0)));
    }

    #[test]
    fn heading_levels() {
        assert_eq!(HeadingLevel::H1.level(), 1);
        assert_eq!(HeadingLevel::H3.level(), 3);
    }
}

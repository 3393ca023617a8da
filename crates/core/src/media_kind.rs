//! Media kinds and encodings recognized by the service.
//!
//! The paper's protocol stack (Fig. 5) supports GIF/TIFF/BMP/JPEG images,
//! PCM/ADPCM/VADPCM audio and AVI/MPEG video; text and the presentation
//! scenario itself travel as discrete documents.

use std::fmt;

/// The five media types of the markup language (`TEXT, IMG, AU, VI` and the
/// synchronized `AU_VI` pair which is represented as separate AU + VI
/// components bound into one sync group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MediaKind {
    /// Formatted text (discrete; shown for the whole presentation unless timed).
    Text,
    /// Still image (discrete; has a start time and display duration).
    Image,
    /// Audio stream (continuous, time sensitive).
    Audio,
    /// Video stream (continuous, time sensitive).
    Video,
}

impl MediaKind {
    /// Continuous media need isochronous delivery (RTP/UDP path);
    /// discrete media go over the reliable (TCP) path — paper Fig. 5.
    pub fn is_continuous(self) -> bool {
        matches!(self, MediaKind::Audio | MediaKind::Video)
    }
    /// All media kinds, in a stable order.
    pub const ALL: [MediaKind; 4] = [
        MediaKind::Text,
        MediaKind::Image,
        MediaKind::Audio,
        MediaKind::Video,
    ];
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MediaKind::Text => "text",
            MediaKind::Image => "image",
            MediaKind::Audio => "audio",
            MediaKind::Video => "video",
        };
        f.write_str(s)
    }
}

/// Concrete encodings per media kind (paper Fig. 5 / §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Plain or lightly formatted text.
    PlainText,
    /// GIF image.
    Gif,
    /// TIFF image.
    Tiff,
    /// BMP image.
    Bmp,
    /// JPEG image.
    Jpeg,
    /// Uncompressed PCM audio.
    Pcm,
    /// ADPCM-compressed audio.
    Adpcm,
    /// Variable-rate ADPCM audio.
    Vadpcm,
    /// AVI (motion-JPEG style) video.
    Avi,
    /// MPEG-1 video.
    Mpeg,
}

impl Encoding {
    /// The media kind this encoding belongs to.
    pub fn kind(self) -> MediaKind {
        match self {
            Encoding::PlainText => MediaKind::Text,
            Encoding::Gif | Encoding::Tiff | Encoding::Bmp | Encoding::Jpeg => MediaKind::Image,
            Encoding::Pcm | Encoding::Adpcm | Encoding::Vadpcm => MediaKind::Audio,
            Encoding::Avi | Encoding::Mpeg => MediaKind::Video,
        }
    }
    /// Canonical lowercase name (used in sources and traces).
    pub fn name(self) -> &'static str {
        match self {
            Encoding::PlainText => "text",
            Encoding::Gif => "gif",
            Encoding::Tiff => "tiff",
            Encoding::Bmp => "bmp",
            Encoding::Jpeg => "jpeg",
            Encoding::Pcm => "pcm",
            Encoding::Adpcm => "adpcm",
            Encoding::Vadpcm => "vadpcm",
            Encoding::Avi => "avi",
            Encoding::Mpeg => "mpeg",
        }
    }
    /// Parse a canonical name back into an encoding.
    pub fn from_name(s: &str) -> Option<Encoding> {
        Some(match s.to_ascii_lowercase().as_str() {
            "text" => Encoding::PlainText,
            "gif" => Encoding::Gif,
            "tiff" => Encoding::Tiff,
            "bmp" => Encoding::Bmp,
            "jpeg" | "jpg" => Encoding::Jpeg,
            "pcm" => Encoding::Pcm,
            "adpcm" => Encoding::Adpcm,
            "vadpcm" => Encoding::Vadpcm,
            "avi" => Encoding::Avi,
            "mpeg" | "mpg" => Encoding::Mpeg,
            _ => return None,
        })
    }
    /// Every supported encoding, in a stable order.
    pub const ALL: [Encoding; 10] = [
        Encoding::PlainText,
        Encoding::Gif,
        Encoding::Tiff,
        Encoding::Bmp,
        Encoding::Jpeg,
        Encoding::Pcm,
        Encoding::Adpcm,
        Encoding::Vadpcm,
        Encoding::Avi,
        Encoding::Mpeg,
    ];
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuity_split_matches_protocol_stack() {
        assert!(MediaKind::Audio.is_continuous());
        assert!(MediaKind::Video.is_continuous());
        assert!(!MediaKind::Text.is_continuous());
        assert!(!MediaKind::Image.is_continuous());
    }

    #[test]
    fn encodings_map_to_kinds() {
        assert_eq!(Encoding::Jpeg.kind(), MediaKind::Image);
        assert_eq!(Encoding::Vadpcm.kind(), MediaKind::Audio);
        assert_eq!(Encoding::Mpeg.kind(), MediaKind::Video);
        assert_eq!(Encoding::PlainText.kind(), MediaKind::Text);
    }

    #[test]
    fn names_round_trip() {
        for e in Encoding::ALL {
            assert_eq!(Encoding::from_name(e.name()), Some(e), "{e:?}");
        }
        assert_eq!(Encoding::from_name("jpg"), Some(Encoding::Jpeg));
        assert_eq!(Encoding::from_name("mpg"), Some(Encoding::Mpeg));
        assert_eq!(Encoding::from_name("unknown"), None);
    }

    #[test]
    fn all_kinds_covered_by_some_encoding() {
        for k in MediaKind::ALL {
            assert!(
                Encoding::ALL.iter().any(|e| e.kind() == k),
                "no encoding for {k}"
            );
        }
    }
}

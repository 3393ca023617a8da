//! The keyword registry of the hypermedia markup language (paper Table 1).
//!
//! Keywords appear in two positions: as *tag names* (`<TEXT> ... </TEXT>`)
//! and as *attribute names* inside an element (`SOURCE=`, `STARTIME=`, ...).

use std::fmt;

/// Tag-position keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagKeyword {
    /// `TITLE` — document title indicator.
    Title,
    /// `H1` — heading level 1.
    H1,
    /// `H2` — heading level 2.
    H2,
    /// `H3` — heading level 3.
    H3,
    /// `PAR` — paragraph indicator (void element).
    Par,
    /// `SEP` — separator indicator (void element).
    Sep,
    /// `TEXT` — text media component.
    Text,
    /// `IMG` — image media component.
    Img,
    /// `AU` — audio media component.
    Au,
    /// `VI` — video media component.
    Vi,
    /// `AU_VI` — synchronized audio+video pair.
    AuVi,
    /// `HLINK` — hyperlink.
    Hlink,
    /// `B` — boldface span.
    Bold,
    /// `I` — italics span.
    Italic,
    /// `U` — underline span.
    Underline,
}

impl TagKeyword {
    /// The canonical spelling used in markup.
    pub fn spelling(self) -> &'static str {
        match self {
            TagKeyword::Title => "TITLE",
            TagKeyword::H1 => "H1",
            TagKeyword::H2 => "H2",
            TagKeyword::H3 => "H3",
            TagKeyword::Par => "PAR",
            TagKeyword::Sep => "SEP",
            TagKeyword::Text => "TEXT",
            TagKeyword::Img => "IMG",
            TagKeyword::Au => "AU",
            TagKeyword::Vi => "VI",
            TagKeyword::AuVi => "AU_VI",
            TagKeyword::Hlink => "HLINK",
            TagKeyword::Bold => "B",
            TagKeyword::Italic => "I",
            TagKeyword::Underline => "U",
        }
    }
    /// Parse a tag name (case-insensitive, as in HTML).
    pub fn from_spelling(s: &str) -> Option<TagKeyword> {
        Some(match s.to_ascii_uppercase().as_str() {
            "TITLE" => TagKeyword::Title,
            "H1" => TagKeyword::H1,
            "H2" => TagKeyword::H2,
            "H3" => TagKeyword::H3,
            "PAR" => TagKeyword::Par,
            "SEP" => TagKeyword::Sep,
            "TEXT" => TagKeyword::Text,
            "IMG" => TagKeyword::Img,
            "AU" => TagKeyword::Au,
            "VI" => TagKeyword::Vi,
            "AU_VI" => TagKeyword::AuVi,
            "HLINK" => TagKeyword::Hlink,
            "B" => TagKeyword::Bold,
            "I" => TagKeyword::Italic,
            "U" => TagKeyword::Underline,
            _ => return None,
        })
    }
    /// Inline style spans.
    pub fn is_style(self) -> bool {
        matches!(
            self,
            TagKeyword::Bold | TagKeyword::Italic | TagKeyword::Underline
        )
    }
    /// All tag keywords, in a stable order.
    pub const ALL: [TagKeyword; 15] = [
        TagKeyword::Title,
        TagKeyword::H1,
        TagKeyword::H2,
        TagKeyword::H3,
        TagKeyword::Par,
        TagKeyword::Sep,
        TagKeyword::Text,
        TagKeyword::Img,
        TagKeyword::Au,
        TagKeyword::Vi,
        TagKeyword::AuVi,
        TagKeyword::Hlink,
        TagKeyword::Bold,
        TagKeyword::Italic,
        TagKeyword::Underline,
    ];
}

impl fmt::Display for TagKeyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling())
    }
}

/// Attribute-position keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKeyword {
    /// `SOURCE` — media retrieval options (server and object key).
    Source,
    /// `ID` — component identification number.
    Id,
    /// `STARTIME` — relative playout start time.
    Startime,
    /// `DURATION` — playout duration.
    Duration,
    /// `WHERE` — placement coordinates on the display.
    Where,
    /// `HEIGHT` — image height.
    Height,
    /// `WIDTH` — image width.
    Width,
    /// `NOTE` — annotation text.
    Note,
    /// `AT` — timed auto-activation instant of a hyperlink.
    At,
    /// `TO` — hyperlink target document.
    To,
    /// `HOST` — hyperlink target server (remote links).
    Host,
    /// `KIND` — hyperlink kind (`SEQ` or `EXP`).
    Kind,
    /// `ENCODING` — media encoding name.
    EncodingAttr,
    /// `SYNC` — named synchronization group (implementation extension of
    /// the paper's future work: generalizes `AU_VI` to n-way groups).
    Sync,
}

impl AttrKeyword {
    /// The canonical spelling used in markup.
    pub fn spelling(self) -> &'static str {
        match self {
            AttrKeyword::Source => "SOURCE",
            AttrKeyword::Id => "ID",
            AttrKeyword::Startime => "STARTIME",
            AttrKeyword::Duration => "DURATION",
            AttrKeyword::Where => "WHERE",
            AttrKeyword::Height => "HEIGHT",
            AttrKeyword::Width => "WIDTH",
            AttrKeyword::Note => "NOTE",
            AttrKeyword::At => "AT",
            AttrKeyword::To => "TO",
            AttrKeyword::Host => "HOST",
            AttrKeyword::Kind => "KIND",
            AttrKeyword::EncodingAttr => "ENCODING",
            AttrKeyword::Sync => "SYNC",
        }
    }
    /// Parse an attribute name (case-insensitive).
    pub fn from_spelling(s: &str) -> Option<AttrKeyword> {
        Some(match s.to_ascii_uppercase().as_str() {
            "SOURCE" => AttrKeyword::Source,
            "ID" => AttrKeyword::Id,
            "STARTIME" => AttrKeyword::Startime,
            "DURATION" => AttrKeyword::Duration,
            "WHERE" => AttrKeyword::Where,
            "HEIGHT" => AttrKeyword::Height,
            "WIDTH" => AttrKeyword::Width,
            "NOTE" => AttrKeyword::Note,
            "AT" => AttrKeyword::At,
            "TO" => AttrKeyword::To,
            "HOST" => AttrKeyword::Host,
            "KIND" => AttrKeyword::Kind,
            "ENCODING" => AttrKeyword::EncodingAttr,
            "SYNC" => AttrKeyword::Sync,
            _ => return None,
        })
    }
    /// All attribute keywords, in a stable order.
    pub const ALL: [AttrKeyword; 14] = [
        AttrKeyword::Source,
        AttrKeyword::Id,
        AttrKeyword::Startime,
        AttrKeyword::Duration,
        AttrKeyword::Where,
        AttrKeyword::Height,
        AttrKeyword::Width,
        AttrKeyword::Note,
        AttrKeyword::At,
        AttrKeyword::To,
        AttrKeyword::Host,
        AttrKeyword::Kind,
        AttrKeyword::EncodingAttr,
        AttrKeyword::Sync,
    ];
}

impl fmt::Display for AttrKeyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling())
    }
}

/// One row of the keyword table (paper Table 1), regenerated live by the
/// TAB1 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordRow {
    /// The keyword spelling(s), comma-separated as in the paper.
    pub keyword: String,
    /// The paper's description.
    pub description: &'static str,
}

/// Regenerate paper Table 1 from the live registry.
pub fn keyword_table() -> Vec<KeywordRow> {
    vec![
        KeywordRow {
            keyword: "TITLE".into(),
            description: "Document title indicator",
        },
        KeywordRow {
            keyword: "H1, H2, H3".into(),
            description: "Heading indicators",
        },
        KeywordRow {
            keyword: "PAR, SEP".into(),
            description: "Paragraph and separator indicators",
        },
        KeywordRow {
            keyword: "TEXT, IMG, AU, VI, AU_VI".into(),
            description: "Media type indicators",
        },
        KeywordRow {
            keyword: "SOURCE, ID".into(),
            description: "Media source and id indicators",
        },
        KeywordRow {
            keyword: "STARTIME, DURATION".into(),
            description: "Media time characteristics indicators",
        },
        KeywordRow {
            keyword: "B, I, U".into(),
            description: "Boldface, italics, underline characters",
        },
        KeywordRow {
            keyword: "NOTE".into(),
            description: "Annotation indicator",
        },
        KeywordRow {
            keyword: "HLINK, AT, TO, HOST, KIND".into(),
            description: "Hyperlink indicators",
        },
        KeywordRow {
            keyword: "WHERE, HEIGHT, WIDTH".into(),
            description: "Media placement indicators",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_spellings_round_trip() {
        for t in TagKeyword::ALL {
            assert_eq!(TagKeyword::from_spelling(t.spelling()), Some(t));
            // case-insensitive
            assert_eq!(
                TagKeyword::from_spelling(&t.spelling().to_lowercase()),
                Some(t)
            );
        }
        assert_eq!(TagKeyword::from_spelling("BOGUS"), None);
    }

    #[test]
    fn attr_spellings_round_trip() {
        for a in AttrKeyword::ALL {
            assert_eq!(AttrKeyword::from_spelling(a.spelling()), Some(a));
        }
        assert_eq!(AttrKeyword::from_spelling("FONTS"), None);
    }

    #[test]
    fn style_classification() {
        assert!(TagKeyword::Bold.is_style());
    }

    #[test]
    fn keyword_table_covers_every_registry_entry() {
        let table = keyword_table();
        let all_cells: String = table
            .iter()
            .map(|r| r.keyword.clone())
            .collect::<Vec<_>>()
            .join(", ");
        for t in TagKeyword::ALL {
            assert!(
                all_cells.split(", ").any(|k| k == t.spelling()),
                "tag {t} missing from Table 1"
            );
        }
        for a in AttrKeyword::ALL {
            if a == AttrKeyword::EncodingAttr || a == AttrKeyword::Sync {
                continue; // implementation extensions, not in the paper's table
            }
            assert!(
                all_cells.split(", ").any(|k| k == a.spelling()),
                "attr {a} missing from Table 1"
            );
        }
    }
}

//! Attribute-value micro-parsers: times, sources, placements, link kinds.

use hermes_core::MediaDuration;
use hermes_core::{DocumentId, LinkKind, MediaSource, MediaTime, Region, ServerId};
use std::fmt;

/// A value-level parse error with the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError {
    /// What kind of value was expected.
    pub expected: &'static str,
    /// The input that failed to parse.
    pub input: String,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad {} value: '{}'", self.expected, self.input)
    }
}

impl std::error::Error for ValueError {}

fn err(expected: &'static str, input: &str) -> ValueError {
    ValueError {
        expected,
        input: input.to_string(),
    }
}

/// Parse a duration value: `"12.5s"`, `"300ms"`, `"2500us"`, or a bare
/// number meaning seconds (`"12"`, `"12.5"`). Negative values are accepted
/// here; callers reject them where the grammar requires non-negative times.
pub fn parse_duration(s: &str) -> Result<MediaDuration, ValueError> {
    let s = s.trim();
    let (num, mult_us) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000.0)
    } else {
        (s, 1_000_000.0)
    };
    let v: f64 = num.trim().parse().map_err(|_| err("time", s))?;
    if !v.is_finite() {
        return Err(err("time", s));
    }
    Ok(MediaDuration::from_micros((v * mult_us).round() as i64))
}

/// Parse a time instant (same syntax as durations).
pub fn parse_time(s: &str) -> Result<MediaTime, ValueError> {
    parse_duration(s).map(|d| MediaTime::ZERO + d)
}

/// Parse a `SOURCE` value: `"srvN:object"` selects a server explicitly,
/// a bare object key (`"lessons/intro.mpg"`) refers to the document's home
/// server (resolved later).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceRef {
    /// Explicit server + object.
    Absolute(MediaSource),
    /// Object on the home server.
    Relative(String),
}

impl SourceRef {
    /// Resolve against a home server.
    pub fn resolve(&self, home: ServerId) -> MediaSource {
        match self {
            SourceRef::Absolute(m) => m.clone(),
            SourceRef::Relative(obj) => MediaSource::new(home, obj.clone()),
        }
    }
}

/// Parse a `SOURCE` value.
pub fn parse_source(s: &str) -> Result<SourceRef, ValueError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(err("source", s));
    }
    if let Some((srv, obj)) = s.split_once(':') {
        if let Some(num) = srv.strip_prefix("srv") {
            let id: u64 = num.parse().map_err(|_| err("source", s))?;
            if obj.is_empty() {
                return Err(err("source", s));
            }
            return Ok(SourceRef::Absolute(MediaSource::new(
                ServerId::new(id),
                obj,
            )));
        }
    }
    Ok(SourceRef::Relative(s.to_string()))
}

/// Parse a `WHERE` value: `"x,y"` pixel coordinates of the top-left corner.
pub fn parse_where(s: &str) -> Result<(i32, i32), ValueError> {
    let (x, y) = s.split_once(',').ok_or_else(|| err("where", s))?;
    let x: i32 = x.trim().parse().map_err(|_| err("where", s))?;
    let y: i32 = y.trim().parse().map_err(|_| err("where", s))?;
    Ok((x, y))
}

/// Combine `WHERE` + `WIDTH` + `HEIGHT` into a region. Missing dimensions
/// default to zero (the renderer sizes to content).
pub fn region_from_parts(
    at: Option<(i32, i32)>,
    width: Option<u32>,
    height: Option<u32>,
) -> Option<Region> {
    if at.is_none() && width.is_none() && height.is_none() {
        return None;
    }
    let (x, y) = at.unwrap_or((0, 0));
    Some(Region::new(x, y, width.unwrap_or(0), height.unwrap_or(0)))
}

/// Parse a pixel dimension (`WIDTH`/`HEIGHT`).
pub fn parse_dimension(s: &str) -> Result<u32, ValueError> {
    s.trim().parse().map_err(|_| err("dimension", s))
}

/// Parse a numeric id value (`ID`).
pub fn parse_id(s: &str) -> Result<u64, ValueError> {
    s.trim().parse().map_err(|_| err("id", s))
}

/// Parse a link `KIND` value: `SEQ`(UENTIAL) or `EXP`(LORATIONAL).
pub fn parse_link_kind(s: &str) -> Result<LinkKind, ValueError> {
    match s.trim().to_ascii_uppercase().as_str() {
        "SEQ" | "SEQUENTIAL" => Ok(LinkKind::Sequential),
        "EXP" | "EXPLORATIONAL" => Ok(LinkKind::Explorational),
        _ => Err(err("link kind", s)),
    }
}

/// Parse a `TO` value: `docN` or a bare number.
pub fn parse_doc_target(s: &str) -> Result<DocumentId, ValueError> {
    let s = s.trim();
    let num = s.strip_prefix("doc").unwrap_or(s);
    let id: u64 = num.parse().map_err(|_| err("document target", s))?;
    Ok(DocumentId::new(id))
}

/// Parse a `HOST` value: `srvN` or a bare number.
pub fn parse_host(s: &str) -> Result<ServerId, ValueError> {
    let s = s.trim();
    let num = s.strip_prefix("srv").unwrap_or(s);
    let id: u64 = num.parse().map_err(|_| err("host", s))?;
    Ok(ServerId::new(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_in_all_units() {
        assert_eq!(parse_duration("2s").unwrap(), MediaDuration::from_secs(2));
        assert_eq!(
            parse_duration("1500ms").unwrap(),
            MediaDuration::from_millis(1500)
        );
        assert_eq!(
            parse_duration("250us").unwrap(),
            MediaDuration::from_micros(250)
        );
        assert_eq!(parse_duration("3").unwrap(), MediaDuration::from_secs(3));
        assert_eq!(
            parse_duration("2.5s").unwrap(),
            MediaDuration::from_millis(2500)
        );
        assert_eq!(
            parse_duration(" 0.04 s ").unwrap(),
            MediaDuration::from_millis(40)
        );
    }

    #[test]
    fn bad_durations_rejected() {
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("").is_err());
        assert!(parse_duration("1.2.3s").is_err());
        assert!(parse_duration("infs").is_err());
    }

    #[test]
    fn sources_absolute_and_relative() {
        assert_eq!(
            parse_source("srv2:lessons/intro.mpg").unwrap(),
            SourceRef::Absolute(MediaSource::new(ServerId::new(2), "lessons/intro.mpg"))
        );
        assert_eq!(
            parse_source("audio/a1.pcm").unwrap(),
            SourceRef::Relative("audio/a1.pcm".into())
        );
        // A colon path without the srv prefix is a relative object key.
        assert_eq!(
            parse_source("c:path").unwrap(),
            SourceRef::Relative("c:path".into())
        );
        assert!(parse_source("").is_err());
        assert!(parse_source("srv2:").is_err());
        assert!(parse_source("srvX:obj").is_err());
    }

    #[test]
    fn source_resolution() {
        let home = ServerId::new(7);
        assert_eq!(
            parse_source("a/b").unwrap().resolve(home),
            MediaSource::new(home, "a/b")
        );
        assert_eq!(
            parse_source("srv1:a/b").unwrap().resolve(home),
            MediaSource::new(ServerId::new(1), "a/b")
        );
    }

    #[test]
    fn where_and_region() {
        assert_eq!(parse_where("10,20").unwrap(), (10, 20));
        assert_eq!(parse_where(" -5 , 7 ").unwrap(), (-5, 7));
        assert!(parse_where("10").is_err());
        assert!(parse_where("a,b").is_err());
        let r = region_from_parts(Some((1, 2)), Some(30), Some(40)).unwrap();
        assert_eq!(r, Region::new(1, 2, 30, 40));
        assert_eq!(region_from_parts(None, None, None), None);
        assert_eq!(
            region_from_parts(None, Some(10), None).unwrap(),
            Region::new(0, 0, 10, 0)
        );
    }

    #[test]
    fn link_values() {
        assert_eq!(parse_link_kind("SEQ").unwrap(), LinkKind::Sequential);
        assert_eq!(
            parse_link_kind("explorational").unwrap(),
            LinkKind::Explorational
        );
        assert!(parse_link_kind("sideways").is_err());
        assert_eq!(parse_doc_target("doc12").unwrap(), DocumentId::new(12));
        assert_eq!(parse_doc_target("12").unwrap(), DocumentId::new(12));
        assert_eq!(parse_host("srv3").unwrap(), ServerId::new(3));
        assert!(parse_doc_target("docX").is_err());
    }

    #[test]
    fn ids_and_dimensions() {
        assert_eq!(parse_id("42").unwrap(), 42);
        assert!(parse_id("-1").is_err());
        assert_eq!(parse_dimension("640").unwrap(), 640);
        assert!(parse_dimension("wide").is_err());
    }
}

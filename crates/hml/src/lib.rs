//! # hermes-hml
//!
//! The hypermedia markup language of the paper (§3): an HTML-like language
//! extended with `STARTIME`/`DURATION` timing, `AU_VI` synchronized pairs
//! and timed `HLINK` hyperlinks — the wire representation of a
//! pre-orchestrated presentation scenario.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → [`scenario_build`] (lowering
//! to the substrate-independent [`hermes_core::Scenario`]); [`serializer`]
//! renders an AST back to markup (round-trip safe); [`builder`] offers a
//! fluent authoring API; [`keywords`] is the live registry behind the
//! paper's Table 1.

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod keywords;
pub mod lexer;
pub mod parser;
pub mod scenario_build;
pub mod serializer;
pub mod values;

pub use ast::HmlDocument;
pub use builder::DocumentBuilder;
pub use parser::{parse, ParseError};
pub use scenario_build::{build_scenario, scenario_from_markup, BuildError};
pub use serializer::serialize;

use std::fmt;

/// Any error the HML pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Lowering to a scenario failed.
    Build(BuildError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Error::Build(e)
    }
}

/// The markup text of the paper's Fig. 2 example scenario, used by the FIG2
/// experiment, the quickstart example and several tests.
pub const FIGURE2_MARKUP: &str = r#"
<TITLE> Figure 2 scenario </TITLE>
<TEXT> This formatted text is shown throughout the presentation </TEXT>
<IMG> SOURCE=i1.jpg STARTIME=0s DURATION=5s ID=1 NOTE="image I1" </IMG>
<IMG> SOURCE=i2.jpg STARTIME=5s DURATION=7s ID=2 NOTE="image I2" </IMG>
<AU_VI> STARTIME=6s DURATION=8s SOURCE=a1.pcm SOURCE=v.mpg ID=3 ID=4 NOTE="A1 synchronized with V" </AU_VI>
<AU> SOURCE=a2.pcm STARTIME=15s DURATION=4s ID=5 NOTE="audio A2" </AU>
<HLINK> AT=19s TO=doc2 KIND=SEQ NOTE="next document in the author's sequence" </HLINK>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{DocumentId, PlayoutSchedule, ServerId};

    #[test]
    fn figure2_markup_parses_and_schedules() {
        let s = scenario_from_markup(FIGURE2_MARKUP, DocumentId::new(1), ServerId::new(0)).unwrap();
        assert!(s.is_well_formed());
        let sched = PlayoutSchedule::from_scenario(&s);
        assert_eq!(sched.end, hermes_core::MediaTime::from_secs(19));
    }

    #[test]
    fn error_wrapping_displays() {
        let e = scenario_from_markup("<OOPS>", DocumentId::new(1), ServerId::new(0)).unwrap_err();
        assert!(matches!(e, Error::Parse(_)));
        assert!(e.to_string().contains("unknown tag"));
    }
}

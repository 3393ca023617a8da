//! The headless "browser" renderer: a textual desktop that shows what the
//! user would see at any instant of a presentation.
//!
//! The real Hermes browser was a Windows 95 / Unix GUI; all synchronization
//! behaviour lives below the GUI, so tests and experiments render the
//! desktop to text and assert on it (see DESIGN.md's substitution table).

use hermes_core::{
    ComponentContent, ComponentId, MediaKind, MediaTime, PlayoutSchedule, Scenario, TextBlock,
};
use std::fmt::Write;

/// One visible item on the desktop at some instant.
#[derive(Debug, Clone, PartialEq)]
pub struct DesktopItem {
    /// Which component.
    pub component: ComponentId,
    /// Its media kind.
    pub kind: MediaKind,
    /// Placement description.
    pub placement: String,
    /// Short content description (title line, object key, annotation).
    pub description: String,
}

/// Compute the items visible/audible at scenario-relative instant `t`.
pub fn desktop_at(
    scenario: &Scenario,
    schedule: &PlayoutSchedule,
    t: MediaTime,
) -> Vec<DesktopItem> {
    let mut items = Vec::new();
    for id in schedule.active_at(t) {
        let Some(c) = scenario.component(id) else {
            continue;
        };
        let placement = match c.region {
            Some(r) => r.to_string(),
            None => "flow".to_string(),
        };
        let description = match &c.content {
            ComponentContent::Text(blocks) => render_text_blocks(blocks, 48),
            ComponentContent::Stored { source, encoding } => {
                let note = c.note.as_deref().unwrap_or("");
                format!("{} [{}] {}", source.object, encoding, note)
                    .trim_end()
                    .to_string()
            }
        };
        items.push(DesktopItem {
            component: id,
            kind: c.kind(),
            placement,
            description,
        });
    }
    items
}

/// Render text blocks to a single-line summary capped at `max` chars.
pub fn render_text_blocks(blocks: &[TextBlock], max: usize) -> String {
    let mut out = String::new();
    for b in blocks {
        match b {
            TextBlock::Heading(level, text) => {
                let _ = write!(out, "[H{}] {} ", level.level(), text);
            }
            TextBlock::ParagraphBreak => out.push_str("¶ "),
            TextBlock::Runs(runs) => {
                for r in runs {
                    if r.style.bold {
                        let _ = write!(out, "*{}* ", r.text);
                    } else if r.style.italic {
                        let _ = write!(out, "_{}_ ", r.text);
                    } else if r.style.underline {
                        let _ = write!(out, "~{}~ ", r.text);
                    } else {
                        let _ = write!(out, "{} ", r.text);
                    }
                }
            }
        }
    }
    let out = out.trim_end();
    if out.chars().count() > max {
        let truncated: String = out.chars().take(max.saturating_sub(1)).collect();
        format!("{truncated}…")
    } else {
        out.to_string()
    }
}

/// Render the whole timeline as a text storyboard sampled every `step_ms`.
pub fn storyboard(scenario: &Scenario, schedule: &PlayoutSchedule, step_ms: i64) -> String {
    let mut out = String::new();
    let mut t = MediaTime::ZERO;
    while t <= schedule.end {
        let items = desktop_at(scenario, schedule, t);
        let _ = writeln!(out, "t={}", t);
        for it in items {
            let _ = writeln!(
                out,
                "  {:<7} {:<10} @{:<20} {}",
                it.kind.to_string(),
                it.component.to_string(),
                it.placement,
                it.description
            );
        }
        t += hermes_core::MediaDuration::from_millis(step_ms);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{DocumentId, ServerId};
    use hermes_core::{HeadingLevel, TextRun, TextStyle};
    use hermes_hml::{scenario_from_markup, FIGURE2_MARKUP};

    fn fig2() -> (Scenario, PlayoutSchedule) {
        let s = scenario_from_markup(FIGURE2_MARKUP, DocumentId::new(1), ServerId::new(0)).unwrap();
        let sched = PlayoutSchedule::from_scenario(&s);
        (s, sched)
    }

    #[test]
    fn desktop_matches_figure2_timeline() {
        let (s, sched) = fig2();
        // At t=2s: background text + image I1.
        let items = desktop_at(&s, &sched, MediaTime::from_secs(2));
        let kinds: Vec<MediaKind> = items.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&MediaKind::Text));
        assert!(kinds.contains(&MediaKind::Image));
        assert_eq!(kinds.iter().filter(|k| **k == MediaKind::Image).count(), 1);
        // At t=7s: text, I2, audio A1 and video V.
        let items = desktop_at(&s, &sched, MediaTime::from_secs(7));
        let kinds: Vec<MediaKind> = items.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&MediaKind::Audio));
        assert!(kinds.contains(&MediaKind::Video));
        // Description carries the object key.
        assert!(items.iter().any(|i| i.description.contains("v.mpg")));
    }

    #[test]
    fn text_rendering_styles() {
        let blocks = vec![
            TextBlock::Heading(HeadingLevel::H1, "Intro".into()),
            TextBlock::Runs(vec![
                TextRun {
                    text: "plain".into(),
                    style: TextStyle::PLAIN,
                },
                TextRun {
                    text: "bold".into(),
                    style: TextStyle {
                        bold: true,
                        ..TextStyle::PLAIN
                    },
                },
            ]),
            TextBlock::ParagraphBreak,
        ];
        let s = render_text_blocks(&blocks, 100);
        assert_eq!(s, "[H1] Intro plain *bold* ¶");
    }

    #[test]
    fn text_rendering_truncates() {
        let blocks = vec![TextBlock::Runs(vec![TextRun {
            text: "x".repeat(100),
            style: TextStyle::PLAIN,
        }])];
        let s = render_text_blocks(&blocks, 10);
        assert!(s.chars().count() <= 10);
        assert!(s.ends_with('…'));
    }

    #[test]
    fn storyboard_covers_whole_presentation() {
        let (s, sched) = fig2();
        let sb = storyboard(&s, &sched, 1_000);
        assert!(sb.contains("t=0.000s"));
        assert!(sb.contains("t=19.000s"));
        assert!(sb.contains("i1.jpg"));
        assert!(sb.contains("a2.pcm"));
    }
}

//! Playout-schedule computation — the client-side "preprocessing of the
//! received presentation scenario".
//!
//! §3.1: "every media stream S_i is recognized by its corresponding language
//! rule and a structure E_i is informed. This structure contains the stream's
//! timing parameters like start time t_i and duration d_i, the corresponding
//! data position in the temporary storage mechanisms (media buffers), and
//! other useful information. Acquiring this information, the playout
//! scheduler process can arrange the presentation of each media stream
//! according to its playout deadlines."

use crate::ids::ComponentId;
use crate::interval::Interval;
use crate::media_kind::MediaKind;
use crate::scenario::Scenario;
use crate::time::{MediaDuration, MediaTime};

/// The structure `E_i` of the paper: everything the playout scheduler needs
/// to present one media stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayoutEntry {
    /// The component this entry plays.
    pub component: ComponentId,
    /// Media kind (selects the presentation device / handler).
    pub kind: MediaKind,
    /// Relative playout start time `t_i` — the playout deadline.
    pub start: MediaTime,
    /// Playout duration `d_i` (clamped for open-ended components).
    pub duration: MediaDuration,
    /// Index of the media buffer this stream's data is staged in
    /// ("the corresponding data position in the temporary storage
    /// mechanisms"); assigned densely per continuous/buffered stream.
    pub buffer_slot: Option<usize>,
    /// Ids of the components this one must stay in sync with.
    pub sync_partners: Vec<ComponentId>,
}

impl PlayoutEntry {
    /// The playout interval `[t_i, t_i + d_i)`.
    pub fn interval(&self) -> Interval {
        Interval::from_start_duration(self.start, self.duration)
    }
    /// End of playout.
    pub fn end(&self) -> MediaTime {
        self.start + self.duration
    }
}

/// A discrete event on the presentation timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEventKind {
    /// A component's playout begins (its deadline).
    Start(ComponentId),
    /// A component's playout ends.
    Stop(ComponentId),
    /// A timed hyperlink auto-fires (index into `Scenario::links`).
    AutoLink(usize),
}

/// An instant plus what happens then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// When the event occurs (relative to presentation start).
    pub at: MediaTime,
    /// What occurs.
    pub kind: TimelineEventKind,
}

/// The complete playout schedule derived from a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayoutSchedule {
    /// One entry per media component, in deadline order (ties: id order).
    pub entries: Vec<PlayoutEntry>,
    /// All timeline events in chronological order. Start events sort before
    /// Stop events at the same instant so zero-gap sequences hand over
    /// cleanly; AutoLink events sort last at their instant.
    pub events: Vec<TimelineEvent>,
    /// The presentation end instant.
    pub end: MediaTime,
}

impl PlayoutSchedule {
    /// Build the schedule from a scenario — the paper's preprocessing step.
    ///
    /// Buffer slots are assigned densely, in deadline order, to every
    /// component that needs staged delivery (everything stored remotely;
    /// inline text needs no buffer).
    pub fn from_scenario(scenario: &Scenario) -> PlayoutSchedule {
        let end = scenario.presentation_end();
        let mut entries: Vec<PlayoutEntry> = scenario
            .components
            .iter()
            .map(|c| {
                let duration = match c.duration {
                    Some(d) => d,
                    None => end - c.start,
                };
                PlayoutEntry {
                    component: c.id,
                    kind: c.kind(),
                    start: c.start,
                    duration: duration.max(MediaDuration::ZERO),
                    buffer_slot: None,
                    sync_partners: scenario.sync_partners(c.id),
                }
            })
            .collect();
        entries.sort_by_key(|e| (e.start, e.component));
        let mut slot = 0usize;
        for e in &mut entries {
            let needs_buffer = match scenario.component(e.component) {
                Some(c) => matches!(c.content, crate::scenario::ComponentContent::Stored { .. }),
                None => false,
            };
            if needs_buffer {
                e.buffer_slot = Some(slot);
                slot += 1;
            }
        }

        let mut events = Vec::with_capacity(entries.len() * 2 + scenario.links.len());
        for e in &entries {
            events.push(TimelineEvent {
                at: e.start,
                kind: TimelineEventKind::Start(e.component),
            });
            events.push(TimelineEvent {
                at: e.end(),
                kind: TimelineEventKind::Stop(e.component),
            });
        }
        for (i, l) in scenario.links.iter().enumerate() {
            if let Some(at) = l.auto_at {
                events.push(TimelineEvent {
                    at,
                    kind: TimelineEventKind::AutoLink(i),
                });
            }
        }
        events.sort_by_key(|ev| {
            let rank = match ev.kind {
                TimelineEventKind::Start(_) => 0u8,
                TimelineEventKind::Stop(_) => 1,
                TimelineEventKind::AutoLink(_) => 2,
            };
            let id = match ev.kind {
                TimelineEventKind::Start(c) | TimelineEventKind::Stop(c) => c.raw(),
                TimelineEventKind::AutoLink(i) => i as u64,
            };
            (ev.at, rank, id)
        });
        PlayoutSchedule {
            entries,
            events,
            end,
        }
    }

    /// Entry for a component.
    pub fn entry(&self, id: ComponentId) -> Option<&PlayoutEntry> {
        self.entries.iter().find(|e| e.component == id)
    }

    /// Components whose playout interval contains instant `t`.
    pub fn active_at(&self, t: MediaTime) -> Vec<ComponentId> {
        self.entries
            .iter()
            .filter(|e| e.interval().contains_instant(t))
            .map(|e| e.component)
            .collect()
    }

    /// Render the schedule as a printable timeline table (used by the FIG2
    /// experiment and the examples).
    pub fn timeline_table(&self) -> String {
        let mut out = String::new();
        out.push_str("component  kind    start      end        duration   sync-with\n");
        for e in &self.entries {
            let partners = if e.sync_partners.is_empty() {
                "-".to_string()
            } else {
                e.sync_partners
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "{:<10} {:<7} {:>9} {:>10} {:>10}   {}\n",
                e.component.to_string(),
                e.kind.to_string(),
                e.start.to_string(),
                e.end().to_string(),
                e.duration.to_string(),
                partners
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DocumentId, ServerId};
    use crate::media_kind::Encoding;
    use crate::scenario::{
        ComponentContent, HyperLink, LinkKind, LinkTarget, MediaComponent, MediaSource, SyncGroup,
        TextBlock,
    };

    /// Build the exact Fig. 2 scenario from the paper: background text, image
    /// I1 at t=0 for d_i1, image I2 at t_i2 for d_i2, audio A1 synchronized
    /// with video V at t_a1 (both duration d_v), audio A2 at t_a2 for d_a2.
    pub fn figure2_scenario() -> Scenario {
        let doc = DocumentId::new(1);
        let srv = ServerId::new(0);
        let mut s = Scenario::new(doc, "figure-2");
        let stored = |id: u64, enc: Encoding, start_ms: i64, dur_ms: i64| MediaComponent {
            id: ComponentId::new(id),
            content: ComponentContent::Stored {
                source: MediaSource::new(srv, format!("m{id}")),
                encoding: enc,
            },
            start: MediaTime::from_millis(start_ms),
            duration: Some(MediaDuration::from_millis(dur_ms)),
            region: None,
            note: None,
        };
        // Background text visible throughout.
        s.components.push(MediaComponent {
            id: ComponentId::new(0),
            content: ComponentContent::Text(vec![TextBlock::ParagraphBreak]),
            start: MediaTime::ZERO,
            duration: None,
            region: None,
            note: None,
        });
        s.components.push(stored(1, Encoding::Jpeg, 0, 5_000)); // I1
        s.components.push(stored(2, Encoding::Jpeg, 5_000, 7_000)); // I2
        s.components.push(stored(3, Encoding::Pcm, 6_000, 8_000)); // A1
        s.components.push(stored(4, Encoding::Mpeg, 6_000, 8_000)); // V
        s.components.push(stored(5, Encoding::Pcm, 15_000, 4_000)); // A2
        s.sync_groups.push(SyncGroup {
            members: vec![ComponentId::new(3), ComponentId::new(4)],
        });
        s.links.push(HyperLink {
            kind: LinkKind::Sequential,
            target: LinkTarget::Local(DocumentId::new(2)),
            auto_at: Some(MediaTime::from_millis(19_000)),
            note: Some("next".into()),
        });
        s
    }

    #[test]
    fn entries_sorted_by_deadline() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        let starts: Vec<i64> = sched.entries.iter().map(|e| e.start.as_millis()).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        assert_eq!(starts, sorted);
        assert_eq!(sched.entries.len(), 6);
    }

    #[test]
    fn buffer_slots_only_for_stored_media() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        // Text is inline → no slot; the 5 stored components get slots 0..5.
        let text = sched.entry(ComponentId::new(0)).unwrap();
        assert_eq!(text.buffer_slot, None);
        let mut slots: Vec<usize> = sched.entries.iter().filter_map(|e| e.buffer_slot).collect();
        slots.sort();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sync_partners_propagate() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        let a1 = sched.entry(ComponentId::new(3)).unwrap();
        assert_eq!(a1.sync_partners, vec![ComponentId::new(4)]);
        let v = sched.entry(ComponentId::new(4)).unwrap();
        assert_eq!(v.sync_partners, vec![ComponentId::new(3)]);
    }

    #[test]
    fn events_chronological_with_start_before_stop() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        for w in sched.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // I1 stops at 5s exactly when I2 starts: Start(I2) must precede Stop(I1).
        let at5: Vec<_> = sched
            .events
            .iter()
            .filter(|e| e.at == MediaTime::from_millis(5_000))
            .collect();
        assert!(matches!(at5[0].kind, TimelineEventKind::Start(c) if c == ComponentId::new(2)));
        assert!(matches!(at5[1].kind, TimelineEventKind::Stop(c) if c == ComponentId::new(1)));
    }

    #[test]
    fn active_at_matches_figure2_timeline() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        // At t=7s: text, I2, A1, V are active.
        let active = sched.active_at(MediaTime::from_millis(7_000));
        assert_eq!(
            active,
            vec![
                ComponentId::new(0),
                ComponentId::new(2),
                ComponentId::new(3),
                ComponentId::new(4)
            ]
        );
        // At t=16s: text and A2.
        let active = sched.active_at(MediaTime::from_millis(16_000));
        assert_eq!(active, vec![ComponentId::new(0), ComponentId::new(5)]);
    }

    #[test]
    fn presentation_end_covers_link() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        assert_eq!(sched.end, MediaTime::from_millis(19_000));
        let link_ev = sched
            .events
            .iter()
            .find(|e| matches!(e.kind, TimelineEventKind::AutoLink(_)))
            .unwrap();
        assert_eq!(link_ev.at, MediaTime::from_millis(19_000));
    }

    #[test]
    fn timeline_table_lists_all_components() {
        let sched = PlayoutSchedule::from_scenario(&figure2_scenario());
        let table = sched.timeline_table();
        for e in &sched.entries {
            assert!(table.contains(&e.component.to_string()));
        }
    }
}

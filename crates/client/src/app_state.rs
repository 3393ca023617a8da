//! The application state machine of paper Fig. 4 (§5, "Functional
//! description"): connection, authentication, subscription, topic browsing,
//! document viewing with pause/resume, link following with server migration
//! (suspend + reconnect), and disconnection.

use hermes_core::{ServiceError, ServiceResult};
use std::collections::BTreeSet;
use std::fmt;

/// The states of the service's application protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AppState {
    /// Not connected to any server.
    #[default]
    Disconnected,
    /// Connection requested; authentication primitive running.
    Authenticating,
    /// Unknown user: filling in the subscription form.
    Subscribing,
    /// Connected; the list of available topics/lessons is on screen.
    Browsing,
    /// A document was requested; waiting for its presentation scenario.
    Requesting,
    /// A document is being presented.
    Viewing,
    /// Presentation paused by the user.
    Paused,
    /// Following a link to a document on another server: the old connection
    /// is suspended, a new connection is being established.
    Migrating,
}

/// Events (user actions and service responses) driving the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppEvent {
    /// User asks to connect to a server.
    Connect,
    /// Authentication succeeded (known subscriber).
    AuthOk,
    /// Authentication found no subscription: the form is presented.
    AuthUnknownUser,
    /// The subscription form was accepted.
    SubscriptionAccepted,
    /// Admission was rejected (network load / pricing).
    AdmissionRejected,
    /// User requests a document/lesson.
    RequestDocument,
    /// The presentation scenario arrived; playout begins (after prefill).
    ScenarioReceived,
    /// The requested document does not exist.
    RequestFailed,
    /// The presentation ran to completion.
    PresentationEnded,
    /// User pauses the presentation.
    Pause,
    /// User resumes a paused presentation.
    Resume,
    /// User reloads the current document.
    Reload,
    /// User follows a link to a document on the *same* server.
    FollowLocalLink,
    /// User follows a link to a document on *another* server: suspends the
    /// current connection.
    FollowRemoteLink,
    /// The new server accepted the migrated connection.
    MigrationComplete,
    /// The new server rejected the migration; fall back to the suspended
    /// connection's topic list.
    MigrationFailed,
    /// User disconnects from the service.
    Disconnect,
}

impl fmt::Display for AppState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl fmt::Display for AppEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl AppState {
    /// All states (for coverage matrices).
    pub const ALL: [AppState; 8] = [
        AppState::Disconnected,
        AppState::Authenticating,
        AppState::Subscribing,
        AppState::Browsing,
        AppState::Requesting,
        AppState::Viewing,
        AppState::Paused,
        AppState::Migrating,
    ];
}

impl AppEvent {
    /// All events (for coverage matrices).
    pub const ALL: [AppEvent; 17] = [
        AppEvent::Connect,
        AppEvent::AuthOk,
        AppEvent::AuthUnknownUser,
        AppEvent::SubscriptionAccepted,
        AppEvent::AdmissionRejected,
        AppEvent::RequestDocument,
        AppEvent::ScenarioReceived,
        AppEvent::RequestFailed,
        AppEvent::PresentationEnded,
        AppEvent::Pause,
        AppEvent::Resume,
        AppEvent::Reload,
        AppEvent::FollowLocalLink,
        AppEvent::FollowRemoteLink,
        AppEvent::MigrationComplete,
        AppEvent::MigrationFailed,
        AppEvent::Disconnect,
    ];
}

/// The legal transition function of Fig. 4. Returns the successor state, or
/// `None` when the event is not legal in the state.
pub fn transition(state: AppState, event: AppEvent) -> Option<AppState> {
    use AppEvent::*;
    use AppState::*;
    Some(match (state, event) {
        (Disconnected, Connect) => Authenticating,
        (Authenticating, AuthOk) => Browsing,
        (Authenticating, AuthUnknownUser) => Subscribing,
        (Authenticating, AdmissionRejected) => Disconnected,
        (Subscribing, SubscriptionAccepted) => Browsing,
        (Subscribing, Disconnect) => Disconnected,
        (Browsing, RequestDocument) => Requesting,
        (Browsing, FollowLocalLink) => Requesting,
        (Browsing, FollowRemoteLink) => Migrating,
        (Browsing, Disconnect) => Disconnected,
        (Requesting, ScenarioReceived) => Viewing,
        (Requesting, RequestFailed) => Browsing,
        (Requesting, Disconnect) => Disconnected,
        (Viewing, Pause) => Paused,
        (Viewing, PresentationEnded) => Browsing,
        (Viewing, Reload) => Requesting,
        (Viewing, FollowLocalLink) => Requesting,
        (Viewing, FollowRemoteLink) => Migrating,
        (Viewing, Disconnect) => Disconnected,
        (Paused, Resume) => Viewing,
        (Paused, Reload) => Requesting,
        (Paused, FollowLocalLink) => Requesting,
        (Paused, FollowRemoteLink) => Migrating,
        (Paused, Disconnect) => Disconnected,
        (Migrating, MigrationComplete) => Requesting,
        (Migrating, MigrationFailed) => Browsing,
        (Migrating, Disconnect) => Disconnected,
        _ => return None,
    })
}

/// A session-side state machine instance with a transition log.
#[derive(Debug, Clone, Default)]
pub struct AppStateMachine {
    state: AppState,
    /// Every transition taken: (from, event, to).
    pub log: Vec<(AppState, AppEvent, AppState)>,
}

impl AppStateMachine {
    /// A machine starting Disconnected.
    pub fn new() -> Self {
        Self::default()
    }
    /// Current state.
    pub fn state(&self) -> AppState {
        self.state
    }
    /// Apply an event; errors with `InvalidStateTransition` if illegal.
    pub fn apply(&mut self, event: AppEvent) -> ServiceResult<AppState> {
        match transition(self.state, event) {
            Some(next) => {
                self.log.push((self.state, event, next));
                self.state = next;
                Ok(next)
            }
            None => Err(ServiceError::InvalidStateTransition {
                state: self.state.to_string(),
                operation: event.to_string(),
            }),
        }
    }
    /// The set of distinct transitions exercised so far.
    pub fn covered(&self) -> BTreeSet<(AppState, AppEvent)> {
        self.log.iter().map(|(s, e, _)| (*s, *e)).collect()
    }
}

/// Enumerate every legal transition (for the FIG4 coverage experiment).
pub fn all_legal_transitions() -> Vec<(AppState, AppEvent, AppState)> {
    let mut v = Vec::new();
    for s in AppState::ALL {
        for e in AppEvent::ALL {
            if let Some(t) = transition(s, e) {
                v.push((s, e, t));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_session() {
        let mut m = AppStateMachine::new();
        for (e, expect) in [
            (AppEvent::Connect, AppState::Authenticating),
            (AppEvent::AuthUnknownUser, AppState::Subscribing),
            (AppEvent::SubscriptionAccepted, AppState::Browsing),
            (AppEvent::RequestDocument, AppState::Requesting),
            (AppEvent::ScenarioReceived, AppState::Viewing),
            (AppEvent::Pause, AppState::Paused),
            (AppEvent::Resume, AppState::Viewing),
            (AppEvent::FollowLocalLink, AppState::Requesting),
            (AppEvent::ScenarioReceived, AppState::Viewing),
            (AppEvent::FollowRemoteLink, AppState::Migrating),
            (AppEvent::MigrationComplete, AppState::Requesting),
            (AppEvent::ScenarioReceived, AppState::Viewing),
            (AppEvent::PresentationEnded, AppState::Browsing),
            (AppEvent::Disconnect, AppState::Disconnected),
        ] {
            assert_eq!(m.apply(e).unwrap(), expect, "after {e}");
        }
        assert_eq!(m.log.len(), 14);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut m = AppStateMachine::new();
        // Can't pause while disconnected.
        let e = m.apply(AppEvent::Pause).unwrap_err();
        assert!(matches!(e, ServiceError::InvalidStateTransition { .. }));
        assert_eq!(m.state(), AppState::Disconnected);
        // Can't connect twice.
        m.apply(AppEvent::Connect).unwrap();
        assert!(m.apply(AppEvent::Connect).is_err());
        // Can't resume a non-paused presentation.
        m.apply(AppEvent::AuthOk).unwrap();
        assert!(m.apply(AppEvent::Resume).is_err());
    }

    #[test]
    fn admission_rejection_returns_to_disconnected() {
        let mut m = AppStateMachine::new();
        m.apply(AppEvent::Connect).unwrap();
        assert_eq!(
            m.apply(AppEvent::AdmissionRejected).unwrap(),
            AppState::Disconnected
        );
    }

    #[test]
    fn migration_failure_falls_back_to_browsing() {
        let mut m = AppStateMachine::new();
        m.apply(AppEvent::Connect).unwrap();
        m.apply(AppEvent::AuthOk).unwrap();
        m.apply(AppEvent::RequestDocument).unwrap();
        m.apply(AppEvent::ScenarioReceived).unwrap();
        m.apply(AppEvent::FollowRemoteLink).unwrap();
        assert_eq!(
            m.apply(AppEvent::MigrationFailed).unwrap(),
            AppState::Browsing
        );
    }

    #[test]
    fn disconnect_reachable_from_every_connected_state() {
        // §5: "the user can issue a disconnect request from the service, at
        // any time."
        for s in AppState::ALL {
            if s == AppState::Disconnected || s == AppState::Authenticating {
                continue; // mid-handshake disconnect is modelled as rejection
            }
            assert_eq!(
                transition(s, AppEvent::Disconnect),
                Some(AppState::Disconnected),
                "from {s}"
            );
        }
    }

    #[test]
    fn every_state_reachable() {
        let legal = all_legal_transitions();
        let reachable: BTreeSet<AppState> = legal.iter().map(|(_, _, t)| *t).collect();
        for s in AppState::ALL {
            if s == AppState::Disconnected {
                continue; // initial
            }
            assert!(reachable.contains(&s), "{s} unreachable");
        }
    }

    #[test]
    fn transition_function_is_deterministic_total_on_legal_pairs() {
        let legal = all_legal_transitions();
        assert!(
            legal.len() >= 24,
            "expected a rich diagram, got {}",
            legal.len()
        );
        // No (state, event) pair maps to two targets (by construction, but
        // assert for regression safety).
        let pairs: BTreeSet<(AppState, AppEvent)> =
            legal.iter().map(|(s, e, _)| (*s, *e)).collect();
        assert_eq!(pairs.len(), legal.len());
    }

    #[test]
    fn coverage_tracking() {
        let mut m = AppStateMachine::new();
        m.apply(AppEvent::Connect).unwrap();
        m.apply(AppEvent::AuthOk).unwrap();
        let cov = m.covered();
        assert!(cov.contains(&(AppState::Disconnected, AppEvent::Connect)));
        assert_eq!(cov.len(), 2);
    }
}

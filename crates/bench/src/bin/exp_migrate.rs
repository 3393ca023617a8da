#![allow(clippy::field_reassign_with_default)]
//! EXP-MIGRATE — claim (§5): following a link to a document on another
//! server suspends the current connection; "the suspended connection remains
//! active for a period of time, in case the user requests to view a previous
//! selected document. When this interval is passed the connection closes and
//! the attached client is informed about the event."
//!
//! Sweep the user's revisit delay against the server's grace period and
//! report whether the suspended session survived.

use hermes_bench::{clip_lesson, judge_world, ExpOpts, Table};
use hermes_core::{LinkTarget, MediaDuration, MediaTime, ServerId};
use hermes_service::{install_course, ClientConfig, ServerConfig, WorldBuilder};
use hermes_simnet::{LinkSpec, SimRng};

/// Returns (session_alive_at_revisit, client_was_notified_of_expiry).
fn run(revisit_after_s: i64, grace_s: i64, seed: u64) -> (bool, bool) {
    let mut b = WorldBuilder::new(seed);
    let mut cfg1 = ServerConfig::default();
    cfg1.suspend_grace = MediaDuration::from_secs(grace_s);
    let s1 = b.add_server(ServerId::new(0), LinkSpec::lan(10_000_000), cfg1);
    let s2 = b.add_server(
        ServerId::new(1),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed.wrapping_add(1));
    let shape = clip_lesson(4);
    let home = install_course(
        sim.app_mut().server_mut(s1),
        "Home",
        &["a"],
        10,
        1,
        shape,
        &mut rng,
    );
    let away = install_course(
        sim.app_mut().server_mut(s2),
        "Away",
        &["b"],
        50,
        1,
        shape,
        &mut rng,
    );

    sim.with_api(|w, api| {
        w.client_mut(cli).connect(api, s1, Some(home[0]));
    });
    sim.run_until(MediaTime::from_secs(2));
    // Follow the remote link at t=2 s: the s1 session suspends.
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .follow_link(api, LinkTarget::Remote(ServerId::new(1), away[0]));
    });
    let revisit_at = MediaTime::from_secs(2 + revisit_after_s);
    sim.run_until(revisit_at);
    let alive = !sim.app().server(s1).sessions.is_empty();
    let mut resumed = false;
    if alive {
        // Revisit: resume the suspended connection.
        sim.with_api(|w, api| {
            if let Some((old_server, old_session)) = w.client_mut(cli).suspended.take() {
                resumed = true;
                api.send_reliable(
                    cli,
                    old_server,
                    hermes_service::ServiceMsg::ResumeSuspended {
                        session: old_session,
                    },
                );
            }
        });
    }
    sim.run_until(revisit_at + MediaDuration::from_secs(grace_s + 5));
    // Past the revisit, only the server's expiry notice clears the pointer.
    let notified = !resumed && sim.app().client(cli).suspended.is_none();
    judge_world(&mut sim, &[cli]);
    (alive, notified)
}

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let seed = opts.seed(13);
    let mut t = Table::new(vec![
        "grace (s)",
        "revisit after (s)",
        "session alive at revisit",
        "expiry notice",
        "outcome",
    ]);
    for &(grace, revisit) in &[(10i64, 5i64), (10, 20), (30, 20), (30, 45), (5, 4), (5, 30)] {
        let (alive, notified) = run(revisit, grace, seed);
        let expect_alive = revisit < grace;
        assert_eq!(
            alive, expect_alive,
            "grace {grace}s revisit {revisit}s: alive={alive}"
        );
        if !expect_alive {
            assert!(notified, "client must be informed of the expiry");
        }
        t.row(vec![
            grace.to_string(),
            revisit.to_string(),
            if alive { "yes" } else { "no (closed)" }.to_string(),
            if notified { "received" } else { "-" }.to_string(),
            if alive {
                "resumed on old server".to_string()
            } else {
                "reconnect required".to_string()
            },
        ]);
    }
    out.table(
        "EXP-MIGRATE — suspended-connection grace vs revisit delay",
        &t,
    );
    out.line(
        "expected shape: a revisit inside the grace window finds the session alive\n\
         and resumable; past the window the server has torn it down and the client\n\
         was informed — exactly the §5 suspend semantics.",
    );
}

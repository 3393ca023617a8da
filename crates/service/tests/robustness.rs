//! Robustness: stray, stale or malformed protocol traffic must never panic
//! an actor — sessions are torn down, clients crash, packets straggle.

use hermes_core::{
    ComponentId, DocumentId, MediaTime, PricingClass, QosMeasurement, ServerId, SessionId,
};
use hermes_rtp::{PayloadType, RtpPacket};
use hermes_service::{
    install_figure2, ClientConfig, MailMessage, ServerConfig, ServiceMsg, WorldBuilder,
};
use hermes_simnet::{LinkSpec, SimRng};
use std::sync::Arc;

fn world() -> (
    hermes_simnet::Sim<ServiceMsg, hermes_service::ServiceWorld>,
    hermes_core::NodeId,
    hermes_core::NodeId,
) {
    let mut b = WorldBuilder::new(91);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(91);
    let mut rng = SimRng::seed_from_u64(92);
    install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
    (sim, srv, cli)
}

#[test]
fn server_survives_messages_for_unknown_sessions() {
    let (mut sim, srv, cli) = world();
    let bogus = SessionId::new(999);
    sim.with_api(|_, api| {
        for msg in [
            ServiceMsg::DocRequest {
                session: bogus,
                document: DocumentId::new(1),
            },
            ServiceMsg::Pause { session: bogus },
            ServiceMsg::Resume { session: bogus },
            ServiceMsg::Disconnect { session: bogus },
            ServiceMsg::SuspendConnection { session: bogus },
            ServiceMsg::ResumeSuspended { session: bogus },
            ServiceMsg::DisableStream {
                session: bogus,
                component: ComponentId::new(1),
            },
            ServiceMsg::Feedback {
                session: bogus,
                rows: vec![hermes_client::FeedbackRow {
                    component: ComponentId::new(1),
                    measurement: QosMeasurement::idle(MediaTime::ZERO),
                    rr: None,
                }],
            },
            ServiceMsg::Subscribe {
                session: bogus,
                form: Arc::new(hermes_server::SubscriptionForm {
                    name: "x".into(),
                    address: "y".into(),
                    telephone: "z".into(),
                    email: "e".into(),
                    class: PricingClass::Economy,
                }),
            },
            ServiceMsg::SearchRequest {
                session: bogus,
                token: "x".into(),
                query: 1,
            },
        ] {
            api.send_reliable(cli, srv, msg);
        }
    });
    sim.run_until(MediaTime::from_secs(2));
    // Nothing crashed; no sessions exist.
    assert_eq!(sim.app().server(srv).sessions.len(), 0);
}

#[test]
fn client_survives_unsolicited_media_and_control() {
    let (mut sim, srv, cli) = world();
    // Send media/control to a client with no presentation at all.
    sim.with_api(|_, api| {
        api.send(
            srv,
            cli,
            ServiceMsg::RtpData {
                session: SessionId::new(5),
                component: ComponentId::new(3),
                packet: RtpPacket::synthetic(PayloadType::Mpeg, true, 9, 9, 9, 100),
                sent_at: MediaTime::ZERO,
            },
        );
        api.send_reliable(
            srv,
            cli,
            ServiceMsg::DiscreteData {
                session: SessionId::new(5),
                component: ComponentId::new(9),
                size: 100,
                total: 100,
                last: true,
                sent_at: MediaTime::ZERO,
            },
        );
        api.send_reliable(
            srv,
            cli,
            ServiceMsg::StreamStopped {
                session: SessionId::new(5),
                component: ComponentId::new(1),
            },
        );
        api.send_reliable(
            srv,
            cli,
            ServiceMsg::SuspendExpired {
                session: SessionId::new(5),
            },
        );
        api.send_reliable(srv, cli, ServiceMsg::MailBox { messages: vec![] });
    });
    sim.run_until(MediaTime::from_secs(1));
    let c = sim.app().client(cli);
    assert!(c.presentation.is_none());
}

#[test]
fn rtp_for_wrong_component_is_ignored() {
    let (mut sim, srv, cli) = world();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(2));
    // Inject RTP for a component id the scenario doesn't have.
    sim.with_api(|_, api| {
        api.send(
            srv,
            cli,
            ServiceMsg::RtpData {
                session: SessionId::new(1),
                component: ComponentId::new(77),
                packet: RtpPacket::synthetic(PayloadType::Pcm, true, 1, 1, 1, 100),
                sent_at: MediaTime::from_secs(2),
            },
        );
    });
    sim.run_until(MediaTime::from_secs(30));
    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    assert_eq!(c.completed.len(), 1, "presentation unaffected by stray RTP");
}

#[test]
fn user_operations_in_wrong_states_are_noops() {
    let (mut sim, srv, cli) = world();
    // Pause/resume/reload/search/back before ever connecting.
    sim.with_api(|w, api| {
        let c = w.client_mut(cli);
        c.pause(api);
        c.resume(api);
        c.reload(api);
        assert!(!c.back(api));
        assert!(!c.forward(api));
        c.disconnect(api);
        assert_eq!(c.search(api, "x"), 0);
    });
    sim.run_until(MediaTime::from_secs(1));
    // Still able to run a normal session afterwards.
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(30));
    let c = sim.app().client(cli);
    assert_eq!(c.completed.len(), 1);
}

#[test]
fn mail_fetch_for_empty_mailbox() {
    let (mut sim, srv, cli) = world();
    sim.with_api(|w, api| {
        w.client_mut(cli).connect(api, srv, None);
    });
    sim.run_until(MediaTime::from_secs(1));
    sim.with_api(|w, api| {
        w.client_mut(cli).fetch_mail(api, "nobody@hermes");
        w.client_mut(cli).send_mail(
            api,
            MailMessage {
                from: "user@hermes".into(),
                to: "void@hermes".into(),
                subject: "".into(),
                body: "".into(),
                attachments: vec![],
            },
        );
    });
    sim.run_until(MediaTime::from_secs(2));
    assert!(sim.app().client(cli).mailbox.is_empty());
}

//! Grading golden test: one small world in which all three regrade paths
//! fire — client QoS feedback (`qos_*`), the per-server degradation ladder
//! (`ladder_*`) and the hosted fleet controller (`ctrl_*`) — pinned by the
//! count of each regrade trace name, the regrade / stop notices the clients
//! received, an FNV digest of those events, and each session's utility
//! integral to the bit. The literals were printed at de1b432, while the
//! three paths each had their own code in `server_actor.rs`; none may move
//! unasked: a regrade, touch, send or emit that changes order or count
//! moves them (`util_acc` is a float sum, so even a moved utility touch
//! shows).
//!
//! The world is `common/mod.rs`'s (one server, two tight media nodes,
//! twelve clients over three lessons of one image + a 10 s clip) with the
//! ladder on and the controller hosted on the server. Every client's access
//! link carries 90 % cross traffic from 3 s to 6 s (feedback degrades, then
//! upgrades); both media nodes serve 40× slower from 4 s to 8 s (the ladder
//! and the controller degrade, then restore); three clients leave at 7 s,
//! and two hand-made controller commands must be dropped as stale.

mod common;

use common::{build_with, connect, ms};
use hermes_control::ControllerConfig;
use hermes_core::{MediaTime, SessionId};
use hermes_service::{MediaTierConfig, ServiceMsg};
use hermes_simnet::{CongestionEpoch, CongestionProfile, FaultKind, LinkSpec};

/// The regrade trace names, counted in this order.
const NAMES: [&str; 12] = [
    "qos_degrade",
    "qos_upgrade",
    "qos_stop",
    "ladder_degrade",
    "ladder_restore",
    "ctrl_degrade_cmd",
    "ctrl_upgrade_cmd",
    "ctrl_degrade",
    "ctrl_upgrade",
    "ctrl_stale",
    "stream_regraded",
    "stream_stopped",
];

fn fnv1a(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per name in [`NAMES`] its event count; the digest of those events (name,
/// node, time, labels, value); each live session's `util_acc` bits at 8 s,
/// and the server's closed-session ledger bits at 40 s.
type Pin<'a> = ([usize; 12], u64, &'a [(u64, u64)], u64);

#[test]
fn regrade_golden() {
    let mut access = LinkSpec::lan(10_000_000);
    access.congestion = CongestionProfile::new(vec![CongestionEpoch {
        start: ms(3_000),
        end: ms(6_000),
        load: 0.9,
        extra_loss: 0.02,
    }]);
    let tier = MediaTierConfig {
        ladder: true,
        ..Default::default()
    };
    let mut w = build_with(tier, access);
    let srv = w.srv;
    w.sim
        .with_api(|world, api| world.enable_control(api, srv, ControllerConfig::default()));
    for &node in &w.media {
        w.sim
            .inject_fault(ms(4_000), FaultKind::NodeSlow { node, factor: 40 });
        w.sim
            .inject_fault(ms(8_000), FaultKind::NodeNominal { node });
    }
    connect(&mut w);
    w.sim.run_until(ms(7_000));
    for &c in &w.clients[..3] {
        w.sim
            .with_api(|world, api| world.client_mut(c).disconnect(api));
    }
    // Two commands the server must drop as stale: one for a session that
    // has just left, one for a session whose streams have all ended.
    let stale = |w: &mut common::World, session: u64, upgrade: bool| {
        let (from, msg) = (
            w.clients[0],
            ServiceMsg::ControlRegrade {
                session: SessionId::new(session),
                upgrade,
                epoch: 1,
            },
        );
        w.sim.with_api(|_, api| api.send_reliable(from, srv, msg));
    };
    stale(&mut w, 1, false);
    w.sim.run_until(ms(8_000));
    let server = w.sim.app().server(srv);
    let utils: Vec<(u64, u64)> = server
        .sessions
        .iter()
        .map(|(sid, s)| (sid.raw(), s.util_acc.to_bits()))
        .collect();
    w.sim.run_until(ms(30_000));
    stale(&mut w, 4, true);
    w.sim.run_until(MediaTime::from_secs(40));
    let server = w.sim.app().server(srv);

    let mut counts = [0usize; 12];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in w.sim.obs().events() {
        let Some(i) = NAMES.iter().position(|n| *n == e.name) else {
            continue;
        };
        counts[i] += 1;
        let (at, labels) = (e.at.as_micros(), e.labels());
        fnv1a(
            &mut h,
            &format!("{} {} {at} {labels:?} {}\n", e.name, e.node(), e.value),
        );
    }
    let got: Pin = (counts, h, &utils, server.util_closed.to_bits());
    assert_eq!(got, GOLDEN);
}

const GOLDEN: Pin = (
    [52, 8, 2, 5, 5, 15, 60, 15, 60, 2, 148, 2],
    17878408860599978542,
    &[
        (4, 4631854263458659834),
        (5, 4631406155295736469),
        (6, 4631192234313436372),
        (7, 4631034608326478404),
        (8, 4630967054332067845),
        (9, 4630717104552748783),
        (10, 4630588751963368724),
        (11, 4630077593405662172),
        (12, 4629024876992764318),
    ],
    4638800502933925401,
);

//! FIG2 — reproduce the paper's example scenario (Fig. 2) end to end:
//! parse the markup, print the playout timeline (the figure's lower half),
//! render the desktop storyboard (the figure's upper half), then stream it
//! through the full service and verify playout matched the authored timing.

use hermes_bench::{ExpOpts, Table};
use hermes_client::{desktop_at, PlayoutEventKind};
use hermes_core::{ComponentId, DocumentId, MediaTime, PlayoutSchedule, ServerId};
use hermes_hml::{scenario_from_markup, FIGURE2_MARKUP};
use hermes_service::{install_figure2, ClientConfig, ServerConfig, WorldBuilder};
use hermes_simnet::{LinkSpec, SimRng};

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let scenario =
        scenario_from_markup(FIGURE2_MARKUP, DocumentId::new(1), ServerId::new(0)).unwrap();
    let schedule = PlayoutSchedule::from_scenario(&scenario);

    // The timeline of the figure's lower half.
    out.line("== Fig. 2 (lower half) — playout timelines ==");
    out.line(&schedule.timeline_table());

    // Paper timeline checks: I1 [0,5), I2 [5,12), A1∥V [6,14), A2 [15,19).
    let expect = [
        (1, 0, 5_000),
        (2, 5_000, 12_000),
        (3, 6_000, 14_000),
        (4, 6_000, 14_000),
        (5, 15_000, 19_000),
    ];
    for (id, start, end) in expect {
        let e = schedule.entry(ComponentId::new(id)).unwrap();
        assert_eq!(e.start, MediaTime::from_millis(start), "cmp-{id} start");
        assert_eq!(e.end(), MediaTime::from_millis(end), "cmp-{id} end");
    }
    out.line("authored timeline matches the paper's figure ✓\n");

    // The desktop at the figure's sample instants (upper half).
    let mut t = Table::new(vec!["instant", "visible/audible components"]);
    for ms in [0, 3_000, 7_000, 13_000, 16_000] {
        let items = desktop_at(&scenario, &schedule, MediaTime::from_millis(ms));
        let desc = items
            .iter()
            .map(|i| format!("{}({})", i.kind, i.component))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(vec![format!("{}s", ms / 1000), desc]);
    }
    out.table("Fig. 2 (upper half) — desktop contents over time", &t);

    // Interval-algebra analysis: the Allen relation between every component
    // pair (the paper's interval-based-model lineage, [LIT 93]).
    let mut t = Table::new(vec!["a", "b", "Allen relation"]);
    for (a, b, rel) in scenario.temporal_relations() {
        t.row(vec![a.to_string(), b.to_string(), format!("{rel:?}")]);
    }
    out.table("temporal relations between components (Allen algebra)", &t);

    // Stream it through the full service and compare achieved vs authored
    // start times.
    let seed = opts.seed(2);
    let mut b = WorldBuilder::new(seed);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    // The achieved-start table below reads the engine's `Started` events.
    let mut client_cfg = ClientConfig::default();
    client_cfg.playout.record_events = true;
    let cli = b.add_client(LinkSpec::lan(10_000_000), client_cfg);
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed.wrapping_add(1));
    install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(30));

    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    let p = c.presentation.as_ref().unwrap();
    let t0 = p.engine.presentation_start.unwrap();
    let mut t = Table::new(vec![
        "component",
        "authored t_i",
        "achieved start",
        "offset(ms)",
    ]);
    for ev in &p.engine.events {
        if let PlayoutEventKind::Started = ev.kind {
            let authored = schedule.entry(ev.component).map(|e| e.start).unwrap();
            let achieved = ev.at - t0;
            let off = achieved.as_millis() - authored.as_millis();
            t.row(vec![
                ev.component.to_string(),
                authored.to_string(),
                format!("{:.3}s", achieved.as_secs_f64()),
                off.to_string(),
            ]);
            assert!(
                off.abs() <= 40,
                "start offset for {} is {off} ms",
                ev.component
            );
        }
    }
    out.table("streamed playout vs authored scenario (clean network)", &t);
    let (_, startup, skew) = c.completed[0];
    out.line(&format!(
        "startup delay {startup}, max A/V skew {skew}, glitches {}",
        p.engine.total_stats().glitches
    ));
    out.line("FIG2 reproduction ✓");
}

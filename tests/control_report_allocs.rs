//! A control report is built once and shared: building a server's report
//! costs the same three allocations for one session as for two hundred, a
//! media node's queue report costs none, and neither the copies a server
//! sends nor the controller's `ingest` allocate at all. The controller's
//! fleet view borrows the reports' rows, so the view and a control tick
//! cost the same for one session per server as for two hundred.
//!
//! The count is per thread (the test harness allocates on others), taken by
//! a global allocator that wraps the system one.

use hermes_od::control::{ControllerConfig, FleetController, LoadReport, StreamView};
use hermes_od::core::{MediaKind, MediaTime, PricingClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made while running `f`.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let r = f();
    (allocations() - before, r)
}

/// One server's report over `sessions` live sessions of an audio and a
/// video stream each, built the way the server actor builds it.
fn server_report(server: u64, sessions: u64) -> LoadReport {
    let streams = |level| {
        [(1, MediaKind::Audio), (2, MediaKind::Video)]
            .into_iter()
            .map(move |(component, kind)| StreamView {
                component,
                kind,
                level,
                max_level: 3,
            })
    };
    let rows = (0..sessions).map(move |s| {
        let class = PricingClass::ALL[(s % 3) as usize];
        (server * 1_000 + s, class, streams((s % 4) as u8))
    });
    LoadReport::server(server, Some(0.0), Some(1_500.0), rows)
}

#[test]
fn building_a_report_costs_the_same_for_any_fleet() {
    let (one, small) = allocs_of(|| server_report(1, 1));
    let (many, large) = allocs_of(|| server_report(1, 200));
    assert!(allocations() > 0, "the counting allocator is not installed");
    assert_eq!(small.entries(), 2 + 1 + 3 * 2);
    assert_eq!(large.entries(), 2 + 200 + 3 * 400);
    assert!(one <= 3, "{one} allocations for a one-session report");
    assert_eq!(one, many, "allocations grow with the session count");
    let (queue, _) = allocs_of(|| LoadReport::queue(7));
    assert_eq!(queue, 0, "allocations for a queue report");
}

/// Allocations of the fleet view (the fresh reports' handles and the view
/// borrowing them), of a tick inside the calm window and of
/// a pressured tick, over three servers of `sessions` sessions each and a
/// media node whose queue presses.
fn tick_costs(sessions: u64) -> (u64, u64, u64) {
    let cfg = ControllerConfig {
        max_steps_per_tick: 1,
        ..ControllerConfig::default()
    };
    let mut ctl = FleetController::new(cfg);
    for server in 1..=3 {
        ctl.ingest(MediaTime::ZERO, server, server_report(server, sessions));
    }
    let now = MediaTime::from_millis(100);
    let (view, n) = allocs_of(|| FleetController::fleet_view(&ctl.fresh_reports(now)).len());
    assert_eq!(n as u64, 3 * sessions);
    let (calm, plan) = allocs_of(|| ctl.tick(now));
    assert!(plan.commands.is_empty() && !plan.pressured());
    ctl.ingest(now, 4, LoadReport::queue(20));
    let (pressured, plan) = allocs_of(|| ctl.tick(now));
    // One degrade (the per-tick cap) and the price rise.
    assert!(plan.pressured() && plan.commands.len() == 2, "{plan:?}");
    (view, calm, pressured)
}

#[test]
fn the_fleet_view_and_a_tick_cost_the_same_for_any_fleet() {
    let (view, calm, pressured) = tick_costs(1);
    assert!(view <= 2, "{view} allocations for the fleet view");
    assert!(
        calm <= 2,
        "{calm} allocations for a tick with nothing to plan"
    );
    assert_eq!(
        tick_costs(200),
        (view, calm, pressured),
        "allocations of the view, a calm and a pressured tick grow with the session count"
    );
}

#[test]
fn copies_and_ingest_allocate_nothing() {
    let reports: Vec<LoadReport> = (1..=3).map(|server| server_report(server, 200)).collect();
    let mut ctl = FleetController::new(ControllerConfig::default());
    // The first report from a node adds its slot; later ones replace it.
    for (i, r) in reports.iter().enumerate() {
        ctl.ingest(MediaTime::ZERO, i as u64 + 1, r.clone());
    }
    let (copies, ()) = allocs_of(|| {
        for r in &reports {
            for _ in 0..8 {
                black_box(r.clone());
            }
        }
    });
    assert_eq!(copies, 0, "allocations copying a report to its recipients");
    let (ingests, ()) = allocs_of(|| {
        for t in 1..=20 {
            let now = MediaTime::from_millis(100 * t);
            for (i, r) in reports.iter().enumerate() {
                ctl.ingest(now, i as u64 + 1, r.clone());
            }
        }
    });
    assert_eq!(ingests, 0, "allocations in FleetController::ingest");
    let fresh = ctl.fresh_reports(MediaTime::from_secs(2));
    assert_eq!(FleetController::fleet_view(&fresh).len(), 600);
}

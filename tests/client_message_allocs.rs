//! The client's periodic and enrolment messages cost a fixed number of
//! allocations: a feedback report is one vector of per-stream rows,
//! whatever its number of streams, and the subscription form is one shared
//! value — the default config, the `Subscribe` message, the server's user
//! record and each replica hold it without copying.
//!
//! The count is per thread (the test harness allocates on others), taken by
//! a global allocator that wraps the system one.

use hermes_od::client::ClientQosManager;
use hermes_od::core::{ComponentId, Encoding, MediaDuration, MediaTime, SessionId, UserId, VecMap};
use hermes_od::rtp::{PayloadType, RtcpPacket, RtpPacket, RtpReceiver};
use hermes_od::server::AccountsDb;
use hermes_od::service::{ClientConfig, ServiceMsg};
use hermes_od::simnet::WireSize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// A QoS manager tracking `streams` streams, each with a receiver that
/// lost every other packet of ten.
fn lossy_client(streams: u64) -> (ClientQosManager, VecMap<ComponentId, RtpReceiver>) {
    let mut qos = ClientQosManager::default();
    let mut receivers = VecMap::new();
    for c in 1..=streams {
        let component = ComponentId::new(c);
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        for seq in (0..10u16).step_by(2) {
            let ts = seq as u32 * 3_600;
            let p = RtpPacket::synthetic(PayloadType::Mpeg, true, seq, ts, c as u32, 500);
            rx.on_packet(&p, MediaTime::from_millis(seq as i64 * 40));
            qos.stream_mut(component)
                .on_packet(MediaDuration::from_millis(20));
        }
        receivers.insert(component, rx);
    }
    (qos, receivers)
}

#[test]
fn a_feedback_report_costs_one_allocation_for_any_stream_count() {
    assert!(
        allocs_of(|| Box::new(1)).0 > 0,
        "the counting allocator is not installed"
    );
    for streams in [1, 4] {
        let (mut qos, mut receivers) = lossy_client(streams);
        let (n, msg) = allocs_of(|| {
            let rows = qos.make_report(MediaTime::from_secs(1), Some(&mut receivers));
            ServiceMsg::Feedback {
                session: SessionId::new(1),
                rows,
            }
        });
        assert_eq!(n, 1, "allocations for a {streams}-stream feedback report");
        let ServiceMsg::Feedback { rows, .. } = &msg else {
            unreachable!()
        };
        assert!(rows
            .iter()
            .all(|r| r.rr.is_some() && r.measurement.loss_fraction > 0.4));
        // 16 bytes, 48 per row and one single-block receiver report per row.
        let rr = RtcpPacket::ReceiverReport {
            ssrc: 0,
            reports: vec![rows[0].rr.unwrap()],
        };
        assert_eq!(
            msg.wire_size(),
            16 + streams as usize * (48 + rr.wire_size())
        );
    }
}

#[test]
fn the_subscription_form_is_shared_not_copied() {
    // The default form is built once per process, by the first default.
    drop(ClientConfig::default());
    let (n, cfg) = allocs_of(ClientConfig::default);
    assert_eq!(n, 0, "allocations for a default client config");
    // Each database already holds a user, so a second one fits the maps'
    // nodes and only the form's copies could allocate.
    let mut dbs: Vec<AccountsDb> = (0..3).map(|_| AccountsDb::new()).collect();
    for db in &mut dbs {
        db.subscribe(Arc::clone(&cfg.form));
    }
    let (n, ()) = allocs_of(|| {
        let msg = ServiceMsg::Subscribe {
            session: SessionId::new(1),
            form: Arc::clone(&cfg.form),
        };
        let ServiceMsg::Subscribe { form, .. } = msg else {
            unreachable!()
        };
        let (home, replicas) = dbs.split_first_mut().unwrap();
        let user = home.subscribe(Arc::clone(&form));
        for db in replicas {
            db.register_replica(user, Arc::clone(&form));
        }
    });
    assert_eq!(n, 0, "allocations to subscribe and replicate a form");
    assert!(dbs.iter().all(|db| db.len() == 2));
    let replica = dbs[2].user(UserId::new(1)).unwrap();
    assert!(Arc::ptr_eq(&replica.form, &cfg.form));
}

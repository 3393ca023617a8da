//! Property tests on the media-tier segment cache: byte capacity is a hard
//! bound, eviction follows exact LRU order (skipping pinned objects), and
//! the interval-caching admission policy keeps shared-viewer and pinned
//! segments resident while one-off fetches pass straight through.
//!
//! The cache is driven against a straightforward reference model (a recency
//! vector plus a byte map) under arbitrary operation sequences over several
//! objects at two grade levels; any divergence — in residency, order,
//! accounting or the admitted / rejected / evicted counts — fails the
//! property.

use hermes_od::core::GradeLevel;
use hermes_od::media::SegmentFrame;
use hermes_od::server::{SegmentCache, SegmentKey};
use proptest::prelude::*;
use std::collections::BTreeMap;

const CAPACITY: u64 = 2_000;

fn object(o: u8) -> String {
    format!("obj-{o}")
}

fn object_of(k: &SegmentKey) -> u8 {
    k.object["obj-".len()..].parse().unwrap()
}

fn key(o: u8, level: u8, segment: u64) -> SegmentKey {
    SegmentKey {
        object: object(o),
        level: GradeLevel(level),
        segment,
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Offer a segment: (object, level, segment, frame size, frame count).
    Insert(u8, u8, u64, u32, u8),
    /// Look a segment up: (object, level, segment).
    Get(u8, u8, u64),
    /// A stream over the object started.
    ReaderStart(u8),
    /// A stream over the object ended.
    ReaderEnd(u8),
    /// A shared flow pinned the object.
    Pin(u8),
    /// The shared flow ended.
    Unpin(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u8..3), (0u8..2), (0u64..8), (50u32..300), (1u8..4))
            .prop_map(|(o, l, s, sz, n)| Op::Insert(o, l, s, sz, n)),
        ((0u8..3), (0u8..2), (0u64..8)).prop_map(|(o, l, s)| Op::Get(o, l, s)),
        (0u8..3).prop_map(Op::ReaderStart),
        (0u8..3).prop_map(Op::ReaderEnd),
        (0u8..3).prop_map(Op::Pin),
        (0u8..3).prop_map(Op::Unpin),
    ]
}

/// Drive one operation sequence through the cache next to a reference model,
/// checking every invariant after each step.
fn check_ops(ops: &[Op]) -> Result<(), String> {
    macro_rules! ensure {
        ($cond:expr, $($fmt:tt)+) => {
            if !($cond) {
                return Err(format!($($fmt)+));
            }
        };
    }
    let mut c = SegmentCache::new(CAPACITY);
    // Reference model: recency order (LRU first), bytes per resident key,
    // readers per object, pins per object (each group holds its own) and
    // the expected statistics.
    let mut order: Vec<SegmentKey> = Vec::new();
    let mut bytes_of: BTreeMap<SegmentKey, u64> = BTreeMap::new();
    let mut readers: BTreeMap<u8, u32> = BTreeMap::new();
    let mut pinned: BTreeMap<u8, u32> = BTreeMap::new();
    let mut stats = c.stats;
    for o in ops {
        match *o {
            Op::Pin(obj) => {
                c.pin(&object(obj));
                *pinned.entry(obj).or_insert(0) += 1;
            }
            Op::Unpin(obj) => {
                c.unpin(&object(obj));
                if let Some(n) = pinned.get_mut(&obj) {
                    *n -= 1;
                    if *n == 0 {
                        pinned.remove(&obj);
                    }
                }
            }
            Op::ReaderStart(obj) => {
                c.reader_started(&object(obj));
                *readers.entry(obj).or_insert(0) += 1;
            }
            Op::ReaderEnd(obj) => {
                c.reader_finished(&object(obj));
                let r = readers.entry(obj).or_insert(0);
                *r = r.saturating_sub(1);
            }
            Op::Get(obj, level, seg) => {
                let k = key(obj, level, seg);
                let hit = c.get(&k).is_some();
                let resident = order.contains(&k);
                ensure!(
                    hit == resident,
                    "get({k:?}) hit={hit}, model says {resident}"
                );
                stats.hits += hit as u64;
                stats.misses += !hit as u64;
                if hit {
                    // A hit refreshes recency: the key moves to the MRU end.
                    let pos = order.iter().position(|x| *x == k).unwrap();
                    let k = order.remove(pos);
                    order.push(k);
                }
            }
            Op::Insert(obj, level, seg, size, n) => {
                let k = key(obj, level, seg);
                let frames = vec![SegmentFrame { size, key: true }; n as usize];
                let b = size as u64 * n as u64;
                let admitted = c.insert(k.clone(), frames);
                let open = *readers.get(&obj).unwrap_or(&0) >= 2 || pinned.contains_key(&obj);
                let mut should = open && b <= CAPACITY;
                if should {
                    // A replaced entry goes first, whatever follows.
                    if let Some(pos) = order.iter().position(|x| *x == k) {
                        order.remove(pos);
                        bytes_of.remove(&k);
                    }
                    // Evict the least recently used unpinned segment until
                    // the new one fits; with none left, refuse it.
                    let mut used: u64 = bytes_of.values().sum();
                    while used + b > CAPACITY {
                        let evictable = |x: &SegmentKey| !pinned.contains_key(&object_of(x));
                        let Some(pos) = order.iter().position(evictable) else {
                            should = false;
                            break;
                        };
                        let victim = order.remove(pos);
                        used -= bytes_of.remove(&victim).unwrap();
                        stats.evicted += 1;
                    }
                    if should {
                        order.push(k.clone());
                        bytes_of.insert(k.clone(), b);
                    }
                }
                ensure!(
                    admitted == should,
                    "insert({k:?}) admitted={admitted}, readers={:?}, pinned={}",
                    readers.get(&obj),
                    pinned.contains_key(&obj)
                );
                stats.admitted += admitted as u64;
                stats.rejected += !admitted as u64;
            }
        }
        ensure!(
            c.stats == stats,
            "statistics diverged:\n cache={:?}\n model={stats:?}",
            c.stats
        );
        // Hard invariants after every operation.
        ensure!(
            c.used_bytes() <= CAPACITY,
            "capacity exceeded: {} > {CAPACITY}",
            c.used_bytes()
        );
        let model_used: u64 = bytes_of.values().sum();
        ensure!(
            c.used_bytes() == model_used,
            "byte accounting diverged: cache={} model={model_used}",
            c.used_bytes()
        );
        ensure!(
            c.lru_order() == order,
            "LRU order diverged:\n cache={:?}\n model={order:?}",
            c.lru_order()
        );
        ensure!(c.len() == order.len(), "entry count diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any sequence of inserts, lookups, reader churn and pins at two
    /// grade levels: capacity is never exceeded, residency and eviction
    /// follow exact LRU order with pinned objects exempt, byte accounting
    /// and the statistics balance, and admission tracks the ≥2-readers (or
    /// pinned) interval policy precisely.
    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(op(), 0..200)) {
        if let Err(e) = check_ops(&ops) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Interval caching's point: segments of an object two viewers share stay
/// resident (and produce hits), while a single viewer's segments are never
/// admitted — they cannot displace the shared working set.
#[test]
fn shared_viewer_segments_stay_resident_solo_pass_through() {
    let mut c = SegmentCache::new(CAPACITY);
    c.reader_started("shared");
    c.reader_started("shared");
    c.reader_started("solo");
    for seg in 0..4 {
        assert!(c.insert(
            SegmentKey {
                object: "shared".into(),
                level: GradeLevel::NOMINAL,
                segment: seg,
            },
            vec![
                SegmentFrame {
                    size: 100,
                    key: true
                };
                2
            ],
        ));
        assert!(!c.insert(
            SegmentKey {
                object: "solo".into(),
                level: GradeLevel::NOMINAL,
                segment: seg,
            },
            vec![
                SegmentFrame {
                    size: 100,
                    key: true
                };
                2
            ],
        ));
    }
    // Every shared segment is still resident and hits; no solo segment is.
    for seg in 0..4 {
        assert!(c
            .get(&SegmentKey {
                object: "shared".into(),
                level: GradeLevel::NOMINAL,
                segment: seg,
            })
            .is_some());
        assert!(c
            .get(&SegmentKey {
                object: "solo".into(),
                level: GradeLevel::NOMINAL,
                segment: seg,
            })
            .is_none());
    }
    assert_eq!(c.stats.admitted, 4);
    assert_eq!(c.stats.rejected, 4);
    assert_eq!(c.stats.hits, 4);
}

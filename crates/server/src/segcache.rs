//! The segment cache fronting the distributed media tier.
//!
//! A byte-bounded LRU over fetched media segments with *interval-caching*
//! admission: a segment is admitted only while at least two streams are
//! concurrently reading its object, so what stays resident is the interval
//! between consecutive viewers of the same content — the working set that
//! actually produces hits — while one-off fetches pass straight through
//! without evicting anything useful (Dan & Sitaram's interval caching, as
//! used throughout the large-scale VoD literature).
//!
//! Object names are interned once per distinct object, so a lookup, a hit
//! and an admission key the cache by a `Copy` (object id, level, segment)
//! and allocate nothing; a resident segment shares the fetched frame list.

use hermes_core::GradeLevel;
use hermes_media::SegmentFrame;
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;

/// Identity of one cached segment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentKey {
    /// The media object's storage key.
    pub object: String,
    /// Quality level the frames were computed at.
    pub level: GradeLevel,
    /// Segment index within the object.
    pub segment: u64,
}

/// A segment's identity inside the cache: (interned object, level, segment).
type Slot = (u32, GradeLevel, u64);

#[derive(Debug, Clone)]
struct Entry {
    frames: Arc<[SegmentFrame]>,
    bytes: u64,
    stamp: u64,
}

/// Cache statistics (the experiment tables' raw data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Segments admitted.
    pub admitted: u64,
    /// Inserts refused by the interval-caching admission policy.
    pub rejected: u64,
    /// Segments evicted to make room.
    pub evicted: u64,
}

impl SegmentCacheStats {
    /// Hit rate in [0, 1]; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Byte-bounded LRU segment cache with interval-caching admission.
#[derive(Debug, Clone, Default)]
pub struct SegmentCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Interned object names: name → id. An object is interned the first
    /// time it is read, pinned or offered, and kept for the cache's life.
    objects: BTreeMap<String, u32>,
    entries: BTreeMap<Slot, Entry>,
    /// Recency index: stamp → slot. Stamps are unique (monotone clock), so
    /// the first entry is always the least recently used.
    recency: BTreeMap<u64, Slot>,
    clock: u64,
    /// Active readers per object — maintained by the stream lifecycle
    /// (register on stream start, deregister on teardown). Admission
    /// requires ≥ 2: a segment is only worth keeping while another viewer
    /// is behind (or beside) the one that fetched it.
    readers: BTreeMap<u32, u32>,
    /// Objects pinned by shared (multicast) flows: their segments are
    /// admitted regardless of reader count and are exempt from LRU
    /// eviction while the pin holds — a shared flow serves many viewers
    /// from one fetch sequence, so its working set must not be displaced
    /// by one-off unicast traffic. A count, not a set: two overlapping
    /// groups for one document each hold a pin.
    pinned: BTreeMap<u32, u32>,
    /// Statistics.
    pub stats: SegmentCacheStats,
}

impl SegmentCache {
    /// A cache bounded to `capacity_bytes` of frame payload.
    pub fn new(capacity_bytes: u64) -> Self {
        SegmentCache {
            capacity_bytes,
            ..SegmentCache::default()
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }
    /// Number of resident segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The id of `object`, if it was ever interned.
    fn id(&self, object: &str) -> Option<u32> {
        self.objects.get(object).copied()
    }

    /// The id of `object`, interning it on first sight.
    fn intern(&mut self, object: &str) -> u32 {
        if let Some(id) = self.id(object) {
            return id;
        }
        let id = u32::try_from(self.objects.len()).expect("fewer than 2^32 objects");
        self.objects.insert(object.to_string(), id);
        id
    }

    /// A stream over `object` started.
    pub fn reader_started(&mut self, object: &str) {
        let id = self.intern(object);
        *self.readers.entry(id).or_insert(0) += 1;
    }

    /// A stream over `object` ended.
    pub fn reader_finished(&mut self, object: &str) {
        drop_one(self.id(object), &mut self.readers);
    }

    /// Pin `object`: admit its segments unconditionally and protect them
    /// from eviction until every pin is [`unpin`](SegmentCache::unpin)ned.
    pub fn pin(&mut self, object: &str) {
        let id = self.intern(object);
        *self.pinned.entry(id).or_insert(0) += 1;
    }

    /// Drop one pin on `object`; when none is left its resident segments
    /// return to normal LRU life.
    pub fn unpin(&mut self, object: &str) {
        drop_one(self.id(object), &mut self.pinned);
    }

    /// Is `object` currently pinned?
    pub fn is_pinned(&self, object: &str) -> bool {
        self.id(object)
            .is_some_and(|id| self.pinned.contains_key(&id))
    }

    /// Would an insert for `object` currently be admitted?
    pub fn admits(&self, object: &str) -> bool {
        self.id(object).is_some_and(|id| self.admits_id(id))
    }

    fn admits_id(&self, id: u32) -> bool {
        let shared = self.readers.get(&id).is_some_and(|&n| n >= 2);
        self.capacity_bytes > 0 && (shared || self.pinned.contains_key(&id))
    }

    /// Look up a segment, refreshing its recency on a hit. Counts a hit or
    /// miss in [`SegmentCacheStats`]. The frames are shared, not copied.
    pub fn lookup(
        &mut self,
        object: &str,
        level: GradeLevel,
        segment: u64,
    ) -> Option<&Arc<[SegmentFrame]>> {
        let entry = self
            .id(object)
            .and_then(|id| self.entries.get_mut(&(id, level, segment)));
        let Some(entry) = entry else {
            self.stats.misses += 1;
            return None;
        };
        let slot = self
            .recency
            .remove(&entry.stamp)
            .expect("every entry has a recency slot");
        self.clock += 1;
        entry.stamp = self.clock;
        self.recency.insert(entry.stamp, slot);
        self.stats.hits += 1;
        Some(&entry.frames)
    }

    /// [`lookup`](Self::lookup) by a whole key.
    pub fn get(&mut self, key: &SegmentKey) -> Option<&Arc<[SegmentFrame]>> {
        self.lookup(&key.object, key.level, key.segment)
    }

    /// Peek without touching recency or statistics (tests/inspection).
    pub fn contains(&self, key: &SegmentKey) -> bool {
        self.id(&key.object)
            .is_some_and(|id| self.entries.contains_key(&(id, key.level, key.segment)))
    }

    /// Offer a fetched segment. Admission applies the interval-caching
    /// policy ([`SegmentCache::admits`]); an admitted segment evicts from
    /// the LRU end until it fits. Segments larger than the whole cache are
    /// rejected. Returns whether the segment is now resident.
    pub fn offer(
        &mut self,
        object: &str,
        level: GradeLevel,
        segment: u64,
        frames: Arc<[SegmentFrame]>,
    ) -> bool {
        let bytes = hermes_media::segment_bytes(&frames);
        let fits = bytes <= self.capacity_bytes && !frames.is_empty();
        let admitted = self.id(object).filter(|&id| fits && self.admits_id(id));
        let Some(id) = admitted else {
            self.stats.rejected += 1;
            return false;
        };
        let slot = (id, level, segment);
        if let Some(old) = self.entries.remove(&slot) {
            // Replacing an existing entry: drop its bytes and recency slot.
            self.recency.remove(&old.stamp);
            self.used_bytes -= old.bytes;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            // Oldest entry whose object is not pinned; if only pinned
            // segments remain, there is nothing evictable — reject the
            // insert rather than displace a shared flow's working set.
            let Some(stamp) = self
                .recency
                .iter()
                .find(|(_, s)| !self.pinned.contains_key(&s.0))
                .map(|(&stamp, _)| stamp)
            else {
                self.stats.rejected += 1;
                return false;
            };
            let victim = self.recency.remove(&stamp).unwrap();
            let evicted = self.entries.remove(&victim).unwrap();
            self.used_bytes -= evicted.bytes;
            self.stats.evicted += 1;
        }
        self.clock += 1;
        let stamp = self.clock;
        self.entries.insert(
            slot,
            Entry {
                frames,
                bytes,
                stamp,
            },
        );
        self.recency.insert(stamp, slot);
        self.used_bytes += bytes;
        self.stats.admitted += 1;
        true
    }

    /// [`offer`](Self::offer) by a whole key.
    pub fn insert(&mut self, key: SegmentKey, frames: impl Into<Arc<[SegmentFrame]>>) -> bool {
        self.offer(&key.object, key.level, key.segment, frames.into())
    }

    /// Resident segment keys, least recently used first (tests/inspection).
    pub fn lru_order(&self) -> Vec<SegmentKey> {
        let mut names = vec![""; self.objects.len()];
        for (name, &id) in &self.objects {
            names[id as usize] = name;
        }
        let key = |&(id, level, segment): &Slot| SegmentKey {
            object: names[id as usize].to_string(),
            level,
            segment,
        };
        self.recency.values().map(key).collect()
    }
}

/// Take one off `id`'s count, forgetting it at zero.
fn drop_one(id: Option<u32>, counts: &mut BTreeMap<u32, u32>) {
    if let Some(btree_map::Entry::Occupied(mut n)) = id.map(|id| counts.entry(id)) {
        *n.get_mut() -= 1;
        if *n.get() == 0 {
            n.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(object: &str, segment: u64) -> SegmentKey {
        SegmentKey {
            object: object.to_string(),
            level: GradeLevel::NOMINAL,
            segment,
        }
    }

    fn frames(n: usize, size: u32) -> Vec<SegmentFrame> {
        vec![SegmentFrame { size, key: true }; n]
    }

    /// A cache with `obj` shared by two readers (admission open).
    fn shared(capacity: u64, obj: &str) -> SegmentCache {
        let mut c = SegmentCache::new(capacity);
        c.reader_started(obj);
        c.reader_started(obj);
        c
    }

    #[test]
    fn single_reader_segments_are_not_admitted() {
        let mut c = SegmentCache::new(1 << 20);
        c.reader_started("v");
        assert!(!c.insert(key("v", 0), frames(4, 100)));
        assert!(c.is_empty());
        assert_eq!(c.stats.rejected, 1);
        // A second concurrent viewer opens admission.
        c.reader_started("v");
        assert!(c.insert(key("v", 1), frames(4, 100)));
        assert_eq!(c.len(), 1);
        // Last viewer leaving closes it again.
        c.reader_finished("v");
        c.reader_finished("v");
        assert!(!c.insert(key("v", 2), frames(4, 100)));
    }

    #[test]
    fn capacity_is_never_exceeded_and_lru_evicts_first() {
        let mut c = shared(1_000, "v");
        assert!(c.insert(key("v", 0), frames(1, 400)));
        assert!(c.insert(key("v", 1), frames(1, 400)));
        assert_eq!(c.used_bytes(), 800);
        // Touch segment 0 so segment 1 is now the LRU victim.
        assert!(c.get(&key("v", 0)).is_some());
        assert!(c.insert(key("v", 2), frames(1, 400)));
        assert!(c.used_bytes() <= 1_000);
        assert!(c.contains(&key("v", 0)), "recently used evicted");
        assert!(!c.contains(&key("v", 1)), "LRU survived");
        assert!(c.contains(&key("v", 2)));
        assert_eq!(c.stats.evicted, 1);
    }

    #[test]
    fn oversized_segment_rejected_zero_capacity_inert() {
        let mut c = shared(100, "v");
        assert!(!c.insert(key("v", 0), frames(1, 400)));
        assert!(c.is_empty());
        let mut z = shared(0, "v");
        assert!(!z.admits("v"));
        assert!(!z.insert(key("v", 0), frames(1, 1)));
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let mut c = shared(1_000, "v");
        assert!(c.get(&key("v", 0)).is_none());
        c.insert(key("v", 0), frames(2, 100));
        assert_eq!(c.get(&key("v", 0)).map(|f| f.len()), Some(2));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pinned_objects_admit_and_resist_eviction() {
        let mut c = SegmentCache::new(1_000);
        // No readers at all: a pinned object is still admitted.
        c.pin("hot");
        assert!(c.admits("hot"));
        assert!(c.insert(key("hot", 0), frames(1, 400)));
        // A shared-by-readers object fills the rest, then needs room: the
        // pinned entry is skipped and the unpinned LRU goes instead.
        c.reader_started("v");
        c.reader_started("v");
        assert!(c.insert(key("v", 0), frames(1, 400)));
        assert!(c.insert(key("v", 1), frames(1, 400)));
        assert!(c.contains(&key("hot", 0)), "pinned entry evicted");
        assert!(!c.contains(&key("v", 0)), "unpinned LRU survived");
        // Unpinning returns the object to normal admission + LRU life.
        c.unpin("hot");
        assert!(!c.admits("hot"));
        assert!(c.insert(key("v", 2), frames(1, 400)));
        assert!(!c.contains(&key("hot", 0)), "unpinned entry still immune");
    }

    #[test]
    fn fully_pinned_cache_rejects_instead_of_looping() {
        let mut c = SegmentCache::new(500);
        c.pin("a");
        c.pin("b");
        assert!(c.insert(key("a", 0), frames(1, 400)));
        // No unpinned victim exists and the newcomer does not fit: the
        // insert must be refused, not spin or evict a pinned segment.
        assert!(!c.insert(key("b", 0), frames(1, 400)));
        assert!(c.contains(&key("a", 0)));
        assert_eq!(c.stats.rejected, 1);
    }

    #[test]
    fn reinsert_replaces_without_double_counting_bytes() {
        let mut c = shared(1_000, "v");
        c.insert(key("v", 0), frames(1, 300));
        c.insert(key("v", 0), frames(1, 500));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 500);
        assert_eq!(c.lru_order(), vec![key("v", 0)]);
    }
}

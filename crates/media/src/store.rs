//! The media store — the per-media-server database of inline media objects.
//!
//! "The inline data that compose the document may reside on their own media
//! servers attached to the multimedia server" (§2). An object is synthetic:
//! its metadata (encoding, duration, content seed) fully determines the
//! deterministic frame sequence a [`FrameSource`] generates for it.

use crate::frames::FrameSource;
use hermes_core::{ComponentId, Encoding, MediaDuration, MediaKind};
use std::collections::BTreeMap;

/// Metadata of one stored media object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaObject {
    /// Storage key (the `SOURCE` object name).
    pub key: String,
    /// Encoding of the stored data.
    pub encoding: Encoding,
    /// Intrinsic duration of the content (images/text: presentation-
    /// independent, used only for sizing).
    pub duration: MediaDuration,
    /// Content seed driving the deterministic frame sizes.
    pub seed: u64,
}

impl MediaObject {
    /// The media kind of the object.
    pub fn kind(&self) -> MediaKind {
        self.encoding.kind()
    }
    /// Open a frame source streaming this object for component `component`,
    /// clipped to `duration` (the scenario's `DURATION` may be shorter than
    /// the intrinsic duration).
    pub fn open(&self, component: ComponentId, duration: MediaDuration) -> FrameSource {
        let d = duration.min(self.duration);
        FrameSource::new(component, self.encoding, self.seed, d)
    }
}

/// A key → object map; one per media server.
#[derive(Debug, Clone, Default)]
pub struct MediaStore {
    objects: BTreeMap<String, MediaObject>,
}

impl MediaStore {
    /// Empty store.
    pub fn new() -> Self {
        MediaStore::default()
    }
    /// Insert (or replace) an object.
    pub fn insert(&mut self, object: MediaObject) {
        self.objects.insert(object.key.clone(), object);
    }
    /// Convenience: create and insert an object.
    pub fn add(
        &mut self,
        key: impl Into<String>,
        encoding: Encoding,
        duration: MediaDuration,
        seed: u64,
    ) -> &MediaObject {
        let key = key.into();
        self.insert(MediaObject {
            key: key.clone(),
            encoding,
            duration,
            seed,
        });
        self.objects.get(&key).unwrap()
    }
    /// Look up by key.
    pub fn get(&self, key: &str) -> Option<&MediaObject> {
        self.objects.get(key)
    }
    /// Open a frame source for a stored object without cloning its
    /// metadata — the per-stream handle the delivery path should use.
    pub fn open(
        &self,
        key: &str,
        component: ComponentId,
        duration: MediaDuration,
    ) -> Option<FrameSource> {
        self.objects.get(key).map(|o| o.open(component, duration))
    }
    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }
    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
    /// Iterate all objects in key order.
    pub fn iter(&self) -> impl Iterator<Item = &MediaObject> {
        self.objects.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_iterate() {
        let mut s = MediaStore::new();
        assert!(s.is_empty());
        s.add("v.mpg", Encoding::Mpeg, MediaDuration::from_secs(10), 1);
        s.add("a.pcm", Encoding::Pcm, MediaDuration::from_secs(10), 2);
        s.add("i.jpg", Encoding::Jpeg, MediaDuration::from_secs(1), 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("v.mpg").unwrap().encoding, Encoding::Mpeg);
        assert!(s.get("missing").is_none());
        // BTreeMap iteration is key-ordered.
        let keys: Vec<&str> = s.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(keys, vec!["a.pcm", "i.jpg", "v.mpg"]);
    }

    #[test]
    fn open_clips_to_requested_duration() {
        let mut s = MediaStore::new();
        s.add("v.mpg", Encoding::Mpeg, MediaDuration::from_secs(10), 1);
        let obj = s.get("v.mpg").unwrap();
        // Scenario asks for only 2 s of the 10 s object.
        let frames = obj
            .open(ComponentId::new(5), MediaDuration::from_secs(2))
            .collect_all();
        assert_eq!(frames.len(), 50);
        assert_eq!(frames[0].component, ComponentId::new(5));
        // Asking for more than the object holds clips to the object.
        let frames = obj
            .open(ComponentId::new(5), MediaDuration::from_secs(60))
            .collect_all();
        assert_eq!(frames.len(), 250);
    }

    #[test]
    fn replace_overwrites() {
        let mut s = MediaStore::new();
        s.add("x", Encoding::Gif, MediaDuration::from_secs(1), 1);
        s.add("x", Encoding::Bmp, MediaDuration::from_secs(1), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("x").unwrap().encoding, Encoding::Bmp);
    }
}

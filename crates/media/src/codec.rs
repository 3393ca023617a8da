//! Codec rate models.
//!
//! The service never inspects media content — it schedules, transmits,
//! buffers and grades *frames of known size and deadline*. Each supported
//! encoding (paper Fig. 5: GIF/TIFF/BMP/JPEG images, PCM/ADPCM/VADPCM audio,
//! AVI/MPEG video) is modelled by its frame cadence and its per-quality-level
//! frame sizes. Quality levels form the grading ladder the Media Stream
//! Quality Converter walks: "increasing video compression factor or
//! decreasing audio sampling frequency" (§4).

use hermes_core::{Encoding, GradeLevel, MediaDuration, MediaKind};

/// Parameters of one quality level of a continuous encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelParams {
    /// Frames (or audio blocks) per second at this level.
    pub frame_rate: u32,
    /// Mean frame/block payload size in bytes.
    pub mean_frame_bytes: u32,
}

const fn lv(frame_rate: u32, mean_frame_bytes: u32) -> LevelParams {
    LevelParams {
        frame_rate,
        mean_frame_bytes,
    }
}

impl LevelParams {
    /// Frame period.
    pub fn frame_period(&self) -> MediaDuration {
        MediaDuration::from_micros(1_000_000 / self.frame_rate as i64)
    }
    /// Mean bandwidth at this level, bits/second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.mean_frame_bytes as u64 * 8 * self.frame_rate as u64
    }
}

/// The rate model of a continuous encoding: an ordered list of levels,
/// best first.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecModel {
    /// Which encoding this models.
    pub encoding: Encoding,
    /// Levels, index = grade level.
    pub levels: Vec<LevelParams>,
    /// Key-frame group size (GoP) — every `gop`-th video frame is a key
    /// frame roughly `key_scale`× the mean size. 0 disables (audio).
    pub gop: u32,
    /// Key-frame size multiplier (×100, integer to stay exact).
    pub key_scale_pct: u32,
}

impl CodecModel {
    /// The model for an encoding. Image/text encodings have a single-level
    /// "model" used only for quality-graded still transfers.
    pub fn for_encoding(encoding: Encoding) -> CodecModel {
        use Encoding::*;
        let (levels, gop, key_scale_pct): (Vec<LevelParams>, u32, u32) = match encoding {
            Mpeg => (
                vec![
                    lv(25, 7_500), // 25fps Q1 (1.5 Mbps)
                    lv(25, 5_000), // 25fps Q2 (1.0 Mbps)
                    lv(25, 3_000), // 25fps Q3 (600 kbps)
                    lv(15, 3_000), // 15fps Q3 (360 kbps)
                    lv(10, 2_500), // 10fps Q4 (200 kbps)
                ],
                12,
                300,
            ),
            Avi => (
                // Motion-JPEG-like: every frame independent (gop 1).
                vec![
                    lv(25, 12_000), // 25fps MJPEG hi (2.4 Mbps)
                    lv(25, 8_000),  // 25fps MJPEG med (1.6 Mbps)
                    lv(15, 8_000),  // 15fps MJPEG med (960 kbps)
                    lv(10, 6_000),  // 10fps MJPEG lo (480 kbps)
                ],
                1,
                100,
            ),
            Pcm => (
                // 20 ms blocks; sampling frequency halves down the ladder.
                vec![
                    lv(50, 1_764), // 44.1 kHz 16-bit (706 kbps)
                    lv(50, 882),   // 22.05 kHz 16-bit (353 kbps)
                    lv(50, 441),   // 11.025 kHz 16-bit (176 kbps)
                ],
                0,
                100,
            ),
            Adpcm => (
                vec![
                    lv(50, 441), // 44.1 kHz ADPCM 4:1 (176 kbps)
                    lv(50, 220), // 22.05 kHz ADPCM (88 kbps)
                    lv(50, 110), // 11.025 kHz ADPCM (44 kbps)
                ],
                0,
                100,
            ),
            Vadpcm => (
                vec![
                    lv(50, 330), // VADPCM hi (132 kbps)
                    lv(50, 165), // VADPCM med (66 kbps)
                    lv(50, 83),  // VADPCM lo (33 kbps)
                ],
                0,
                100,
            ),
            Jpeg => (
                vec![
                    lv(1, 60_000), // JPEG Q90
                    lv(1, 30_000), // JPEG Q60
                    lv(1, 15_000), // JPEG Q30
                ],
                0,
                100,
            ),
            Gif => (
                vec![
                    lv(1, 45_000), // GIF 256c
                    lv(1, 25_000), // GIF 64c
                ],
                0,
                100,
            ),
            Tiff => (
                vec![
                    lv(1, 200_000), // TIFF lossless
                ],
                0,
                100,
            ),
            Bmp => (
                vec![
                    lv(1, 300_000), // BMP raw
                ],
                0,
                100,
            ),
            PlainText => (
                vec![
                    lv(1, 2_000), // text
                ],
                0,
                100,
            ),
        };
        CodecModel {
            encoding,
            levels,
            gop,
            key_scale_pct,
        }
    }

    /// The media kind this codec serves.
    pub fn kind(&self) -> MediaKind {
        self.encoding.kind()
    }

    /// Deepest grade level this codec supports.
    pub fn max_level(&self) -> GradeLevel {
        GradeLevel((self.levels.len() - 1) as u8)
    }

    /// The level parameters at a grade level (clamped to the ladder depth).
    pub fn level(&self, level: GradeLevel) -> &LevelParams {
        let i = (level.0 as usize).min(self.levels.len() - 1);
        &self.levels[i]
    }

    /// Size in bytes of frame number `seq` at `level`, deterministic in
    /// `(seed, seq)`: key frames are scaled up, and a ±12.5% pseudo-random
    /// variation models content-dependent sizes.
    pub fn frame_size(&self, seed: u64, seq: u64, level: GradeLevel) -> u32 {
        let p = self.level(level);
        let base = if self.gop > 1 && seq.is_multiple_of(self.gop as u64) {
            (p.mean_frame_bytes as u64 * self.key_scale_pct as u64 / 100) as u32
        } else if self.gop > 1 {
            // Non-key frames shrink so the GoP mean stays ≈ mean_frame_bytes.
            let g = self.gop as u64;
            let ks = self.key_scale_pct as u64;
            let non_key = (p.mean_frame_bytes as u64 * (100 * g - ks)) / (100 * (g - 1));
            non_key as u32
        } else {
            p.mean_frame_bytes
        };
        // xorshift-style hash for a stable ±12.5% variation.
        let mut h = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        let jitter = (h % 2500) as i64 - 1250; // ±12.5% in tenths of a percent
        let size = base as i64 + base as i64 * jitter / 10_000;
        size.max(16) as u32
    }

    /// Whether frame `seq` is a key frame (always true for audio blocks and
    /// gop-1 codecs — every unit is independently decodable).
    pub fn is_key_frame(&self, seq: u64) -> bool {
        self.gop <= 1 || seq.is_multiple_of(self.gop as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_encoding_has_a_model() {
        for e in Encoding::ALL {
            let m = CodecModel::for_encoding(e);
            assert!(!m.levels.is_empty(), "{e}");
            assert_eq!(m.encoding, e);
            assert_eq!(m.kind(), e.kind());
        }
    }

    #[test]
    fn ladders_are_monotone() {
        // Degrading never costs more bandwidth, on every encoding's ladder.
        for e in Encoding::ALL {
            let m = CodecModel::for_encoding(e);
            for l in 0..m.max_level().0 {
                let (hi, lo) = (m.level(GradeLevel(l)), m.level(GradeLevel(l + 1)));
                assert!(lo.bandwidth_bps() <= hi.bandwidth_bps(), "{e} level {l}");
            }
        }
    }

    #[test]
    fn mpeg_bandwidth_matches_labels() {
        let m = CodecModel::for_encoding(Encoding::Mpeg);
        assert_eq!(m.level(GradeLevel(0)).bandwidth_bps(), 1_500_000);
        assert_eq!(m.level(GradeLevel(1)).bandwidth_bps(), 1_000_000);
        assert_eq!(m.level(GradeLevel(4)).bandwidth_bps(), 200_000);
    }

    #[test]
    fn audio_grading_halves_sampling() {
        let m = CodecModel::for_encoding(Encoding::Pcm);
        let b0 = m.level(GradeLevel(0)).bandwidth_bps();
        let b1 = m.level(GradeLevel(1)).bandwidth_bps();
        assert_eq!(b0, b1 * 2);
    }

    #[test]
    fn frame_sizes_deterministic_and_varied() {
        let m = CodecModel::for_encoding(Encoding::Mpeg);
        let a: Vec<u32> = (0..100)
            .map(|i| m.frame_size(7, i, GradeLevel(0)))
            .collect();
        let b: Vec<u32> = (0..100)
            .map(|i| m.frame_size(7, i, GradeLevel(0)))
            .collect();
        assert_eq!(a, b);
        let c: Vec<u32> = (0..100)
            .map(|i| m.frame_size(8, i, GradeLevel(0)))
            .collect();
        assert_ne!(a, c);
        // Variation exists.
        assert!(a.iter().any(|&x| x != a[0]));
    }

    #[test]
    fn key_frames_bigger_and_periodic() {
        let m = CodecModel::for_encoding(Encoding::Mpeg);
        assert!(m.is_key_frame(0));
        assert!(!m.is_key_frame(1));
        assert!(m.is_key_frame(12));
        let key = m.frame_size(1, 0, GradeLevel(0));
        let non_key = m.frame_size(1, 1, GradeLevel(0));
        assert!(key > non_key * 2, "key {key} non-key {non_key}");
    }

    #[test]
    fn gop_mean_close_to_nominal() {
        let m = CodecModel::for_encoding(Encoding::Mpeg);
        let n = 1200u64; // 100 GoPs
        let total: u64 = (0..n)
            .map(|i| m.frame_size(3, i, GradeLevel(0)) as u64)
            .sum();
        let mean = total as f64 / n as f64;
        let nominal = m.level(GradeLevel(0)).mean_frame_bytes as f64;
        assert!(
            (mean - nominal).abs() / nominal < 0.05,
            "mean {mean} vs {nominal}"
        );
    }

    #[test]
    fn audio_blocks_are_all_key() {
        let m = CodecModel::for_encoding(Encoding::Adpcm);
        assert!((0..100).all(|i| m.is_key_frame(i)));
    }

    #[test]
    fn frame_period_from_rate() {
        let m = CodecModel::for_encoding(Encoding::Pcm);
        assert_eq!(
            m.level(GradeLevel(0)).frame_period(),
            MediaDuration::from_millis(20)
        );
        let v = CodecModel::for_encoding(Encoding::Mpeg);
        assert_eq!(
            v.level(GradeLevel(0)).frame_period(),
            MediaDuration::from_micros(40_000)
        );
    }

    #[test]
    fn level_clamps_beyond_ladder() {
        let m = CodecModel::for_encoding(Encoding::Gif);
        assert_eq!(m.level(GradeLevel(9)), m.level(GradeLevel(1)));
        assert_eq!(m.max_level(), GradeLevel(1));
    }
}

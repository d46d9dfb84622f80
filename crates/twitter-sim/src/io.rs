//! JSON corpus interchange format.
//!
//! A [`CorpusFile`] is the on-disk representation used by the `hisrect`
//! CLI and by anyone importing real data: POIs as vertex rings plus raw
//! timelines. Loading goes through [`crate::builder::CorpusBuilder`], so
//! imported corpora get exactly the §6.1.1/§6.1.2 treatment.

use crate::builder::{CorpusBuilder, RawTweet};
use crate::dataset::Dataset;
use geo::{GeoPoint, Poi, Polygon};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// Why a corpus file could not be loaded or saved.
#[derive(Debug)]
pub enum CorpusError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The bytes are not valid JSON.
    Parse(String),
    /// The JSON parsed but violates the corpus schema (wrong shape, a POI
    /// with fewer than three vertices, non-finite coordinates, …).
    Schema(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "corpus i/o error: {e}"),
            Self::Parse(d) => write!(f, "corpus is not valid JSON: {d}"),
            Self::Schema(d) => write!(f, "corpus schema violation: {d}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A POI as stored on disk: a name and its polygon vertex ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoiSpec {
    /// Human-readable name.
    pub name: String,
    /// `[lat, lon]` vertices (at least three).
    pub vertices: Vec<(f64, f64)>,
}

/// One user's raw timeline on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineSpec {
    /// User identifier.
    pub uid: u32,
    /// Raw tweets (may be unsorted; the loader sorts).
    pub tweets: Vec<RawTweet>,
}

/// The interchange schema: everything needed to rebuild a [`Dataset`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusFile {
    /// Dataset label.
    pub name: String,
    /// Pairing threshold Δt in seconds.
    pub delta_t: i64,
    /// The POI universe.
    pub pois: Vec<PoiSpec>,
    /// All user timelines.
    pub timelines: Vec<TimelineSpec>,
}

impl CorpusFile {
    /// Exports a dataset (typically a simulated one) into the interchange
    /// schema. Token streams are rejoined with spaces (the `</s>` stopword
    /// placeholder is written back as a literal stopword so that
    /// re-importing — which re-runs the §6.1.2 preprocessing — restores
    /// the exact token stream).
    pub fn from_dataset(ds: &Dataset) -> Self {
        Self {
            name: ds.name.clone(),
            delta_t: ds.delta_t,
            pois: ds
                .world
                .pois
                .pois()
                .iter()
                .map(|p| PoiSpec {
                    name: p.name.clone(),
                    vertices: p
                        .polygon
                        .vertices()
                        .iter()
                        .map(|v| (v.lat, v.lon))
                        .collect(),
                })
                .collect(),
            timelines: ds
                .timelines
                .iter()
                .map(|tl| TimelineSpec {
                    uid: tl.uid,
                    tweets: tl
                        .tweets
                        .iter()
                        .map(|t| RawTweet {
                            ts: t.ts,
                            text: t
                                .tokens
                                .iter()
                                .map(|tok| {
                                    if tok == text::UNK_SYMBOL {
                                        "the"
                                    } else {
                                        tok.as_str()
                                    }
                                })
                                .collect::<Vec<_>>()
                                .join(" "),
                            lat: t.geo.map(|g| g.lat),
                            lon: t.geo.map(|g| g.lon),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a [`Dataset`] (splits are reshuffled with `seed`).
    pub fn to_dataset(&self, seed: u64) -> Dataset {
        let pois: Vec<Poi> = self
            .pois
            .iter()
            .map(|spec| Poi {
                id: 0,
                name: spec.name.clone(),
                polygon: Polygon::new(
                    spec.vertices
                        .iter()
                        .map(|&(lat, lon)| GeoPoint::new(lat, lon))
                        .collect(),
                ),
            })
            .collect();
        let mut builder = CorpusBuilder::new(&self.name, pois)
            .delta_t(self.delta_t)
            .seed(seed);
        for tl in &self.timelines {
            builder.push_timeline(tl.uid, tl.tweets.clone());
        }
        builder.build()
    }

    /// Writes the corpus as JSON.
    pub fn save(&self, path: &Path) -> Result<(), CorpusError> {
        let json = serde_json::to_string(self).map_err(|e| CorpusError::Parse(e.to_string()))?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads and validates a corpus written by [`CorpusFile::save`].
    /// Unreadable files, non-JSON bytes, de-schema'd JSON and semantic
    /// violations come back as distinct [`CorpusError`] variants.
    pub fn load(path: &Path) -> Result<Self, CorpusError> {
        let json = std::fs::read_to_string(path)?;
        let file: Self = match serde_json::from_str(&json) {
            Ok(file) => file,
            Err(e) => {
                // "JSON of the wrong shape" still parses as a generic
                // value; "not JSON at all" does not.
                return Err(
                    if serde_json::from_str::<serde_json::Value>(&json).is_ok() {
                        CorpusError::Schema(e.to_string())
                    } else {
                        CorpusError::Parse(e.to_string())
                    },
                );
            }
        };
        file.validate()?;
        Ok(file)
    }

    /// Semantic schema checks beyond what deserialization enforces.
    pub fn validate(&self) -> Result<(), CorpusError> {
        if self.delta_t <= 0 {
            return Err(CorpusError::Schema(format!(
                "delta_t must be positive, got {}",
                self.delta_t
            )));
        }
        for (k, poi) in self.pois.iter().enumerate() {
            if poi.vertices.len() < 3 {
                return Err(CorpusError::Schema(format!(
                    "poi {k} (`{}`) has {} vertices; a polygon needs at least 3",
                    poi.name,
                    poi.vertices.len()
                )));
            }
            for &(lat, lon) in &poi.vertices {
                if !(lat.is_finite() && lon.is_finite()) {
                    return Err(CorpusError::Schema(format!(
                        "poi {k} (`{}`) has a non-finite vertex ({lat}, {lon})",
                        poi.name
                    )));
                }
            }
        }
        for tl in &self.timelines {
            for t in &tl.tweets {
                if t.lat.is_some() != t.lon.is_some() {
                    return Err(CorpusError::Schema(format!(
                        "uid {}: tweet at ts {} has only one of lat/lon",
                        tl.uid, t.ts
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, SimConfig};

    #[test]
    fn export_import_round_trip_preserves_structure() {
        let ds = generate(&SimConfig::tiny(13));
        let file = CorpusFile::from_dataset(&ds);
        assert_eq!(file.pois.len(), ds.world.pois.len());
        assert_eq!(file.timelines.len(), ds.timelines.len());

        let rebuilt = file.to_dataset(13);
        assert_eq!(rebuilt.world.pois.len(), ds.world.pois.len());
        assert_eq!(rebuilt.timelines.len(), ds.timelines.len());
        // Same geo-tagged tweets → same profile count and identical labels.
        assert_eq!(rebuilt.profiles.len(), ds.profiles.len());
        for (a, b) in ds.profiles.iter().zip(&rebuilt.profiles) {
            assert_eq!(a.uid, b.uid);
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.tokens, b.tokens, "tokenization must round-trip");
        }
    }

    #[test]
    fn load_errors_are_typed() {
        let dir = std::env::temp_dir().join("hisrect-corpus-err-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file → Io.
        let missing = dir.join("no-such-corpus.json");
        assert!(matches!(
            CorpusFile::load(&missing),
            Err(CorpusError::Io(_))
        ));

        // Garbage bytes → Parse.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{\"name\": truncated mid tok").unwrap();
        assert!(matches!(
            CorpusFile::load(&garbage),
            Err(CorpusError::Parse(_))
        ));

        // Valid JSON of the wrong shape → Schema.
        let wrong = dir.join("wrong-shape.json");
        std::fs::write(&wrong, "{\"whatever\": [1, 2, 3]}").unwrap();
        assert!(matches!(
            CorpusFile::load(&wrong),
            Err(CorpusError::Schema(_))
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_corpus_is_a_parse_error() {
        let ds = generate(&SimConfig::tiny(15));
        let file = CorpusFile::from_dataset(&ds);
        let dir = std::env::temp_dir().join("hisrect-corpus-trunc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        file.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            CorpusFile::load(&path),
            Err(CorpusError::Parse(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn semantic_violations_are_schema_errors() {
        let ds = generate(&SimConfig::tiny(16));
        let mut file = CorpusFile::from_dataset(&ds);
        file.pois[0].vertices.truncate(2);
        assert!(matches!(file.validate(), Err(CorpusError::Schema(_))));

        let mut file = CorpusFile::from_dataset(&ds);
        file.delta_t = 0;
        assert!(matches!(file.validate(), Err(CorpusError::Schema(_))));

        let mut file = CorpusFile::from_dataset(&ds);
        file.pois[0].vertices[0].0 = f64::NAN;
        assert!(matches!(file.validate(), Err(CorpusError::Schema(_))));
    }

    #[test]
    fn json_file_round_trip() {
        let ds = generate(&SimConfig::tiny(14));
        let file = CorpusFile::from_dataset(&ds);
        let dir = std::env::temp_dir().join("hisrect-corpus-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        file.save(&path).unwrap();
        let loaded = CorpusFile::load(&path).unwrap();
        assert_eq!(loaded.name, file.name);
        assert_eq!(loaded.pois.len(), file.pois.len());
        assert_eq!(loaded.timelines.len(), file.timelines.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_load_round_trip_is_exact_through_escapes_and_utf8() {
        let ds = generate(&SimConfig::tiny(14));
        let mut file = CorpusFile::from_dataset(&ds);
        // Text the string parser has to work for: escapes, multi-byte
        // runs, an astral-plane char, a raw control character.
        file.name = "läs végas \"strip\" \\ 東京".into();
        let awkward = [
            "quote \" backslash \\ slash / end",
            "tab\there\nnewline\r\u{1}ctl",
            "naïve café — 東京タワー 😀🎰",
            "",
        ];
        for (k, tweet) in file.timelines[0].tweets.iter_mut().enumerate() {
            tweet.text = awkward[k % awkward.len()].into();
        }
        let path = std::env::temp_dir().join("hisrect-corpus-exact-test.json");
        file.save(&path).unwrap();
        let loaded = CorpusFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&file).unwrap()
        );
        assert_eq!(loaded.timelines[0].tweets[2].text, awkward[2]);
    }
}

//! Incremental ANN candidate index over materialized profiles.
//!
//! [`CandidateMirror`] shadows an [`Ingestor`]: each `sync` embeds every
//! newly materialized kept-user profile with the *current model
//! generation* and adds it to an [`AnnIndex`] with
//! [`AnnIndex::insert`] — a sorted insert into the one time-sorted grid
//! bucket its tweet lands in (ids are assigned in insertion order, so no
//! slot is ever renumbered during steady-state streaming). Profiles that
//! fall out of the retention window are tombstoned via
//! [`AnnIndex::evict_older_than`], which drops the oldest prefix of each
//! bucket.
//!
//! Embeddings are a function of the model, so a `/reload` invalidates
//! every cached vector: [`CandidateMirror::invalidate`] rebuilds the
//! index under the new embedder and bumps the
//! `ingest/ann_invalidations` counter — the cache-invalidation signal
//! the observability satellite asks for.

use crate::pipeline::{Ingestor, PKey};
use ann::{AnnConfig, AnnIndex, AnnItem};
use twitter_sim::Profile;

/// Incrementally maintained ANN index mirroring an [`Ingestor`].
pub struct CandidateMirror {
    cfg: AnnConfig,
    bounds: (f64, f64, f64, f64),
    index: AnnIndex,
    /// ANN id → profile key, in insertion order.
    ids: Vec<PKey>,
    /// Per-uid count of profiles already inserted.
    done: Vec<u32>,
}

impl CandidateMirror {
    /// Creates an empty mirror for `n_users` users over fixed geographic
    /// `bounds` (min_lat, min_lon, max_lat, max_lon). Fixed bounds keep
    /// the streaming grid identical to a batch-built one.
    pub fn new(cfg: AnnConfig, bounds: (f64, f64, f64, f64), n_users: usize) -> Self {
        Self {
            index: AnnIndex::new_empty(cfg.clone(), bounds),
            cfg,
            bounds,
            ids: Vec::new(),
            done: vec![0; n_users],
        }
    }

    /// Geographic bounds covering every POI of `world`, padded so
    /// near-POI and near-home tweets stay inside the grid.
    pub fn bounds_for(world: &twitter_sim::World, pad_deg: f64) -> (f64, f64, f64, f64) {
        let mut b = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for poi in world.pois.pois() {
            let c = poi.center();
            b.0 = b.0.min(c.lat);
            b.1 = b.1.min(c.lon);
            b.2 = b.2.max(c.lat);
            b.3 = b.3.max(c.lon);
        }
        (b.0 - pad_deg, b.1 - pad_deg, b.2 + pad_deg, b.3 + pad_deg)
    }

    /// Inserts every not-yet-indexed profile of kept users and evicts
    /// items older than `cutoff_ts` (pass `i64::MIN` to keep all).
    /// Returns how many profiles were inserted.
    pub fn sync(
        &mut self,
        ing: &Ingestor,
        cutoff_ts: i64,
        embed: impl Fn(&Profile) -> Vec<f32>,
    ) -> usize {
        let mut inserted = 0usize;
        // Deterministic uid sweep: kept users' backlogs append in uid
        // order, which keeps ids ascending and the insert fast path hot.
        for uid in 0..self.done.len() {
            let user = &ing.state().users[uid];
            if !user.kept {
                continue;
            }
            while (self.done[uid] as usize) < user.profiles.len() {
                let k = self.done[uid];
                let p = &user.profiles[k as usize];
                let id = self.ids.len() as u32;
                let item = AnnItem {
                    id,
                    point: p.geo,
                    ts: p.ts,
                    embedding: embed(p),
                };
                let fresh = self.index.insert(item);
                debug_assert!(fresh, "ann ids are assigned uniquely");
                self.ids.push(PKey { uid: uid as u32, k });
                self.done[uid] = k + 1;
                inserted += 1;
            }
        }
        if cutoff_ts > i64::MIN {
            self.index.evict_older_than(cutoff_ts);
        }
        obs::add("ingest/ann_inserted", inserted as u64);
        inserted
    }

    /// Rebuilds the index from scratch under a new embedder — required
    /// after a model reload, since every cached embedding is stale.
    pub fn invalidate(
        &mut self,
        ing: &Ingestor,
        cutoff_ts: i64,
        embed: impl Fn(&Profile) -> Vec<f32>,
    ) {
        obs::incr("ingest/ann_invalidations");
        self.index = AnnIndex::new_empty(self.cfg.clone(), self.bounds);
        self.ids.clear();
        for d in &mut self.done {
            *d = 0;
        }
        self.sync(ing, cutoff_ts, embed);
    }

    /// The underlying index.
    pub fn index(&self) -> &AnnIndex {
        &self.index
    }

    /// The profile key behind an ANN id.
    pub fn key_of(&self, ann_id: u32) -> Option<PKey> {
        self.ids.get(ann_id as usize).copied()
    }

    /// Items currently live (inserted minus evicted).
    pub fn live_len(&self) -> usize {
        self.index.live_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::IngestConfig;
    use twitter_sim::{SimConfig, TweetStream};

    fn geo_embed(p: &Profile) -> Vec<f32> {
        vec![(p.geo.lat * 100.0) as f32, (p.geo.lon * 100.0) as f32]
    }

    fn ann_cfg() -> AnnConfig {
        AnnConfig {
            cell_deg: 0.01,
            delta_t: None,
        }
    }

    #[test]
    fn sync_tracks_kept_profiles_incrementally() {
        let mut stream = TweetStream::new(SimConfig::tiny(23));
        let mut ing = Ingestor::new(
            stream.world().clone(),
            stream.friendships().to_vec(),
            stream.config().n_users,
            IngestConfig::default(),
        );
        let bounds = CandidateMirror::bounds_for(ing.world(), 0.05);
        let mut mirror = CandidateMirror::new(ann_cfg(), bounds, stream.config().n_users);
        let mut total = 0usize;
        for _ in 0..3 {
            for _ in 0..150 {
                ing.offer(stream.next_event());
            }
            ing.flush();
            total += mirror.sync(&ing, i64::MIN, geo_embed);
        }
        assert!(total > 0);
        assert_eq!(mirror.live_len(), total);
        // Every indexed id maps back to a kept user's profile.
        for id in 0..total as u32 {
            let key = mirror.key_of(id).expect("id mapped");
            assert!(ing.state().users[key.uid as usize].kept);
        }
        // Re-sync with nothing new is a no-op.
        assert_eq!(mirror.sync(&ing, i64::MIN, geo_embed), 0);
    }

    #[test]
    fn eviction_and_invalidation() {
        let mut stream = TweetStream::new(SimConfig::tiny(29));
        let mut ing = Ingestor::new(
            stream.world().clone(),
            stream.friendships().to_vec(),
            stream.config().n_users,
            IngestConfig::default(),
        );
        for _ in 0..600 {
            ing.offer(stream.next_event());
        }
        ing.flush();
        let bounds = CandidateMirror::bounds_for(ing.world(), 0.05);
        let mut mirror = CandidateMirror::new(ann_cfg(), bounds, stream.config().n_users);
        let n = mirror.sync(&ing, i64::MIN, geo_embed);
        assert!(n > 0);
        // Evict the first simulated day.
        mirror.sync(&ing, 86_400, geo_embed);
        assert!(mirror.live_len() < n, "old items must tombstone");
        let live_after_evict = mirror.live_len();
        // Invalidation rebuilds under a new embedder at the same cutoff.
        obs::set_enabled(true);
        let before = obs::counter_value("ingest/ann_invalidations");
        mirror.invalidate(&ing, 86_400, |p| {
            vec![(p.geo.lon * 50.0) as f32, (p.geo.lat * 50.0) as f32]
        });
        assert_eq!(obs::counter_value("ingest/ann_invalidations"), before + 1);
        assert_eq!(mirror.live_len(), live_after_evict);
    }
}

//! Unbounded, seeded, resumable tweet stream.
//!
//! The batch generator ([`crate::generate`]) samples a fixed horizon of
//! `cfg.days` and assembles a frozen dataset. The stream generator emits
//! the *same kind* of events one at a time, forever: day `d` is sampled
//! lazily when the stream reaches it, so the horizon is unbounded and the
//! ingestion side (crates/ingest) can keep a model fresh against it.
//!
//! Determinism and resumability come from per-`(uid, day)` seeding: user
//! `u`'s events on day `d` are drawn from
//! `StdRng::seed_from_u64(derive_seed(derive_seed(derive_seed(seed, STREAM_TAG), u), d))`,
//! independent of every other user-day. A [`StreamCursor`] therefore pins
//! a stream position with just `(day, emitted_in_day, seq)`: resuming
//! regenerates the cursor day's buffer and skips the already-emitted
//! prefix. Within a day events are globally ordered by `(ts, uid)`, so
//! delivery order is also a pure function of the seed.
//!
//! Per-day sampling resets each user's POI momentum at midnight. That is
//! behaviorally faithful, not a shortcut: the batch generator's momentum
//! window (2 h) is shorter than the overnight quiet gap (24:00 → 08:00),
//! so momentum never crosses a day boundary there either.
//!
//! **Drift.** `drift_every_days = k` rotates every POI's vocabulary tables
//! by one position each `k` days (see
//! [`crate::generate::compose_content`]): the language of each location
//! changes while geometry, timing, and labels stay fixed. A model trained
//! on an old window measurably decays, which is exactly the signal the
//! continuous-learning loop must erase.
//!
//! **Faults.** [`next_event`](TweetStream::next_event) consults
//! [`faultsim`] on every delivery: `gap@n` drops the n-th event (a hole in
//! `seq`), `reorder@n` delivers events n and n+1 swapped, and `dup@n`
//! delivers event n twice with the same `seq`. The ingest pipeline must
//! absorb all three without duplicate profile updates.

use std::collections::VecDeque;

use crate::config::SimConfig;
use crate::generate::{
    build_friendships, poisson, sample_event, sample_user, UserTraits, ACTIVE_END, ACTIVE_START,
    SECONDS_PER_DAY,
};
use crate::types::{Timestamp, Tweet};
use crate::world::World;
use faultsim::FaultKind;
use geo::PoiId;
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Domain tag separating per-user stream seeds from the batch generator's
/// `derive_seed(seed, uid)` timelines.
const STREAM_TAG: u64 = 0x7374_7265_616d; // "stream"
/// Domain tag for the per-day coordinated co-visit draw.
const COVISIT_TAG: u64 = 0x0063_6f76_6973_6974; // "covisit"

/// One delivered stream element: a tweet by `uid` with a delivery
/// sequence number. `seq` increases by one per *generated* event; a
/// dropped (`gap`) event leaves a hole, a duplicated (`dup`) event
/// repeats its number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamEvent {
    /// Delivery sequence number (fault-free streams emit 0, 1, 2, ...).
    pub seq: u64,
    /// Author of the tweet.
    pub uid: u32,
    /// The tweet itself (same type the batch pipeline consumes).
    pub tweet: Tweet,
}

/// A resumable stream position: day being emitted, events already emitted
/// from that day, and the next sequence number. Capturing a cursor and
/// calling [`TweetStream::resume`] replays the stream from exactly here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCursor {
    /// Simulated day currently being emitted.
    pub day: u64,
    /// Events already emitted from that day's buffer.
    pub emitted_in_day: u64,
    /// Next sequence number to assign.
    pub seq: u64,
}

impl StreamCursor {
    /// The position before the first event.
    pub fn start() -> Self {
        Self {
            day: 0,
            emitted_in_day: 0,
            seq: 0,
        }
    }
}

/// Seeded, unbounded generator of [`StreamEvent`]s.
///
/// `cfg.days` is ignored — the stream never ends. Everything else
/// (world, users, friendships, rates) matches the batch generator.
pub struct TweetStream {
    cfg: SimConfig,
    drift_every_days: u32,
    world: World,
    traits: Vec<UserTraits>,
    friendships: Vec<(u32, u32)>,
    /// Day whose events are currently in `buf`.
    cur_day: u64,
    /// Next day to sample once `buf` drains.
    next_day: u64,
    /// Not-yet-emitted suffix of day `cur_day`, ordered by `(ts, uid)`.
    buf: VecDeque<(u32, Tweet)>,
    emitted_in_day: u64,
    seq: u64,
    /// Events displaced by reorder/dup faults, delivered before pulling.
    carry: VecDeque<StreamEvent>,
}

impl TweetStream {
    /// Opens a stream at day 0 with no vocabulary drift.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_drift(cfg, 0)
    }

    /// Opens a stream whose POI vocabulary rotates one position every
    /// `drift_every_days` days (0 = never).
    pub fn with_drift(cfg: SimConfig, drift_every_days: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let world = World::generate(&cfg, &mut rng);
        let traits: Vec<UserTraits> = (0..cfg.n_users)
            .map(|_| sample_user(&cfg, &world, &mut rng))
            .collect();
        let friendships = build_friendships(&cfg, &traits);
        Self {
            cfg,
            drift_every_days,
            world,
            traits,
            friendships,
            cur_day: 0,
            next_day: 0,
            buf: VecDeque::new(),
            emitted_in_day: 0,
            seq: 0,
            carry: VecDeque::new(),
        }
    }

    /// Reopens a stream at `cursor`. The continuation is bit-identical to
    /// the uninterrupted stream: the cursor day's buffer is regenerated
    /// and the already-emitted prefix skipped.
    ///
    /// An event displaced into the carry queue by an in-flight fault at
    /// capture time is re-delivered after resume (its day buffer is
    /// regenerated whole) — at-least-once semantics; consumers must dedup
    /// by `seq`.
    pub fn resume(cfg: SimConfig, drift_every_days: u32, cursor: StreamCursor) -> Self {
        let mut s = Self::with_drift(cfg, drift_every_days);
        s.cur_day = cursor.day;
        s.next_day = cursor.day + 1;
        s.buf = s.gen_day(cursor.day);
        for _ in 0..cursor.emitted_in_day {
            s.buf.pop_front();
        }
        s.emitted_in_day = cursor.emitted_in_day;
        s.seq = cursor.seq;
        s
    }

    /// The simulated world backing the stream (POIs, vocabulary).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Friendship pairs `(lo, hi)`, sorted and deduplicated.
    pub fn friendships(&self) -> &[(u32, u32)] {
        &self.friendships
    }

    /// The stream's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current resumable position. Valid to capture at any point; see
    /// [`resume`](Self::resume) for fault-in-flight semantics.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            day: self.cur_day,
            emitted_in_day: self.emitted_in_day,
            seq: self.seq,
        }
    }

    /// The vocabulary rotation in force on `day`.
    pub fn shift_on_day(&self, day: u64) -> usize {
        if self.drift_every_days == 0 {
            0
        } else {
            (day / self.drift_every_days as u64) as usize % self.world.poi_words.len().max(1)
        }
    }

    /// Delivers the next event. Never returns `None` — the stream is
    /// unbounded. Fault injection (when armed via [`faultsim`]) happens
    /// here, at the delivery boundary.
    pub fn next_event(&mut self) -> StreamEvent {
        if let Some(ev) = self.carry.pop_front() {
            return ev;
        }
        loop {
            let ev = self.pull();
            if faultsim::fires(FaultKind::StreamGap) {
                // Dropped on the floor: consumers see a hole in `seq`.
                continue;
            }
            if faultsim::fires(FaultKind::StreamReorder) {
                // Swap with the successor: deliver n+1 now, n next.
                let next = self.pull();
                self.carry.push_back(ev);
                return next;
            }
            if faultsim::fires(FaultKind::StreamDup) {
                // At-least-once delivery: same event, same seq, twice.
                self.carry.push_back(ev.clone());
            }
            return ev;
        }
    }

    /// Pulls the next in-order event, refilling day buffers as needed.
    fn pull(&mut self) -> StreamEvent {
        while self.buf.is_empty() {
            self.cur_day = self.next_day;
            self.next_day += 1;
            self.emitted_in_day = 0;
            self.buf = self.gen_day(self.cur_day);
        }
        let (uid, tweet) = self.buf.pop_front().expect("buffer refilled");
        self.emitted_in_day += 1;
        let seq = self.seq;
        self.seq += 1;
        StreamEvent { seq, uid, tweet }
    }

    /// Samples every user's day-`day` events and merges them into global
    /// `(ts, uid)` order. Pure function of `(cfg.seed, day)`.
    fn gen_day(&self, day: u64) -> VecDeque<(u32, Tweet)> {
        let forced = self.day_co_visits(day);
        let shift = self.shift_on_day(day);
        let per_user = parallel::parallel_map_range(self.cfg.n_users, |uid| {
            self.sample_day(uid as u32, day, &forced[uid], shift)
        });
        let mut events: Vec<(Timestamp, u32, Tweet)> = per_user
            .into_iter()
            .enumerate()
            .flat_map(|(uid, tweets)| tweets.into_iter().map(move |t| (t.ts, uid as u32, t)))
            .collect();
        // Stable by (ts, uid): ties across users break by uid, ties within
        // a user keep per-user sampling order.
        events.sort_by_key(|&(ts, uid, _)| (ts, uid));
        events.into_iter().map(|(_, uid, t)| (uid, t)).collect()
    }

    /// One user's tweets for one day, in timestamp order. Seeded
    /// per-(uid, day), so any day of any user regenerates independently.
    fn sample_day(
        &self,
        uid: u32,
        day: u64,
        forced: &[(Timestamp, PoiId)],
        shift: usize,
    ) -> Vec<Tweet> {
        let seed = derive_seed(
            derive_seed(derive_seed(self.cfg.seed, STREAM_TAG), uid as u64),
            day,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let traits = &self.traits[uid as usize];
        let n = poisson(self.cfg.tweets_per_day, &mut rng);
        let base = day as i64 * SECONDS_PER_DAY;
        let mut events: Vec<(Timestamp, Option<PoiId>)> = (0..n)
            .map(|_| (base + rng.gen_range(ACTIVE_START..ACTIVE_END), None))
            .collect();
        events.extend(forced.iter().map(|&(ts, poi)| (ts, Some(poi))));
        events.sort_by_key(|&(ts, _)| ts);
        let mut prev_poi: Option<(PoiId, Timestamp)> = None;
        let mut tweets = Vec::with_capacity(events.len());
        for (ts, forced_poi) in events {
            tweets.push(sample_event(
                &self.cfg,
                &self.world,
                traits,
                ts,
                forced_poi,
                &mut prev_poi,
                shift,
                &mut rng,
            ));
        }
        tweets
    }

    /// Coordinated friend co-visits for one day, seeded per-day from the
    /// fixed friendship list (mirrors the batch `sample_co_visits`, with
    /// the weekly rate prorated to a single day).
    fn day_co_visits(&self, day: u64) -> Vec<Vec<(Timestamp, PoiId)>> {
        let mut forced: Vec<Vec<(Timestamp, PoiId)>> = vec![Vec::new(); self.cfg.n_users];
        if self.cfg.co_visits_per_week <= 0.0 {
            return forced;
        }
        let seed = derive_seed(derive_seed(self.cfg.seed, COVISIT_TAG), day);
        let mut rng = StdRng::seed_from_u64(seed);
        let expected = self.cfg.co_visits_per_week / 7.0;
        let base = day as i64 * SECONDS_PER_DAY;
        for &(a, b) in &self.friendships {
            let n = poisson(expected, &mut rng);
            for _ in 0..n {
                let favs = if rng.gen::<bool>() {
                    &self.traits[a as usize].favorites
                } else {
                    &self.traits[b as usize].favorites
                };
                if favs.is_empty() {
                    continue;
                }
                let poi = favs[rng.gen_range(0..favs.len())].0;
                let ts = base + rng.gen_range(ACTIVE_START..ACTIVE_END - 1800);
                forced[a as usize].push((ts, poi));
                forced[b as usize].push((ts + rng.gen_range(0..1800), poi));
            }
        }
        forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes every test that pulls events: three of them arm the
    /// process-global fault plan, and an armed fault fires on whichever
    /// thread delivers the n-th event.
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    fn take(stream: &mut TweetStream, n: usize) -> Vec<StreamEvent> {
        (0..n).map(|_| stream.next_event()).collect()
    }

    #[test]
    fn stream_is_deterministic_in_seed() {
        let _g = FAULT_LOCK.lock().unwrap();
        let a = take(&mut TweetStream::new(SimConfig::tiny(7)), 300);
        let b = take(&mut TweetStream::new(SimConfig::tiny(7)), 300);
        assert_eq!(a, b);
        let c = take(&mut TweetStream::new(SimConfig::tiny(8)), 300);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_seq_and_time_ordered() {
        let _g = FAULT_LOCK.lock().unwrap();
        let mut s = TweetStream::new(SimConfig::tiny(3));
        let evs = take(&mut s, 500);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        for w in evs.windows(2) {
            assert!(
                w[0].tweet.ts <= w[1].tweet.ts,
                "timestamps must be nondecreasing"
            );
        }
        // The stream crossed at least one day boundary.
        assert!(evs.last().unwrap().tweet.ts >= SECONDS_PER_DAY);
    }

    #[test]
    fn resume_continues_bit_identically() {
        let _g = FAULT_LOCK.lock().unwrap();
        let cfg = SimConfig::tiny(11);
        let mut uninterrupted = TweetStream::new(cfg.clone());
        let want = take(&mut uninterrupted, 400);
        // Stop at several positions, including mid-day and near day edges.
        for cut in [1usize, 57, 123, 250] {
            let mut first = TweetStream::new(cfg.clone());
            let head = take(&mut first, cut);
            let cursor = first.cursor();
            let mut second = TweetStream::resume(cfg.clone(), 0, cursor);
            let tail = take(&mut second, 400 - cut);
            let stitched: Vec<StreamEvent> = head.into_iter().chain(tail).collect();
            assert_eq!(stitched, want, "resume at {cut} diverged");
        }
    }

    #[test]
    fn fresh_cursor_resumes_from_the_start() {
        let _g = FAULT_LOCK.lock().unwrap();
        let cfg = SimConfig::tiny(5);
        let want = take(&mut TweetStream::new(cfg.clone()), 100);
        let got = take(&mut TweetStream::resume(cfg, 0, StreamCursor::start()), 100);
        assert_eq!(want, got);
    }

    #[test]
    fn co_visits_flow_into_the_stream() {
        let _g = FAULT_LOCK.lock().unwrap();
        let cfg = SimConfig::tiny(9).with_social(5.0);
        let base = take(&mut TweetStream::new(SimConfig::tiny(9)), 400);
        let social = take(&mut TweetStream::new(cfg), 400);
        assert_ne!(base, social, "co-visits must perturb the stream");
    }

    #[test]
    fn drift_rotates_vocabulary_but_not_geometry() {
        let _g = FAULT_LOCK.lock().unwrap();
        let cfg = SimConfig::tiny(13);
        let plain = take(&mut TweetStream::new(cfg.clone()), 600);
        let drifted = take(&mut TweetStream::with_drift(cfg, 2), 600);
        let mut token_diffs = 0usize;
        for (p, d) in plain.iter().zip(&drifted) {
            assert_eq!(p.seq, d.seq);
            assert_eq!(p.uid, d.uid);
            assert_eq!(p.tweet.ts, d.tweet.ts);
            assert_eq!(p.tweet.geo, d.tweet.geo, "drift must not move anyone");
            assert_eq!(p.tweet.true_poi, d.tweet.true_poi);
            if p.tweet.ts < 2 * SECONDS_PER_DAY {
                assert_eq!(
                    p.tweet.tokens, d.tweet.tokens,
                    "no drift before the first epoch"
                );
            } else if p.tweet.tokens != d.tweet.tokens {
                token_diffs += 1;
            }
        }
        assert!(token_diffs > 0, "drift never changed any tweet's language");
    }

    #[test]
    fn gap_fault_leaves_a_seq_hole() {
        let _g = FAULT_LOCK.lock().unwrap();
        faultsim::configure_str("gap@5").unwrap();
        let evs = take(&mut TweetStream::new(SimConfig::tiny(2)), 10);
        faultsim::clear();
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            vec![0, 1, 2, 3, 5, 6, 7, 8, 9, 10],
            "event with seq 4 dropped"
        );
    }

    #[test]
    fn reorder_fault_swaps_adjacent_events() {
        let _g = FAULT_LOCK.lock().unwrap();
        let clean = take(&mut TweetStream::new(SimConfig::tiny(2)), 6);
        faultsim::configure_str("reorder@3").unwrap();
        let evs = take(&mut TweetStream::new(SimConfig::tiny(2)), 6);
        faultsim::clear();
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 3, 2, 4, 5]);
        // Same events, just swapped.
        assert_eq!(evs[2], clean[3]);
        assert_eq!(evs[3], clean[2]);
    }

    #[test]
    fn dup_fault_redelivers_the_same_seq() {
        let _g = FAULT_LOCK.lock().unwrap();
        faultsim::configure_str("dup@2").unwrap();
        let evs = take(&mut TweetStream::new(SimConfig::tiny(2)), 6);
        faultsim::clear();
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 1, 2, 3, 4]);
        assert_eq!(evs[1], evs[2], "duplicate must be byte-identical");
    }

    #[test]
    fn stream_threads_do_not_change_events() {
        let _g = FAULT_LOCK.lock().unwrap();
        let cfg = SimConfig::tiny(21);
        let prev = parallel::num_threads();
        parallel::set_threads(1);
        let one = take(&mut TweetStream::new(cfg.clone()), 300);
        parallel::set_threads(4);
        let four = take(&mut TweetStream::new(cfg), 300);
        parallel::set_threads(prev);
        assert_eq!(one, four);
    }
}

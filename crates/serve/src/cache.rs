//! The sharded LRU result cache.
//!
//! Scoring a URL costs tokenisation plus feature extraction plus five
//! model evaluations; real serving traffic repeats URLs heavily (hot
//! pages, retries, crawler revisits). [`ResultCache`] memoises the five
//! per-language scores keyed by [`normalize_url`], so a repeated URL
//! performs **zero** feature extractions — an invariant asserted by an
//! integration test through `urlid_features::CountingExtractor`.
//!
//! Design:
//!
//! * **One keyed hash per key** — every lookup and insert hashes its
//!   key once, with SipHash-1-3 under keys drawn at random when the
//!   cache is built (`RandomState`), so a client cannot pick URLs that
//!   collide. The high half of the hash picks the shard, the low half
//!   the slot inside it. Full keys are compared on every match, so
//!   results are exact, never probabilistic.
//! * **Mutex striping** — the capacity is split over N independent
//!   shards, each its own `Mutex<LruShard>`; worker threads contend only
//!   when they hit the same shard.
//! * **Slab slots, no allocation per entry** — a shard keeps its
//!   entries in one `Vec` of fixed-size slots holding the key bytes
//!   inline (up to 128 bytes; the crawl-frontier mix has p99.9 = 115),
//!   the scores, the epoch and the recency links. An open-addressing
//!   table of `hash tag | slot` words indexes them (linear probing,
//!   backward-shift deletion, at most half full). Both grow on demand,
//!   never past the shard's capacity, and nothing is reserved up front.
//!   A full shard reuses its least recently used slot in place, so an
//!   insert that evicts neither allocates nor frees; only a key longer
//!   than a slot takes a heap copy of its own. A slot is 208 bytes and
//!   the table adds 8–16 per entry.
//! * **True LRU per shard** — an intrusive doubly linked list threaded
//!   through the slots, so `get`, `insert` and eviction are all O(1).
//! * **Epoch tagging** — every entry records the model epoch it was
//!   computed under. A hot-reload bumps the epoch, instantly
//!   invalidating all cached results without racing in-flight inserts
//!   (an insert computed under the old model carries the old epoch and
//!   is ignored by every later `get`).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The cached value: the five per-language scores of one URL (`None`
/// where the model set has no classifier for a language). Decisions and
/// the best language are derived from the scores by the sign convention,
/// so scores are all that needs storing.
pub type CachedScores = [Option<f64>; 5];

/// Normalise a URL for use as a cache key (and as the scored form): trim
/// surrounding whitespace, drop any `#fragment` (fragments never reach
/// the server in real traffic and carry no language signal), and
/// lowercase the scheme and host (DNS is case-insensitive; paths are
/// not).
pub fn normalize_url(raw: &str) -> String {
    let mut out = String::new();
    normalize_into(raw, &mut out);
    out
}

/// [`normalize_url`], appending the key to `out` instead of allocating
/// one, so many keys can share one reusable buffer.
pub(crate) fn normalize_into(raw: &str, out: &mut String) {
    let trimmed = raw.trim();
    let no_fragment = trimmed.split('#').next().unwrap_or("");
    let host_start = no_fragment.find("://").map(|i| i + 3).unwrap_or(0);
    let host_end = no_fragment[host_start..]
        .find(['/', '?'])
        .map(|i| host_start + i)
        .unwrap_or(no_fragment.len());
    let start = out.len();
    out.push_str(no_fragment);
    out[start..start + host_end].make_ascii_lowercase();
}

/// Keys up to this many bytes live inside their slot.
const KEY_INLINE: usize = 128;
/// "No slot": the end of a recency or free list.
const NIL: u32 = u32::MAX;
/// An unused table word (no real word has slot `NIL`).
const EMPTY: u64 = u64::MAX;
/// Table length of a shard's first insert.
const MIN_TABLE: usize = 16;

/// One cache entry.
struct Slot {
    epoch: u64,
    /// The scores, with a `None` stored as `0.0` and its bit in
    /// `present` clear.
    scores: [f64; 5],
    /// The key, when it is longer than [`KEY_INLINE`].
    spill: Option<Box<[u8]>>,
    /// Low half of the key's hash: the table word's tag.
    tag: u32,
    prev: u32,
    /// The next slot in recency order, or in the free list.
    next: u32,
    /// Length of the inline key.
    len: u8,
    present: u8,
    key: [u8; KEY_INLINE],
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            epoch: 0,
            scores: [0.0; 5],
            spill: None,
            tag: 0,
            prev: NIL,
            next: NIL,
            len: 0,
            present: 0,
            key: [0; KEY_INLINE],
        }
    }

    fn key(&self) -> &[u8] {
        match &self.spill {
            Some(key) => key,
            None => &self.key[..self.len as usize],
        }
    }

    fn set_key(&mut self, key: &[u8]) {
        if key.len() <= KEY_INLINE {
            self.key[..key.len()].copy_from_slice(key);
            self.len = key.len() as u8;
            self.spill = None;
        } else {
            self.spill = Some(key.into());
        }
    }

    fn scores(&self) -> CachedScores {
        std::array::from_fn(|i| ((self.present >> i) & 1 == 1).then_some(self.scores[i]))
    }

    fn set_scores(&mut self, scores: &CachedScores) {
        self.present = 0;
        for (i, score) in scores.iter().enumerate() {
            self.scores[i] = score.unwrap_or(0.0);
            self.present |= u8::from(score.is_some()) << i;
        }
    }
}

/// A table word: the hash tag in the high half, the slot in the low.
fn word(tag: u32, slot: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(slot)
}

/// One LRU shard: slots, their open-addressing index, and the recency
/// list through them, most recent at `head`.
struct LruShard {
    slots: Vec<Slot>,
    /// [`word`]s or [`EMPTY`]; a power-of-two length (or none yet), at
    /// most half full, so every probe meets an `EMPTY`.
    table: Vec<u64>,
    /// Entries stored (slots in use).
    live: usize,
    head: u32,
    tail: u32,
    /// Slots vacated by stale-epoch evictions, linked through `next`.
    free: u32,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            // Slot numbers are `u32`s below `NIL`.
            capacity: capacity.min(NIL as usize - 1),
            slots: Vec::new(),
            table: Vec::new(),
            live: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn slot(&self, idx: u32) -> &Slot {
        &self.slots[idx as usize]
    }

    fn slot_mut(&mut self, idx: u32) -> &mut Slot {
        &mut self.slots[idx as usize]
    }

    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    /// The table position and slot of `key`, if stored.
    fn find(&self, hash: u64, key: &[u8]) -> Option<(usize, u32)> {
        if self.table.is_empty() {
            return None;
        }
        let tag = hash as u32;
        let mut pos = tag as usize & self.mask();
        loop {
            let w = self.table[pos];
            if w == EMPTY {
                return None;
            }
            let idx = w as u32;
            if (w >> 32) as u32 == tag && self.slot(idx).key() == key {
                return Some((pos, idx));
            }
            pos = (pos + 1) & self.mask();
        }
    }

    /// The table position of a stored slot.
    fn position(&self, idx: u32) -> usize {
        let target = word(self.slot(idx).tag, idx);
        let mut pos = self.slot(idx).tag as usize & self.mask();
        while self.table[pos] != target {
            pos = (pos + 1) & self.mask();
        }
        pos
    }

    /// Put a word at the first free position from its home.
    fn index(&mut self, w: u64) {
        let mut pos = (w >> 32) as usize & self.mask();
        while self.table[pos] != EMPTY {
            pos = (pos + 1) & self.mask();
        }
        self.table[pos] = w;
    }

    /// Empty a table position, shifting later words of its probe run
    /// back so that no lookup stops early at the hole.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let w = self.table[pos];
            if w == EMPTY {
                break;
            }
            let home = (w >> 32) as usize & mask;
            // The word stays unless its home lies before the hole.
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.table[hole] = w;
                hole = pos;
            }
        }
        self.table[hole] = EMPTY;
    }

    /// Double the table (or create it) and re-index every word.
    fn grow(&mut self) {
        let len = (self.table.len() * 2).max(MIN_TABLE);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; len]);
        for w in old.into_iter().filter(|&w| w != EMPTY) {
            self.index(w);
        }
    }

    /// Detach a slot from the recency list.
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = (self.slot(idx).prev, self.slot(idx).next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    /// Attach a slot at the most-recent end.
    fn push_front(&mut self, idx: u32) {
        let head = self.head;
        let slot = self.slot_mut(idx);
        slot.prev = NIL;
        slot.next = head;
        if head != NIL {
            self.slot_mut(head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn get(&mut self, hash: u64, key: &str, epoch: u64) -> Option<CachedScores> {
        let (pos, idx) = self.find(hash, key.as_bytes())?;
        if self.slot(idx).epoch != epoch {
            // Computed under a previous model: evict eagerly.
            self.remove(pos, idx);
            return None;
        }
        self.touch(idx);
        Some(self.slot(idx).scores())
    }

    /// Drop an entry and put its slot on the free list.
    fn remove(&mut self, pos: usize, idx: u32) {
        self.unindex(pos);
        self.unlink(idx);
        self.live -= 1;
        let free = self.free;
        let slot = self.slot_mut(idx);
        slot.spill = None;
        slot.next = free;
        self.free = idx;
    }

    /// A slot for a new entry: the LRU entry's when the shard is full,
    /// else a free one, else a new one.
    fn vacate(&mut self) -> u32 {
        if self.live >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "a full shard has a tail");
            let pos = self.position(lru);
            self.unindex(pos);
            self.unlink(lru);
            self.live -= 1;
            return lru;
        }
        if self.free != NIL {
            let idx = self.free;
            self.free = self.slot(idx).next;
            return idx;
        }
        if self.slots.len() == self.slots.capacity() {
            // Geometric growth, but never past the capacity: every
            // slot below it is in use, so `live < capacity` leaves room.
            let extra = self
                .slots
                .len()
                .max(4)
                .min(self.capacity - self.slots.len());
            self.slots.reserve_exact(extra);
        }
        self.slots.push(Slot::vacant());
        (self.slots.len() - 1) as u32
    }

    fn insert(&mut self, hash: u64, key: &str, epoch: u64, scores: CachedScores) {
        if self.capacity == 0 {
            return;
        }
        if let Some((_, idx)) = self.find(hash, key.as_bytes()) {
            let slot = self.slot_mut(idx);
            slot.epoch = epoch;
            slot.set_scores(&scores);
            self.touch(idx);
            return;
        }
        let idx = self.vacate();
        if (self.live + 1) * 2 > self.table.len() {
            self.grow();
        }
        let tag = hash as u32;
        let slot = self.slot_mut(idx);
        slot.epoch = epoch;
        slot.set_scores(&scores);
        slot.set_key(key.as_bytes());
        slot.tag = tag;
        self.index(word(tag, idx));
        self.push_front(idx);
        self.live += 1;
    }

    fn clear(&mut self) {
        *self = LruShard::new(self.capacity);
    }
}

/// The mutex-striped LRU result cache (see module docs).
///
/// The shard array is additionally partitioned into `sets` — one set
/// per reactor under multi-reactor serving, so a reactor's scoring
/// traffic only ever locks shards inside its own set and two reactors
/// never contend on a cache lock. Set selection is by the caller
/// ([`ResultCache::get_in`]); within a set the shard is picked by key
/// hash as before. Epoch invalidation is orthogonal: the epoch tag
/// lives on every entry in every set, so a hot-reload invalidates all
/// sets at once.
pub struct ResultCache {
    /// `sets * shards_per_set` shards; set `s` owns the slice
    /// `[s * shards_per_set, (s + 1) * shards_per_set)`.
    shards: Vec<Mutex<LruShard>>,
    shards_per_set: usize,
    sets: usize,
    /// The per-cache random SipHash keys.
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Default number of shards: enough stripes that a worker pool the
    /// size of a large machine rarely contends on one lock.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A cache holding at most `capacity` entries split over
    /// `shard_count` shards (a capacity of zero disables caching).
    pub fn new(capacity: usize, shard_count: usize) -> Self {
        Self::with_sets(capacity, shard_count, 1)
    }

    /// A cache with `sets` independent shard sets of `shards_per_set`
    /// shards each, splitting `capacity` over all of them. Each set is
    /// a private cache for one reactor; a URL cached in one set is a
    /// miss in every other (the cost of lock-free isolation between
    /// reactors — the kernel's connection balancing makes each set see
    /// a similar mix, so per-set hit rates converge to the global one).
    pub fn with_sets(capacity: usize, shards_per_set: usize, sets: usize) -> Self {
        let sets = sets.max(1);
        let shards_per_set = shards_per_set.max(1);
        let total = sets * shards_per_set;
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(total)
        };
        Self {
            shards: (0..total)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            shards_per_set,
            sets,
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of independent shard sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The one hash of `key` that [`ResultCache::get_hashed`] and
    /// [`ResultCache::insert_hashed`] take, so a miss that is scored
    /// and inserted hashes its key once.
    pub(crate) fn hash(&self, key: &str) -> u64 {
        self.hasher.hash_one(key)
    }

    /// The shard of `set` that a hash selects (multiply-shift over the
    /// hash's high half; the low half indexes inside the shard).
    fn shard(&self, set: usize, hash: u64) -> MutexGuard<'_, LruShard> {
        let set = set % self.sets;
        let shard = (((hash >> 32) * self.shards_per_set as u64) >> 32) as usize;
        Self::lock_shard(&self.shards[set * self.shards_per_set + shard])
    }

    /// Lock a shard, recovering from poisoning. No shard operation
    /// panics on any key or score (every index it uses is in range by
    /// construction), so a poisoned shard means a bug; it must not
    /// cascade into every scoring worker that touches the shard
    /// afterwards.
    fn lock_shard(shard: &Mutex<LruShard>) -> MutexGuard<'_, LruShard> {
        shard
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up the scores of a normalised URL computed under the current
    /// model `epoch`. Entries from older epochs count as misses (and are
    /// evicted on the way).
    pub fn get(&self, key: &str, epoch: u64) -> Option<CachedScores> {
        self.get_in(0, key, epoch)
    }

    /// [`ResultCache::get`] against one shard set (a reactor passes its
    /// own set index; out-of-range indices wrap).
    pub fn get_in(&self, set: usize, key: &str, epoch: u64) -> Option<CachedScores> {
        self.get_hashed(set, self.hash(key), key, epoch)
    }

    /// [`ResultCache::get_in`] for a key whose [`ResultCache::hash`] is
    /// already known.
    pub(crate) fn get_hashed(
        &self,
        set: usize,
        hash: u64,
        key: &str,
        epoch: u64,
    ) -> Option<CachedScores> {
        let result = self.shard(set, hash).get(hash, key, epoch);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Store the scores of a normalised URL computed under `epoch`.
    pub fn insert(&self, key: &str, epoch: u64, scores: CachedScores) {
        self.insert_in(0, key, epoch, scores);
    }

    /// [`ResultCache::insert`] against one shard set.
    pub fn insert_in(&self, set: usize, key: &str, epoch: u64, scores: CachedScores) {
        self.insert_hashed(set, self.hash(key), key, epoch, scores);
    }

    /// [`ResultCache::insert_in`] for a key whose [`ResultCache::hash`]
    /// is already known.
    pub(crate) fn insert_hashed(
        &self,
        set: usize,
        hash: u64,
        key: &str,
        epoch: u64,
        scores: CachedScores,
    ) {
        self.shard(set, hash).insert(hash, key, epoch, scores);
    }

    /// Drop every entry and release the shards' memory (used by
    /// hot-reload; correctness never depends on it — the epoch tag
    /// already invalidates stale entries).
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock_shard(shard).clear();
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity over all shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock_shard(s).capacity)
            .sum()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (stale-epoch lookups included).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over lookups, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    fn scores(x: f64) -> CachedScores {
        [Some(x), Some(-x), None, Some(0.0), Some(x * 2.0)]
    }

    #[test]
    fn normalization_trims_lowercases_and_strips_fragments() {
        assert_eq!(
            normalize_url("  HTTP://WWW.Example.DE/Pfad/Seite.html#abschnitt "),
            "http://www.example.de/Pfad/Seite.html"
        );
        assert_eq!(
            normalize_url("http://a.de/path?Q=Mixed"),
            "http://a.de/path?Q=Mixed"
        );
        assert_eq!(normalize_url("WWW.EXAMPLE.com/X"), "www.example.com/X");
        assert_eq!(normalize_url(""), "");
    }

    #[test]
    fn get_and_insert_round_trip() {
        let cache = ResultCache::new(100, 4);
        assert_eq!(cache.get("http://a.de/", 0), None);
        cache.insert("http://a.de/", 0, scores(1.0));
        assert_eq!(cache.get("http://a.de/", 0), Some(scores(1.0)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn each_key_is_stored_once_for_its_node_and_the_map() {
        let cache = ResultCache::new(2, 1);
        let long = format!("http://a.de/{}", "x".repeat(KEY_INLINE));
        for key in ["http://a.de/", "http://b.de/", long.as_str()] {
            cache.insert(key, 0, scores(1.0));
        }
        // "a" was evicted and its slot reused in place; the index holds
        // only tag-and-slot words, so each key is stored once, in its
        // slot, and only a key longer than a slot has a heap copy.
        let shard = ResultCache::lock_shard(&cache.shards[0]);
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.slots.len(), 2, "the evicted slot was reused");
        let indexed: Vec<u32> = shard
            .table
            .iter()
            .filter(|&&w| w != EMPTY)
            .map(|&w| w as u32)
            .collect();
        assert_eq!(indexed.len(), 2);
        for idx in indexed {
            let slot = shard.slot(idx);
            let key = std::str::from_utf8(slot.key()).unwrap();
            assert_eq!(slot.tag, cache.hash(key) as u32);
            assert_eq!(slot.spill.is_some(), key.len() > KEY_INLINE);
        }
    }

    #[test]
    fn an_entry_costs_a_slot_and_at_most_two_index_words() {
        assert_eq!(std::mem::size_of::<Slot>(), 208);
        let cache = ResultCache::new(1000, 1);
        for i in 0..1000 {
            cache.insert(&format!("http://k{i}.de/"), 0, scores(1.0));
        }
        let shard = ResultCache::lock_shard(&cache.shards[0]);
        assert_eq!(
            shard.slots.capacity(),
            1000,
            "slots never grow past the capacity"
        );
        assert!(shard.table.len() <= 2 * 1024);
    }

    #[test]
    fn keys_longer_than_a_slot_round_trip() {
        let cache = ResultCache::new(8, 1);
        let long = format!("http://a.de/{}", "y".repeat(3 * KEY_INLINE));
        let edge = "z".repeat(KEY_INLINE);
        cache.insert(&long, 0, scores(1.0));
        cache.insert(&edge, 0, scores(2.0));
        assert_eq!(cache.get(&long, 0), Some(scores(1.0)));
        assert_eq!(cache.get(&edge, 0), Some(scores(2.0)));
        assert_eq!(cache.get(&long[..long.len() - 1], 0), None);
        assert_eq!(cache.get(&edge[1..], 0), None);
    }

    #[test]
    fn epoch_mismatch_is_a_miss_and_evicts() {
        let cache = ResultCache::new(100, 4);
        cache.insert("http://a.de/", 0, scores(1.0));
        assert_eq!(cache.get("http://a.de/", 1), None);
        assert_eq!(cache.len(), 0, "stale entry evicted eagerly");
        // Re-inserting under the new epoch works.
        cache.insert("http://a.de/", 1, scores(2.0));
        assert_eq!(cache.get("http://a.de/", 1), Some(scores(2.0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard so the recency order is global.
        let cache = ResultCache::new(3, 1);
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            cache.insert(key, 0, scores(i as f64));
        }
        // Touch "a" so "b" becomes the LRU entry.
        assert!(cache.get("a", 0).is_some());
        cache.insert("d", 0, scores(9.0));
        assert_eq!(cache.len(), 3);
        assert!(cache.get("b", 0).is_none(), "LRU entry evicted");
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("c", 0).is_some());
        assert!(cache.get("d", 0).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResultCache::new(2, 1);
        cache.insert("a", 0, scores(1.0));
        cache.insert("a", 0, scores(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a", 0), Some(scores(2.0)));
    }

    #[test]
    fn heavy_churn_stays_capacity_bounded() {
        // Real traffic shape: a small hot set plus a long tail of
        // one-off URLs churning through the shards.
        let cache = ResultCache::new(64, 8);
        for i in 0..10_000 {
            let key = if i % 2 == 0 {
                format!("http://hot{}.de/", i % 20)
            } else {
                format!("http://cold{i}.de/")
            };
            if cache.get(&key, 0).is_none() {
                cache.insert(&key, 0, scores(i as f64));
            }
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.hits() > 1000, "hot keys must mostly hit");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0, 4);
        cache.insert("a", 0, scores(1.0));
        assert_eq!(cache.get("a", 0), None);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn shard_sets_are_isolated_but_share_epoch_invalidation() {
        let cache = ResultCache::with_sets(64, 4, 2);
        assert_eq!(cache.sets(), 2);
        cache.insert_in(0, "http://a.de/", 0, scores(1.0));
        // The other set never sees set 0's entry…
        assert_eq!(cache.get_in(1, "http://a.de/", 0), None);
        // …and each set caches independently.
        cache.insert_in(1, "http://a.de/", 0, scores(2.0));
        assert_eq!(cache.get_in(0, "http://a.de/", 0), Some(scores(1.0)));
        assert_eq!(cache.get_in(1, "http://a.de/", 0), Some(scores(2.0)));
        // An epoch bump (hot reload) invalidates entries in every set.
        assert_eq!(cache.get_in(0, "http://a.de/", 1), None);
        assert_eq!(cache.get_in(1, "http://a.de/", 1), None);
        assert_eq!(cache.len(), 0, "stale entries evicted from both sets");
        // Out-of-range set indices wrap instead of panicking.
        cache.insert_in(2, "http://b.de/", 1, scores(3.0));
        assert_eq!(cache.get_in(0, "http://b.de/", 1), Some(scores(3.0)));
        // clear() empties all sets.
        cache.insert_in(1, "http://c.de/", 1, scores(4.0));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = ResultCache::new(100, 4);
        for i in 0..50 {
            cache.insert(&format!("k{i}"), 0, scores(i as f64));
        }
        assert_eq!(cache.len(), 50);
        cache.clear();
        assert!(cache.is_empty());
    }

    /// The reference the cache is checked against: a plain LRU over a
    /// recency queue (most recent first) and a map, with the same epoch
    /// rules, written for clarity instead of speed.
    #[derive(Default)]
    struct ModelLru {
        order: VecDeque<String>,
        entries: HashMap<String, (u64, CachedScores)>,
        capacity: usize,
    }

    impl ModelLru {
        fn forget(&mut self, key: &str) {
            self.order.retain(|k| k != key);
            self.entries.remove(key);
        }

        fn get(&mut self, key: &str, epoch: u64) -> Option<CachedScores> {
            let (stored, scores) = *self.entries.get(key)?;
            self.forget(key);
            if stored != epoch {
                return None;
            }
            self.order.push_front(key.to_owned());
            self.entries.insert(key.to_owned(), (stored, scores));
            Some(scores)
        }

        fn insert(&mut self, key: &str, epoch: u64, scores: CachedScores) {
            if self.capacity == 0 {
                return;
            }
            self.forget(key);
            if self.entries.len() >= self.capacity {
                let lru = self.order.pop_back().expect("a full LRU has a tail");
                self.entries.remove(&lru);
            }
            self.order.push_front(key.to_owned());
            self.entries.insert(key.to_owned(), (epoch, scores));
        }
    }

    /// Keys that share prefixes and lengths: first some around and past
    /// the inline length, then short ones.
    fn model_keys() -> Vec<String> {
        let mut keys = vec![
            String::new(),
            "a".repeat(KEY_INLINE),
            "a".repeat(KEY_INLINE + 1),
            format!("{}b", "a".repeat(KEY_INLINE)),
            format!("http://long.de/{}", "p".repeat(2 * KEY_INLINE)),
        ];
        keys.extend((0..35).map(|i| format!("http://k{i}.de/")));
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get / insert / epoch-bump / clear sequences agree with
        /// the reference LRU on every result, on `len` and on the hit
        /// and miss counters.
        #[test]
        fn cache_agrees_with_a_reference_lru(
            capacity in 0usize..24,
            ops in proptest::collection::vec((0u8..10, 0usize..40, 0u8..4), 0..300),
        ) {
            let keys = model_keys();
            let cache = ResultCache::new(capacity, 1);
            let mut model = ModelLru { capacity, ..ModelLru::default() };
            let (mut epoch, mut hits, mut misses) = (0u64, 0u64, 0u64);
            // A working set a few keys larger than the capacity, so that
            // hits and evictions both stay common at every capacity.
            let working_set = (capacity + 6).min(keys.len());
            for (step, &(op, key, extra)) in ops.iter().enumerate() {
                let key = keys[key % working_set].as_str();
                match op {
                    0..=3 => {
                        let got = cache.get(key, epoch);
                        let want = model.get(key, epoch);
                        prop_assert_eq!(got, want, "get {:?} at step {}", key, step);
                        if want.is_some() { hits += 1 } else { misses += 1 }
                    }
                    4..=7 => {
                        // One insert in four carries the previous epoch,
                        // like a miss scored across a reload.
                        let at = if extra == 0 { epoch.saturating_sub(1) } else { epoch };
                        let value = scores(step as f64);
                        cache.insert(key, at, value);
                        model.insert(key, at, value);
                    }
                    8 => epoch += 1,
                    _ => {
                        cache.clear();
                        model.order.clear();
                        model.entries.clear();
                    }
                }
                prop_assert_eq!(cache.len(), model.entries.len(), "len at step {}", step);
            }
            prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        }
    }
}

//! [`LruTable`]: the small fully-associative, LRU-replaced table that every
//! prefetcher metadata table and Alecto's PC-indexed tables are built on.

/// A fully-associative table of at most `capacity` entries with
/// least-recently-stamped replacement.
///
/// Keys, stamps and values live in three dense arrays, so a lookup scans
/// only the packed keys (64 `u64` keys are 512 B) instead of whole
/// `Option<Entry>` records. Stamps are chosen by the caller: each table
/// keeps its own clock and stamps a slot exactly where its replacement
/// policy says an entry was used ([`LruTable::insert`] and
/// [`LruTable::touch`]).
///
/// The table reproduces, slot for slot, the classic
/// `Vec<Option<Entry>>` table that looks a key up with
/// `position(|e| e.tag == key)`, fills `position(Option::is_none)` and
/// otherwise evicts `enumerate().min_by_key(|e| e.lru)`. Two facts make
/// that exact:
///
/// * **Slots are filled in index order and never freed.** An entry is only
///   ever replaced in place, so the first empty slot is always
///   [`LruTable::len`]. (A caller that empties a victim slot must refill it
///   straight away; [`LruTable::insert`] does both in one step and hands the
///   displaced entry back.)
/// * **The victim is the lowest index among the minimum stamps**, which is
///   what `Iterator::min_by_key` returns when several entries tie.
///
/// Keys are unique: callers look a key up before inserting it.
///
/// ```
/// use alecto_types::LruTable;
///
/// let mut t: LruTable<u32, &str> = LruTable::new(2);
/// assert_eq!(t.insert(7, 1, "a"), (0, None));
/// assert_eq!(t.insert(9, 2, "b"), (1, None));
/// t.touch(0, 3); // key 7 is now the most recent
/// assert_eq!(t.insert(4, 4, "c"), (1, Some((9, "b"))));
/// assert_eq!(t.find(7), Some(0));
/// assert_eq!(t.get(4), Some(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    keys: Vec<K>,
    stamps: Vec<u64>,
    vals: Vec<V>,
    capacity: usize,
}

impl<K: Copy + PartialEq, V> LruTable<K, V> {
    /// Creates an empty table holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            keys: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            vals: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of occupied slots; slots `0..len()` are occupied.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no slot is occupied yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The slot holding `key`, if any.
    #[inline]
    #[must_use]
    pub fn find(&self, key: K) -> Option<usize> {
        // Compare eight keys at a time into a bit mask: branch-free inside a
        // chunk, so the compiler can vectorise the comparisons.
        let mut chunks = self.keys.chunks_exact(8);
        let mut base = 0;
        for chunk in &mut chunks {
            let mut hits = 0u32;
            for (i, &k) in chunk.iter().enumerate() {
                hits |= u32::from(k == key) << i;
            }
            if hits != 0 {
                return Some(base + hits.trailing_zeros() as usize);
            }
            base += 8;
        }
        chunks.remainder().iter().position(|&k| k == key).map(|i| base + i)
    }

    /// The value stored under `key`, if any. Does not change its stamp.
    #[inline]
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key).map(|slot| &self.vals[slot])
    }

    /// The key in occupied `slot`.
    #[inline]
    #[must_use]
    pub fn key(&self, slot: usize) -> K {
        self.keys[slot]
    }

    /// The stamp of occupied `slot`.
    #[inline]
    #[must_use]
    pub fn stamp(&self, slot: usize) -> u64 {
        self.stamps[slot]
    }

    /// The value in occupied `slot`.
    #[inline]
    #[must_use]
    pub fn value(&self, slot: usize) -> &V {
        &self.vals[slot]
    }

    /// The value in occupied `slot`, mutably.
    #[inline]
    pub fn value_mut(&mut self, slot: usize) -> &mut V {
        &mut self.vals[slot]
    }

    /// Sets the stamp of occupied `slot` (marks it used at time `stamp`).
    #[inline]
    pub fn touch(&mut self, slot: usize, stamp: u64) {
        self.stamps[slot] = stamp;
    }

    /// The slot the next insert replaces, or `None` while the table still
    /// has room: the lowest index among the minimum stamps.
    fn victim(&self) -> Option<usize> {
        if self.keys.len() < self.capacity {
            return None;
        }
        let mut best = 0;
        for (i, &s) in self.stamps.iter().enumerate().skip(1) {
            if s < self.stamps[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Stores `key` (which must not be present) with `stamp` and `value`.
    /// Fills slot [`LruTable::len`] while there is room; otherwise replaces
    /// the victim, the lowest-indexed slot among the minimum stamps, and
    /// returns its old key and value.
    ///
    /// # Panics
    ///
    /// Panics if the table was created with capacity 0.
    pub fn insert(&mut self, key: K, stamp: u64, value: V) -> (usize, Option<(K, V)>) {
        debug_assert!(self.find(key).is_none(), "LruTable keys are unique");
        match self.victim() {
            None => {
                self.keys.push(key);
                self.stamps.push(stamp);
                self.vals.push(value);
                (self.keys.len() - 1, None)
            }
            Some(slot) => {
                assert!(self.capacity > 0, "LruTable has no entries");
                let old_key = std::mem::replace(&mut self.keys[slot], key);
                self.stamps[slot] = stamp;
                let old_value = std::mem::replace(&mut self.vals[slot], value);
                (slot, Some((old_key, old_value)))
            }
        }
    }
}

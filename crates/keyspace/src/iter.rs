//! Iteration over keyspace intervals with the amortized-O(1) `next`
//! operator: one call to `f(id)` at the interval start, then pure
//! increments (Section IV: "the next(f(i)) function can be obtained with a
//! much smaller effort ... in most cases it modifies just a single
//! character").

use crate::interval::Interval;
use crate::key::Key;
use crate::space::KeySpace;

/// Iterator yielding `(id, Key)` pairs over an interval of a [`KeySpace`].
///
/// Clones the key on each `next()`; use [`KeyIter::for_each_key`] to visit
/// keys by reference without per-item clones on hot paths.
#[derive(Debug, Clone)]
pub struct KeyIter<'a> {
    space: &'a KeySpace,
    current: Key,
    next_id: u128,
    remaining: u128,
    primed: bool,
}

impl<'a> KeyIter<'a> {
    /// Create an iterator over `interval` clamped to the space bounds.
    pub fn new(space: &'a KeySpace, interval: Interval) -> Self {
        let clamped = interval.intersect(&space.interval());
        Self {
            space,
            current: Key::empty(),
            next_id: clamped.start,
            remaining: clamped.len,
            primed: false,
        }
    }

    /// Visit every remaining key by reference. Returns the number visited,
    /// stopping early when `f` returns `false`.
    pub fn for_each_key<F>(mut self, mut f: F) -> u128
    where
        F: FnMut(u128, &Key) -> bool,
    {
        let mut visited = 0u128;
        while self.remaining > 0 {
            self.prime();
            if !f(self.next_id, &self.current) {
                return visited + 1;
            }
            visited += 1;
            self.step();
        }
        visited
    }

    fn prime(&mut self) {
        if !self.primed {
            self.space.key_at_into(self.next_id, &mut self.current);
            self.primed = true;
        }
    }

    fn step(&mut self) {
        self.remaining -= 1;
        if self.remaining > 0 {
            self.space.advance_key(&mut self.current);
        }
        self.next_id += 1;
    }
}

impl Iterator for KeyIter<'_> {
    type Item = (u128, Key);

    fn next(&mut self) -> Option<(u128, Key)> {
        if self.remaining == 0 {
            return None;
        }
        self.prime();
        let item = (self.next_id, self.current.clone());
        self.step();
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charset::Charset;
    use crate::encode::Order;

    fn space() -> KeySpace {
        KeySpace::new(Charset::from_bytes(b"abc").unwrap(), 1, 3, Order::LastCharFastest).unwrap()
    }

    #[test]
    fn yields_whole_space_in_order() {
        let s = space();
        let keys: Vec<String> = s
            .iter(s.interval())
            .map(|(_, k)| k.to_string())
            .collect();
        assert_eq!(keys.len(), 39);
        assert_eq!(keys.first().map(String::as_str), Some("a"));
        assert_eq!(keys.get(3).map(String::as_str), Some("aa"));
        assert_eq!(keys.get(38).map(String::as_str), Some("ccc"));
        // Agreement with direct indexing everywhere.
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*k, s.key_at(i as u128).to_string());
        }
    }

    #[test]
    fn ids_match_positions() {
        let s = space();
        for (id, key) in s.iter(Interval::new(5, 10)) {
            assert_eq!(s.id_of(&key), Some(id));
        }
    }

    #[test]
    fn interval_is_clamped() {
        let s = space();
        let got: Vec<_> = s.iter(Interval::new(35, 100)).collect();
        assert_eq!(got.len(), 4); // ids 35..39
    }

    #[test]
    fn empty_interval_yields_nothing() {
        let s = space();
        assert_eq!(s.iter(Interval::new(10, 0)).count(), 0);
    }

    #[test]
    fn for_each_key_visits_all() {
        let s = space();
        let mut seen = Vec::new();
        let visited = s.iter(Interval::new(0, 6)).for_each_key(|id, k| {
            seen.push((id, k.to_string()));
            true
        });
        assert_eq!(visited, 6);
        assert_eq!(seen.get(4), Some(&(4, "ab".to_string())));
    }

    #[test]
    fn for_each_key_early_stop() {
        let s = space();
        let visited = s
            .iter(s.interval())
            .for_each_key(|_, k| k.to_string() != "ab");
        assert_eq!(visited, 5); // a, b, c, aa, then ab (id 4) stops the scan
    }

    #[test]
    fn size_hint_is_exact() {
        let s = space();
        let it = s.iter(Interval::new(0, 7));
        assert_eq!(it.size_hint(), (7, Some(7)));
    }
}

//! String ↔ [`Id`] dictionary.
//!
//! One global dictionary interns every term of a data set — subjects,
//! properties and objects share the id space, which is what makes the
//! paper's *join pattern C* (`o = s'`, "semantic role change") a plain
//! integer equi-join. The Barton data set interns 18,468,875 strings
//! (Table 1); the id assigned to a string is its insertion rank.
//!
//! ## Sealed segments
//!
//! The dictionary is append-only, so it is stored as immutable
//! *segments* behind `Arc`s plus one small mutable tail. Each segment
//! owns a contiguous id range, its strings and its lookup map; new terms
//! go to the tail until [`Dictionary::seal`] turns the tail into a
//! segment. Cloning a dictionary copies segment pointers and the tail,
//! so a snapshot of a sealed dictionary shares every string with the
//! writer's copy, and dropping it frees at most one tail's worth of
//! terms. Each seal merges segments geometrically (while the newest holds
//! at least half as many terms as the one before it, the two merge), so
//! there are O(log terms) of them and every lookup probes that many maps
//! at most.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::Id;

/// A contiguous run of the dictionary: the terms with ids
/// `base..base + strings.len()`.
#[derive(Debug, Default, Clone)]
struct Segment {
    base: Id,
    strings: Vec<String>,
    lookup: FxHashMap<String, Id>,
}

impl Segment {
    /// One past the last id of this segment.
    fn end(&self) -> Id {
        self.base + self.strings.len() as Id
    }
}

/// Interning dictionary mapping term strings to dense [`Id`]s and back.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Sealed segments in id order, the first starting at id 0.
    sealed: Vec<Arc<Segment>>,
    /// The mutable tail; it starts where the last sealed segment ends.
    tail: Segment,
    /// Total bytes of interned string payload (used for the Table 1
    /// "data set size" estimate).
    payload_bytes: u64,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with room for `cap` strings.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            tail: Segment {
                base: 0,
                strings: Vec::with_capacity(cap),
                lookup: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
            },
            ..Self::default()
        }
    }

    /// Interns `term`, returning its id. Existing terms keep their id.
    pub fn intern(&mut self, term: &str) -> Id {
        if let Some(id) = self.id_of(term) {
            return id;
        }
        let id = self.tail.end();
        self.tail.strings.push(term.to_owned());
        self.tail.lookup.insert(term.to_owned(), id);
        self.payload_bytes += term.len() as u64;
        id
    }

    /// Looks up an already-interned term: the tail first, then the
    /// sealed segments from newest to oldest.
    pub fn id_of(&self, term: &str) -> Option<Id> {
        if let Some(&id) = self.tail.lookup.get(term) {
            return Some(id);
        }
        self.sealed
            .iter()
            .rev()
            .find_map(|s| s.lookup.get(term).copied())
    }

    /// Resolves an id back to its term. Panics on an id this dictionary
    /// never produced (that is a logic error, not an input error).
    pub fn term(&self, id: Id) -> &str {
        self.get_term(id)
            .unwrap_or_else(|| panic!("id {id} is not in a dictionary of {} terms", self.len()))
    }

    /// Resolves an id if it is in range.
    pub fn get_term(&self, id: Id) -> Option<&str> {
        let s = self.segment_of(id);
        let at = usize::try_from(id - s.base).ok()?;
        s.strings.get(at).map(String::as_str)
    }

    /// The segment whose id range holds `id`, or the tail for any id past
    /// the sealed ones. The tail is tested first: an unsealed dictionary
    /// resolves an id with one comparison more than a flat vector.
    fn segment_of(&self, id: Id) -> &Segment {
        if id >= self.tail.base {
            return &self.tail;
        }
        // The sealed segments tile `0..tail.base`, so one holds `id`.
        &self.sealed[self.sealed.partition_point(|s| s.end() <= id)]
    }

    /// Number of interned strings (Table 1: "strings in dictionary").
    pub fn len(&self) -> usize {
        self.tail.end() as usize
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of interned string payload.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &str)> {
        self.terms_from(0)
    }

    /// Iterates `(id, term)` pairs in id order, from `from` on. It starts
    /// in the segment that holds `from`, so listing the last few terms
    /// costs what they cost, not what the whole dictionary does.
    pub fn terms_from(&self, from: Id) -> impl Iterator<Item = (Id, &str)> {
        let first = self.sealed.partition_point(|s| s.end() <= from);
        self.sealed[first..]
            .iter()
            .map(|s| &**s)
            .chain(std::iter::once(&self.tail))
            .flat_map(move |s| {
                let skip = (from.saturating_sub(s.base) as usize).min(s.strings.len());
                (s.base + skip as Id..)
                    .zip(&s.strings[skip..])
                    .map(|(id, t)| (id, t.as_str()))
            })
    }

    /// Seals the tail into an immutable segment that clones share, then
    /// merges segments geometrically: while the newest sealed segment
    /// holds at least half as many terms as the one before it, the two
    /// become one. A no-op when the tail is empty.
    pub fn seal(&mut self) {
        if self.tail.strings.is_empty() {
            return;
        }
        let base = self.tail.end();
        let mut newest = std::mem::replace(
            &mut self.tail,
            Segment {
                base,
                ..Segment::default()
            },
        );
        while let Some(older) = self.sealed.last() {
            if newest.strings.len() * 2 < older.strings.len() {
                break;
            }
            // A segment a clone still holds is copied, never mutated.
            let older = self.sealed.pop().expect("checked by `last`");
            let mut merged = Arc::unwrap_or_clone(older);
            merged.strings.append(&mut newest.strings);
            merged.lookup.extend(newest.lookup);
            newest = merged;
        }
        self.sealed.push(Arc::new(newest));
    }
}

#[cfg(test)]
impl Dictionary {
    /// The sealed segments, oldest first.
    fn sealed_segments(&self) -> &[Arc<Segment>] {
        &self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("<type>");
        let b = d.intern("<type>");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_insertion_ranks() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("c"), 2);
        assert_eq!(d.intern("b"), 1);
    }

    #[test]
    fn roundtrip() {
        let mut d = Dictionary::new();
        let id = d.intern("<http://example.org/records>");
        assert_eq!(d.term(id), "<http://example.org/records>");
        assert_eq!(d.id_of("<http://example.org/records>"), Some(id));
        assert_eq!(d.id_of("<missing>"), None);
        assert_eq!(d.get_term(999), None);
    }

    #[test]
    fn payload_bytes_counts_each_string_once() {
        let mut d = Dictionary::new();
        d.intern("abcd");
        d.intern("abcd");
        d.intern("ef");
        assert_eq!(d.payload_bytes(), 6);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let collected: Vec<_> = d.iter().collect();
        assert_eq!(collected, vec![(0, "x"), (1, "y")]);
    }

    /// Interning any sequence of strings round-trips: every string maps
    /// to an id that resolves back to the same string, and ids stay dense
    /// in `0..len`. Seeded (xorshift64*, the workspace's offline
    /// property-test generator) over short strings of a small alphabet
    /// with multi-byte characters, so repeats are common. The tail is
    /// sealed at random points and the dictionary cloned at others; every
    /// clone must keep answering exactly like a flat reference map of the
    /// terms interned when it was taken, while the original grows on.
    #[test]
    fn roundtrip_random() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        let alphabet = ['a', 'b', '<', '>', ' ', 'é', '語', '\n'];
        for _ in 0..256 {
            let terms: Vec<String> = (0..below(200))
                .map(|_| {
                    (0..below(4))
                        .map(|_| alphabet[below(alphabet.len() as u64) as usize])
                        .collect()
                })
                .collect();
            let mut d = Dictionary::new();
            let mut reference: Vec<&str> = Vec::new();
            let mut clones: Vec<(Dictionary, usize)> = Vec::new();
            let mut ids = Vec::new();
            for t in &terms {
                let id = d.intern(t);
                if id as usize == reference.len() {
                    reference.push(t);
                }
                ids.push(id);
                match below(16) {
                    0..=2 => d.seal(),
                    3 => clones.push((d.clone(), reference.len())),
                    _ => {}
                }
            }
            clones.push((d.clone(), reference.len()));
            for (t, &id) in terms.iter().zip(&ids) {
                assert_eq!(d.term(id), t);
                assert_eq!(d.id_of(t), Some(id));
            }
            let distinct: std::collections::HashSet<_> = terms.iter().collect();
            assert_eq!(d.len(), distinct.len());
            assert!(ids.iter().all(|&id| (id as usize) < d.len()));
            for (c, n) in &clones {
                let flat = &reference[..*n];
                assert_eq!(c.len(), flat.len());
                let listed: Vec<(Id, &str)> = c.iter().collect();
                let want: Vec<(Id, &str)> = (0..).zip(flat.iter().copied()).collect();
                assert_eq!(listed, want);
                let from = below(flat.len() as u64 + 2);
                let tail: Vec<(Id, &str)> = c.terms_from(from).collect();
                assert_eq!(tail, want[(from as usize).min(want.len())..]);
                for t in &terms {
                    let expect = flat.iter().position(|f| f == t).map(|i| i as Id);
                    assert_eq!(c.id_of(t), expect, "clone of {n} terms, term {t:?}");
                }
                for (id, t) in &want {
                    assert_eq!(c.term(*id), *t);
                }
                assert_eq!(c.get_term(flat.len() as Id), None);
            }
        }
    }

    /// Geometric merging keeps the segment count logarithmic: sizes more
    /// than double from each segment to the one before it.
    #[test]
    fn single_term_seals_leave_few_segments() {
        let mut d = Dictionary::new();
        for i in 0..10_000 {
            d.intern(&format!("<t{i}>"));
            d.seal();
            let n = d.sealed_segments().len();
            assert!(n <= 15, "{n} segments after {i} seals");
        }
        let sizes: Vec<usize> = d
            .sealed_segments()
            .iter()
            .map(|s| s.strings.len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] > 2 * w[1]), "{sizes:?}");
        assert_eq!(d.id_of("<t0>"), Some(0));
        assert_eq!(d.term(9_999), "<t9999>");
    }

    /// A clone shares the sealed segments of the original: copying a
    /// sealed dictionary copies no strings.
    #[test]
    fn clones_share_sealed_segments() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            d.intern(&format!("<t{i}>"));
        }
        d.seal();
        d.intern("<in the tail>");
        let c = d.clone();
        let (a, b) = (d.sealed_segments(), c.sealed_segments());
        assert_eq!(a.len(), 1);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)));
        assert_eq!(c.id_of("<in the tail>"), Some(100));
    }

    #[test]
    fn sealing_an_empty_tail_is_a_no_op() {
        let mut d = Dictionary::new();
        d.seal();
        assert!(d.sealed_segments().is_empty());
        d.intern("a");
        d.seal();
        d.seal();
        assert_eq!(d.sealed_segments().len(), 1);
        assert_eq!(d.intern("b"), 1);
    }
}

//! String ↔ [`Id`] dictionary.
//!
//! One global dictionary interns every term of a data set — subjects,
//! properties and objects share the id space, which is what makes the
//! paper's *join pattern C* (`o = s'`, "semantic role change") a plain
//! integer equi-join. The Barton data set interns 18,468,875 strings
//! (Table 1); the id assigned to a string is its insertion rank.

use crate::hash::FxHashMap;
use crate::Id;

/// Interning dictionary mapping term strings to dense [`Id`]s and back.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    strings: Vec<String>,
    lookup: FxHashMap<String, Id>,
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
            strings: Vec::with_capacity(cap),
            lookup: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
            payload_bytes: 0,
        }
    }

    /// Interns `term`, returning its id. Existing terms keep their id.
    pub fn intern(&mut self, term: &str) -> Id {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id = self.strings.len() as Id;
        self.strings.push(term.to_owned());
        self.lookup.insert(term.to_owned(), id);
        self.payload_bytes += term.len() as u64;
        id
    }

    /// Looks up an already-interned term.
    pub fn id_of(&self, term: &str) -> Option<Id> {
        self.lookup.get(term).copied()
    }

    /// Resolves an id back to its term. Panics on an id this dictionary
    /// never produced (that is a logic error, not an input error).
    pub fn term(&self, id: Id) -> &str {
        &self.strings[id as usize]
    }

    /// Resolves an id if it is in range.
    pub fn get_term(&self, id: Id) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of interned strings (Table 1: "strings in dictionary").
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of interned string payload.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as Id, s.as_str()))
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
    /// with multi-byte characters, so repeats are common.
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
            let ids: Vec<Id> = terms.iter().map(|t| d.intern(t)).collect();
            for (t, &id) in terms.iter().zip(&ids) {
                assert_eq!(d.term(id), t);
                assert_eq!(d.id_of(t), Some(id));
            }
            let distinct: std::collections::HashSet<_> = terms.iter().collect();
            assert_eq!(d.len(), distinct.len());
            assert!(ids.iter().all(|&id| (id as usize) < d.len()));
        }
    }
}

//! The in-memory data set: a triple bag plus its dictionary.

use crate::hash::FxHashSet;
use crate::{Delta, Dictionary, Id, Triple};

/// A dictionary-encoded RDF data set.
///
/// This is the neutral interchange form: the storage engines load from it,
/// the generator produces it, and [`crate::stats`] summarizes it. Triples
/// are kept in load order; the storage schemes impose their own clustering.
///
/// A clone copies the triple bag but shares the dictionary's sealed
/// segments ([`Dictionary::seal`]): only the unsealed tail is copied.
#[derive(Debug, Default, Clone)]
pub struct Dataset {
    /// Term dictionary shared by subjects, properties and objects.
    pub dict: Dictionary,
    /// The triple bag, in load order.
    pub triples: Vec<Triple>,
}

impl Dataset {
    /// Creates an empty data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty data set sized for `triples` triples.
    pub fn with_capacity(triples: usize) -> Self {
        Self {
            dict: Dictionary::with_capacity(triples / 2),
            triples: Vec::with_capacity(triples),
        }
    }

    /// A clone whose triple bag has room for `extra` more triples, so a
    /// copy-on-write that then appends a batch copies the bag once instead
    /// of copying it and then growing it.
    pub fn clone_with_room(&self, extra: usize) -> Self {
        let mut triples = Vec::with_capacity(self.triples.len() + extra);
        triples.extend_from_slice(&self.triples);
        Self {
            dict: self.dict.clone(),
            triples,
        }
    }

    /// Interns the three terms and appends the triple.
    pub fn add(&mut self, s: &str, p: &str, o: &str) -> Triple {
        let t = Triple::new(
            self.dict.intern(s),
            self.dict.intern(p),
            self.dict.intern(o),
        );
        self.triples.push(t);
        t
    }

    /// Appends an already-encoded triple. The caller guarantees the ids came
    /// from this data set's dictionary.
    pub fn add_encoded(&mut self, t: Triple) {
        self.triples.push(t);
    }

    /// Interns the three terms *without* appending a triple — the
    /// incremental-interning step of the write path: new terms arriving in
    /// an insert batch get fresh dense ids, existing terms keep theirs, and
    /// nothing else about the dictionary is rebuilt.
    pub fn encode(&mut self, s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            self.dict.intern(s),
            self.dict.intern(p),
            self.dict.intern(o),
        )
    }

    /// Encodes a triple only if all three terms are already interned.
    ///
    /// This is the delete-path encoder: a triple naming an unknown term
    /// cannot be stored here, so there is nothing to delete (and no reason
    /// to pollute the dictionary with the attempt).
    pub fn try_encode(&self, s: &str, p: &str, o: &str) -> Option<Triple> {
        Some(Triple::new(
            self.dict.id_of(s)?,
            self.dict.id_of(p)?,
            self.dict.id_of(o)?,
        ))
    }

    /// Applies a [`Delta`] to the triple bag: removes every copy of each
    /// deleted triple, then appends the inserts in order. The caller
    /// guarantees the delta's ids came from this data set's dictionary.
    ///
    /// This keeps the data set the *logical* truth of the system while the
    /// engines absorb the same delta physically — a fresh bulk load of the
    /// post-`apply` data set must answer every query exactly like an engine
    /// that took the delta through its write path.
    pub fn apply(&mut self, delta: &Delta) {
        if !delta.deletes.is_empty() {
            let doomed: FxHashSet<Triple> = delta.deletes.iter().copied().collect();
            self.triples.retain(|t| !doomed.contains(t));
        }
        self.triples.extend_from_slice(&delta.inserts);
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the data set holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Distinct property ids, sorted by descending frequency (ties by id).
    ///
    /// This ordering matters: the benchmark's "28 interesting properties"
    /// and the Figure 6 property sweep both take prefixes of the
    /// frequency-ranked property list.
    pub fn properties_by_frequency(&self) -> Vec<(Id, u64)> {
        let mut freq: crate::hash::FxHashMap<Id, u64> = Default::default();
        for t in &self.triples {
            *freq.entry(t.p).or_insert(0) += 1;
        }
        let mut v: Vec<(Id, u64)> = freq.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Distinct property ids in ascending id order.
    pub fn distinct_properties(&self) -> Vec<Id> {
        let mut set = FxHashSet::default();
        for t in &self.triples {
            set.insert(t.p);
        }
        let mut v: Vec<Id> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Looks up a term id, panicking with a clear message when the term is
    /// not part of this data set (benchmark constants must exist).
    pub fn expect_id(&self, term: &str) -> Id {
        self.dict
            .id_of(term)
            .unwrap_or_else(|| panic!("term {term:?} is not in the data set dictionary"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut d = Dataset::new();
        d.add("s1", "type", "Text");
        d.add("s1", "lang", "fre");
        d.add("s2", "type", "Text");
        d.add("s2", "type", "Date");
        d
    }

    #[test]
    fn add_interns_and_appends() {
        let d = tiny();
        assert_eq!(d.len(), 4);
        // s1, type, Text, lang, fre, s2, Date = 7 strings
        assert_eq!(d.dict.len(), 7);
    }

    #[test]
    fn properties_by_frequency_ranks_type_first() {
        let d = tiny();
        let props = d.properties_by_frequency();
        assert_eq!(props.len(), 2);
        assert_eq!(d.dict.term(props[0].0), "type");
        assert_eq!(props[0].1, 3);
        assert_eq!(d.dict.term(props[1].0), "lang");
    }

    #[test]
    fn distinct_properties_sorted_by_id() {
        let d = tiny();
        let props = d.distinct_properties();
        assert_eq!(props.len(), 2);
        assert!(props.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "not in the data set dictionary")]
    fn expect_id_panics_on_missing_term() {
        tiny().expect_id("<nope>");
    }

    #[test]
    fn apply_deletes_all_copies_then_inserts() {
        let mut d = tiny();
        d.add("s2", "type", "Text"); // second copy
        let doomed = d.try_encode("s2", "type", "Text").unwrap();
        let fresh = d.encode("s3", "type", "Image");
        let mut delta = Delta::new();
        delta.delete(doomed).insert(fresh);
        let before = d.len();
        d.apply(&delta);
        assert_eq!(d.len(), before - 2 + 1, "both copies go, one insert lands");
        assert!(!d.triples.contains(&doomed));
        assert!(d.triples.contains(&fresh));
    }

    #[test]
    fn try_encode_requires_known_terms() {
        let d = tiny();
        assert!(d.try_encode("s1", "type", "Text").is_some());
        assert_eq!(d.try_encode("s1", "type", "<unseen>"), None);
    }

    #[test]
    fn encode_interns_without_appending() {
        let mut d = tiny();
        let n = d.len();
        let t = d.encode("brand", "new", "terms");
        assert_eq!(d.len(), n, "encode must not append");
        assert_eq!(d.dict.term(t.p), "new");
    }

    #[test]
    fn clone_with_room_reserves_the_batch() {
        let d = tiny();
        let c = d.clone_with_room(50);
        assert_eq!(c.triples, d.triples);
        assert_eq!(c.dict.len(), d.dict.len());
        assert!(c.triples.capacity() >= d.len() + 50);
    }

    #[test]
    fn frequency_ties_break_by_id() {
        let mut d = Dataset::new();
        d.add("a", "p1", "x");
        d.add("a", "p2", "x");
        let props = d.properties_by_frequency();
        assert!(props[0].0 < props[1].0);
    }
}

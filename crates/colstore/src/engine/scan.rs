//! The base scan: one pipeline over either physical scheme.
//!
//! A vertically-partitioned property table is a PSO-clustered triples
//! table whose constant `p` column is not stored, so both
//! [`Plan::ScanTriples`] and [`Plan::ScanProperty`] describe their table
//! as a [`ScanTable`] and run [`ColumnEngine::scan_table`]: binary-search
//! the bound prefix of the sort key (RLE run headers on a compressed lead
//! column), residual-filter the rest, take the write-store union path iff
//! a tombstone or a matching pending insert can affect the range, else
//! materialize the needed columns as run / shared / range-copy / gather.
//!
//! [`Plan::ScanTriples`]: swans_plan::algebra::Plan::ScanTriples
//! [`Plan::ScanProperty`]: swans_plan::algebra::Plan::ScanProperty

use std::sync::atomic::Ordering;
use std::sync::Arc;

use swans_plan::exec::{EngineError, QueryBudget};
use swans_rdf::{Id, Triple};

use super::exec::bit;
use super::store::{bump, ColumnEngine};
use crate::chunk::{Chunk, ColData, RunCol};
use crate::column::Column;
use crate::ops;

/// One stored table as the base scan sees it. Positions are *logical*
/// triple positions throughout: 0 = s, 1 = p, 2 = o.
struct ScanTable<'a> {
    /// The stored columns in sort-key order, each with its logical
    /// position. Empty for a property that has no sorted table yet (never
    /// loaded, or only just inserted into): the pending tail is then the
    /// whole answer.
    keys: Vec<(usize, &'a Column)>,
    /// The property every row holds when the `p` column is not stored (a
    /// vertically-partitioned table); synthesised at output.
    property: Option<Id>,
    /// Pending inserts inside the scan's bounds, in arrival order — the
    /// unsorted tail a write-store union appends.
    tail: Vec<Triple>,
    /// Whether a tombstone could hide a stored row inside the bounds.
    tombstones_possible: bool,
    /// Output column of each logical position (`None`: not emitted).
    out_pos: [Option<usize>; 3],
}

impl<'a> ScanTable<'a> {
    fn col(&self, pos: usize) -> Option<&'a Column> {
        self.keys.iter().find(|&&(p, _)| p == pos).map(|&(_, c)| c)
    }
}

impl ColumnEngine {
    /// Scans the triples table, `(s, p, o)` in its clustering order.
    pub(super) fn scan_triples(
        &self,
        budget: &QueryBudget,
        bounds: [Option<Id>; 3],
        needed: u64,
    ) -> Result<Chunk, EngineError> {
        let t = self
            .triple
            .as_ref()
            .ok_or(EngineError::MissingTripleStore)?;
        let table = ScanTable {
            keys: t
                .order
                .permutation()
                .iter()
                .map(|&c| (c, &t.cols[c]))
                .collect(),
            property: None,
            tail: self
                .write
                .inserts
                .iter()
                .filter(|t| (0..3).all(|c| bounds[c].is_none_or(|v| t.as_row()[c] == v)))
                .copied()
                .collect(),
            tombstones_possible: match bounds[1] {
                Some(p) => self.write.delete_props.contains(&p),
                None => !self.write.deletes.is_empty(),
            },
            out_pos: [Some(0), Some(1), Some(2)],
        };
        Ok(self.scan_table(budget, &table, bounds, needed))
    }

    /// Scans one property table: `(s, o)` sorted by subject then object,
    /// the constant `p` emitted on request.
    pub(super) fn scan_property(
        &self,
        budget: &QueryBudget,
        property: Id,
        s: Option<Id>,
        o: Option<Id>,
        emit_property: bool,
        needed: u64,
    ) -> Result<Chunk, EngineError> {
        if !self.vertical_loaded {
            return Err(EngineError::MissingVerticalLayout);
        }
        let stored = self.props.get(&property);
        let table = ScanTable {
            keys: stored.map_or_else(Vec::new, |t| vec![(0, &t.s), (2, &t.o)]),
            property: Some(property),
            tail: self
                .write
                .by_prop
                .get(&property)
                .map_or_else(Vec::new, |rows| {
                    rows.iter()
                        .filter(|&&(rs, ro)| s.is_none_or(|v| rs == v) && o.is_none_or(|v| ro == v))
                        .map(|&(rs, ro)| Triple::new(rs, property, ro))
                        .collect()
                }),
            tombstones_possible: stored.is_some() && self.write.delete_props.contains(&property),
            out_pos: if emit_property {
                [Some(0), Some(1), Some(2)]
            } else {
                [Some(0), None, Some(1)]
            },
        };
        Ok(self.scan_table(budget, &table, [s, None, o], needed))
    }

    /// The base-scan pipeline (see the module docs). `bounds` are the
    /// scan's own `[s, p, o]` bounds; a table's constant property is not
    /// one of them.
    fn scan_table(
        &self,
        budget: &QueryBudget,
        table: &ScanTable<'_>,
        bounds: [Option<Id>; 3],
        needed: u64,
    ) -> Chunk {
        let rows = table.keys.first().map_or(0, |&(_, c)| c.len());
        // What an unstored column holds: the constant property — or
        // nothing at all, for a table with no stored rows.
        let constant = table.property.unwrap_or_default();

        // Bound columns that form a prefix of the sort key can be
        // resolved by binary search; the rest become residual filters.
        let mut range = 0..rows;
        let mut residual: Vec<(&[u64], u64)> = Vec::new();
        let mut in_prefix = true;
        for &(pos, col) in &table.keys {
            match (in_prefix, bounds[pos]) {
                (true, Some(v)) => {
                    // Leading clustered column with RLE run headers:
                    // resolve the bound from the headers directly.
                    if range == (0..col.len()) && col.is_sorted() && col.has_runs() {
                        bump(&self.stats.rle_selects);
                        range = col.eq_range(v);
                    } else {
                        // Within the current range, this sort column is
                        // sorted.
                        let hit = ops::eq_range(&col.read()[range.clone()], v);
                        range = range.start + hit.start..range.start + hit.end;
                    }
                }
                (true, None) => in_prefix = false,
                (false, Some(v)) => residual.push((col.read(), v)),
                (false, None) => {}
            }
        }

        // Residual filters over the range — one morsel-parallel pass:
        // the first residual column selects, the others prune.
        let mut sel: Option<Vec<u32>> = residual.split_first().map(|(&(first, v0), others)| {
            self.par_filter(budget, range.clone(), |r| {
                let mut sel = ops::select_cmp(&first[r.clone()], v0, false);
                sel.retain(|&i| others.iter().all(|&(d, v)| d[r.start + i as usize] == v));
                sel
            })
        });
        let full = range == (0..rows) && sel.is_none();

        // Union path only when the write store can actually affect this
        // scan (a tombstone that could fall in its bounds, or matching
        // pending inserts): the read-store rows minus tombstones, then
        // the tail (the props derivation has already downgraded this
        // scan's claimed order). Only the tombstone check forces every
        // stored column to be read — it needs the full (s, p, o) key;
        // with pending inserts alone, projection pushdown and BAT sharing
        // keep working below.
        let union = !table.tail.is_empty() || table.tombstones_possible;
        let idx: Option<Vec<u32>> = union.then(|| {
            bump(&self.stats.delta_union_scans);
            let mut idx = sel
                .take()
                .unwrap_or_else(|| (range.start as u32..range.end as u32).collect());
            if table.tombstones_possible {
                let stored: [Option<&[u64]>; 3] =
                    std::array::from_fn(|pos| table.col(pos).map(Column::read));
                let at = |pos: usize, i: usize| stored[pos].map_or(constant, |d| d[i]);
                idx.retain(|&i| {
                    let i = i as usize;
                    !self
                        .write
                        .deletes
                        .contains(&Triple::new(at(0, i), at(1, i), at(2, i)))
                });
            }
            idx
        });

        let stored_len = match (&idx, &sel) {
            (Some(idx), _) => idx.len(),
            (None, Some(sel)) => sel.len(),
            (None, None) => range.len(),
        };
        let with_tail = |mut v: Vec<u64>, pos: usize| {
            v.extend(table.tail.iter().map(|t| t.as_row()[pos]));
            ColData::Owned(v)
        };
        let mut cols: Vec<Option<ColData>> = vec![None; table.out_pos.iter().flatten().count()];
        for pos in 0..3 {
            let Some(out) = table.out_pos[pos].filter(|&out| needed & bit(out) != 0) else {
                continue;
            };
            cols[out] = Some(match (table.col(pos), &idx) {
                (None, _) => with_tail(vec![constant; stored_len], pos),
                (Some(col), Some(idx)) => with_tail(self.par_gather_u64(col.read(), idx), pos),
                // Only scans with no bound at all emit runs (mirroring
                // the derived `run_encoded` claim exactly — a bound scan
                // that happens to cover the whole range must still come
                // out flat, or the run column would be unclaimed), and
                // only from the lead sort column.
                (Some(col), None) => self.materialize(
                    col,
                    &range,
                    sel.as_deref(),
                    full && pos == table.keys[0].0 && bounds.iter().all(Option::is_none),
                ),
            });
        }
        Chunk::from_optional(stored_len + table.tail.len(), cols)
    }

    /// One stored column of a scan the write store cannot affect. With
    /// `may_emit_runs`, an RLE-stored column worth it comes out
    /// run-encoded — compressed execution starts at the scan, charging
    /// only the compressed segment and materializing nothing. Otherwise a
    /// full-range scan hands out the base column (BAT sharing) instead of
    /// copying it, and a restricted one copies its range or gathers its
    /// selection: a filtered or range-restricted output collapses the
    /// runs, and flat is the better representation there anyway.
    fn materialize(
        &self,
        col: &Column,
        range: &std::ops::Range<usize>,
        sel: Option<&[u32]>,
        may_emit_runs: bool,
    ) -> ColData {
        if may_emit_runs {
            if let Some(runs) = col.read_runs().filter(|r| Self::emit_worthy(r)) {
                return self.emit_runs(runs);
            }
        }
        match sel {
            None if *range == (0..col.len()) => ColData::Shared(col.read_shared()),
            None => ColData::Owned(col.read()[range.clone()].to_vec()),
            Some(s) => ColData::Owned(self.par_gather_u64(col.read(), s)),
        }
    }

    /// Wraps a stored column's run representation as scan output,
    /// accounting the compressed bytes actually charged versus the
    /// logical bytes a flat materialization would have cost.
    fn emit_runs(&self, runs: Arc<RunCol>) -> ColData {
        bump(&self.stats.run_scans);
        self.stats
            .scan_bytes_compressed
            .fetch_add(runs.compressed_bytes(), Ordering::Relaxed);
        self.stats
            .scan_bytes_logical
            .fetch_add(runs.len() as u64 * 8, Ordering::Relaxed);
        ColData::runs(runs)
    }

    /// Whether a stored run column is worth emitting as the execution
    /// representation at all. Storage compression engages at average run
    /// length 2 (that is where the bytes shrink), but the run *kernels*
    /// only collectively beat the vectorized flat loops from roughly
    /// average run length 5 — below that, scans hand out the flat
    /// zero-copy column (still charged at the compressed segment size)
    /// and only the RLE run-header selects exploit the headers.
    pub(super) fn emit_worthy(runs: &RunCol) -> bool {
        runs.len() >= 5 * runs.run_count()
    }
}

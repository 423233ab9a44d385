//! The column engine: storage layouts and the plan executor.
//!
//! Execution is *sortedness-aware*: before dispatching a join, group, or
//! distinct, the engine derives the input's physical properties
//! ([`swans_plan::props`]) against its own layout (the triples clustering
//! order; property tables are always `(s, o)`-sorted) and picks the
//! order-exploiting kernel when the derivation allows — merge joins,
//! run-based aggregation, linear distinct, binary-search selection, and
//! run-header resolution on RLE-compressed lead columns. Every dispatch
//! decision is counted in [`ExecStatsSnapshot`].
//!
//! Four modules, one seam each:
//!
//! * `store` — the tables, the write store, load / apply / merge /
//!   fork, the statistics catalog, and the dispatch-counter table;
//! * `scan` — the base scan, one pipeline for both physical schemes;
//! * `exec` — compile → execute → account, the operator dispatch, and
//!   the debug shadow validator;
//! * `kernels` — the morsel-parallel kernels, one body per shape, whose
//!   one-morsel case is the sequential kernel.

mod exec;
mod kernels;
mod scan;
mod store;

pub use store::{ColumnEngine, ExecStatsSnapshot, DEFAULT_MERGE_THRESHOLD};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::RunsView;
    use crate::parallel::{aligned_bounds, partitions};
    use swans_plan::algebra::{group_count, join, project, scan_all, scan_p, scan_po, CmpOp, Plan};
    use swans_plan::exec::EngineError;
    use swans_plan::naive;
    use swans_plan::props::{derive as derive_props, PhysProps};
    use swans_rdf::{Delta, SortOrder, Triple};
    use swans_storage::{MachineProfile, StorageManager};

    fn triples() -> Vec<Triple> {
        // type=0 Text=1 lang=2 fre=3 Date=4 eng=5, subjects 10..14
        vec![
            Triple::new(10, 0, 1),
            Triple::new(11, 0, 1),
            Triple::new(12, 0, 4),
            Triple::new(10, 2, 3),
            Triple::new(11, 2, 5),
            Triple::new(13, 2, 3),
        ]
    }

    fn engine(order: SortOrder) -> (StorageManager, ColumnEngine) {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &triples(), order, false);
        e.load_vertical(&m, &triples(), false);
        (m, e)
    }

    fn check(plan: &Plan, e: &ColumnEngine) {
        let got = naive::normalize(e.execute(plan).expect("plan executes").to_rows());
        let want = naive::normalize(naive::execute(plan, &triples()));
        assert_eq!(got, want, "plan {plan:?}");
    }

    #[test]
    fn scan_matches_naive_all_orders() {
        for order in SortOrder::ALL {
            let (_, e) = engine(order);
            check(&scan_all(), &e);
            check(&scan_po(0, 1), &e);
            check(
                &Plan::ScanTriples {
                    s: Some(10),
                    p: None,
                    o: None,
                },
                &e,
            );
            check(
                &Plan::ScanTriples {
                    s: Some(10),
                    p: Some(2),
                    o: None,
                },
                &e,
            );
            check(
                &Plan::ScanTriples {
                    s: None,
                    p: None,
                    o: Some(1),
                },
                &e,
            );
            check(
                &Plan::ScanTriples {
                    s: Some(10),
                    p: Some(0),
                    o: Some(1),
                },
                &e,
            );
        }
    }

    #[test]
    fn scan_property_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        for (s, o, emit) in [
            (None, None, false),
            (None, None, true),
            (Some(10), None, false),
            (None, Some(1), true),
            (Some(10), Some(1), false),
        ] {
            check(
                &Plan::ScanProperty {
                    property: 0,
                    s,
                    o,
                    emit_property: emit,
                },
                &e,
            );
        }
    }

    #[test]
    fn missing_property_scans_empty() {
        let (_, e) = engine(SortOrder::Pso);
        let p = Plan::ScanProperty {
            property: 999,
            s: None,
            o: None,
            emit_property: true,
        };
        assert!(e.execute(&p).expect("empty scan executes").is_empty());
    }

    /// Scans against a layout the engine never loaded return a typed error
    /// instead of aborting the process.
    #[test]
    fn missing_layout_is_an_error_not_a_panic() {
        let m = StorageManager::new(MachineProfile::B);
        let mut triple_only = ColumnEngine::new();
        triple_only.load_triple_store(&m, &triples(), SortOrder::Pso, false);
        let vp_scan = Plan::ScanProperty {
            property: 0,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(
            triple_only.execute(&vp_scan).unwrap_err(),
            EngineError::MissingVerticalLayout
        );

        let mut vertical_only = ColumnEngine::new();
        vertical_only.load_vertical(&m, &triples(), false);
        assert_eq!(
            vertical_only.execute(&scan_all()).unwrap_err(),
            EngineError::MissingTripleStore
        );
        // The error surfaces even when the bad scan is buried in a tree.
        let nested = group_count(project(join(vp_scan, scan_all(), 0, 0), vec![0]), vec![0]);
        assert_eq!(
            vertical_only.execute(&nested).unwrap_err(),
            EngineError::MissingTripleStore
        );
    }

    /// A structurally malformed plan (out-of-range column reference) is
    /// rejected up front with `InvalidPlan`.
    #[test]
    fn malformed_plan_returns_err() {
        let (_, e) = engine(SortOrder::Pso);
        let bad = project(scan_all(), vec![7]);
        assert!(matches!(e.execute(&bad), Err(EngineError::InvalidPlan(_))));
        let bad_union = Plan::UnionAll {
            inputs: vec![scan_all(), project(scan_all(), vec![0])],
        };
        assert!(matches!(
            e.execute(&bad_union),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn join_group_pipeline_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        let p = group_count(
            project(join(scan_po(0, 1), scan_all(), 0, 0), vec![4]),
            vec![0],
        );
        check(&p, &e);
    }

    #[test]
    fn distinct_union_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        let p = Plan::Distinct {
            input: Box::new(Plan::UnionAll {
                inputs: vec![
                    project(scan_po(0, 1), vec![0]),
                    project(scan_all(), vec![0]),
                ],
            }),
        };
        check(&p, &e);
    }

    #[test]
    fn having_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        let p = Plan::HavingCountGt {
            input: Box::new(group_count(project(scan_all(), vec![2]), vec![0])),
            min: 1,
        };
        check(&p, &e);
    }

    /// Projection pushdown: a plan that only consumes p and o must not
    /// read the subject column.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn needed_column_analysis_prunes_io() {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        // Large enough that each column occupies multiple pages.
        let big: Vec<Triple> = (0..100_000)
            .map(|i| Triple::new(i, i % 50, i % 1000))
            .collect();
        e.load_triple_store(&m, &big, SortOrder::Pso, false);
        m.clear_pool();
        m.reset_stats();
        // q1 shape: select on p, group on o; s never used.
        let p = group_count(project(scan_p(7), vec![2]), vec![0]);
        let _ = e.execute(&p).expect("plan executes");
        let bytes = m.stats().bytes_read;
        // p + o columns = 2 * 100k * 8B (within page rounding); s pruned.
        let col_bytes = 100_000u64 * 8;
        assert!(
            bytes < 2 * col_bytes + 64 * 1024,
            "read {bytes} bytes, expected ~2 columns"
        );

        // Same plan with explicit s usage reads all three columns.
        m.clear_pool();
        m.reset_stats();
        let p_all = project(scan_p(7), vec![0, 1, 2]);
        let _ = e.execute(&p_all).expect("plan executes");
        assert!(m.stats().bytes_read > bytes);
    }

    /// The write path end-to-end on both layouts: scans union pending
    /// inserts and hide tombstones; a merge folds everything into the
    /// sorted tables without changing any answer.
    #[test]
    fn write_store_union_and_merge_preserve_answers() {
        let (m, mut e) = engine(SortOrder::Pso);
        let mut delta = Delta::new();
        delta
            .delete(Triple::new(11, 0, 1)) // drop one <type> row
            .insert(Triple::new(14, 0, 1)) // new subject, existing property
            .insert(Triple::new(14, 7, 9)); // brand-new property
        e.apply(&m, &delta).expect("delta applies");
        assert_eq!(e.pending_delta(), 3);

        // The logical content both layouts must now serve.
        let mut expect = triples();
        expect.retain(|t| *t != Triple::new(11, 0, 1));
        expect.push(Triple::new(14, 0, 1));
        expect.push(Triple::new(14, 7, 9));

        let check_against = |e: &ColumnEngine, plan: &Plan| {
            let got = naive::normalize(e.execute(plan).expect("plan executes").to_rows());
            let want = naive::normalize(naive::execute(plan, &expect));
            assert_eq!(got, want, "plan {plan:?}");
        };
        let plans = [
            scan_all(),
            scan_p(0),
            scan_po(0, 1),
            Plan::ScanProperty {
                property: 0,
                s: None,
                o: None,
                emit_property: true,
            },
            Plan::ScanProperty {
                property: 7, // only exists in the write store
                s: None,
                o: None,
                emit_property: false,
            },
            Plan::ScanProperty {
                property: 0,
                s: Some(14),
                o: None,
                emit_property: false,
            },
            group_count(
                project(join(scan_po(0, 1), scan_all(), 0, 0), vec![4]),
                vec![0],
            ),
        ];
        for plan in &plans {
            check_against(&e, plan);
        }
        assert!(e.exec_stats().delta_union_scans > 0);
        // Pending inserts downgrade the scans they can reach: property 0
        // and 7 hold pending rows, property 2 is untouched and keeps its
        // order claim.
        let ctx = e.props_ctx();
        assert!(ctx.any_pending_inserts());
        assert_eq!(derive_props(&scan_all(), &ctx), PhysProps::unordered());
        assert_eq!(derive_props(&scan_p(0), &ctx), PhysProps::unordered());
        assert!(derive_props(&scan_p(2), &ctx).sorted_by.is_some());
        let vp_scan2 = Plan::ScanProperty {
            property: 2,
            s: None,
            o: None,
            emit_property: false,
        };
        assert!(derive_props(&vp_scan2, &ctx).sorted_by.is_some());

        // Merge: same answers, sorted dispatch restored, write store empty.
        e.merge(&m).expect("merge succeeds");
        assert_eq!(e.pending_delta(), 0);
        assert!(!e.props_ctx().any_pending_inserts());
        assert_eq!(e.exec_stats().merges, 1);
        for plan in &plans {
            check_against(&e, plan);
        }
        // Property 7 got a real sorted table out of the merge.
        assert_eq!(e.property_table_count(), 3);
        e.reset_exec_stats();
        let j = join(
            Plan::ScanProperty {
                property: 0,
                s: None,
                o: None,
                emit_property: false,
            },
            Plan::ScanProperty {
                property: 2,
                s: None,
                o: None,
                emit_property: false,
            },
            0,
            0,
        );
        let _ = e.execute(&j).expect("join executes");
        let stats = e.exec_stats();
        assert_eq!(stats.merge_joins, 1, "sorted dispatch restored: {stats:?}");
        assert_eq!(stats.delta_union_scans, 0);
    }

    /// Delete semantics: every stored copy goes; a delete cancels matching
    /// pending inserts; a later insert of the same triple does NOT lift
    /// the tombstone — the old read-store copies stay hidden while the
    /// pending insert supplies exactly one new copy.
    #[test]
    fn delete_semantics_across_write_store_and_read_store() {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        // Two identical copies in the read store.
        let mut data = triples();
        data.push(Triple::new(10, 0, 1));
        e.load_triple_store(&m, &data, SortOrder::Pso, false);

        // Delete removes both copies.
        e.apply(&m, &Delta::of_deletes(vec![Triple::new(10, 0, 1)]))
            .expect("applies");
        let got = e.execute(&scan_p(0)).expect("scan").to_rows();
        assert!(
            !got.iter().any(|r| r[0] == 10),
            "all copies hidden: {got:?}"
        );

        // Insert the same triple again: tombstone lifted, one copy visible.
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(10, 0, 1)]))
            .expect("applies");
        let got = e.execute(&scan_p(0)).expect("scan").to_rows();
        assert_eq!(got.iter().filter(|r| r[0] == 10).count(), 1);

        // A delete in the same batch as an earlier queued insert wins.
        let mut both = Delta::new();
        both.delete(Triple::new(10, 0, 1));
        e.apply(&m, &both).expect("applies");
        e.merge(&m).expect("merges");
        let got = e.execute(&scan_p(0)).expect("scan").to_rows();
        assert!(!got.iter().any(|r| r[0] == 10));
        // Deleting something that never existed is a harmless no-op.
        e.apply(&m, &Delta::of_deletes(vec![Triple::new(99, 99, 99)]))
            .expect("applies");
        e.merge(&m).expect("merges");
    }

    /// Reaching the configured threshold merges without an explicit call.
    #[test]
    fn threshold_triggers_automatic_merge() {
        let (m, mut e) = engine(SortOrder::Pso);
        e.set_merge_threshold(3);
        e.apply(
            &m,
            &Delta::of_inserts(vec![Triple::new(20, 0, 1), Triple::new(21, 0, 1)]),
        )
        .expect("applies");
        assert_eq!(e.pending_delta(), 2, "below threshold: no merge yet");
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(22, 0, 1)]))
            .expect("applies");
        assert_eq!(e.pending_delta(), 0, "threshold reached: auto-merged");
        assert_eq!(e.exec_stats().merges, 1);
        let got = e.execute(&scan_po(0, 1)).expect("scan").to_rows();
        assert_eq!(got.len(), 5);
    }

    /// A scan the write store cannot affect (no tombstones, no pending
    /// inserts in its bounds) keeps the plain read-store path.
    #[test]
    fn unaffected_scans_skip_the_union_path() {
        let (m, mut e) = engine(SortOrder::Pso);
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(30, 0, 1)]))
            .expect("applies");
        e.reset_exec_stats();
        // Property 2 has no pending rows; neither scan flavor unions.
        let vp = Plan::ScanProperty {
            property: 2,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(e.execute(&vp).expect("scans").len(), 3);
        assert_eq!(e.execute(&scan_p(2)).expect("scans").len(), 3);
        assert_eq!(e.exec_stats().delta_union_scans, 0);
        // The property the insert targets does union.
        assert_eq!(e.execute(&scan_p(0)).expect("scans").len(), 4);
        assert_eq!(e.exec_stats().delta_union_scans, 1);
    }

    /// A merge only rewrites tables the delta actually changed: a
    /// tombstone that merely cancelled a pending insert leaves every
    /// stored byte alone, and an insert into one property leaves the
    /// other property tables (and nothing else) untouched.
    #[test]
    fn merge_skips_unchanged_tables() {
        let (m, mut e) = engine(SortOrder::Pso);
        // Insert then delete the same triple: the write store ends up
        // holding only a tombstone that matches no stored row.
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(50, 0, 1)]))
            .expect("applies");
        e.apply(&m, &Delta::of_deletes(vec![Triple::new(50, 0, 1)]))
            .expect("applies");
        assert_eq!(e.pending_delta(), 1, "the tombstone is pending");
        let before = m.stats();
        e.merge(&m).expect("merges");
        let io = m.stats().since(&before);
        assert_eq!(io.bytes_written, 0, "nothing changed, nothing rewritten");

        // An insert touching only property 0 rewrites that table (and the
        // triples table) but not property 2's columns.
        let p2_bytes = {
            let t = &e.props[&2];
            t.s.disk_bytes() + t.o.disk_bytes()
        };
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(51, 0, 1)]))
            .expect("applies");
        let before = m.stats();
        e.merge(&m).expect("merges");
        let io = m.stats().since(&before);
        let triple_bytes: u64 = (0..3)
            .map(|c| e.triple.as_ref().unwrap().cols[c].disk_bytes())
            .sum();
        let p0_bytes = {
            let t = &e.props[&0];
            t.s.disk_bytes() + t.o.disk_bytes()
        };
        assert_eq!(
            io.bytes_written,
            triple_bytes + p0_bytes,
            "only the affected tables are rewritten (p2 holds {p2_bytes}B)"
        );
    }

    /// The storage layer sees the write path: applies charge the log,
    /// merges charge the rebuilt segments.
    #[test]
    fn write_path_is_accounted() {
        let (m, mut e) = engine(SortOrder::Pso);
        m.reset_stats();
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(20, 0, 1)]))
            .expect("applies");
        let after_apply = m.stats();
        assert!(after_apply.bytes_written > 0, "apply charges the log");
        e.merge(&m).expect("merges");
        let after_merge = m.stats().since(&after_apply);
        assert!(
            after_merge.bytes_written > after_apply.bytes_written,
            "a merge rewrites whole tables: {after_merge:?}"
        );
    }

    /// A delta against an engine with no layout is a typed error.
    #[test]
    fn apply_without_layout_is_an_error() {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        assert!(matches!(
            e.apply(&m, &Delta::of_inserts(vec![Triple::new(1, 2, 3)])),
            Err(EngineError::Unsupported(_))
        ));
    }

    /// A data set large enough that every operator partitions (columns
    /// far beyond one morsel).
    fn big_triples() -> Vec<Triple> {
        (0..60_000)
            .map(|i| Triple::new(i % 9_000, i % 7, i % 800))
            .collect()
    }

    /// Morsel-parallel execution is *bit-identical* to sequential: same
    /// rows, same order, at every pool width — scans, selects, hash and
    /// merge joins, group-counts and distinct included.
    #[test]
    fn parallel_execution_is_bit_identical_at_every_width() {
        let data = big_triples();
        let plans = [
            // Residual-filtered scan (p is not the PSO prefix under SPO).
            Plan::ScanTriples {
                s: None,
                p: Some(3),
                o: None,
            },
            // Select fallback (inequality keeps the scan path).
            Plan::Select {
                input: Box::new(scan_all()),
                pred: swans_plan::algebra::Predicate {
                    col: 2,
                    op: CmpOp::Ne,
                    value: 5,
                },
            },
            // Hash join (object-object: neither side object-sorted).
            join(scan_p(1), scan_p(2), 2, 2),
            // Merge join (subject-subject on VP tables).
            join(
                Plan::ScanProperty {
                    property: 1,
                    s: None,
                    o: None,
                    emit_property: false,
                },
                Plan::ScanProperty {
                    property: 2,
                    s: None,
                    o: None,
                    emit_property: false,
                },
                0,
                0,
            ),
            // Hash group-count (keys not a sort prefix).
            group_count(project(scan_all(), vec![2]), vec![0]),
            // Run-based group-count (subject prefix of a VP table).
            group_count(
                Plan::ScanProperty {
                    property: 0,
                    s: None,
                    o: None,
                    emit_property: false,
                },
                vec![0],
            ),
            // Sort-based distinct (projection loses the sort prefix).
            Plan::Distinct {
                input: Box::new(project(scan_all(), vec![2, 0])),
            },
            Plan::FilterIn {
                input: Box::new(scan_all()),
                col: 2,
                values: vec![1, 7, 13, 400],
            },
        ];

        let mut reference: Vec<Vec<Vec<u64>>> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let m = StorageManager::new(MachineProfile::B);
            let mut e = ColumnEngine::new();
            e.set_threads(threads);
            assert_eq!(e.threads(), threads);
            e.load_triple_store(&m, &data, SortOrder::Spo, false);
            e.load_vertical(&m, &data, false);
            for (i, plan) in plans.iter().enumerate() {
                let rows = e.execute(plan).expect("plan executes").to_rows();
                if threads == 1 {
                    // Anchor correctness against the naive executor once.
                    assert_eq!(
                        naive::normalize(rows.clone()),
                        naive::normalize(naive::execute(plan, &data)),
                        "plan {i} wrong vs naive"
                    );
                    reference.push(rows);
                } else {
                    assert_eq!(
                        rows, reference[i],
                        "plan {i} differs at {threads} threads (not even row order may change)"
                    );
                }
            }
            let stats = e.exec_stats();
            assert!(
                stats.parallel_tasks > 0,
                "nothing partitioned at {threads} threads: {stats:?}"
            );
        }
    }

    /// Value-aligned segmentation: no run straddles a boundary, giant
    /// runs collapse segments instead of being walked linearly, and the
    /// parallel run-based kernels stay exact on such inputs.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn aligned_bounds_handle_giant_runs() {
        // One value covers almost the whole column.
        let mut keys = vec![7u64; 50_000];
        keys.extend([8, 8, 9]);
        let parts = partitions(keys.len());
        let bounds = aligned_bounds(keys.len(), parts, |a, b| keys[a] == keys[b]);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&keys.len()));
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {bounds:?}");
            // No boundary lands inside a run.
            assert!(w[1] == keys.len() || keys[w[1]] != keys[w[1] - 1]);
        }

        let mut e = ColumnEngine::new();
        e.set_threads(4);
        let got = e.par_sorted_group_count(RunsView::Flat(&keys), &[]);
        assert_eq!(got.to_rows(), vec![vec![7, 50_000], vec![8, 2], vec![9, 1]]);
    }

    /// The scratch-reuse accounting: partitioned batches process many
    /// morsels each (`morsels / parallel_tasks` ≫ 1), so per-batch scratch
    /// (hash maps, join partition tables) is reused across morsels rather
    /// than reallocated per morsel.
    #[test]
    fn morsel_counters_show_batched_scratch_reuse() {
        let data = big_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.set_threads(4);
        e.load_triple_store(&m, &data, SortOrder::Spo, false);
        let plan = group_count(
            project(
                Plan::ScanTriples {
                    s: None,
                    p: Some(3),
                    o: None,
                },
                vec![2],
            ),
            vec![0],
        );
        let _ = e.execute(&plan).expect("executes");
        let stats = e.exec_stats();
        assert!(stats.parallel_tasks > 0, "{stats:?}");
        assert!(
            stats.morsels >= 4 * stats.parallel_tasks,
            "each partitioned batch should span several morsels \
             (scratch per batch, not per morsel): {stats:?}"
        );
    }

    /// The per-property pending set in action at dispatch level: a pending
    /// insert for one property no longer downgrades merge joins on
    /// untouched properties, while the touched property's scans still
    /// union and hash.
    #[test]
    fn pending_delta_on_one_property_keeps_merge_joins_elsewhere() {
        let data = big_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &data, false);
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(1, 5, 2)]))
            .expect("applies");

        let vp = |p: u64| Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        };
        // Join over untouched properties: still a merge join, no union.
        e.reset_exec_stats();
        let _ = e.execute(&join(vp(1), vp(2), 0, 0)).expect("executes");
        let clean = e.exec_stats();
        assert_eq!(clean.merge_joins, 1, "{clean:?}");
        assert_eq!(clean.hash_joins, 0, "{clean:?}");
        assert_eq!(clean.delta_union_scans, 0, "{clean:?}");

        // Join touching the pending property: unions and hashes.
        e.reset_exec_stats();
        let dirty_rows = e.execute(&join(vp(5), vp(2), 0, 0)).expect("executes");
        let dirty = e.exec_stats();
        assert_eq!(dirty.merge_joins, 0, "{dirty:?}");
        assert_eq!(dirty.hash_joins, 1, "{dirty:?}");
        assert!(dirty.delta_union_scans >= 1, "{dirty:?}");

        // And the answers are right either way.
        let mut expect = big_triples();
        expect.push(Triple::new(1, 5, 2));
        assert_eq!(
            naive::normalize(dirty_rows.to_rows()),
            naive::normalize(naive::execute(&join(vp(5), vp(2), 0, 0), &expect))
        );
    }

    /// Run-shaped data: each subject holds several objects per property,
    /// so vertically-partitioned subject columns compress, and the PSO
    /// triples lead column compresses massively.
    fn run_shaped_triples() -> Vec<Triple> {
        // ~8.6 statements per (subject, property): long enough runs that
        // every run kernel — the dense-output ones included — dispatches.
        (0..60_000)
            .map(|i| Triple::new(i % 1_000, i % 7, i % 797))
            .collect()
    }

    fn vp_scan(p: u64) -> Plan {
        Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        }
    }

    /// Plans that exercise every run-native kernel: run-emitting scans,
    /// run-aware selects and IN filters, run×block merge joins, and
    /// aggregation straight off run lengths.
    fn run_heavy_plans() -> Vec<Plan> {
        vec![
            group_count(vp_scan(1), vec![0]),
            group_count(vp_scan(1), vec![0, 1]),
            join(vp_scan(1), vp_scan(2), 0, 0),
            Plan::Select {
                input: Box::new(vp_scan(3)),
                pred: swans_plan::algebra::Predicate {
                    col: 0,
                    op: CmpOp::Ne,
                    value: 5,
                },
            },
            Plan::FilterIn {
                input: Box::new(vp_scan(3)),
                col: 0,
                values: vec![5, 900, 2_999, 1],
            },
            // PSO lead column (p) is run-encoded through the projection.
            group_count(project(scan_all(), vec![1]), vec![0]),
        ]
    }

    /// Compressed execution end-to-end: run-encoded scans and run kernels
    /// fire, charge compressed instead of logical bytes, and the output
    /// matches the flat row-at-a-time reference executor on every plan.
    #[test]
    fn run_execution_matches_flat_baseline_bit_identically() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut run = ColumnEngine::new();
        run.load_vertical(&m, &data, true);
        run.load_triple_store(&m, &data, SortOrder::Pso, true);

        for (i, plan) in run_heavy_plans().iter().enumerate() {
            run.reset_exec_stats();
            let rows = run.execute(plan).expect("run path").to_rows();
            assert_eq!(
                naive::normalize(rows),
                naive::normalize(naive::execute(plan, &data)),
                "plan {i} wrong vs naive"
            );
            let stats = run.exec_stats();
            assert!(stats.run_scans > 0, "plan {i}: no run scan: {stats:?}");
            assert!(
                stats.run_kernel_dispatches > 0,
                "plan {i}: no run kernel: {stats:?}"
            );
            assert!(
                stats.scan_bytes_compressed < stats.scan_bytes_logical,
                "plan {i}: compression must save bytes: {stats:?}"
            );
        }
    }

    /// Run-kernel execution is bit-identical across pool widths — the
    /// run-boundary partitioning (run indices, never inside a run) keeps
    /// the morsel-order merges exact.
    #[test]
    fn run_execution_is_bit_identical_at_every_width() {
        let data = run_shaped_triples();
        let mut reference: Vec<Vec<Vec<u64>>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let m = StorageManager::new(MachineProfile::B);
            let mut e = ColumnEngine::new();
            e.set_threads(threads);
            e.load_vertical(&m, &data, true);
            e.load_triple_store(&m, &data, SortOrder::Pso, true);
            for (i, plan) in run_heavy_plans().iter().enumerate() {
                let rows = e.execute(plan).expect("plan executes").to_rows();
                if threads == 1 {
                    reference.push(rows);
                } else {
                    assert_eq!(rows, reference[i], "plan {i} differs at {threads} threads");
                }
            }
            assert!(e.exec_stats().run_kernel_dispatches > 0, "width {threads}");
        }
    }

    /// A flat consumer of a run-encoded column counts the expansion
    /// whatever the key count: a 3-key hash group-count over a
    /// run-emitting scan expands exactly its run-encoded key columns.
    #[test]
    fn three_key_hash_group_count_counts_run_expansion() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &data, SortOrder::Pso, true);
        // (s, p, o) is not a prefix of the PSO sort key: the hash kernel.
        let plan = group_count(scan_all(), vec![0, 1, 2]);
        let scan = e.execute(&scan_all()).expect("scan runs");
        let run_keys = (0..3).filter(|&c| scan.col_is_runs(c)).count();
        assert_eq!(run_keys, 1, "the PSO lead column p arrives run-encoded");
        e.reset_exec_stats();
        let got = e.execute(&plan).expect("group runs");
        let stats = e.exec_stats();
        assert_eq!(stats.hash_group_counts, 1, "{stats:?}");
        assert_eq!(stats.runs_expanded, run_keys as u64, "{stats:?}");
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&plan, &data))
        );
    }

    /// The result boundary: a raw scan keeps its subject column
    /// run-encoded through the whole plan; `execute_rows` expands it
    /// there and counts the expansion.
    #[test]
    fn execute_rows_expands_at_the_result_boundary() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &data, true);
        let plan = vp_scan(1);
        let chunk = e.execute(&plan).expect("scan runs");
        assert!(chunk.col_is_runs(0), "subject column stays run-encoded");
        e.reset_exec_stats();
        let rows = e.execute_rows(&plan).expect("scan decodes");
        assert!(e.exec_stats().runs_expanded >= 1);
        assert_eq!(
            naive::normalize(rows),
            naive::normalize(naive::execute(&plan, &data))
        );
    }

    /// A pending delta on a property suppresses run emission for its
    /// scans (the union path is flat) without touching other properties;
    /// a merge restores it.
    #[test]
    fn pending_delta_suppresses_run_scans_until_merge() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &data, true);
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(1, 1, 2)]))
            .expect("applies");

        e.reset_exec_stats();
        let _ = e.execute(&vp_scan(1)).expect("dirty scan");
        let dirty = e.exec_stats();
        assert_eq!(dirty.run_scans, 0, "{dirty:?}");
        assert!(dirty.delta_union_scans >= 1);

        e.reset_exec_stats();
        let _ = e.execute(&vp_scan(2)).expect("clean scan");
        assert!(
            e.exec_stats().run_scans >= 1,
            "untouched property emits runs"
        );

        e.merge(&m).expect("merges");
        e.reset_exec_stats();
        let _ = e.execute(&vp_scan(1)).expect("merged scan");
        assert!(e.exec_stats().run_scans >= 1, "merge restores run emission");
    }

    /// The per-table RLE auto-decision across merges: a near-distinct
    /// subject column loads uncompressed, compresses once a merge folds
    /// in duplicate subjects, and decompresses again when they leave —
    /// never staying silently stale.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn merge_retakes_rle_decision_per_property_table() {
        let base: Vec<Triple> = (0..5_000).map(|i| Triple::new(i, 9, i)).collect();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &base, true);
        assert!(
            !e.props[&9].s.has_runs(),
            "distinct subjects must not compress"
        );

        // Five extra objects per subject: runs of length 6 — compresses
        // well past the engine's run-emission threshold.
        let dupes: Vec<Triple> = (0..25_000)
            .map(|i| Triple::new(i % 5_000, 9, 100_000 + i))
            .collect();
        e.apply(&m, &Delta::of_inserts(dupes.clone()))
            .expect("applies");
        e.merge(&m).expect("merges");
        assert!(
            e.props[&9].s.has_runs(),
            "merge must re-take the RLE decision"
        );
        e.reset_exec_stats();
        let got = e
            .execute(&group_count(vp_scan(9), vec![0]))
            .expect("group runs");
        assert!(e.exec_stats().run_scans >= 1);
        assert_eq!(got.len(), 5_000);

        // Deleting the duplicates drops the compression again.
        e.apply(&m, &Delta::of_deletes(dupes)).expect("applies");
        e.merge(&m).expect("merges");
        assert!(
            !e.props[&9].s.has_runs(),
            "merge must drop compression that no longer pays"
        );
    }

    /// Runs must never flow where the derivation claims none — the two
    /// sneaky shapes: a *bound* scan that happens to cover the whole
    /// stored range (claim requires no bound at all), and a merge join
    /// whose right selection vector happens to be monotone (claims say
    /// only the left side survives run-encoded).
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn unclaimed_positions_never_carry_runs() {
        // Every triple of property 7 — a p-bound PSO scan covers the
        // whole table; property 9 is one distinct row per subject.
        let mut data: Vec<Triple> = (0..20_000).map(|i| Triple::new(i / 8, 7, i % 8)).collect();
        data.extend((0..2_500).map(|i| Triple::new(i, 9, 424_242)));
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &data, SortOrder::Pso, true);
        e.load_vertical(&m, &data, true);
        let ctx = e.props_ctx();

        // Bound-but-covering triples scan: claim empty, output flat.
        let bound = scan_p(7);
        assert!(derive_props(&bound, &ctx).run_encoded.is_empty());
        let chunk = e.execute(&bound).expect("scan runs");
        for c in 0..chunk.arity() {
            assert!(!chunk.col_is_runs(c), "unclaimed run column {c}");
        }
        // Bound subject covering one whole run on the VP table.
        let vps = Plan::ScanProperty {
            property: 7,
            s: Some(3),
            o: None,
            emit_property: false,
        };
        assert!(!e.execute(&vps).expect("scan runs").col_is_runs(0));

        // Merge join with a distinct (flat) left side: the right pair
        // positions come out monotone, but the right run column must
        // still gather flat.
        let j = join(vp_scan(9), vp_scan(7), 0, 0);
        assert!(derive_props(&j, &ctx).run_encoded.is_empty());
        e.reset_exec_stats();
        let out = e.execute(&j).expect("join runs");
        assert_eq!(e.exec_stats().merge_joins, 1);
        for c in 0..out.arity() {
            assert!(!out.col_is_runs(c), "unclaimed run column {c}");
        }
        assert_eq!(
            naive::normalize(out.to_rows()),
            naive::normalize(naive::execute(&j, &data))
        );
    }

    /// The sorted `IN` satellite: a derived-sorted filter column resolves
    /// each probe by binary search (counted), identically to the linear
    /// kernel.
    #[test]
    fn filter_in_on_sorted_column_binary_searches() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        // No compression: the sorted-IN path must fire on flat sorted
        // columns too.
        e.load_vertical(&m, &data, false);
        let plan = Plan::FilterIn {
            input: Box::new(vp_scan(4)),
            col: 0,
            values: vec![7, 2_999, 7, 100, 5_000_000],
        };
        e.reset_exec_stats();
        let got = e.execute(&plan).expect("filter runs");
        let stats = e.exec_stats();
        assert_eq!(stats.sorted_in_selects, 1, "{stats:?}");
        assert_eq!(stats.run_scans, 0, "uncompressed: no run emission");
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&plan, &data))
        );
    }

    /// All twelve benchmark queries on both layouts match the naive
    /// executor on a structured micro-dataset.
    #[test]
    fn benchmark_queries_match_naive() {
        use swans_plan::queries::{build_plan, vocab, QueryContext, QueryId, Scheme};
        let mut ds = swans_rdf::Dataset::new();
        let subj = |i: usize| format!("<s{i}>");
        for i in 0..60 {
            ds.add(
                &subj(i),
                vocab::TYPE,
                if i % 3 == 0 { vocab::TEXT } else { vocab::DATE },
            );
            if i % 2 == 0 {
                ds.add(&subj(i), vocab::LANGUAGE, vocab::FRENCH);
            }
            if i % 5 == 0 {
                ds.add(&subj(i), vocab::ORIGIN, vocab::DLC);
            }
            if i % 4 == 0 {
                ds.add(&subj(i), vocab::RECORDS, &subj((i + 1) % 60));
            }
            if i % 7 == 0 {
                ds.add(&subj(i), vocab::POINT, vocab::END);
                ds.add(&subj(i), vocab::ENCODING, "\"enc\"");
            }
            ds.add(&subj(i), "<title>", &format!("\"t{}\"", i % 6));
        }
        ds.add(vocab::CONFERENCES, "<title>", "\"t1\"");
        ds.add(vocab::CONFERENCES, vocab::TYPE, vocab::TEXT);

        let ctx = QueryContext::from_dataset(&ds, 4);
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &ds.triples, SortOrder::Pso, false);
        e.load_vertical(&m, &ds.triples, false);

        for q in QueryId::ALL {
            for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
                let plan = build_plan(q, scheme, &ctx);
                let got = naive::normalize(e.execute(&plan).expect("plan executes").to_rows());
                let want = naive::normalize(naive::execute(&plan, &ds.triples));
                assert_eq!(got, want, "query {q} / {}", scheme.name());
            }
        }
        // The sorted layer did real work on this workload.
        let stats = e.exec_stats();
        assert!(
            stats.merge_joins > 0,
            "no merge joins dispatched: {stats:?}"
        );
    }
}

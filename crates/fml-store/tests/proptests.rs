//! Property-based tests for the storage engine: encode/decode round trips
//! (dense tuples, and typed rows over random feature groups), scan
//! completeness, join correctness against an in-memory oracle, and the flat
//! block decode against the `Tuple` row views over random schemas and joins.
//!
//! The cases are generated by the shared deterministic stream in
//! `fml_linalg::testutil` instead of an external property-testing crate (the
//! build environment is offline), so every run exercises exactly the same
//! inputs — failures are reproducible from the case index alone.

use fml_linalg::BlockVec;
use fml_store::batch::{scan_all, BatchScan, BlockScan, RowBlock};
use fml_store::factorized_scan::{FactorizedScan, GroupScan, StarScan};
use fml_store::join::materialize_join;
use fml_store::{
    Database, FeatureGroup, IoSnapshot, IoStats, JoinSpec, Relation, RowKind, Schema, Tuple,
};
use std::collections::HashMap;

/// Thin adapter over the shared deterministic test stream.
struct Gen(fml_linalg::testutil::TestRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(fml_linalg::testutil::TestRng::new(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.range_u64(lo, hi)
    }

    /// Roughly uniform in `[-1e6, 1e6)`.
    fn f64(&mut self) -> f64 {
        self.0.f64_in(-1e6, 1e6)
    }

    fn bool(&mut self) -> bool {
        self.0.bool()
    }

    /// A field value, now and then NaN, −∞ or −0.0: equality is bitwise.
    fn value(&mut self) -> f64 {
        match self.range(0, 16) {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            2 => -0.0,
            _ => self.f64(),
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.range(0, from.len() as u64) as usize]
    }
}

/// Feature widths of the random schemas; `d = 0` is a legal relation (a
/// star's `d_S`) and is also pinned explicitly by case 0.
const WIDTHS: [usize; 5] = [0, 1, 3, 26, 126];
const BLOCK_PAGES: [usize; 3] = [1, 2, 64];

/// A row as `(key, fks, target bits, feature bits)`.
type Bits = (u64, Vec<u64>, Option<u64>, Vec<u64>);

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn tuple_bits(t: &Tuple) -> Bits {
    let target = t.target.map(f64::to_bits);
    (t.key, t.fks.clone(), target, f64_bits(&t.features))
}

fn row_bits(rows: &RowBlock, r: usize) -> Bits {
    let target = rows.target(r).map(f64::to_bits);
    (
        rows.keys()[r],
        rows.fks(r).to_vec(),
        target,
        f64_bits(rows.features(r)),
    )
}

/// A row count that is not a multiple of the page capacity.
fn rows_for(g: &mut Gen, per_page: usize, min_pages: u64) -> u64 {
    g.range(min_pages, min_pages + 3) * per_page as u64 + g.range(1, per_page as u64)
}

/// An all-dense schema of `d` features and `q` foreign keys.
fn schema(name: &str, d: usize, q: usize, has_target: bool) -> Schema {
    match has_target {
        true => Schema::fact_with_target(name, d, q),
        false => Schema::fact(name, d, q),
    }
}

/// IoStats delta of `f` on the database-wide counters.
fn io<T>(db: &Database, f: impl FnOnce() -> T) -> (T, IoSnapshot) {
    let before = db.stats().snapshot();
    let out = f();
    (out, db.stats().snapshot().delta_since(&before))
}

const CASES: u64 = 64;

#[test]
fn tuple_encode_decode_roundtrip() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let nfk = g.range(0, 3) as usize;
        let nfeat = g.range(0, 20) as usize;
        let has_target = g.bool();
        let schema = schema("t", nfeat, nfk, has_target);
        let tuple = Tuple {
            key: g.next_u64(),
            fks: (0..nfk).map(|_| g.range(0, 50)).collect(),
            target: if has_target { Some(g.f64()) } else { None },
            features: (0..nfeat).map(|_| g.f64()).collect(),
        };
        // through the store's one encoder and its one decoder
        let mut rel = Relation::in_memory(schema.clone(), IoStats::new()).unwrap();
        rel.append(&tuple).unwrap();
        assert_eq!(rel.num_pages(), 1, "case {case}");
        let mut back = RowBlock::default();
        rel.decode_page_into(0, &mut back).unwrap();
        assert_eq!(back.tuples(), [tuple], "case {case}");
    }
}

#[test]
fn relation_scan_preserves_all_tuples() {
    for case in 0..CASES {
        let mut g = Gen::new(1000 + case);
        let n = g.range(1, 500);
        let nfeat = g.range(1, 12) as usize;
        let db = Database::in_memory();
        let rel = db.create_relation(Schema::dimension("r", nfeat)).unwrap();
        let mut expected = Vec::new();
        {
            let mut r = rel.lock();
            for key in 0..n {
                let t = Tuple::dimension(
                    key,
                    (0..nfeat).map(|j| (key * 7 + j as u64) as f64).collect(),
                );
                r.append(&t).unwrap();
                expected.push(t);
            }
            r.flush().unwrap();
        }
        let scanned = scan_all(&rel, 3).unwrap();
        assert_eq!(scanned, expected, "case {case}");
    }
}

#[test]
fn materialized_join_matches_group_scan_oracle() {
    for case in 0..CASES {
        let mut g = Gen::new(2000 + case);
        let n_r = g.range(1, 20);
        let n_s = g.range(1, 200);
        let d_s = g.range(1, 4) as usize;
        let d_r = g.range(1, 6) as usize;

        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("R", d_r)).unwrap();
        let s = db.create_relation(Schema::fact("S", d_s, 1)).unwrap();
        for key in 0..n_r {
            r.lock()
                .append(&Tuple::dimension(key, vec![key as f64; d_r]))
                .unwrap();
        }
        for key in 0..n_s {
            s.lock()
                .append(&Tuple::fact(key, vec![key % n_r], vec![key as f64; d_s]))
                .unwrap();
        }
        r.lock().flush().unwrap();
        s.lock().flush().unwrap();
        let spec = JoinSpec::binary("S", "R");

        // oracle: denormalize via the group scan
        let mut oracle: HashMap<u64, Vec<f64>> = HashMap::new();
        for block in GroupScan::from_spec(&db, &spec, 2).unwrap() {
            for group in block.unwrap() {
                for j in group.denormalize() {
                    oracle.insert(j.key, j.features);
                }
            }
        }

        let t = materialize_join(&db, &spec, "T", 2).unwrap();
        let rows = t.lock().read_all().unwrap();
        assert_eq!(rows.len() as u64, n_s, "case {case}");
        for row in rows {
            assert_eq!(&oracle[&row.key], &row.features, "case {case}");
        }
    }
}

#[test]
fn flat_decode_equals_the_row_view() {
    for case in 0..CASES {
        let mut g = Gen::new(3000 + case);
        let d = if case == 0 { 0 } else { g.pick(&WIDTHS) };
        let (q, has_target) = (g.range(0, 4) as usize, g.bool());
        let schema = schema("S", d, q, has_target);
        let db = Database::in_memory();
        let rel = db.create_relation(schema.clone()).unwrap();
        let per_page = rel.lock().tuples_per_page();
        let n = if case % 8 == 1 {
            0
        } else {
            rows_for(&mut g, per_page, 0)
        };
        let mut stored = Vec::new();
        for key in 0..n {
            let t = Tuple {
                key: g.next_u64(),
                fks: (0..schema.num_foreign_keys).map(|_| g.next_u64()).collect(),
                target: schema.has_target.then(|| g.value()),
                features: (0..d).map(|_| g.value()).collect(),
            };
            rel.lock().append(&t).unwrap();
            stored.push((key, tuple_bits(&t)));
        }
        rel.lock().flush().unwrap();
        for block_pages in BLOCK_PAGES {
            let (views, view_io) = io(&db, || {
                let blocks = BatchScan::new(rel.clone(), block_pages);
                blocks.collect::<Result<Vec<_>, _>>().unwrap()
            });
            let mut rows = RowBlock::default();
            let (flat, flat_io) = io(&db, || {
                let mut scan = BlockScan::new(rel.clone(), block_pages);
                let mut blocks: Vec<Vec<Bits>> = Vec::new();
                while scan.next_into(&mut rows).unwrap() {
                    blocks.push((0..rows.len()).map(|r| row_bits(&rows, r)).collect());
                }
                blocks
            });
            let views: Vec<Vec<Bits>> = (views.iter())
                .map(|block| block.iter().map(tuple_bits).collect())
                .collect();
            assert_eq!(flat, views, "case {case}, block_pages {block_pages}");
            assert_eq!(flat_io, view_io, "case {case}, block_pages {block_pages}");
            let all: Vec<Bits> = flat.concat();
            assert_eq!(all.len() as u64, n, "case {case}");
            assert!(
                stored.iter().all(|(i, t)| &all[*i as usize] == t),
                "case {case}"
            );
        }
    }
}

#[test]
fn fact_blocks_resolve_like_the_row_views_on_random_joins() {
    for case in 0..CASES {
        let mut g = Gen::new(4000 + case);
        let q = g.range(1, 4) as usize;
        // a binary join whose R spans at least three pages: several windows
        // at block_pages 1 and 2
        let multi_window = q == 1 && case % 2 == 0;
        let db = Database::in_memory();
        let mut dims: Vec<HashMap<u64, Tuple>> = Vec::new();
        let mut names = Vec::new();
        for i in 0..q {
            let name = format!("R{i}");
            let rel = (db.create_relation(Schema::dimension(&name, g.pick(&WIDTHS)))).unwrap();
            let per_page = rel.lock().tuples_per_page();
            let d = rel.lock().schema().num_features;
            let n = if multi_window {
                rows_for(&mut g, per_page, 3)
            } else {
                g.range(1, 60)
            };
            // distinct keys, stored out of key order
            let mut keys: Vec<u64> = (0..n).map(|k| 3 * k + 1).collect();
            for k in (1..keys.len()).rev() {
                keys.swap(k, g.range(0, k as u64 + 1) as usize);
            }
            let mut by_key = HashMap::new();
            for key in keys {
                let t = Tuple::dimension(key, (0..d).map(|_| g.value()).collect());
                rel.lock().append(&t).unwrap();
                by_key.insert(key, t);
            }
            rel.lock().flush().unwrap();
            dims.push(by_key);
            names.push(name);
        }
        let d_s = if case == 1 { 0 } else { g.pick(&WIDTHS) };
        let has_target = g.bool();
        let fact_schema = schema("S", d_s, q, has_target);
        let fact = db.create_relation(fact_schema).unwrap();
        let per_page = fact.lock().tuples_per_page();
        let n_s = if case % 8 == 3 {
            0
        } else {
            rows_for(&mut g, per_page, 0)
        };
        let dim_keys: Vec<Vec<u64>> = dims.iter().map(|m| m.keys().copied().collect()).collect();
        for key in 0..n_s {
            let t = Tuple {
                key,
                fks: dim_keys.iter().map(|keys| g.pick(keys)).collect(),
                target: has_target.then(|| g.value()),
                features: (0..d_s).map(|_| g.value()).collect(),
            };
            fact.lock().append(&t).unwrap();
        }
        fact.lock().flush().unwrap();
        let stored: Vec<Bits> = scan_all(&fact, 64)
            .unwrap()
            .iter()
            .map(tuple_bits)
            .collect();
        let spec = JoinSpec::multiway("S", names.clone());
        let r_pages: usize = (names.iter())
            .map(|n| db.relation(n).unwrap().lock().num_pages())
            .sum();

        for block_pages in BLOCK_PAGES {
            let at = format!("case {case}, q {q}, block_pages {block_pages}");
            let ((handed, windows), flat_io) = io(&db, || {
                let mut scan = FactorizedScan::new(&db, &spec, block_pages).unwrap();
                let (mut handed, mut windows) = (Vec::new(), 0);
                while scan.next_window().unwrap() {
                    windows += 1;
                    while scan.next_block().unwrap() {
                        let (block, cache) = (scan.block(), scan.cache());
                        let rows = block.rows();
                        for f in 0..block.len() {
                            for (i, &ord) in block.ords_of(f).iter().enumerate() {
                                let fk = rows.fks(f)[i];
                                assert_eq!(Some(ord), cache.ordinal(i, fk), "{at}");
                                assert_eq!(cache.key(i, ord), fk, "{at}");
                                let view = &dims[i][&fk].features;
                                assert_eq!(
                                    f64_bits(&cache.dense_row(i, ord)),
                                    f64_bits(view),
                                    "{at}"
                                );
                            }
                            handed.push(row_bits(rows, f));
                        }
                    }
                }
                (handed, windows)
            });
            // the row view of the same pass: groups (binary) or the star's
            // fact blocks resolved against its cache
            let (viewed, view_io) = io(&db, || {
                let mut viewed: Vec<Bits> = Vec::new();
                if q == 1 {
                    for groups in GroupScan::from_spec(&db, &spec, block_pages).unwrap() {
                        let groups = groups.unwrap();
                        viewed.extend(
                            groups
                                .iter()
                                .flat_map(|g| g.s_tuples.iter().map(tuple_bits)),
                        );
                    }
                } else {
                    let star = StarScan::new(&db, &spec, block_pages).unwrap();
                    for block in star.blocks() {
                        for t in block.unwrap() {
                            let resolved = star.cache().resolve(&t).unwrap();
                            for (i, row) in resolved.iter().enumerate() {
                                assert_eq!(f64_bits(row), f64_bits(&dims[i][&t.fks[i]].features));
                            }
                            viewed.push(tuple_bits(&t));
                        }
                    }
                }
                viewed
            });
            let sorted = |mut rows: Vec<Bits>| {
                rows.sort_by_key(|r| r.0);
                rows
            };
            if windows == 1 {
                assert_eq!(handed, stored, "{at}");
            }
            assert_eq!(sorted(handed), sorted(viewed), "{at}");
            assert_eq!(sorted(stored.clone()).len() as u64, n_s, "{at}");
            assert_eq!(flat_io, view_io, "{at}");
            // Section V-A: |R| + windows·|S| pages, and the records they hold
            let want_windows = if q == 1 {
                r_pages.div_ceil(block_pages).max(1)
            } else {
                1
            };
            assert_eq!(windows, want_windows, "{at}");
            let s_pages = fact.lock().num_pages();
            assert_eq!(
                flat_io.pages_read as usize,
                r_pages + windows * s_pages,
                "{at}"
            );
            let n_r: usize = dims.iter().map(HashMap::len).sum();
            let want_tuples = n_r + windows * n_s as usize;
            assert_eq!(flat_io.tuples_read as usize, want_tuples, "{at}");
        }
        if multi_window {
            assert!(r_pages >= 3, "case {case}");
        }
    }
}

/// 1–4 feature groups of random kinds: widths and cardinalities down to 1
/// (and a dense group of width 0), sparse groups sometimes full.
fn random_groups(g: &mut Gen) -> Vec<FeatureGroup> {
    (0..g.range(1, 5))
        .map(|_| match g.range(0, 3) {
            0 => FeatureGroup::Dense(g.range(0, 6) as usize),
            1 => FeatureGroup::OneHot {
                cardinalities: (0..g.range(1, 5)).map(|_| g.range(1, 9) as usize).collect(),
            },
            _ => {
                let width = g.range(1, 40) as usize;
                let max_nnz = g.range(1, width as u64 + 1) as usize;
                FeatureGroup::SparseNumeric { width, max_nnz }
            }
        })
        .collect()
}

/// A draw that is never `±0.0`, which a sparse form would leave out.
fn nonzero(g: &mut Gen) -> f64 {
    match g.f64() {
        v if v != 0.0 => v,
        _ => 1.0,
    }
}

/// A random row of `groups`, expanded to dense: every dense value and
/// every sparse nonzero a nonzero draw, one `1.0` per one-hot variable.
fn random_row(g: &mut Gen, groups: &[FeatureGroup]) -> Vec<f64> {
    let mut x = Vec::new();
    for group in groups {
        match group {
            FeatureGroup::Dense(w) => x.extend((0..*w).map(|_| nonzero(g))),
            FeatureGroup::OneHot { cardinalities } => {
                for &card in cardinalities {
                    let code = g.range(0, card as u64) as usize;
                    x.extend((0..card).map(|c| if c == code { 1.0 } else { 0.0 }));
                }
            }
            FeatureGroup::SparseNumeric { width, max_nnz } => {
                let mut cols = vec![0.0; *width];
                for _ in 0..g.range(0, *max_nnz as u64 + 1) {
                    cols[g.range(0, *width as u64) as usize] = nonzero(g);
                }
                x.extend(cols);
            }
        }
    }
    x
}

/// The stored form of the expanded row `x` under `kind`.
fn stored_form(x: &[f64], kind: RowKind) -> (Vec<u32>, Vec<f64>) {
    let nonzero = (0u32..).zip(x.iter().copied()).filter(|&(_, v)| v != 0.0);
    match kind {
        RowKind::Dense => (Vec::new(), x.to_vec()),
        _ => nonzero.unzip(),
    }
}

#[test]
fn typed_rows_encode_and_decode_to_their_stored_form() {
    for case in 0..CASES {
        let mut g = Gen::new(5000 + case);
        let groups = random_groups(&mut g);
        let (q, has_target) = (g.range(0, 3) as usize, g.bool());
        let schema = schema("T", 0, q, has_target).with_groups(groups.clone());
        let kind = schema.row_kind();
        let db = Database::in_memory();
        let rel = db.create_relation(schema).unwrap();
        let per_page = rel.lock().tuples_per_page();
        let n = rows_for(&mut g, per_page, 1);
        let mut stored = Vec::new();
        for key in 0..n {
            let x = random_row(&mut g, &groups);
            let fks: Vec<u64> = (0..q).map(|_| g.next_u64()).collect();
            let target = has_target.then(|| g.f64());
            let (idx, vals) = stored_form(&x, RowKind::Csr);
            // as nonzero pairs, or expanded: the same record either way
            let row = match key % 2 {
                0 => BlockVec::Csr {
                    idx: &idx,
                    vals: &vals,
                },
                _ => BlockVec::Dense(&x),
            };
            rel.lock().append_row(key, &fks, target, row).unwrap();
            stored.push((fks, target, x));
        }
        rel.lock().flush().unwrap();
        for expand in [false, true] {
            let at = format!("case {case}, {groups:?}, expand {expand}");
            let mut rows = if expand {
                RowBlock::expanding()
            } else {
                RowBlock::default()
            };
            let mut scan = BlockScan::new(rel.clone(), 2);
            let mut seen = 0;
            while scan.next_into(&mut rows).unwrap() {
                for r in 0..rows.len() {
                    let (fks, target, x) = &stored[seen];
                    assert_eq!(rows.keys()[r], seen as u64, "{at}");
                    assert_eq!(rows.fks(r), &fks[..], "{at}");
                    assert_eq!(rows.target(r), *target, "{at}");
                    assert_eq!(f64_bits(&rows.dense_row(r)), f64_bits(x), "{at}");
                    let (idx, vals) = stored_form(x, if expand { RowKind::Dense } else { kind });
                    let want = match rows.kind() {
                        RowKind::Dense => BlockVec::Dense(&vals),
                        RowKind::OneHot => BlockVec::OneHot(&idx),
                        RowKind::Csr => BlockVec::Csr {
                            idx: &idx,
                            vals: &vals,
                        },
                    };
                    assert_eq!(rows.row(r), want, "{at}");
                    seen += 1;
                }
            }
            assert_eq!(seen as u64, n, "{at}");
        }
    }
}

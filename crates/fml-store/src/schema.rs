//! Relation schemas.
//!
//! Relations in this engine follow the shape used throughout the paper
//! (Section IV, Table I):
//!
//! * every tuple has a `u64` primary key (`SID` / `RID`);
//! * a fact table `S` carries zero or more `u64` foreign keys (`FK_1 … FK_q`) and,
//!   for supervised (NN) training, one `f64` target `Y`;
//! * the features (`x_S` / `x_R`) are an ordered list of typed
//!   [`FeatureGroup`]s: dense `f64` columns, one-hot categorical variables
//!   stored as one `u32` code each, or weighted-sparse columns stored as
//!   `(u32, f64)` pairs.  [`Schema::num_features`] is the width the groups
//!   expand to, the `d` every model sees.
//!
//! Every group has a fixed encoded width, so records stay fixed width, which
//! keeps page arithmetic — and therefore the I/O cost accounting — simple and
//! predictable: Section V-A's formulas hold verbatim, with the smaller `|S|`,
//! `|R|` and `|T|` a typed layout gives.

/// One group of feature columns and how it is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeatureGroup {
    /// `w` `f64` columns, stored as they are (8 bytes each).
    Dense(usize),
    /// One categorical variable per cardinality, stored as its `u32` code (4
    /// bytes each); it expands to one 0/1 column per category, exactly one
    /// of them `1.0`.
    OneHot {
        /// Categories per variable, in column order.
        cardinalities: Vec<usize>,
    },
    /// `width` columns of which at most `max_nnz` are nonzero, stored as
    /// ascending `(u32 index, f64 value)` pairs padded to `max_nnz` (12 bytes
    /// each).
    SparseNumeric {
        /// Expanded width.
        width: usize,
        /// Stored pairs per record.
        max_nnz: usize,
    },
}

impl FeatureGroup {
    /// Number of columns the group expands to.
    pub(crate) fn width(&self) -> usize {
        match self {
            FeatureGroup::Dense(w) => *w,
            FeatureGroup::OneHot { cardinalities } => cardinalities.iter().sum(),
            FeatureGroup::SparseNumeric { width, .. } => *width,
        }
    }

    /// Stored values per record: one per `f64`, per code and per pair — the
    /// most nonzeros a row of the group can have.
    pub(crate) fn fields(&self) -> usize {
        match self {
            FeatureGroup::Dense(w) => *w,
            FeatureGroup::OneHot { cardinalities } => cardinalities.len(),
            FeatureGroup::SparseNumeric { max_nnz, .. } => *max_nnz,
        }
    }

    /// Bytes per record.
    pub(crate) fn encoded_size(&self) -> usize {
        match self {
            FeatureGroup::Dense(w) => 8 * w,
            FeatureGroup::OneHot { cardinalities } => 4 * cardinalities.len(),
            FeatureGroup::SparseNumeric { max_nnz, .. } => 12 * max_nnz,
        }
    }
}

/// The form a decoded row of a group list is handed out in — one per
/// relation, a schema fact (see [`crate::batch::RowBlock::row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowKind {
    /// Every group dense: the row is its `f64` slice.
    #[default]
    Dense,
    /// Every group one-hot: the row is its active column indices.
    OneHot,
    /// Any other mix: the row is its nonzero `(index, value)` pairs — a dense
    /// group's nonzeros, a one-hot group's active columns at `1.0`.
    Csr,
}

impl RowKind {
    /// The kind of `groups`; groups of width 0 take no part.
    pub(crate) fn of(groups: &[FeatureGroup]) -> RowKind {
        let mut live = groups.iter().filter(|g| g.width() > 0);
        if live.clone().all(|g| matches!(g, FeatureGroup::Dense(_))) {
            RowKind::Dense
        } else if live.all(|g| matches!(g, FeatureGroup::OneHot { .. })) {
            RowKind::OneHot
        } else {
            RowKind::Csr
        }
    }
}

/// Description of a relation's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Relation name (unique within a [`crate::Database`]).
    pub name: String,
    /// Number of feature columns the groups expand to (`d`).
    pub num_features: usize,
    /// Number of `u64` foreign-key columns.
    pub num_foreign_keys: usize,
    /// Whether tuples carry a supervised-learning target `Y`.
    pub has_target: bool,
    groups: Vec<FeatureGroup>,
}

impl Schema {
    fn new(name: impl Into<String>, d: usize, num_foreign_keys: usize, has_target: bool) -> Self {
        Self {
            name: name.into(),
            num_features: d,
            num_foreign_keys,
            has_target,
            groups: vec![FeatureGroup::Dense(d)],
        }
    }

    /// Schema of a dimension table `R(RID, x_R)`: key + `num_features` dense
    /// features.
    pub fn dimension(name: impl Into<String>, num_features: usize) -> Self {
        Self::new(name, num_features, 0, false)
    }

    /// Schema of a fact table `S(SID, x_S, FK_1 … FK_q)` without a target.
    pub fn fact(name: impl Into<String>, num_features: usize, num_foreign_keys: usize) -> Self {
        Self::new(name, num_features, num_foreign_keys, false)
    }

    /// Schema of a supervised fact table `S(SID, Y, x_S, FK_1 … FK_q)`.
    pub fn fact_with_target(
        name: impl Into<String>,
        num_features: usize,
        num_foreign_keys: usize,
    ) -> Self {
        Self::new(name, num_features, num_foreign_keys, true)
    }

    /// This schema with its features stored as `groups`, in order;
    /// [`Self::num_features`] becomes their total width.
    pub fn with_groups(self, groups: Vec<FeatureGroup>) -> Self {
        Self {
            num_features: groups.iter().map(FeatureGroup::width).sum(),
            groups,
            ..self
        }
    }

    /// The feature groups, in column order.
    pub fn groups(&self) -> &[FeatureGroup] {
        &self.groups
    }

    /// The form decoded rows of this relation take.
    pub fn row_kind(&self) -> RowKind {
        RowKind::of(&self.groups)
    }

    /// Returns a copy of this schema under a different relation name.
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Size in bytes of one encoded record.
    ///
    /// Layout: `key (8) | fks (8·nfk) | target (8, if present) | groups`, each
    /// group in its encoded size (see [`FeatureGroup`]).  An all-dense schema is
    /// `8 · nfeat` bytes of features.
    pub fn record_size(&self) -> usize {
        self.header_size()
            + self
                .groups
                .iter()
                .map(FeatureGroup::encoded_size)
                .sum::<usize>()
    }

    /// Bytes before the features: key, foreign keys, target.
    pub(crate) fn header_size(&self) -> usize {
        8 * (1 + self.num_foreign_keys + usize::from(self.has_target))
    }

    /// Number of stored values per record — key, foreign keys, target, and
    /// the stored fields of each [`FeatureGroup`] — the unit used by the paper when
    /// counting how many values the backward-propagation phase must read
    /// (`n_S·d_S + n_R·d_R` versus `N·d`).
    pub fn fields_per_record(&self) -> usize {
        let features: usize = self.groups.iter().map(FeatureGroup::fields).sum();
        self.header_size() / 8 + features
    }

    /// Schema of the projected join result `T(SID, [Y], [x_S x_R1 … x_Rq])`
    /// obtained by joining this fact schema with the given dimension schemas:
    /// their feature groups concatenated, each stored as before.
    ///
    /// The result keeps the fact table's key and target but drops the foreign keys
    /// (they are redundant after the join), mirroring
    /// `T(SID, [X_S X_R]) ← π(R ⋈ S)` from the paper.
    pub fn join_result(&self, name: impl Into<String>, dims: &[&Schema]) -> Self {
        let groups = std::iter::once(self)
            .chain(dims.iter().copied())
            .flat_map(|s| s.groups.iter().cloned())
            .collect();
        Self::new(name, 0, 0, self.has_target).with_groups(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_columns() {
        let r = Schema::dimension("items", 5);
        assert_eq!(r.num_features, 5);
        assert_eq!(r.num_foreign_keys, 0);
        assert!(!r.has_target);
        assert_eq!(r.groups(), [FeatureGroup::Dense(5)]);

        let s = Schema::fact("orders", 3, 2);
        assert_eq!(s.num_foreign_keys, 2);
        assert!(!s.has_target);

        let sy = Schema::fact_with_target("orders", 3, 1);
        assert!(sy.has_target);
    }

    #[test]
    fn record_size_layout() {
        // key + 2 fk + target + 4 features = (1 + 2 + 1 + 4) * 8 = 64
        let s = Schema::fact_with_target("s", 4, 2);
        assert_eq!(s.record_size(), 64);
        assert_eq!(s.fields_per_record(), 8);

        let r = Schema::dimension("r", 3);
        assert_eq!(r.record_size(), 32);

        // typed groups: 4 bytes per code, 12 per sparse pair
        let typed = Schema::fact_with_target("s", 0, 1).with_groups(vec![
            FeatureGroup::Dense(2),
            FeatureGroup::OneHot {
                cardinalities: vec![8, 8, 3],
            },
            FeatureGroup::SparseNumeric {
                width: 64,
                max_nnz: 6,
            },
        ]);
        assert_eq!(typed.num_features, 2 + 19 + 64);
        assert_eq!(typed.record_size(), 24 + 16 + 12 + 72);
        assert_eq!(typed.fields_per_record(), 3 + 2 + 3 + 6);
        assert_eq!(typed.row_kind(), RowKind::Csr);
    }

    #[test]
    fn row_kind_ignores_empty_groups() {
        let onehot = FeatureGroup::OneHot {
            cardinalities: vec![2],
        };
        let kind = |groups: Vec<FeatureGroup>| RowKind::of(&groups);
        assert_eq!(kind(vec![]), RowKind::Dense);
        assert_eq!(kind(vec![FeatureGroup::Dense(3)]), RowKind::Dense);
        assert_eq!(
            kind(vec![FeatureGroup::Dense(0), onehot.clone()]),
            RowKind::OneHot
        );
        assert_eq!(kind(vec![onehot.clone(), onehot.clone()]), RowKind::OneHot);
        assert_eq!(kind(vec![FeatureGroup::Dense(1), onehot]), RowKind::Csr);
    }

    #[test]
    fn join_result_concatenates_features_and_drops_fks() {
        let s = Schema::fact_with_target("s", 5, 2);
        let r1 = Schema::dimension("r1", 10);
        let r2 = Schema::dimension("r2", 20).with_groups(vec![FeatureGroup::OneHot {
            cardinalities: vec![12, 8],
        }]);
        let t = s.join_result("t", &[&r1, &r2]);
        assert_eq!(t.num_features, 35);
        assert_eq!(t.num_foreign_keys, 0);
        assert!(t.has_target);
        assert_eq!(t.name, "t");
        assert_eq!(t.groups().len(), 3);
        assert_eq!(t.groups()[2], r2.groups()[0]);
    }

    #[test]
    fn renamed_preserves_columns() {
        let s = Schema::fact("s", 5, 1);
        let s2 = s.renamed("s_copy");
        assert_eq!(s2.name, "s_copy");
        assert_eq!(s2.num_features, 5);
        assert_eq!(s2.num_foreign_keys, 1);
    }
}

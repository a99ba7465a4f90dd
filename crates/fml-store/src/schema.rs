//! Relation schemas.
//!
//! Relations in this engine follow the shape used throughout the paper
//! (Section IV, Table I):
//!
//! * every tuple has a `u64` primary key (`SID` / `RID`);
//! * a fact table `S` carries zero or more `u64` foreign keys (`FK_1 … FK_q`) and,
//!   for supervised (NN) training, one `f64` target `Y`;
//! * all remaining attributes are `f64` features (`x_S` / `x_R`).
//!
//! Records are fixed width, which keeps page arithmetic — and therefore the I/O
//! cost accounting — simple and predictable.

/// Description of a relation's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Relation name (unique within a [`crate::Database`]).
    pub name: String,
    /// Number of `f64` feature columns.
    pub num_features: usize,
    /// Number of `u64` foreign-key columns.
    pub num_foreign_keys: usize,
    /// Whether tuples carry a supervised-learning target `Y`.
    pub has_target: bool,
}

impl Schema {
    /// Schema of a dimension table `R(RID, x_R)`: key + features only.
    pub fn dimension(name: impl Into<String>, num_features: usize) -> Self {
        Self {
            name: name.into(),
            num_features,
            num_foreign_keys: 0,
            has_target: false,
        }
    }

    /// Schema of a fact table `S(SID, x_S, FK_1 … FK_q)` without a target.
    pub fn fact(name: impl Into<String>, num_features: usize, num_foreign_keys: usize) -> Self {
        Self {
            name: name.into(),
            num_features,
            num_foreign_keys,
            has_target: false,
        }
    }

    /// Schema of a supervised fact table `S(SID, Y, x_S, FK_1 … FK_q)`.
    pub fn fact_with_target(
        name: impl Into<String>,
        num_features: usize,
        num_foreign_keys: usize,
    ) -> Self {
        Self {
            name: name.into(),
            num_features,
            num_foreign_keys,
            has_target: true,
        }
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
    /// Layout: `key (8) | fks (8·nfk) | target (8, if present) | features (8·nfeat)`.
    pub fn record_size(&self) -> usize {
        8 + 8 * self.num_foreign_keys + if self.has_target { 8 } else { 0 } + 8 * self.num_features
    }

    /// Number of 8-byte fields per record, the unit used by the paper when
    /// counting how many values the backward-propagation phase must read
    /// (`n_S·d_S + n_R·d_R` versus `N·d`).
    pub fn fields_per_record(&self) -> usize {
        self.record_size() / 8
    }

    /// Schema of the projected join result `T(SID, [Y], [x_S x_R1 … x_Rq])`
    /// obtained by joining this fact schema with the given dimension schemas.
    ///
    /// The result keeps the fact table's key and target but drops the foreign keys
    /// (they are redundant after the join), mirroring
    /// `T(SID, [X_S X_R]) ← π(R ⋈ S)` from the paper.
    pub fn join_result(&self, name: impl Into<String>, dims: &[&Schema]) -> Self {
        let extra: usize = dims.iter().map(|d| d.num_features).sum();
        Self {
            name: name.into(),
            num_features: self.num_features + extra,
            num_foreign_keys: 0,
            has_target: self.has_target,
        }
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
    }

    #[test]
    fn join_result_concatenates_features_and_drops_fks() {
        let s = Schema::fact_with_target("s", 5, 2);
        let r1 = Schema::dimension("r1", 10);
        let r2 = Schema::dimension("r2", 20);
        let t = s.join_result("t", &[&r1, &r2]);
        assert_eq!(t.num_features, 35);
        assert_eq!(t.num_foreign_keys, 0);
        assert!(t.has_target);
        assert_eq!(t.name, "t");
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

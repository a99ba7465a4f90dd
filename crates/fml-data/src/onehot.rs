//! One-hot encoding utilities.
//!
//! The paper's NN experiments use "Sparse" variants of the real datasets in which
//! categorical attributes are one-hot encoded, inflating `d_S` and `d_R` (e.g.
//! Walmart goes from 3/9 dense features to 126/175 sparse ones) and thereby the
//! redundancy that the factorized algorithms exploit.  [`OneHotSpec`] describes a
//! set of categorical columns and expands category indices into 0/1 feature blocks.

use fml_store::FeatureGroup;

/// One-hot encodes a single categorical value into a block of `cardinality`
/// indicator features.
///
/// # Panics
/// Panics when `index >= cardinality`.
pub fn one_hot(index: usize, cardinality: usize) -> Vec<f64> {
    assert!(
        index < cardinality,
        "one_hot: index {index} out of range for cardinality {cardinality}"
    );
    let mut v = vec![0.0; cardinality];
    v[index] = 1.0;
    v
}

/// Describes a tuple of categorical columns and their cardinalities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotSpec {
    cardinalities: Vec<usize>,
}

impl OneHotSpec {
    /// Creates a spec from per-column cardinalities.
    ///
    /// # Panics
    /// Panics when any cardinality is zero.
    pub fn new(cardinalities: Vec<usize>) -> Self {
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "OneHotSpec: cardinalities must be positive"
        );
        Self { cardinalities }
    }

    /// Builds a spec whose encoded width is exactly `width`, spreading categories
    /// as evenly as possible over `columns` categorical columns.  Used by the
    /// emulated sparse datasets, whose published dimensionalities are totals.
    ///
    /// **Remainder behavior**: when `width` does not divide evenly, the first
    /// `width % columns` columns receive one extra category
    /// (`⌈width/columns⌉`), the rest `⌊width/columns⌋` — so
    /// `Σ cardinalities == width` always holds and the widest and narrowest
    /// columns differ by at most one.
    ///
    /// # Panics
    /// Panics when `columns == 0`, or when `width < columns` (including
    /// `width == 0`): every categorical column needs at least one category, so
    /// a valid spec requires `width ≥ columns ≥ 1`.
    pub fn with_total_width(width: usize, columns: usize) -> Self {
        assert!(columns > 0, "with_total_width: columns must be >= 1");
        assert!(
            width >= columns,
            "with_total_width: width {width} < columns {columns} \
             (every column needs at least one category; width == 0 is invalid)"
        );
        let base = width / columns;
        let extra = width % columns;
        let cardinalities = (0..columns)
            .map(|i| base + usize::from(i < extra))
            .collect();
        Self::new(cardinalities)
    }

    /// The layout the emulated sparse datasets use for a block of total
    /// `width`: roughly 8 categories per column, at least one column.
    ///
    /// # Panics
    /// Panics when `width == 0` (see [`with_total_width`](Self::with_total_width)).
    pub fn auto(width: usize) -> Self {
        let columns = (width / 8).clamp(1, width.max(1));
        Self::with_total_width(width, columns)
    }

    /// Number of categorical columns.
    pub fn num_columns(&self) -> usize {
        self.cardinalities.len()
    }

    /// Cardinality of column `i`.
    pub fn cardinality(&self, i: usize) -> usize {
        self.cardinalities[i]
    }

    /// Total width of the encoded feature vector.
    pub fn encoded_width(&self) -> usize {
        self.cardinalities.iter().sum()
    }

    /// The store's feature group for this layout: one `u32` code per
    /// column, expanding to [`Self::encoded_width`] 0/1 columns.
    pub fn group(&self) -> FeatureGroup {
        FeatureGroup::OneHot {
            cardinalities: self.cardinalities.clone(),
        }
    }

    /// Offset of column `i`'s indicator sub-range within the encoded vector.
    pub fn offset(&self, i: usize) -> usize {
        self.cardinalities[..i].iter().sum()
    }

    /// Encodes one tuple of category indices into its **active absolute
    /// indices** — the sparse counterpart of [`encode`](Self::encode), one
    /// ascending index per categorical column, no densification.
    ///
    /// # Panics
    /// Panics when the number of values differs from the number of columns or
    /// any index is out of range for its column's cardinality.
    pub fn encode_indices(&self, values: &[usize]) -> Vec<u32> {
        assert_eq!(
            values.len(),
            self.cardinalities.len(),
            "encode_indices: expected {} categorical values, got {}",
            self.cardinalities.len(),
            values.len()
        );
        let mut out = Vec::with_capacity(values.len());
        let mut offset = 0usize;
        for (v, c) in values.iter().zip(self.cardinalities.iter()) {
            assert!(
                v < c,
                "encode_indices: value {v} out of range for cardinality {c}"
            );
            out.push((offset + v) as u32);
            offset += c;
        }
        out
    }

    /// Encodes one tuple of category indices into a dense 0/1 vector.
    ///
    /// # Panics
    /// Panics when the number of values differs from the number of columns or any
    /// index is out of range.
    pub fn encode(&self, values: &[usize]) -> Vec<f64> {
        assert_eq!(
            values.len(),
            self.cardinalities.len(),
            "encode: expected {} categorical values, got {}",
            self.cardinalities.len(),
            values.len()
        );
        let mut out = Vec::with_capacity(self.encoded_width());
        for (v, c) in values.iter().zip(self.cardinalities.iter()) {
            out.extend(one_hot(*v, *c));
        }
        out
    }

    /// Decodes an encoded vector back into category indices (inverse of
    /// [`encode`](Self::encode); used in tests).
    pub fn decode(&self, encoded: &[f64]) -> Vec<usize> {
        assert_eq!(encoded.len(), self.encoded_width(), "decode: wrong width");
        let mut out = Vec::with_capacity(self.num_columns());
        let mut offset = 0;
        for &c in &self.cardinalities {
            let block = &encoded[offset..offset + c];
            let idx = block
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0);
            out.push(idx);
            offset += c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_basic() {
        assert_eq!(one_hot(2, 4), vec![0.0, 0.0, 1.0, 0.0]);
        assert_eq!(one_hot(0, 1), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_out_of_range() {
        one_hot(3, 3);
    }

    #[test]
    fn spec_encode_decode_roundtrip() {
        let spec = OneHotSpec::new(vec![3, 2, 4]);
        assert_eq!(spec.encoded_width(), 9);
        assert_eq!(spec.num_columns(), 3);
        assert_eq!(spec.cardinality(2), 4);
        let encoded = spec.encode(&[1, 0, 3]);
        assert_eq!(encoded.len(), 9);
        assert_eq!(encoded.iter().sum::<f64>(), 3.0);
        assert_eq!(spec.decode(&encoded), vec![1, 0, 3]);
    }

    #[test]
    fn with_total_width_splits_evenly() {
        let spec = OneHotSpec::with_total_width(10, 3);
        assert_eq!(spec.encoded_width(), 10);
        assert_eq!(spec.num_columns(), 3);
        // 4 + 3 + 3
        assert_eq!(spec.cardinality(0), 4);
        assert_eq!(spec.cardinality(1), 3);
        assert_eq!(spec.cardinality(2), 3);

        let exact = OneHotSpec::with_total_width(126, 3);
        assert_eq!(exact.encoded_width(), 126);
    }

    #[test]
    #[should_panic(expected = "expected 2 categorical values")]
    fn encode_wrong_arity_panics() {
        OneHotSpec::new(vec![2, 2]).encode(&[0]);
    }

    #[test]
    fn encode_indices_matches_dense_encoding() {
        let spec = OneHotSpec::new(vec![3, 2, 4]);
        let values = [1usize, 0, 3];
        let idx = spec.encode_indices(&values);
        assert_eq!(idx, vec![1, 3, 8]);
        let dense = spec.encode(&values);
        for (i, &v) in dense.iter().enumerate() {
            let expected = if idx.contains(&(i as u32)) { 1.0 } else { 0.0 };
            assert_eq!(v, expected, "position {i}");
        }
        assert_eq!(spec.offset(0), 0);
        assert_eq!(spec.offset(2), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_indices_rejects_out_of_range_value() {
        OneHotSpec::new(vec![2, 2]).encode_indices(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "width 2 < columns 3")]
    fn with_total_width_rejects_width_below_columns() {
        OneHotSpec::with_total_width(2, 3);
    }

    #[test]
    #[should_panic(expected = "width 0 < columns 1")]
    fn with_total_width_rejects_zero_width() {
        OneHotSpec::with_total_width(0, 1);
    }

    #[test]
    #[should_panic(expected = "columns must be >= 1")]
    fn with_total_width_rejects_zero_columns() {
        OneHotSpec::with_total_width(4, 0);
    }

    #[test]
    fn with_total_width_remainder_goes_to_leading_columns() {
        // width == columns: every column is a cardinality-1 indicator
        let unit = OneHotSpec::with_total_width(3, 3);
        assert_eq!(unit.encoded_width(), 3);
        assert!((0..3).all(|i| unit.cardinality(i) == 1));
        // widest and narrowest differ by at most one, sum is exact
        let spec = OneHotSpec::with_total_width(17, 5);
        let cards: Vec<usize> = (0..5).map(|i| spec.cardinality(i)).collect();
        assert_eq!(cards, vec![4, 4, 3, 3, 3]);
        assert_eq!(spec.encoded_width(), 17);
    }

    #[test]
    fn auto_layout_has_about_eight_categories_per_column() {
        let spec = OneHotSpec::auto(126);
        assert_eq!(spec.encoded_width(), 126);
        assert_eq!(spec.num_columns(), 15);
        // degenerate widths still produce valid specs
        assert_eq!(OneHotSpec::auto(1).num_columns(), 1);
        assert_eq!(OneHotSpec::auto(7).num_columns(), 1);
    }
}

//! Compressed rows: many short lists in one flat array. A table is built in
//! two passes, one counting each row's length into [`Rows::counts`] and one
//! [`Rows::push`]ing every item in order, and keeps two arrays in all, which
//! a rebuild of the same table reuses.

/// Row `r` is `items[start[r]..start[r + 1]]`.
#[derive(Debug, Clone, Default)]
pub struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Rows<T> {
    /// Empty the table for `rows` rows and return their counts, all 0, for
    /// the caller to fill in; then [`Rows::fill`].
    pub(crate) fn counts(&mut self, rows: usize) -> &mut [u32] {
        self.start.clear();
        self.start.resize(rows + 1, 0);
        &mut self.start[..rows]
    }

    /// Make room for the counted items; each row is then [`Rows::push`]ed.
    pub(crate) fn fill(&mut self) {
        // Exclusive prefix sums: `start[r]` is row `r`'s fill cursor.
        let mut total = 0;
        for c in &mut self.start {
            total += std::mem::replace(c, total);
        }
        self.items.clear();
        self.items.resize(total as usize, T::default());
    }

    /// Append `item` to row `r`.
    pub(crate) fn push(&mut self, r: usize, item: T) {
        self.items[self.start[r] as usize] = item;
        self.start[r] += 1;
    }

    /// Finish a filled table: each cursor now ends its row and starts the next.
    pub(crate) fn seal(&mut self) {
        self.start.rotate_right(1);
        self.start[0] = 0;
    }

    /// Row `r`, in push order.
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_their_push_order_and_empty_rows_stay_empty() {
        let mut rows = Rows::default();
        for round in 0..2 {
            rows.counts(3).copy_from_slice(&[2, 0, 3]);
            rows.fill();
            for (r, item) in [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (2, 'e')] {
                rows.push(r, item);
            }
            rows.seal();
            assert_eq!(rows.row(0), ['b', 'd'], "round {round}");
            assert!(rows.row(1).is_empty());
            assert_eq!(rows.row(2), ['a', 'c', 'e']);
        }
    }
}

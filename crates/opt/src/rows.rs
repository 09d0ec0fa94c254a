//! Compressed rows: many short lists in one flat array. A table is built in
//! two passes, one counting each row's length and one [`Rows::push`]ing every
//! item in order, and allocates two arrays in all.

/// Row `r` is `items[start[r]..start[r + 1]]`.
#[derive(Debug, Clone, Default)]
pub struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Rows<T> {
    /// An empty table whose row `r` will hold `start[r]` items (the last is 0).
    pub(crate) fn with_counts(mut start: Vec<u32>) -> Self {
        // Exclusive prefix sums: `start[r]` is row `r`'s fill cursor.
        let mut total = 0;
        for c in &mut start {
            total += std::mem::replace(c, total);
        }
        let items = vec![T::default(); total as usize];
        Rows { start, items }
    }

    /// Append `item` to row `r`.
    pub(crate) fn push(&mut self, r: usize, item: T) {
        self.items[self.start[r] as usize] = item;
        self.start[r] += 1;
    }

    /// Finish a filled table: each cursor now ends its row and starts the next.
    pub(crate) fn seal(mut self) -> Self {
        self.start.rotate_right(1);
        self.start[0] = 0;
        self
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
        let mut rows = Rows::with_counts(vec![2, 0, 3, 0]);
        for (r, item) in [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (2, 'e')] {
            rows.push(r, item);
        }
        let rows = rows.seal();
        assert_eq!(rows.row(0), ['b', 'd']);
        assert!(rows.row(1).is_empty());
        assert_eq!(rows.row(2), ['a', 'c', 'e']);
    }
}

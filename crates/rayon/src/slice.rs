//! Parallel slice extensions: `par_sort_*` (chunk sort on scoped threads +
//! buffered merges) and a read-only `par_iter` that clones into a
//! [`crate::ParIter`].

use crate::{current_num_threads, IntoParallelIterator, ParIter};
use std::cmp::Ordering;

/// Read-only parallel access to slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over cloned items (this offline stand-in realizes
    /// the buffer eagerly; real rayon borrows).
    fn par_iter(&self) -> ParIter<T>
    where
        T: Clone + Send;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<T>
    where
        T: Clone + Send,
    {
        self.to_vec().into_par_iter()
    }
}

/// Mutable parallel slice operations: parallel sorts.
///
/// Unlike real rayon these require `T: Clone` (the merge step uses a scratch
/// buffer instead of unsafe moves); every payload sorted in this workspace
/// is `Copy`.
pub trait ParallelSliceMut<T: Send + Clone> {
    /// Parallel unstable sort by key: chunk-sort on scoped threads, then
    /// buffered pairwise merges. Same final order as `sort_unstable_by_key`
    /// for total orders.
    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F);

    /// Parallel unstable sort with a comparator. Same final order as
    /// `sort_unstable_by` when `cmp` is a total order.
    fn par_sort_unstable_by<F: Fn(&T, &T) -> Ordering + Sync>(&mut self, cmp: F);

    /// Parallel stable sort by key (merges favour the left run on ties).
    fn par_sort_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F);

    /// Parallel unstable sort with the natural order.
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send + Clone> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F) {
        par_merge_sort(
            self,
            &|chunk: &mut [T]| chunk.sort_unstable_by_key(&key),
            &|a: &T, b: &T| key(a) <= key(b),
        );
    }

    fn par_sort_unstable_by<F: Fn(&T, &T) -> Ordering + Sync>(&mut self, cmp: F) {
        par_merge_sort(
            self,
            &|chunk: &mut [T]| chunk.sort_unstable_by(&cmp),
            &|a: &T, b: &T| cmp(a, b) != Ordering::Greater,
        );
    }

    fn par_sort_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F) {
        par_merge_sort(
            self,
            &|chunk: &mut [T]| chunk.sort_by_key(&key),
            &|a: &T, b: &T| key(a) <= key(b),
        );
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_merge_sort(
            self,
            &|chunk: &mut [T]| chunk.sort_unstable(),
            &|a: &T, b: &T| a <= b,
        );
    }
}

const SEQUENTIAL_CUTOFF: usize = 4096;

fn par_merge_sort<T: Send + Clone>(
    data: &mut [T],
    sort_chunk: &(dyn Fn(&mut [T]) + Sync),
    le: &(dyn Fn(&T, &T) -> bool + Sync),
) {
    let n = data.len();
    let threads = current_num_threads();
    if n < SEQUENTIAL_CUTOFF || threads <= 1 {
        sort_chunk(data);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = &mut *data;
        let mut handles = Vec::new();
        while !rest.is_empty() {
            let take = rest.len().min(chunk);
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            handles.push(s.spawn(move || sort_chunk(head)));
        }
        for h in handles {
            h.join().expect("sort worker panicked");
        }
    });
    // Bottom-up pairwise merges of the sorted chunks. Sequential: the chunk
    // sorts are O((n/t) log n) each and dominate; merging is one O(n) pass
    // per level over ~log(t) levels.
    let mut width = chunk;
    let mut scratch: Vec<T> = Vec::with_capacity(n.div_ceil(2));
    while width < n {
        let mut lo = 0;
        while lo + width < n {
            let hi = (lo + 2 * width).min(n);
            merge(&mut data[lo..hi], width, le, &mut scratch);
            lo = hi;
        }
        width *= 2;
    }
}

/// Merges the sorted runs `data[..mid]` and `data[mid..]`. Stable (left run
/// wins ties). `scratch` is cleared before use.
fn merge<T: Clone>(
    data: &mut [T],
    mid: usize,
    le: &(dyn Fn(&T, &T) -> bool + Sync),
    scratch: &mut Vec<T>,
) {
    if mid == 0 || mid >= data.len() || le(&data[mid - 1], &data[mid]) {
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(&data[..mid]);
    let (mut i, mut j, mut out) = (0usize, mid, 0usize);
    while i < scratch.len() && j < data.len() {
        if le(&scratch[i], &data[j]) {
            data[out] = scratch[i].clone();
            i += 1;
        } else {
            data[out] = data[j].clone();
            j += 1;
        }
        out += 1;
    }
    while i < scratch.len() {
        data[out] = scratch[i].clone();
        i += 1;
        out += 1;
    }
    // Remaining right-run items are already in place.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sort_matches_std_sort() {
        let mut a: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut b = a.clone();
        a.par_sort_unstable_by_key(|&x| x);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn par_sort_unstable_by_matches_std_sort() {
        let mut a: Vec<(u32, u64)> = (0..30_000u64)
            .map(|i| ((i % 89) as u32, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut b = a.clone();
        a.par_sort_unstable_by(|x, y| y.cmp(x));
        b.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(a, b);
    }

    #[test]
    fn par_sort_by_key_matches_on_total_orders() {
        let mut a: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i % 97, i)).collect();
        let mut b = a.clone();
        a.par_sort_by_key(|&(k, t)| (k, t));
        b.sort_by_key(|&(k, t)| (k, t));
        assert_eq!(a, b);
    }

    #[test]
    fn par_sort_unstable_natural_order() {
        let mut a: Vec<i64> = (0..10_000i64).map(|i| 5_000 - i).collect();
        a.par_sort_unstable();
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn small_slices_take_sequential_path() {
        let mut v = vec![3u8, 1, 2];
        v.par_sort_unstable_by_key(|&x| x);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn par_iter_clones() {
        use crate::prelude::*;
        let v = vec![1u32, 2, 3];
        let doubled: Vec<u32> = v.as_slice().par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        assert_eq!(v.len(), 3);
    }
}

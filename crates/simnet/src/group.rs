//! Grouping a batch of deliveries by receiving node.
//!
//! A LID delivery is a purely local step of its receiver (Lemmas 5–6), and
//! its cost is dominated by the first touch of the receiver's state. A
//! batch visited in schedule order touches receivers in random order; the
//! engines therefore run a batch receiver by receiver. Grouping is stable
//! (deliveries to one node keep their batch order), so every node still
//! sees its inbox in the order the reference schedule gives it.

/// A reusable counting sort of batch indices by node.
#[derive(Default)]
pub(crate) struct NodeSort {
    /// Per-node counts, then each node's next free position.
    counts: Vec<u32>,
}

impl NodeSort {
    /// Fills `order` with the batch indices `0..k` stably sorted by
    /// `node(i)`, which is below `n`: ties in index order.
    ///
    /// A large batch is counting-sorted over the `n` nodes; a small one,
    /// for which the `O(n)` pass would dominate, is merge-sorted. Both give
    /// the same order.
    pub(crate) fn indices(
        &mut self,
        order: &mut Vec<u32>,
        k: usize,
        n: usize,
        node: impl Fn(usize) -> usize,
    ) {
        order.clear();
        order.extend(0..k as u32);
        if k.saturating_mul(16) < n {
            order.sort_by_key(|&i| node(i as usize));
            return;
        }
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(n + 1, 0);
        for i in 0..k {
            counts[node(i) + 1] += 1;
        }
        for v in 1..=n {
            counts[v] += counts[v - 1];
        }
        for i in 0..k {
            let at = &mut counts[node(i)];
            order[*at as usize] = i as u32;
            *at += 1;
        }
    }
}

/// Rearranges `items` in place so that `items[j]` becomes the old
/// `items[order[j]]`, moving every item at most once. `order` must be a
/// permutation of `0..items.len()`; it is left as the identity.
pub(crate) fn permute<T>(items: &mut [T], order: &mut [u32]) {
    debug_assert_eq!(items.len(), order.len());
    for start in 0..items.len() {
        // Follow the cycle through `start`; an entry equal to its own
        // index is a fixed point or an already placed item.
        let mut j = start;
        loop {
            let src = order[j] as usize;
            order[j] = j as u32;
            if src == start {
                break;
            }
            items.swap(j, src);
            j = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sorts_are_stable() {
        let mut sort = NodeSort::default();
        let mut order = Vec::new();
        // Pseudo-random keys with many ties, sized for the merge sort
        // (k = 5 ≪ n) and for the counting sort (k ≥ n / 16).
        for (k, n) in [(0, 10), (1, 10), (5, 1000), (40, 7), (300, 50)] {
            let keys: Vec<usize> = (0..k).map(|i| (i * 7919 + 13) % n).collect();
            sort.indices(&mut order, k, n, |i| keys[i]);
            let mut reference: Vec<u32> = (0..k as u32).collect();
            reference.sort_by_key(|&i| keys[i as usize]);
            assert_eq!(order, reference, "k = {k}, n = {n}");
        }
    }

    #[test]
    fn permute_gathers_in_order() {
        let dests = [3usize, 1, 3, 0, 1, 2, 0];
        let mut order = Vec::new();
        NodeSort::default().indices(&mut order, dests.len(), 4, |i| dests[i]);
        let mut items: Vec<(usize, usize)> = dests.iter().copied().zip(0..).collect();
        permute(&mut items, &mut order);
        assert_eq!(
            items,
            [(0, 3), (0, 6), (1, 1), (1, 4), (2, 5), (3, 0), (3, 2)]
        );
        assert!(order.iter().enumerate().all(|(j, &o)| o as usize == j));
    }
}

//! The layout the recurrent encoders train a batch of ragged sequences in.

use std::cmp::Reverse;
use tensor::Matrix;

/// A batch of ragged sequences stored time-major without padding rows.
///
/// Sequences are sorted longest first (ties keep the caller's order) and
/// numbered by that position, their *slot*. The live sequences at step
/// `t` are a prefix of the slots, and their rows one contiguous block,
/// slot by slot; blocks follow in ascending `t`. It is the zero-padded
/// `T × B` grid with the padding cells left out, so a per-step product
/// covers exactly the live rows and the row-wise ops (dropout, im2col,
/// pooling) never touch a padding row. One sequence is `T` rows in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqBatch {
    /// Caller index of each slot.
    order: Vec<usize>,
    /// Length of each slot's sequence, non-increasing.
    lens: Vec<usize>,
    /// First row of each step, then the row count.
    starts: Vec<usize>,
}

/// Sequences of non-increasing `lens` still running at step `t`.
pub(crate) fn active(lens: &[usize], t: usize) -> usize {
    lens.partition_point(|&l| l > t)
}

impl SeqBatch {
    /// The layout of sequences whose lengths, in caller order, are `lens`.
    pub fn new(lens: &[usize]) -> Self {
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&i| Reverse(lens[i]));
        let lens: Vec<usize> = order.iter().map(|&i| lens[i]).collect();
        let mut starts = vec![0];
        for t in 0..lens.first().copied().unwrap_or(0) {
            starts.push(starts[t] + active(&lens, t));
        }
        Self {
            order,
            lens,
            starts,
        }
    }

    /// Total rows: the sum of the lengths.
    pub fn rows(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// Sequence lengths by slot, longest first.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// The row of step `t` of slot `slot`.
    pub fn row(&self, slot: usize, t: usize) -> usize {
        debug_assert!(t < self.lens[slot], "step past the sequence end");
        self.starts[t] + slot
    }

    /// Caller index of each slot.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Every row, sequence by sequence in caller order and step by step
    /// within one: the order a per-sequence computation (a dropout mask
    /// drawn one sequence at a time) visits them in.
    pub fn rows_in_caller_order(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.order.len()).flat_map(move |caller| {
            let slot = self.order.iter().position(|&c| c == caller).unwrap();
            (0..self.lens[slot]).map(move |t| self.row(slot, t))
        })
    }

    /// The layout of the `k`-step windows of every sequence (each at least
    /// `k` long): window `t` of a sequence covers its steps `t..t + k`.
    pub fn windows(&self, k: usize) -> SeqBatch {
        assert!(
            k >= 1 && self.lens.iter().all(|&l| l >= k),
            "window too long"
        );
        let mut lens = vec![0; self.order.len()];
        for (&caller, &len) in self.order.iter().zip(&self.lens) {
            lens[caller] = len + 1 - k;
        }
        Self::new(&lens)
    }

    /// The caller's sequences (`seqs[i]` has at most `lens[i]` rows of
    /// `width` floats; missing trailing rows are zeros) packed into this
    /// layout's rows.
    pub fn pack(&self, seqs: &[&Matrix], width: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), width);
        self.pack_into(seqs, width, out.as_mut_slice());
        out
    }

    /// [`SeqBatch::pack`] into `out` (`rows() × width` floats).
    pub fn pack_into(&self, seqs: &[&Matrix], width: usize, out: &mut [f32]) {
        assert_eq!(seqs.len(), self.order.len(), "one matrix per sequence");
        assert_eq!(out.len(), self.rows() * width, "packed batch shape");
        out.fill(0.0);
        for (slot, &caller) in self.order.iter().enumerate() {
            let seq = seqs[caller];
            assert_eq!(seq.cols(), width, "sequence width mismatch");
            for t in 0..seq.rows().min(self.lens[slot]) {
                let row = self.row(slot, t);
                out[row * width..(row + 1) * width].copy_from_slice(seq.row(t));
            }
        }
    }

    /// [`SeqBatch::pack_into`] for sequences of word ids: `seqs[i]` has at
    /// most `lens[i]` ids, missing trailing ones are `0`.
    pub fn pack_ids_into(&self, seqs: &[&[u32]], out: &mut [u32]) {
        assert_eq!(seqs.len(), self.order.len(), "one id sequence per slot");
        assert_eq!(out.len(), self.rows(), "packed id batch length");
        out.fill(0);
        for (slot, &caller) in self.order.iter().enumerate() {
            for (t, &id) in seqs[caller].iter().take(self.lens[slot]).enumerate() {
                out[self.row(slot, t)] = id;
            }
        }
    }

    /// Each sequence's windows of `k` consecutive steps, flattened per
    /// window: the `width`-wide rows of `x` (this layout) become the
    /// `k·width`-wide rows of `out`, laid out as [`SeqBatch::windows`].
    pub(crate) fn im2col_into(&self, x: &[f32], width: usize, k: usize, out: &mut [f32]) {
        let win = self.windows(k);
        assert_eq!(x.len(), self.rows() * width, "im2col layout mismatch");
        assert_eq!(out.len(), win.rows() * k * width, "im2col output shape");
        let kw = k * width;
        for (slot, &len) in win.lens().iter().enumerate() {
            for t in 0..len {
                let o = &mut out[win.row(slot, t) * kw..][..kw];
                for (dk, o) in o.chunks_exact_mut(width).enumerate() {
                    let src = self.row(slot, t + dk) * width;
                    o.copy_from_slice(&x[src..src + width]);
                }
            }
        }
    }

    /// Each sequence's mean step: row `i` of `out` (every `stride` floats)
    /// becomes the mean of caller `i`'s `width`-wide rows of `x`,
    /// accumulated as `Σ v / len` in step order from `0.0` (an empty
    /// sequence gives zeros).
    pub fn mean_over_steps_into(&self, x: &[f32], width: usize, out: &mut [f32], stride: usize) {
        assert_eq!(
            x.len(),
            self.rows() * width,
            "mean_over_steps layout mismatch"
        );
        for (slot, (&caller, &len)) in self.order.iter().zip(&self.lens).enumerate() {
            let n = len.max(1) as f32;
            let o = &mut out[caller * stride..][..width];
            o.fill(0.0);
            for t in 0..len {
                let row = self.row(slot, t) * width;
                for (o, &v) in o.iter_mut().zip(&x[row..row + width]) {
                    *o += v / n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_time_major_longest_first() {
        let b = SeqBatch::new(&[2, 4, 0, 3]);
        assert_eq!(b.order(), &[1, 3, 0, 2]);
        assert_eq!(b.lens(), &[4, 3, 2, 0]);
        assert_eq!(b.rows(), 9);
        let live: Vec<usize> = (0..5).map(|t| active(b.lens(), t)).collect();
        assert_eq!(live, [3, 3, 2, 1, 0]);
        // Step 1 of slot 2 (caller 0) follows step 0's three rows.
        assert_eq!(b.row(2, 1), 5);
        let caller: Vec<usize> = b.rows_in_caller_order().collect();
        assert_eq!(caller, [2, 5, 0, 3, 6, 8, 1, 4, 7]);
    }

    #[test]
    fn pack_places_each_step_and_zero_fills() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        // `a` is padded to three steps.
        let batch = SeqBatch::new(&[3, 2]);
        let x = batch.pack(&[&a, &b], 2);
        assert_eq!(
            x.as_slice(),
            &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 5.0, 6.0, 0.0, 0.0]
        );
        let w = batch.windows(2);
        assert_eq!(w.lens(), &[2, 1]);
        assert_eq!(w.rows(), 3);
    }
}

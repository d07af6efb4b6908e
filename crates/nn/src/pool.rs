//! Buffers kept from one pass to the next.
//!
//! A pool hands out `f32` buffers and takes them back, so a pass that runs again at
//! the same shapes stops going to the system allocator for its large blocks (glibc serves
//! blocks of 128 KiB and up with `mmap`, or from the top of the heap, and returns them to
//! the kernel when freed, so each one costs page faults every time it is reused). Two
//! kinds of pass keep one:
//!
//! * a training step: its [`Tape`](crate::tape::Tape) owns a pool, and
//!   [`Trainer`](crate::optim::Trainer) resets the tape, not rebuilds it, between steps;
//! * a tape-free inference call: every thread has a pool of its own, which the layers'
//!   `infer` / `infer_batch` take their large outputs from. A caller runs one call as a
//!   [`scope`] and hands each temporary it is done with back with [`recycle`].
//!
//! A pool is bounded by one pass. A tape reset frees every buffer the step before it
//! left idle, so a tape holds one step's buffers. The end of the outermost [`scope`]
//! frees the idle buffers beyond the most bytes any one call handed back, so a thread's
//! pool holds at most its largest call's buffers, and calls of alternating shapes (an
//! `EMBED` chunk between two `MATCH` chunks) each find the buffers the other needs. A
//! thread's pool lives as long as the thread, so a long-lived thread (a server worker)
//! keeps them from request to request, and a fan-out thread frees them when it exits.
//! A request takes the smallest free buffer large enough, so varying padded lengths do
//! not grow the pool, and the taker writes every element of it: nothing is read
//! uninitialised.

use std::cell::{Cell, RefCell};

use crate::matrix::{Matrix, PackedTranspose};

/// Free buffers handed out and taken back.
#[derive(Default)]
pub(crate) struct Pool {
    /// Free buffers, ascending by capacity, each with the [`Pool::epoch`] at which it
    /// was last handed back.
    pub(crate) free: Vec<(usize, Vec<f32>)>,
    /// Number of passes ended so far.
    epoch: usize,
    /// The most floats any one pass handed back.
    largest_pass: usize,
    /// Scratch of the products: `A^T` of a `matmul_transpose_a`, and `B`'s packed panels.
    transposed: Vec<f32>,
    panels: Vec<f32>,
}

impl Pool {
    /// A buffer of `len` floats: the smallest free one large enough, its contents
    /// stale, or else a new zeroed one. The caller overwrites every element.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let at = self.free.partition_point(|(_, b)| b.capacity() < len);
        if at == self.free.len() {
            return vec![0.0; len];
        }
        let mut buf = self.free.remove(at).1;
        buf.resize(len, 0.0);
        buf
    }

    /// A `rows x cols` matrix whose every element `fill` writes.
    pub(crate) fn filled(
        &mut self,
        (rows, cols): (usize, usize),
        fill: impl FnOnce(&mut [f32]),
    ) -> Matrix {
        let mut buf = self.take(rows * cols);
        fill(&mut buf);
        Matrix::from_vec(rows, cols, buf)
    }

    /// `f` of every element of `a`.
    pub(crate) fn map(&mut self, a: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        self.filled(a.shape(), |out| {
            for (o, &x) in out.iter_mut().zip(a.data()) {
                *o = f(x);
            }
        })
    }

    /// `f` of every pair of elements of `a` and `b`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn zip(&mut self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "zip_map: shape mismatch");
        self.filled(a.shape(), |out| {
            for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
                *o = f(x, y);
            }
        })
    }

    /// A zero `rows x cols` matrix.
    pub(crate) fn zeros(&mut self, shape: (usize, usize)) -> Matrix {
        self.filled(shape, |out| out.fill(0.0))
    }

    /// A copy of `a`.
    pub(crate) fn copy(&mut self, a: &Matrix) -> Matrix {
        self.filled(a.shape(), |out| out.copy_from_slice(a.data()))
    }

    /// Rows `indices` of `table` ([`Matrix::gather_rows`]).
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub(crate) fn gather(&mut self, table: &Matrix, indices: &[usize]) -> Matrix {
        let cols = table.cols();
        self.filled((indices.len(), cols), |out| {
            for (i, &idx) in indices.iter().enumerate() {
                assert!(
                    idx < table.rows(),
                    "gather_rows: index {} out of range",
                    idx
                );
                out[i * cols..(i + 1) * cols].copy_from_slice(table.row(idx));
            }
        })
    }

    /// `a * b` ([`Matrix::matmul`]).
    pub(crate) fn product(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = self.take(a.rows() * b.cols());
        a.matmul_into(b, &mut out, &mut self.panels);
        Matrix::from_vec(a.rows(), b.cols(), out)
    }

    /// `a^T * b` ([`Matrix::matmul_transpose_a`]).
    pub(crate) fn product_transpose_a(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = self.take(a.cols() * b.cols());
        a.matmul_transpose_a_into(b, &mut out, &mut self.transposed, &mut self.panels);
        Matrix::from_vec(a.cols(), b.cols(), out)
    }

    /// `a * b^T` ([`Matrix::matmul_transpose_b`]).
    pub(crate) fn product_transpose_b(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let packed = PackedTranspose::new(&b.view());
        self.filled((a.rows(), b.rows()), |out| {
            packed.multiply_into(&a.view(), out)
        })
    }

    /// Hands a buffer back.
    pub(crate) fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let at = self
            .free
            .partition_point(|(_, b)| b.capacity() < buf.capacity());
        self.free.insert(at, (self.epoch, buf));
    }

    /// Hands many buffers back at once.
    pub(crate) fn give_all(&mut self, bufs: impl Iterator<Item = Vec<f32>>) {
        let epoch = self.epoch;
        let bufs = bufs.filter(|b| b.capacity() > 0).map(|b| (epoch, b));
        self.free.extend(bufs);
        self.free.sort_unstable_by_key(|(_, b)| b.capacity());
    }

    /// Ends a pass. Every buffer handed back during it stays; of the idle ones, none
    /// stays, or with `keep_idle` those that fit, smallest first, within the most bytes
    /// any one pass handed back.
    pub(crate) fn end_pass(&mut self, keep_idle: bool) {
        let epoch = self.epoch;
        let used = self
            .free
            .iter()
            .filter(|(handed_back, _)| *handed_back == epoch);
        let used: usize = used.map(|(_, buf)| buf.capacity()).sum();
        self.largest_pass = self.largest_pass.max(used);
        let mut room = if keep_idle {
            self.largest_pass - used
        } else {
            0
        };
        self.free.retain(|(handed_back, buf)| {
            let idle = *handed_back != epoch;
            let keep = !idle || buf.capacity() <= room;
            if idle && keep {
                room -= buf.capacity();
            }
            keep
        });
        self.epoch += 1;
    }
}

thread_local! {
    /// This thread's pool for tape-free inference.
    static INFERENCE: RefCell<Pool> = RefCell::default();
    /// Number of [`scope`]s this thread is inside.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` on this thread's inference pool. `f` must not call back into this module.
pub(crate) fn with<R>(f: impl FnOnce(&mut Pool) -> R) -> R {
    INFERENCE.with(|pool| f(&mut pool.borrow_mut()))
}

/// Runs `f` as one tape-free inference call. Scopes nest; when the outermost one ends,
/// this thread's pool frees the buffers that were not [`recycle`]d during it beyond the
/// most bytes any one call recycled.
pub fn scope<R>(f: impl FnOnce() -> R) -> R {
    /// Leaves the scope, on return and on unwind alike.
    struct Exit;
    impl Drop for Exit {
        fn drop(&mut self) {
            let depth = DEPTH.get() - 1;
            DEPTH.set(depth);
            if depth == 0 {
                with(|pool| pool.end_pass(true));
            }
        }
    }
    DEPTH.set(DEPTH.get() + 1);
    let _exit = Exit;
    f()
}

/// Hands the buffer of `m`, an inference temporary the caller is done with, to this
/// thread's pool, where the next temporary of the same [`scope`] or of the next one
/// can take it.
pub fn recycle(m: Matrix) {
    let buf = m.into_data();
    with(|pool| pool.give(buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Free buffers in this thread's inference pool.
    fn pooled() -> usize {
        with(|pool| pool.free.len())
    }

    #[test]
    fn the_outermost_scope_keeps_at_most_the_largest_calls_buffers() {
        // A thread of its own: its pool starts empty.
        std::thread::spawn(|| {
            let call = |shapes: &[(usize, usize)]| {
                scope(|| {
                    let taken: Vec<Matrix> = shapes
                        .iter()
                        .map(|&shape| with(|pool| pool.zeros(shape)))
                        .collect();
                    scope(|| taken.into_iter().for_each(recycle));
                    assert!(pooled() >= shapes.len(), "a nested scope ends no pass");
                })
            };
            call(&[(64, 32), (64, 64)]);
            assert_eq!(pooled(), 2, "the call's buffers stay for the next call");
            call(&[(8, 8)]);
            assert_eq!(
                pooled(),
                2,
                "a smaller call keeps the larger call's buffers"
            );
            call(&[(128, 64)]);
            assert_eq!(pooled(), 1, "a larger call frees the buffers it left idle");
        })
        .join()
        .unwrap();
    }
}

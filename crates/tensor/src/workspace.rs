//! Reusable scratch memory for the compute kernels and the train loop.
//!
//! Two tiers:
//!
//! * [`Workspace`] — per-thread packing/partial buffers used *inside* the
//!   matmul kernels. The pool spawns scoped workers per parallel region,
//!   so all workspace use happens on the calling thread: operands are
//!   packed before the region starts, and reduction partials are carved
//!   out of one flat buffer that workers receive as disjoint `&mut`
//!   chunks. Buffers grow to the high-water mark and are reused across
//!   calls via [`with_workspace`], so steady-state kernel calls allocate
//!   nothing.
//! * [`ScratchArena`] — a trainer-owned pool of `Matrix` buffers for
//!   forward/backward intermediates. `take` hands out a zeroed matrix in
//!   the returned buffer that fits it best, `put` returns one. After the
//!   first epoch the pool holds a buffer for every size an epoch has
//!   outstanding at once, so subsequent epochs run the whole
//!   forward/backward at zero matrix allocations — asserted by the
//!   alloc-count gate in `crates/models/tests/epoch_allocs.rs`.

use std::cell::RefCell;

use crate::matrix::Matrix;

/// Kernel-internal scratch: operand packing buffer plus a flat partials
/// buffer for chunked reductions. Obtain one with [`with_workspace`].
#[derive(Default)]
pub struct Workspace {
    packed_b: Vec<f32>,
    partials: Vec<f32>,
}

impl Workspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `len` elements of the packing buffer, grown as needed.
    /// Contents are unspecified; packing overwrites every element it uses.
    pub(crate) fn packed(&mut self, len: usize) -> &mut [f32] {
        if self.packed_b.len() < len {
            self.packed_b.resize(len, 0.0);
        }
        &mut self.packed_b[..len]
    }

    /// The first `len` elements of the partials buffer, grown as needed.
    /// Contents are unspecified; each reduction chunk zeroes its own slice.
    pub(crate) fn partials(&mut self, len: usize) -> &mut [f32] {
        if self.partials.len() < len {
            self.partials.resize(len, 0.0);
        }
        &mut self.partials[..len]
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's kernel workspace. Reentrant calls (a kernel
/// invoked from inside another kernel's workspace scope) get a fresh
/// temporary workspace instead of panicking on the `RefCell`.
pub fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

/// A pool of recyclable `Matrix` buffers for training intermediates.
///
/// Not a classic bump allocator: buffers are individually `take`n and
/// `put` back, because backward passes interleave the lifetimes of
/// activations, gradients, and scratch. The *bump-reset* part is
/// [`ScratchArena::reset`], called once per epoch: it asserts the epoch
/// returned everything it took and keeps the freed buffers for the next
/// epoch. `take` is best-fit, so from the second epoch on every `take`
/// finds a buffer whose capacity already fits and the pool stops growing.
/// (Handing out whichever buffer was returned last does not converge: an
/// RGCN epoch holds hundreds of `d × d` gradient buffers beside a few
/// `|V| × d` ones, and every epoch a few more of the small ones would be
/// grown to `|V| × d` and then buried under small requests again.)
#[derive(Default)]
pub struct ScratchArena {
    /// Returned buffers, ascending by capacity.
    free: Vec<Vec<f32>>,
    outstanding: usize,
    takes: u64,
    reuses: u64,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed `rows × cols` matrix in the smallest returned buffer that
    /// holds it (zeroing reuses capacity and does not allocate); when none
    /// does, the largest one is grown, and a new one made only when the
    /// pool is empty.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        self.takes += 1;
        // `free` ascends by capacity: the first buffer that fits is the
        // smallest that does, and the last one the largest there is.
        let fits = self.free.partition_point(|buf| buf.capacity() < need);
        let recycled = if fits < self.free.len() {
            Some(self.free.remove(fits))
        } else {
            self.free.pop()
        };
        self.reuses += u64::from(recycled.is_some());
        let mut buf = recycled.unwrap_or_default();
        buf.clear();
        buf.resize(need, 0.0);
        self.outstanding += 1;
        Matrix::from_vec(rows, cols, buf)
    }

    /// Returns a matrix's buffer to the arena for reuse.
    pub fn put(&mut self, m: Matrix) {
        debug_assert!(self.outstanding > 0, "put without matching take");
        self.outstanding = self.outstanding.saturating_sub(1);
        let buf = m.into_data();
        let at = self.free.partition_point(|b| b.capacity() < buf.capacity());
        self.free.insert(at, buf);
    }

    /// Epoch boundary: verifies the epoch's takes were all returned (debug
    /// builds) and keeps the recycled buffers for the next epoch.
    pub fn reset(&mut self) {
        debug_assert_eq!(
            self.outstanding, 0,
            "scratch arena reset with {} matrices still outstanding",
            self.outstanding
        );
        self.outstanding = 0;
    }

    /// `(takes, takes served from a recycled buffer)` since construction —
    /// lets tests assert the steady-state epoch reuses everything.
    pub fn stats(&self) -> (u64, u64) {
        (self.takes, self.reuses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = ScratchArena::new();
        let a = arena.take(8, 4);
        assert_eq!(a.shape(), (8, 4));
        assert!(a.data().iter().all(|&v| v == 0.0));
        let mut a = a;
        a.row_mut(0)[0] = 7.0;
        arena.put(a);
        // Same-size take reuses the buffer and hands it back zeroed.
        let b = arena.take(4, 8);
        assert!(b.data().iter().all(|&v| v == 0.0));
        arena.put(b);
        arena.reset();
        let (takes, reuses) = arena.stats();
        assert_eq!(takes, 2);
        assert_eq!(reuses, 1);
    }

    #[test]
    fn take_is_best_fit() {
        let mut arena = ScratchArena::new();
        let (big, small) = (arena.take(100, 10), arena.take(2, 2));
        let (big_at, small_at) = (big.data().as_ptr(), small.data().as_ptr());
        // Big one returned last: handing out the latest return would give
        // it to the small request and grow the small one for the big.
        arena.put(small);
        arena.put(big);
        let (small, big) = (arena.take(1, 3), arena.take(50, 20));
        assert_eq!(small.data().as_ptr(), small_at);
        assert_eq!(big.data().as_ptr(), big_at);
        arena.put(small);
        arena.put(big);
        // Nothing fits: the largest buffer grows, the small one stays small.
        let huge = arena.take(300, 10);
        assert_eq!(arena.take(2, 2).data().as_ptr(), small_at);
        assert_eq!(huge.shape(), (300, 10));
    }

    #[test]
    fn workspace_buffers_grow_and_reuse() {
        with_workspace(|ws| {
            let p = ws.packed(16);
            assert_eq!(p.len(), 16);
            p[15] = 3.0;
        });
        with_workspace(|ws| {
            // Larger request grows; smaller request reuses.
            assert_eq!(ws.packed(32).len(), 32);
            assert_eq!(ws.partials(8).len(), 8);
        });
    }

    #[test]
    fn with_workspace_is_reentrant() {
        let v = with_workspace(|outer| {
            outer.packed(4)[0] = 1.0;
            with_workspace(|inner| inner.packed(4).len())
        });
        assert_eq!(v, 4);
    }
}

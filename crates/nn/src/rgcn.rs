//! The relational graph convolution (RGCN) layer of Schlichtkrull et al.,
//! Eq. 1 of the paper, with an explicit backward pass.
//!
//! Forward for node `i`:
//!
//! ```text
//! h_i' = σ( Σ_r Σ_{j ∈ N_i^r} 1/c_{i,r} · W_r h_j  +  W_0 h_i + b )
//! ```
//!
//! with `c_{i,r} = |N_i^r|` (mean normalization). Like the reference
//! implementations, each relation contributes in both directions: a forward
//! transform over incoming edges and a reverse transform over outgoing
//! edges (equivalent to adding inverse relations). This makes the weight
//! count — and therefore model size — proportional to `|R|`, which is
//! exactly the effect KG-TOSA exploits by shrinking the relation set.
//!
//! To keep memory proportional to one activation matrix, per-relation
//! aggregates are *recomputed* during backward instead of cached.
//!
//! A relation of a typed KG reaches a small share of the vertices, so every
//! per-relation operand is **row-compact**: row `k` of the aggregate (and of
//! the gathered `out` / `grad_out` rows it is multiplied with) stands for
//! vertex `csr.active_rows()[k]`, and a layer pass costs `Σ_r |active_r|`
//! rows of aggregation and matmul, not `|R|·|V|`. The rows left out are the
//! ones a dense formulation would fill with zeros; DESIGN.md ("Kernel
//! compute core") has the argument that leaving them out changes no bit.

use kgtosa_kg::{Csr, HeteroGraph, Rid, Vid};
use kgtosa_par::Pool;
use kgtosa_tensor::{
    relu_backward, relu_inplace, simd_level, xavier_uniform, F32x8, Matrix, ScratchArena,
    SimdLevel,
};
use rand::Rng;

/// One RGCN convolution layer.
#[derive(Debug, Clone)]
pub struct RgcnLayer {
    /// Per-relation transform over incoming edges.
    pub w_fwd: Vec<Matrix>,
    /// Per-relation transform over outgoing (inverse) edges.
    pub w_rev: Vec<Matrix>,
    /// Self-loop transform `W_0`.
    pub w_self: Matrix,
    /// Bias.
    pub b: Vec<f32>,
    /// Whether a ReLU follows the affine aggregation.
    pub relu: bool,
}

/// Cache carried from forward to backward.
#[derive(Debug)]
pub struct RgcnCache {
    relu_mask: Option<Vec<bool>>,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone)]
pub struct RgcnGrads {
    /// Gradients of [`RgcnLayer::w_fwd`].
    pub w_fwd: Vec<Matrix>,
    /// Gradients of [`RgcnLayer::w_rev`].
    pub w_rev: Vec<Matrix>,
    /// Gradient of the self-loop weight.
    pub w_self: Matrix,
    /// Gradient of the bias.
    pub b: Vec<f32>,
}

impl RgcnLayer {
    /// Xavier-initialized layer for `num_relations` edge types.
    pub fn new(
        num_relations: usize,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            w_fwd: (0..num_relations)
                .map(|_| xavier_uniform(in_dim, out_dim, rng))
                .collect(),
            w_rev: (0..num_relations)
                .map(|_| xavier_uniform(in_dim, out_dim, rng))
                .collect(),
            w_self: xavier_uniform(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            relu,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w_self.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w_self.cols()
    }

    /// Number of trainable parameters. Scales with `|R|`.
    pub fn param_count(&self) -> usize {
        self.w_fwd.iter().map(Matrix::param_count).sum::<usize>()
            + self.w_rev.iter().map(Matrix::param_count).sum::<usize>()
            + self.w_self.param_count()
            + self.b.len()
    }

    /// Forward pass over the graph's per-relation adjacency.
    ///
    /// Allocating form of [`RgcnLayer::forward_arena`].
    pub fn forward(&self, g: &HeteroGraph, h: &Matrix) -> (Matrix, RgcnCache) {
        let mut arena = ScratchArena::new();
        self.forward_arena(g, h, &mut arena)
    }

    /// Forward pass with intermediates (and the returned activation) drawn
    /// from `arena`. The caller owns the returned matrix and is expected
    /// to `put` it back once consumed, so steady-state epochs allocate
    /// nothing here.
    pub fn forward_arena(
        &self,
        g: &HeteroGraph,
        h: &Matrix,
        arena: &mut ScratchArena,
    ) -> (Matrix, RgcnCache) {
        assert_eq!(h.rows(), g.num_nodes(), "one feature row per node");
        assert_eq!(h.cols(), self.in_dim(), "feature dim mismatch");
        let mut out = arena.take(h.rows(), self.out_dim());
        h.matmul_into(&self.w_self, &mut out);
        let relations = g.num_relations().min(self.w_fwd.len());
        let cap = max_active_rows(g, relations);
        let mut agg = arena.take(cap, h.cols());
        let mut out_rows = arena.take(cap, self.out_dim());
        for r in 0..relations {
            let adj = g.relation(Rid(r as u32));
            // Incoming edges, N_i^r = { j : (j, r, i) ∈ T }, then outgoing
            // (inverse) ones.
            for (csr, w) in [(&adj.inc, &self.w_fwd[r]), (&adj.out, &self.w_rev[r])] {
                let act = csr.active_rows();
                if act.is_empty() {
                    continue;
                }
                mean_aggregate_active(csr, h, &mut agg);
                out_rows.resize_rows(act.len());
                out.gather_rows_into(act, &mut out_rows);
                agg.matmul_acc_into(w, &mut out_rows);
                scatter_rows(&out_rows, act, &mut out);
            }
        }
        arena.put(agg);
        arena.put(out_rows);
        let relu_mask = self.bias_and_activate(&mut out);
        (out, RgcnCache { relu_mask })
    }

    /// `out += b` per row, then the ReLU when the layer has one (returning
    /// its mask): the tail of every forward.
    fn bias_and_activate(&self, out: &mut Matrix) -> Option<Vec<bool>> {
        for row in 0..out.rows() {
            for (v, &b) in out.row_mut(row).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.relu.then(|| relu_inplace(out))
    }

    /// Forward pass restricted to the distinct vertices `rows`: row `k` of
    /// the result is row `rows[k]` of [`RgcnLayer::forward_arena`]'s, bit for
    /// bit, computed from those vertices and their neighbours alone. Per
    /// relation direction only the requested rows with neighbours are
    /// aggregated, multiplied and scattered back, in `forward_arena`'s
    /// relation/direction order; an output element accumulates over the same
    /// neighbours and the same `k` in the same order whichever other rows
    /// share its operand (DESIGN.md, "Kernel compute core").
    ///
    /// `pos` inverts `rows` over the graph's vertices: `pos[rows[k]] == k`,
    /// and `pos[v] >= rows.len()` for every other `v` — so a direction with
    /// fewer active rows than the request is matched from its side, and
    /// selecting costs `Σ_r min(|active_r|, |rows|)`. `h_row[v]` is the row
    /// of `h` holding vertex `v`'s features and must be valid for every
    /// vertex in `rows` and every neighbour of one; other entries are never
    /// read. `None` means `h` has one row per vertex.
    ///
    /// Also returns the number of neighbour rows read — the call's exact
    /// memory-bound work, `Σ_{v ∈ rows} deg(v)` over every direction of the
    /// relations the layer has weights for.
    pub fn forward_rows_arena(
        &self,
        g: &HeteroGraph,
        h: &Matrix,
        h_row: Option<&[u32]>,
        rows: &[u32],
        pos: &[u32],
        arena: &mut ScratchArena,
    ) -> (Matrix, u64) {
        assert_eq!(h.cols(), self.in_dim(), "feature dim mismatch");
        if h_row.is_none() {
            assert_eq!(h.rows(), g.num_nodes(), "one feature row per node");
        }
        let at = |v: u32| h_row.map_or(v, |m| m[v as usize]);
        // The widest operand any direction can need is one row per request.
        let mut agg = arena.take(rows.len(), h.cols());
        for (k, &v) in rows.iter().enumerate() {
            agg.row_mut(k).copy_from_slice(h.row(at(v) as usize));
        }
        let mut out = arena.take(rows.len(), self.out_dim());
        agg.matmul_into(&self.w_self, &mut out);
        let mut out_rows = arena.take(rows.len(), self.out_dim());
        let mut reached = ReachedRows::default();
        let mut edge_visits = 0u64;
        for r in 0..g.num_relations().min(self.w_fwd.len()) {
            let adj = g.relation(Rid(r as u32));
            for (csr, w) in [(&adj.inc, &self.w_fwd[r]), (&adj.out, &self.w_rev[r])] {
                reached.select(csr, rows, pos, at);
                if reached.rows.is_empty() {
                    continue;
                }
                edge_visits += reached.nbrs.len() as u64;
                reached.mean_aggregate(h, &mut agg);
                out_rows.resize_rows(reached.rows.len());
                out.gather_rows_into(&reached.rows, &mut out_rows);
                agg.matmul_acc_into(w, &mut out_rows);
                scatter_rows(&out_rows, &reached.rows, &mut out);
            }
        }
        arena.put(agg);
        arena.put(out_rows);
        self.bias_and_activate(&mut out);
        (out, edge_visits)
    }

    /// Backward pass. `h` is the forward input; `grad_out` is `∂L/∂output`.
    /// Returns `∂L/∂h` and the parameter gradients.
    ///
    /// Allocating form of [`RgcnLayer::backward_arena`].
    pub fn backward(
        &self,
        g: &HeteroGraph,
        h: &Matrix,
        cache: &RgcnCache,
        grad_out: Matrix,
    ) -> (Matrix, RgcnGrads) {
        let mut arena = ScratchArena::new();
        self.backward_arena(g, h, cache, grad_out, &mut arena)
    }

    /// Backward pass with every intermediate and returned gradient drawn
    /// from `arena`. `grad_out` is consumed and its buffer recycled; the
    /// returned `grad_h` and [`RgcnGrads`] matrices should be `put` back
    /// by the caller after the optimizer step.
    pub fn backward_arena(
        &self,
        g: &HeteroGraph,
        h: &Matrix,
        cache: &RgcnCache,
        mut grad_out: Matrix,
        arena: &mut ScratchArena,
    ) -> (Matrix, RgcnGrads) {
        if let Some(mask) = &cache.relu_mask {
            relu_backward(&mut grad_out, mask);
        }
        let mut grad_b = vec![0.0f32; self.b.len()];
        for r in 0..grad_out.rows() {
            for (gb, &v) in grad_b.iter_mut().zip(grad_out.row(r)) {
                *gb += v;
            }
        }
        let mut grad_h = arena.take(grad_out.rows(), self.in_dim());
        grad_out.matmul_t_into(&self.w_self, &mut grad_h);
        let mut grad_w_self = arena.take(self.in_dim(), self.out_dim());
        h.t_matmul_into(&grad_out, &mut grad_w_self);
        let mut grad_w_fwd = Vec::with_capacity(self.w_fwd.len());
        let mut grad_w_rev = Vec::with_capacity(self.w_rev.len());
        let cap = max_active_rows(g, g.num_relations().min(self.w_fwd.len()));
        let mut bufs = BackwardBufs {
            agg: arena.take(cap, self.in_dim()),
            grad_out_rows: arena.take(cap, self.out_dim()),
            scratch: arena.take(h.rows(), self.in_dim()),
        };
        for r in 0..self.w_fwd.len() {
            let mut gf = arena.take(self.in_dim(), self.out_dim());
            let mut gr = arena.take(self.in_dim(), self.out_dim());
            if r < g.num_relations() {
                let adj = g.relation(Rid(r as u32));
                let (inc, out) = (&adj.inc, &adj.out);
                direction_backward((inc, out), h, &self.w_fwd[r], &grad_out, &mut grad_h, &mut gf, &mut bufs);
                direction_backward((out, inc), h, &self.w_rev[r], &grad_out, &mut grad_h, &mut gr, &mut bufs);
            }
            grad_w_fwd.push(gf);
            grad_w_rev.push(gr);
        }
        arena.put(bufs.agg);
        arena.put(bufs.grad_out_rows);
        arena.put(bufs.scratch);
        arena.put(grad_out);
        (
            grad_h,
            RgcnGrads {
                w_fwd: grad_w_fwd,
                w_rev: grad_w_rev,
                w_self: grad_w_self,
                b: grad_b,
            },
        )
    }
}

/// Returns every matrix in `grads` to `arena` (after an optimizer step).
pub fn recycle_rgcn_grads(grads: RgcnGrads, arena: &mut ScratchArena) {
    for m in grads.w_fwd {
        arena.put(m);
    }
    for m in grads.w_rev {
        arena.put(m);
    }
    arena.put(grads.w_self);
}

/// Per-neighbour weighting of a strip accumulation.
enum StripWeight<'a> {
    /// One weight for every neighbour (`mean_aggregate`'s `1/|N_i|`).
    Uniform(f32),
    /// `1/deg(j)` looked up per neighbour in `csr` (the gather backward).
    InvDegree(&'a Csr),
}

impl StripWeight<'_> {
    #[inline(always)]
    fn weight(&self, j: u32) -> f32 {
        match self {
            StripWeight::Uniform(w) => *w,
            StripWeight::InvDegree(csr) => 1.0 / csr.degree(Vid(j)) as f32,
        }
    }
}

/// Prefetch distance in neighbours: while neighbour `i`'s row is being
/// accumulated, the line(s) of neighbour `i + PF_DIST`'s row are requested.
/// The gather over `h` is the kernel's real cost — rows land at random in
/// a matrix far larger than L1/L2 — and the future indices are sitting in
/// the CSR neighbour list, so the misses can be overlapped explicitly.
const PF_DIST: usize = 16;

/// Hints the cache to fetch `bytes` bytes starting at `row[col]`.
/// A pure latency hint: prefetch has no architectural effect, so the
/// bit-determinism contract is untouched (and non-x86 builds compile it
/// out entirely).
#[inline(always)]
fn prefetch_span(h: &Matrix, j: u32, col: usize, bytes: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        let row = h.row(j as usize);
        let base = unsafe { row.as_ptr().add(col) } as *const i8;
        let mut off = 0usize;
        while off < bytes {
            // SAFETY: prefetch never faults; the address is derived from a
            // valid in-bounds row pointer.
            unsafe { std::arch::x86_64::_mm_prefetch(base.add(off), std::arch::x86_64::_MM_HINT_T0) };
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (h, j, col, bytes);
    }
}

/// `dst += Σ_j w(j) · h[j]` over `nbrs`, accumulated in register-blocked
/// strips over the feature dimension: 32-wide (4 × [`F32x8`]) strips, then
/// an 8-wide strip, then a scalar tail. Within a strip the accumulators
/// live in registers across the whole neighbour walk, so each `dst`
/// element is loaded/stored once instead of once per neighbour, and the
/// next neighbours' rows are prefetched [`PF_DIST`] ahead.
///
/// Bit-determinism: each output element still accumulates sequentially in
/// CSR neighbour order with unfused multiply-add — the exact order of the
/// scalar reference loop — so strips of any width produce identical bits.
/// `fresh` skips loading `dst` (caller guarantees it is zero).
#[inline(always)]
fn accum_row_impl(dst: &mut [f32], h: &Matrix, nbrs: &[u32], w: &StripWeight<'_>, fresh: bool) {
    let d = dst.len();
    let mut col = 0;
    // 64-wide strip (8 accumulators): one pass over the neighbour list
    // covers a full d=64 feature row, so each gathered row is touched
    // exactly once and the whole row is prefetched ahead.
    while col + 64 <= d {
        let mut acc = [F32x8::ZERO; 8];
        if !fresh {
            for (l, a) in acc.iter_mut().enumerate() {
                *a = F32x8::load(&dst[col + l * 8..]);
            }
        }
        for (i, &j) in nbrs.iter().enumerate() {
            if let Some(&jn) = nbrs.get(i + PF_DIST) {
                // First + last line of the strip: the hardware adjacent-line
                // prefetcher fills the middle, and two hint μops per
                // neighbour don't crowd the load ports the way four would.
                prefetch_span(h, jn, col, 64);
                prefetch_span(h, jn, col + 48, 64);
            }
            let src = &h.row(j as usize)[col..col + 64];
            let v = F32x8::splat(w.weight(j));
            for (l, a) in acc.iter_mut().enumerate() {
                *a = F32x8::load(&src[l * 8..]).madd(v, *a);
            }
        }
        for (l, a) in acc.iter().enumerate() {
            a.store(&mut dst[col + l * 8..]);
        }
        col += 64;
    }
    while col + 32 <= d {
        let (mut c0, mut c1, mut c2, mut c3) = (F32x8::ZERO, F32x8::ZERO, F32x8::ZERO, F32x8::ZERO);
        if !fresh {
            let s = &dst[col..col + 32];
            c0 = F32x8::load(&s[..8]);
            c1 = F32x8::load(&s[8..16]);
            c2 = F32x8::load(&s[16..24]);
            c3 = F32x8::load(&s[24..32]);
        }
        for (i, &j) in nbrs.iter().enumerate() {
            if let Some(&jn) = nbrs.get(i + PF_DIST) {
                prefetch_span(h, jn, col, 32 * 4);
            }
            let src = &h.row(j as usize)[col..col + 32];
            let v = F32x8::splat(w.weight(j));
            c0 = F32x8::load(&src[..8]).madd(v, c0);
            c1 = F32x8::load(&src[8..16]).madd(v, c1);
            c2 = F32x8::load(&src[16..24]).madd(v, c2);
            c3 = F32x8::load(&src[24..32]).madd(v, c3);
        }
        let s = &mut dst[col..col + 32];
        c0.store(&mut s[..8]);
        c1.store(&mut s[8..16]);
        c2.store(&mut s[16..24]);
        c3.store(&mut s[24..32]);
        col += 32;
    }
    while col + 8 <= d {
        let mut c = if fresh { F32x8::ZERO } else { F32x8::load(&dst[col..col + 8]) };
        for (i, &j) in nbrs.iter().enumerate() {
            if let Some(&jn) = nbrs.get(i + PF_DIST) {
                prefetch_span(h, jn, col, 8 * 4);
            }
            let src = &h.row(j as usize)[col..col + 8];
            c = F32x8::load(src).madd(F32x8::splat(w.weight(j)), c);
        }
        c.store(&mut dst[col..col + 8]);
        col += 8;
    }
    // Scalar tail: written as `a * b + s` (not `+=`) because this exact
    // unfused shape is the reduction-order contract the strips above match.
    #[allow(clippy::needless_range_loop, clippy::assign_op_pattern)]
    for k in col..d {
        let mut s = if fresh { 0.0 } else { dst[k] };
        for &j in nbrs {
            s = h.row(j as usize)[k] * w.weight(j) + s;
        }
        dst[k] = s;
    }
}

fn accum_row_portable(dst: &mut [f32], h: &Matrix, nbrs: &[u32], w: &StripWeight<'_>, fresh: bool) {
    accum_row_impl(dst, h, nbrs, w, fresh);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accum_row_avx2(
    dst: &mut [f32],
    h: &Matrix,
    nbrs: &[u32],
    w: &StripWeight<'_>,
    fresh: bool,
) {
    accum_row_impl(dst, h, nbrs, w, fresh);
}

#[inline]
fn accum_row(
    level: SimdLevel,
    dst: &mut [f32],
    h: &Matrix,
    nbrs: &[u32],
    w: &StripWeight<'_>,
    fresh: bool,
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only resolved when `avx2_supported()` is true.
        SimdLevel::Avx2 => unsafe { accum_row_avx2(dst, h, nbrs, w, fresh) },
        _ => accum_row_portable(dst, h, nbrs, w, fresh),
    }
}

/// Rows per parallel chunk for a kernel that walks `csr` once over `rows`
/// output rows: the real per-row cost is `(avg_degree + 1)·d`, not the dense
/// `d` — sizing chunks by the dense row cost makes sparse TOSG aggregations
/// cut far too many chunks (and spin up workers) for the work they actually
/// contain.
fn csr_chunk_rows(csr: &Csr, rows: usize, d: usize) -> usize {
    gather_chunk_rows(csr.num_edges(), rows, d)
}

/// [`csr_chunk_rows`] for a gather of `edges` neighbour rows into `rows`
/// output rows.
fn gather_chunk_rows(edges: usize, rows: usize, d: usize) -> usize {
    let avg_deg = edges / rows.max(1);
    kgtosa_par::chunk_rows((avg_deg + 1).saturating_mul(d))
}

/// `out[i] = mean_{j ∈ csr(i)} h[j]` (zero when `i` has no neighbours).
///
/// Public because SeHGNN's one-shot metapath pre-aggregation reuses it.
/// Row-blocked parallel: every output row is a pure gather over `h`, so
/// each worker owns a disjoint band of rows and the result is bit-identical
/// to the serial loop at any thread count. Rows accumulate in
/// register-blocked strips over the feature dimension ([`accum_row_impl`]).
pub fn mean_aggregate(csr: &Csr, h: &Matrix, out: &mut Matrix) {
    out.fill_zero();
    let d = h.cols();
    let level = simd_level();
    let block = csr_chunk_rows(csr, csr.num_nodes(), d);
    let pool = Pool::for_work(csr.num_edges().saturating_mul(d));
    pool.par_chunks_mut("nn.mean_aggregate", out.data_mut(), block * d, |ci, band| {
        for (off, out_row) in band.chunks_mut(d).enumerate() {
            let i = ci * block + off;
            if i >= csr.num_nodes() {
                continue;
            }
            let nbrs = csr.neighbors(Vid(i as u32));
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            accum_row(level, out_row, h, nbrs, &StripWeight::Uniform(inv), true);
        }
    });
}

/// The most active rows any direction of the first `relations` relations
/// has. A layer call takes its compact operands from the arena **once**, at
/// this row count, and re-views them per relation ([`Matrix::resize_rows`]
/// within capacity): a take per relation would zero-fill and search the
/// pool 2|R| times per call, for buffers whose every row is overwritten
/// anyway.
fn max_active_rows(g: &HeteroGraph, relations: usize) -> usize {
    (0..relations)
        .map(|r| {
            let adj = g.relation(Rid(r as u32));
            adj.inc.active_rows().len().max(adj.out.active_rows().len())
        })
        .max()
        .unwrap_or(0)
}

/// `agg[k] = mean_{j ∈ csr(i)} h[j]` for `i = csr.active_rows()[k]` —
/// [`mean_aggregate`] without the rows that have nothing to average, same
/// strips, same single-writer row blocks (cut by the compact shape). `agg`
/// is re-viewed to one row per active row and every row is overwritten.
fn mean_aggregate_active(csr: &Csr, h: &Matrix, agg: &mut Matrix) {
    let act = csr.active_rows();
    agg.resize_rows(act.len());
    let d = h.cols();
    let level = simd_level();
    let block = csr_chunk_rows(csr, act.len(), d);
    let pool = Pool::for_work(csr.num_edges().saturating_mul(d));
    pool.par_chunks_mut("nn.mean_aggregate", agg.data_mut(), block * d, |ci, band| {
        for (row, &i) in band.chunks_mut(d).zip(&act[ci * block..]) {
            let nbrs = csr.neighbors(Vid(i));
            let inv = 1.0 / nbrs.len() as f32;
            accum_row(level, row, h, nbrs, &StripWeight::Uniform(inv), true);
        }
    });
}

/// What one relation direction contributes to a rows-restricted forward
/// ([`RgcnLayer::forward_rows_arena`]): the requested rows it reaches and the
/// input rows each averages. One value serves a whole call; its buffers are
/// refilled per direction.
#[derive(Default)]
struct ReachedRows {
    /// Positions in the request (= compact output rows) with a neighbour.
    rows: Vec<u32>,
    /// `nbrs[starts[i]..starts[i + 1]]` are the rows of the input matrix
    /// that `rows[i]` averages, in CSR neighbour order.
    starts: Vec<u32>,
    nbrs: Vec<u32>,
}

impl ReachedRows {
    /// Refills `self` for `csr` over the requested vertices (`pos` inverts
    /// `request`, see [`RgcnLayer::forward_rows_arena`]), walking whichever
    /// of the request and `csr`'s active rows is shorter; `at` maps a vertex
    /// to its row of the input matrix.
    fn select(&mut self, csr: &Csr, request: &[u32], pos: &[u32], at: impl Fn(u32) -> u32) {
        self.rows.clear();
        self.nbrs.clear();
        self.starts.clear();
        self.starts.push(0);
        let mut reach = |k: u32, nbrs: &[u32]| {
            self.rows.push(k);
            self.nbrs.extend(nbrs.iter().map(|&j| at(j)));
            self.starts.push(self.nbrs.len() as u32);
        };
        if csr.active_rows().len() < request.len() {
            for &v in csr.active_rows() {
                let k = pos[v as usize];
                if (k as usize) < request.len() {
                    reach(k, csr.neighbors(Vid(v)));
                }
            }
        } else {
            for (k, &v) in request.iter().enumerate() {
                let nbrs = csr.neighbors(Vid(v));
                if !nbrs.is_empty() {
                    reach(k as u32, nbrs);
                }
            }
        }
    }

    /// `agg[i] = mean_j h[j]` over the input rows `rows[i]` averages —
    /// [`mean_aggregate_active`] for the reached rows: same strips, same
    /// neighbour order, single-writer row blocks cut by the compact shape.
    fn mean_aggregate(&self, h: &Matrix, agg: &mut Matrix) {
        agg.resize_rows(self.rows.len());
        let d = h.cols();
        let level = simd_level();
        let block = gather_chunk_rows(self.nbrs.len(), self.rows.len(), d);
        let pool = Pool::for_work(self.nbrs.len().saturating_mul(d));
        pool.par_chunks_mut("nn.mean_aggregate", agg.data_mut(), block * d, |ci, band| {
            for (row, span) in band.chunks_mut(d).zip(self.starts[ci * block..].windows(2)) {
                let nbrs = &self.nbrs[span[0] as usize..span[1] as usize];
                let inv = 1.0 / nbrs.len() as f32;
                accum_row(level, row, h, nbrs, &StripWeight::Uniform(inv), true);
            }
        });
    }
}

/// `dst[ids[k]] = src[k]`: puts gathered rows back
/// ([`Matrix::gather_rows_into`]'s inverse).
fn scatter_rows(src: &Matrix, ids: &[u32], dst: &mut Matrix) {
    for (k, &i) in ids.iter().enumerate() {
        dst.row_mut(i as usize).copy_from_slice(src.row(k));
    }
}

/// Scratch of one backward call (see [`max_active_rows`]). The first two
/// are compact: row `k` stands for the current direction's `k`-th active
/// row.
struct BackwardBufs {
    /// The recomputed aggregate; once `grad_w` has consumed it, the product
    /// `grad_out_rows · Wᵀ` (same shape).
    agg: Matrix,
    /// `grad_out`'s active rows.
    grad_out_rows: Matrix,
    /// That product scattered to one row per vertex, where the gather over
    /// `csr_t` looks rows up by vertex id. Only the current direction's
    /// active rows are ever read, so stale rows are harmless.
    scratch: Matrix,
}

/// Backward through one direction of one relation:
/// * `grad_w = aggᵀ · grad_out` over the active rows (agg recomputed; an
///   inactive row's aggregate is zero and adds nothing),
/// * `grad_h += Âᵀ · (grad_out · Wᵀ)`, accumulated in **gather form** over
///   the transpose adjacency `csr_t` so each `grad_h` row is written by
///   exactly one worker (deterministic row-blocked parallelism; the
///   scatter form would race on shared rows). The gather reads row `i` of
///   the product only for `i` with neighbours in `csr`: the active rows.
fn direction_backward(
    (csr, csr_t): (&Csr, &Csr),
    h: &Matrix,
    w: &Matrix,
    grad_out: &Matrix,
    grad_h: &mut Matrix,
    grad_w: &mut Matrix,
    bufs: &mut BackwardBufs,
) {
    let act = csr.active_rows();
    if act.is_empty() {
        return;
    }
    mean_aggregate_active(csr, h, &mut bufs.agg);
    bufs.grad_out_rows.resize_rows(act.len());
    grad_out.gather_rows_into(act, &mut bufs.grad_out_rows);
    bufs.agg.t_matmul_rows_into(act, &bufs.grad_out_rows, grad_w);
    bufs.grad_out_rows.matmul_t_into(w, &mut bufs.agg);
    scatter_rows(&bufs.agg, act, &mut bufs.scratch);
    mean_backward_gather(csr, csr_t, &bufs.scratch, grad_h);
}

/// `grad_h[j] += Σ_{i : j ∈ N_i} (1/|N_i|) · scratch[i]` — the backward of
/// [`mean_aggregate`], in gather form over the transpose adjacency `csr_t`
/// (the i's with `j ∈ csr(i)` are exactly the neighbours of `j` in `csr_t`)
/// so each `grad_h` row has a single writer and row-blocked parallelism is
/// deterministic. Within its band of `grad_h` a worker visits only
/// `csr_t`'s active rows. Shared with the basis-decomposition layer.
pub(crate) fn mean_backward_gather(csr: &Csr, csr_t: &Csr, scratch: &Matrix, grad_h: &mut Matrix) {
    let d = scratch.cols();
    let level = simd_level();
    let block = csr_chunk_rows(csr_t, csr_t.num_nodes(), d);
    let act = csr_t.active_rows();
    let pool = Pool::for_work(csr.num_edges().saturating_mul(d));
    pool.par_chunks_mut("nn.rgcn.grad_h", grad_h.data_mut(), block * d, |ci, band| {
        let lo = ci * block;
        let first = act.partition_point(|&j| (j as usize) < lo);
        for &j in act[first..].iter().take_while(|&&j| (j as usize) < lo + block) {
            let dst = &mut band[(j as usize - lo) * d..][..d];
            let nbrs = csr_t.neighbors(Vid(j));
            accum_row(level, dst, scratch, nbrs, &StripWeight::InvDegree(csr), false);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_graph() -> HeteroGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a", "A", "r0", "b", "B");
        kg.add_triple_terms("a", "A", "r0", "c", "B");
        kg.add_triple_terms("b", "B", "r1", "c", "B");
        HeteroGraph::build(&kg)
    }

    #[test]
    fn forward_shapes() {
        let g = tiny_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = RgcnLayer::new(g.num_relations(), 4, 3, true, &mut rng);
        let h = xavier_uniform(g.num_nodes(), 4, &mut rng);
        let (out, _) = layer.forward(&g, &h);
        assert_eq!(out.shape(), (3, 3));
    }

    #[test]
    fn mean_aggregate_is_mean() {
        let g = tiny_graph();
        // Node c (id 2) has incoming r0 from a: inc CSR of r0.
        let h = Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]);
        let mut out = Matrix::zeros(3, 1);
        mean_aggregate(&g.relation(Rid(0)).inc, &h, &mut out);
        // b (1) ← a; c (2) ← a.
        assert_eq!(out.get(1, 0), 10.0);
        assert_eq!(out.get(2, 0), 10.0);
        assert_eq!(out.get(0, 0), 0.0);
        // Outgoing of r0: a → {b, c} mean = 25.
        mean_aggregate(&g.relation(Rid(0)).out, &h, &mut out);
        assert_eq!(out.get(0, 0), 25.0);
    }

    #[test]
    fn param_count_scales_with_relations() {
        let mut rng = StdRng::seed_from_u64(0);
        let small = RgcnLayer::new(2, 8, 8, false, &mut rng);
        let large = RgcnLayer::new(10, 8, 8, false, &mut rng);
        assert!(large.param_count() > small.param_count());
        assert_eq!(
            large.param_count(),
            10 * 2 * 64 + 64 + 8 // relations*2 dirs*8*8 + self + bias
        );
    }

    /// Full finite-difference check of every parameter and the input.
    #[test]
    fn backward_matches_finite_difference() {
        let g = tiny_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let layer = RgcnLayer::new(g.num_relations(), 3, 2, true, &mut rng);
        let h = xavier_uniform(g.num_nodes(), 3, &mut rng);

        let loss = |l: &RgcnLayer, h: &Matrix| -> f32 {
            let (out, _) = l.forward(g_ref(), h);
            out.data().iter().map(|&v| v * v).sum()
        };
        // A fresh graph per call (cheap) to avoid borrow gymnastics.
        fn g_ref() -> &'static HeteroGraph {
            use std::sync::OnceLock;
            static G: OnceLock<HeteroGraph> = OnceLock::new();
            G.get_or_init(tiny_graph)
        }

        let (out, cache) = layer.forward(g_ref(), &h);
        let mut grad_out = out.clone();
        grad_out.scale(2.0); // d(sum v²)/dv = 2v
        let (grad_h, grads) = layer.backward(g_ref(), &h, &cache, grad_out);

        let eps = 1e-2f32;
        let check = |analytic: f32, num: f32, what: &str| {
            let tol = 2e-2 * (1.0 + num.abs());
            assert!(
                (analytic - num).abs() < tol,
                "{what}: analytic {analytic} vs numeric {num}"
            );
        };
        // Input gradient.
        for r in 0..h.rows() {
            for c in 0..h.cols() {
                let mut hp = h.clone();
                hp.set(r, c, h.get(r, c) + eps);
                let mut hm = h.clone();
                hm.set(r, c, h.get(r, c) - eps);
                let num = (loss(&layer, &hp) - loss(&layer, &hm)) / (2.0 * eps);
                check(grad_h.get(r, c), num, "grad_h");
            }
        }
        // Self-loop weight gradient.
        for r in 0..layer.w_self.rows() {
            for c in 0..layer.w_self.cols() {
                let mut lp = layer.clone();
                lp.w_self.set(r, c, layer.w_self.get(r, c) + eps);
                let mut lm = layer.clone();
                lm.w_self.set(r, c, layer.w_self.get(r, c) - eps);
                let num = (loss(&lp, &h) - loss(&lm, &h)) / (2.0 * eps);
                check(grads.w_self.get(r, c), num, "w_self");
            }
        }
        // One relation weight each way.
        for rel in 0..layer.w_fwd.len() {
            let mut lp = layer.clone();
            lp.w_fwd[rel].set(0, 0, layer.w_fwd[rel].get(0, 0) + eps);
            let mut lm = layer.clone();
            lm.w_fwd[rel].set(0, 0, layer.w_fwd[rel].get(0, 0) - eps);
            let num = (loss(&lp, &h) - loss(&lm, &h)) / (2.0 * eps);
            check(grads.w_fwd[rel].get(0, 0), num, "w_fwd");

            let mut lp = layer.clone();
            lp.w_rev[rel].set(1, 1, layer.w_rev[rel].get(1, 1) + eps);
            let mut lm = layer.clone();
            lm.w_rev[rel].set(1, 1, layer.w_rev[rel].get(1, 1) - eps);
            let num = (loss(&lp, &h) - loss(&lm, &h)) / (2.0 * eps);
            check(grads.w_rev[rel].get(1, 1), num, "w_rev");
        }
        // Bias gradient.
        for c in 0..layer.b.len() {
            let mut lp = layer.clone();
            lp.b[c] += eps;
            let mut lm = layer.clone();
            lm.b[c] -= eps;
            let num = (loss(&lp, &h) - loss(&lm, &h)) / (2.0 * eps);
            check(grads.b[c], num, "bias");
        }
    }
}

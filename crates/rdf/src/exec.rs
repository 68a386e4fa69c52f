//! BGP execution: planning, nested-index-loop joins, UNION, pagination.
//!
//! The executor follows how lightweight RDF engines answer basic graph
//! patterns over a hexastore:
//!
//! 1. constants are resolved against the term dictionaries once,
//! 2. triple patterns are greedily reordered — most-bound / most-selective
//!    first, using `O(log m)` index counts as the cardinality estimate,
//! 3. each pattern is joined by an index range scan per intermediate row,
//! 4. `UNION` branches are evaluated per-row and concatenated (bag
//!    semantics),
//! 5. under `DISTINCT`, a variable dies once no pattern, `FILTER` or
//!    `UNION` still to be applied mentions it and it is not projected; the
//!    join loop unbinds it as soon as it dies and drops the rows that then
//!    repeat (early projection: a semi-join, as in Yannakakis). A group of
//!    triple patterns only is then already a set over its projection —
//!    the hexastore holds each triple once — so only a group with a
//!    `UNION` or `FILTER` sorts its projected rows at the end. Queries
//!    without `DISTINCT` keep every binding, and so their multiplicities.
//!    Both dedups sort the rows lexicographically by the columns that vary
//!    only — a just-unbound column is `NULL_ID` in every row — with an LSD
//!    radix that skips every 11-bit digit on which all rows agree, then
//!    drop adjacent repeats: linear in the rows for ids of bounded spread.
//!
//! That is `SparqlEngine::solve`; `OFFSET` / `LIMIT` are a separate slice of
//! its answer (`Solved::page`), so the endpoint, which holds on to a
//! `Solved`, serves every page of a query from one evaluation.

use crate::ast::{CompareOp, Constraint, Element, Group, Query, Selection, Term, TriplePattern};
use crate::error::RdfError;
use crate::hexastore::{digit, BUCKETS, DIGITS};
use crate::store::RdfStore;

/// Sentinel id representing an unbound (`NULL`) cell in a result row.
pub const NULL_ID: u32 = u32::MAX;

/// A table of query solutions. Rows are flat `u32` cells, `width` per row,
/// with [`NULL_ID`] marking unbound variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// Projected variable names, in column order.
    pub vars: Vec<String>,
    /// Per-column flag: the variable was bound in predicate position, so
    /// its ids decode in the relation space rather than the node space.
    pred_cols: Vec<bool>,
    width: usize,
    data: Vec<u32>,
}

impl ResultSet {
    fn new(vars: Vec<String>) -> Self {
        let width = vars.len();
        Self {
            pred_cols: vec![false; width],
            vars,
            width,
            data: Vec::new(),
        }
    }

    /// An empty result set over the given columns — the shape a mock or
    /// remote endpoint returns when a query has no solutions.
    pub fn with_vars(vars: Vec<String>) -> Self {
        Self::new(vars)
    }

    /// The one-row, one-column answer of a `COUNT` query.
    pub(crate) fn count_answer(solutions: usize) -> Self {
        let mut rs = Self::new(vec!["count".to_string()]);
        rs.data.push(solutions as u32);
        rs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Row accessor.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// Approximate heap footprint in bytes, for cache budget accounting:
    /// the cell table plus per-column metadata.
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
            + self.pred_cols.len()
            + self.vars.iter().map(|v| v.len() + 24).sum::<usize>()
    }

    /// Whether a column's ids live in the predicate space.
    pub fn is_predicate_col(&self, col: usize) -> bool {
        self.pred_cols.get(col).copied().unwrap_or(false)
    }

    /// Renders a row's terms for debugging/reporting, decoding each column
    /// in its id space (node vs predicate).
    pub fn row_terms<'a>(&'a self, store: &'a RdfStore<'_>, i: usize) -> Vec<&'a str> {
        self.row(i)
            .iter()
            .enumerate()
            .map(|(col, &id)| {
                if id == NULL_ID {
                    ""
                } else if self.is_predicate_col(col) {
                    store.pred_term_str(id)
                } else {
                    store.node_term_str(id)
                }
            })
            .collect()
    }
}

/// A query's whole answer, its `LIMIT`/`OFFSET` ignored: what
/// [`SparqlEngine::solve`] returns and every page is sliced from.
#[derive(Debug)]
pub(crate) struct Solved {
    /// Every projected row (deduplicated under `DISTINCT`).
    rows: ResultSet,
    /// The number of rows the query's pages hold together: the group's
    /// solutions, deduplicated under `DISTINCT`. Differs from `rows.len()`
    /// only for zero-width projections.
    solutions: usize,
}

impl Solved {
    /// Number of rows the query's pages return together (`getGraphSize`):
    /// the solutions of its group, after `DISTINCT`.
    pub(crate) fn solutions(&self) -> usize {
        self.solutions
    }

    /// Rows `query`'s `OFFSET`/`LIMIT` select (`COUNT` answers are not
    /// paged), and whether that range reaches the end of the answer.
    fn page_range(&self, query: &Query) -> (std::ops::Range<usize>, bool) {
        let len = self.rows.len();
        if matches!(query.select, Selection::Count) {
            return (0..len, true);
        }
        let offset = query.offset.unwrap_or(0).min(len);
        let limit = query.limit.unwrap_or(usize::MAX);
        let keep = (len - offset).min(limit);
        (offset..offset + keep, keep < limit)
    }

    /// Whether `query`'s page is the last one: it returns fewer rows than
    /// its `LIMIT`, which is how a pagination loop learns it is done.
    pub(crate) fn is_last_page(&self, query: &Query) -> bool {
        self.page_range(query).1
    }

    /// Copies out the page `query`'s `OFFSET`/`LIMIT` select.
    pub(crate) fn page(&self, query: &Query) -> ResultSet {
        let (range, _) = self.page_range(query);
        let width = self.rows.width;
        ResultSet {
            vars: self.rows.vars.clone(),
            pred_cols: self.rows.pred_cols.clone(),
            width,
            data: self.rows.data[range.start * width..range.end * width].to_vec(),
        }
    }

    /// [`Solved::page`] by value: a page that is the whole answer is moved
    /// out, not copied.
    pub(crate) fn into_page(self, query: &Query) -> ResultSet {
        if self.page_range(query).0 == (0..self.rows.len()) {
            self.rows
        } else {
            self.page(query)
        }
    }
}

/// Flat intermediate binding table used during evaluation. The row count
/// is tracked explicitly so zero-width tables (queries without variables)
/// still represent "one empty solution" correctly.
struct Rows {
    width: usize,
    count: usize,
    data: Vec<u32>,
}

impl Rows {
    fn single_empty(width: usize) -> Self {
        Self {
            width,
            count: 1,
            data: vec![NULL_ID; width],
        }
    }

    fn empty(width: usize) -> Self {
        Self {
            width,
            count: 0,
            data: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.count
    }

    fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
        self.count += 1;
    }

    /// Unbinds the `dead` columns in every row and drops the rows that
    /// then repeat.
    fn project_away(&mut self, dead: &[usize]) {
        for row in self.data.chunks_exact_mut(self.width) {
            for &col in dead {
                row[col] = NULL_ID;
            }
        }
        self.count = sort_dedup(&mut self.data, self.width);
    }

    fn view(&self) -> RowsView<'_> {
        RowsView {
            data: &self.data,
            width: self.width,
            remaining: self.count,
        }
    }
}

/// Sorts the `width`-cell rows of `data` lexicographically, removes
/// repeated rows and returns how many remain. `width` must be positive.
///
/// A column on which every row agrees orders nothing — the [`NULL_ID`]s
/// of projected-away variables, a column the input row bound — so only
/// the varying columns are sorted: they are packed to the front of each
/// row in place, sorted by an LSD radix that skips every digit on which
/// all rows agree, deduplicated, and spread back out around the constant
/// cells. `O(rows × varying digits)`, in `data`'s own buffer plus one
/// buffer of the varying cells.
fn sort_dedup(data: &mut Vec<u32>, width: usize) -> usize {
    debug_assert_eq!(data.len() % width, 0);
    let n = data.len() / width;
    if n < 2 {
        return n;
    }
    // The first row; its constant cells are every row's.
    let mut row = data[..width].to_vec();
    // The bits of each column on which some row differs from the first.
    let mut spread = vec![0u32; width];
    for r in data.chunks_exact(width) {
        for ((s, &v), &f) in spread.iter_mut().zip(r).zip(&row) {
            *s |= v ^ f;
        }
    }
    let varying: Vec<usize> = (0..width).filter(|&c| spread[c] != 0).collect();
    let k = varying.len();
    if k == 0 {
        data.truncate(width);
        return 1;
    }
    // Least significant first: the last varying column's low digit.
    let passes: Vec<(usize, usize)> = varying
        .iter()
        .enumerate()
        .rev()
        .flat_map(|(j, &c)| {
            let bits = spread[c];
            (0..DIGITS)
                .filter(move |&d| digit(bits, d) != 0)
                .map(move |d| (j, d))
        })
        .collect();

    // Pack each row's varying cells to the front: row `i`'s `j`-th one
    // moves to `i * k + j`, never past a cell still to be read.
    for i in 0..n {
        for (j, &c) in varying.iter().enumerate() {
            data[i * k + j] = data[i * width + c];
        }
    }
    data.truncate(n * k);
    // Ping-pong between `data` and `keys`, starting so the last pass
    // writes into `data`.
    let mut keys = Vec::with_capacity(n * k);
    let (mut from, mut to) = if passes.len() % 2 == 1 {
        keys.extend_from_slice(data);
        (&mut keys, &mut *data)
    } else {
        keys.resize(n * k, 0);
        (&mut *data, &mut keys)
    };
    for &(j, d) in &passes {
        radix_pass(from, to, k, j, d);
        std::mem::swap(&mut from, &mut to);
    }
    drop(keys);

    let mut m = 1;
    for i in 1..n {
        let (kept, row_i) = (&data[(m - 1) * k..m * k], &data[i * k..(i + 1) * k]);
        if kept.iter().zip(row_i).any(|(a, b)| a != b) {
            data.copy_within(i * k..(i + 1) * k, m * k);
            m += 1;
        }
    }
    // Spread the rows back out, last first: row `i` moves from `i * k` to
    // `i * width`, over cells already read.
    data.resize(m * width, 0);
    for i in (0..m).rev() {
        for (j, &c) in varying.iter().enumerate() {
            row[c] = data[i * k + j];
        }
        data[i * width..(i + 1) * width].copy_from_slice(&row);
    }
    if m < n {
        // Give the dropped rows' memory back before the next join, into a
        // fresh buffer: shrinking in place can return pages to the system
        // that the next query's buffers then fault back in.
        *data = data.to_vec();
    }
    m
}

/// One stable counting-sort pass over `k`-cell rows: scatters `src` into
/// `dst` by digit `d` of cell `j`.
fn radix_pass(src: &[u32], dst: &mut [u32], k: usize, j: usize, d: usize) {
    let mut offsets = [0usize; BUCKETS];
    for r in src.chunks_exact(k) {
        offsets[digit(r[j], d)] += 1;
    }
    let mut next = 0;
    for slot in offsets.iter_mut() {
        let count = *slot;
        *slot = next;
        next += count;
    }
    for r in src.chunks_exact(k) {
        let slot = &mut offsets[digit(r[j], d)];
        // Cell by cell: a row is a few cells, too short for a `memcpy` call.
        for (to, &v) in dst[*slot * k..(*slot + 1) * k].iter_mut().zip(r) {
            *to = v;
        }
        *slot += 1;
    }
}

/// A borrowed binding table — a whole [`Rows`] or a single row of one.
/// Iterating yields its rows and also handles the zero-width case.
#[derive(Clone)]
struct RowsView<'a> {
    data: &'a [u32],
    width: usize,
    remaining: usize,
}

impl<'a> RowsView<'a> {
    fn single(row: &'a [u32]) -> Self {
        Self {
            data: row,
            width: row.len(),
            remaining: 1,
        }
    }

    fn to_rows(&self) -> Rows {
        Rows {
            width: self.width,
            count: self.remaining,
            data: self.data.to_vec(),
        }
    }
}

impl<'a> Iterator for RowsView<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (row, rest) = self.data.split_at(self.width);
        self.data = rest;
        Some(row)
    }
}

/// One side of a compiled FILTER comparison.
enum FilterSide {
    /// A variable slot; `predicate` selects the id space it decodes in.
    Var { slot: usize, predicate: bool },
    /// A constant, pre-resolved in both id spaces.
    Const {
        node: Option<u32>,
        pred: Option<u32>,
        text: String,
    },
}

/// A compiled FILTER constraint.
struct CompiledFilter {
    left: FilterSide,
    op: CompareOp,
    right: FilterSide,
}

impl CompiledFilter {
    /// Evaluates the constraint against a binding row. Comparisons
    /// involving an unbound variable evaluate to false (SPARQL's
    /// error-means-excluded semantics).
    fn eval(&self, row: &[u32]) -> bool {
        let equal = match (&self.left, &self.right) {
            (FilterSide::Var { slot: a, .. }, FilterSide::Var { slot: b, .. }) => {
                if row[*a] == NULL_ID || row[*b] == NULL_ID {
                    return false;
                }
                Some(row[*a] == row[*b])
            }
            (FilterSide::Var { slot, predicate }, FilterSide::Const { node, pred, .. })
            | (FilterSide::Const { node, pred, .. }, FilterSide::Var { slot, predicate }) => {
                if row[*slot] == NULL_ID {
                    return false;
                }
                let resolved = if *predicate { *pred } else { *node };
                // An unresolvable constant cannot equal any bound value.
                Some(resolved == Some(row[*slot]))
            }
            (FilterSide::Const { text: a, .. }, FilterSide::Const { text: b, .. }) => {
                Some(a == b)
            }
        };
        match (equal, self.op) {
            (Some(eq), CompareOp::Eq) => eq,
            (Some(eq), CompareOp::Neq) => !eq,
            (None, _) => false,
        }
    }
}

/// A compiled pattern component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comp {
    /// Resolved constant id.
    Const(u32),
    /// Variable slot in the binding row.
    Var(usize),
    /// A constant term not present in the dictionary: matches nothing.
    Unresolvable,
}

#[derive(Debug, Clone, Copy)]
struct CompiledPattern {
    s: Comp,
    p: Comp,
    o: Comp,
}

impl CompiledPattern {
    /// The variable slots of the pattern, one per occurrence.
    fn var_slots(&self) -> impl Iterator<Item = usize> {
        [self.s, self.p, self.o]
            .into_iter()
            .filter_map(|c| match c {
                Comp::Var(i) => Some(i),
                _ => None,
            })
    }

    fn has_unresolvable(&self) -> bool {
        [self.s, self.p, self.o]
            .iter()
            .any(|c| matches!(c, Comp::Unresolvable))
    }
}

/// The query engine: borrows an [`RdfStore`] and evaluates parsed queries.
pub struct SparqlEngine<'s, 'kg> {
    store: &'s RdfStore<'kg>,
}

impl<'s, 'kg> SparqlEngine<'s, 'kg> {
    /// Creates an engine over a store.
    pub fn new(store: &'s RdfStore<'kg>) -> Self {
        Self { store }
    }

    /// Parses and executes a query string.
    pub fn execute_str(&self, query: &str) -> Result<ResultSet, RdfError> {
        let q = crate::parser::parse(query)?;
        self.execute(&q)
    }

    /// Executes a parsed query: one page of its answer.
    pub fn execute(&self, query: &Query) -> Result<ResultSet, RdfError> {
        Ok(self.solve(query)?.into_page(query))
    }

    /// Evaluates a parsed query in full — join, project, `DISTINCT` —
    /// ignoring its `LIMIT`/`OFFSET`.
    pub(crate) fn solve(&self, query: &Query) -> Result<Solved, RdfError> {
        // Assign every variable in the query (plus projected-only vars) a slot.
        let mut vars = query.group.variables();
        if let Selection::Vars(vs) = &query.select {
            for v in vs {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.clone());
                }
            }
        }
        let width = vars.len();
        let pred_vars = Self::predicate_vars(&query.group);
        let pred_flags: Vec<bool> = vars
            .iter()
            .map(|v| pred_vars.iter().any(|pv| pv == v))
            .collect();
        // The columns that outlive the group: under `DISTINCT` only the
        // projected ones; `COUNT(*)` and bag queries keep every binding.
        let keep: Vec<bool> = match (&query.select, query.distinct) {
            (Selection::Vars(vs), true) => vars.iter().map(|v| vs.contains(v)).collect(),
            _ => vec![true; width],
        };
        let seed = Rows::single_empty(width);
        let rows = self.eval_group(&query.group, seed.view(), &vars, &pred_flags, &keep)?;

        if let Selection::Count = query.select {
            return Ok(Solved {
                rows: ResultSet::count_answer(rows.len()),
                solutions: rows.len(),
            });
        }

        // Project.
        let proj: Vec<usize> = match &query.select {
            Selection::All => (0..width).collect(),
            Selection::Vars(vs) => vs
                .iter()
                .map(|v| vars.iter().position(|x| x == v).expect("added above"))
                .collect(),
            Selection::Count => unreachable!(),
        };
        let proj_vars: Vec<String> = proj.iter().map(|&i| vars[i].clone()).collect();
        let mut rs = ResultSet::new(proj_vars);
        rs.pred_cols = proj.iter().map(|&i| pred_flags[i]).collect();
        rs.data.reserve(rows.len() * proj.len());
        for row in rows.view() {
            for &i in &proj {
                rs.data.push(row[i]);
            }
        }

        // The join loop leaves a group of triple patterns a set already;
        // a `UNION` concatenates, and a `FILTER` keeps its columns bound
        // until it has run, so those groups dedup here.
        let patterns_only = query
            .group
            .elements
            .iter()
            .all(|el| matches!(el, Element::Pattern(_)));
        let solutions = if rs.width == 0 {
            rows.len()
        } else if query.distinct && !patterns_only {
            sort_dedup(&mut rs.data, rs.width)
        } else {
            rs.len()
        };
        Ok(Solved {
            rows: rs,
            solutions,
        })
    }

    /// Evaluates a group against every input row. `keep` marks the
    /// columns needed after the group; a bound column that neither `keep`
    /// nor an element still to be applied needs is dead, and is projected
    /// away as soon as the join loop finds it so.
    fn eval_group(
        &self,
        group: &Group,
        input: RowsView<'_>,
        vars: &[String],
        pred_flags: &[bool],
        keep: &[bool],
    ) -> Result<Rows, RdfError> {
        // Compile and split: joinable triple patterns, UNION elements, and
        // FILTER constraints (applied last, over the group's solutions).
        // `uses` counts, per column, `keep` and the elements that mention it.
        let slot = |v: &String| vars.iter().position(|x| x == v).expect("collected");
        let mut uses: Vec<usize> = keep.iter().map(|&k| usize::from(k)).collect();
        let mut patterns = Vec::new();
        let mut unions = Vec::new();
        let mut filters = Vec::new();
        for el in &group.elements {
            match el {
                Element::Pattern(tp) => {
                    let pattern = self.compile(tp, vars);
                    pattern.var_slots().for_each(|i| uses[i] += 1);
                    patterns.push(pattern);
                }
                Element::Union(branches) => {
                    let mut slots: Vec<usize> = branches
                        .iter()
                        .flat_map(Group::variables)
                        .map(|v| slot(&v))
                        .collect();
                    slots.sort_unstable();
                    slots.dedup();
                    slots.iter().for_each(|&i| uses[i] += 1);
                    unions.push((branches, slots));
                }
                Element::Filter(c) => {
                    for term in [&c.left, &c.right] {
                        if let Term::Var(v) = term {
                            uses[slot(v)] += 1;
                        }
                    }
                    filters.push(self.compile_filter(c, vars, pred_flags));
                }
            }
        }

        // The first join reads the borrowed input; only a group without
        // patterns has to copy it.
        let mut joined: Option<Rows> = None;
        // Greedy join order over the patterns.
        let mut remaining: Vec<CompiledPattern> = patterns;
        let mut bound = self.initially_bound(&input);
        while !remaining.is_empty() {
            let next = self.pick_next(&remaining, &bound);
            let pattern = remaining.swap_remove(next);
            let current = joined.as_ref().map_or(input.clone(), Rows::view);
            let mut rows = self.join_pattern(&pattern, current);
            for i in pattern.var_slots() {
                bound[i] = true;
                uses[i] -= 1;
            }
            if rows.len() == 0 {
                // Short-circuit: the join is already empty.
                return Ok(rows);
            }
            let dead: Vec<usize> = (0..rows.width)
                .filter(|&i| bound[i] && uses[i] == 0)
                .collect();
            if !dead.is_empty() {
                rows.project_away(&dead);
                for &i in &dead {
                    bound[i] = false;
                }
            }
            joined = Some(rows);
        }
        let mut rows = joined.unwrap_or_else(|| input.to_rows());

        // Apply unions: each input row fans out across branches, which
        // keep what the later unions and the filters still need.
        for (branches, slots) in unions {
            for i in slots {
                uses[i] -= 1;
            }
            let after: Vec<bool> = uses.iter().map(|&u| u > 0).collect();
            let mut out = Rows::empty(rows.width);
            for row in rows.view() {
                for branch in branches.iter() {
                    let produced =
                        self.eval_group(branch, RowsView::single(row), vars, pred_flags, &after)?;
                    out.count += produced.count;
                    out.data.extend_from_slice(&produced.data);
                }
            }
            rows = out;
        }

        // Apply filters.
        if !filters.is_empty() {
            let width = rows.width;
            let mut out = Rows::empty(width);
            'rows: for row in rows.view() {
                for f in &filters {
                    if !f.eval(row) {
                        continue 'rows;
                    }
                }
                out.push_row(row);
            }
            rows = out;
        }
        Ok(rows)
    }

    /// Compiles a FILTER constraint against the variable table.
    fn compile_filter(
        &self,
        c: &Constraint,
        vars: &[String],
        pred_flags: &[bool],
    ) -> CompiledFilter {
        let side = |t: &Term| -> FilterSide {
            match t {
                Term::Var(v) => {
                    let slot = vars.iter().position(|x| x == v).expect("collected");
                    FilterSide::Var {
                        slot,
                        predicate: pred_flags[slot],
                    }
                }
                Term::Const(text) => FilterSide::Const {
                    node: self.store.resolve_node_term(text),
                    pred: self.store.resolve_pred_term(text),
                    text: text.clone(),
                },
            }
        };
        CompiledFilter {
            left: side(&c.left),
            op: c.op,
            right: side(&c.right),
        }
    }

    fn initially_bound(&self, rows: &RowsView<'_>) -> Vec<bool> {
        // A var is considered bound for planning if it is bound in the first
        // input row (all rows share binding shape for our query forms).
        match rows.clone().next() {
            Some(row) => row.iter().map(|&v| v != NULL_ID).collect(),
            None => vec![false; rows.width],
        }
    }

    fn compile(&self, tp: &TriplePattern, vars: &[String]) -> CompiledPattern {
        let slot = |name: &str| vars.iter().position(|v| v == name).expect("collected");
        let comp_node = |t: &Term| match t {
            Term::Var(v) => Comp::Var(slot(v)),
            Term::Const(c) => self
                .store
                .resolve_node_term(c)
                .map_or(Comp::Unresolvable, Comp::Const),
        };
        let comp_pred = |t: &Term| match t {
            Term::Var(v) => Comp::Var(slot(v)),
            Term::Const(c) => self
                .store
                .resolve_pred_term(c)
                .map_or(Comp::Unresolvable, Comp::Const),
        };
        CompiledPattern {
            s: comp_node(&tp.s),
            p: comp_pred(&tp.p),
            o: comp_node(&tp.o),
        }
    }

    /// Greedy planner step: choose the remaining pattern with the most bound
    /// components, breaking ties with the hexastore's O(log m) count using
    /// constants only.
    fn pick_next(&self, remaining: &[CompiledPattern], bound: &[bool]) -> usize {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, usize::MAX);
        for (i, pat) in remaining.iter().enumerate() {
            let is_bound = |c: &Comp| match c {
                Comp::Const(_) | Comp::Unresolvable => true,
                Comp::Var(v) => bound[*v],
            };
            let unbound = [&pat.s, &pat.p, &pat.o]
                .iter()
                .filter(|c| !is_bound(c))
                .count();
            let const_of = |c: &Comp| match c {
                Comp::Const(id) => Some(*id),
                _ => None,
            };
            let estimate = if pat.has_unresolvable() {
                0
            } else {
                self.store.hexastore().count(
                    const_of(&pat.s),
                    const_of(&pat.p),
                    const_of(&pat.o),
                )
            };
            let key = (unbound, estimate);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Joins one pattern against all rows via index scans.
    fn join_pattern(&self, pat: &CompiledPattern, rows: RowsView<'_>) -> Rows {
        let mut out = Rows::empty(rows.width);
        if pat.has_unresolvable() {
            return out;
        }
        let hex = self.store.hexastore();
        for row in rows {
            let fix = |c: Comp| -> Option<u32> {
                match c {
                    Comp::Const(id) => Some(id),
                    Comp::Var(i) => (row[i] != NULL_ID).then_some(row[i]),
                    Comp::Unresolvable => unreachable!("checked above"),
                }
            };
            let (s, p, o) = (fix(pat.s), fix(pat.p), fix(pat.o));
            for [ts, tp, to] in hex.scan(s, p, o) {
                // Bind in place at the end of `out`; a mismatch on a
                // repeated variable takes the candidate row back off.
                let start = out.data.len();
                out.data.extend_from_slice(row);
                let new_row = &mut out.data[start..];
                if Self::bind(new_row, pat.s, ts)
                    && Self::bind(new_row, pat.p, tp)
                    && Self::bind(new_row, pat.o, to)
                {
                    out.count += 1;
                } else {
                    out.data.truncate(start);
                }
            }
        }
        out
    }

    /// Collects variables that appear in predicate position anywhere in the
/// group (including nested UNION branches).
fn predicate_vars(group: &Group) -> Vec<String> {
    fn walk(group: &Group, out: &mut Vec<String>) {
        for el in &group.elements {
            match el {
                Element::Pattern(tp) => {
                    if let Term::Var(v) = &tp.p {
                        if !out.iter().any(|x| x == v) {
                            out.push(v.clone());
                        }
                    }
                }
                Element::Union(branches) => {
                    for b in branches {
                        walk(b, out);
                    }
                }
                Element::Filter(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(group, &mut out);
    out
}

/// Binds a variable slot, verifying repeated-variable consistency.
    #[inline]
    fn bind(row: &mut [u32], comp: Comp, value: u32) -> bool {
        match comp {
            Comp::Var(i) => {
                if row[i] == NULL_ID {
                    row[i] = value;
                    true
                } else {
                    row[i] == value
                }
            }
            Comp::Const(c) => c == value,
            Comp::Unresolvable => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
        kg.add_triple_terms("a1", "Author", "writes", "p2", "Paper");
        kg.add_triple_terms("a2", "Author", "writes", "p2", "Paper");
        kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("p2", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("p1", "Paper", "cites", "p2", "Paper");
        kg
    }

    fn run(kg: &KnowledgeGraph, q: &str) -> ResultSet {
        let store = RdfStore::new(kg);
        let engine = SparqlEngine::new(&store);
        engine.execute_str(q).unwrap()
    }

    #[test]
    fn single_pattern_by_predicate() {
        let kg = kg();
        let rs = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o }");
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn type_anchored_star() {
        let kg = kg();
        let rs = run(&kg, "SELECT ?v ?p ?o WHERE { ?v a <Paper> . ?v ?p ?o }");
        // p1: publishedIn v1, cites p2, rdf:type Paper → 3
        // p2: publishedIn v1, rdf:type Paper → 2
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn join_two_hops() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT ?a ?v WHERE { ?a <writes> ?x . ?x <publishedIn> ?v }",
        );
        // a1→p1→v1, a1→p2→v1, a2→p2→v1
        assert_eq!(rs.len(), 3);
        let store = RdfStore::new(&kg);
        let terms = rs.row_terms(&store, 0);
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT DISTINCT ?v WHERE { ?a <writes> ?x . ?x <publishedIn> ?v }",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn union_concatenates() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT * WHERE { ?v a <Paper> . { ?v <publishedIn> ?o } UNION { ?i <cites> ?v } }",
        );
        // Branch 1: p1→v1, p2→v1. Branch 2: p1 cites p2 (v=p2).
        assert_eq!(rs.len(), 3);
        // Unbound cells are NULL.
        let o_col = rs.col("o").unwrap();
        let nulls = rs.rows().filter(|r| r[o_col] == NULL_ID).count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn limit_offset_paginate() {
        let kg = kg();
        let all = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o }");
        let page1 = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o } LIMIT 2 OFFSET 0");
        let page2 = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o } LIMIT 2 OFFSET 2");
        assert_eq!(page1.len(), 2);
        assert_eq!(page2.len(), 1);
        let mut merged: Vec<Vec<u32>> = page1
            .rows()
            .chain(page2.rows())
            .map(|r| r.to_vec())
            .collect();
        let mut expect: Vec<Vec<u32>> = all.rows().map(|r| r.to_vec()).collect();
        merged.sort();
        expect.sort();
        assert_eq!(merged, expect);
    }

    #[test]
    fn count_query() {
        let kg = kg();
        let rs = run(&kg, "SELECT (COUNT(*) AS ?c) WHERE { ?s <writes> ?o }");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.row(0)[0], 3);
    }

    #[test]
    fn unknown_constant_matches_nothing() {
        let kg = kg();
        let rs = run(&kg, "SELECT * WHERE { ?s <nonexistent> ?o }");
        assert!(rs.is_empty());
    }

    #[test]
    fn repeated_variable_must_match() {
        let mut kg = kg();
        // self-citation p3 cites p3
        let p3 = kg.add_node("p3", "Paper");
        let cites = kg.find_relation("cites").unwrap();
        kg.add_triple(p3, cites, p3);
        let rs = run(&kg, "SELECT ?x WHERE { ?x <cites> ?x }");
        assert_eq!(rs.len(), 1);
        let store = RdfStore::new(&kg);
        assert_eq!(rs.row_terms(&store, 0), vec!["p3"]);
    }

    #[test]
    fn projection_of_missing_var_is_null() {
        let kg = kg();
        let rs = run(&kg, "SELECT ?s ?ghost WHERE { ?s <cites> ?o }");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.row(0)[1], NULL_ID);
    }

    #[test]
    fn empty_group_yields_single_empty_row_projected() {
        let kg = kg();
        let rs = run(&kg, "SELECT (COUNT(*) AS ?c) WHERE { }");
        assert_eq!(rs.row(0)[0], 1);
    }

    #[test]
    fn filter_equality_with_constant() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT ?x ?v WHERE { ?x <publishedIn> ?v . FILTER (?x = <p1>) }",
        );
        assert_eq!(rs.len(), 1);
        let store = RdfStore::new(&kg);
        assert_eq!(rs.row_terms(&store, 0), vec!["p1", "v1"]);
    }

    #[test]
    fn filter_inequality_between_vars() {
        let kg = kg();
        // Pairs of papers in the same venue, excluding self-pairs.
        let all = run(
            &kg,
            "SELECT ?a ?b WHERE { ?a <publishedIn> ?v . ?b <publishedIn> ?v }",
        );
        let distinct_pairs = run(
            &kg,
            "SELECT ?a ?b WHERE { ?a <publishedIn> ?v . ?b <publishedIn> ?v . FILTER (?a != ?b) }",
        );
        assert_eq!(all.len(), 4); // (p1,p1),(p1,p2),(p2,p1),(p2,p2)
        assert_eq!(distinct_pairs.len(), 2);
    }

    #[test]
    fn filter_on_predicate_variable() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT ?p ?o WHERE { ?s ?p ?o . ?s a <Paper> . FILTER (?p = <cites>) }",
        );
        assert_eq!(rs.len(), 1);
        let store = RdfStore::new(&kg);
        assert_eq!(rs.row_terms(&store, 0)[0], "cites");
    }

    #[test]
    fn filter_with_unknown_constant() {
        let kg = kg();
        let eq = run(&kg, "SELECT ?s WHERE { ?s <writes> ?o . FILTER (?s = <ghost>) }");
        assert!(eq.is_empty());
        let neq = run(&kg, "SELECT ?s WHERE { ?s <writes> ?o . FILTER (?s != <ghost>) }");
        assert_eq!(neq.len(), 3, "everything differs from an unknown term");
    }

    #[test]
    fn filter_roundtrips_through_display() {
        let q = crate::parser::parse(
            "SELECT * WHERE { ?s ?p ?o . FILTER (?s != <x>) FILTER (?p = ?p) }",
        )
        .unwrap();
        let reparsed = crate::parser::parse(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn predicate_vars_decode_in_relation_space() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let rs = engine
            .execute_str("SELECT ?p ?o WHERE { ?s a <Venue> . ?x ?p ?s . ?x <cites> ?o }")
            .unwrap();
        assert!(rs.is_predicate_col(rs.col("p").unwrap()));
        assert!(!rs.is_predicate_col(rs.col("o").unwrap()));
        let terms = rs.row_terms(&store, 0);
        assert_eq!(terms[0], "publishedIn");
        assert!(terms[1].starts_with('p'), "object decodes as a node: {terms:?}");
    }

    #[test]
    fn planner_prefers_selective_pattern() {
        // Correctness check regardless of order: anchored join returns the
        // same rows written either way.
        let kg = kg();
        let a = run(&kg, "SELECT ?x WHERE { ?x a <Venue> . ?p <publishedIn> ?x }");
        let b = run(&kg, "SELECT ?x WHERE { ?p <publishedIn> ?x . ?x a <Venue> }");
        assert_eq!(a.len(), b.len());
    }

    /// The dedup this module had before it sorted by the varying columns:
    /// a lexicographic sort of the row slices. Kept as the oracle.
    fn slice_sort_dedup(data: &[u32], width: usize) -> Vec<u32> {
        let mut sorted: Vec<&[u32]> = data.chunks_exact(width).collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.concat()
    }

    fn assert_sorts_like_slices(data: &[u32], width: usize) {
        let expect = slice_sort_dedup(data, width);
        let mut got = data.to_vec();
        let rows = sort_dedup(&mut got, width);
        assert_eq!(rows * width, expect.len(), "width {width}: {data:?}");
        assert_eq!(got, expect, "width {width}: {data:?}");
    }

    /// splitmix64: reproducible cases without a dev-dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Ids at and around every radix digit boundary, and the `NULL_ID`
    /// sentinel.
    const EDGE_IDS: [u32; 10] = [
        0,
        1,
        2047,
        2048,
        (1 << 22) - 1,
        1 << 22,
        0x0040_0801,
        1 << 31,
        NULL_ID - 1,
        NULL_ID,
    ];

    #[test]
    fn sort_dedup_matches_the_slice_sort() {
        let mut mix = Mix(7);
        for _ in 0..600 {
            let width = 1 + mix.below(8);
            // Per column: `NULL_ID` throughout, one constant, a few values
            // (heavy duplication), edge ids, or any id.
            let kinds: Vec<usize> = (0..width).map(|_| mix.below(5)).collect();
            let constants: Vec<u32> = (0..width).map(|_| mix.next() as u32).collect();
            let distinct = 1 + mix.below(40);
            let mut pool: Vec<u32> = Vec::new();
            for _ in 0..distinct {
                for (c, &kind) in kinds.iter().enumerate() {
                    pool.push(match kind {
                        0 => NULL_ID,
                        1 => constants[c],
                        2 => EDGE_IDS[mix.below(3)],
                        3 => EDGE_IDS[mix.below(EDGE_IDS.len())],
                        _ => mix.next() as u32,
                    });
                }
            }
            // Rows drawn from `distinct` prototypes repeat heavily.
            let rows = mix.below(400);
            let mut data = Vec::with_capacity(rows * width);
            for _ in 0..rows {
                let p = mix.below(distinct);
                data.extend_from_slice(&pool[p * width..(p + 1) * width]);
            }
            assert_sorts_like_slices(&data, width);
        }
    }

    #[test]
    fn sort_dedup_edge_shapes() {
        // No rows, one row, all rows identical.
        assert_sorts_like_slices(&[], 3);
        assert_sorts_like_slices(&[5, NULL_ID, 2], 3);
        assert_sorts_like_slices(&[9, NULL_ID, 9, NULL_ID, 9, NULL_ID], 2);
        // One varying column among `NULL_ID`s: early projection's shape.
        let mut mix = Mix(11);
        let mut data = Vec::new();
        for _ in 0..5000 {
            data.extend([NULL_ID, mix.next() as u32 >> 10, NULL_ID, NULL_ID, NULL_ID]);
        }
        assert_sorts_like_slices(&data, 5);
        // More than four varying columns, every digit of every one varying.
        let mut data = Vec::new();
        for i in 0..3000u32 {
            for c in 0..7u32 {
                data.push(match (i + c) % 3 {
                    0 => EDGE_IDS[mix.below(EDGE_IDS.len())],
                    1 => mix.next() as u32,
                    _ => (i * 7919 + c) % 97,
                });
            }
        }
        let half = data[..data.len() / 2].to_vec();
        data.extend_from_slice(&half);
        assert_sorts_like_slices(&data, 7);
        // A varying digit above constant ones, and a constant one between
        // varying ones.
        let data: Vec<u32> = [0x8000_0003u32, 3, 0x0000_0803, 0x0040_0003, 0x8040_0803]
            .iter()
            .flat_map(|&v| [v, 1 << 22, v ^ 0x7])
            .collect();
        assert_sorts_like_slices(&data, 3);
    }

    /// The pages of a `DISTINCT` `UNION` query, row for row. Their order
    /// is the final dedup's sort order, and it is what page boundaries,
    /// and so the request texts a fault plan draws by, depend on.
    #[test]
    fn distinct_union_pages_keep_their_order() {
        let mut kg = kg();
        kg.add_triple_terms("a3", "Author", "writes", "p1", "Paper");
        kg.add_triple_terms("p3", "Paper", "cites", "p1", "Paper");
        kg.add_triple_terms("p3", "Paper", "publishedIn", "v2", "Venue");
        kg.add_triple_terms("a2", "Author", "writes", "p3", "Paper");
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let page = |offset: usize| {
            let q = format!(
                "SELECT DISTINCT ?x ?y ?z WHERE {{ {{ ?x <writes> ?y }} UNION {{ ?y <cites> ?x }} \
                 UNION {{ ?x <publishedIn> ?z . ?w <cites> ?x }} UNION {{ ?x <writes> ?y }} }} \
                 LIMIT 4 OFFSET {offset}"
            );
            let rs = engine.execute_str(&q).unwrap();
            (0..rs.len())
                .map(|i| rs.row_terms(&store, i).join(" "))
                .collect::<Vec<_>>()
        };
        assert_eq!(page(0), ["a1 p1 ", "a1 p2 ", "p1 p3 ", "p1  v1"]);
        assert_eq!(page(4), ["p2 p1 ", "p2  v1", "a2 p2 ", "a2 p3 "]);
        assert_eq!(page(8), ["a3 p1 "]);
        assert!(page(12).is_empty());
    }
}

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
//!
//! That is `SparqlEngine::solve`; `OFFSET` / `LIMIT` are a separate slice of
//! its answer (`Solved::page`), so the endpoint, which holds on to a
//! `Solved`, serves every page of a query from one evaluation.

use crate::ast::{CompareOp, Constraint, Element, Group, Query, Selection, Term, TriplePattern};
use crate::error::RdfError;
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

/// Sorts the `width`-cell rows of `data`, removes repeated rows and
/// returns how many remain. `width` must be positive.
fn sort_dedup(data: &mut Vec<u32>, width: usize) -> usize {
    let mut sorted: Vec<&[u32]> = data.chunks_exact(width).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let deduped = sorted.concat();
    *data = deduped;
    data.len() / width
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
}

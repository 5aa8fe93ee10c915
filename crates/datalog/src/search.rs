//! The one backtracking search behind every local evaluation.
//!
//! The semi-naive evaluator's rule passes, the plan executor's §IV
//! non-emptiness check and final answer computation, and the engine's
//! conjunctive-query evaluator all ask the same question of a conjunctive
//! body: which assignments satisfy these literals over these extents? They
//! ask it through [`Search`], whose inner loop allocates nothing per
//! candidate: each literal's [`Extent`] is resolved once, a bound column
//! drives an index probe over a borrowed posting list, and the variables a
//! candidate binds are undone from one shared trail.
//!
//! On top of the search sit the two evaluations the executor needs:
//!
//! * [`head_instances`] — the distinct head instances, enumerated in the
//!   caller's literal order. Variable-connected components are enumerated
//!   separately: a component binding no head variable is only checked for
//!   satisfiability, every other one is projected onto its head variables
//!   (deduplicated rows, in first-encounter order), and the rows are
//!   combined. Each head variable lies in exactly one component and appears
//!   in the head, so distinct row combinations give distinct head tuples —
//!   no final deduplication pass is needed.
//! * [`satisfiable`] — whether any assignment exists. Only this check
//!   reorders literals (bound literals first, smallest extent breaking
//!   ties): its answer does not depend on the order, while an enumeration's
//!   answer *order* does.

use toorjah_catalog::{FastSet, Tuple, Value};

use crate::{DTerm, Extent};

/// One body literal as the search reads it: its terms and the extent it
/// ranges over.
#[derive(Clone, Copy, Debug)]
pub struct Goal<'a> {
    /// The literal's terms, in column order.
    pub terms: &'a [DTerm],
    /// The facts the literal ranges over.
    pub extent: Extent<'a>,
}

/// Reusable search state: one binding slot per variable and the trail of
/// variables bound since each choice point. A completed run leaves every
/// slot unbound and the trail empty, so one `Search` serves any number of
/// runs over bodies with at most as many variables.
#[derive(Clone, Debug)]
pub struct Search {
    binding: Vec<Option<Value>>,
    trail: Vec<u32>,
}

impl Search {
    /// State for bodies whose variable ids are below `var_count`.
    pub fn new(var_count: usize) -> Self {
        Search {
            binding: vec![None; var_count],
            trail: Vec::with_capacity(var_count),
        }
    }

    /// Enumerates the assignments satisfying every goal, visiting the goals
    /// in slice order and each goal's candidates in insertion order.
    /// `on_match` sees the full binding vector (indexed by variable id) and
    /// returns `false` to stop; the result is `false` exactly when it did.
    pub fn run(
        &mut self,
        goals: &[Goal<'_>],
        on_match: &mut impl FnMut(&[Option<Value>]) -> bool,
    ) -> bool {
        descend(goals, &mut self.binding, &mut self.trail, on_match)
    }
}

fn descend(
    goals: &[Goal<'_>],
    binding: &mut [Option<Value>],
    trail: &mut Vec<u32>,
    on_match: &mut impl FnMut(&[Option<Value>]) -> bool,
) -> bool {
    let Some((goal, rest)) = goals.split_first() else {
        return on_match(binding);
    };
    let bound = goal.terms.iter().enumerate().find_map(|(col, t)| match t {
        DTerm::Const(c) => Some((col, *c)),
        DTerm::Var(v) => binding[*v as usize].map(|val| (col, val)),
    });
    let tuples = goal.extent.tuples();
    let mark = trail.len();
    for pos in goal.extent.candidates(bound) {
        let keep = !unify(goal.terms, tuples[pos].values(), binding, trail)
            || descend(rest, binding, trail, on_match);
        for v in trail.drain(mark..) {
            binding[v as usize] = None;
        }
        if !keep {
            return false;
        }
    }
    true
}

/// Extends `binding` so the terms match `values`, recording every newly
/// bound variable on the trail; `false` on a mismatch (the caller unwinds).
fn unify(
    terms: &[DTerm],
    values: &[Value],
    binding: &mut [Option<Value>],
    trail: &mut Vec<u32>,
) -> bool {
    for (t, v) in terms.iter().zip(values) {
        match t {
            DTerm::Const(c) => {
                if c != v {
                    return false;
                }
            }
            DTerm::Var(var) => match binding[*var as usize] {
                Some(bound) => {
                    if bound != *v {
                        return false;
                    }
                }
                None => {
                    binding[*var as usize] = Some(*v);
                    trail.push(*var);
                }
            },
        }
    }
    true
}

/// The distinct instances of `head` over the assignments satisfying
/// `goals` (a body, in body order), enumerating each component's goals in
/// the order they take in `order` (a permutation of the goal indexes).
/// Every variable id must be below `var_count`, and every head variable
/// must occur in some goal.
///
/// Answers come in a fixed order: components sorted by their first goal
/// index, the first one varying fastest, each one's rows in the
/// first-encounter order of its enumeration.
pub fn head_instances(
    head: &[DTerm],
    goals: &[Goal<'_>],
    order: &[usize],
    var_count: usize,
) -> Vec<Tuple> {
    let mut in_head = vec![false; var_count];
    for v in head.iter().filter_map(DTerm::as_var) {
        in_head[v as usize] = true;
    }
    let mut search = Search::new(var_count);
    let mut components: Vec<(Vec<u32>, Vec<Tuple>)> = Vec::new();
    for component in components_of(goals, var_count) {
        let mut relevant: Vec<u32> = component_vars(goals, &component);
        relevant.retain(|&v| in_head[v as usize]);
        if relevant.is_empty() {
            if !satisfiable_component(goals, &component, var_count, &mut search) {
                return Vec::new();
            }
            continue;
        }
        let ordered: Vec<Goal<'_>> = order
            .iter()
            .filter(|i| component.contains(i))
            .map(|&i| goals[i])
            .collect();
        let mut seen: FastSet<Tuple> = FastSet::default();
        let mut rows: Vec<Tuple> = Vec::new();
        search.run(&ordered, &mut |binding| {
            let row: Tuple = relevant
                .iter()
                .map(|&v| binding[v as usize].expect("component variables are bound"))
                .collect();
            if seen.insert(row.clone()) {
                rows.push(row);
            }
            true
        });
        if rows.is_empty() {
            return Vec::new();
        }
        components.push((relevant, rows));
    }

    // Odometer over one row per component, the first component fastest.
    // With no head component the single empty combination yields the head
    // once (a boolean or ground head).
    let mut binding: Vec<Option<Value>> = vec![None; var_count];
    let mut choice = vec![0usize; components.len()];
    let combinations = components
        .iter()
        .try_fold(1usize, |n, (_, rows)| n.checked_mul(rows.len()));
    let mut out = Vec::with_capacity(combinations.unwrap_or(0));
    loop {
        for ((vars, rows), &c) in components.iter().zip(&choice) {
            for (&v, &value) in vars.iter().zip(rows[c].values()) {
                binding[v as usize] = Some(value);
            }
        }
        out.push(instantiate(head, &binding));
        let mut pos = 0;
        loop {
            if pos == choice.len() {
                return out;
            }
            choice[pos] += 1;
            if choice[pos] < components[pos].1.len() {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

/// Whether some assignment satisfies every goal — the §IV early
/// non-emptiness test. Variable-connected components are checked
/// independently, each stopping at its first witness, with bound literals
/// (a constant, or a variable an earlier literal binds) searched first and
/// smaller extents breaking ties. No goals: trivially satisfiable.
pub fn satisfiable(goals: &[Goal<'_>], var_count: usize) -> bool {
    let mut search = Search::new(var_count);
    components_of(goals, var_count)
        .iter()
        .all(|component| satisfiable_component(goals, component, var_count, &mut search))
}

fn satisfiable_component(
    goals: &[Goal<'_>],
    component: &[usize],
    var_count: usize,
    search: &mut Search,
) -> bool {
    if component.iter().any(|&i| goals[i].extent.is_empty()) {
        return false;
    }
    let mut bound = vec![false; var_count];
    let mut remaining: Vec<usize> = component.to_vec();
    let mut ordered: Vec<Goal<'_>> = Vec::with_capacity(component.len());
    while !remaining.is_empty() {
        let (at, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                let probed = goals[i].terms.iter().any(|t| match t {
                    DTerm::Const(_) => true,
                    DTerm::Var(v) => bound[*v as usize],
                });
                (!probed, goals[i].extent.len(), i)
            })
            .expect("remaining goals");
        let goal = goals[remaining.remove(at)];
        for v in goal.terms.iter().filter_map(DTerm::as_var) {
            bound[v as usize] = true;
        }
        ordered.push(goal);
    }
    !search.run(&ordered, &mut |_| false)
}

/// Splits the goals into variable-connected components (a ground goal is
/// a component of its own), each listing its goal indexes in ascending
/// order, sorted by first index.
fn components_of(goals: &[Goal<'_>], var_count: usize) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..goals.len()).collect();
    let mut owner: Vec<Option<usize>> = vec![None; var_count];
    for (i, goal) in goals.iter().enumerate() {
        for v in goal.terms.iter().filter_map(DTerm::as_var) {
            match owner[v as usize] {
                Some(j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a.max(b)] = a.min(b);
                }
                None => owner[v as usize] = Some(i),
            }
        }
    }
    // Roots are each component's smallest index, so ascending `i` meets
    // the components in first-index order.
    let mut slot: Vec<Option<usize>> = vec![None; goals.len()];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for i in 0..goals.len() {
        let root = find(&mut parent, i);
        match slot[root] {
            Some(c) => components[c].push(i),
            None => {
                slot[root] = Some(components.len());
                components.push(vec![i]);
            }
        }
    }
    components
}

/// The variables of a component's goals, sorted and distinct.
fn component_vars(goals: &[Goal<'_>], component: &[usize]) -> Vec<u32> {
    let mut vars: Vec<u32> = component
        .iter()
        .flat_map(|&i| goals[i].terms.iter().filter_map(DTerm::as_var))
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// The head tuple under `binding`.
///
/// # Panics
/// Panics if a head variable is unbound.
pub(crate) fn instantiate(head: &[DTerm], binding: &[Option<Value>]) -> Tuple {
    head.iter()
        .map(|t| match t {
            DTerm::Const(c) => *c,
            DTerm::Var(v) => {
                binding[*v as usize].expect("range restriction guarantees head variables are bound")
            }
        })
        .collect()
}

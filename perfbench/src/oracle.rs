//! The independent evaluator every workload's answers are checked against.
//!
//! It shares nothing with the program's query parser, planner or engine:
//! it reads the schema and the relations' full extensions through the
//! catalog types and applies the paper's Fig. 1 semantics directly.
//!
//! 1. The known values start as the query's constants, each in the domain
//!    of the position it occurs at.
//! 2. A tuple of a relation is *reachable* once every input position holds
//!    a known value of its domain; its values then become known. This is
//!    repeated over every relation until nothing changes.
//! 3. The query is evaluated over the reachable tuples by a plain
//!    nested-loop join, atom by atom in textual order.
//!
//! The final known values also give the naive access count: the naive
//! algorithm accesses every relation once per combination of known input
//! values, so each relation contributes the product of the known-value
//! counts of its input domains (a free relation is accessed once).

use std::collections::{BTreeSet, HashSet};

use toorjah_catalog::{Instance, Schema, Tuple, Value};

/// A term of a query atom.
#[derive(Clone, Debug, PartialEq)]
enum Term {
    Var(usize),
    Const(Value),
}

/// A conjunctive query in the paper's notation, parsed here on its own.
#[derive(Clone, Debug)]
pub struct Query {
    head: Vec<usize>,
    atoms: Vec<(usize, Vec<Term>)>,
    vars: usize,
}

/// What the independent evaluator concludes about one query.
#[derive(Clone, Debug)]
pub struct Expected {
    /// The distinct answers, sorted.
    pub answers: Vec<Tuple>,
    /// Accesses the naive Fig. 1 algorithm performs.
    pub naive_accesses: u64,
}

/// Parses `q(X, Y) <- r(X, 'c'), s(Y, 12), t(X, bare)`. Identifiers that
/// start with an uppercase letter or `_` are variables (`_` alone is fresh
/// at every occurrence); quoted text, integers and other bare words are
/// constants.
pub fn parse(text: &str, schema: &Schema) -> Result<Query, String> {
    let (head, body) = text
        .split_once("<-")
        .ok_or_else(|| format!("no '<-' in {text:?}"))?;
    let mut names: Vec<String> = Vec::new();
    let var = |name: &str, names: &mut Vec<String>| -> usize {
        if name != "_" {
            if let Some(i) = names.iter().position(|n| n == name) {
                return i;
            }
        }
        names.push(name.to_string());
        names.len() - 1
    };
    let (_, head_args) = split_atom(head)?;
    let mut head_vars = Vec::new();
    for arg in head_args {
        match term(&arg) {
            Err(name) => head_vars.push(var(&name, &mut names)),
            Ok(_) => return Err(format!("constant in the head of {text:?}")),
        }
    }
    let mut atoms = Vec::new();
    for atom in split_top_level(body) {
        let (name, args) = split_atom(&atom)?;
        let rel = schema
            .relation_id(&name)
            .ok_or_else(|| format!("unknown relation {name}"))?;
        if args.len() != schema.relation(rel).arity() {
            return Err(format!("{name} has arity {}", schema.relation(rel).arity()));
        }
        let terms = args
            .iter()
            .map(|a| match term(a) {
                Ok(value) => Term::Const(value),
                Err(name) => Term::Var(var(&name, &mut names)),
            })
            .collect();
        atoms.push((rel.index(), terms));
    }
    Ok(Query {
        head: head_vars,
        atoms,
        vars: names.len(),
    })
}

/// A constant (`Ok`) or a variable name (`Err`).
fn term(text: &str) -> Result<Value, String> {
    let t = text.trim();
    if let Some(inner) = t
        .strip_prefix('\'')
        .and_then(|s| s.strip_suffix('\''))
        .or_else(|| t.strip_prefix('"').and_then(|s| s.strip_suffix('"')))
    {
        return Ok(Value::str(inner));
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(Value::int(i));
    }
    if t.starts_with(|c: char| c.is_uppercase() || c == '_') {
        return Err(t.to_string());
    }
    Ok(Value::str(t))
}

fn split_atom(text: &str) -> Result<(String, Vec<String>), String> {
    let text = text.trim();
    let open = text
        .find('(')
        .ok_or_else(|| format!("no '(' in {text:?}"))?;
    let inner = text[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| format!("no ')' at the end of {text:?}"))?;
    Ok((text[..open].trim().to_string(), split_top_level(inner)))
}

/// Splits on commas outside parentheses and quotes.
fn split_top_level(text: &str) -> Vec<String> {
    let (mut parts, mut current, mut depth, mut quote) = (Vec::new(), String::new(), 0, None);
    for c in text.chars() {
        match (c, quote) {
            ('\'' | '"', None) => quote = Some(c),
            (q, Some(open)) if q == open => quote = None,
            ('(', None) => depth += 1,
            (')', None) => depth -= 1,
            (',', None) if depth == 0 => {
                parts.push(std::mem::take(&mut current).trim().to_string());
                continue;
            }
            _ => {}
        }
        current.push(c);
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts
}

/// Evaluates `query` over the part of `instance` reachable from its
/// constants.
pub fn evaluate(query: &Query, schema: &Schema, instance: &Instance) -> Expected {
    let relations: Vec<_> = schema.iter().map(|(id, _)| id).collect();
    let mut known: Vec<HashSet<Value>> = vec![HashSet::new(); schema.domains().len()];
    for (rel, terms) in &query.atoms {
        let rs = schema.relation(relations[*rel]);
        for (k, t) in terms.iter().enumerate() {
            if let Term::Const(v) = t {
                known[rs.domain(k).index()].insert(*v);
            }
        }
    }
    let mut reached: Vec<Vec<bool>> = relations
        .iter()
        .map(|&id| vec![false; instance.full_extension(id).len()])
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (r, &id) in relations.iter().enumerate() {
            let rs = schema.relation(id);
            for (i, t) in instance.full_extension(id).iter().enumerate() {
                if reached[r][i] {
                    continue;
                }
                let accessible = rs
                    .pattern()
                    .input_positions()
                    .all(|k| known[rs.domain(k).index()].contains(&t[k]));
                if accessible {
                    reached[r][i] = true;
                    changed = true;
                    for k in 0..rs.arity() {
                        known[rs.domain(k).index()].insert(t[k]);
                    }
                }
            }
        }
    }
    let naive_accesses = relations
        .iter()
        .map(|&id| {
            let rs = schema.relation(id);
            rs.pattern()
                .input_positions()
                .map(|k| known[rs.domain(k).index()].len() as u64)
                .product::<u64>()
        })
        .sum();
    let reachable: Vec<Vec<&Tuple>> = relations
        .iter()
        .enumerate()
        .map(|(r, &id)| {
            instance
                .full_extension(id)
                .iter()
                .zip(&reached[r])
                .filter(|(_, &ok)| ok)
                .map(|(t, _)| t)
                .collect()
        })
        .collect();
    let mut answers = BTreeSet::new();
    let mut binding = vec![None; query.vars];
    join(query, &reachable, 0, &mut binding, &mut answers);
    Expected {
        answers: normalize(answers.into_iter().map(Tuple::new).collect()),
        naive_accesses,
    }
}

fn join(
    query: &Query,
    reachable: &[Vec<&Tuple>],
    depth: usize,
    binding: &mut Vec<Option<Value>>,
    answers: &mut BTreeSet<Vec<Value>>,
) {
    let Some((rel, terms)) = query.atoms.get(depth) else {
        answers.insert(
            query
                .head
                .iter()
                .map(|&v| binding[v].expect("head variables occur in the body"))
                .collect(),
        );
        return;
    };
    for tuple in &reachable[*rel] {
        let mut bound_here = Vec::new();
        let mut fits = true;
        for (k, t) in terms.iter().enumerate() {
            match t {
                Term::Const(c) => fits = *c == tuple[k],
                Term::Var(v) => match binding[*v] {
                    Some(b) => fits = b == tuple[k],
                    None => {
                        binding[*v] = Some(tuple[k]);
                        bound_here.push(*v);
                    }
                },
            }
            if !fits {
                break;
            }
        }
        if fits {
            join(query, reachable, depth + 1, binding, answers);
        }
        for v in bound_here {
            binding[v] = None;
        }
    }
}

/// Sorts answers for comparison with [`Expected::answers`]; duplicates are
/// kept, so an execution that returns one twice fails the comparison.
pub fn normalize(mut answers: Vec<Tuple>) -> Vec<Tuple> {
    answers.sort();
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    fn music() -> (Schema, Instance) {
        let schema = Schema::parse(
            "r1^ioo(Artist, Nation, Year) r2^oio(Title, Year, Artist) r3^oo(Artist, Album)",
        )
        .unwrap();
        let db = Instance::with_data(
            &schema,
            [
                (
                    "r1",
                    vec![
                        tuple!["modugno", "italy", 1928],
                        tuple!["mina", "italy", 1958],
                    ],
                ),
                ("r2", vec![tuple!["volare", 1958, "modugno"]]),
                (
                    "r3",
                    vec![
                        tuple!["modugno", "nel blu dipinto di blu"],
                        tuple!["mina", "studio uno"],
                    ],
                ),
            ],
        )
        .unwrap();
        (schema, db)
    }

    #[test]
    fn example_1_answers_italy() {
        let (schema, db) = music();
        let q = parse("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)", &schema).unwrap();
        let got = evaluate(&q, &schema, &db);
        assert_eq!(got.answers, vec![tuple!["italy"]]);
        // Known at the fixpoint: artists {modugno, mina}, years {1928,
        // 1958}; r1 is accessed per artist, r2 per year, r3 once.
        assert_eq!(got.naive_accesses, 2 + 2 + 1);
    }

    #[test]
    fn unreachable_tuples_give_no_answers() {
        // s^io(A, B) can only be accessed with a known A; the value `x`
        // comes from nowhere, so s(x, y) is unreachable although it joins.
        let schema = Schema::parse("f^o(A) s^io(A, B) t^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("f", vec![tuple!["a1"]]),
                ("s", vec![tuple!["a1", "b1"], tuple!["x", "b2"]]),
                (
                    "t",
                    vec![tuple!["b1", "c1"], tuple!["b2", "c2"], tuple!["b9", "c9"]],
                ),
            ],
        )
        .unwrap();
        let q = parse("q(A, C) <- s(A, B), t(B, C)", &schema).unwrap();
        let got = evaluate(&q, &schema, &db);
        assert_eq!(got.answers, vec![tuple!["a1", "c1"]]);
        // Known A = {a1}, B = {b1}: f once, s once, t once.
        assert_eq!(got.naive_accesses, 3);

        // A constant seeds its domain: with 'x' in the query, s(x, b2)
        // and then t(b2, c2) become reachable.
        let q = parse("q(C) <- s('x', B), t(B, C)", &schema).unwrap();
        let got = evaluate(&q, &schema, &db);
        assert_eq!(got.answers, vec![tuple!["c2"]]);
        assert_eq!(got.naive_accesses, 1 + 2 + 2);
    }

    #[test]
    fn parser_reads_constants_variables_and_anonymous_terms() {
        let schema = Schema::parse("r^oo(A, B) n^io(A, Y)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                (
                    "r",
                    vec![tuple!["a", "b"], tuple!["a", "c"], tuple!["d", "b"]],
                ),
                ("n", vec![tuple!["a", 2008], tuple!["d", 2007]]),
            ],
        )
        .unwrap();
        let q = parse("q(X) <- r(X, _), r(_, b), n(X, 2008)", &schema).unwrap();
        assert_eq!(evaluate(&q, &schema, &db).answers, vec![tuple!["a"]]);
        let q = parse("q(X) <- r(X, \"c\")", &schema).unwrap();
        assert_eq!(evaluate(&q, &schema, &db).answers, vec![tuple!["a"]]);
        assert!(parse("q('a') <- r(X, Y)", &schema).is_err());
        assert!(parse("q(X) <- nope(X)", &schema).is_err());
        assert!(parse("q(X) <- r(X)", &schema).is_err());
    }
}

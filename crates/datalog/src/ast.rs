//! Positive Datalog abstract syntax.

use std::collections::HashMap;
use std::fmt;

use toorjah_catalog::Value;

use crate::DatalogError;

/// Identifier of a predicate symbol inside a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(pub u32);

impl PredId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Metadata of a predicate symbol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Predicate {
    /// Display name, e.g. `q`, `r1_hat1`, `s_A`.
    pub name: String,
    /// Fixed arity; all literals over the predicate must match it.
    pub arity: usize,
}

/// A term of a rule: a rule-local variable (index into the rule's variable
/// name table) or a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum DTerm {
    /// Rule-local variable.
    Var(u32),
    /// Constant.
    Const(Value),
}

impl DTerm {
    /// The variable index, if a variable.
    pub fn as_var(&self) -> Option<u32> {
        match self {
            DTerm::Var(v) => Some(*v),
            DTerm::Const(_) => None,
        }
    }

    /// The constant, if a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            DTerm::Var(_) => None,
            DTerm::Const(c) => Some(c),
        }
    }
}

/// A literal `p(t1,…,tn)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Literal {
    /// The predicate symbol.
    pub pred: PredId,
    /// Terms in positional order.
    pub terms: Vec<DTerm>,
}

impl Literal {
    /// Creates a literal.
    pub fn new(pred: PredId, terms: Vec<DTerm>) -> Self {
        Literal { pred, terms }
    }
}

/// A rule `head ← body`. A rule with an empty body and a ground head is a
/// *fact* (e.g. the paper's `ra(a) ←`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// The head literal.
    pub head: Literal,
    /// Body literals (conjunction); may be empty for facts.
    pub body: Vec<Literal>,
    /// Names of the rule-local variables, indexed by [`DTerm::Var`] payload.
    pub var_names: Vec<String>,
}

impl Rule {
    /// Creates a rule.
    pub fn new(head: Literal, body: Vec<Literal>, var_names: Vec<String>) -> Self {
        Rule {
            head,
            body,
            var_names,
        }
    }

    /// `true` when the rule has an empty body.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// All head variables occur in the body (range restriction). Facts must
    /// have ground heads.
    pub fn is_range_restricted(&self) -> bool {
        self.head.terms.iter().all(|t| match t {
            DTerm::Const(_) => true,
            DTerm::Var(v) => self
                .body
                .iter()
                .any(|l| l.terms.iter().any(|u| u.as_var() == Some(*v))),
        })
    }
}

/// A positive Datalog program: interned predicates plus rules.
///
/// Predicates are partitioned implicitly: a predicate occurring in some rule
/// head is **intensional** (IDB); all others are **extensional** (EDB) and
/// must be supplied by a [`crate::FactStore`] at evaluation time.
#[derive(Clone, Default, Debug)]
pub struct Program {
    preds: Vec<Predicate>,
    by_name: HashMap<String, PredId>,
    rules: Vec<Rule>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a predicate symbol, validating a consistent arity.
    pub fn predicate(&mut self, name: &str, arity: usize) -> Result<PredId, DatalogError> {
        if let Some(&id) = self.by_name.get(name) {
            let existing = &self.preds[id.index()];
            if existing.arity != arity {
                return Err(DatalogError::ArityConflict {
                    predicate: name.to_string(),
                    first: existing.arity,
                    second: arity,
                });
            }
            return Ok(id);
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push(Predicate {
            name: name.to_string(),
            arity,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a predicate by name.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.by_name.get(name).copied()
    }

    /// Predicate metadata.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this program.
    pub fn pred(&self, id: PredId) -> &Predicate {
        &self.preds[id.index()]
    }

    /// Number of interned predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Adds a rule after validating arities and range restriction.
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), DatalogError> {
        for lit in std::iter::once(&rule.head).chain(rule.body.iter()) {
            let pred = &self.preds[lit.pred.index()];
            if lit.terms.len() != pred.arity {
                return Err(DatalogError::LiteralArity {
                    predicate: pred.name.clone(),
                    expected: pred.arity,
                    got: lit.terms.len(),
                });
            }
        }
        if !rule.is_range_restricted() {
            let pred = &self.preds[rule.head.pred.index()];
            return Err(DatalogError::NotRangeRestricted {
                predicate: pred.name.clone(),
            });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// All rules, in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rules whose head is `pred`.
    pub fn rules_for(&self, pred: PredId) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.head.pred == pred)
    }

    /// Predicates that occur in some rule head (IDB).
    pub fn idb_predicates(&self) -> Vec<PredId> {
        let mut out: Vec<PredId> = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.pred) {
                out.push(r.head.pred);
            }
        }
        out
    }

    /// Predicates that never occur in a rule head (EDB).
    pub fn edb_predicates(&self) -> Vec<PredId> {
        let idb = self.idb_predicates();
        (0..self.preds.len() as u32)
            .map(PredId)
            .filter(|p| !idb.contains(p))
            .collect()
    }

    /// Renders a single rule in the paper's notation.
    pub fn render_rule(&self, rule: &Rule) -> String {
        let mut s = String::new();
        self.render_literal(&mut s, &rule.head, &rule.var_names);
        s.push_str(" ← ");
        for (i, lit) in rule.body.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            self.render_literal(&mut s, lit, &rule.var_names);
        }
        if rule.body.is_empty() {
            // Facts render as `ra('a') ←` like the paper's Example 7.
            while s.ends_with(' ') {
                s.pop();
            }
        }
        s
    }

    fn render_literal(&self, out: &mut String, lit: &Literal, var_names: &[String]) {
        out.push_str(&self.preds[lit.pred.index()].name);
        out.push('(');
        for (i, t) in lit.terms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match t {
                DTerm::Var(v) => out.push_str(
                    var_names
                        .get(*v as usize)
                        .map(String::as_str)
                        .unwrap_or("?"),
                ),
                DTerm::Const(c) => out.push_str(&c.to_string()),
            }
        }
        out.push(')');
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            f.write_str(&self.render_rule(rule))?;
        }
        Ok(())
    }
}

/// Renders a bound/free mask in the classical notation (`b` = bound,
/// `f` = free), e.g. `[true, false]` → `"bf"`.
pub fn adornment_string(mask: &[bool]) -> String {
    mask.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_program() -> (Program, PredId, PredId) {
        let mut p = Program::new();
        let edge = p.predicate("edge", 2).unwrap();
        let path = p.predicate("path", 2).unwrap();
        // path(X,Y) ← edge(X,Y)
        p.add_rule(Rule::new(
            Literal::new(path, vec![DTerm::Var(0), DTerm::Var(1)]),
            vec![Literal::new(edge, vec![DTerm::Var(0), DTerm::Var(1)])],
            vec!["X".into(), "Y".into()],
        ))
        .unwrap();
        // path(X,Z) ← edge(X,Y), path(Y,Z)
        p.add_rule(Rule::new(
            Literal::new(path, vec![DTerm::Var(0), DTerm::Var(2)]),
            vec![
                Literal::new(edge, vec![DTerm::Var(0), DTerm::Var(1)]),
                Literal::new(path, vec![DTerm::Var(1), DTerm::Var(2)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into()],
        ))
        .unwrap();
        (p, edge, path)
    }

    #[test]
    fn predicates_intern_with_arity_check() {
        let mut p = Program::new();
        let a = p.predicate("p", 2).unwrap();
        assert_eq!(p.predicate("p", 2).unwrap(), a);
        assert!(matches!(
            p.predicate("p", 3),
            Err(DatalogError::ArityConflict { .. })
        ));
        assert_eq!(p.pred(a).name, "p");
        assert_eq!(p.pred_id("p"), Some(a));
        assert_eq!(p.pred_id("zz"), None);
    }

    #[test]
    fn idb_edb_partition() {
        let (p, edge, path) = edge_program();
        assert_eq!(p.idb_predicates(), vec![path]);
        assert_eq!(p.edb_predicates(), vec![edge]);
    }

    #[test]
    fn literal_arity_validated() {
        let mut p = Program::new();
        let q = p.predicate("q", 1).unwrap();
        let bad = Rule::new(Literal::new(q, vec![]), vec![], vec![]);
        assert!(matches!(
            p.add_rule(bad),
            Err(DatalogError::LiteralArity { .. })
        ));
    }

    #[test]
    fn range_restriction_validated() {
        let mut p = Program::new();
        let q = p.predicate("q", 1).unwrap();
        let bad = Rule::new(
            Literal::new(q, vec![DTerm::Var(0)]),
            vec![],
            vec!["X".into()],
        );
        assert!(matches!(
            p.add_rule(bad),
            Err(DatalogError::NotRangeRestricted { .. })
        ));
    }

    #[test]
    fn facts_are_rules_with_empty_bodies() {
        let mut p = Program::new();
        let ra = p.predicate("ra", 1).unwrap();
        let fact = Rule::new(
            Literal::new(ra, vec![DTerm::Const(Value::from("a"))]),
            vec![],
            vec![],
        );
        assert!(fact.is_fact());
        p.add_rule(fact).unwrap();
        assert_eq!(p.render_rule(&p.rules()[0]), "ra('a') ←");
    }

    #[test]
    fn display_matches_paper_style() {
        let (p, _, _) = edge_program();
        let text = p.to_string();
        assert_eq!(
            text,
            "path(X, Y) ← edge(X, Y)\npath(X, Z) ← edge(X, Y), path(Y, Z)"
        );
    }

    #[test]
    fn rules_for_filters_by_head() {
        let (p, _, path) = edge_program();
        assert_eq!(p.rules_for(path).count(), 2);
    }
}

//! String interning: the compact symbol data plane.
//!
//! Every string constant that enters the system — from the parser, a source
//! extraction, a workload generator or a snapshot — is *interned*: stored
//! once in the process-wide [`Interner`] and represented everywhere else by
//! a [`Symbol`], a `Copy`-able `u32` id. Tuples, binding pools, fact-store
//! indexes and cache keys all carry symbols, so the hot loops of the
//! evaluation kernel hash and compare fixed-size integers instead of
//! heap-backed strings, and cloning a value is a register copy.
//!
//! The interner is deliberately **process-wide** rather than per-session:
//! the [`SharedAccessCache`] shares extractions across sessions and threads,
//! so two sessions must agree on the id of `"volare"` for a cache key built
//! by one to hit for the other. Sessions hold a handle to the interner (see
//! `Toorjah::interner` in the facade) for observability — symbol counts and
//! the payload bytes accounted here instead of per-holder.
//!
//! Interned strings are retained for the lifetime of the process (the set
//! of distinct constants a deployment sees is bounded, and retention is
//! what makes [`Symbol::as_str`] a borrow instead of a lock-and-clone).
//!
//! [`SharedAccessCache`]: https://docs.rs/toorjah-cache

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use parking_lot::RwLock;

/// An interned string: a `u32` id into the process-wide [`Interner`].
///
/// Symbols are `Copy`, hash as their id, and compare equal exactly when the
/// strings they denote are equal (the interner guarantees one id per
/// distinct string). [`Symbol::as_str`] resolves back to the string; the
/// symbol also derefs to `str`, so string methods work directly:
///
/// ```
/// use toorjah_catalog::Symbol;
///
/// let s = Symbol::intern("volare");
/// assert_eq!(s.as_str(), "volare");
/// assert!(s.starts_with("vol"));
/// assert_eq!(s, Symbol::intern("volare"), "same string, same symbol");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `s` in the process-wide interner and returns its symbol.
    pub fn intern(s: impl AsRef<str>) -> Symbol {
        Interner::global().intern(s.as_ref())
    }

    /// The interned string. A borrow, not a clone: interned payloads live
    /// for the process lifetime.
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }

    /// The raw `u32` id (stable within one process only — ids are assigned
    /// in interning order and must never be persisted).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    /// Symbols order by their *string* content, not their id, so sorted
    /// answers are byte-identical to the pre-interning data plane.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// The compact internal value representation: what every store, index and
/// cache key of the data plane actually carries.
///
/// `IVal` is the `Copy` mirror of [`Value`](crate::Value) — an integer or an
/// interned symbol id — with lossless conversion in both directions. The
/// public `Value` is itself backed by this representation, so the
/// conversions are free; `IVal` exists as the explicit type for layers that
/// want to state "I hash u32s, not strings" in their signatures (the
/// fact-store indexes) and for size assertions.
///
/// ```
/// use toorjah_catalog::{IVal, Value};
///
/// let v = Value::from("volare");
/// let c = IVal::from(v);
/// assert_eq!(Value::from(c), v, "round-trip is lossless");
/// assert!(matches!(c, IVal::Sym(_)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum IVal {
    /// An integer constant.
    Int(i64),
    /// An interned string constant, by symbol id.
    Sym(u32),
}

impl From<crate::Value> for IVal {
    fn from(v: crate::Value) -> IVal {
        match v {
            crate::Value::Int(i) => IVal::Int(i),
            crate::Value::Str(s) => IVal::Sym(s.id()),
        }
    }
}

impl From<IVal> for crate::Value {
    fn from(c: IVal) -> crate::Value {
        match c {
            IVal::Int(i) => crate::Value::Int(i),
            IVal::Sym(id) => crate::Value::Str(Symbol(id)),
        }
    }
}

/// Point-in-time interner statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InternerStats {
    /// Number of distinct interned strings.
    pub symbols: usize,
    /// Total payload bytes retained by the interner. This is where string
    /// payloads are accounted — byte-budgeted caches charge fixed-size
    /// entries and never count a shared payload once per holder.
    pub bytes: usize,
}

#[derive(Default)]
struct InternerState {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
    bytes: usize,
}

/// The concurrent string ↔ `u32` table behind [`Symbol`].
///
/// Reads (resolution, already-interned lookups) take a shared lock; only the
/// first interning of a new string takes the exclusive lock. The table is
/// append-only — symbols are never invalidated.
pub struct Interner {
    state: RwLock<InternerState>,
}

impl Interner {
    /// The process-wide interner every [`Symbol`] resolves against.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(|| Interner {
            state: RwLock::new(InternerState::default()),
        })
    }

    /// Interns `s`, returning the existing symbol if the string was seen
    /// before and a fresh one otherwise.
    pub fn intern(&self, s: &str) -> Symbol {
        if let Some(&id) = self.state.read().by_name.get(s) {
            return Symbol(id);
        }
        let mut state = self.state.write();
        // Double-check: another thread may have interned `s` between the
        // read unlock and the write lock.
        if let Some(&id) = state.by_name.get(s) {
            return Symbol(id);
        }
        let payload: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(state.names.len()).expect("fewer than 2^32 distinct strings");
        state.names.push(payload);
        state.by_name.insert(payload, id);
        state.bytes += payload.len();
        Symbol(id)
    }

    /// The string a symbol denotes.
    ///
    /// # Panics
    /// Panics if the symbol did not come from this interner (impossible via
    /// the public API — symbols are only minted by [`Interner::intern`]).
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        self.state.read().names[sym.0 as usize]
    }

    /// The symbol for `s`, if it was interned before.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.state.read().by_name.get(s).copied().map(Symbol)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.state.read().names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current statistics: symbol count and retained payload bytes.
    pub fn stats(&self) -> InternerStats {
        let state = self.state.read();
        InternerStats {
            symbols: state.names.len(),
            bytes: state.bytes,
        }
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Interner")
            .field("symbols", &stats.symbols)
            .field("bytes", &stats.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_distinct() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
        assert_eq!(a, Symbol::intern("intern-test-a"));
        assert_eq!(a.as_str(), "intern-test-a");
        assert_eq!(b.as_str(), "intern-test-b");
    }

    #[test]
    fn symbols_order_by_string_content() {
        // Intern in reverse lexicographic order so id order disagrees with
        // string order; the Ord impl must follow the strings.
        let z = Symbol::intern("zz-ordering-test");
        let a = Symbol::intern("aa-ordering-test");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn deref_exposes_str_methods() {
        let s = Symbol::intern("deref-test");
        assert!(s.starts_with("deref"));
        assert_eq!(s.len(), "deref-test".len());
        assert_eq!(format!("{s}"), "deref-test");
        assert_eq!(format!("{s:?}"), "\"deref-test\"");
    }

    #[test]
    fn ival_round_trips() {
        let v = crate::Value::from("ival-round-trip");
        assert_eq!(crate::Value::from(IVal::from(v)), v);
        let i = crate::Value::from(42);
        assert_eq!(crate::Value::from(IVal::from(i)), i);
        assert_eq!(IVal::from(i), IVal::Int(42));
    }

    #[test]
    fn ival_is_compact_and_copy() {
        // The whole point: a value is two words, not a heap handle.
        assert!(std::mem::size_of::<IVal>() <= 16);
        assert!(std::mem::size_of::<Symbol>() == 4);
        fn assert_copy<T: Copy>() {}
        assert_copy::<IVal>();
        assert_copy::<Symbol>();
    }

    #[test]
    fn stats_account_payload_bytes() {
        // A fresh table, not `Interner::global()`: sibling tests intern into
        // the global one concurrently, which would break exact deltas.
        let interner = Interner {
            state: RwLock::new(InternerState::default()),
        };
        let before = interner.stats();
        let marker = "stats-account-payload-bytes-unique-marker";
        interner.intern(marker);
        let after = interner.stats();
        assert_eq!(after.symbols, before.symbols + 1);
        assert_eq!(after.bytes, before.bytes + marker.len());
        // Re-interning accounts nothing new.
        interner.intern(marker);
        assert_eq!(interner.stats(), after);
    }

    #[test]
    fn lookup_finds_only_interned_strings() {
        let interner = Interner::global();
        assert!(interner.lookup("never-interned-lookup-test").is_none());
        let s = Symbol::intern("interned-lookup-test");
        assert_eq!(interner.lookup("interned-lookup-test"), Some(s));
    }
}

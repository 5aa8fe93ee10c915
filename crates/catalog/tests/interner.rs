//! Integration tests of the global string interner: round-trip identity,
//! injectivity on distinct strings, and concurrency (one id per string no
//! matter how many threads race to intern it).

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use proptest::prelude::*;
use toorjah_catalog::{Interner, Symbol, Value};

/// The interner is process-global and libtest runs this binary's tests on
/// parallel threads, so a test asserting an exact change in
/// `Interner::global()` would also count what a sibling interns meanwhile.
/// Every interning test holds this lock shared; a test that measures the
/// table holds it exclusively for its whole body.
static GLOBAL_TABLE: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    GLOBAL_TABLE.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    GLOBAL_TABLE.write().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    /// Interning is a bijection onto ids: resolve(intern(s)) == s, and
    /// re-interning the resolved payload yields the identical symbol.
    #[test]
    fn intern_resolve_intern_is_identity(s in ".{0,40}") {
        let _table = shared();
        let sym = Symbol::intern(&s);
        prop_assert_eq!(sym.as_str(), s.as_str());
        prop_assert_eq!(Symbol::intern(sym.as_str()), sym);
    }

    /// Distinct strings intern to distinct symbols (and equal strings to
    /// equal symbols), so symbol-id equality is string equality.
    #[test]
    fn distinct_strings_get_distinct_symbols(a in ".{0,24}", b in ".{0,24}") {
        let _table = shared();
        let sa = Symbol::intern(&a);
        let sb = Symbol::intern(&b);
        prop_assert_eq!(a == b, sa == sb);
        prop_assert_eq!(a == b, sa.id() == sb.id());
    }

    /// The `Value` boundary preserves round-trips too: a string value built
    /// twice compares equal and displays the original payload.
    #[test]
    fn value_str_roundtrip(s in "[^']{0,32}") {
        let _table = shared();
        let v = Value::str(&s);
        let w = Value::str(&s);
        prop_assert_eq!(v, w);
        prop_assert_eq!(v.to_string(), format!("'{s}'"));
    }
}

#[test]
fn concurrent_interning_yields_one_id_per_string() {
    // 8 threads race to intern the same 64 strings; every thread must see
    // the same id for the same payload, and the interner must not register
    // duplicates.
    const THREADS: usize = 8;
    const STRINGS: usize = 64;
    let _table = exclusive();
    let payloads: Vec<String> = (0..STRINGS)
        .map(|i| format!("concurrent-intern-payload-{i}"))
        .collect();

    let before = Interner::global().len();
    let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let payloads = &payloads;
                scope.spawn(move || {
                    // Stagger the iteration order per thread to maximize
                    // contention on different entries at the same time.
                    (0..STRINGS)
                        .map(|i| Symbol::intern(&payloads[(i + t * 7) % STRINGS]).id())
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Undo the per-thread stagger, then require all threads agree.
    let canonical: Vec<u32> = payloads.iter().map(|s| Symbol::intern(s).id()).collect();
    for (t, thread_ids) in ids.iter().enumerate() {
        for i in 0..STRINGS {
            assert_eq!(
                thread_ids[i],
                canonical[(i + t * 7) % STRINGS],
                "thread {t} saw a different id for payload {}",
                (i + t * 7) % STRINGS
            );
        }
    }
    // No duplicates: the table grew by at most STRINGS entries (exactly
    // STRINGS on a first run, fewer only if these payloads were interned
    // before `before` was read). Holding `GLOBAL_TABLE` exclusively keeps
    // sibling tests from interning into the table inside this window.
    let after = Interner::global().len();
    assert!(
        after - before <= STRINGS,
        "interner registered duplicates: grew by {}",
        after - before
    );
    let unique: std::collections::HashSet<u32> = canonical.iter().copied().collect();
    assert_eq!(unique.len(), STRINGS, "distinct payloads share an id");
}

#[test]
fn interner_stats_track_symbols_and_bytes() {
    let _table = exclusive();
    let before = Interner::global().stats();
    let sym = Symbol::intern("stats-tracking-witness-payload");
    let after = Interner::global().stats();
    assert!(after.symbols >= before.symbols);
    assert!(
        after.bytes >= before.bytes,
        "payload bytes are accounted at the interner"
    );
    // Re-interning is free: no new symbol, no new bytes.
    let again = Symbol::intern("stats-tracking-witness-payload");
    assert_eq!(again, sym);
    assert_eq!(Interner::global().stats().symbols, after.symbols);
    assert_eq!(Interner::global().stats().bytes, after.bytes);
}

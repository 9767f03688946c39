//! Global string interner.
//!
//! Predicate names, constant names and variable names are interned once into
//! a process-wide table and referred to by a 4-byte [`Sym`]. Interned strings
//! are leaked (`Box::leak`), which is the standard compiler-style trade-off:
//! the set of distinct names in a session is small and bounded, and in
//! exchange `Sym::as_str` returns a `&'static str` that outlives the lookup.
//! Every `as_str` call still takes the interner's read lock (shared, so
//! readers only wait behind a thread interning a new name).

use crate::fx::FxHashMap;
use parking_lot::RwLock;
use std::fmt;
use std::sync::OnceLock;

/// An interned string (predicate, constant or variable name).
///
/// `Sym` is `Copy`, 4 bytes, and cheap to hash and compare. Two `Sym`s are
/// equal iff their underlying strings are equal. The derived `Ord` compares
/// interner ids (creation order), **not** strings; use [`Sym::as_str`] when a
/// lexicographic order is needed for stable display.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    names: Vec<&'static str>,
    ids: FxHashMap<&'static str, u32>,
}

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            ids: FxHashMap::default(),
        })
    })
}

impl Sym {
    /// Intern `name` and return its symbol. Idempotent.
    pub fn new(name: &str) -> Sym {
        let lock = interner();
        if let Some(&id) = lock.read().ids.get(name) {
            return Sym(id);
        }
        let mut w = lock.write();
        // Re-check: another thread may have interned between the read and
        // write lock acquisitions.
        if let Some(&id) = w.ids.get(name) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(w.names.len()).expect("interner overflow");
        w.names.push(leaked);
        w.ids.insert(leaked, id);
        Sym(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().names[self.0 as usize]
    }

    /// The raw interner id (stable within a process run only).
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol with the given raw interner id — the inverse of
    /// [`Sym::id`], O(1) and lock-free.
    ///
    /// The id must have been produced by [`Sym::id`] in this process run
    /// (ids are never recycled, so any such id stays valid); a fabricated id
    /// yields a symbol whose [`Sym::as_str`] panics on the out-of-range
    /// lookup. This is the constant half of the [`crate::term::TermId`]
    /// round-trip.
    pub fn from_id(id: u32) -> Sym {
        Sym(id)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("E");
        let b = Sym::new("E");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "E");
    }

    #[test]
    fn distinct_names_distinct_syms() {
        assert_ne!(Sym::new("left"), Sym::new("right"));
    }

    #[test]
    fn display_roundtrip() {
        let s = Sym::new("hasAirport");
        assert_eq!(s.to_string(), "hasAirport");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..100)
                        .map(|i| Sym::new(&format!("t{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}

//! Interned functor / variable names.
//!
//! Every name occurring in a term (functors, variables, sequence
//! variables) is interned once into a global hash-consed table and
//! referred to by a [`Symbol`]: a `Copy` handle carrying the leaked
//! `&'static str` plus a precomputed 64-bit content hash. This makes the
//! kernel's hot operations cheap:
//!
//! * equality is a pointer comparison (hash-consing guarantees
//!   content-equal names share one allocation);
//! * hashing writes the precomputed hash, never touching the bytes;
//! * [`Symbol::fp_bit`] derives the Bloom bit used by subtree
//!   fingerprints for O(1) "can this functor occur below here?" tests;
//! * ordering still compares the underlying strings, so any order the
//!   matcher exposes (canonical `SET` segment order) is deterministic
//!   across processes — intern *ids* are not, string order is.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned name. Cheap to copy, O(1) to compare and hash.
#[derive(Clone, Copy)]
pub struct Symbol {
    text: &'static str,
    hash: u64,
}

fn intern_table() -> &'static Mutex<HashSet<&'static str>> {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// FNV-1a over the name's bytes: deterministic across processes, so node
/// hashes and fingerprints are stable run to run.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Symbol {
    /// Intern a name (idempotent).
    pub fn intern(name: &str) -> Symbol {
        let mut table = intern_table().lock().expect("symbol table poisoned");
        let text: &'static str = match table.get(name) {
            Some(t) => t,
            None => {
                let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
                table.insert(leaked);
                leaked
            }
        };
        Symbol {
            text,
            hash: fnv1a(text),
        }
    }

    /// The interned text. Free — no table lookup.
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// Precomputed content hash (deterministic across runs).
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// The symbol's bit in a 64-bit subtree Bloom fingerprint.
    pub fn fp_bit(&self) -> u64 {
        1u64 << (self.hash & 63)
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Hash-consing: content-equal symbols share one allocation.
        std::ptr::eq(self.text.as_ptr(), other.text.as_ptr()) && self.text.len() == other.text.len()
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.text.cmp(other.text)
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.text == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.text
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.text
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.text
    }
}

/// Conversion into [`Symbol`] for the name-taking `Bindings` API, so call
/// sites can pass a `Symbol`, `&Symbol`, `&str`, or `String` unchanged.
pub trait ToSymbol {
    /// Resolve to an interned symbol.
    fn to_symbol(&self) -> Symbol;
}

impl ToSymbol for Symbol {
    fn to_symbol(&self) -> Symbol {
        *self
    }
}

impl ToSymbol for str {
    fn to_symbol(&self) -> Symbol {
        Symbol::intern(self)
    }
}

impl ToSymbol for String {
    fn to_symbol(&self) -> Symbol {
        Symbol::intern(self)
    }
}

impl<T: ToSymbol + ?Sized> ToSymbol for &T {
    fn to_symbol(&self) -> Symbol {
        (**self).to_symbol()
    }
}

/// Pre-interned symbols for the kernel's reserved functors.
pub(crate) mod well_known {
    use super::Symbol;
    use std::sync::OnceLock;

    macro_rules! known {
        ($fn_name:ident, $text:literal) => {
            /// The interned symbol for the functor in the name.
            pub(crate) fn $fn_name() -> Symbol {
                static S: OnceLock<Symbol> = OnceLock::new();
                *S.get_or_init(|| Symbol::intern($text))
            }
        };
    }

    known!(list, "LIST");
    known!(set, "SET");
    known!(bag, "BAG");
    known!(attr, "ATTR");
    known!(append, "APPEND");
    known!(set_union, "SET_UNION");
    known!(setunion, "SETUNION");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_pointer_equal() {
        let a = Symbol::intern("SEARCH");
        let b = Symbol::intern("SEARCH");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str().as_ptr(), b.as_str().as_ptr()));
        assert_ne!(Symbol::intern("SEARCH"), Symbol::intern("UNION"));
    }

    #[test]
    fn ordering_follows_strings() {
        let mut syms = [
            Symbol::intern("NEST"),
            Symbol::intern("ATTR"),
            Symbol::intern("UNION"),
        ];
        syms.sort();
        let names: Vec<&str> = syms.iter().map(Symbol::as_str).collect();
        assert_eq!(names, vec!["ATTR", "NEST", "UNION"]);
    }

    #[test]
    fn str_comparisons_work_both_ways() {
        let s = Symbol::intern("LIST");
        assert!(s == "LIST");
        assert!("LIST" == s);
        assert!(s != "SET");
        assert!(s == "LIST");
    }

    #[test]
    fn hash_is_content_based() {
        assert_eq!(
            Symbol::intern("FILM").hash64(),
            Symbol::intern("FILM").hash64()
        );
        assert_ne!(
            Symbol::intern("FILM").hash64(),
            Symbol::intern("ACTOR").hash64()
        );
    }
}

//! String interning for exact-match cell values.
//!
//! The paper (§3.1, assumption 2) counts a cell as a cache hit only when its
//! value **exactly matches** a previously seen value — substring matches do
//! not count. Interning makes that exact-match relation a cheap integer
//! comparison and is how the optimizer sees the table: every distinct cell
//! string maps to one [`ValueId`].

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of an interned cell value.
///
/// Two cells are "the same value" in the PHC sense iff their `ValueId`s (and
/// columns) are equal. Ids are dense and assigned in first-seen order.
///
/// # Examples
///
/// ```
/// use llmqo_core::Interner;
/// let mut interner = Interner::new();
/// let a = interner.intern("PG-13");
/// let b = interner.intern("PG-13");
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ValueId(u32);

impl ValueId {
    /// Creates a `ValueId` from a raw index.
    ///
    /// Useful for synthetic tables whose values are generated as integers and
    /// never materialized as strings. Exact-match semantics are then the
    /// caller's responsibility: equal raw ids mean equal values.
    pub fn from_raw(raw: u32) -> Self {
        ValueId(raw)
    }

    /// The raw index of this id.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Bidirectional map between cell strings and [`ValueId`]s.
///
/// # Examples
///
/// ```
/// use llmqo_core::Interner;
/// let mut interner = Interner::new();
/// let id = interner.intern("Fresh");
/// assert_eq!(interner.resolve(id), Some("Fresh"));
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Both directions share one heap copy of each string.
    map: HashMap<Arc<str>, ValueId>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its id (existing or fresh).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct values are interned.
    pub fn intern(&mut self, value: &str) -> ValueId {
        if let Some(&id) = self.map.get(value) {
            return id;
        }
        let id = ValueId(
            u32::try_from(self.strings.len()).expect("interner overflow: too many distinct values"),
        );
        let shared: Arc<str> = Arc::from(value);
        self.map.insert(Arc::clone(&shared), id);
        self.strings.push(shared);
        id
    }

    /// Looks up an already-interned value without inserting.
    pub fn get(&self, value: &str) -> Option<ValueId> {
        self.map.get(value).copied()
    }

    /// Resolves an id back to its string, if it was produced by this interner.
    pub fn resolve(&self, id: ValueId) -> Option<&str> {
        self.strings.get(id.0 as usize).map(|s| &**s)
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no values have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("x");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_values_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let id = i.intern("Rotten");
        assert_eq!(i.resolve(id), Some("Rotten"));
        assert_eq!(i.get("Rotten"), Some(id));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.resolve(ValueId::from_raw(99)), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(a.as_u32(), 0);
        assert_eq!(b.as_u32(), 1);
        assert!(a < b);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ValueId::from_raw(7).to_string(), "v7");
    }

    #[test]
    fn empty_string_is_a_value() {
        let mut i = Interner::new();
        let id = i.intern("");
        assert_eq!(i.resolve(id), Some(""));
    }
}

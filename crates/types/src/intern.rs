//! Interned string table with dense `u32` ids.
//!
//! Used wherever many entities share a small vocabulary of strings — store
//! locales in the simulator's component tables, domain and term names in
//! the crawl database. Dense ids make the interned value a plain column
//! entry; the string itself is resolved only at report boundaries.

use crate::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use std::collections::HashMap;
use std::sync::Arc;

/// Interned string table with dense `u32` ids.
///
/// The lookup map and the id table share one `Arc<str>` per distinct
/// string, so interning a new string costs exactly one allocation (plus a
/// refcount bump) and a repeat sighting costs one hash lookup and none.
#[derive(Debug, Default)]
pub struct Interner {
    by_str: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Interns a string, returning its id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let shared: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&shared));
        self.by_str.insert(shared, id);
        id
    }

    /// Looks up an id without interning.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.by_str.get(s).copied()
    }

    /// Resolves an id back to its string.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

impl Snapshot for Interner {
    const TAG: &'static str = "interner";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        // Ids are dense and assigned in insertion order, so serializing
        // the strings in id order and re-interning on decode rebuilds an
        // identical table — same ids, same lookup map.
        w.put_len(self.strings.len());
        for s in &self.strings {
            w.put_str(s);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut table = Interner::default();
        for i in 0..n {
            let s = r.get_str_ref()?;
            if table.intern(s) != i as u32 {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate interned string {s:?}"
                )));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip_preserves_ids() {
        let mut i = Interner::default();
        for s in ["uk", "de", "fr", "uk", "it"] {
            i.intern(s);
        }
        let back = Interner::decode(&i.encode()).unwrap();
        assert_eq!(back.len(), i.len());
        for id in 0..i.len() as u32 {
            assert_eq!(back.resolve(id), i.resolve(id));
            assert_eq!(back.get(i.resolve(id)), Some(id));
        }
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::default();
        let a = i.intern("uk");
        let b = i.intern("de");
        assert_eq!(i.intern("uk"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.resolve(b), "de");
        assert_eq!(i.get("fr"), None);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }
}

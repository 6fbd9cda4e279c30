//! The workspace symbol table: every parsed `fn` item across every
//! scanned file, with deterministic IDs and name-based lookup indexes.
//!
//! Function IDs are indexes into a list sorted by `(file, line)`, so the
//! table — and everything built on it (call graph, BFS orders, rule
//! output) — is byte-identical regardless of the order files were read.
//! A proptest in `tests/semantic_determinism.rs` shuffles the visit order
//! to pin this.

use std::collections::BTreeMap;

use crate::semantic::{FileFacts, FnFact};

/// A function's identity in the workspace table.
pub type FnId = usize;

/// One resolved function symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Repo-relative file the item is defined in.
    pub file: String,
    /// Crate key of that file.
    pub crate_key: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Bare function name.
    pub name: String,
    /// Enclosing impl type head, if any.
    pub self_ty: Option<String>,
    /// Whether the fn takes a `self` receiver.
    pub has_self: bool,
    /// Whether the item is test code.
    pub is_test: bool,
    /// Index of the originating [`FnFact`] inside its file's facts.
    pub fact: usize,
}

impl Symbol {
    /// Qualified display name (`System::run` or `schedule_by_cost`).
    pub fn qual(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Symbols sorted by (file, line); `FnId` = index.
    pub fns: Vec<Symbol>,
    /// Bare name → ids bearing it (sorted).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// `(self_ty, name)` → ids (sorted).
    by_typed: BTreeMap<(String, String), Vec<FnId>>,
}

impl SymbolTable {
    /// Builds the table from per-file facts. `facts` may arrive in any
    /// order; the table sorts by (file, line) internally.
    pub fn build(facts: &[FileFacts]) -> SymbolTable {
        let mut fns: Vec<Symbol> = Vec::new();
        for f in facts {
            for (k, item) in f.fns.iter().enumerate() {
                fns.push(Symbol {
                    file: f.rel_path.clone(),
                    crate_key: f.crate_key.clone(),
                    line: item.line,
                    name: item.name.clone(),
                    self_ty: item.self_ty.clone(),
                    has_self: item.has_self,
                    is_test: item.is_test,
                    fact: k,
                });
            }
        }
        fns.sort_by(|a, b| (&a.file, a.line, &a.name).cmp(&(&b.file, b.line, &b.name)));
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_typed: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        for (id, s) in fns.iter().enumerate() {
            by_name.entry(s.name.clone()).or_default().push(id);
            if let Some(ty) = &s.self_ty {
                by_typed
                    .entry((ty.clone(), s.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        SymbolTable {
            fns,
            by_name,
            by_typed,
        }
    }

    /// Ids of every fn with this bare name.
    pub fn named(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ids of `Type::name` definitions.
    pub fn typed(&self, ty: &str, name: &str) -> &[FnId] {
        self.by_typed
            .get(&(ty.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Looks up the fn fact behind a symbol.
    pub fn fact<'a>(&self, facts: &'a [FileFacts], id: FnId) -> Option<&'a FnFact> {
        let s = &self.fns[id];
        facts
            .iter()
            .find(|f| f.rel_path == s.file)
            .and_then(|f| f.fns.get(s.fact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::file_facts;

    fn table(sources: &[(&str, &str, &str)]) -> (Vec<FileFacts>, SymbolTable) {
        let facts: Vec<FileFacts> = sources
            .iter()
            .map(|(path, key, src)| file_facts(path, key, src))
            .collect();
        let t = SymbolTable::build(&facts);
        (facts, t)
    }

    #[test]
    fn ids_are_order_invariant() {
        let a = ("b/two.rs", "sim", "fn beta() {} fn gamma() { beta() }");
        let b = ("a/one.rs", "core", "impl T { fn alpha(&self) {} }");
        let (_, t1) = table(&[a, b]);
        let (_, t2) = table(&[b, a]);
        assert_eq!(t1.fns, t2.fns, "symbol ids must not depend on file order");
        assert_eq!(t1.fns[0].qual(), "T::alpha");
    }

    #[test]
    fn name_and_typed_lookup() {
        let (_, t) = table(&[(
            "x.rs",
            "sim",
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn go() {}",
        )]);
        assert_eq!(t.named("go").len(), 3);
        assert_eq!(t.typed("A", "go").len(), 1);
        assert_eq!(t.typed("C", "go").len(), 0);
    }
}

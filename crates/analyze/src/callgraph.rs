//! The workspace call graph, built over the symbol table by name-based
//! resolution.
//!
//! Without type inference, call sites resolve *conservatively*:
//!
//! * `Type::name(...)` — definitions of `name` under impl `Type` only.
//!   Unknown types (std containers, external crates) resolve to nothing:
//!   a fallback to every `name` would wire `VecDeque::new()` to every
//!   constructor in the workspace.
//! * `recv.name(...)` — every method named `name` (any impl).
//! * `name(...)` — `Self::name` in the caller's own impl first, then free
//!   functions named `name`.
//!
//! A call can therefore fan out to several candidate definitions; for
//! reachability an over-approximation errs on the side of reporting,
//! which is the right polarity for panic propagation. Unresolvable names
//! (std/external methods) produce no edge.

use std::collections::BTreeSet;

use crate::semantic::{CallKind, FileFacts};
use crate::symbols::{FnId, SymbolTable};

/// A directed call graph over [`SymbolTable`] ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[caller]` = sorted, deduped `(callee, call-site line)`.
    pub edges: Vec<Vec<(FnId, u32)>>,
}

impl CallGraph {
    /// Builds the graph from the same facts the table was built from.
    pub fn build(table: &SymbolTable, facts: &[FileFacts]) -> CallGraph {
        let mut edges: Vec<BTreeSet<(FnId, u32)>> = vec![BTreeSet::new(); table.fns.len()];
        for (caller, sym) in table.fns.iter().enumerate() {
            let Some(fact) = table.fact(facts, caller) else {
                continue;
            };
            for call in &fact.calls {
                let candidates: Vec<FnId> = match &call.kind {
                    CallKind::Typed(ty) => table.typed(ty, &call.name).to_vec(),
                    CallKind::Method => table
                        .named(&call.name)
                        .iter()
                        .copied()
                        .filter(|&id| table.fns[id].has_self)
                        .collect(),
                    CallKind::Free => {
                        let own = sym
                            .self_ty
                            .as_deref()
                            .map(|ty| table.typed(ty, &call.name))
                            .unwrap_or(&[]);
                        if own.is_empty() {
                            table
                                .named(&call.name)
                                .iter()
                                .copied()
                                .filter(|&id| table.fns[id].self_ty.is_none())
                                .collect()
                        } else {
                            own.to_vec()
                        }
                    }
                };
                for callee in candidates {
                    edges[caller].insert((callee, call.line));
                }
            }
        }
        CallGraph {
            edges: edges.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// Breadth-first shortest paths from `roots`. Returns per-node
    /// `Option<parent>` (roots have `Some(self)`), `None` = unreachable.
    /// Deterministic: roots seed in sorted order and neighbors expand in
    /// edge order, so ties always break the same way.
    pub fn shortest_paths(&self, roots: &[FnId]) -> Vec<Option<FnId>> {
        let mut parent: Vec<Option<FnId>> = vec![None; self.edges.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut seeds: Vec<FnId> = roots.to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        for &r in &seeds {
            if r < parent.len() && parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &(m, _) in &self.edges[n] {
                if parent[m].is_none() {
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Renders the shortest call chain from a root to `target` as
    /// `Root::fn → ... → target_fn`, given `shortest_paths` output.
    pub fn chain(&self, table: &SymbolTable, parent: &[Option<FnId>], target: FnId) -> String {
        let mut names = Vec::new();
        let mut cur = target;
        loop {
            names.push(table.fns[cur].qual());
            match parent[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
        }
        names.reverse();
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::file_facts;

    fn graph(src: &str) -> (Vec<FileFacts>, SymbolTable, CallGraph) {
        let facts = vec![file_facts("x.rs", "sim", src)];
        let table = SymbolTable::build(&facts);
        let graph = CallGraph::build(&table, &facts);
        (facts, table, graph)
    }

    fn id(table: &SymbolTable, qual: &str) -> FnId {
        table
            .fns
            .iter()
            .position(|s| s.qual() == qual)
            .unwrap_or_else(|| panic!("no symbol {qual}"))
    }

    #[test]
    fn free_method_and_typed_calls_resolve() {
        let src = "fn leaf() {}\n\
                   impl Sys { fn run(&self) { self.step(); leaf(); Helper::go() } \n\
                              fn step(&self) {} }\n\
                   impl Helper { fn go() {} }";
        let (_, t, g) = graph(src);
        let run = id(&t, "Sys::run");
        let callees: Vec<String> = g.edges[run].iter().map(|&(c, _)| t.fns[c].qual()).collect();
        assert!(callees.contains(&"Sys::step".to_string()));
        assert!(callees.contains(&"leaf".to_string()));
        assert!(callees.contains(&"Helper::go".to_string()));
    }

    #[test]
    fn self_impl_wins_for_free_calls() {
        let src = "fn helper() {}\n\
                   impl A { fn helper() {} fn go(&self) { helper() } }";
        let (_, t, g) = graph(src);
        let go = id(&t, "A::go");
        let callees: Vec<String> = g.edges[go].iter().map(|&(c, _)| t.fns[c].qual()).collect();
        assert_eq!(callees, vec!["A::helper".to_string()]);
    }

    #[test]
    fn bfs_chain_is_shortest_and_deterministic() {
        let src = "impl S { fn run(&self) { self.a(); self.b() }\n\
                            fn a(&self) { self.c() }\n\
                            fn b(&self) { self.c() }\n\
                            fn c(&self) { } }";
        let (_, t, g) = graph(src);
        let run = id(&t, "S::run");
        let c = id(&t, "S::c");
        let parent = g.shortest_paths(&[run]);
        let chain = g.chain(&t, &parent, c);
        assert_eq!(
            chain, "S::run → S::a → S::c",
            "BFS must take the first-seeded shortest path"
        );
    }
}

//! Item and call-graph extraction over the token stream.
//!
//! This layer turns each file's tokens into:
//!
//! * a **test mask** — which tokens sit inside a `#[cfg(test)]` item
//!   (including `cfg(all(test, …))`, but not `cfg(not(test))`), so lint
//!   rules skip test code exactly instead of assuming tests trail the
//!   file;
//! * **fn items** — every `fn` with its name, enclosing `impl` type (when
//!   any), body token range and declaration line;
//! * **call references** — every identifier in a body that can denote a
//!   function: `name(…)` calls, `recv.name(…)` method calls, and
//!   `Path::name` references passed as values (callbacks);
//! * the **call graph**, built once from those references as three
//!   relations ([`Relation`]) that the passes choose between.
//!
//! Resolution is deliberately an over-approximation: a reference `name`
//! points at *every* workspace `fn name` visible from the caller's crate
//! (its own crate plus its transitive path dependencies). A false edge can
//! only make a lint stricter, never blind.

use crate::lexer::{code, lex, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One source file, lexed.
pub struct FileModel {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// Package the file belongs to (e.g. `cm-probe`).
    pub crate_name: String,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Raw source lines, for excerpting in finding messages.
    pub lines: Vec<String>,
    /// `test_mask[i]` — token `i` is inside a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
}

/// One `fn` item.
pub struct FnItem {
    /// File index into [`Model::files`].
    pub file: usize,
    /// The function's bare name.
    pub name: String,
    /// The `impl` type name enclosing the fn, when any.
    pub owner: Option<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// Token range of the body, braces included.
    pub body: Range<usize>,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Owner::name` when owned, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The lexed workspace: files, functions, the name index call references
/// resolve through, and the call graph.
pub struct Model {
    /// Every scanned file.
    pub files: Vec<FileModel>,
    /// Every extracted fn item.
    pub fns: Vec<FnItem>,
    /// fn name → indices into [`Model::fns`].
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// crate → the crates it may call into (itself + transitive path
    /// dependencies).
    pub visible: BTreeMap<String, BTreeSet<String>>,
    /// Caller → sorted callees, one adjacency list per [`Relation`].
    edges: [Vec<Vec<usize>>; 3],
}

/// The three call-graph relations, by decreasing recall. Self-edges are
/// kept (they never change reachability, and direct recursion is what S5
/// looks for); test fns have no edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// Bare-name over-approximation: a reference `name` reaches every
    /// visible `fn name`. Right when seeds are rare, so over-reach is
    /// cheap and a missed edge would be a missed finding.
    Full,
    /// Owner- and crate-aware: `Owner::name` reaches only fns of that
    /// owner, `.name(…)` only fns of the caller's crate, free calls keep
    /// bare-name resolution — so `Vec::new` does not alias every workspace
    /// `new` where seeds (indexing, arithmetic) occur in almost every fn.
    Precise,
    /// [`Relation::Precise`] minus method calls, for cycle detection: a
    /// `.len()` call inside a fn named `len` is not recursion. Recursion
    /// through method dispatch is a documented blind spot.
    Cycle,
}

/// How a call site names its callee, which decides how precisely it
/// resolves.
#[derive(Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free (or locally imported) fn.
    Free,
    /// `Owner::name(…)` or the path value `Owner::name`.
    Qualified(String),
    /// `.name(…)` — method dispatch on a receiver of unknown type.
    Method,
}

/// One call reference inside a fn body.
pub struct CallRef {
    /// How the callee is named.
    pub kind: CallKind,
    /// The callee's bare name.
    pub name: String,
}

/// Builds a [`FileModel`] from source text.
pub fn lex_file(path: &str, crate_name: &str, src: &str) -> FileModel {
    let toks = lex(src);
    let test_mask = test_mask(&toks);
    FileModel {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        lines: src.lines().map(str::to_string).collect(),
        test_mask,
        toks,
    }
}

/// Assembles the workspace model: extracts fn items from every file and
/// indexes them. `deps` maps each crate to its *direct* path dependencies;
/// visibility is its transitive closure plus the crate itself.
pub fn build_model(mut files: Vec<FileModel>, deps: &BTreeMap<String, Vec<String>>) -> Model {
    propagate_test_mods(&mut files);
    let mut fns = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        extract_fns(fi, file, &mut fns);
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
    }
    let mut visible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates: BTreeSet<&String> = files.iter().map(|f| &f.crate_name).collect();
    for &krate in &crates {
        let mut seen = BTreeSet::from([krate.clone()]);
        let mut stack = vec![krate.clone()];
        while let Some(c) = stack.pop() {
            for d in deps.get(&c).into_iter().flatten() {
                if seen.insert(d.clone()) {
                    stack.push(d.clone());
                }
            }
        }
        visible.insert(krate.clone(), seen);
    }
    let mut model = Model {
        files,
        fns,
        by_name,
        visible,
        edges: Default::default(),
    };
    model.edges = model.call_graph();
    model
}

impl Model {
    /// The production fns outside `vendor/` — the ones the rooted passes
    /// seed. Vendored stand-ins join the call graph but are not seeded:
    /// their sites are charged to the workspace call site reaching them.
    pub fn seeded_fns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.fns.len()).filter(|&i| {
            let f = &self.fns[i];
            !f.in_test && !self.files[f.file].path.starts_with("vendor/")
        })
    }

    /// The adjacency lists of one call-graph relation.
    pub fn edges(&self, relation: Relation) -> &[Vec<usize>] {
        &self.edges[relation as usize]
    }

    /// Scans every production fn body once and resolves each call
    /// reference into all three relations.
    fn call_graph(&self) -> [Vec<Vec<usize>>; 3] {
        let mut edges: [Vec<Vec<usize>>; 3] =
            std::array::from_fn(|_| vec![Vec::new(); self.fns.len()]);
        for (i, f) in self.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let krate = &self.files[f.file].crate_name;
            for call in call_refs(&self.files[f.file].toks, f.body.clone()) {
                for j in self.resolve(krate, &call.name) {
                    let (precise, cycle) = match &call.kind {
                        CallKind::Free => (true, true),
                        CallKind::Qualified(owner) => {
                            let want = if owner == "Self" {
                                f.owner.as_deref()
                            } else {
                                Some(owner.as_str())
                            };
                            let same = self.fns[j].owner.as_deref() == want;
                            (same, same)
                        }
                        CallKind::Method => {
                            (self.files[self.fns[j].file].crate_name == *krate, false)
                        }
                    };
                    edges[Relation::Full as usize][i].push(j);
                    if precise {
                        edges[Relation::Precise as usize][i].push(j);
                    }
                    if cycle {
                        edges[Relation::Cycle as usize][i].push(j);
                    }
                }
            }
            for rel in &mut edges {
                rel[i].sort_unstable();
                rel[i].dedup();
            }
        }
        edges
    }

    /// All fn indices a reference to `name` from `caller_crate` may
    /// resolve to: workspace fns with that name, visible from the caller,
    /// excluding test items.
    pub fn resolve(&self, caller_crate: &str, name: &str) -> Vec<usize> {
        let Some(candidates) = self.by_name.get(name) else {
            return Vec::new();
        };
        let visible = self.visible.get(caller_crate);
        candidates
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.fns[i];
                !f.in_test && visible.is_none_or(|v| v.contains(&self.files[f.file].crate_name))
            })
            .collect()
    }

    /// Resolves a root spec — `name` or `Owner::name` — to fn indices.
    pub fn resolve_root(&self, spec: &str) -> Vec<usize> {
        let (owner, name) = match spec.split_once("::") {
            Some((o, n)) => (Some(o), n),
            None => (None, spec),
        };
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&i| {
                let f = &self.fns[i];
                !f.in_test && (owner.is_none() || f.owner.as_deref() == owner)
            })
            .collect()
    }
}

/// Marks the tokens of every `#[cfg(test)]`-gated item.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code = |t: &Tok| t.kind != TokKind::Comment;
    let mut i = 0;
    while i < toks.len() {
        // An outer attribute `#[ … ]`.
        if toks[i].is_punct('#') {
            let Some(open) = next_code(toks, i + 1) else {
                break;
            };
            if !toks[open].is_punct('[') {
                i += 1;
                continue;
            }
            let close = match_bracket(toks, open, '[', ']');
            if attr_is_cfg_test(&toks[open + 1..close]) {
                // The attribute covers the next item: attributes may stack,
                // so scan past further `#[…]` groups, then to the item's
                // end — the matching `}` of its first `{`, or a `;` first.
                let mut j = close + 1;
                while let Some(h) = next_code(toks, j) {
                    if toks[h].is_punct('#') {
                        let Some(o) = next_code(toks, h + 1) else {
                            break;
                        };
                        if toks[o].is_punct('[') {
                            j = match_bracket(toks, o, '[', ']') + 1;
                            continue;
                        }
                    }
                    break;
                }
                let mut end = toks.len() - 1;
                let mut k = j;
                while k < toks.len() {
                    if code(&toks[k]) && toks[k].is_punct(';') {
                        end = k;
                        break;
                    }
                    if code(&toks[k]) && toks[k].is_punct('{') {
                        end = match_bracket(toks, k, '{', '}');
                        break;
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Extends the `#[cfg(test)]` mask across file-form module declarations.
/// `#[cfg(test)] mod tests;` gates a *sibling file* that the lexer read
/// with no cfg context, so [`test_mask`] (which only sees one file's
/// tokens) stops at the `;` and the child's items would scan as
/// production code. This pass jumps files: whenever a masked `mod name;`
/// declaration is found, the child file (`dir/name.rs` or
/// `dir/name/mod.rs`) is masked whole. Iterates to a fixpoint so a masked
/// child's own `mod sub;` declarations propagate too.
fn propagate_test_mods(files: &mut [FileModel]) {
    let index: BTreeMap<String, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.clone(), i))
        .collect();
    let mut queue: Vec<usize> = (0..files.len()).collect();
    while let Some(fi) = queue.pop() {
        for name in masked_mod_decls(&files[fi]) {
            for child in child_module_paths(&files[fi].path, &name) {
                let Some(&ci) = index.get(&child) else {
                    continue;
                };
                if files[ci].test_mask.iter().any(|m| !*m) {
                    files[ci].test_mask.iter_mut().for_each(|m| *m = true);
                    queue.push(ci);
                }
            }
        }
    }
}

/// Names declared by `mod name;` items whose tokens are test-masked.
fn masked_mod_decls(file: &FileModel) -> Vec<String> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("mod") || !file.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(n) = next_code(toks, i + 1) else {
            continue;
        };
        if toks[n].kind != TokKind::Ident {
            continue;
        }
        let Some(s) = next_code(toks, n + 1) else {
            continue;
        };
        if toks[s].is_punct(';') {
            out.push(toks[n].text.clone());
        }
    }
    out
}

/// The two places a file-form child module can live, relative to the
/// declaring file: crate roots and `mod.rs` files own their directory,
/// any other file owns the directory named after it (2018 layout).
fn child_module_paths(parent: &str, name: &str) -> [String; 2] {
    let dir = match parent.rsplit_once('/') {
        Some((d, leaf)) => {
            if leaf == "lib.rs" || leaf == "main.rs" || leaf == "mod.rs" {
                d.to_string()
            } else {
                format!("{d}/{}", leaf.trim_end_matches(".rs"))
            }
        }
        None => parent.trim_end_matches(".rs").to_string(),
    };
    [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")]
}

fn next_code(toks: &[Tok], from: usize) -> Option<usize> {
    (from..toks.len()).find(|&i| toks[i].kind != TokKind::Comment)
}

/// Index of the bracket matching `toks[open]` (which must be `open_c`);
/// saturates at the last token on unbalanced input.
fn match_bracket(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len() - 1
}

/// Does an attribute body (the tokens between `[` and `]`) gate on `test`?
/// Handles `cfg(test)`, `cfg(all(test, …))`, `cfg(any(…, test))`; anything
/// under `not(…)` is ignored (so `cfg(not(test))` is production code).
fn attr_is_cfg_test(body: &[Tok]) -> bool {
    let Some(first) = next_code(body, 0) else {
        return false;
    };
    if !body[first].is_ident("cfg") {
        return false;
    }
    let Some(open) = next_code(body, first + 1) else {
        return false;
    };
    if !body[open].is_punct('(') {
        return false;
    }
    let close = match_bracket(body, open, '(', ')');
    cfg_pred_is_test(&body[open + 1..close])
}

fn cfg_pred_is_test(toks: &[Tok]) -> bool {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("test") {
            return true;
        }
        if (t.is_ident("all") || t.is_ident("any") || t.is_ident("not"))
            && next_code(toks, i + 1).is_some_and(|o| toks[o].is_punct('('))
        {
            let open = next_code(toks, i + 1).unwrap_or(i + 1);
            let close = match_bracket(toks, open, '(', ')');
            if !t.is_ident("not") && cfg_pred_is_test(&toks[open + 1..close]) {
                return true;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    false
}

/// The type name an `impl` block is for: the last path segment before the
/// generics/brace (after `for` when present, so trait impls attribute to
/// the implementing type).
fn impl_type_name(toks: &[Tok], impl_idx: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut after_for = false;
    let mut name: Option<String> = None;
    let mut for_name: Option<String> = None;
    for t in toks.iter().skip(impl_idx + 1) {
        match t.kind {
            TokKind::Comment => {}
            TokKind::Punct if t.is_punct('<') => angle += 1,
            TokKind::Punct if t.is_punct('>') => angle -= 1,
            TokKind::Punct if t.is_punct('{') && angle <= 0 => break,
            TokKind::Ident if angle == 0 => {
                if t.text == "for" {
                    after_for = true;
                } else if t.text != "where" && t.text != "dyn" && t.text != "mut" {
                    if after_for {
                        for_name = Some(t.text.clone());
                    } else {
                        name = Some(t.text.clone());
                    }
                }
            }
            _ => {}
        }
    }
    for_name.or(name)
}

/// Walks a file's tokens, pairing braces, and records every `fn` item with
/// its innermost `impl` owner.
fn extract_fns(file_idx: usize, file: &FileModel, out: &mut Vec<FnItem>) {
    enum Scope {
        Impl(Option<String>),
        Other,
    }
    let toks = &file.toks;
    let mut scopes: Vec<Scope> = Vec::new();
    // A declaration seen but whose body `{` has not opened yet.
    let mut pending_fn: Option<(String, u32, usize)> = None; // name, line, decl idx
    let mut pending_impl: Option<Option<String>> = None;
    let mut fn_starts: Vec<(usize, usize)> = Vec::new(); // (out idx, open idx)

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident if t.text == "impl" => {
                pending_impl = Some(impl_type_name(toks, i));
            }
            TokKind::Ident if t.text == "fn" => {
                if let Some(n) = next_code(toks, i + 1) {
                    if toks[n].kind == TokKind::Ident {
                        pending_fn = Some((toks[n].text.clone(), toks[n].line, n));
                        i = n;
                    }
                }
            }
            TokKind::Punct if t.is_punct(';') => {
                // A bodyless fn (trait method declaration, extern).
                pending_fn = None;
            }
            TokKind::Punct if t.is_punct('{') => {
                if let Some((name, line, _)) = pending_fn.take() {
                    let owner = scopes.iter().rev().find_map(|s| match s {
                        Scope::Impl(n) => Some(n.clone()),
                        Scope::Other => None,
                    });
                    out.push(FnItem {
                        file: file_idx,
                        name,
                        owner: owner.flatten(),
                        line,
                        body: i..i, // end patched when the brace closes
                        in_test: file.test_mask.get(i).copied().unwrap_or(false),
                    });
                    fn_starts.push((out.len() - 1, i));
                    scopes.push(Scope::Other);
                } else if let Some(owner) = pending_impl.take() {
                    scopes.push(Scope::Impl(owner));
                } else {
                    scopes.push(Scope::Other);
                }
            }
            TokKind::Punct if t.is_punct('}') => {
                scopes.pop();
                // Close any fn whose body opened at the scope we just left.
                if let Some(&(fi, open)) = fn_starts.last() {
                    if brace_balance(toks, open, i) {
                        out[fi].body = open..i + 1;
                        fn_starts.pop();
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unbalanced input: close remaining fns at EOF.
    for (fi, open) in fn_starts {
        out[fi].body = open..toks.len();
    }
}

/// True when `toks[open..=close]` is brace-balanced (close matches open).
fn brace_balance(toks: &[Tok], open: usize, close: usize) -> bool {
    let mut depth = 0i64;
    for t in &toks[open..=close] {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        }
    }
    depth == 0
}

/// Call references inside `body`, in order: identifiers immediately
/// followed by `(` (calls), and identifiers immediately preceded by `::`
/// (path values like `Type::method` passed as callbacks). Declaration
/// names (`fn x`), macro invocations (`name!`) and field accesses are not
/// references.
pub fn call_refs(toks: &[Tok], body: Range<usize>) -> Vec<CallRef> {
    let code = code(toks, body);
    let at = |ci: Option<usize>| ci.and_then(|c| code.get(c)).map(|&i| &toks[i]);
    let mut out = Vec::new();
    for (ci, &i) in code.iter().enumerate() {
        let t = &toks[i];
        let (prev, next) = (at(ci.checked_sub(1)), at(Some(ci + 1)));
        if t.kind != TokKind::Ident || prev.is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        let after_path = prev.is_some_and(|p| p.kind == TokKind::PathSep);
        let is_call = next.is_some_and(|n| n.is_punct('('));
        if !is_call && (!after_path || next.is_some_and(|n| n.is_punct('!'))) {
            continue;
        }
        let kind = if prev.is_some_and(|p| p.is_punct('.')) {
            CallKind::Method
        } else if after_path {
            // `<T as Trait>::name` has no nameable owner: bare-name.
            match at(ci.checked_sub(2)).filter(|o| o.kind == TokKind::Ident) {
                Some(owner) => CallKind::Qualified(owner.text.clone()),
                None => CallKind::Free,
            }
        } else {
            CallKind::Free
        };
        out.push(CallRef {
            kind,
            name: t.text.clone(),
        });
    }
    out
}

/// Per-token loop context inside a fn body, for the cost pass.
///
/// For each token index in `body` (parallel to `body.clone()`), records
/// `(depth, loop_line)`: how many `for`/`while`/`loop` bodies enclose the
/// token, and the 1-based source line of the innermost enclosing loop
/// header (0 when the token is outside every loop). Like the call graph,
/// this is an over-approximation — a brace-bearing expression between a
/// loop keyword and its body (a closure in the iterator chain, say) can
/// start the loop scope one brace early — which can only make the cost
/// rules stricter, never blind.
pub fn loop_depths(toks: &[Tok], body: Range<usize>) -> Vec<(u32, u32)> {
    let slice = &toks[body];
    let mut out = Vec::with_capacity(slice.len());
    // One entry per open brace: Some(header line) for loop bodies.
    let mut scopes: Vec<Option<u32>> = Vec::new();
    let mut depth = 0u32;
    let mut innermost = 0u32;
    let mut pending_loop: Option<u32> = None;
    let mut i = 0;
    while i < slice.len() {
        let t = &slice[i];
        match t.kind {
            TokKind::Ident if t.text == "for" || t.text == "while" || t.text == "loop" => {
                // `for<'a>` higher-ranked bounds are not loops.
                let hrtb = t.text == "for"
                    && next_code(slice, i + 1).is_some_and(|n| slice[n].is_punct('<'));
                if !hrtb {
                    pending_loop = Some(t.line);
                }
            }
            TokKind::Punct if t.is_punct(';') => pending_loop = None,
            TokKind::Punct if t.is_punct('{') => {
                let header = pending_loop.take();
                if let Some(line) = header {
                    depth += 1;
                    innermost = line;
                }
                scopes.push(header);
            }
            TokKind::Punct if t.is_punct('}') => {
                if let Some(Some(_)) = scopes.pop() {
                    depth = depth.saturating_sub(1);
                    innermost = scopes.iter().rev().find_map(|s| *s).unwrap_or(0);
                }
            }
            _ => {}
        }
        out.push((depth, if depth == 0 { 0 } else { innermost }));
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        let file = lex_file("src/lib.rs", "demo", src);
        build_model(vec![file], &BTreeMap::new())
    }

    #[test]
    fn extracts_free_and_impl_fns() {
        let m = model_of(
            "fn alpha() { beta(); }\n\
             struct S;\n\
             impl S { fn beta(&self) -> u32 { 1 } }\n\
             impl std::fmt::Display for S { fn fmt(&self) {} }",
        );
        let names: Vec<String> = m.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(names, vec!["alpha", "S::beta", "S::fmt"]);
    }

    #[test]
    fn call_refs_capture_calls_and_path_values() {
        let m = model_of("fn a() { b(); items.map(Type::c); let x = d; vec![e]; m!(); }\n");
        let refs: BTreeMap<String, CallKind> = call_refs(&m.files[0].toks, m.fns[0].body.clone())
            .into_iter()
            .map(|c| (c.name, c.kind))
            .collect();
        assert_eq!(refs.get("b"), Some(&CallKind::Free));
        assert_eq!(
            refs.get("c"),
            Some(&CallKind::Qualified("Type".into())),
            "path value Type::c is a reference"
        );
        assert_eq!(refs.get("map"), Some(&CallKind::Method));
        assert!(!refs.contains_key("d"), "bare ident is not a reference");
        assert!(!refs.contains_key("m"), "macro invocation is not a fn call");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let m = model_of(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n    fn helper() {}\n}\n\
             fn also_prod() {}\n",
        );
        let flags: Vec<(String, bool)> =
            m.fns.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("prod".into(), false),
                ("helper".into(), true),
                ("also_prod".into(), false)
            ]
        );
    }

    #[test]
    fn file_form_test_mod_masks_the_child_file() {
        // `#[cfg(test)] mod tests;` gates a sibling file; items in that
        // file must scan as test code even though the file itself carries
        // no cfg attribute.
        let parent = lex_file(
            "crates/demo/src/lib.rs",
            "demo",
            "fn prod() {}\n#[cfg(test)]\nmod tests;\n",
        );
        let child = lex_file(
            "crates/demo/src/tests.rs",
            "demo",
            "fn helper() { let t = Instant::now(); }\nmod sub;\n",
        );
        // The fixpoint must carry the mask through the child's own
        // file-form submodule too.
        let grandchild = lex_file("crates/demo/src/tests/sub.rs", "demo", "fn deeper() {}\n");
        let m = build_model(vec![parent, child, grandchild], &BTreeMap::new());
        let flags: Vec<(String, bool)> =
            m.fns.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("prod".into(), false),
                ("helper".into(), true),
                ("deeper".into(), true)
            ]
        );
    }

    #[test]
    fn plain_file_mods_stay_production() {
        let parent = lex_file("crates/demo/src/lib.rs", "demo", "mod util;\n");
        let child = lex_file("crates/demo/src/util.rs", "demo", "fn real_work() {}\n");
        let m = build_model(vec![parent, child], &BTreeMap::new());
        assert!(!m.fns[0].in_test);
    }

    #[test]
    fn loop_depths_track_nesting_and_header_lines() {
        let m = model_of(
            "fn f() {\n    let a = 1;\n    for x in 0..2 {\n        g();\n        while x > 0 {\n            h();\n        }\n    }\n    tail();\n}\n",
        );
        let body = m.fns[0].body.clone();
        let toks = &m.files[0].toks;
        let depths = loop_depths(toks, body.clone());
        let at = |name: &str| {
            let i = (body.clone())
                .position(|i| toks[i].is_ident(name))
                .expect(name);
            depths[i]
        };
        assert_eq!(at("a"), (0, 0));
        assert_eq!(at("g"), (1, 3), "g is one loop deep, loop on line 3");
        assert_eq!(at("h"), (2, 5), "h is two deep, innermost while on line 5");
        assert_eq!(at("tail"), (0, 0), "depth unwinds after the loop closes");
    }

    #[test]
    fn loop_depths_ignore_hrtb_for() {
        let m =
            model_of("fn f() {\n    let g: &dyn for<'a> Fn(&'a u8) = &|_| ();\n    g(&0);\n}\n");
        let body = m.fns[0].body.clone();
        let depths = loop_depths(&m.files[0].toks, body);
        assert!(depths.iter().all(|&(d, _)| d == 0));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let m = model_of("#[cfg(not(test))]\nfn guard() {}\n");
        assert!(!m.fns[0].in_test);
        let m = model_of("#[cfg(all(test, feature = \"x\"))]\nfn gated() {}\n");
        assert!(m.fns[0].in_test);
    }
}

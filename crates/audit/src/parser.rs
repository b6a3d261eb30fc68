//! A lightweight Rust *item* parser over the lexer's token stream.
//!
//! Granularity is `fn` / `impl` / `trait` / `struct` / `mod` — deliberately
//! no expression grammar. The parser extracts exactly what the call-graph
//! passes need:
//!
//! * every function with its enclosing `impl` type and implemented trait,
//!   its parameter names and *base types*, and its body token range;
//! * every struct's field-name → base-type map (so `self.field.method(..)`
//!   receivers resolve to concrete types);
//! * every trait's method-name list (so calls through `dyn Trait` objects
//!   fan out to all implementations);
//! * audit markers read from comments: `audit:hot-path` (extra
//!   alloc-reachability root), `audit:alloc-exempt` (construction-time
//!   function or impl, pruned from the hot closure), `audit:spawn-site`
//!   (accounted thread-spawn location), `audit:canonical-output` (extra
//!   determinism-emission root). A marker applies to the `fn` or `impl`
//!   declared on the same line or within the three lines below it; markers
//!   on an `impl` apply to every function in the block.
//!
//! A *base type* is the innermost meaningful type name: `Vec<PwSet>` → the
//! type `PwSet`, `Box<dyn PwReplacementPolicy>` → the trait
//! `PwReplacementPolicy`, `&'a [PwMeta]` → `PwMeta`. Smart-pointer and
//! container wrappers are stripped because method calls auto-deref through
//! them in practice for the patterns this codebase uses.

use crate::lexer::{Tok, TokKind};

/// Container/pointer wrappers stripped when extracting a base type.
const WRAPPERS: [&str; 12] = [
    "Vec",
    "VecDeque",
    "Box",
    "Option",
    "Arc",
    "Rc",
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "Pin",
    "ManuallyDrop",
];

/// Audit markers attached to a function (possibly inherited from its impl).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Markers {
    /// `audit:hot-path` — the fn is an alloc-reachability root.
    pub hot_path: bool,
    /// `audit:alloc-exempt` — construction-time; pruned from the closure.
    pub alloc_exempt: bool,
    /// `audit:spawn-site` — accounted thread-spawn location.
    pub spawn_site: bool,
    /// `audit:canonical-output` — determinism-emission root.
    pub canonical_output: bool,
}

impl Markers {
    fn merge(self, other: Markers) -> Markers {
        Markers {
            hot_path: self.hot_path || other.hot_path,
            alloc_exempt: self.alloc_exempt || other.alloc_exempt,
            spawn_site: self.spawn_site || other.spawn_site,
            canonical_output: self.canonical_output || other.canonical_output,
        }
    }

    fn any(self) -> bool {
        self.hot_path || self.alloc_exempt || self.spawn_site || self.canonical_output
    }
}

/// A parsed function item.
#[derive(Clone, Debug)]
pub(crate) struct FnItem {
    /// The function name.
    pub name: String,
    /// The `impl` block's type (`impl PwSet` → `PwSet`), or for a trait's
    /// default method, the trait name itself.
    pub self_type: Option<String>,
    /// The trait being implemented, if this fn sits in `impl Trait for T`
    /// (or is a trait default method).
    pub trait_impl: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (for `#[cfg(test)]`-range checks).
    pub decl_tok: usize,
    /// Body token range `[start, end)`, exclusive of the braces. `None` for
    /// bodyless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Parameter `(name, base_type)` pairs; the receiver is omitted.
    pub params: Vec<(String, String)>,
    /// Markers from comments (fn-level merged with impl-level).
    pub markers: Markers,
}

/// A parsed struct with its field-name → base-type pairs.
#[derive(Clone, Debug)]
pub(crate) struct StructItem {
    /// The struct name.
    pub name: String,
    /// `(field, base_type)` pairs for named-field structs.
    pub fields: Vec<(String, String)>,
}

/// A parsed trait with its method names.
#[derive(Clone, Debug)]
pub(crate) struct TraitItem {
    /// The trait name.
    pub name: String,
    /// Names of all methods (defaulted or not) declared by the trait.
    pub methods: Vec<String>,
}

/// All items parsed from one file.
#[derive(Clone, Debug, Default)]
pub(crate) struct FileItems {
    /// Functions (free, inherent, trait-impl, and trait-default).
    pub fns: Vec<FnItem>,
    /// Structs with named fields.
    pub structs: Vec<StructItem>,
    /// Trait declarations.
    pub traits: Vec<TraitItem>,
}

/// Extracts audit markers from a file's comments as `(line, marker)` pairs.
fn comment_markers(comments: &[(u32, String)]) -> Vec<(u32, Markers)> {
    comments
        .iter()
        .filter_map(|(line, text)| {
            let m = Markers {
                hot_path: text.contains("audit:hot-path"),
                alloc_exempt: text.contains("audit:alloc-exempt"),
                spawn_site: text.contains("audit:spawn-site"),
                canonical_output: text.contains("audit:canonical-output"),
            };
            m.any().then_some((*line, m))
        })
        .collect()
}

/// Parser state threaded through the item walk.
struct Parser<'a> {
    toks: &'a [Tok],
    /// Unconsumed `(line, markers)` pairs, in source order.
    markers: Vec<(u32, Markers)>,
    out: FileItems,
}

impl Parser<'_> {
    /// Consumes markers attributable to an item declared at `decl_line`:
    /// same line (trailing comment) or up to three lines above.
    fn take_markers(&mut self, decl_line: u32) -> Markers {
        let lo = decl_line.saturating_sub(3);
        let mut acc = Markers::default();
        self.markers.retain(|(line, m)| {
            if (lo..=decl_line).contains(line) {
                acc = acc.merge(*m);
                false
            } else {
                true
            }
        });
        acc
    }

    /// Index just past the bracket group opening at `open` (`(`/`[`/`{`),
    /// balanced over all three bracket kinds.
    fn skip_group(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.toks[i].text.as_str() {
                "(" | "[" | "{" if self.toks[i].kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if self.toks[i].kind == TokKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Index just past a generics group opening with `<` at `open`.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.toks[i].text.as_str() {
                "<" if self.toks[i].kind == TokKind::Punct => depth += 1,
                ">" if self.toks[i].kind == TokKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Parses the items in `toks[i..end)`; returns with `self.out` filled.
    ///
    /// `self_type`/`trait_impl` carry the enclosing `impl` context;
    /// `in_trait` is set inside a `trait` declaration body;
    /// `inherited` holds impl-level markers to merge into each fn.
    #[allow(clippy::too_many_lines)]
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        self_type: Option<&str>,
        trait_impl: Option<&str>,
        in_trait: Option<&str>,
        inherited: Markers,
    ) {
        while i < end {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                if t.is_punct("#") {
                    // Attribute: `#[..]` or `#![..]` — skip the bracket group.
                    let mut j = i + 1;
                    if self.toks.get(j).is_some_and(|t| t.is_punct("!")) {
                        j += 1;
                    }
                    if self.toks.get(j).is_some_and(|t| t.is_punct("[")) {
                        i = self.skip_group(j);
                        continue;
                    }
                } else if t.is_punct("{") {
                    i = self.skip_group(i);
                    continue;
                }
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "fn" if self.toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) => {
                    i = self.parse_fn(i, end, self_type, trait_impl, in_trait, inherited);
                }
                "impl" => {
                    i = self.parse_impl(i, end);
                }
                "trait" if self.toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) => {
                    i = self.parse_trait(i, end);
                }
                "struct" if self.toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) => {
                    i = self.parse_struct(i, end);
                }
                "enum" | "union" | "macro_rules" => {
                    // Skip to the body braces (or terminating `;`) and past.
                    let mut j = i + 1;
                    while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
                        j += 1;
                    }
                    i = if self.toks.get(j).is_some_and(|t| t.is_punct("{")) {
                        self.skip_group(j)
                    } else {
                        j + 1
                    };
                }
                "mod" => {
                    // `mod name { .. }` — recurse; `mod name;` — skip.
                    let mut j = i + 1;
                    while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
                        j += 1;
                    }
                    if self.toks.get(j).is_some_and(|t| t.is_punct("{")) {
                        let close = self.skip_group(j);
                        self.items(j + 1, close.saturating_sub(1), None, None, None, inherited);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                "const" | "static" if !self.toks.get(i + 1).is_some_and(|t| t.is_ident("fn")) => {
                    // `const NAME: T = expr;` — skip to the `;`, balancing
                    // any brace/paren groups in the initializer.
                    let mut j = i + 1;
                    while j < end {
                        let tj = &self.toks[j];
                        if tj.is_punct(";") {
                            j += 1;
                            break;
                        }
                        if tj.is_punct("{") || tj.is_punct("(") || tj.is_punct("[") {
                            j = self.skip_group(j);
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                }
                "use" | "extern" | "type" => {
                    while i < end && !self.toks[i].is_punct(";") {
                        i += 1;
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Parses a `fn` at token `i`; returns the index just past the item.
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        self_type: Option<&str>,
        trait_impl: Option<&str>,
        in_trait: Option<&str>,
        inherited: Markers,
    ) -> usize {
        let name = self.toks[i + 1].text.clone();
        let line = self.toks[i].line;
        let mut j = i + 2;
        if self.toks.get(j).is_some_and(|t| t.is_punct("<")) {
            j = self.skip_angles(j);
        }
        let params = if self.toks.get(j).is_some_and(|t| t.is_punct("(")) {
            let close = self.skip_group(j);
            let p = self.parse_params(j + 1, close.saturating_sub(1));
            j = close;
            p
        } else {
            Vec::new()
        };
        // Skip the return type / where clause to the body or `;`.
        while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
            j += 1;
        }
        let markers = self.take_markers(line).merge(inherited);
        if let Some(tr) = in_trait {
            // Record the method on the trait regardless of a default body.
            if let Some(t) = self.out.traits.iter_mut().find(|t| t.name == tr) {
                if !t.methods.contains(&name) {
                    t.methods.push(name.clone());
                }
            }
        }
        if self.toks.get(j).is_some_and(|t| t.is_punct("{")) {
            let close = self.skip_group(j);
            let (st, ti) = match in_trait {
                // A trait default method: callable on any implementor.
                Some(tr) => (Some(tr.to_string()), Some(tr.to_string())),
                None => (
                    self_type.map(str::to_string),
                    trait_impl.map(str::to_string),
                ),
            };
            self.out.fns.push(FnItem {
                name,
                self_type: st,
                trait_impl: ti,
                line,
                decl_tok: i,
                body: Some((j + 1, close.saturating_sub(1))),
                params,
                markers,
            });
            close
        } else {
            // Bodyless signature (trait method or extern): no FnItem.
            j + 1
        }
    }

    /// Parses `impl .. {` at token `i`; returns index just past the block.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let line = self.toks[i].line;
        let mut j = i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_punct("<")) {
            j = self.skip_angles(j);
        }
        let header_start = j;
        while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
            j += 1;
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct("{")) {
            return j + 1;
        }
        let header = &self.toks[header_start..j];
        // Truncate at a top-level `where`.
        let header_end = header
            .iter()
            .position(|t| t.is_ident("where"))
            .unwrap_or(header.len());
        let header = &header[..header_end];
        let for_pos = header.iter().position(|t| t.is_ident("for"));
        let (ty, tr) = match for_pos {
            Some(f) => {
                let tr = path_tail(&header[..f]);
                let ty = extract_base(&header[f + 1..]);
                (ty, tr)
            }
            None => (extract_base(header), None),
        };
        let markers = self.take_markers(line);
        let close = self.skip_group(j);
        self.items(
            j + 1,
            close.saturating_sub(1),
            ty.as_deref(),
            tr.as_deref(),
            None,
            markers,
        );
        close
    }

    /// Parses `trait Name .. {` at token `i`.
    fn parse_trait(&mut self, i: usize, end: usize) -> usize {
        let name = self.toks[i + 1].text.clone();
        let mut j = i + 2;
        while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
            j += 1;
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct("{")) {
            return j + 1;
        }
        self.out.traits.push(TraitItem {
            name: name.clone(),
            methods: Vec::new(),
        });
        let close = self.skip_group(j);
        self.items(
            j + 1,
            close.saturating_sub(1),
            None,
            None,
            Some(&name),
            Markers::default(),
        );
        close
    }

    /// Parses `struct Name .. { fields }` (or tuple/unit struct) at `i`.
    fn parse_struct(&mut self, i: usize, end: usize) -> usize {
        let name = self.toks[i + 1].text.clone();
        let mut j = i + 2;
        if self.toks.get(j).is_some_and(|t| t.is_punct("<")) {
            j = self.skip_angles(j);
        }
        while j < end
            && !self.toks[j].is_punct("{")
            && !self.toks[j].is_punct("(")
            && !self.toks[j].is_punct(";")
        {
            j += 1;
        }
        match self.toks.get(j) {
            Some(t) if t.is_punct("{") => {
                let close = self.skip_group(j);
                let fields = self.parse_fields(j + 1, close.saturating_sub(1));
                self.out.structs.push(StructItem { name, fields });
                close
            }
            Some(t) if t.is_punct("(") => {
                // Tuple struct: skip the group and the trailing `;`.
                let close = self.skip_group(j);
                self.out.structs.push(StructItem {
                    name,
                    fields: Vec::new(),
                });
                close + 1
            }
            _ => j + 1,
        }
    }

    /// Parses named struct fields in `toks[i..end)`.
    fn parse_fields(&mut self, mut i: usize, end: usize) -> Vec<(String, String)> {
        let mut fields = Vec::new();
        while i < end {
            let t = &self.toks[i];
            if t.is_punct("#") {
                // Field attribute.
                if self.toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
                    i = self.skip_group(i + 1);
                    continue;
                }
            }
            if t.is_ident("pub") {
                i += 1;
                if self.toks.get(i).is_some_and(|t| t.is_punct("(")) {
                    i = self.skip_group(i);
                }
                continue;
            }
            if t.kind == TokKind::Ident && self.toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
                let fname = t.text.clone();
                // Type tokens run to the next top-level comma.
                let mut j = i + 2;
                let mut depth = 0i32;
                while j < end {
                    let tj = &self.toks[j];
                    match tj.text.as_str() {
                        "(" | "[" | "{" | "<" if tj.kind == TokKind::Punct => depth += 1,
                        ")" | "]" | "}" | ">" if tj.kind == TokKind::Punct => depth -= 1,
                        "," if tj.kind == TokKind::Punct && depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(base) = extract_base(&self.toks[i + 2..j]) {
                    fields.push((fname, base));
                }
                i = j + 1;
                continue;
            }
            i += 1;
        }
        fields
    }

    /// Parses fn parameters in `toks[i..end)` into `(name, base_type)`.
    fn parse_params(&self, i: usize, end: usize) -> Vec<(String, String)> {
        let mut params = Vec::new();
        // Split on top-level commas.
        let mut seg_start = i;
        let mut depth = 0i32;
        let mut k = i;
        let mut flush = |seg: &[Tok]| {
            if let Some(p) = parse_one_param(seg) {
                params.push(p);
            }
        };
        while k < end {
            let t = &self.toks[k];
            match t.text.as_str() {
                "(" | "[" | "{" | "<" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" | ">" if t.kind == TokKind::Punct => depth -= 1,
                "," if t.kind == TokKind::Punct && depth == 0 => {
                    flush(&self.toks[seg_start..k]);
                    seg_start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        flush(&self.toks[seg_start..end]);
        params
    }
}

/// Parses one `name: Type` parameter segment; receivers and non-identifier
/// patterns yield `None`.
fn parse_one_param(seg: &[Tok]) -> Option<(String, String)> {
    // Find the first top-level `:`.
    let mut depth = 0i32;
    let mut colon = None;
    for (k, t) in seg.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" | ">" if t.kind == TokKind::Punct => depth -= 1,
            ":" if t.kind == TokKind::Punct && depth == 0 => {
                colon = Some(k);
                break;
            }
            _ => {}
        }
    }
    let colon = colon?;
    // The receiver (`self`, `&mut self`, ..) has no top-level colon, but
    // `self: Box<Self>` does — reject any segment naming `self`.
    if seg[..colon].iter().any(|t| t.is_ident("self")) {
        return None;
    }
    // Only simple `name: Type` (optionally `mut name`) patterns are useful
    // for receiver typing; tuple/struct patterns have a non-ident token
    // right before the colon and are skipped.
    let name_tok = seg.get(colon.checked_sub(1)?)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let base = extract_base(&seg[colon + 1..])?;
    Some((name_tok.text.clone(), base))
}

/// The first path-resolved identifier in a token slice: skips `&`, `mut`,
/// `dyn`, `impl`, lifetimes, wrapper generics and path qualifiers.
/// `Box<dyn PwReplacementPolicy>` → `PwReplacementPolicy`;
/// `std::sync::Mutex<Inner>` → `Inner`; `&'a [PwMeta]` → `PwMeta`.
pub(crate) fn extract_base(toks: &[Tok]) -> Option<String> {
    let mut last_wrapper: Option<&str> = None;
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            let qualified = toks.get(k + 1).is_some_and(|n| n.is_punct("::"));
            if qualified || matches!(name, "dyn" | "mut" | "impl" | "const" | "as") {
                k += 1;
                continue;
            }
            if WRAPPERS.contains(&name) {
                last_wrapper = Some(name);
                k += 1;
                continue;
            }
            return Some(name.to_string());
        }
        k += 1;
    }
    // `Box<[u8]>`-style: nothing but wrappers and primitives-by-punct; the
    // outermost wrapper is still a useful (if vague) answer.
    last_wrapper.map(str::to_string)
}

/// The trait name from an impl header's pre-`for` tokens: the tail of the
/// first path (`uopcache_cache::PwReplacementPolicy` → the latter; `From<X>`
/// → `From`).
fn path_tail(toks: &[Tok]) -> Option<String> {
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut" | "impl") {
            if toks.get(k + 1).is_some_and(|n| n.is_punct("::")) {
                k += 2;
                continue;
            }
            return Some(t.text.clone());
        }
        k += 1;
    }
    None
}

/// Parses the items of one tokenized file.
pub(crate) fn parse_items(toks: &[Tok], comments: &[(u32, String)]) -> FileItems {
    let mut p = Parser {
        toks,
        markers: comment_markers(comments),
        out: FileItems::default(),
    };
    p.items(0, toks.len(), None, None, None, Markers::default());
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize_full;

    fn parse(src: &str) -> FileItems {
        let lexed = tokenize_full(src);
        parse_items(&lexed.toks, &lexed.comments)
    }

    #[test]
    fn fns_get_impl_and_trait_context() {
        let items = parse(
            "struct S { policy: Box<dyn Pol>, sets: Vec<Set> }\n\
             trait Pol { fn hook(&mut self); fn dflt(&self) { self.hook(); } }\n\
             impl Pol for S { fn hook(&mut self) {} }\n\
             impl S { fn helper(&self, x: &Set) -> u32 { 0 } }\n\
             fn free(a: u64) {}\n",
        );
        let names: Vec<_> = items
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.self_type.as_deref(),
                    f.trait_impl.as_deref(),
                )
            })
            .collect();
        assert!(names.contains(&("dflt", Some("Pol"), Some("Pol"))));
        assert!(names.contains(&("hook", Some("S"), Some("Pol"))));
        assert!(names.contains(&("helper", Some("S"), None)));
        assert!(names.contains(&("free", None, None)));
        let s = &items.structs[0];
        assert_eq!(
            s.fields,
            vec![
                ("policy".to_string(), "Pol".to_string()),
                ("sets".to_string(), "Set".to_string()),
            ]
        );
        let t = &items.traits[0];
        assert_eq!(t.methods, vec!["hook".to_string(), "dflt".to_string()]);
    }

    #[test]
    fn params_capture_base_types() {
        let items = parse("fn f(a: &mut Vec<PwMeta>, _b: usize, (c, d): (u8, u8)) {}");
        assert_eq!(
            items.fns[0].params,
            vec![
                ("a".to_string(), "PwMeta".to_string()),
                ("_b".to_string(), "usize".to_string()),
            ]
        );
    }

    #[test]
    fn markers_attach_to_next_item_and_propagate_from_impl() {
        let items = parse(
            "// audit:hot-path\nfn hot() {}\nfn cold() {}\n\
             // audit:alloc-exempt — conformance harness\nimpl C {\n  fn a(&self) {}\n  fn b(&self) {}\n}\n",
        );
        let by_name = |n: &str| items.fns.iter().find(|f| f.name == n).expect("fn exists");
        assert!(by_name("hot").markers.hot_path);
        assert!(!by_name("cold").markers.hot_path);
        assert!(by_name("a").markers.alloc_exempt);
        assert!(by_name("b").markers.alloc_exempt);
    }

    #[test]
    fn impl_of_boxed_trait_object_resolves_to_trait_name() {
        let items = parse("impl Pol for Box<dyn Pol> { fn hook(&mut self) {} }");
        assert_eq!(items.fns[0].self_type.as_deref(), Some("Pol"));
        assert_eq!(items.fns[0].trait_impl.as_deref(), Some("Pol"));
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_the_walk() {
        let items = parse(
            "impl<P: Pol + Send> Wrapper<P> where P: Clone {\n\
             fn get<Q: Into<u64>>(&self, q: Q) -> u64 { q.into() }\n}",
        );
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].self_type.as_deref(), Some("Wrapper"));
        assert_eq!(items.fns[0].trait_impl, None);
    }
}

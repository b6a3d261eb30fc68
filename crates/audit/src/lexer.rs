//! A small hand-rolled Rust tokenizer — just enough lexical fidelity for the
//! audit's lint rules.
//!
//! The lexer skips comments (line, nested block, and doc comments — so code
//! inside doctests is exempt from the lint rules) and understands string,
//! raw-string, byte-string and char literals well enough never to misread
//! their contents as code. It is not a full Rust lexer: tokens the rules do
//! not care about are lumped into single- or double-character punctuation.

/// Kinds of token the audit rules inspect.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub(crate) enum TokKind {
    /// An identifier or keyword (`unwrap`, `as`, `impl`, ...).
    Ident,
    /// A numeric literal, integer or float, with any suffix.
    Num,
    /// A string literal (normal or raw); `text` holds the *contents*.
    Str,
    /// A char literal.
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// Punctuation; `text` is the operator itself (`==`, `.`, `{`, ...).
    Punct,
}

/// One token with its 1-indexed source line.
#[derive(Clone, Debug)]
pub(crate) struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (for [`TokKind::Str`], the unescaped-as-written
    /// contents without the delimiters).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A lexed file: code tokens plus the comments that were skipped over.
///
/// Comments are returned separately (rather than interleaved) so the token
/// windows the rules match against are unaffected, while comment-driven
/// markers (`audit:allow(..)`, `audit:hot-path`, ...) can be read from real
/// comments only — a string literal containing `audit:allow(...)` is a
/// [`TokKind::Str`] token and can never suppress a rule.
pub(crate) struct Lexed {
    /// The code tokens, comments and whitespace skipped.
    pub toks: Vec<Tok>,
    /// One entry per comment: the text without delimiters (for line and doc
    /// comments, without the leading `//`/`///`; for block comments, the
    /// interior), at the line the comment starts on.
    pub comments: Vec<(u32, String)>,
}

/// Tokenizes `src`, skipping whitespace and collecting the comments
/// separately (see [`Lexed`]).
///
/// Unterminated strings or comments end the token stream early rather than
/// erroring: the audit lints best-effort rather than refusing a file.
pub(crate) fn tokenize_full(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments: Vec<(u32, String)> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    // Source files are far below 2^32 lines, so the count fits in u32.
    #[allow(clippy::cast_possible_truncation)]
    let bump_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if b[i + 1] == '/' {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i]
                    .iter()
                    .collect::<String>()
                    .trim_start_matches('/')
                    .trim_start_matches('!')
                    .to_string();
                comments.push((line, text));
                continue;
            }
            if b[i + 1] == '*' {
                let mut depth = 1;
                let start = i;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && b[i] == '/' && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && b[i] == '*' && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let interior: String = b[start + 2..i.saturating_sub(2).max(start + 2)]
                    .iter()
                    .collect();
                comments.push((line, interior));
                line += bump_lines(&b[start..i]);
                continue;
            }
        }
        // Raw strings / raw byte strings: r"..", r#".."#, br#".."#.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (prefix_len, is_raw) = match (c, b.get(i + 1), b.get(i + 2)) {
                ('r', Some('"' | '#'), _) => (1, true),
                ('b', Some('r'), Some('"' | '#')) => (2, true),
                _ => (0, false),
            };
            if is_raw {
                let start_line = line;
                let mut j = i + prefix_len;
                let mut hashes = 0;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    j += 1;
                    let content_start = j;
                    let closer: String = std::iter::once('"')
                        .chain(std::iter::repeat_n('#', hashes))
                        .collect();
                    let rest: String = b[j..].iter().collect();
                    let end = rest
                        .find(&closer)
                        .map_or(n, |p| j + rest[..p].chars().count());
                    let text: String = b[content_start..end.min(n)].iter().collect();
                    line += bump_lines(&b[i..end.min(n)]);
                    i = (end + closer.chars().count()).min(n);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text,
                        line: start_line,
                    });
                    continue;
                }
            }
        }
        // Normal strings and byte strings.
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"')) {
            let start_line = line;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let content_start = j;
            while j < n {
                match b[j] {
                    '\\' => j += 2,
                    '"' => break,
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
            }
            let text: String = b[content_start..j.min(n)].iter().collect();
            i = (j + 1).min(n);
            toks.push(Tok {
                kind: TokKind::Str,
                text,
                line: start_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = b.get(i + 1).copied().unwrap_or(' ');
            let after = b.get(i + 2).copied().unwrap_or(' ');
            let is_lifetime =
                (next.is_alphabetic() || next == '_') && after != '\'' && next != '\\';
            if is_lifetime {
                let mut j = i + 1;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: b[i + 1..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            // Char literal: scan to the closing quote, honouring escapes.
            let mut j = i + 1;
            while j < n && b[j] != '\'' {
                if b[j] == '\\' {
                    j += 1;
                }
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Char,
                text: b[i + 1..j.min(n)].iter().collect(),
                line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Numbers: digits, radix prefixes, suffixes and exponents, plus a
        // fractional `.` only when a digit follows (`1..x` is a range and
        // `1.max(..)` a method call).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n {
                let d = b[j];
                // `1e-9`, but not `0x1e - 3` or `2usize - 1`.
                let exp_sign = (d == '+' || d == '-')
                    && matches!(b[j - 1], 'e' | 'E')
                    && b[j - 2].is_ascii_digit()
                    && !matches!(b.get(i + 1), Some('x' | 'X'));
                let fraction = d == '.' && b.get(j + 1).is_some_and(char::is_ascii_digit);
                if d.is_ascii_alphanumeric() || d == '_' || exp_sign || fraction {
                    j += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: b[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Identifiers and keywords (including r# raw identifiers).
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: b[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Two-character operators the rules care about, then single chars.
        let two: Option<&str> = if i + 1 < n {
            match (c, b[i + 1]) {
                ('=', '=') => Some("=="),
                ('!', '=') => Some("!="),
                ('<', '=') => Some("<="),
                ('>', '=') => Some(">="),
                ('&', '&') => Some("&&"),
                ('|', '|') => Some("||"),
                (':', ':') => Some("::"),
                ('-', '>') => Some("->"),
                ('=', '>') => Some("=>"),
                ('.', '.') => Some(".."),
                _ => None,
            }
        } else {
            None
        };
        if let Some(op) = two {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: op.to_string(),
                line,
            });
            i += 2;
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    Lexed { toks, comments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(src: &str) -> Vec<Tok> {
        tokenize_full(src).toks
    }

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let toks = kinds("// x.unwrap()\n/* y.unwrap() /* nested */ */\nlet s = \"a.unwrap()\"; s");
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t == "a.unwrap()"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r####"let s = r#"quote " inside"#; done"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t == r#"quote " inside"#));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "done"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_ranges_and_method_calls() {
        let toks = kinds("1.5 + 2 + 0x1f + 3f64 + 1e-9 + (0..4) + 1.max(2) + 2usize-1");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            nums,
            ["1.5", "2", "0x1f", "3f64", "1e-9", "0", "4", "1", "2", "2usize", "1"]
        );
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Punct && t == ".."));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "max"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let toks = tokenize("let a = \"x\ny\";\nb");
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b token");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn byte_and_char_literals_holding_quotes_and_slashes() {
        // `b'"'` and `'"'` must not open a string; `'/'` followed by more
        // code must not open a comment. Historically classic lexer traps.
        let toks = kinds("let a = b'\"'; let b = '\"'; let c = '/'; after");
        assert!(
            !toks.iter().any(|(k, _)| *k == TokKind::Str),
            "char literals misread as strings: {toks:?}"
        );
        let chars: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, ["\"", "\"", "/"]);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "after"));
    }

    #[test]
    fn string_containing_line_comment_marker_is_still_a_string() {
        let toks = kinds("let url = \"https://example.com\"; x.unwrap()");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t == "https://example.com"));
        // The code after the string is still lexed (the `//` inside the
        // string did not eat the rest of the line).
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let toks = kinds("/* a /* b /* c */ */ still comment */ code");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].0 == TokKind::Ident && toks[0].1 == "code");
    }

    #[test]
    fn raw_string_with_hashes_containing_quote_escape_lookalikes() {
        let toks = kinds(r####"let s = r#"a \" b "quoted" // not comment"#; end"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("not comment")));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "end"));
    }

    #[test]
    fn byte_string_contents_are_not_code() {
        let toks = kinds("let s = b\"// x.unwrap()\"; done");
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "done"));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let lexed = tokenize_full("code1 // trailing note\n/* block\nspans */\ncode2");
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].0, 1);
        assert!(lexed.comments[0].1.contains("trailing note"));
        assert_eq!(lexed.comments[1].0, 2);
        assert!(lexed.comments[1].1.contains("block"));
        // and the code tokens are unaffected
        let idents: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["code1", "code2"]);
    }

    #[test]
    fn two_char_operators() {
        let toks = kinds("a == b != c :: d -> e");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "->"]);
    }
}

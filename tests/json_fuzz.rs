//! Seeded fuzz wall for `Json::parse`, the decoder under every served frame,
//! sweep spec and JSON trace: nesting at the depth limit, long strings,
//! every escape including surrogate pairs, numbers at the edges, truncation
//! at every offset of valid documents, and random token splices.
//!
//! Invariants, for every input:
//! * `parse` returns `Ok` or `Err`, never a panic;
//! * every `Ok` prints and re-parses to the same value;
//! * the parse holds at most [`PEAK_PER_BYTE`] live bytes per input byte,
//!   plus [`PEAK_SLACK`].
//!
//! One test function runs every case in turn, so the counting global
//! allocator measures one parse at a time.

use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use uopcache_model::alloc::CountingAllocator;
use uopcache_model::json::{Json, MAX_DEPTH};
use uopcache_model::rng::{Prng, Rng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Random documents and random splices per run.
const CASES: usize = 3_000;

/// Live bytes a parse may hold per input byte. The densest input is a run
/// of one-element arrays, `[0],` in four bytes: each allocates room for four
/// 32-byte values (128 bytes) and adds one 32-byte value to its parent,
/// whose buffer is live at both sizes while it grows (x 1.5). That is 56
/// bytes per byte, as measured on the dense shapes below; `[0,0,..]` is 48.
const PEAK_PER_BYTE: usize = 64;

/// Live bytes any parse may hold on top: the error message.
const PEAK_SLACK: usize = 1 << 10;

/// Parses `input` under every invariant and returns the result.
fn check(input: &str) -> Result<Json, String> {
    let (result, stats) =
        CountingAllocator::measure(|| catch_unwind(AssertUnwindSafe(|| Json::parse(input))));
    let preview: String = input.chars().take(80).collect();
    let result = result.unwrap_or_else(|_| panic!("parse panicked on {preview:?}"));
    assert!(
        stats.peak <= PEAK_PER_BYTE * input.len() + PEAK_SLACK,
        "{} input bytes held {} live bytes: {preview:?}",
        input.len(),
        stats.peak
    );
    let value = result.map_err(|e| e.to_string())?;
    let printed = value.to_string();
    let back = Json::parse(&printed)
        .unwrap_or_else(|e| panic!("{preview:?} printed as {printed:?}, which fails: {e}"));
    assert!(
        same(&value, &back),
        "{preview:?} printed as {printed:?}, which re-parses differently"
    );
    Ok(value)
}

/// Equal values, where numbers compare by value: `1.0` prints as `1` and
/// re-parses as an integer, `-0` as `0`.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((k, p), (l, q))| k == l && same(p, q))
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => a == b || x.partial_cmp(&y) == Some(Ordering::Equal),
            _ => a == b,
        },
    }
}

/// Characters that stress the string path: quotes, backslashes, controls
/// (C0, DEL and C1), multi-byte scalars and both ends of the code space.
const CHARS: [char; 16] = [
    'a',
    'Z',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    '\u{85}',
    'é',
    '€',
    '😀',
    '\u{fffd}',
    '\u{10ffff}',
];

fn random_string(rng: &mut Prng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn random_number(rng: &mut Prng) -> Json {
    match rng.gen_range(0..6u32) {
        0 => Json::U64([0, 1, u64::MAX, u64::MAX - 1, 1 << 53][rng.gen_range(0..5usize)]),
        1 => Json::U64(rng.next_u64()),
        2 => Json::I64([i64::MIN, -1, i64::MIN + 1][rng.gen_range(0..3usize)]),
        3 => Json::I64(i64::MIN + rng.gen_range(0..i64::MAX)),
        4 => Json::F64(
            [0.5, -0.0, 1e308, -1e308, f64::MIN_POSITIVE, 5e-324][rng.gen_range(0..6usize)],
        ),
        _ => {
            let x = f64::from_bits(rng.next_u64());
            Json::F64(if x.is_finite() { x } else { 0.25 })
        }
    }
}

fn random_value(rng: &mut Prng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 | 3 => random_number(rng),
        4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Hand-written documents covering every escape and the number edges.
fn corpus() -> Vec<String> {
    let mut docs: Vec<String> = [
        r#"{"a":1,"b":[true,false,null],"c":{"d":"e"}}"#,
        r#"["\"","\\","\/","\b","\f","\n","\r","\t","\u0041","\u00e9","\u20ac","\ud83d\ude00","\uDBFF\uDFFF"]"#,
        r#"[18446744073709551615,18446744073709551616,-9223372036854775808,-9223372036854775809]"#,
        r#"[0,-0,0.0,-0.0,1e308,1e-400,1E+2,2.5e-9,007,-007]"#,
        r#"{"é€😀":"\u0000\u001f\u007f","":[],"k":{}}"#,
        " \t\r\n[ 1 , { \"x\" : [ ] } ]\n",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    docs.push(nested(MAX_DEPTH - 1));
    docs.push(nested(MAX_DEPTH));
    docs.push(format!(
        "{}0{}",
        "{\"k\":".repeat(MAX_DEPTH),
        "}".repeat(MAX_DEPTH)
    ));
    docs
}

#[test]
fn hostile_json_parses_cleanly_in_bounded_memory() {
    let docs = corpus();
    for doc in &docs {
        check(doc).unwrap_or_else(|e| panic!("{doc:?} is valid: {e}"));
        // Every proper prefix is incomplete; none may parse except where a
        // number or the trailing whitespace is cut.
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            let _ = check(&doc[..cut]);
        }
    }

    // One level past the limit, as arrays and as objects.
    for doc in [
        format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
        format!(
            "{}0{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ),
    ] {
        let err = check(&doc).expect_err("one level too deep");
        assert!(err.contains("nesting deeper"), "{err}");
    }

    // Number edges, one document each.
    for (text, want) in [
        ("18446744073709551615", Some(Json::U64(u64::MAX))),
        ("-9223372036854775808", Some(Json::I64(i64::MIN))),
        (
            "18446744073709551616",
            Some(Json::F64(18_446_744_073_709_551_616.0)),
        ),
        ("1e308", Some(Json::F64(1e308))),
        ("1e309", None),
        ("-1e309", None),
        ("-", None),
        ("1e", None),
        ("--1", None),
    ] {
        match (check(text), want) {
            (Ok(got), Some(want)) => assert!(same(&got, &want), "{text}: {got:?}"),
            (Err(_), None) => {}
            (got, want) => panic!("{text}: got {got:?}, want {want:?}"),
        }
    }

    // The densest shapes, at 64 KB: the per-byte bound is set by these.
    let n = 1 << 14;
    for doc in [
        format!("[{}0]", "[0],".repeat(n)),
        format!("[{}0]", "0,".repeat(n)),
        format!("[{}0]", "{\"\":0},".repeat(n)),
        format!("{{{}\"\":0}}", "\"\":[0],".repeat(n)),
        format!("[{}0]", "\"a\",".repeat(n)),
        format!("\"{}\"", "\\u0000".repeat(n)),
    ] {
        check(&doc).expect("a dense document");
    }

    // A long string, plain and escaped.
    let long = format!(
        "\"{}\\u00e9{}\"",
        "x".repeat(1 << 20),
        "\\n".repeat(1 << 16)
    );
    let parsed = check(&long).expect("long string");
    assert_eq!(
        parsed.as_str().map(str::len),
        Some((1 << 20) + 2 + (1 << 16))
    );

    let mut rng = Prng::seed_from_u64(0x1503_f022);
    let mut accepted = 0;
    for _ in 0..CASES {
        // A random document round-trips.
        let value = random_value(&mut rng, 4);
        let text = value.to_string();
        let back = check(&text).unwrap_or_else(|e| panic!("printed {text:?} fails: {e}"));
        assert!(same(&value, &back), "{text:?}");

        // A random splice of tokens into a valid document never panics.
        let mut text = docs[rng.gen_range(0..docs.len())].clone();
        for _ in 0..rng.gen_range(1..4u32) {
            let mut at = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            const TOKENS: [&str; 18] = [
                "\"", "\\", "\\u", "\\ud83d", "\\ude00", "\\u+041", "[", "]", "{", "}", ",", ":",
                "-", "1e400", "0", "\u{0}", "😀", "",
            ];
            let token = TOKENS[rng.gen_range(0..TOKENS.len())];
            let mut cut = (at + rng.gen_range(0..3usize)).min(text.len());
            while !text.is_char_boundary(cut) {
                cut += 1;
            }
            text.replace_range(at..cut, token);
        }
        accepted += usize::from(check(&text).is_ok());
    }
    // Splices mostly break a document, but not always.
    assert!(
        accepted > 0 && accepted < CASES / 2,
        "{accepted} of {CASES} splices parsed"
    );
}

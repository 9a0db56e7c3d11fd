//! Edge-case and fuzz-regression tests for the lexer and parser.
//!
//! The differential harness ([`super::differential`]) checks that the two
//! engines agree; these tests check that the *front end* they share neither
//! panics nor mis-shapes the AST on hostile input. Every case that once
//! panicked is pinned here so it cannot regress.

use super::ast::{BinOp, Expr, Stmt, UnOp};
use super::lexer::{lex, Tok};
use super::parser::parse_program;

use rand::Rng;
use ss_types::rng::sub_rng;

// ---------------------------------------------------------------- lexer ----

#[test]
fn escaped_multibyte_char_does_not_panic() {
    // Regression: `\` followed by a multi-byte UTF-8 char used to copy only
    // the lead byte and advance the cursor mid-codepoint, panicking on the
    // next slice.
    let t = lex("'\\é'").unwrap();
    assert_eq!(t, vec![Tok::Str("é".into())]);
    let t = lex("'a\\\u{1f600}b'").unwrap();
    assert_eq!(t, vec![Tok::Str("a\u{1f600}b".into())]);
}

#[test]
fn multibyte_chars_in_strings_survive_unescaped() {
    let t = lex("'héllo \u{4e16}\u{754c}'").unwrap();
    assert_eq!(t, vec![Tok::Str("héllo \u{4e16}\u{754c}".into())]);
}

#[test]
fn escape_zoo() {
    let t = lex(r#"'\n\t\r\\\'\"\/'"#).unwrap();
    assert_eq!(t, vec![Tok::Str("\n\t\r\\'\"/".into())]);
    // \xHH and \uHHHH, including a surrogate half that maps to U+FFFD.
    let t = lex(r#"'\x41B\ud800'"#).unwrap();
    assert_eq!(t, vec![Tok::Str("AB\u{fffd}".into())]);
}

#[test]
fn bad_escapes_are_errors_not_panics() {
    assert!(lex(r"'\x4'").is_err()); // truncated \x
    assert!(lex(r"'\xZZ'").is_err()); // non-hex \x
    assert!(lex(r"'\u12'").is_err()); // truncated \u
    assert!(lex(r"'\uWXYZ'").is_err()); // non-hex \u
    assert!(lex("'\\").is_err()); // dangling escape at EOF
}

#[test]
fn truncated_escape_before_multibyte_is_error() {
    // `\x` whose "hex digits" straddle a multi-byte char: the byte-range
    // slice misses the char boundary and must surface as an error.
    assert!(lex("'\\xé'").is_err());
    assert!(lex("'\\ué'").is_err());
}

#[test]
fn numeric_forms() {
    assert_eq!(lex("1.").unwrap(), vec![Tok::Num(1.0)]);
    assert_eq!(lex(".5").unwrap(), vec![Tok::Punct("."), Tok::Num(5.0)]);
    assert_eq!(lex("0007").unwrap(), vec![Tok::Num(7.0)]);
    // The greedy digits-and-dots scan folds `1..2` / `1.2.3` into one bad
    // literal — an error, not a panic.
    assert!(lex("1..2").is_err());
    assert!(lex("1.2.3").is_err());
}

// --------------------------------------------------------------- parser ----

/// Parses a single expression statement and returns the expression.
fn expr_of(src: &str) -> Expr {
    let prog = parse_program(src).unwrap();
    assert_eq!(prog.len(), 1, "expected one statement in {src:?}");
    match prog.into_iter().next().unwrap() {
        Stmt::Expr(e) => e,
        other => panic!("expected expression statement, got {other:?}"),
    }
}

#[test]
fn precedence_mul_over_add() {
    // 1 + 2 * 3  ⇒  1 + (2 * 3)
    match expr_of("1 + 2 * 3;") {
        Expr::Bin(BinOp::Add, l, r) => {
            assert!(matches!(*l, Expr::Num(n) if n == 1.0));
            assert!(matches!(*r, Expr::Bin(BinOp::Mul, _, _)));
        }
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn subtraction_is_left_associative() {
    // 8 - 4 - 2  ⇒  (8 - 4) - 2
    match expr_of("8 - 4 - 2;") {
        Expr::Bin(BinOp::Sub, l, r) => {
            assert!(matches!(*l, Expr::Bin(BinOp::Sub, _, _)));
            assert!(matches!(*r, Expr::Num(n) if n == 2.0));
        }
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn comparison_binds_looser_than_arithmetic() {
    // 1 + 2 < 3 * 4  ⇒  (1 + 2) < (3 * 4)
    match expr_of("1 + 2 < 3 * 4;") {
        Expr::Bin(BinOp::Lt, l, r) => {
            assert!(matches!(*l, Expr::Bin(BinOp::Add, _, _)));
            assert!(matches!(*r, Expr::Bin(BinOp::Mul, _, _)));
        }
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn logic_or_binds_looser_than_and() {
    // a && b || c  ⇒  (a && b) || c
    match expr_of("a && b || c;") {
        Expr::Bin(BinOp::Or, l, r) => {
            assert!(matches!(*l, Expr::Bin(BinOp::And, _, _)));
            assert!(matches!(*r, Expr::Ident(ref n) if n == "c"));
        }
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn ternary_is_right_associative() {
    // a ? b : c ? d : e  ⇒  a ? b : (c ? d : e)
    match expr_of("a ? b : c ? d : e;") {
        Expr::Ternary(_, _, alt) => assert!(matches!(*alt, Expr::Ternary(_, _, _))),
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn unary_binds_tighter_than_binary() {
    // -a + b  ⇒  (-a) + b ; !a == b ⇒ (!a) == b
    match expr_of("-a + b;") {
        Expr::Bin(BinOp::Add, l, _) => assert!(matches!(*l, Expr::Un(UnOp::Neg, _))),
        other => panic!("bad shape: {other:?}"),
    }
    match expr_of("!a == b;") {
        Expr::Bin(BinOp::Eq, l, _) => assert!(matches!(*l, Expr::Un(UnOp::Not, _))),
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn assignment_is_right_associative() {
    // a = b = 1  ⇒  a = (b = 1)
    match expr_of("a = b = 1;") {
        Expr::Assign(t, v) => {
            assert!(matches!(*t, Expr::Ident(ref n) if n == "a"));
            assert!(matches!(*v, Expr::Assign(_, _)));
        }
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn member_and_index_chain() {
    // a.b[0].c parses inside-out: Member(Index(Member(a, b), 0), c)
    match expr_of("a.b[0].c;") {
        Expr::Member(inner, ref c) => {
            assert_eq!(c, "c");
            assert!(matches!(*inner, Expr::Index(_, _)));
        }
        other => panic!("bad shape: {other:?}"),
    }
}

#[test]
fn invalid_assignment_targets_rejected() {
    assert!(parse_program("1 = 2;").is_err());
    assert!(parse_program("(a + b) = 2;").is_err());
    assert!(parse_program("f() = 2;").is_err());
}

#[test]
fn truncated_inputs_are_errors_not_panics() {
    for src in [
        "var",
        "var x =",
        "if (",
        "if (a) {",
        "while (a",
        "for (;;",
        "function",
        "function f(",
        "function f(a,",
        "return",
        "a.",
        "a[",
        "a(",
        "a ?",
        "a ? b :",
        "var x = [1,",
    ] {
        // `return` alone is legal (return undefined); everything else must
        // error. Either way: no panic.
        let _ = parse_program(src);
    }
    assert!(parse_program("var x =").is_err());
    assert!(parse_program("a.").is_err());
}

// -------------------------------------------- parser depth-cap regressions ----

#[test]
fn deep_parens_hit_depth_cap_not_stack() {
    // Regression: each of these used to recurse once per character and
    // overflow the native stack. Now they bounce off MAX_PARSE_DEPTH.
    let src = format!("{}1{};", "(".repeat(5_000), ")".repeat(5_000));
    let e = parse_program(&src).unwrap_err();
    assert!(e.to_string().contains("nesting too deep"), "{e}");
}

#[test]
fn deep_unary_chain_hits_depth_cap() {
    let src = format!("{}1;", "!".repeat(5_000));
    assert!(parse_program(&src).is_err());
    let src = format!("{}1;", "-".repeat(5_000));
    assert!(parse_program(&src).is_err());
}

#[test]
fn deep_assign_chain_hits_depth_cap() {
    let src = format!("{}1;", "a = ".repeat(5_000));
    assert!(parse_program(&src).is_err());
}

#[test]
fn deep_nested_ifs_hit_depth_cap() {
    let src = format!("{}x = 1;", "if (1) ".repeat(5_000));
    assert!(parse_program(&src).is_err());
}

#[test]
fn moderate_nesting_still_parses() {
    // The cap must not reject realistic obfuscated payloads.
    let src = format!("var x = {}1{};", "(".repeat(50), ")".repeat(50));
    assert!(parse_program(&src).is_ok());
    let src = format!("{}y = 1;{}", "if (1) {".repeat(40), "}".repeat(40));
    assert!(parse_program(&src).is_ok());
}

// ----------------------------------------------------------------- fuzz ----

/// Seeded byte-soup fuzz: the front end must return `Ok` or `Err`, never
/// panic, on arbitrary input. Pure regression insurance — every class of
/// panic we have ever seen came from inputs this loop covers (mid-codepoint
/// slices, truncated escapes, runaway recursion).
#[test]
fn fuzz_random_soup_never_panics() {
    let mut rng = sub_rng(0x5eed, "js/parser_edge/soup");
    // A byte palette biased toward syntax so the parser gets exercised, plus
    // raw multi-byte characters and escapes to stress the lexer.
    let atoms: &[&str] = &[
        "var ",
        "x",
        "y",
        "f",
        "if",
        "else",
        "while",
        "for",
        "function",
        "return ",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        ".",
        "=",
        "==",
        "===",
        "!",
        "&&",
        "||",
        "?",
        ":",
        "+",
        "-",
        "*",
        "/",
        "%",
        "<",
        ">",
        "1",
        "2.5",
        "0",
        "'s'",
        "\"t\"",
        "'\\x41'",
        "'\\u0042'",
        "'\\",
        "é",
        "\u{1f600}",
        "\\",
        "'",
        "\"",
        "//c\n",
        "/*b*/",
        "1..2",
        "@",
    ];
    for _ in 0..2_000 {
        let len = rng.gen_range(0..40);
        let src: String = (0..len)
            .map(|_| atoms[rng.gen_range(0..atoms.len())])
            .collect();
        let _ = parse_program(&src); // must not panic
    }
}

/// Seeded structured fuzz: well-formed programs of bounded depth must parse.
#[test]
fn fuzz_generated_programs_parse() {
    let mut rng = sub_rng(0x5eed, "js/parser_edge/wellformed");
    for _ in 0..500 {
        let mut src = String::new();
        for _ in 0..rng.gen_range(1..6) {
            gen_stmt(&mut rng, &mut src, 0);
        }
        parse_program(&src).unwrap_or_else(|e| panic!("generated program failed: {e}\n{src}"));
    }
}

fn gen_stmt(rng: &mut ss_types::rng::SimRng, out: &mut String, depth: usize) {
    match rng.gen_range(0..5) {
        0 => {
            out.push_str("var v");
            out.push_str(&rng.gen_range(0..5u32).to_string());
            out.push_str(" = ");
            gen_expr(rng, out, depth + 1);
            out.push(';');
        }
        1 if depth < 3 => {
            out.push_str("if (");
            gen_expr(rng, out, depth + 1);
            out.push_str(") { ");
            gen_stmt(rng, out, depth + 1);
            out.push_str(" } else { ");
            gen_stmt(rng, out, depth + 1);
            out.push_str(" }");
        }
        2 if depth < 3 => {
            out.push_str("while (0) { ");
            gen_stmt(rng, out, depth + 1);
            out.push_str(" }");
        }
        3 if depth < 3 => {
            out.push_str("for (var i = 0; i < 2; i = i + 1) { ");
            gen_stmt(rng, out, depth + 1);
            out.push_str(" }");
        }
        _ => {
            gen_expr(rng, out, depth + 1);
            out.push(';');
        }
    }
}

fn gen_expr(rng: &mut ss_types::rng::SimRng, out: &mut String, depth: usize) {
    if depth >= 5 {
        out.push('1');
        return;
    }
    match rng.gen_range(0..6) {
        0 => out.push_str(&format!("{}", rng.gen_range(0..100))),
        1 => out.push_str("'s'"),
        2 => {
            out.push('(');
            gen_expr(rng, out, depth + 1);
            out.push_str(match rng.gen_range(0..5) {
                0 => " + ",
                1 => " - ",
                2 => " * ",
                3 => " == ",
                _ => " < ",
            });
            gen_expr(rng, out, depth + 1);
            out.push(')');
        }
        3 => {
            out.push('!');
            gen_expr(rng, out, depth + 1);
        }
        4 => {
            out.push('(');
            gen_expr(rng, out, depth + 1);
            out.push_str(" ? ");
            gen_expr(rng, out, depth + 1);
            out.push_str(" : ");
            gen_expr(rng, out, depth + 1);
            out.push(')');
        }
        _ => {
            out.push('[');
            gen_expr(rng, out, depth + 1);
            out.push_str(", ");
            gen_expr(rng, out, depth + 1);
            out.push(']');
        }
    }
}

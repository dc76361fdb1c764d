//! Serialization of expressions for the persistent cluster index.
//!
//! Cluster expressions range over *model* variables (`#it0`, `#ret`, …) that
//! the surface parser rejects, so the persistent index cannot round-trip them
//! through `expr_to_string`/`parse_expression`. Instead, [`Expr`] serializes
//! to a compact tagged-array JSON form (`["bin", "+", lhs, rhs]`) that
//! round-trips exactly — including structural details like `x+y` vs `y+x`
//! that the repair cost metric distinguishes.

use serde::{Content, DeError, Deserialize, Serialize};

use crate::ast::{BinOp, Expr, Lit, UnOp};

fn tagged(tag: &str, rest: Vec<Content>) -> Content {
    let mut items = vec![Content::Str(tag.to_owned())];
    items.extend(rest);
    Content::Seq(items)
}

impl BinOp {
    /// The inverse of [`BinOp::symbol`].
    pub fn from_symbol(symbol: &str) -> Option<BinOp> {
        const ALL: [BinOp; 15] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::FloorDiv,
            BinOp::Mod,
            BinOp::Pow,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ];
        ALL.into_iter().find(|op| op.symbol() == symbol)
    }
}

impl Serialize for Expr {
    fn to_content(&self) -> Content {
        match self {
            Expr::Lit(Lit::Int(n)) => tagged("int", vec![Content::I64(*n)]),
            Expr::Lit(Lit::Float(x)) => tagged("float", vec![Content::F64(*x)]),
            Expr::Lit(Lit::Str(s)) => tagged("str", vec![Content::Str(s.clone())]),
            Expr::Lit(Lit::Bool(b)) => tagged("bool", vec![Content::Bool(*b)]),
            Expr::Lit(Lit::None) => tagged("none", vec![]),
            Expr::Var(name) => tagged("var", vec![Content::Str(name.clone())]),
            Expr::List(items) => tagged("list", vec![items.to_content()]),
            Expr::Tuple(items) => tagged("tuple", vec![items.to_content()]),
            Expr::Unary(op, inner) => {
                let tag = match op {
                    UnOp::Neg => "neg",
                    UnOp::Not => "not",
                };
                tagged(tag, vec![inner.to_content()])
            }
            Expr::Binary(op, lhs, rhs) => {
                tagged("bin", vec![Content::Str(op.symbol().to_owned()), lhs.to_content(), rhs.to_content()])
            }
            Expr::Index(base, index) => tagged("idx", vec![base.to_content(), index.to_content()]),
            Expr::Slice(base, lo, hi) => tagged(
                "slice",
                vec![
                    base.to_content(),
                    lo.as_ref().map(|e| e.to_content()).unwrap_or(Content::Null),
                    hi.as_ref().map(|e| e.to_content()).unwrap_or(Content::Null),
                ],
            ),
            Expr::Call(name, args) => tagged("call", vec![Content::Str(name.clone()), args.to_content()]),
            Expr::Method(recv, name, args) => {
                tagged("mth", vec![recv.to_content(), Content::Str(name.clone()), args.to_content()])
            }
        }
    }
}

impl Expr {
    /// How many JSON arrays deep the serialized expression nests, its own
    /// array included: `x` is 1, `x + 1` is 2, and `f(x)` is 3 because a
    /// call's (or list's, tuple's or method's) items sit in an array of
    /// their own. The JSON parser refuses input nested deeper than
    /// `serde_json::RECURSION_LIMIT`, so whoever stores expressions inside
    /// other JSON must keep this within what is left of that limit.
    pub fn json_depth(&self) -> usize {
        let items = |items: &[Expr]| 1 + items.iter().map(Expr::json_depth).max().unwrap_or(0);
        1 + match self {
            Expr::Lit(_) | Expr::Var(_) => 0,
            Expr::List(elements) | Expr::Tuple(elements) | Expr::Call(_, elements) => items(elements),
            Expr::Unary(_, inner) => inner.json_depth(),
            Expr::Binary(_, lhs, rhs) | Expr::Index(lhs, rhs) => lhs.json_depth().max(rhs.json_depth()),
            Expr::Slice(base, lo, hi) => [Some(base), lo.as_ref(), hi.as_ref()]
                .into_iter()
                .flatten()
                .map(|e| e.json_depth())
                .max()
                .unwrap_or(0),
            Expr::Method(receiver, _, args) => receiver.json_depth().max(items(args)),
        }
    }
}

fn expect_arity(items: &[Content], arity: usize, tag: &str) -> Result<(), DeError> {
    if items.len() == arity + 1 {
        Ok(())
    } else {
        Err(DeError(format!("expression tag `{tag}` expects {arity} argument(s), found {}", items.len() - 1)))
    }
}

impl Deserialize for Expr {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let items = content.as_seq().ok_or_else(|| DeError::expected("expression array", content))?;
        let tag = items
            .first()
            .and_then(Content::as_str)
            .ok_or_else(|| DeError::expected("expression tag string", content))?;
        let expr = match tag {
            "int" => {
                expect_arity(items, 1, tag)?;
                Expr::Lit(Lit::Int(i64::from_content(&items[1])?))
            }
            "float" => {
                expect_arity(items, 1, tag)?;
                Expr::Lit(Lit::Float(f64::from_content(&items[1])?))
            }
            "str" => {
                expect_arity(items, 1, tag)?;
                Expr::Lit(Lit::Str(String::from_content(&items[1])?))
            }
            "bool" => {
                expect_arity(items, 1, tag)?;
                Expr::Lit(Lit::Bool(bool::from_content(&items[1])?))
            }
            "none" => {
                expect_arity(items, 0, tag)?;
                Expr::Lit(Lit::None)
            }
            "var" => {
                expect_arity(items, 1, tag)?;
                Expr::Var(String::from_content(&items[1])?)
            }
            "list" => {
                expect_arity(items, 1, tag)?;
                Expr::List(Vec::from_content(&items[1])?)
            }
            "tuple" => {
                expect_arity(items, 1, tag)?;
                Expr::Tuple(Vec::from_content(&items[1])?)
            }
            "neg" | "not" => {
                expect_arity(items, 1, tag)?;
                let op = if tag == "neg" { UnOp::Neg } else { UnOp::Not };
                Expr::Unary(op, Box::from_content(&items[1])?)
            }
            "bin" => {
                expect_arity(items, 3, tag)?;
                let symbol = String::from_content(&items[1])?;
                let op = BinOp::from_symbol(&symbol)
                    .ok_or_else(|| DeError(format!("unknown binary operator `{symbol}`")))?;
                Expr::Binary(op, Box::from_content(&items[2])?, Box::from_content(&items[3])?)
            }
            "idx" => {
                expect_arity(items, 2, tag)?;
                Expr::Index(Box::from_content(&items[1])?, Box::from_content(&items[2])?)
            }
            "slice" => {
                expect_arity(items, 3, tag)?;
                Expr::Slice(
                    Box::from_content(&items[1])?,
                    Option::from_content(&items[2])?,
                    Option::from_content(&items[3])?,
                )
            }
            "call" => {
                expect_arity(items, 2, tag)?;
                Expr::Call(String::from_content(&items[1])?, Vec::from_content(&items[2])?)
            }
            "mth" => {
                expect_arity(items, 3, tag)?;
                Expr::Method(
                    Box::from_content(&items[1])?,
                    String::from_content(&items[2])?,
                    Vec::from_content(&items[3])?,
                )
            }
            other => return Err(DeError(format!("unknown expression tag `{other}`"))),
        };
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn roundtrip(expr: &Expr) -> Expr {
        let json = serde_json::to_string(expr).expect("serialize");
        serde_json::from_str(&json).expect("deserialize")
    }

    #[test]
    fn surface_expressions_roundtrip() {
        for source in [
            "1",
            "-2.5",
            "x + y * 2",
            "poly[i] * float(i)",
            "xs[1:len(xs)-1]",
            "xs[:3]",
            "result.append(float(poly[e]*e))",
            "(a, b) == (1, 'two', None, True)",
            "not (a and b or c)",
            "[x, [y], []]",
            "a ** b // c % d",
        ] {
            let expr = parse_expression(source).expect(source);
            assert_eq!(roundtrip(&expr), expr, "{source}");
        }
    }

    #[test]
    fn model_only_variables_roundtrip() {
        // Cluster expressions reference model variables the surface parser
        // rejects (`#it0`, `#ret`) — the whole reason for these impls.
        let expr = Expr::ite(
            Expr::bin(BinOp::Lt, Expr::var("#it0"), Expr::var("#ret")),
            Expr::call("head", vec![Expr::var("#it0")]),
            Expr::Lit(Lit::None),
        );
        assert_eq!(roundtrip(&expr), expr);
    }

    #[test]
    fn float_payloads_roundtrip_exactly() {
        for x in [0.0, -0.0, 0.1, 1.0, 1e-12, 12345.6789] {
            let expr = Expr::float(x);
            let Expr::Lit(Lit::Float(back)) = roundtrip(&expr) else { panic!("not a float") };
            assert_eq!(back.to_bits(), if x == 0.0 { x.to_bits() } else { back.to_bits() });
            assert_eq!(back, x);
        }
    }

    #[test]
    fn malformed_expression_json_errors() {
        for bad in ["[]", "[\"nope\"]", "[\"bin\", \"@\", [\"int\", 1], [\"int\", 2]]", "42", "[\"var\"]"] {
            assert!(serde_json::from_str::<Expr>(bad).is_err(), "`{bad}` should fail");
        }
    }

    /// The deepest array nesting of a JSON text (strings hold no brackets
    /// in these tests).
    fn nesting(json: &str) -> usize {
        let (mut depth, mut deepest) = (0usize, 0usize);
        for byte in json.bytes() {
            match byte {
                b'[' | b'{' => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                b']' | b'}' => depth -= 1,
                _ => {}
            }
        }
        deepest
    }

    #[test]
    fn json_depth_is_the_serialized_nesting() {
        for source in [
            "x",
            "x + 1",
            "f(x)",
            "f()",
            "[]",
            "[x, [y]]",
            "-(a + b)",
            "xs[1:len(xs)-1]",
            "xs[:3]",
            "result.append(float(poly[e]*e))",
            "(a, b) == (1, 'two', None, True)",
        ] {
            let expr = parse_expression(source).expect(source);
            let json = serde_json::to_string(&expr).unwrap();
            assert_eq!(expr.json_depth(), nesting(&json), "{source}: {json}");
        }
    }

    #[test]
    fn json_depth_predicts_the_parser_nesting_limit() {
        let nested = |depth: usize| {
            (1..depth).fold(Expr::int(0), |inner, _| Expr::bin(BinOp::Add, Expr::int(0), inner))
        };
        let fits = nested(serde_json::RECURSION_LIMIT);
        assert_eq!(fits.json_depth(), serde_json::RECURSION_LIMIT);
        assert_eq!(roundtrip(&fits), fits);
        let too_deep = serde_json::to_string(&nested(serde_json::RECURSION_LIMIT + 1)).unwrap();
        assert!(serde_json::from_str::<Expr>(&too_deep).is_err());
    }

    #[test]
    fn binop_symbols_roundtrip() {
        for symbol in ["+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", "<=", ">", ">=", "and", "or"] {
            assert_eq!(BinOp::from_symbol(symbol).map(|op| op.symbol()), Some(symbol));
        }
        assert_eq!(BinOp::from_symbol("@"), None);
    }
}

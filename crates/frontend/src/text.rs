//! A textual surface syntax for loop-nest programs — the place the paper's
//! flow would have C sources.
//!
//! ```text
//! program gcd
//! array arr1 = [i:12, i:35, i:49]
//! array arr2 = [i:18, i:21, i:14]
//! array result = zeros int 3
//!
//! kernel for i in 0..3 ooo tags 8 {
//!   state a = arr1[i]
//!   state b = arr2[i]
//!   update a = b
//!   update b = a % b
//!   while nez(b)
//!   store result[i] = a
//! }
//! ```
//!
//! * `state` declares a loop-carried variable with its init expression
//!   (over the outer induction variable);
//! * `update` gives the parallel per-iteration update;
//! * `while` is the continue condition over the *updated* state (the loop
//!   is do-while, as in the paper's GCD example);
//! * `do store` places a store *inside* the loop body (the bicg shape);
//! * `store` is an epilogue store;
//! * `ooo tags N` marks the kernel for the out-of-order transformation.
//!
//! Integer operators: `+ - * / % < >= ==`; float operators: `+. -. *. /.`
//! and `>=.` `<.`; calls: `nez(e)`, `not(e)`, `itof(e)`,
//! `select(c, t, f)`; literals `42`, `1.5`, `true`, `false`; loads
//! `arr[e]`.

use crate::ast::{Expr, InnerLoop, OuterLoop, Program, StoreStmt};
use graphiti_ir::{parse_value, print_value, Op, Value};
use std::fmt;

/// Errors raised while parsing program text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// Description of the failure.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column within the line (0 when the error concerns the
    /// whole line).
    pub col: usize,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TextError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TextError> {
    Err(TextError { message: message.into(), line, col: 0 })
}

fn err_at<T>(line: usize, col: usize, message: impl Into<String>) -> Result<T, TextError> {
    Err(TextError { message: message.into(), line, col })
}

/// The 1-based byte column of subslice `sub` within the line `raw` it was
/// sliced from (used to turn substring-relative positions into absolute
/// line columns).
fn col_of(raw: &str, sub: &str) -> usize {
    let raw_start = raw.as_ptr() as usize;
    let sub_start = sub.as_ptr() as usize;
    if (raw_start..raw_start + raw.len() + 1).contains(&sub_start) {
        sub_start - raw_start + 1
    } else {
        0
    }
}

/// Hard cap on `zeros`-declared array lengths: a hostile `.gsl` must not be
/// able to request an arbitrarily large allocation.
const MAX_ARRAY_LEN: usize = 1 << 20;

/// Hard cap on declared tag budgets: `TaggerState` materialises the free-tag
/// pool, so an unchecked `ooo tags 4294967295` is a multi-gigabyte
/// allocation.
const MAX_TAGS: u32 = 4096;

// ---------- expression lexer/parser ----------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Sym(String),
}

/// Lexes an expression into `(token, 1-based byte column)` pairs; columns
/// are offset by `base` so they stay absolute within the original line.
fn lex_expr(src: &str, line: usize, base: usize) -> Result<Vec<(Tok, usize)>, TextError> {
    let mut toks: Vec<(Tok, usize)> = Vec::new();
    let cs: Vec<(usize, char)> = src.char_indices().collect();
    let col = |char_pos: usize| base + cs.get(char_pos).map_or(src.len(), |&(byte, _)| byte);
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i].1;
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_digit()
            || (c == '-'
                && i + 1 < cs.len()
                && cs[i + 1].1.is_ascii_digit()
                && matches!(toks.last(), None | Some((Tok::Sym(_), _))))
        {
            let start = i;
            i += 1;
            let mut is_float = false;
            while i < cs.len() && (cs[i].1.is_ascii_digit() || cs[i].1 == '.') {
                if cs[i].1 == '.' {
                    // `1.5` is a float but `1..` (range) is not ours; the
                    // expression grammar has no ranges, so any '.' directly
                    // followed by a digit makes a float.
                    if i + 1 < cs.len() && cs[i + 1].1.is_ascii_digit() {
                        is_float = true;
                    } else {
                        break;
                    }
                }
                i += 1;
            }
            let text: String = cs[start..i].iter().map(|&(_, c)| c).collect();
            if is_float {
                toks.push((
                    Tok::Float(text.parse().map_err(|_| TextError {
                        message: format!("bad float `{text}`"),
                        line,
                        col: col(start),
                    })?),
                    col(start),
                ));
            } else {
                toks.push((
                    Tok::Int(text.parse().map_err(|_| TextError {
                        message: format!("bad integer `{text}`"),
                        line,
                        col: col(start),
                    })?),
                    col(start),
                ));
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < cs.len() && (cs[i].1.is_alphanumeric() || cs[i].1 == '_') {
                i += 1;
            }
            toks.push((Tok::Ident(cs[start..i].iter().map(|&(_, c)| c).collect()), col(start)));
        } else {
            // Multi-char operators: float variants with a trailing dot, and
            // two-char comparisons.
            let two: String = cs[i..(i + 2).min(cs.len())].iter().map(|&(_, c)| c).collect();
            let sym = match two.as_str() {
                "+." | "-." | "*." | "/." | ">=" | "==" | "<." => two.clone(),
                _ => c.to_string(),
            };
            // ">=." is three chars.
            if sym == ">=" && i + 2 < cs.len() && cs[i + 2].1 == '.' {
                toks.push((Tok::Sym(">=.".into()), col(i)));
                i += 3;
                continue;
            }
            // Advance by the symbol's *character* count: its byte length
            // would skip neighbouring characters for non-ASCII input.
            let start = i;
            i += sym.chars().count();
            toks.push((Tok::Sym(sym), col(start)));
        }
    }
    Ok(toks)
}

struct ExprParser<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
    line: usize,
    /// Column reported when the token stream is exhausted.
    end_col: usize,
}

impl<'a> ExprParser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// Column of the current token (end-of-input column when exhausted).
    fn col(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end_col, |&(_, c)| c)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), TextError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            err_at(self.line, self.col(), format!("expected `{s}`, found {:?}", self.peek()))
        }
    }

    /// cmp := add (("<" | ">=" | "==" | ">=." | "<.") add)?
    fn parse_cmp(&mut self) -> Result<Expr, TextError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Tok::Sym(s)) => match s.as_str() {
                "<" => Some(Op::LtI),
                ">=" => Some(Op::GeI),
                "==" => Some(Op::EqI),
                ">=." => Some(Op::GeF),
                "<." => Some(Op::LtF),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_add()?;
            Ok(Expr::bin(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<Expr, TextError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym(s)) => match s.as_str() {
                    "+" => Some(Op::AddI),
                    "-" => Some(Op::SubI),
                    "+." => Some(Op::AddF),
                    "-." => Some(Op::SubF),
                    _ => None,
                },
                _ => None,
            };
            match op {
                Some(op) => {
                    self.pos += 1;
                    let rhs = self.parse_mul()?;
                    lhs = Expr::bin(op, lhs, rhs);
                }
                None => return Ok(lhs),
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, TextError> {
        let mut lhs = self.parse_atom()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym(s)) => match s.as_str() {
                    "*" => Some(Op::MulI),
                    "/" => Some(Op::DivI),
                    "%" => Some(Op::Mod),
                    "*." => Some(Op::MulF),
                    "/." => Some(Op::DivF),
                    _ => None,
                },
                _ => None,
            };
            match op {
                Some(op) => {
                    self.pos += 1;
                    let rhs = self.parse_atom()?;
                    lhs = Expr::bin(op, lhs, rhs);
                }
                None => return Ok(lhs),
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, TextError> {
        let at = self.col();
        match self.bump() {
            Some(Tok::Int(x)) => Ok(Expr::int(x)),
            Some(Tok::Float(x)) => Ok(Expr::f64(x)),
            Some(Tok::Sym(s)) if s == "(" => {
                let e = self.parse_cmp()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => match name.as_str() {
                "true" => Ok(Expr::Const(Value::Bool(true))),
                "false" => Ok(Expr::Const(Value::Bool(false))),
                "nez" | "not" | "itof" => {
                    self.expect_sym("(")?;
                    let a = self.parse_cmp()?;
                    self.expect_sym(")")?;
                    let op = match name.as_str() {
                        "nez" => Op::NeZero,
                        "not" => Op::Not,
                        _ => Op::IToF,
                    };
                    Ok(Expr::un(op, a))
                }
                "select" => {
                    self.expect_sym("(")?;
                    let c = self.parse_cmp()?;
                    self.expect_sym(",")?;
                    let t = self.parse_cmp()?;
                    self.expect_sym(",")?;
                    let f = self.parse_cmp()?;
                    self.expect_sym(")")?;
                    Ok(Expr::sel(c, t, f))
                }
                _ => {
                    if self.eat_sym("[") {
                        let idx = self.parse_cmp()?;
                        self.expect_sym("]")?;
                        Ok(Expr::load(&name, idx))
                    } else {
                        Ok(Expr::var(&name))
                    }
                }
            },
            other => err_at(self.line, at, format!("unexpected token {other:?} in expression")),
        }
    }
}

/// Parses one expression from text.
///
/// # Errors
///
/// Returns [`TextError`] with the supplied line number on malformed input.
pub fn parse_expr(src: &str, line: usize) -> Result<Expr, TextError> {
    parse_expr_at(src, line, 1)
}

/// [`parse_expr`] with a base column, so errors in expressions embedded in
/// a longer line report absolute columns.
fn parse_expr_at(src: &str, line: usize, base: usize) -> Result<Expr, TextError> {
    let toks = lex_expr(src, line, base)?;
    let mut p = ExprParser { toks: &toks, pos: 0, line, end_col: base + src.len() };
    let e = p.parse_cmp()?;
    if p.pos != toks.len() {
        let (trailing, col) = (&toks[p.pos..], p.col());
        let rendered: Vec<&Tok> = trailing.iter().map(|(t, _)| t).collect();
        return err_at(line, col, format!("trailing tokens after expression: {rendered:?}"));
    }
    Ok(e)
}

// ---------- program parser ----------

/// Splits `text` at the top-level `=`, returning both trimmed halves.
fn split_eq(text: &str, line: usize) -> Result<(&str, &str), TextError> {
    match text.split_once('=') {
        Some((a, b)) => Ok((a.trim(), b.trim())),
        None => err(line, "expected `=`"),
    }
}

/// `ARR[expr]` target of a store. `raw` is the full source line, for
/// column reporting.
fn parse_store_target(text: &str, raw: &str, line: usize) -> Result<(String, Expr), TextError> {
    let open = text.find('[').ok_or(TextError {
        message: "expected `[`".into(),
        line,
        col: col_of(raw, text),
    })?;
    // Search for the closing bracket only *after* the opening one: a line
    // like `store ]a[ = 1` must be a parse error, not a reversed slice
    // (which panics).
    let close = text[open..].rfind(']').map(|c| open + c).ok_or(TextError {
        message: "expected `]` after `[`".into(),
        line,
        col: col_of(raw, text) + open,
    })?;
    let arr = text[..open].trim().to_string();
    if arr.is_empty() {
        return err_at(line, col_of(raw, text), "store target needs an array name");
    }
    let inner = &text[open + 1..close];
    let idx = parse_expr_at(inner, line, col_of(raw, inner))?;
    Ok((arr, idx))
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first [`TextError`] encountered.
pub fn parse_program(src: &str) -> Result<Program, TextError> {
    let mut p = Program::default();
    let mut kernel: Option<OuterLoop> = None;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("program ") {
            p.name = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("array ") {
            let (name, rhs) = split_eq(rest, line_no)?;
            let values = if let Some(zeros) = rhs.strip_prefix("zeros ") {
                let mut parts = zeros.split_whitespace();
                let ty = parts.next().unwrap_or("");
                let n: usize = parts.next().and_then(|s| s.parse().ok()).ok_or(TextError {
                    message: "zeros needs a length".into(),
                    line: line_no,
                    col: col_of(raw, rhs),
                })?;
                if n > MAX_ARRAY_LEN {
                    return err_at(
                        line_no,
                        col_of(raw, rhs),
                        format!("array length {n} exceeds the {MAX_ARRAY_LEN} cap"),
                    );
                }
                match ty {
                    "int" => vec![Value::Int(0); n],
                    "f64" => vec![Value::from_f64(0.0); n],
                    other => return err(line_no, format!("unknown zeros type `{other}`")),
                }
            } else {
                let inner =
                    rhs.strip_prefix('[').and_then(|r| r.strip_suffix(']')).ok_or(TextError {
                        message: "expected `[...]`".into(),
                        line: line_no,
                        col: col_of(raw, rhs),
                    })?;
                inner
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| {
                        parse_value(s.trim()).map_err(|m| TextError {
                            message: m,
                            line: line_no,
                            col: col_of(raw, s),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            p.arrays.insert(name.to_string(), values);
        } else if let Some(rest) = line.strip_prefix("kernel for ") {
            if kernel.is_some() {
                return err(line_no, "previous kernel not closed with `}`");
            }
            // VAR in 0..TRIP [ooo tags N] {
            let rest = rest.strip_suffix('{').unwrap_or(rest).trim();
            let mut parts = rest.split_whitespace();
            let var = parts.next().unwrap_or("").to_string();
            if parts.next() != Some("in") {
                return err(line_no, "expected `in`");
            }
            let range = parts.next().unwrap_or("");
            let trip: i64 =
                range.strip_prefix("0..").and_then(|s| s.parse().ok()).ok_or(TextError {
                    message: format!("bad range `{range}`"),
                    line: line_no,
                    col: col_of(raw, range),
                })?;
            let ooo_tags = match (parts.next(), parts.next(), parts.next()) {
                (Some("ooo"), Some("tags"), Some(n)) => {
                    let tags: u32 = n.parse().map_err(|_| TextError {
                        message: format!("bad tag count `{n}`"),
                        line: line_no,
                        col: col_of(raw, n),
                    })?;
                    if tags == 0 || tags > MAX_TAGS {
                        // The tag pool is materialised, so an unchecked
                        // budget is an allocation-size attack; zero tags
                        // would deadlock the tagged region.
                        return err_at(
                            line_no,
                            col_of(raw, n),
                            format!("tag count {tags} outside 1..={MAX_TAGS}"),
                        );
                    }
                    Some(tags)
                }
                (None, _, _) => None,
                _ => return err(line_no, "expected `ooo tags N` or `{`"),
            };
            kernel = Some(OuterLoop {
                var,
                trip,
                inner: InnerLoop {
                    vars: vec![],
                    update: vec![],
                    cond: Expr::Const(Value::Bool(false)),
                    effects: vec![],
                },
                epilogue: vec![],
                ooo_tags,
            });
        } else if line == "}" {
            let k = kernel.take().ok_or(TextError {
                message: "`}` without kernel".into(),
                line: line_no,
                col: 0,
            })?;
            if k.inner.vars.is_empty() {
                return err(line_no, "kernel has no state variables");
            }
            if k.inner.vars.len() != k.inner.update.len() {
                return err(line_no, "every state variable needs an update");
            }
            p.kernels.push(k);
        } else {
            let k = kernel.as_mut().ok_or(TextError {
                message: "statement outside kernel".into(),
                line: line_no,
                col: 0,
            })?;
            if let Some(rest) = line.strip_prefix("state ") {
                let (name, rhs) = split_eq(rest, line_no)?;
                k.inner
                    .vars
                    .push((name.to_string(), parse_expr_at(rhs, line_no, col_of(raw, rhs))?));
            } else if let Some(rest) = line.strip_prefix("update ") {
                let (name, rhs) = split_eq(rest, line_no)?;
                k.inner
                    .update
                    .push((name.to_string(), parse_expr_at(rhs, line_no, col_of(raw, rhs))?));
            } else if let Some(rest) = line.strip_prefix("while ") {
                k.inner.cond = parse_expr_at(rest, line_no, col_of(raw, rest))?;
            } else if let Some(rest) = line.strip_prefix("do store ") {
                let (target, rhs) = split_eq(rest, line_no)?;
                let (array, index) = parse_store_target(target, raw, line_no)?;
                let value = parse_expr_at(rhs, line_no, col_of(raw, rhs))?;
                k.inner.effects.push(StoreStmt { array, index, value });
            } else if let Some(rest) = line.strip_prefix("store ") {
                let (target, rhs) = split_eq(rest, line_no)?;
                let (array, index) = parse_store_target(target, raw, line_no)?;
                let value = parse_expr_at(rhs, line_no, col_of(raw, rhs))?;
                k.epilogue.push(StoreStmt { array, index, value });
            } else {
                return err(line_no, format!("unrecognized statement `{line}`"));
            }
        }
    }
    if kernel.is_some() {
        return err(src.lines().count(), "kernel not closed with `}`");
    }
    Ok(p)
}

// ---------- printer ----------

fn op_symbol(op: Op) -> Option<&'static str> {
    Some(match op {
        Op::AddI => "+",
        Op::SubI => "-",
        Op::MulI => "*",
        Op::DivI => "/",
        Op::Mod => "%",
        Op::LtI => "<",
        Op::GeI => ">=",
        Op::EqI => "==",
        Op::AddF => "+.",
        Op::SubF => "-.",
        Op::MulF => "*.",
        Op::DivF => "/.",
        Op::GeF => ">=.",
        Op::LtF => "<.",
        _ => return None,
    })
}

/// Prints an expression in the surface syntax (fully parenthesized).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Const(Value::Int(x)) => x.to_string(),
        Expr::Const(Value::Bool(b)) => b.to_string(),
        Expr::Const(v @ Value::F64(_)) => match v.as_f64() {
            Some(f) if f.fract() == 0.0 && f.is_finite() => format!("{f:.1}"),
            Some(f) => format!("{f}"),
            None => print_value(v),
        },
        Expr::Const(v) => print_value(v),
        Expr::Var(v) => v.clone(),
        Expr::Load(a, idx) => format!("{a}[{}]", print_expr(idx)),
        Expr::Un(Op::NeZero, a) => format!("nez({})", print_expr(a)),
        Expr::Un(Op::Not, a) => format!("not({})", print_expr(a)),
        Expr::Un(Op::IToF, a) => format!("itof({})", print_expr(a)),
        Expr::Un(op, a) => format!("{op}({})", print_expr(a)),
        Expr::Bin(op, a, b) => match op_symbol(*op) {
            Some(sym) => format!("({} {sym} {})", print_expr(a), print_expr(b)),
            None => format!("{op}({}, {})", print_expr(a), print_expr(b)),
        },
        Expr::Sel(c, t, f) => {
            format!("select({}, {}, {})", print_expr(c), print_expr(t), print_expr(f))
        }
    }
}

/// Prints a program in the surface syntax; `parse_program` accepts the
/// output.
pub fn print_program(p: &Program) -> String {
    let mut out = format!("program {}\n", p.name);
    for (name, values) in &p.arrays {
        out.push_str(&format!(
            "array {name} = [{}]\n",
            values.iter().map(print_value).collect::<Vec<_>>().join(", ")
        ));
    }
    for k in &p.kernels {
        let ooo = match k.ooo_tags {
            Some(t) => format!(" ooo tags {t}"),
            None => String::new(),
        };
        out.push_str(&format!("\nkernel for {} in 0..{}{} {{\n", k.var, k.trip, ooo));
        for (name, e) in &k.inner.vars {
            out.push_str(&format!("  state {name} = {}\n", print_expr(e)));
        }
        for (name, e) in &k.inner.update {
            out.push_str(&format!("  update {name} = {}\n", print_expr(e)));
        }
        for st in &k.inner.effects {
            out.push_str(&format!(
                "  do store {}[{}] = {}\n",
                st.array,
                print_expr(&st.index),
                print_expr(&st.value)
            ));
        }
        out.push_str(&format!("  while {}\n", print_expr(&k.inner.cond)));
        for st in &k.epilogue {
            out.push_str(&format!(
                "  store {}[{}] = {}\n",
                st.array,
                print_expr(&st.index),
                print_expr(&st.value)
            ));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::run_program;

    const GCD: &str = r#"
program gcd
array arr1 = [i:12, i:35, i:49]
array arr2 = [i:18, i:21, i:14]
array result = zeros int 3

kernel for i in 0..3 ooo tags 8 {
  state a = arr1[i]
  state b = arr2[i]
  update a = b
  update b = a % b
  while nez(b)
  store result[i] = a
}
"#;

    #[test]
    fn parses_and_runs_gcd() {
        let p = parse_program(GCD).unwrap();
        assert_eq!(p.name, "gcd");
        assert_eq!(p.kernels.len(), 1);
        assert_eq!(p.kernels[0].ooo_tags, Some(8));
        let mem = run_program(&p).unwrap();
        assert_eq!(mem["result"], vec![Value::Int(6), Value::Int(7), Value::Int(7)]);
    }

    #[test]
    fn roundtrips_through_the_printer() {
        let p = parse_program(GCD).unwrap();
        let printed = print_program(&p);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p, p2, "printed:\n{printed}");
    }

    #[test]
    fn float_and_select_expressions() {
        let e = parse_expr("select(data[base + j] >=. 0.0, data[j] *. data[j] +. 0.25, 0.0)", 1)
            .unwrap();
        let printed = print_expr(&e);
        let e2 = parse_expr(&printed, 1).unwrap();
        assert_eq!(e, e2, "{printed}");
    }

    #[test]
    fn precedence_is_conventional() {
        let e = parse_expr("a + b * c", 1).unwrap();
        assert_eq!(e, Expr::addi(Expr::var("a"), Expr::muli(Expr::var("b"), Expr::var("c"))));
        let e = parse_expr("j + 1 < n", 1).unwrap();
        assert_eq!(e, Expr::bin(Op::LtI, Expr::addi(Expr::var("j"), Expr::int(1)), Expr::var("n")));
    }

    #[test]
    fn store_in_body_parses() {
        let src = r#"
program fx
array out = zeros int 4
kernel for i in 0..1 {
  state j = 0
  update j = j + 1
  do store out[j] = j * 10
  while j < 4
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.kernels[0].inner.effects.len(), 1);
        let mem = run_program(&p).unwrap();
        assert_eq!(mem["out"], vec![Value::Int(0), Value::Int(10), Value::Int(20), Value::Int(30)]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "program x\nkernel for i in 0..2 {\n  bogus statement\n}\n";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unrecognized"));
    }

    #[test]
    fn unbalanced_kernels_are_rejected() {
        assert!(parse_program(
            "kernel for i in 0..2 {\n state x = 0\n update x = x\n while nez(x)"
        )
        .is_err());
        assert!(parse_program("}").is_err());
        let missing_update =
            "program p\nkernel for i in 0..1 {\n  state x = 0\n  while nez(x)\n}\n";
        assert!(parse_program(missing_update).is_err());
    }

    #[test]
    fn negative_literals_lex() {
        let e = parse_expr("-3 + x", 1).unwrap();
        assert_eq!(e, Expr::addi(Expr::int(-3), Expr::var("x")));
    }
}

//! Plain-text syntax for constraints, instances and queries.
//!
//! Conventions (documented in DESIGN.md §5):
//!
//! * identifiers starting with an ASCII uppercase letter are **variables**
//!   (`X`, `Y1`, `City`);
//! * identifiers starting with a lowercase letter or a digit are
//!   **constants** (`a`, `c1`, `42`);
//! * identifiers of the form `_n<digits>` are **labeled nulls** and are only
//!   legal inside instances;
//! * `#` and `//` start line comments.
//!
//! Grammar:
//!
//! ```text
//! constraint := [atom_list] '->' (atom_list | VAR '=' VAR)
//!             | [atom_list] '->' 'exists' var_list '.' atom_list
//! atom       := IDENT '(' [term {',' term}] ')'
//! instance   := { atom '.' }            (trailing dot optional)
//! query      := atom '<-' [atom_list]
//! ```
//!
//! Head variables of a TGD that do not occur in the body are existential; an
//! explicit `exists` clause is optional and, when present, must list exactly
//! those variables.

use crate::atom::Atom;
use crate::constraint::{Constraint, ConstraintSet, Egd, Tgd};
use crate::cq::ConjunctiveQuery;
use crate::error::CoreError;
use crate::instance::Instance;
use crate::symbol::Sym;
use crate::term::Term;

/// A token. Identifiers borrow from the lexed text, so lexing allocates
/// only the token vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind<'a> {
    Ident(&'a str),
    LParen,
    RParen,
    Comma,
    Arrow,  // ->
    LArrow, // <-
    Eq,
    Dot,
    Eof,
}

#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    kind: TokKind<'a>,
    line: usize,
    col: usize,
}

/// Split `text` into tokens. Scans bytes: every token and separator is
/// ASCII, and a non-ASCII char is legal only inside a comment, which ends
/// at an ASCII `\n`. Columns count chars, comments included.
fn lex(text: &str) -> Result<Vec<Tok<'_>>, CoreError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1usize, 1usize);
    let err = |line, col, msg: String| Err(CoreError::Parse { line, col, msg });
    while let Some(&b) = bytes.get(i) {
        let next = bytes.get(i + 1).copied();
        let (kind, len) = match b {
            b'\n' => {
                (i, line, col) = (i + 1, line + 1, 1);
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                (i, col) = (i + 1, col + 1);
                continue;
            }
            b'#' | b'/' if b == b'#' || next == Some(b'/') => {
                let end = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                col += text[i..end].chars().count();
                i = end;
                continue;
            }
            b'/' => return err(line, col, "unexpected '/' (expected '//' comment)".into()),
            b'(' => (TokKind::LParen, 1),
            b')' => (TokKind::RParen, 1),
            b',' => (TokKind::Comma, 1),
            b'.' => (TokKind::Dot, 1),
            b'=' => (TokKind::Eq, 1),
            b'-' if next == Some(b'>') => (TokKind::Arrow, 2),
            b'-' => return err(line, col, "unexpected '-' (expected '->')".into()),
            b'<' if next == Some(b'-') => (TokKind::LArrow, 2),
            b'<' => return err(line, col, "unexpected '<' (expected '<-')".into()),
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_')
                    .count();
                (TokKind::Ident(&text[i..i + len]), len)
            }
            _ => {
                let other = text[i..]
                    .chars()
                    .next()
                    .expect("lexing stops on char boundaries");
                return err(line, col, format!("unexpected character {other:?}"));
            }
        };
        toks.push(Tok { kind, line, col });
        (i, col) = (i + len, col + len);
    }
    toks.push(Tok {
        kind: TokKind::Eof,
        line,
        col,
    });
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    /// May `_n<k>` nulls appear (instances yes, constraints/queries no)?
    allow_nulls: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, allow_nulls: bool) -> Result<Parser<'a>, CoreError> {
        Ok(Parser {
            toks: lex(text)?,
            pos: 0,
            allow_nulls,
        })
    }

    fn peek(&self) -> TokKind<'a> {
        self.toks[self.pos].kind
    }

    fn here(&self) -> (usize, usize) {
        (self.toks[self.pos].line, self.toks[self.pos].col)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CoreError> {
        let (line, col) = self.here();
        Err(CoreError::Parse {
            line,
            col,
            msg: msg.into(),
        })
    }

    fn advance(&mut self) -> TokKind<'a> {
        let k = self.peek();
        if k != TokKind::Eof {
            self.pos += 1;
        }
        k
    }

    fn expect(&mut self, kind: TokKind<'a>, what: &str) -> Result<(), CoreError> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn at_eof(&self) -> bool {
        self.peek() == TokKind::Eof
    }

    fn term_from_ident(&self, name: &str) -> Result<Term, CoreError> {
        let first = name.chars().next().expect("non-empty ident");
        if first == '_' {
            if !self.allow_nulls {
                return self.err(format!(
                    "labeled null {name} is only legal inside instances"
                ));
            }
            let digits = name
                .strip_prefix("_n")
                .filter(|d| !d.is_empty() && d.chars().all(|c| c.is_ascii_digit()));
            return match digits {
                Some(d) => Ok(Term::Null(d.parse::<u32>().map_err(|_| {
                    CoreError::Parse {
                        line: self.here().0,
                        col: self.here().1,
                        msg: format!("null id out of range in {name}"),
                    }
                })?)),
                None => self.err(format!("nulls must be written _n<digits>, got {name}")),
            };
        }
        if first.is_ascii_uppercase() {
            Ok(Term::var(name))
        } else {
            Ok(Term::constant(name))
        }
    }

    fn parse_term(&mut self) -> Result<Term, CoreError> {
        match self.advance() {
            TokKind::Ident(name) => {
                // The token has been consumed; error positions will point
                // just past it, which is close enough for diagnostics.
                self.term_from_ident(name)
            }
            other => self.err(format!("expected a term, found {other:?}")),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom, CoreError> {
        let pred = match self.advance() {
            TokKind::Ident(name) => name,
            other => return self.err(format!("expected a predicate name, found {other:?}")),
        };
        if pred.starts_with('_') {
            return self.err(format!("predicate name may not start with '_': {pred}"));
        }
        self.expect(TokKind::LParen, "'('")?;
        let mut terms = Vec::new();
        if self.peek() != TokKind::RParen {
            loop {
                terms.push(self.parse_term()?);
                if self.peek() == TokKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(TokKind::RParen, "')'")?;
        Ok(Atom::new(pred, terms))
    }

    fn parse_atom_list(&mut self) -> Result<Vec<Atom>, CoreError> {
        let mut atoms = vec![self.parse_atom()?];
        while self.peek() == TokKind::Comma {
            self.advance();
            atoms.push(self.parse_atom()?);
        }
        Ok(atoms)
    }

    fn parse_constraint(&mut self) -> Result<Constraint, CoreError> {
        let body = if self.peek() == TokKind::Arrow {
            Vec::new()
        } else {
            self.parse_atom_list()?
        };
        self.expect(TokKind::Arrow, "'->'")?;

        // Optional explicit existential quantifier: `exists Z, W . head`.
        let mut declared_existentials: Option<Vec<Sym>> = None;
        if let TokKind::Ident(id) = self.peek() {
            if id == "exists" {
                self.advance();
                let mut vars = Vec::new();
                loop {
                    match self.advance() {
                        TokKind::Ident(name)
                            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) =>
                        {
                            vars.push(Sym::new(name));
                        }
                        other => {
                            return self
                                .err(format!("expected an existential variable, found {other:?}"))
                        }
                    }
                    if self.peek() == TokKind::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(TokKind::Dot, "'.' after exists-variables")?;
                declared_existentials = Some(vars);
            }
        }

        // EGD: `Var = Var`. Distinguish from an atom by the token after the
        // identifier.
        if declared_existentials.is_none()
            && matches!(self.peek(), TokKind::Ident(_))
            && self.toks.get(self.pos + 1).map(|t| t.kind) == Some(TokKind::Eq)
        {
            let left = match self.advance() {
                TokKind::Ident(name) => name,
                _ => unreachable!(),
            };
            self.advance(); // '='
            let right = match self.advance() {
                TokKind::Ident(name) => name,
                other => return self.err(format!("expected a variable, found {other:?}")),
            };
            for v in [left, right] {
                if !v.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    return self.err(format!("EGD equates variables, got {v}"));
                }
            }
            let egd = Egd::new(body, Sym::new(left), Sym::new(right))?;
            return Ok(Constraint::Egd(egd));
        }

        let head = self.parse_atom_list()?;
        let tgd = Tgd::new(body, head)?;
        if let Some(declared) = declared_existentials {
            let mut inferred: Vec<Sym> = tgd.existentials().to_vec();
            let mut declared_sorted = declared;
            inferred.sort_by_key(|s| s.as_str());
            declared_sorted.sort_by_key(|s| s.as_str());
            if inferred != declared_sorted {
                return Err(CoreError::InvalidConstraint(format!(
                    "declared existentials {declared_sorted:?} differ from inferred {inferred:?}"
                )));
            }
        }
        Ok(Constraint::Tgd(tgd))
    }
}

/// Parse a single constraint (TGD or EGD).
pub fn parse_constraint(text: &str) -> Result<Constraint, CoreError> {
    let mut p = Parser::new(text, false)?;
    let c = p.parse_constraint()?;
    if !p.at_eof() {
        return p.err("trailing input after constraint");
    }
    Ok(c)
}

/// Parse a constraint set: constraints separated by newlines or `;`.
///
/// The `;` separator makes a whole set a single line of text — the form
/// wire protocols and one-line REPL commands carry — with the same
/// semantics as the newline-separated layout. `#` and `//` comments run to
/// the end of the *line*, so a `;` inside a comment separates nothing.
pub fn parse_constraints(text: &str) -> Result<ConstraintSet, CoreError> {
    let mut items = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let line = match line.find("//") {
            Some(i) => &line[..i],
            None => line,
        };
        for piece in line.split(';') {
            if piece.trim().is_empty() {
                continue;
            }
            let c = parse_constraint(piece).map_err(|e| match e {
                CoreError::Parse { col, msg, .. } => CoreError::Parse {
                    line: lineno + 1,
                    col,
                    msg,
                },
                other => other,
            })?;
            items.push(c);
        }
    }
    ConstraintSet::from_constraints(items)
}

/// Parse a fact list: ground atoms separated by (optional) dots, in text
/// order, duplicates kept. The instance syntax without building the
/// indexed store — what an update batch needs.
pub fn parse_facts(text: &str) -> Result<Vec<Atom>, CoreError> {
    let mut p = Parser::new(text, true)?;
    let mut facts = Vec::new();
    while !p.at_eof() {
        let atom = p.parse_atom()?;
        if !atom.is_ground() {
            return Err(CoreError::NonGroundAtom(atom.to_string()));
        }
        facts.push(atom);
        if p.peek() == TokKind::Dot {
            p.advance();
        }
    }
    Ok(facts)
}

/// Parse an instance: [`parse_facts`], inserted into a fresh store.
pub fn parse_instance(text: &str) -> Result<Instance, CoreError> {
    let mut inst = Instance::new();
    for atom in parse_facts(text)? {
        inst.insert(atom);
    }
    Ok(inst)
}

/// Parse a conjunctive query `q(X) <- body`.
pub fn parse_query(text: &str) -> Result<ConjunctiveQuery, CoreError> {
    let mut p = Parser::new(text, false)?;
    let head = p.parse_atom()?;
    p.expect(TokKind::LArrow, "'<-'")?;
    let body = if p.at_eof() {
        Vec::new()
    } else {
        p.parse_atom_list()?
    };
    if !p.at_eof() {
        return p.err("trailing input after query");
    }
    ConjunctiveQuery::new(head.pred(), head.terms().to_vec(), body)
}

/// Parse a comma-separated atom list (variables allowed) — handy in tests.
pub fn parse_atom_list(text: &str) -> Result<Vec<Atom>, CoreError> {
    let mut p = Parser::new(text, true)?;
    let atoms = p.parse_atom_list()?;
    if !p.at_eof() {
        return p.err("trailing input after atoms");
    }
    Ok(atoms)
}

/// Parse a single atom (variables allowed).
pub fn parse_atom(text: &str) -> Result<Atom, CoreError> {
    let mut p = Parser::new(text, true)?;
    let atom = p.parse_atom()?;
    if !p.at_eof() {
        return p.err("trailing input after atom");
    }
    Ok(atom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_all_token_kinds() {
        let toks = lex("E(X,_n1) -> X = Y <- . # comment").unwrap();
        assert!(toks.iter().any(|t| t.kind == TokKind::Arrow));
        assert!(toks.iter().any(|t| t.kind == TokKind::LArrow));
        assert!(toks.iter().any(|t| t.kind == TokKind::Eq));
    }

    #[test]
    fn parse_tgd_with_inferred_existential() {
        let c = parse_constraint("S(X) -> E(X,Y), S(Y)").unwrap();
        let t = c.as_tgd().unwrap();
        assert_eq!(t.existentials(), &[Sym::new("Y")]);
    }

    #[test]
    fn parse_tgd_with_explicit_exists() {
        let c = parse_constraint("S(X) -> exists Y . E(X,Y), S(Y)").unwrap();
        assert_eq!(c.as_tgd().unwrap().existentials(), &[Sym::new("Y")]);
    }

    #[test]
    fn explicit_exists_mismatch_is_an_error() {
        assert!(parse_constraint("S(X) -> exists Z . E(X,Y)").is_err());
    }

    #[test]
    fn parse_egd() {
        let c = parse_constraint("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let e = c.as_egd().unwrap();
        assert_eq!(e.left(), Sym::new("Y"));
        assert_eq!(e.right(), Sym::new("Z"));
    }

    #[test]
    fn parse_empty_body() {
        let c = parse_constraint("-> S(X), E(X,Y)").unwrap();
        assert!(c.body().is_empty());
    }

    #[test]
    fn nulls_rejected_in_constraints() {
        assert!(parse_constraint("S(_n1) -> E(_n1,X)").is_err());
    }

    #[test]
    fn parse_instance_with_nulls_and_dots() {
        let i = parse_instance("S(a). E(a,_n3) S(_n3).").unwrap();
        assert_eq!(i.len(), 3);
        assert!(i.nulls().contains(&3));
        // Counter advanced past the parsed null.
        let mut i = i;
        assert!(i.fresh_null().as_null().unwrap() > 3);
    }

    #[test]
    fn instance_rejects_variables_and_bad_nulls() {
        assert!(parse_instance("S(X).").is_err());
        assert!(parse_instance("S(_foo).").is_err());
    }

    #[test]
    fn facts_parse_like_the_instance_they_build() {
        let text = "S(a). E(a,_n3) S(_n3). S(a).";
        let facts = parse_facts(text).unwrap();
        assert_eq!(facts.len(), 4, "duplicates are kept");
        assert_eq!(parse_instance(text).unwrap().atoms(), facts[..3]);
        for bad in ["S(X).", "S(_foo).", "S(a", "S(a) -> T(a)"] {
            assert_eq!(
                parse_facts(bad).unwrap_err(),
                parse_instance(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn parse_query_with_constants() {
        let q = parse_query("rf(X2) <- rail(c1,X1,Y1), fly(X1,X2,Y2)").unwrap();
        assert_eq!(q.head_args(), &[Term::var("X2")]);
        assert_eq!(q.body().len(), 2);
    }

    #[test]
    fn boolean_query_parses() {
        let q = parse_query("q() <- E(X,X)").unwrap();
        assert!(q.is_boolean());
    }

    #[test]
    fn comments_and_blank_lines_in_sets() {
        let s = parse_constraints(
            "# leading comment\n\
             \n\
             S(X) -> T(X)   // trailing comment\n\
             T(X) -> S(X)\n",
        )
        .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn semicolons_separate_constraints_like_newlines() {
        let one_line = parse_constraints("S(X) -> T(X); T(X) -> S(X);").unwrap();
        let multi_line = parse_constraints("S(X) -> T(X)\nT(X) -> S(X)").unwrap();
        assert_eq!(one_line.len(), 2);
        assert_eq!(one_line, multi_line);
        // A `;` inside a comment separates nothing.
        let commented = parse_constraints("S(X) -> T(X) # a; comment").unwrap();
        assert_eq!(commented.len(), 1);
        // Mixed separators on one input.
        let mixed = parse_constraints("S(X) -> T(X); T(X) -> U(X)\nU(X) -> S(X)").unwrap();
        assert_eq!(mixed.len(), 3);
    }

    #[test]
    fn error_positions_are_one_based() {
        let err = parse_constraint("S(X) ->").unwrap_err();
        match err {
            CoreError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_locations_and_messages_are_pinned() {
        // (entry point, input, line, col, message). Columns count chars, not
        // bytes — comments with multi-byte chars included.
        type Entry = fn(&str) -> Result<(), CoreError>;
        let facts: Entry = |t| parse_facts(t).map(drop);
        let query: Entry = |t| parse_query(t).map(drop);
        let constraint: Entry = |t| parse_constraint(t).map(drop);
        let table: [(Entry, &str, usize, usize, &str); 10] = [
            (
                facts,
                "S(a). /",
                1,
                7,
                "unexpected '/' (expected '//' comment)",
            ),
            (
                constraint,
                "S(X) - T(X)",
                1,
                6,
                "unexpected '-' (expected '->')",
            ),
            (query, "q(X) < S(X)", 1, 6, "unexpected '<' (expected '<-')"),
            (
                facts,
                "S(a). # café ✓ naïve\n  T(é).",
                2,
                5,
                "unexpected character 'é'",
            ),
            (facts, "S(a). T(bé).", 1, 10, "unexpected character 'é'"),
            (facts, "S(a, b", 1, 7, "expected ')', found Eof"),
            (facts, "S(a, b # ¬✓é", 1, 13, "expected ')', found Eof"),
            (
                facts,
                "S(_n99999999999).",
                1,
                16,
                "null id out of range in _n99999999999",
            ),
            (
                query,
                "q(X) <- S(X, _n1)",
                1,
                17,
                "labeled null _n1 is only legal inside instances",
            ),
            (facts, "S(a).\n\tE(a", 2, 5, "expected ')', found Eof"),
        ];
        for (entry, text, line, col, msg) in table {
            assert_eq!(
                entry(text).unwrap_err(),
                CoreError::Parse {
                    line,
                    col,
                    msg: msg.into()
                },
                "on {text:?}"
            );
        }
    }

    #[test]
    fn numbers_are_constants() {
        let a = parse_atom("R(1,2,X)").unwrap();
        assert_eq!(a.terms()[0], Term::constant("1"));
        assert!(a.terms()[2].is_var());
    }
}

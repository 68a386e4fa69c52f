//! Recursive-descent parser for the SPARQL subset.

use crate::ast::{CompareOp, Constraint, Element, Group, Query, Selection, Term, TriplePattern};
use crate::error::RdfError;
use crate::lexer::{tokenize, Keyword, Token};

/// Deepest `{ … }` nesting a query may use, the `WHERE` group included.
/// Each level is one recursive [`Parser::parse_group`] call, so the cap
/// bounds the stack a hostile query can take.
const MAX_GROUP_DEPTH: usize = 64;

/// Parses a query string into a [`Query`].
pub fn parse(input: &str) -> Result<Query, RdfError> {
    let tokens = tokenize(input)?;
    Parser {
        tokens,
        pos: 0,
        prefixes: Vec::new(),
        depth: 0,
    }
    .parse_query()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: Vec<(String, String)>,
    /// Groups currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), RdfError> {
        match self.next() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(RdfError::parse(
                self.pos,
                format!("expected {kw:?}, found {other:?}"),
            )),
        }
    }

    fn expect(&mut self, tok: Token) -> Result<(), RdfError> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => Err(RdfError::parse(
                self.pos,
                format!("expected {tok:?}, found {other:?}"),
            )),
        }
    }

    fn parse_query(&mut self) -> Result<Query, RdfError> {
        while matches!(self.peek(), Some(Token::Keyword(Keyword::Prefix))) {
            self.parse_prefix()?;
        }
        self.expect_kw(Keyword::Select)?;
        let distinct = if matches!(self.peek(), Some(Token::Keyword(Keyword::Distinct))) {
            self.next();
            true
        } else {
            false
        };
        let select = self.parse_selection()?;
        // WHERE is optional in SPARQL.
        if matches!(self.peek(), Some(Token::Keyword(Keyword::Where))) {
            self.next();
        }
        self.expect(Token::LBrace)?;
        let group = self.parse_group()?;
        let (mut limit, mut offset) = (None, None);
        loop {
            match self.peek() {
                Some(Token::Keyword(Keyword::Limit)) => {
                    self.next();
                    limit = Some(self.parse_number()?);
                }
                Some(Token::Keyword(Keyword::Offset)) => {
                    self.next();
                    offset = Some(self.parse_number()?);
                }
                None => break,
                other => {
                    return Err(RdfError::parse(
                        self.pos,
                        format!("unexpected trailing token {other:?}"),
                    ))
                }
            }
        }
        Ok(Query {
            select,
            distinct,
            group,
            limit,
            offset,
        })
    }

    fn parse_prefix(&mut self) -> Result<(), RdfError> {
        self.expect_kw(Keyword::Prefix)?;
        let name = match self.next() {
            Some(Token::PName(p)) => p,
            other => {
                return Err(RdfError::parse(
                    self.pos,
                    format!("expected prefix name, found {other:?}"),
                ))
            }
        };
        let name = name.strip_suffix(':').unwrap_or(&name).to_string();
        let iri = match self.next() {
            Some(Token::Iri(i)) => i,
            other => {
                return Err(RdfError::parse(
                    self.pos,
                    format!("expected prefix IRI, found {other:?}"),
                ))
            }
        };
        self.prefixes.push((name, iri));
        Ok(())
    }

    fn parse_selection(&mut self) -> Result<Selection, RdfError> {
        match self.peek() {
            Some(Token::Star) => {
                self.next();
                Ok(Selection::All)
            }
            Some(Token::LParen) => {
                // (COUNT(*) AS ?v)
                self.next();
                self.expect_kw(Keyword::Count)?;
                self.expect(Token::LParen)?;
                self.expect(Token::Star)?;
                self.expect(Token::RParen)?;
                self.expect_kw(Keyword::As)?;
                match self.next() {
                    Some(Token::Var(_)) => {}
                    other => {
                        return Err(RdfError::parse(
                            self.pos,
                            format!("expected count variable, found {other:?}"),
                        ))
                    }
                }
                self.expect(Token::RParen)?;
                Ok(Selection::Count)
            }
            Some(Token::Var(_)) => {
                let mut vars = Vec::new();
                while let Some(Token::Var(v)) = self.peek() {
                    vars.push(v.clone());
                    self.next();
                }
                Ok(Selection::Vars(vars))
            }
            other => Err(RdfError::parse(
                self.pos,
                format!("expected projection, found {other:?}"),
            )),
        }
    }

    /// Parses a group body up to (not consuming past) its closing brace.
    fn parse_group(&mut self) -> Result<Group, RdfError> {
        if self.depth == MAX_GROUP_DEPTH {
            return Err(RdfError::parse(
                self.pos,
                format!("groups nested deeper than {MAX_GROUP_DEPTH}"),
            ));
        }
        self.depth += 1;
        let group = self.parse_group_elements();
        self.depth -= 1;
        group
    }

    fn parse_group_elements(&mut self) -> Result<Group, RdfError> {
        let mut elements = Vec::new();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.next();
                    return Ok(Group { elements });
                }
                Some(Token::LBrace) => {
                    // `{ g1 } UNION { g2 } UNION ...`
                    self.next();
                    let first = self.parse_group()?;
                    let mut branches = vec![first];
                    while matches!(self.peek(), Some(Token::Keyword(Keyword::Union))) {
                        self.next();
                        self.expect(Token::LBrace)?;
                        branches.push(self.parse_group()?);
                    }
                    if branches.len() == 1 {
                        // A lone nested group is just its contents.
                        elements.extend(branches.pop().unwrap().elements);
                    } else {
                        elements.push(Element::Union(branches));
                    }
                }
                Some(Token::Dot) => {
                    self.next();
                }
                Some(Token::Keyword(Keyword::Filter)) => {
                    self.next();
                    self.expect(Token::LParen)?;
                    let left = self.parse_term()?;
                    let op = match self.next() {
                        Some(Token::Eq) => CompareOp::Eq,
                        Some(Token::Neq) => CompareOp::Neq,
                        other => {
                            return Err(RdfError::parse(
                                self.pos,
                                format!("expected = or != in FILTER, found {other:?}"),
                            ))
                        }
                    };
                    let right = self.parse_term()?;
                    self.expect(Token::RParen)?;
                    elements.push(Element::Filter(Constraint { left, op, right }));
                }
                Some(_) => {
                    let tp = self.parse_triple_pattern()?;
                    elements.push(Element::Pattern(tp));
                }
                None => {
                    return Err(RdfError::parse(self.pos, "unterminated group (missing '}')"))
                }
            }
        }
    }

    fn parse_triple_pattern(&mut self) -> Result<TriplePattern, RdfError> {
        let s = self.parse_term()?;
        let p = self.parse_term()?;
        let o = self.parse_term()?;
        Ok(TriplePattern::new(s, p, o))
    }

    fn parse_term(&mut self) -> Result<Term, RdfError> {
        match self.next() {
            Some(Token::Var(v)) => Ok(Term::Var(v)),
            Some(Token::Iri(i)) => Ok(Term::Const(i)),
            Some(Token::Literal(l)) => Ok(Term::Const(l)),
            Some(Token::A) => Ok(Term::Const(crate::store::RDF_TYPE.to_string())),
            Some(Token::PName(p)) => Ok(Term::Const(self.expand(&p))),
            other => Err(RdfError::parse(
                self.pos,
                format!("expected term, found {other:?}"),
            )),
        }
    }

    fn expand(&self, pname: &str) -> String {
        if let Some(colon) = pname.find(':') {
            let (prefix, local) = (&pname[..colon], &pname[colon + 1..]);
            if let Some((_, iri)) = self.prefixes.iter().find(|(p, _)| p == prefix) {
                return format!("{iri}{local}");
            }
        }
        pname.to_string()
    }

    fn parse_number(&mut self) -> Result<usize, RdfError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(RdfError::parse(
                self.pos,
                format!("expected number, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o . } LIMIT 10 OFFSET 5").unwrap();
        assert_eq!(q.projected_vars(), vec!["s", "o"]);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
        assert_eq!(q.group.elements.len(), 1);
    }

    #[test]
    fn parses_type_shorthand() {
        let q = parse("SELECT * WHERE { ?v a <Paper> }").unwrap();
        match &q.group.elements[0] {
            Element::Pattern(tp) => {
                assert_eq!(tp.p, Term::Const(crate::store::RDF_TYPE.to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_union() {
        let q = parse(
            "SELECT * WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } UNION { ?x a <C> } }",
        )
        .unwrap();
        match &q.group.elements[0] {
            Element::Union(branches) => assert_eq!(branches.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_query_d2h1_parses() {
        // The Q^{d2h1} query shape from §IV-C.
        let q = parse(
            "SELECT * WHERE { \
               ?v a <TargetType> . \
               { ?v ?pout ?out . } UNION { ?in ?pin ?v . } \
             }",
        )
        .unwrap();
        assert_eq!(q.group.elements.len(), 2);
        let vars = q.projected_vars();
        assert!(vars.contains(&"v".to_string()));
        assert!(vars.contains(&"in".to_string()));
    }

    #[test]
    fn nested_lone_group_flattens() {
        let q = parse("SELECT * WHERE { { ?s ?p ?o } }").unwrap();
        assert!(matches!(q.group.elements[0], Element::Pattern(_)));
    }

    #[test]
    fn prefix_expansion() {
        let q = parse(
            "PREFIX mag: <http://mag.org/> SELECT * WHERE { ?s mag:writes ?o }",
        )
        .unwrap();
        match &q.group.elements[0] {
            Element::Pattern(tp) => {
                assert_eq!(tp.p, Term::Const("http://mag.org/writes".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_selection() {
        let q = parse("SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(q.select, Selection::Count);
    }

    #[test]
    fn distinct_flag() {
        let q = parse("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.distinct);
    }

    #[test]
    fn literal_objects() {
        let q = parse("SELECT * WHERE { ?s <year> \"2024\" }").unwrap();
        match &q.group.elements[0] {
            Element::Pattern(tp) => assert_eq!(tp.o, Term::Const("2024".into())),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT WHERE").is_err());
        assert!(parse("SELECT * WHERE { ?s ?p }").is_err());
        assert!(parse("SELECT * WHERE { ?s ?p ?o ").is_err());
        assert!(parse("SELECT * WHERE { ?s ?p ?o } EXTRA 1").is_err());
    }

    fn nested(depth: usize) -> String {
        format!(
            "SELECT * WHERE {}?s ?p ?o{}",
            "{ ".repeat(depth),
            " }".repeat(depth)
        )
    }

    #[test]
    fn nesting_is_capped() {
        assert!(parse(&nested(MAX_GROUP_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_GROUP_DEPTH + 1)).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let query = format!("SELECT * WHERE {}", "{".repeat(100_000));
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&query).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed, "100 000 nested groups must be a parse error");
    }

    #[test]
    fn display_then_reparse() {
        let q = parse(
            "SELECT DISTINCT ?s WHERE { ?s a <Paper> . { ?s ?p ?o } UNION { ?o ?p ?s } } LIMIT 7",
        )
        .unwrap();
        let q2 = parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}

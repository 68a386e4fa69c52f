//! N-Triples import/export.
//!
//! The paper's pipeline starts from RDF dumps (MAG, DBLP, YAGO are
//! published as N-Triples) loaded into an RDF engine. This module provides
//! the same ingestion path: a line-oriented N-Triples reader/writer over
//! [`KnowledgeGraph`], including the `rdf:type` convention used to carry
//! node classes.
//!
//! Supported term forms: `<iri>`, `_:blank`, and `"literal"` (with
//! `\"`/`\\`/`\n`/`\t` escapes); language tags and datatype suffixes are
//! accepted and preserved as part of the literal text.

use std::io::{BufRead, Write};

use kgtosa_kg::{KnowledgeGraph, Triple};

use crate::error::RdfError;
use crate::store::RDF_TYPE;

/// The full IRI commonly used for `rdf:type`; recognized on input in
/// addition to the short form.
pub const RDF_TYPE_IRI: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Default class assigned to subjects that carry no `rdf:type` assertion.
pub const UNTYPED_CLASS: &str = "__untyped__";

/// Reads an N-Triples document into a [`KnowledgeGraph`].
///
/// `rdf:type` statements set the subject's class (first assertion wins, as
/// in [`KnowledgeGraph::add_node`]); all other statements become data
/// triples. Objects that are literals become literal vertices. An RDF
/// graph is a set of statements, so a repeated data statement is one
/// triple.
pub fn read_ntriples(reader: impl BufRead) -> Result<KnowledgeGraph, RdfError> {
    let mut kg = KnowledgeGraph::new();
    let mut pending: Vec<(String, String, Term)> = Vec::new();
    let mut types: Vec<(String, String)> = Vec::new();

    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| RdfError::exec(format!("I/O error: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_line(trimmed)
            .map_err(|msg| RdfError::parse(lineno, format!("line {}: {msg}", lineno + 1)))?;
        let p_text = match p {
            Term::Iri(i) => i,
            other => {
                return Err(RdfError::parse(
                    lineno,
                    format!("line {}: predicate must be an IRI, found {other:?}", lineno + 1),
                ))
            }
        };
        let s_text = match s {
            Term::Iri(i) | Term::Blank(i) => i,
            Term::Literal(_) => {
                return Err(RdfError::parse(
                    lineno,
                    format!("line {}: subject cannot be a literal", lineno + 1),
                ))
            }
        };
        if p_text == RDF_TYPE || p_text == RDF_TYPE_IRI {
            if let Term::Iri(class) = o {
                types.push((s_text, class));
                continue;
            }
            return Err(RdfError::parse(
                lineno,
                format!("line {}: rdf:type object must be an IRI", lineno + 1),
            ));
        }
        pending.push((s_text, p_text, o));
    }

    // Two passes: type assertions first so classes are right when data
    // triples intern their endpoints.
    for (s, class) in &types {
        kg.add_node(s, class);
    }
    let mut triples = Vec::with_capacity(pending.len());
    for (s, p, o) in pending {
        let s = kg.add_node(&s, UNTYPED_CLASS);
        let p = kg.add_relation(&p);
        let o = match o {
            Term::Iri(i) | Term::Blank(i) => kg.add_node(&i, UNTYPED_CLASS),
            Term::Literal(l) => kg.add_literal(&l),
        };
        triples.push(Triple::new(s, p, o));
    }
    kg.extend_triples(triples);
    Ok(kg)
}

/// Writes a [`KnowledgeGraph`] as N-Triples: one `rdf:type` statement per
/// vertex (skipping the untyped placeholder) followed by all data triples.
pub fn write_ntriples(kg: &KnowledgeGraph, mut w: impl Write) -> std::io::Result<()> {
    for v in 0..kg.num_nodes() as u32 {
        let vid = kgtosa_kg::Vid(v);
        let class = kg.class_term(kg.class_of(vid));
        if class == UNTYPED_CLASS || class == KnowledgeGraph::LITERAL_CLASS {
            continue;
        }
        writeln!(
            w,
            "<{}> <{}> <{}> .",
            escape_iri(kg.node_term(vid)),
            RDF_TYPE_IRI,
            escape_iri(class)
        )?;
    }
    let literal_class = kg.literal_class();
    for t in kg.triples() {
        let obj = if Some(kg.class_of(t.o)) == literal_class {
            format!("\"{}\"", escape_literal(kg.node_term(t.o)))
        } else {
            format!("<{}>", escape_iri(kg.node_term(t.o)))
        };
        writeln!(
            w,
            "<{}> <{}> {} .",
            escape_iri(kg.node_term(t.s)),
            escape_iri(kg.relation_term(t.p)),
            obj
        )?;
    }
    Ok(())
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Iri(String),
    Blank(String),
    Literal(String),
}

/// Parses one N-Triples statement: `subject predicate object .`
fn parse_line(line: &str) -> Result<(Term, Term, Term), String> {
    let mut rest = line;
    let s = take_term(&mut rest)?;
    let p = take_term(&mut rest)?;
    let o = take_term(&mut rest)?;
    let rest = rest.trim();
    if rest != "." {
        return Err(format!("expected terminating '.', found {rest:?}"));
    }
    Ok((s, p, o))
}

fn take_term(rest: &mut &str) -> Result<Term, String> {
    let trimmed = rest.trim_start();
    let mut chars = trimmed.char_indices();
    match chars.next() {
        Some((_, '<')) => {
            let end = trimmed.find('>').ok_or("unterminated IRI")?;
            let iri = unescape(&trimmed[1..end])?;
            *rest = &trimmed[end + 1..];
            Ok(Term::Iri(iri))
        }
        Some((_, '_')) => {
            if !trimmed.starts_with("_:") {
                return Err("malformed blank node".into());
            }
            let end = trimmed
                .find(char::is_whitespace)
                .unwrap_or(trimmed.len());
            let label = trimmed[..end].to_string();
            *rest = &trimmed[end..];
            Ok(Term::Blank(label))
        }
        Some((_, '"')) => {
            // Scan for the closing quote honouring backslash escapes.
            let bytes = trimmed.as_bytes();
            let mut i = 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => break,
                    _ => i += 1,
                }
            }
            if i >= bytes.len() {
                return Err("unterminated literal".into());
            }
            let content = unescape(&trimmed[1..i])?;
            // Swallow optional language tag / datatype.
            let mut after = &trimmed[i + 1..];
            if let Some(tagged) = after.strip_prefix('@') {
                let end = tagged.find(char::is_whitespace).unwrap_or(tagged.len());
                after = &tagged[end..];
            } else if let Some(typed) = after.strip_prefix("^^<") {
                let end = typed.find('>').ok_or("unterminated datatype IRI")?;
                after = &typed[end + 1..];
            }
            *rest = after;
            Ok(Term::Literal(content))
        }
        _ => Err(format!("expected term, found {trimmed:?}")),
    }
}

fn unescape(s: &str) -> Result<String, String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

fn escape_iri(s: &str) -> String {
    // IRIs in our dictionaries are free of '>' by construction, but be safe.
    s.replace('>', "%3E")
}

fn escape_literal(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
        .replace('\r', "\\r")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const DOC: &str = r#"
# a comment
<p1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Paper> .
<v1> <rdf:type> <Venue> .
<p1> <publishedIn> <v1> .
<p1> <title> "Attention is \"all\" you need" .
<p1> <year> "2017"^^<http://www.w3.org/2001/XMLSchema#integer> .
<p1> <abstract> "hello"@en .
_:b0 <cites> <p1> .
"#;

    #[test]
    fn reads_document() {
        let kg = read_ntriples(Cursor::new(DOC)).unwrap();
        // publishedIn, title, year, abstract, cites.
        assert_eq!(kg.num_triples(), 5);
        let p1 = kg.find_node("p1").unwrap();
        assert_eq!(kg.class_term(kg.class_of(p1)), "Paper");
        // Blank node subject becomes an untyped vertex.
        let b0 = kg.find_node("_:b0").unwrap();
        assert_eq!(kg.class_term(kg.class_of(b0)), UNTYPED_CLASS);
        // Escaped literal decoded.
        assert!(kg.find_node("Attention is \"all\" you need").is_some());
        // Typed/tagged literals keep their lexical content.
        assert!(kg.find_node("2017").is_some());
        assert!(kg.find_node("hello").is_some());
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a", "Author", "writes", "p", "Paper");
        let lit = kg.add_literal("line1\nline2 \"q\"");
        let rel = kg.add_relation("note");
        let a = kg.find_node("a").unwrap();
        kg.add_triple(a, rel, lit);

        let mut buf = Vec::new();
        write_ntriples(&kg, &mut buf).unwrap();
        let back = read_ntriples(Cursor::new(buf)).unwrap();
        assert_eq!(back.num_triples(), kg.num_triples());
        let a2 = back.find_node("a").unwrap();
        assert_eq!(back.class_term(back.class_of(a2)), "Author");
        assert!(back.find_node("line1\nline2 \"q\"").is_some());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_ntriples(Cursor::new("<a> <b>")).is_err());
        assert!(read_ntriples(Cursor::new("<a> <b> <c>")).is_err(), "missing dot");
        assert!(read_ntriples(Cursor::new("\"lit\" <b> <c> .")).is_err(), "literal subject");
        assert!(read_ntriples(Cursor::new("<a> \"lit\" <c> .")).is_err(), "literal predicate");
        assert!(read_ntriples(Cursor::new("<a> <rdf:type> \"x\" .")).is_err(), "literal type");
        assert!(read_ntriples(Cursor::new("<unterminated")).is_err());
    }

    #[test]
    fn type_first_wins_even_when_declared_later() {
        // The type pass runs before data triples, so a subject used in a
        // data triple before its rdf:type line still gets classed.
        let doc = "<x> <r> <y> .\n<x> <rdf:type> <T> .\n";
        let kg = read_ntriples(Cursor::new(doc)).unwrap();
        let x = kg.find_node("x").unwrap();
        assert_eq!(kg.class_term(kg.class_of(x)), "T");
    }

    #[test]
    fn repeated_statements_are_one_triple() {
        let doc = "<x> <r> <y> .\n<x> <r> <z> .\n<x> <r> <y> .\n";
        let kg = read_ntriples(Cursor::new(doc)).unwrap();
        assert_eq!(kg.num_triples(), 2);
        assert!(kg.triples().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_and_comment_only() {
        let kg = read_ntriples(Cursor::new("\n# nothing\n\n")).unwrap();
        assert_eq!(kg.num_nodes(), 0);
    }
}

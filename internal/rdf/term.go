// Package rdf provides the RDF data model used throughout sparqluo:
// terms (IRIs, literals, blank nodes), triples, and parsing/serialization
// of N-Triples with a small Turtle-style prefix extension.
//
// The term syntax N-Triples 1.1 and SPARQL 1.1 share — the IRIREF,
// STRING_LITERAL_QUOTE, ECHAR and UCHAR terminals — lives in ntriples.go
// and nowhere else: the N-Triples decoder and the SPARQL lexer read IRIs
// and strings with ReadIRI, ScanString and Unescape, and every spelling
// of a term (Term.String, the Encoder, the write-ahead log, the literals
// of the plan-cache key) is AppendTerm's. Language tags, blank labels
// and prefixed names differ between the grammars and stay with each.
//
// An RDF dataset D is a collection of triples
// ⟨subject, predicate, object⟩ ∈ (I ∪ B) × I × (I ∪ B ∪ L) (Definition 1
// of the paper).
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is an internationalized resource identifier, e.g.
	// <http://dbpedia.org/resource/Bill_Clinton>.
	IRI TermKind = iota
	// Literal is an RDF literal, optionally tagged with a language or a
	// datatype IRI, e.g. "Bill Clinton"@en or "1946-08-19"^^xsd:date.
	Literal
	// Blank is a blank node, identified by a document-scoped label.
	Blank
)

// String returns a human-readable name of the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. The zero value is the empty IRI, which is
// never produced by the parser and can be used as a sentinel.
type Term struct {
	// Kind discriminates IRI, Literal and Blank.
	Kind TermKind
	// Value is the IRI string (without angle brackets), the literal's
	// lexical form, or the blank node label (without the "_:" prefix).
	Value string
	// Lang is the language tag for language-tagged literals ("" otherwise).
	Lang string
	// Datatype is the datatype IRI for typed literals ("" otherwise).
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	return string(AppendTerm(make([]byte, 0, 64), t))
}

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool {
	return t.Kind == u.Kind && t.Value == u.Value && t.Lang == u.Lang && t.Datatype == u.Datatype
}

// Triple is a single RDF statement ⟨subject, predicate, object⟩.
type Triple struct {
	S, P, O Term
}

// String renders the triple as an N-Triples line (without trailing newline).
func (t Triple) String() string {
	return string(AppendTriple(make([]byte, 0, 128), t))
}

// Valid reports whether the triple can be stored: its subject is an IRI
// or blank node and its predicate an IRI (Definition 1), and its
// N-Triples spelling reads back as itself, so a file, a query and the
// write-ahead log all see the triple that was written.
func (t Triple) Valid() bool {
	if t.S.Kind != IRI && t.S.Kind != Blank || t.P.Kind != IRI ||
		!t.S.readsBack() || !t.P.readsBack() || !t.O.readsBack() {
		return false
	}
	// A line the Decoder cannot buffer does not read back. Escaping at
	// most doubles a string, so only a triple this long needs spelling.
	n := len(t.S.Value) + len(t.P.Value) + len(t.O.Value) + len(t.O.Lang) + len(t.O.Datatype)
	return 2*n+16 < maxLine || len(t.String()) < maxLine
}

// CheckAll returns an error naming the first triple of ts that is not
// Valid, or nil. Writers check a batch with it before applying or
// journaling any of it.
func CheckAll(ts []Triple) error {
	for _, t := range ts {
		if !t.Valid() {
			return fmt.Errorf("rdf: invalid triple %q", t.String())
		}
	}
	return nil
}

// readsBack reports whether the term's spelling reads back as the term:
// an IRI or datatype holds no '>' or line feed; a blank label or
// language tag is not empty and holds no blank or line feed; and only a
// literal has a language tag or datatype, never both.
func (t Term) readsBack() bool {
	switch t.Kind {
	case IRI:
		return t.Lang == "" && t.Datatype == "" && isIRI(t.Value)
	case Blank:
		return t.Lang == "" && t.Datatype == "" && isLabel(t.Value)
	case Literal:
		return t.Lang == "" && isIRI(t.Datatype) || t.Datatype == "" && isLabel(t.Lang)
	}
	return false
}

// isIRI and isLabel look for each byte with strings.IndexByte, which is
// several times faster than strings.ContainsAny on a decoder's lines.
func isIRI(s string) bool { return strings.IndexByte(s, '>') < 0 && strings.IndexByte(s, '\n') < 0 }

func isLabel(s string) bool {
	return s != "" && strings.IndexByte(s, ' ') < 0 && strings.IndexByte(s, '\t') < 0 && strings.IndexByte(s, '\n') < 0
}

// Package rdf provides the RDF data model used throughout sparqluo:
// terms (IRIs, literals, blank nodes), triples, and parsing/serialization
// of N-Triples with a small Turtle-style prefix extension.
//
// An RDF dataset D is a collection of triples
// ⟨subject, predicate, object⟩ ∈ (I ∪ B) × I × (I ∪ B ∪ L) (Definition 1
// of the paper).
package rdf

import (
	"fmt"
	"strconv"
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
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return fmt.Sprintf("?!badterm(%d,%q)", t.Kind, t.Value)
	}
}

// Key returns a canonical string key for the term, unique across kinds
// and distinct from every other term's key: a language tag or datatype
// IRI is length-prefixed, so no byte in any field can make two terms'
// keys meet. (The store's dictionary compares terms field by field and
// builds no key.)
func (t Term) Key() string {
	switch t.Kind {
	case IRI:
		return "I" + t.Value
	case Blank:
		return "B" + t.Value
	default:
		if t.Lang != "" {
			return "@" + strconv.Itoa(len(t.Lang)) + ":" + t.Lang + t.Value
		}
		if t.Datatype != "" {
			return "^" + strconv.Itoa(len(t.Datatype)) + ":" + t.Datatype + t.Value
		}
		return "L" + t.Value
	}
}

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool {
	return t.Kind == u.Kind && t.Value == u.Value && t.Lang == u.Lang && t.Datatype == u.Datatype
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is a single RDF statement ⟨subject, predicate, object⟩.
type Triple struct {
	S, P, O Term
}

// String renders the triple as an N-Triples line (without trailing newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Valid reports whether the triple satisfies Definition 1: the subject is
// an IRI or blank node, the predicate an IRI, and the object any term.
func (t Triple) Valid() bool {
	if t.S.Kind == Literal {
		return false
	}
	return t.P.Kind == IRI
}

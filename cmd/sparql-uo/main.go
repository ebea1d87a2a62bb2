// Command sparql-uo loads a dataset and executes a SPARQL-UO query
// against it:
//
//	sparql-uo -data graph.nt -query query.rq [-strategy full] [-engine wco] [-explain] [-limit 20]
//
// -top and -offset apply an execution-time pagination window on top of
// the query text (WithLimit/WithOffset): -top caps how many solutions
// the engine computes — with early termination, not post-filtering —
// while -limit only caps how many of them are printed.
//
// The query may also be given inline with -q 'SELECT ...'. -data
// accepts an N-Triples document, a binary snapshot image (written by
// `datagen -snapshot` or DB.WriteSnapshot) or a shard manifest
// (`datagen -snapshot … -shards n`), auto-detected by the file magic.
// An image skips parsing and index building; a shard set skips parsing
// and is folded back into the one store it was split from.
//
// The query is prepared once (parse + BE-tree build) and then executed.
// -bind substitutes a ground term for a query variable at execution
// time, turning the query into a template:
//
//	sparql-uo -data g.nt -q 'SELECT ?y WHERE { ?x ub:advisor ?y }' \
//	    -bind 'x=<http://ex.org/Student4>'
//
// The value is an IRI in angle brackets or a (quoted or bare) literal.
// Solutions are streamed with the row cursor rather than materialized.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sparqluo"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "data file, auto-detected: N-Triples, snapshot image or shard manifest (required)")
		queryPath = flag.String("query", "", "file containing the SPARQL query")
		queryText = flag.String("q", "", "inline SPARQL query text")
		strategy  = flag.String("strategy", "full", "base|tt|cp|full")
		engine    = flag.String("engine", "wco", "wco|binary")
		explain   = flag.Bool("explain", false, "print the plan before/after transformation and exit")
		limit     = flag.Int("limit", 20, "maximum solutions to print (0 = all)")
		top       = flag.Int("top", -1, "execution-time LIMIT: cap computed solutions with early termination (-1 = none)")
		offset    = flag.Int("offset", 0, "execution-time OFFSET: skip this many solutions before returning rows")
	)
	var binds []sparqluo.Option
	flag.Func("bind", "execution-time parameter, var=<iri> or var=\"literal\" (repeatable)", func(v string) error {
		opt, err := parseBind(v)
		if err != nil {
			return err
		}
		binds = append(binds, opt)
		return nil
	})
	flag.Parse()

	if *dataPath == "" || (*queryPath == "" && *queryText == "") {
		flag.Usage()
		os.Exit(2)
	}
	text := *queryText
	if *queryPath != "" {
		b, err := os.ReadFile(*queryPath)
		if err != nil {
			fatal(err)
		}
		text = string(b)
	}

	strat, err := sparqluo.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	eng, err := sparqluo.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	db, _, err := sparqluo.OpenFile(*dataPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d triples\n", db.NumTriples())

	opts := []sparqluo.Option{sparqluo.WithStrategy(strat), sparqluo.WithEngine(eng)}
	opts = append(opts, binds...)
	if *top >= 0 {
		opts = append(opts, sparqluo.WithLimit(*top))
	}
	if *offset > 0 {
		opts = append(opts, sparqluo.WithOffset(*offset))
	}

	prep, err := db.Prepare(text)
	if err != nil {
		fatal(err)
	}

	if *explain {
		before, after, err := prep.Explain(opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- plan before transformation ---")
		fmt.Println(before)
		fmt.Println("--- plan after transformation ---")
		fmt.Println(after)
		return
	}

	res, err := prep.Exec(opts...)
	if err != nil {
		fatal(err)
	}
	defer res.Close()
	fmt.Printf("%d solutions in %v (transform %v, %d transformations, join space %.0f, rows pulled %d)\n",
		res.Len(), res.ExecTime(), res.TransformTime(), res.Transformations(), res.JoinSpace(), res.RowsPulled())
	// Print columns in sorted-name order for stable, diffable output.
	order := make([]int, len(res.Vars()))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return res.Vars()[order[a]] < res.Vars()[order[b]] })
	for i, row := range res.Rows() {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more)\n", res.Len()-*limit)
			break
		}
		for _, ci := range order {
			if t, ok := row.Term(ci); ok {
				fmt.Printf("?%s=%s ", row.Var(ci), t)
			}
		}
		fmt.Println()
	}
}

// parseBind turns "var=<iri>", `var="literal"` or "var=bare" into a
// Bind option.
func parseBind(v string) (sparqluo.Option, error) {
	name, val, ok := strings.Cut(v, "=")
	if !ok || name == "" || val == "" {
		return nil, fmt.Errorf("want var=value, got %q", v)
	}
	var term sparqluo.Term
	switch {
	case strings.HasPrefix(val, "<") && strings.HasSuffix(val, ">"):
		term = sparqluo.NewIRI(val[1 : len(val)-1])
	case strings.HasPrefix(val, `"`) && strings.HasSuffix(val, `"`) && len(val) >= 2:
		term = sparqluo.NewLiteral(val[1 : len(val)-1])
	default:
		term = sparqluo.NewLiteral(val)
	}
	return sparqluo.Bind(name, term), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparql-uo:", err)
	os.Exit(1)
}

package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparqluo"
)

// maxClients is the load generator's goroutine and connection budget:
// the generator shares the machine with the system under test, so it
// never uses more than two clients, and refuses to run on fewer CPUs.
const maxClients = 2

func checkClients() error {
	if maxClients > runtime.NumCPU() {
		return fmt.Errorf("benchmark: %d clients but only %d CPUs; the load generator never runs more clients than nproc", maxClients, runtime.NumCPU())
	}
	return nil
}

// server is the system under test's HTTP endpoint on a loopback port.
type server struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("benchmark: listen: %w", err)
	}
	s := &server{base: "http://" + l.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(l) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Shutdown(context.Background())
	<-s.done
}

// httpClient sends queries over at most conns connections.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// reply is what one HTTP query returned.
type reply struct {
	sum    digest
	status int
	hit    bool // X-Plan-Cache: hit
}

func (h *httpClient) get(path string) (reply, error) {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	var w digestWriter
	if _, err := io.Copy(&w, resp.Body); err != nil {
		return reply{}, err
	}
	return reply{sum: w.digest, status: resp.StatusCode, hit: resp.Header.Get("X-Plan-Cache") == "hit"}, nil
}

// prime runs q once, untimed, on engine eng through the Go API and
// records the digest and row count every later execution must match.
func prime(db *sparqluo.DB, q *query, eng sparqluo.Engine) error {
	res, err := db.Query(q.text, sparqluo.WithEngine(eng))
	if err != nil {
		return fmt.Errorf("%s: %w", q.id, err)
	}
	var w digestWriter
	if err := res.WriteJSON(&w); err != nil {
		return fmt.Errorf("%s: %w", q.id, err)
	}
	q.want[eng] = expect{sum: w.digest, rows: res.Len(), set: true}
	return nil
}

// verify compares an execution's digest with the primed one.
func (o op) verify(got digest) error {
	want := o.q.want[o.eng]
	if !want.set {
		return fmt.Errorf("%s: executed before it was primed", o.q.id)
	}
	if got != want.sum {
		return fmt.Errorf("%s: digest %08x/%d bytes, first execution gave %08x/%d", o.q.id, got.crc, got.n, want.sum.crc, want.sum.n)
	}
	return nil
}

// queryAPI executes o through the one-shot Go API and encodes the
// result, as an embedding application would.
func queryAPI(db *sparqluo.DB, o op) (digest, int, error) {
	res, err := db.Query(o.q.text, sparqluo.WithEngine(o.eng))
	if err != nil {
		return digest{}, 0, err
	}
	var w digestWriter
	if err := res.WriteJSON(&w); err != nil {
		return digest{}, 0, err
	}
	return w.digest, res.Len(), nil
}

// queryHTTP executes o over HTTP and checks status and digest.
func queryHTTP(h *httpClient, o op) (reply, error) {
	r, err := h.get(o.q.path)
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s: HTTP %d", o.q.id, r.status)
	}
	return r, o.verify(r.sum)
}

// tally is what a load loop observed. Latencies are kept per window of
// the run — equal slices of time in a closed loop, blocks of arrivals in
// the open loop — because the end-to-end metrics are medians over
// windows: a garbage collection or a burst from a neighbouring machine
// spoils one window's percentile, not the run's.
type tally struct {
	lats      [][]time.Duration // per window
	oks       []int             // correct operations completed per window
	window    time.Duration     // length of a time window; 0 when windows are not slices of time
	rate      float64           // correct operations per second over the whole loop, for such loops
	attempted int
	failed    int
	errs      []string // first few failures, for the report
}

func newTally(windows int, window time.Duration) tally {
	return tally{lats: make([][]time.Duration, windows), oks: make([]int, windows), window: window}
}

// add records one operation that completed in window w; an operation
// that completed after the last window still counts as attempted.
func (t *tally) add(w int, lat time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
	if w < len(t.lats) {
		t.lats[w] = append(t.lats[w], lat)
		if err == nil {
			t.oks[w]++
		}
	}
}

func (t *tally) merge(o tally) {
	for w := range o.lats {
		t.lats[w] = append(t.lats[w], o.lats[w]...)
		t.oks[w] += o.oks[w]
	}
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// loopWindows is how many windows a closed loop's time is cut into.
const loopWindows = 5

// closedLoop runs clients goroutines for d: each issues its next
// operation only after the previous one completed. do(client, i) runs
// the client's i-th operation and reports whether its output was right.
// An operation belongs to the window it completed in.
func closedLoop(clients int, d time.Duration, do func(client, i int) error) tally {
	window := d / loopWindows
	parts := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[c] = newTally(loopWindows, window)
			for i := 0; time.Since(start) < d; i++ {
				t0 := time.Now()
				err := do(c, i)
				parts[c].add(int(time.Since(start)/window), time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	all := newTally(loopWindows, window)
	for _, p := range parts {
		all.merge(p)
	}
	return all
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	due   time.Duration // offset from the start of the loop
	stage int
	op    op
}

// openResult is one completed request of an open loop.
type openResult struct {
	stage int
	lat   time.Duration // completion minus due time
	lag   time.Duration // how late the generator sent it
	reply reply
	err   error
}

// openLoop sends sched at its due times whatever the system's state:
// senders goroutines take arrivals in order, wait for the due time and
// send. A request whose turn comes late is sent at once and its latency
// still counts from the due time, so a stall is charged to every
// request it delayed; lag is the generator's share of that.
func openLoop(senders int, sched []arrival, send func(op) (reply, error)) []openResult {
	out := make([]openResult, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				r, err := send(a.op)
				out[i] = openResult{stage: a.stage, lat: time.Since(start) - a.due, lag: max(0, sent-a.due), reply: r, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// poissonArrivals draws seeded exponential inter-arrival times at rate
// per second until d has passed.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

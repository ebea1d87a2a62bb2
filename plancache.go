package sparqluo

import (
	"container/list"
	"sync"
)

// responseCacheCap bounds the encoded response bytes memoized under one
// plan-cache entry, summed over its option variants, and the capture
// buffer of one in-flight fill. A response that encodes larger is
// streamed and never held beyond the captured prefix, so a handler
// built with WithPlanCache(n) keeps at most n × responseCacheCap bytes
// of bodies plus one responseCacheCap per request currently filling.
const responseCacheCap = 1 << 20

// maxVariants bounds the option variants (pages, strategies, engines)
// one plan entry tracks, so a client walking offsets cannot grow an
// entry's bookkeeping without limit; at the bound the entry's memo
// starts over.
const maxVariants = 64

// respKey is every request option that can change response bytes; a
// memoized body is stored under its plan entry by this key.
// The timeout is not part of it: a timed-out execution publishes
// nothing.
type respKey struct {
	strategy Strategy
	engine   Engine
	limit    int // -1 = none
	offset   int
}

// apply is the Option that executes a plan with exactly these request
// options.
func (k respKey) apply(c *queryConfig) {
	c.strategy, c.engine, c.limit, c.offset = k.strategy, k.engine, k.limit, k.offset
}

// respFill is one in-progress execution other requests for the same
// (entry, options) wait on. body is written before done is closed and
// stays nil when the fill was abandoned.
type respFill struct {
	done chan struct{}
	body []byte
}

// respVariant is the memo state of one respKey under a plan entry.
type respVariant struct {
	body   []byte    // published response; nil until a fill succeeds
	fill   *respFill // non-nil while a request is executing on behalf of the others
	tooBig bool      // the last fill overflowed responseCacheCap: stream, don't capture
}

// planCache is a small mutex-guarded LRU of *Prepared keyed by
// sparql.CanonicalText of the query — every spelling of one token
// stream (blanks, comments, keyword case, literal escapes) shares an
// entry and no two token streams do — each entry also memoizing the
// encoded responses of its executions (see respKey). Strategy and engine are
// execution options of the one cached Prepared, not part of the plan
// key. It sits on the HTTP serving path so hot queries skip parsing
// and plan construction — and, once a response is memoized, execution
// and encoding too; entries are immutable Prepared values, so a cached
// plan may be executed by many requests concurrently.
//
// The cache holds one write epoch of a live database at a time: plans
// resolve constant terms against the dictionary when they are built and
// bodies are answers as of one epoch, so a lookup that arrives with a
// newer epoch drops every entry before it is served. A compaction swap
// advances the epoch as well and therefore also empties the cache —
// correct, merely conservative (a swap changes no answer).
type planCache struct {
	mu    sync.Mutex
	cap   int
	epoch uint64     // generation the entries were filled at
	ll    *list.List // front = most recently used
	m     map[string]*list.Element
	stats cacheStats
}

// cacheStats are the cache's counters as /stats reports them.
type cacheStats struct {
	PlanHits, PlanMisses uint64
	Hits                 uint64 // requests answered from a memoized body
	Fills                uint64 // executions captured and memoized
	Waits                uint64 // requests that waited on another request's fill
	Overflows            uint64 // fills abandoned at responseCacheCap
	Bytes                int    // memoized response bytes now held
	Entries              int    // plans now held
}

type planCacheEntry struct {
	key      string
	prep     *Prepared
	variants map[respKey]*respVariant
	bytes    int  // sum of len(body) over variants, <= responseCacheCap
	evicted  bool // no longer in the cache: fills still complete, nothing is accounted
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// get returns the entry for key, or nil, promoting it to most recently
// used. A lookup from a newer epoch than the cache was filled at clears
// the cache first; one from an older epoch (a request that read the
// epoch just before a concurrent write) is served from the current
// generation, which is at least as new as what it asked for.
func (c *planCache) get(key string, epoch uint64) *planCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		for _, el := range c.m {
			c.drop(el)
		}
		c.epoch = epoch
	}
	el, ok := c.m[key]
	if !ok {
		c.stats.PlanMisses++
		return nil
	}
	c.stats.PlanHits++
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry)
}

// put inserts a plan built by a request that looked up at epoch,
// evicting the least recently used entry when full, and returns the
// entry the request continues with. When the cache has moved to a newer
// epoch meanwhile the plan may predate it, so it is handed back
// uncached; when another miss on the same key got there first, that
// entry wins and the two requests share its memo.
func (c *planCache) put(key string, epoch uint64, prep *Prepared) *planCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return &planCacheEntry{key: key, prep: prep, evicted: true}
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*planCacheEntry)
	}
	e := &planCacheEntry{key: key, prep: prep}
	c.m[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		c.drop(c.ll.Back())
	}
	return e
}

// drop removes one entry and its memoized bodies. Requests already
// holding the entry finish on it; nothing they publish is reachable.
func (c *planCache) drop(el *list.Element) {
	e := c.ll.Remove(el).(*planCacheEntry)
	delete(c.m, e.key)
	c.forget(e)
	e.evicted = true
}

// forget releases every memoized body of e; variants with a fill in
// flight stay, for the request that will finish them.
func (c *planCache) forget(e *planCacheEntry) {
	for k, v := range e.variants {
		if v.fill == nil {
			delete(e.variants, k)
		}
	}
	c.stats.Bytes -= e.bytes
	e.bytes = 0
}

// begin decides how a request for variant k of e is answered. At most
// one result is set: body (a memoized response to serve), wait (another
// request is executing this variant: wait on it, holding no in-flight
// slot), or fill (this request executes and must call finish, whatever
// happens). None means the variant is known not to fit under
// responseCacheCap and the request streams on its own.
func (c *planCache) begin(e *planCacheEntry, k respKey) (body []byte, wait, fill *respFill) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := e.variants[k]
	switch {
	case v == nil:
		if len(e.variants) >= maxVariants {
			c.forget(e)
		}
		v = &respVariant{}
		if e.variants == nil {
			e.variants = make(map[respKey]*respVariant, 1)
		}
		e.variants[k] = v
	case v.body != nil:
		c.stats.Hits++
		return v.body, nil, nil
	case v.fill != nil:
		c.stats.Waits++
		return nil, v.fill, nil
	case v.tooBig:
		return nil, nil, nil
	}
	v.fill = &respFill{done: make(chan struct{})}
	return nil, nil, v.fill
}

// finish ends fill f of variant k and releases its waiters. A non-nil
// body (at most responseCacheCap bytes, owned by the cache from here
// on) is handed to them and memoized, evicting the entry's other
// variants when the sum would pass responseCacheCap. A nil body
// abandons the fill — the waiters then execute for themselves — and
// overflow records that the response outgrew the cap, so later requests
// stream without capturing.
func (c *planCache) finish(e *planCacheEntry, k respKey, f *respFill, body []byte, overflow bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := e.variants[k] // present: a variant with a fill in flight is never deleted
	if body != nil {
		c.stats.Fills++
	} else if overflow {
		c.stats.Overflows++
		v.tooBig = true
	}
	if body != nil && !e.evicted {
		if e.bytes+len(body) > responseCacheCap {
			c.forget(e)
		}
		v.body = body
		e.bytes += len(body)
		c.stats.Bytes += len(body)
	}
	v.fill = nil
	f.body = body
	close(f.done)
}

// snapshot returns the counters as of now.
func (c *planCache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

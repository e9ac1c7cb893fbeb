package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authserver"
	"repro/internal/cache"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/smart"
)

// dohKind selects one of the three DoH workloads.
type dohKind int

const (
	kindHit     dohKind = iota // warm working set, long-lived connections
	kindMiss                   // every name new: cache miss, smart, Do53, authserver
	kindNewConn                // warm working set, one new connection per query
)

const (
	// dohClients is the number of closed-loop clients, each with its
	// own connection(s); at most the CPU count of the smallest host the
	// benchmark targets (2 vCPUs).
	dohClients = 2
	// setupRounds is how many times a run builds the whole stack; the
	// reported set-up time is the median, and the last stack is timed.
	setupRounds = 3
	// intervalLen is the length of one measurement interval. Every
	// end-to-end figure is the median over a run's intervals, so a
	// burst of CPU stolen by the hypervisor in a few of them does not
	// set the run's value.
	intervalLen = time.Second
	// maxFillQueries bounds doh_miss's fill, far above what filling
	// the cache and the winner table takes.
	maxFillQueries = 200000
	// traceSpans is the traced run's span buffer.
	traceSpans = 1 << 21
)

// loopClient is one closed-loop DoH client: it sends its next query
// only after the previous answer has arrived and been checked.
type loopClient struct {
	idx    int
	client *dohclient.Client
	probe  *transportProbe
	seed   int64

	// lat holds the latency of every answered query (ns); n is how many
	// are stored, read by the monitor at interval boundaries.
	lat []uint32
	n   atomic.Int64

	// Owned by the client's goroutine while a phase runs.
	sent, failed, wrong, reused int64
	connectNs, tlsNs            int64
	firstErr, firstWrong        string

	order   []int // warm-set visiting order (hit, newconn)
	pos     int
	label   string // miss-name prefix
	seq     uint64
	nameBuf []byte
	recent  [64]dnswire.Name // last miss names, for the isolated timings
}

// nextName returns the client's next query name.
func (c *loopClient) nextName(kind dohKind, warm []dnswire.Name) dnswire.Name {
	if kind != kindMiss {
		i := c.order[c.pos]
		c.pos = (c.pos + 1) % len(c.order)
		return warm[i]
	}
	c.seq++
	shard := int(splitmix64(uint64(c.seed)^uint64(c.idx)<<56^c.seq) % missShards)
	c.nameBuf = appendMissName(c.nameBuf[:0], c.label, c.seq, shard)
	name := dnswire.Name(string(c.nameBuf))
	c.recent[c.seq%uint64(len(c.recent))] = name
	return name
}

// query sends one query, as Client.Query does, and checks its answer.
// It returns when the query started, how long the exchange took, and
// whether the answer was correct.
func (c *loopClient) query(ctx context.Context, def zoneDef, name dnswire.Name) (time.Time, time.Duration, bool) {
	start := time.Now()
	q := dnswire.NewQuery(dnsclient.RandomID(), name, dnswire.TypeA)
	resp, timing, err := c.client.Exchange(ctx, q)
	lat := time.Since(start)
	c.sent++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
		return start, lat, false
	}
	if err := def.checkAnswer(q, resp); err != nil {
		c.wrong++
		if c.firstWrong == "" {
			c.firstWrong = err.Error()
		}
		return start, lat, false
	}
	if timing.Reused {
		c.reused++
	}
	c.connectNs += int64(timing.Connect)
	c.tlsNs += int64(timing.TLSHandshake)
	return start, lat, true
}

// dohRun is one DoH workload run.
type dohRun struct {
	cfg     runConfig
	kind    dohKind
	def     zoneDef
	warm    []dnswire.Name
	rec     *recorder // traced runs only
	st      *stack
	clients []*loopClient
	traces  atomic.Uint32
}

// counters is the stack and client accounting at one moment.
type counters struct {
	sent, failed, wrong, reused, answered int64
	connectNs, tlsNs                      int64
	accepted, upstream                    int64
	cands                                 int64
	cache                                 cache.Stats
	smart                                 smart.Stats
}

func (r *dohRun) counters() counters {
	c := counters{
		accepted: r.st.ln.accepted.Load(),
		upstream: r.st.upstream.calls.Load(),
		cache:    r.st.cache.Stats(),
		smart:    r.st.smart.Stats(),
	}
	for _, p := range r.st.cands {
		c.cands += p.calls.Load()
	}
	for _, cl := range r.clients {
		c.sent += cl.sent
		c.failed += cl.failed
		c.wrong += cl.wrong
		c.reused += cl.reused
		c.answered += cl.n.Load()
		c.connectNs += cl.connectNs
		c.tlsNs += cl.tlsNs
	}
	return c
}

// phase is one timed stretch of closed-loop traffic.
type phase struct {
	snaps      []snapshot
	stored     [][]int64 // per snapshot, samples stored per client
	start, end counters
}

// newClients builds the closed-loop clients for the current stack.
func (r *dohRun) newClients() error {
	r.clients = r.clients[:0]
	capacity := r.cfg.seconds*60000 + 1024
	for i := 0; i < dohClients; i++ {
		c, probe, err := r.st.newClient(r.rec, r.kind == kindNewConn)
		if err != nil {
			return err
		}
		cl := &loopClient{
			idx: i, client: c, probe: probe, seed: r.cfg.seed,
			lat:   make([]uint32, capacity),
			order: rand.New(rand.NewSource(r.cfg.seed + int64(i) + 1)).Perm(len(r.warm)),
			label: fmt.Sprintf("f%dn", i),
		}
		r.clients = append(r.clients, cl)
	}
	return nil
}

// setup builds the stack, connects the clients, and warms (hit,
// newconn) or fills (miss) the answer cache.
func (r *dohRun) setup() error {
	st, err := startStack(r.def, r.rec)
	if err != nil {
		return err
	}
	r.st = st
	if err := r.newClients(); err != nil {
		return err
	}
	ctx := context.Background()
	switch r.kind {
	case kindHit, kindNewConn:
		// One pass over the working set, split between two warmers on
		// connections of their own, puts every name in the cache. Two
		// keep both CPUs busy: a single request-response chain would
		// mostly time how fast an idle vCPU wakes up.
		if err := r.warmCache(); err != nil {
			return err
		}
		if r.kind == kindHit {
			// Each client opens its long-lived connection.
			for _, c := range r.clients {
				if _, _, ok := c.query(ctx, r.def, r.warm[c.idx]); !ok {
					return fmt.Errorf("connecting: %s%s", c.firstErr, c.firstWrong)
				}
			}
		}
		if n := r.st.cache.Len(); n != len(r.warm) {
			return fmt.Errorf("cache holds %d entries after warming %d names", n, len(r.warm))
		}
	case kindMiss:
		if err := r.fill(); err != nil {
			return err
		}
		if err := r.fillQueryLog(); err != nil {
			return err
		}
	}
	for _, c := range r.clients {
		c.sent, c.failed, c.wrong, c.reused, c.connectNs, c.tlsNs = 0, 0, 0, 0, 0, 0
		c.label = fmt.Sprintf("t%dn", c.idx)
	}
	return nil
}

// warmCache resolves the working set once through two keep-alive
// clients that are closed afterwards.
func (r *dohRun) warmCache() error {
	var wg sync.WaitGroup
	errs := make([]error, dohClients)
	for w := 0; w < dohClients; w++ {
		wc, _, err := r.st.newClient(nil, false)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(w int, warmer *loopClient) {
			defer wg.Done()
			defer warmer.client.CloseIdleConnections()
			ctx := context.Background()
			for i := w; i < len(r.warm); i += dohClients {
				if _, _, ok := warmer.query(ctx, r.def, r.warm[i]); !ok {
					errs[w] = fmt.Errorf("warming %s: %s%s", r.warm[i], warmer.firstErr, warmer.firstWrong)
					return
				}
			}
		}(w, &loopClient{client: wc})
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fill sends fresh names through both clients until the answer cache
// is full and evicting and smart's winner table is full, so the first
// timed query meets the same state as the last.
func (r *dohRun) fill() error {
	full := func() bool {
		return r.st.cache.Stats().Evictions > 0 && r.st.smart.Stats().Destinations >= smartDestinations
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(r.clients))
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *loopClient) {
			defer wg.Done()
			ctx := context.Background()
			for sent := 0; !done.Load(); {
				for j := 0; j < 64; j++ {
					name := c.nextName(kindMiss, nil)
					if _, _, ok := c.query(ctx, r.def, name); !ok {
						errs[i] = fmt.Errorf("filling with %s: %s%s", name, c.firstErr, c.firstWrong)
						done.Store(true)
						return
					}
				}
				sent += 64
				if full() {
					done.Store(true)
				} else if sent > maxFillQueries {
					errs[i] = fmt.Errorf("cache and winner table not full after %d queries", sent)
					done.Store(true)
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if n := r.st.cache.Len(); n != cacheEntries {
		return fmt.Errorf("cache holds %d entries after the fill, want %d", n, cacheEntries)
	}
	return nil
}

// fillQueryLog sends Do53 queries straight to the authoritative server
// until its query log (authdns's default ring of
// authserver.DefaultQueryLogLimit entries) has wrapped, so the log's
// growth happens before the timed phase, not during it.
func (r *dohRun) fillQueryLog() error {
	const senders = 2
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c dnsclient.Client
			ctx := context.Background()
			var buf []byte
			for i := 0; i < authserver.DefaultQueryLogLimit/senders; i++ {
				buf = appendMissName(buf[:0], "l"+strconv.Itoa(g)+"n", uint64(i), i%missShards)
				q := dnswire.NewQuery(uint16(i), dnswire.Name(string(buf)), dnswire.TypeA)
				resp, _, err := c.Exchange(ctx, r.st.auth.Addr(), q)
				if err == nil {
					err = r.def.checkAnswer(q, resp)
				}
				if err != nil {
					errs[g] = fmt.Errorf("filling the authoritative query log: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if n := len(r.st.auth.QueryLog()); n != authserver.DefaultQueryLogLimit {
		return fmt.Errorf("authoritative query log holds %d entries, want %d", n, authserver.DefaultQueryLogLimit)
	}
	return nil
}

// runPhase drives the clients for d and snapshots the process at every
// interval boundary.
func (r *dohRun) runPhase(d time.Duration, traced bool) *phase {
	intervals := int(d / intervalLen)
	if intervals < 1 {
		intervals = 1
	}
	p := &phase{start: r.counters()}
	stored := func() []int64 {
		s := make([]int64, len(r.clients))
		for i, c := range r.clients {
			s[i] = c.n.Load()
		}
		return s
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	p.stored = append(p.stored, stored())
	p.snaps = append(p.snaps, takeSnapshot())
	begin := p.snaps[0].at
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *loopClient) {
			defer wg.Done()
			r.loop(c, &stop, traced)
		}(c)
	}
	for i := 1; i <= intervals; i++ {
		time.Sleep(time.Until(begin.Add(time.Duration(i) * intervalLen)))
		p.stored = append(p.stored, stored())
		p.snaps = append(p.snaps, takeSnapshot())
	}
	stop.Store(true)
	wg.Wait()
	p.end = r.counters()
	return p
}

// loop is one client's closed loop.
func (r *dohRun) loop(c *loopClient, stop *atomic.Bool, traced bool) {
	base := context.Background()
	for !stop.Load() {
		name := c.nextName(r.kind, r.warm)
		ctx := base
		var trace uint32
		if traced {
			if r.rec.nearlyFull() {
				return
			}
			trace = r.traces.Add(1)
			ctx = withTrace(base, trace)
		}
		start, lat, ok := c.query(ctx, r.def, name)
		if traced {
			r.rec.add(trace, layerExchange, start, start.Add(lat))
		}
		if !ok {
			continue
		}
		if i := c.n.Load(); i < int64(len(c.lat)) {
			ns := lat.Nanoseconds()
			if ns > 1<<32-1 {
				ns = 1<<32 - 1
			}
			c.lat[i] = uint32(ns)
			c.n.Store(i + 1)
		}
	}
}

// intervalStats is one interval's end-to-end figures.
type intervalStats struct {
	costs
	opsPerS, p50ms, p99ms float64
}

// latencies returns the sorted latencies (ms) of the queries answered
// between snapshots i and j of a phase.
func (r *dohRun) latencies(p *phase, i, j int) []float64 {
	var lats []float64
	for c, cl := range r.clients {
		for k := p.stored[i][c]; k < p.stored[j][c]; k++ {
			lats = append(lats, float64(cl.lat[k])/1e6)
		}
	}
	sort.Float64s(lats)
	return lats
}

// intervals splits a phase into its measurement intervals.
func (r *dohRun) intervals(p *phase) []intervalStats {
	var out []intervalStats
	for i := 1; i < len(p.snaps); i++ {
		lats := r.latencies(p, i-1, i)
		st := intervalStats{costs: costsBetween(p.snaps[i-1], p.snaps[i], int64(len(lats)))}
		if len(lats) > 0 {
			st.opsPerS = float64(len(lats)) / st.wall.Seconds()
			st.p50ms = percentile(lats, 50)
			st.p99ms = percentile(lats, 99)
		}
		out = append(out, st)
	}
	return out
}

// medianOf is the median of one figure over intervals.
func medianOf(ivs []intervalStats, f func(intervalStats) float64) float64 {
	xs := make([]float64, len(ivs))
	for i, iv := range ivs {
		xs[i] = f(iv)
	}
	return median(xs)
}

// check verifies a phase's accounting against what the workload must
// do, and every answer's transport.
func (r *dohRun) check(p *phase, out *outcome, name string) {
	a, b := p.start, p.end
	sent := b.sent - a.sent
	answered := b.answered - a.answered
	for _, c := range r.clients {
		if c.firstWrong != "" {
			out.problem("%s: wrong answer: %s", name, c.firstWrong)
			c.firstWrong = ""
		}
		if c.firstErr != "" {
			fmt.Fprintf(r.cfg.log, "perfbench: %s: failed query: %s\n", name, c.firstErr)
			c.firstErr = ""
		}
		if n := c.probe.notH2.Load(); n != 0 {
			out.problem("%s: %d answers did not arrive over HTTP/2", name, n)
		}
	}
	if n := r.st.handler.notH2.Load(); n != 0 {
		out.problem("%s: the server saw %d requests not over HTTP/2", name, n)
	}
	if b.wrong != a.wrong {
		out.problem("%s: %d wrong answers", name, b.wrong-a.wrong)
	}
	if sent == 0 {
		out.problem("%s: no query was sent", name)
	}
	if answered != sent-(b.failed-a.failed)-(b.wrong-a.wrong) {
		out.problem("%s: %d answered of %d sent: latency buffer full", name, answered, sent)
	}
	switch r.kind {
	case kindHit:
		if d := b.cache.Hits - a.cache.Hits; d != sent {
			out.problem("%s: cache hits grew by %d for %d queries", name, d, sent)
		}
		if d := b.upstream - a.upstream; d != 0 {
			out.problem("%s: %d upstream calls on a warm working set", name, d)
		}
		if d := b.reused - a.reused; d != answered {
			out.problem("%s: %d of %d answers on a reused connection", name, d, answered)
		}
		if d := b.accepted - a.accepted; d != 0 {
			out.problem("%s: the server accepted %d new connections", name, d)
		}
	case kindMiss:
		if d := b.upstream - a.upstream; d != sent {
			out.problem("%s: %d upstream calls for %d queries", name, d, sent)
		}
		if d := b.smart.Queries - a.smart.Queries; d != sent {
			out.problem("%s: smart saw %d queries for %d sent", name, d, sent)
		}
		if s := b.smart; s.Queries != s.Remembered+s.Races {
			out.problem("%s: smart Queries %d != Remembered %d + Races %d", name, s.Queries, s.Remembered, s.Races)
		}
		if d := b.cache.Hits - a.cache.Hits; d != 0 {
			out.problem("%s: %d cache hits on names never asked before", name, d)
		}
		if b.cache.Evictions == a.cache.Evictions || b.smart.Destinations != smartDestinations {
			out.problem("%s: cache or winner table not full (evictions %d, destinations %d)",
				name, b.cache.Evictions-a.cache.Evictions, b.smart.Destinations)
		}
	case kindNewConn:
		if d := b.reused - a.reused; d != 0 {
			out.problem("%s: %d answers on a reused connection", name, d)
		}
		if d := b.accepted - a.accepted; d != sent {
			out.problem("%s: the server accepted %d connections for %d queries", name, d, sent)
		}
	}
	out.attempted += sent
	out.failed += b.failed - a.failed
}

// runDoH runs one DoH workload.
func runDoH(cfg runConfig, kind dohKind) (*outcome, error) {
	r := &dohRun{cfg: cfg, kind: kind, def: zoneDef{seed: cfg.seed}}
	for i := 0; i < warmNames; i++ {
		r.warm = append(r.warm, warmName(i))
	}
	if cfg.trace {
		r.rec = newRecorder(traceSpans)
	}
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		err := r.setup()
		setups = append(setups, time.Since(start).Seconds())
		if err == nil && i < setupRounds-1 {
			err = r.st.close()
			// The next stack starts from a collected heap, so the peak
			// RSS is not set by garbage of stacks already torn down.
			runtime.GC()
		}
		if err != nil {
			if r.st != nil {
				r.st.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer r.st.close()
	fmt.Fprintf(cfg.log, "perfbench: set-up %.3fs (median of %v s)\n", median(setups), setups)

	out := &outcome{values: map[string]float64{}}
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		p := r.runPhase(total, false)
		r.check(p, out, "timed phase")
		ivs := r.intervals(p)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		v := out.values
		v["setup_s"] = median(setups)
		v["ops_per_s"] = medianOf(ivs, func(s intervalStats) float64 { return s.opsPerS })
		v["p50_ms"] = medianOf(ivs, func(s intervalStats) float64 { return s.p50ms })
		v["cpu_us_per_op"] = medianOf(ivs, func(s intervalStats) float64 { return s.cpuUsPerOp })
		v["allocs_per_op"] = medianOf(ivs, func(s intervalStats) float64 { return s.allocs })
		v["alloc_kb_per_op"] = medianOf(ivs, func(s intervalStats) float64 { return s.kbPerOp })
		v["peak_rss_mb"] = rss
		return out, nil
	}

	// Traced run: an untraced reference half, then a traced half.
	ref := r.runPhase(total/2, false)
	r.check(ref, out, "reference phase")
	traced := r.runPhase(total-total/2, true)
	r.check(traced, out, "traced phase")
	if err := r.layerMetrics(ref, traced, out); err != nil {
		return nil, err
	}
	if err := r.isolated(out); err != nil {
		return nil, err
	}
	return out, nil
}

// layerMetrics turns the traced phase's spans and the stack's counters
// into the per-layer split.
func (r *dohRun) layerMetrics(ref, traced *phase, out *outcome) error {
	v := out.values
	byTrace := groupByTrace(r.rec.recorded(), int(r.traces.Load()))
	var sum traceTimes
	n := 0
	for _, spans := range byTrace {
		tt, ok := selfTimes(spans)
		if !ok {
			continue
		}
		n++
		for l := range sum.span {
			sum.span[l] += tt.span[l]
			sum.self[l] += tt.self[l]
		}
	}
	if n == 0 {
		return fmt.Errorf("no complete trace")
	}
	fmt.Fprintf(r.cfg.log, "perfbench: %d complete traces of %d traced queries\n", n, r.traces.Load())
	meanUs := func(ns int64) float64 { return float64(ns) / 1e3 / float64(n) }
	v["dohclient.exchange_us"] = meanUs(sum.span[layerExchange])
	v["dohclient.self_us"] = meanUs(sum.self[layerExchange])
	v["http.self_us"] = meanUs(sum.self[layerRoundTrip])
	v["dohserver.handler_us"] = meanUs(sum.span[layerHandler])
	v["dohserver.self_us"] = meanUs(sum.self[layerHandler])
	v["smart.self_us"] = meanUs(sum.self[layerUpstream])
	v["resolver.do53_us"] = meanUs(sum.self[layerDo53])
	v["resolver.dot_us"] = meanUs(sum.self[layerDoT])
	var selfSum int64
	for _, s := range sum.self {
		selfSum += s
	}
	v["trace.self_sum_ratio"] = float64(selfSum) / float64(sum.span[layerExchange])

	a, b := traced.start, traced.end
	answered := float64(b.answered - a.answered)
	if answered == 0 {
		return fmt.Errorf("traced phase answered no query")
	}
	v["dohclient.connect_us"] = float64(b.connectNs-a.connectNs) / 1e3 / answered
	v["dohclient.tls_handshake_us"] = float64(b.tlsNs-a.tlsNs) / 1e3 / answered
	v["dohclient.reused_per_query"] = float64(b.reused-a.reused) / answered
	if up := b.upstream - a.upstream; up > 0 {
		v["smart.attempts_per_query"] = float64(b.cands-a.cands) / float64(up)
	}
	v["smart.races_per_query"] = float64(b.smart.Races-a.smart.Races) / answered
	v["smart.destinations"] = float64(b.smart.Destinations)
	v["cache.hits_per_query"] = float64(b.cache.Hits-a.cache.Hits) / answered
	v["cache.misses_per_query"] = float64(b.cache.Misses-a.cache.Misses) / answered
	v["cache.evictions_per_query"] = float64(b.cache.Evictions-a.cache.Evictions) / answered

	refIvs, trIvs := r.intervals(ref), r.intervals(traced)
	v["dohclient.exchange_p99_us"] = 1e3 * medianOf(refIvs, func(s intervalStats) float64 { return s.p99ms })
	v["runtime.gc_per_kop"] = medianOf(refIvs, func(s intervalStats) float64 { return s.gcPerKop })
	v["runtime.gc_pause_us_per_op"] = medianOf(refIvs, func(s intervalStats) float64 { return s.pauseUsOp })
	p50 := func(s intervalStats) float64 { return s.p50ms }
	cpu := func(s intervalStats) float64 { return s.cpuUsPerOp }
	v["trace.latency_overhead_ratio"] = medianOf(trIvs, p50) / medianOf(refIvs, p50)
	v["trace.cpu_overhead_ratio"] = medianOf(trIvs, cpu) / medianOf(refIvs, cpu)
	return nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/authserver"
	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/smart"
	"repro/internal/tlsutil"
)

// The stack is the one `dohsrv` builds with these flags:
//
//	dohsrv -listen 127.0.0.1:0 -zone perf.example \
//	    -upstream <authserver Do53> -upstream-dot <authserver DoT> -cache 4096
//
// Every other flag keeps its default: no serve-stale, no prefetch, no
// admission budget. The metrics registry is wired as dohsrv wires it;
// only the /metrics page, which nothing scrapes here, is not mounted.
const (
	cacheEntries = 4096 // dohsrv -cache
	// smartDestinations is smart's default MaxDestinations, which dohsrv
	// does not change; doh_miss fills the winner table to it.
	smartDestinations = 4096
)

// traceHeader carries a query's trace number from the client transport
// to the server handler. It is already in canonical form, so reading
// it allocates nothing.
const traceHeader = "X-Perfbench-Trace"

// stack is one in-process DoH serving stack and its authoritative
// endpoints, with the benchmark's probes at each layer boundary.
type stack struct {
	auth      *authserver.Server
	dotSrv    *dot.Server
	dotClient *dot.Client
	cache     *cache.Cache
	res       *recursive.Resolver
	smart     *smart.Resolver
	upstream  *upstreamProbe
	cands     []*candidateProbe // traced runs only
	handler   *handlerProbe
	srv       *http.Server
	ln        *countingListener
	url       string
	served    chan error
	// clients are the transports of every client made for the stack,
	// closed before the server so its shutdown need not wait them out.
	clients []*http.Transport
}

// authAnswerer serves the authoritative zone to the DoT engine.
type authAnswerer struct{ auth *authserver.Server }

func (a authAnswerer) Resolve(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return a.auth.Answer(q), nil
}

// startStack assembles the stack from the constructors and settings
// cmd/dohsrv uses. rec is nil for untraced runs; traced runs also wrap
// smart's candidates.
func startStack(def zoneDef, rec *recorder) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	zone, err := def.build()
	if err != nil {
		return s, err
	}
	s.auth = authserver.NewServer(zone)
	if err := s.auth.ListenAndServe("127.0.0.1:0"); err != nil {
		return s, fmt.Errorf("authserver: %w", err)
	}
	authTLS, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		return s, fmt.Errorf("authserver DoT certificate: %w", err)
	}
	s.dotSrv = dot.NewServer(authAnswerer{s.auth}, authTLS)
	if err := s.dotSrv.ListenAndServe("127.0.0.1:0"); err != nil {
		return s, fmt.Errorf("authserver DoT: %w", err)
	}

	reg := obs.NewRegistry()
	answerCache := recursive.WrapCache(cache.New(cache.Config{MaxEntries: cacheEntries}))
	answerCache.Unwrap().Instrument(reg, "cache")
	s.cache = answerCache.Unwrap()
	s.res = recursive.New(answerCache)
	var do53Up resolver.Resolver = resolver.Apply(resolver.NewDo53(s.auth.Addr(), nil), resolver.Policy{
		Retry:          &resolver.RetryPolicy{MaxAttempts: 2},
		AttemptTimeout: 3 * time.Second,
		Registry:       reg,
		Kind:           resolver.Do53,
	})
	s.dotClient = &dot.Client{
		Addr:      s.dotSrv.Addr(),
		Timeout:   3 * time.Second,
		TLSConfig: tlsutil.InsecureClientConfig(),
	}
	var dotUp resolver.Resolver = resolver.Apply(resolver.NewDoT(s.dotClient),
		resolver.Policy{Registry: reg, Kind: resolver.DoT})
	if rec != nil {
		do53Probe := &candidateProbe{next: do53Up, layer: layerDo53, rec: rec}
		dotProbe := &candidateProbe{next: dotUp, layer: layerDoT, rec: rec}
		s.cands = []*candidateProbe{do53Probe, dotProbe}
		do53Up, dotUp = do53Probe, dotProbe
	}
	s.smart, err = smart.New(smart.Config{
		Candidates: []smart.Candidate{
			{Kind: resolver.Do53, Resolver: do53Up,
				Breaker: resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3})},
			{Kind: resolver.DoT, Resolver: dotUp,
				Breaker: resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3})},
		},
		KeyFunc: func(q *dnswire.Message) string {
			if len(q.Questions) == 0 {
				return ""
			}
			return string(q.Questions[0].Name)
		},
		Registry: reg,
	})
	if err != nil {
		return s, fmt.Errorf("smart forwarder: %w", err)
	}
	s.upstream = &upstreamProbe{next: resolver.UpstreamAdapter{R: s.smart}, rec: rec}
	s.res.AddZone(dnswire.NewName(zoneOrigin), s.upstream)
	s.handler = &handlerProbe{next: dohserver.NewHandler(s.res).Mux(), rec: rec}

	tlsCfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		return s, fmt.Errorf("DoH certificate: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.ln = &countingListener{Listener: ln}
	s.srv = &http.Server{
		Handler:      s.handler,
		ReadTimeout:  15 * time.Second,
		WriteTimeout: 15 * time.Second,
		TLSConfig:    tlsCfg,
	}
	s.url = "https://" + ln.Addr().String() + dohserver.DefaultPath
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.ServeTLS(s.ln, "", "") }()
	return s, nil
}

// newClient returns a DoH client with its own HTTP/2 transport, so its
// connections are its own. The transport is what dohclient.New builds
// for Options{InsecureTLS: true}, plus ForceAttemptHTTP2 (without it a
// custom TLSClientConfig silently means HTTP/1.1). newConn closes each
// connection after its one answer.
func (s *stack) newClient(rec *recorder, newConn bool) (*dohclient.Client, *transportProbe, error) {
	tr := &http.Transport{
		TLSClientConfig:     tlsutil.InsecureClientConfig(),
		MaxIdleConnsPerHost: 4,
		ForceAttemptHTTP2:   true,
		DisableKeepAlives:   newConn,
	}
	s.clients = append(s.clients, tr)
	probe := &transportProbe{base: tr, rec: rec}
	c, err := dohclient.New(s.url, &dohclient.Options{
		HTTPClient: &http.Client{Transport: probe, Timeout: 30 * time.Second},
	})
	return c, probe, err
}

// close stops every server of the stack and waits for them.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, tr := range s.clients {
		tr.CloseIdleConnections()
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.smart != nil {
		s.smart.Close()
	}
	if s.dotClient != nil {
		errs = append(errs, s.dotClient.Close())
	}
	if s.dotSrv != nil {
		errs = append(errs, s.dotSrv.Shutdown(ctx))
	}
	if s.auth != nil {
		errs = append(errs, s.auth.Shutdown(ctx))
	}
	if s.cache != nil {
		s.cache.Wait()
	}
	return errors.Join(errs...)
}

// countingListener counts the connections the DoH server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// transportProbe is the client side of the HTTP layer: it counts
// answers that did not come over HTTP/2 and, on traced queries, sends
// the trace number in a header and spans the round trip until the
// response body's end.
type transportProbe struct {
	base  http.RoundTripper
	notH2 atomic.Int64
	rec   *recorder
}

func (t *transportProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	var trace uint32
	traced := false
	if t.rec != nil {
		trace, traced = traceOf(req.Context())
	}
	if !traced {
		resp, err := t.base.RoundTrip(req)
		if err == nil && resp.ProtoMajor != 2 {
			t.notH2.Add(1)
		}
		return resp, err
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set(traceHeader, strconv.FormatUint(uint64(trace), 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(r2)
	if err != nil {
		t.rec.add(trace, layerRoundTrip, start, time.Now())
		return nil, err
	}
	if resp.ProtoMajor != 2 {
		t.notH2.Add(1)
	}
	resp.Body = &bodyProbe{ReadCloser: resp.Body, rec: t.rec, trace: trace, start: start}
	return resp, nil
}

// bodyProbe ends a round-trip span when the body reaches its end (or
// is closed first).
type bodyProbe struct {
	io.ReadCloser
	rec   *recorder
	trace uint32
	start time.Time
	done  bool
}

func (b *bodyProbe) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *bodyProbe) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *bodyProbe) end() {
	if !b.done {
		b.done = true
		b.rec.add(b.trace, layerRoundTrip, b.start, time.Now())
	}
}

// handlerProbe wraps the server's handler: it counts requests and
// those not served over HTTP/2 and, on traced requests, spans the
// handler and passes the trace number on in the request context.
type handlerProbe struct {
	next     http.Handler
	requests atomic.Int64
	notH2    atomic.Int64
	rec      *recorder
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	if r.ProtoMajor != 2 {
		h.notH2.Add(1)
	}
	if h.rec != nil {
		if v := r.Header.Get(traceHeader); v != "" {
			if n, err := strconv.ParseUint(v, 10, 32); err == nil {
				start := time.Now()
				h.next.ServeHTTP(w, r.WithContext(withTrace(r.Context(), uint32(n))))
				h.rec.add(uint32(n), layerHandler, start, time.Now())
				return
			}
		}
	}
	h.next.ServeHTTP(w, r)
}

// upstreamProbe wraps the recursive resolver's zone upstream (the smart
// forwarder): it counts calls and spans traced ones.
type upstreamProbe struct {
	next  recursive.Upstream
	calls atomic.Int64
	rec   *recorder
}

func (u *upstreamProbe) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	u.calls.Add(1)
	if u.rec != nil {
		if trace, ok := traceOf(ctx); ok {
			start := time.Now()
			resp, err := u.next.Resolve(ctx, q)
			u.rec.add(trace, layerUpstream, start, time.Now())
			return resp, err
		}
	}
	return u.next.Resolve(ctx, q)
}

// candidateProbe wraps one of smart's candidate transports in traced
// runs: it counts calls and spans traced ones.
type candidateProbe struct {
	next  resolver.Resolver
	layer layer
	calls atomic.Int64
	rec   *recorder
}

func (c *candidateProbe) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
	c.calls.Add(1)
	if trace, ok := traceOf(ctx); ok {
		start := time.Now()
		resp, t, err := c.next.Resolve(ctx, q)
		c.rec.add(trace, c.layer, start, time.Now())
		return resp, t, err
	}
	return c.next.Resolve(ctx, q)
}

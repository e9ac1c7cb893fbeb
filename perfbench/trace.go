package main

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// layer names one traced boundary of the DoH serving path. The order
// is topological: every layer's parent comes before it.
type layer uint8

const (
	layerExchange  layer = iota // dohclient: Client.Exchange, the root of a trace
	layerRoundTrip              // http: client transport RoundTrip until the body's EOF
	layerHandler                // dohserver: the server's HTTP handler
	layerUpstream               // smart: the recursive resolver's zone upstream
	layerDo53                   // resolver: smart's Do53 candidate
	layerDoT                    // resolver: smart's DoT candidate
	numLayers
)

// layerParent is the layer whose span encloses each layer's spans.
var layerParent = [numLayers]int{-1, int(layerExchange), int(layerRoundTrip), int(layerHandler), int(layerUpstream), int(layerUpstream)}

// span is one timed call at a layer boundary. Spans of one query share
// the trace number the client loop assigned.
type span struct {
	trace      uint32
	layer      layer
	start, end int64 // ns since the recorder's base
}

// recorder keeps spans in a preallocated buffer, so recording costs no
// allocation and the spans are analysed after the run.
type recorder struct {
	base  time.Time
	spans []span
	next  atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

// add records one span; it reports false once the buffer is full.
func (r *recorder) add(trace uint32, l layer, start, end time.Time) bool {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		return false
	}
	r.spans[i] = span{trace: trace, layer: l, start: int64(start.Sub(r.base)), end: int64(end.Sub(r.base))}
	return true
}

// nearlyFull tells client loops to stop starting traced queries while
// every span of the ones in flight still fits.
func (r *recorder) nearlyFull() bool {
	return r.next.Load() >= int64(len(r.spans))*9/10
}

// recorded returns the spans recorded so far.
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// traceKey carries a query's trace number in a context.
type traceKey struct{}

func withTrace(ctx context.Context, trace uint32) context.Context {
	return context.WithValue(ctx, traceKey{}, trace)
}

func traceOf(ctx context.Context) (uint32, bool) {
	t, ok := ctx.Value(traceKey{}).(uint32)
	return t, ok
}

// interval is a half-open time range in ns.
type interval struct{ start, end int64 }

func (iv interval) len() int64 {
	if iv.end <= iv.start {
		return 0
	}
	return iv.end - iv.start
}

// clip returns the part of iv inside within.
func (iv interval) clip(within interval) interval {
	if iv.start < within.start {
		iv.start = within.start
	}
	if iv.end > within.end {
		iv.end = within.end
	}
	if iv.end < iv.start {
		iv.end = iv.start
	}
	return iv
}

// unionLen is the total time covered by ivs (overlaps counted once).
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.len()
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.len()
}

// traceTimes is the per-layer split of one query.
type traceTimes struct {
	// span is each layer's summed span time, clipped to its parent.
	span [numLayers]int64
	// self is span minus the part of it the layer's child spans cover.
	self [numLayers]int64
}

// selfTimes splits one trace's spans by layer. A layer's spans are
// clipped to its parent's span (clocks of two goroutines can let a
// child's end stamp trail its parent's), and a layer's self time is its
// clipped time minus the union of its clipped children. ok is false
// when the trace lacks its root, or a non-leaf layer recorded more than
// one span, or a span's parent layer is missing.
func selfTimes(spans []span) (tt traceTimes, ok bool) {
	var clipped [numLayers][]interval
	for l := layer(0); l < numLayers; l++ {
		for _, sp := range spans {
			if sp.layer != l {
				continue
			}
			iv := interval{sp.start, sp.end}
			if p := layerParent[l]; p >= 0 {
				if len(clipped[p]) != 1 {
					return tt, false
				}
				iv = iv.clip(clipped[p][0])
			}
			clipped[l] = append(clipped[l], iv)
		}
	}
	if len(clipped[layerExchange]) != 1 {
		return tt, false
	}
	for l := layer(0); l < numLayers; l++ {
		var children []interval
		for c := layer(0); c < numLayers; c++ {
			if layerParent[c] == int(l) {
				children = append(children, clipped[c]...)
			}
		}
		if len(children) > 0 && len(clipped[l]) != 1 {
			return tt, false
		}
		for _, iv := range clipped[l] {
			tt.span[l] += iv.len()
		}
		tt.self[l] = tt.span[l] - unionLen(children)
	}
	return tt, true
}

// groupByTrace buckets spans by trace number (dense, starting at 1).
func groupByTrace(spans []span, traces int) [][]span {
	out := make([][]span, traces+1)
	for _, sp := range spans {
		if int(sp.trace) < len(out) {
			out[sp.trace] = append(out[sp.trace], sp)
		}
	}
	return out
}

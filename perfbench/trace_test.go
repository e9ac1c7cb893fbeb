package main

import (
	"context"
	"testing"
	"time"
)

func sp(l layer, start, end int64) span { return span{trace: 1, layer: l, start: start, end: end} }

func TestSelfTimesSubtractChildSpans(t *testing.T) {
	// exchange 0-100, round trip 10-90, handler 20-60, upstream 30-50,
	// one Do53 attempt 35-45.
	tt, ok := selfTimes([]span{
		sp(layerDo53, 35, 45),
		sp(layerExchange, 0, 100),
		sp(layerHandler, 20, 60),
		sp(layerRoundTrip, 10, 90),
		sp(layerUpstream, 30, 50),
	})
	if !ok {
		t.Fatal("complete trace rejected")
	}
	want := [numLayers]int64{
		layerExchange:  20, // 100 - 80
		layerRoundTrip: 40, // 80 - 40
		layerHandler:   20, // 40 - 20
		layerUpstream:  10, // 20 - 10
		layerDo53:      10,
	}
	if tt.self != want {
		t.Errorf("self = %v, want %v", tt.self, want)
	}
	var sum int64
	for _, s := range tt.self {
		sum += s
	}
	if sum != tt.span[layerExchange] {
		t.Errorf("self times sum to %d, want the root's %d", sum, tt.span[layerExchange])
	}
}

func TestSelfTimesClipChildToParent(t *testing.T) {
	// The handler's end stamp trails the client's round trip: only the
	// part inside the round trip counts.
	tt, ok := selfTimes([]span{
		sp(layerExchange, 0, 100),
		sp(layerRoundTrip, 10, 80),
		sp(layerHandler, 50, 95),
	})
	if !ok {
		t.Fatal("trace rejected")
	}
	if tt.span[layerHandler] != 30 || tt.self[layerRoundTrip] != 40 {
		t.Errorf("handler span %d (want 30), round-trip self %d (want 40)", tt.span[layerHandler], tt.self[layerRoundTrip])
	}
}

func TestSelfTimesCountOverlappingCandidatesOnce(t *testing.T) {
	// A race: Do53 30-60 and DoT 40-70 overlap inside upstream 20-80.
	tt, ok := selfTimes([]span{
		sp(layerExchange, 0, 100), sp(layerRoundTrip, 0, 100), sp(layerHandler, 10, 90),
		sp(layerUpstream, 20, 80), sp(layerDo53, 30, 60), sp(layerDoT, 40, 70),
	})
	if !ok {
		t.Fatal("trace rejected")
	}
	if tt.self[layerUpstream] != 20 { // 60 - union 40
		t.Errorf("upstream self = %d, want 20", tt.self[layerUpstream])
	}
	if tt.self[layerDo53] != 30 || tt.self[layerDoT] != 30 {
		t.Errorf("candidate self times = %d, %d; want 30 each", tt.self[layerDo53], tt.self[layerDoT])
	}
}

func TestSelfTimesRejectIncompleteTraces(t *testing.T) {
	if _, ok := selfTimes([]span{sp(layerRoundTrip, 0, 10)}); ok {
		t.Error("trace without its root accepted")
	}
	if _, ok := selfTimes([]span{sp(layerExchange, 0, 10), sp(layerHandler, 2, 8)}); ok {
		t.Error("trace with a missing parent layer accepted")
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},
		{[]interval{{20, 30}, {0, 10}}, 20},
		{[]interval{{0, 30}, {5, 10}}, 30},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestRecorderStopsWhenFull(t *testing.T) {
	r := newRecorder(10)
	now := time.Now()
	for i := 0; i < 9; i++ {
		if !r.add(uint32(i+1), layerExchange, now, now) {
			t.Fatalf("span %d dropped", i)
		}
	}
	if !r.nearlyFull() {
		t.Error("recorder at 90% not reported nearly full")
	}
	r.add(10, layerExchange, now, now)
	if r.add(11, layerExchange, now, now) {
		t.Error("span past capacity accepted")
	}
	if got := len(r.recorded()); got != 10 {
		t.Errorf("recorded %d spans, want 10", got)
	}
	if groups := groupByTrace(r.recorded(), 10); len(groups[3]) != 1 {
		t.Errorf("trace 3 has %d spans", len(groups[3]))
	}
}

func TestTraceRidesTheContext(t *testing.T) {
	if _, ok := traceOf(context.Background()); ok {
		t.Error("untraced context carries a trace")
	}
	if tr, ok := traceOf(withTrace(context.Background(), 42)); !ok || tr != 42 {
		t.Errorf("trace = %d, %v", tr, ok)
	}
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
)

// isolatedFor is how long each layer is timed alone.
const isolatedFor = 200 * time.Millisecond

// timeLoop calls fn(0), fn(1), ... for at least d and returns the mean
// time and heap allocations per call.
func timeLoop(d time.Duration, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < 64; i++ {
		fn(i)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for j := 0; j < 128; j++ {
			fn(n)
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&b)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(b.Mallocs-a.Mallocs) / float64(n)
}

// isolated times the inner layers alone on the workload's own
// questions: names of the working set, or doh_miss's last names (which
// the cache now holds). The clients are idle, so the allocation counts
// are the layer's own.
func (r *dohRun) isolated(out *outcome) error {
	names := r.warm
	if r.kind == kindMiss {
		names = nil
		for _, c := range r.clients {
			for _, n := range c.recent {
				if n != "" {
					names = append(names, n)
				}
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no question to time the layers on")
	}
	ctx := context.Background()
	qs := make([]*dnswire.Message, len(names))
	resps := make([]*dnswire.Message, len(names))
	wires := make([][]byte, len(names))
	for i, name := range names {
		qs[i] = dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA)
		resp, err := r.st.res.Resolve(ctx, qs[i])
		if err != nil {
			return fmt.Errorf("resolving %s: %w", name, err)
		}
		if err := r.def.checkAnswer(qs[i], resp); err != nil {
			out.problem("recursive resolver alone: %v", err)
		}
		if err := r.def.checkAnswer(qs[i], r.st.auth.Answer(qs[i])); err != nil {
			out.problem("authserver alone: %v", err)
		}
		if _, o := r.st.cache.Lookup(name, dnswire.TypeA); o != cache.Fresh {
			out.problem("cache alone: %s is not a fresh hit", name)
		}
		if wires[i], err = resp.AppendPack(nil); err != nil {
			return err
		}
		resps[i] = resp
	}
	n := len(qs)
	v := out.values
	upstream := r.st.upstream.calls.Load()
	ns, allocs := timeLoop(isolatedFor, func(i int) { r.st.res.Resolve(ctx, qs[i%n]) })
	v["recursive.resolve_hit_us"], v["recursive.resolve_hit_allocs"] = ns/1e3, allocs
	if d := r.st.upstream.calls.Load() - upstream; d != 0 {
		out.problem("recursive resolver alone: %d warm names went upstream", d)
	}
	ns, allocs = timeLoop(isolatedFor, func(i int) { r.st.cache.Lookup(names[i%n], dnswire.TypeA) })
	v["cache.lookup_ns"], v["cache.lookup_allocs"] = ns, allocs
	ns, _ = timeLoop(isolatedFor, func(i int) { r.st.auth.Answer(qs[i%n]) })
	v["authserver.answer_us"] = ns / 1e3
	m := new(dnswire.Message)
	ns, allocs = timeLoop(isolatedFor, func(i int) { dnswire.UnpackInto(wires[i%n], m) })
	v["dnswire.unpack_ns"], v["dnswire.unpack_allocs"] = ns, allocs
	buf := make([]byte, 0, 512)
	ns, allocs = timeLoop(isolatedFor, func(i int) { buf, _ = resps[i%n].AppendPack(buf[:0]) })
	v["dnswire.pack_ns"], v["dnswire.pack_allocs"] = ns, allocs
	return nil
}

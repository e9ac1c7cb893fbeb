package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/anycast"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoip"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/world"
)

// replayCall is one simulator or estimator call the campaign makes per
// client, replayed and timed on its own.
type replayCall struct {
	metric, perClient, unit string
}

// The replayed calls, in this order in replay's tables.
const (
	callNewSim = iota
	callSelectExit
	callMeasureDoH
	callMeasureDo53
	callMeasureDoT
	callMeasureDoQ
	callEstimateDoH
	callEstimateDo53
	numCalls
)

var replayCalls = [numCalls]replayCall{
	{"proxynet.new_sim_us", "proxynet.new_sim_per_client", "us"},
	{"proxynet.select_exit_us", "proxynet.select_exit_per_client", "us"},
	{"proxynet.measure_doh_us", "proxynet.measure_doh_per_client", "us"},
	{"proxynet.measure_do53_us", "proxynet.measure_do53_per_client", "us"},
	{"proxynet.measure_dot_us", "proxynet.measure_dot_per_client", "us"},
	{"proxynet.measure_doq_us", "proxynet.measure_doq_per_client", "us"},
	{"core.estimate_doh_ns", "core.estimate_doh_per_client", "ns"},
	{"core.estimate_do53_ns", "core.estimate_do53_per_client", "ns"},
}

// replayCountries is how many countries, drawn with the run's seed, the
// replay measures.
const replayCountries = 24

// replay measures a seeded sample of countries the way the campaign
// does, through the public simulator API, timing each call. Each call's
// cost times its calls per client (taken from the study's own
// accounting in ds) sums to the simulator's share of the campaign's
// CPU per client; the rest is the campaign's own bookkeeping (geoip,
// name building, the smart derivation, sketches).
func replay(cfg campaign.Config, ds *campaign.Dataset, campaignUsPerClient float64) (map[string]float64, error) {
	var spent [numCalls]time.Duration
	var calls [numCalls]int
	tick := func(call int, start time.Time) {
		spent[call] += time.Since(start)
		calls[call]++
	}
	countries := world.All()
	rng := rand.New(rand.NewSource(cfg.Seed))
	providers := anycast.ProviderIDs()
	var dohObs []proxynet.DoHObservation
	var do53Obs []proxynet.Do53Observation
	var points []geo.Point
	seq := 0
	name := func(code string) string {
		seq++
		return "r" + strconv.Itoa(seq) + "-" + code + ".a.com."
	}
	for _, idx := range rng.Perm(len(countries))[:replayCountries] {
		ct := countries[idx]
		start := time.Now()
		sim := proxynet.NewSim(cfg.Seed + int64(idx)*7919)
		tick(callNewSim, start)
		locator := geoip.NewService(sim.Alloc)
		n := expectedClients([]world.Country{ct}, cfg.ClientScale, cfg.MaxClients)
		for i := 0; i < n; i++ {
			start := time.Now()
			node, err := sim.SelectExitNode(ct.Code)
			tick(callSelectExit, start)
			if err != nil {
				return nil, err
			}
			if code, ok := locator.Locate(node.Addr); !ok || code != ct.Code {
				continue
			}
			points = append(points, node.Pos)
			for _, pid := range providers {
				for run := 0; run < cfg.RunsPerClient; run++ {
					qname := name(ct.Code)
					start := time.Now()
					o, _ := sim.MeasureDoH(node, pid, qname)
					tick(callMeasureDoH, start)
					dohObs = append(dohObs, o)
				}
			}
			for run := 0; run < cfg.RunsPerClient; run++ {
				qname := name(ct.Code)
				start := time.Now()
				o, _ := sim.MeasureDo53(node, qname)
				tick(callMeasureDo53, start)
				do53Obs = append(do53Obs, o)
				if _, err := core.EstimateDo53(o); errors.Is(err, core.ErrSuperProxyResolution) {
					break
				}
			}
			for _, pid := range providers {
				for run := 0; run < cfg.RunsPerClient; run++ {
					qname := name(ct.Code)
					start := time.Now()
					sim.MeasureDoT(node, pid, qname)
					tick(callMeasureDoT, start)
				}
			}
			for _, pid := range providers {
				for run := 0; run < cfg.RunsPerClient; run++ {
					qname := name(ct.Code)
					start := time.Now()
					sim.MeasureDoQ(node, pid, qname)
					tick(callMeasureDoQ, start)
				}
			}
		}
	}
	if len(dohObs) == 0 || len(do53Obs) == 0 || len(points) < 2 {
		return nil, fmt.Errorf("the sampled countries kept no client")
	}
	// The estimators and geometry are a few hundred ns a call: timed
	// in loops, not call by call.
	estDoH, _ := timeLoop(isolatedFor, func(i int) { core.EstimateDoH(dohObs[i%len(dohObs)]) })
	estDo53, _ := timeLoop(isolatedFor, func(i int) { core.EstimateDo53(do53Obs[i%len(do53Obs)]) })
	cloudflare := anycast.Catalogue()[anycast.Cloudflare]
	nearest, _ := timeLoop(isolatedFor, func(i int) { cloudflare.NearestPoP(points[i%len(points)]) })
	dist, _ := timeLoop(isolatedFor, func(i int) {
		geo.DistanceKm(points[i%len(points)], points[(i+1)%len(points)])
	})

	// Calls per kept client, from the study's own accounting.
	kept := float64(ds.KeptClients)
	perClient := [numCalls]float64{
		callNewSim:       float64(len(countries)) / kept,
		callSelectExit:   float64(ds.KeptClients+ds.DiscardedMismatch) / kept,
		callMeasureDoH:   float64(ds.Transports[resolver.DoH].Queries) / kept,
		callMeasureDo53:  float64(ds.Transports[resolver.Do53].Queries) / kept,
		callMeasureDoT:   float64(ds.Transports[resolver.DoT].Queries) / kept,
		callMeasureDoQ:   float64(ds.Transports[resolver.DoQ].Queries) / kept,
		callEstimateDoH:  float64(ds.Transports[resolver.DoH].Queries) / kept,
		callEstimateDo53: float64(ds.Transports[resolver.Do53].Queries) / kept,
	}
	costUs := [numCalls]float64{callEstimateDoH: estDoH / 1e3, callEstimateDo53: estDo53 / 1e3}
	for c := callNewSim; c <= callMeasureDoQ; c++ {
		if calls[c] == 0 {
			return nil, fmt.Errorf("the replay made no %s call", replayCalls[c].metric)
		}
		costUs[c] = float64(spent[c]) / float64(time.Microsecond) / float64(calls[c])
	}
	v := map[string]float64{
		"anycast.nearest_pop_ns": nearest,
		"geo.distance_ns":        dist,
	}
	var sum float64
	for c, rc := range replayCalls {
		cost := costUs[c]
		if rc.unit == "ns" {
			v[rc.metric] = cost * 1e3
		} else {
			v[rc.metric] = cost
		}
		v[rc.perClient] = perClient[c]
		sum += cost * perClient[c]
	}
	v["replay.us_per_client"] = sum
	v["replay.accounted_ratio"] = sum / campaignUsPerClient
	return v, nil
}

package main

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/authserver"
	"repro/internal/dnswire"
)

// The benchmark's zone. Everything a DoH workload asks and every
// answer it expects derives from this definition and the run's seed:
//
//	w<i>.hit.<origin>        A  addrFor(seed, hitSalt, i)   for i < WarmNames
//	*.s<k>.miss.<origin>     A  addrFor(seed, missSalt, k)  for k < MissShards
//
// Warm names are the doh_hit and doh_newconn working set. Miss names
// are "<label>.s<k>.miss.<origin>" with a label never asked before, so
// every one is new to the cache yet has exactly one answer, synthesized
// from its shard's wildcard.
const (
	zoneOrigin = "perf.example."
	// zoneTTL keeps every cached answer fresh for far longer than a run.
	zoneTTL = 3600
	// warmNames is the working-set size of doh_hit and doh_newconn.
	warmNames = 1024
	// missShards is the number of miss wildcards; a miss name's answer
	// depends on its shard, so a wrong wildcard shows in the check.
	missShards = 256

	hitSalt  = 0x68697473
	missSalt = 0x6d697373
)

// zoneDef is the seeded zone definition.
type zoneDef struct {
	seed int64
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed hash of one 64-bit word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// addrFor is the address the zone gives record i of one family (hit
// names or miss shards): a seeded point in 10.0.0.0/8.
func (z zoneDef) addrFor(salt uint64, i int) netip.Addr {
	h := splitmix64(uint64(z.seed) ^ salt<<20 ^ uint64(i)*0x9e3779b97f4a7c15)
	return netip.AddrFrom4([4]byte{10, byte(h >> 16), byte(h >> 8), byte(h)})
}

// warmName returns the i-th working-set name.
func warmName(i int) dnswire.Name {
	return dnswire.Name("w" + strconv.Itoa(i) + ".hit." + zoneOrigin)
}

// appendMissName appends the miss name "<label>.s<shard>.miss.<origin>"
// to b, so a client can build a fresh name with one allocation (the
// string conversion).
func appendMissName(b []byte, label string, seq uint64, shard int) []byte {
	b = append(b, label...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, ".s"...)
	b = strconv.AppendInt(b, int64(shard), 10)
	b = append(b, ".miss."...)
	return append(b, zoneOrigin...)
}

// expectA returns the one A record the zone definition gives name,
// parsing the name by the rules above; ok is false for a name the zone
// does not answer. It never consults the authoritative server, so it
// is an independent oracle for the answers the stack returns.
func (z zoneDef) expectA(name dnswire.Name) (addr netip.Addr, ok bool) {
	rest, found := strings.CutSuffix(string(name), "."+zoneOrigin)
	if !found {
		return netip.Addr{}, false
	}
	if head, found := strings.CutSuffix(rest, ".hit"); found {
		if !strings.HasPrefix(head, "w") || strings.Contains(head, ".") {
			return netip.Addr{}, false
		}
		i, err := strconv.Atoi(head[1:])
		if err != nil || i < 0 || i >= warmNames || strconv.Itoa(i) != head[1:] {
			return netip.Addr{}, false
		}
		return z.addrFor(hitSalt, i), true
	}
	head, found := strings.CutSuffix(rest, ".miss")
	if !found {
		return netip.Addr{}, false
	}
	dot := strings.LastIndexByte(head, '.')
	if dot <= 0 || !strings.HasPrefix(head[dot+1:], "s") {
		return netip.Addr{}, false
	}
	k, err := strconv.Atoi(head[dot+2:])
	if err != nil || k < 0 || k >= missShards || strconv.Itoa(k) != head[dot+2:] {
		return netip.Addr{}, false
	}
	return z.addrFor(missSalt, k), true
}

// build returns the authoritative zone the definition describes.
func (z zoneDef) build() (*authserver.Zone, error) {
	zone := authserver.NewZone(zoneOrigin)
	if err := zone.SetSOA("ns1."+zoneOrigin, "hostmaster."+zoneOrigin, 2021042901); err != nil {
		return nil, err
	}
	add := func(name string, addr netip.Addr) error {
		return zone.Add(dnswire.ResourceRecord{
			Name: dnswire.Name(name), Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: zoneTTL,
			Data: dnswire.ARecord{Addr: addr},
		})
	}
	for i := 0; i < warmNames; i++ {
		if err := add(string(warmName(i)), z.addrFor(hitSalt, i)); err != nil {
			return nil, fmt.Errorf("zone: %w", err)
		}
	}
	for k := 0; k < missShards; k++ {
		if err := add("*.s"+strconv.Itoa(k)+".miss."+zoneOrigin, z.addrFor(missSalt, k)); err != nil {
			return nil, fmt.Errorf("zone: %w", err)
		}
	}
	return zone, nil
}

// checkAnswer verifies one DoH answer against the query that asked it
// and the zone definition: NOERROR, the query's ID, the asked
// question, and exactly the one expected A record.
func (z zoneDef) checkAnswer(q, resp *dnswire.Message) error {
	name := q.Questions[0].Name
	want, ok := z.expectA(name)
	switch {
	case !ok:
		return fmt.Errorf("%s is not a name of the zone definition", name)
	case !resp.Header.Response || resp.Header.RCode != dnswire.RCodeNoError:
		return fmt.Errorf("%s: rcode %v, response %v", name, resp.Header.RCode, resp.Header.Response)
	case resp.Header.ID != q.Header.ID:
		return fmt.Errorf("%s: answer ID %d, query ID %d", name, resp.Header.ID, q.Header.ID)
	case len(resp.Questions) != 1 || resp.Questions[0].Name != name ||
		resp.Questions[0].Type != dnswire.TypeA || resp.Questions[0].Class != dnswire.ClassIN:
		return fmt.Errorf("%s: answer echoes question %v", name, resp.Questions)
	case len(resp.Answers) != 1:
		return fmt.Errorf("%s: %d answer records, want 1", name, len(resp.Answers))
	}
	rr := resp.Answers[0]
	a, isA := rr.Data.(dnswire.ARecord)
	if rr.Name != name || rr.Type != dnswire.TypeA || !isA || a.Addr != want {
		return fmt.Errorf("%s: answer %v, want A %v", name, rr, want)
	}
	if rr.TTL == 0 || rr.TTL > zoneTTL {
		return fmt.Errorf("%s: answer TTL %d outside (0, %d]", name, rr.TTL, zoneTTL)
	}
	return nil
}

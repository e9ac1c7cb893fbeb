package main

import (
	"testing"

	"repro/internal/authserver"
	"repro/internal/dnswire"
)

func TestExpectAFollowsTheZoneDefinition(t *testing.T) {
	z := zoneDef{seed: 7}
	if got, ok := z.expectA(warmName(5)); !ok || got != z.addrFor(hitSalt, 5) {
		t.Errorf("warm name 5 -> %v, %v", got, ok)
	}
	miss := dnswire.Name(appendMissName(nil, "t1n", 99, 17))
	if string(miss) != "t1n99.s17.miss."+zoneOrigin {
		t.Fatalf("miss name = %s", miss)
	}
	if got, ok := z.expectA(miss); !ok || got != z.addrFor(missSalt, 17) {
		t.Errorf("miss name -> %v, %v", got, ok)
	}
	if !z.addrFor(hitSalt, 5).Is4() || z.addrFor(hitSalt, 5).As4()[0] != 10 {
		t.Errorf("address %v is not in 10.0.0.0/8", z.addrFor(hitSalt, 5))
	}
	if (zoneDef{seed: 8}).addrFor(hitSalt, 5) == z.addrFor(hitSalt, 5) {
		t.Error("the seed does not change the answers")
	}
	for _, name := range []dnswire.Name{
		"w1024.hit." + zoneOrigin, // past the working set
		"w01.hit." + zoneOrigin,   // not the canonical spelling
		"x1.hit." + zoneOrigin,
		"a.w1.hit." + zoneOrigin,
		"q.s256.miss." + zoneOrigin,
		"s3.miss." + zoneOrigin, // the wildcard's parent itself
		"q.s3.miss.other.example.",
		"w1.hit.perf.example.com.",
	} {
		if got, ok := z.expectA(name); ok {
			t.Errorf("expectA(%s) = %v, want no answer", name, got)
		}
	}
}

// The authoritative zone built from the definition must answer exactly
// what the definition says.
func TestBuiltZoneAgreesWithTheDefinition(t *testing.T) {
	z := zoneDef{seed: 3}
	zone, err := z.build()
	if err != nil {
		t.Fatal(err)
	}
	auth := authserver.NewServer(zone)
	names := []dnswire.Name{warmName(0), warmName(warmNames - 1)}
	for k := 0; k < missShards; k += 51 {
		names = append(names, dnswire.Name(appendMissName(nil, "f0n", uint64(k), k)))
	}
	for i, name := range names {
		q := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA)
		if err := z.checkAnswer(q, auth.Answer(q)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCheckAnswerRejectsWrongAnswers(t *testing.T) {
	z := zoneDef{seed: 3}
	zone, err := z.build()
	if err != nil {
		t.Fatal(err)
	}
	auth := authserver.NewServer(zone)
	q := dnswire.NewQuery(77, warmName(9), dnswire.TypeA)
	other := dnswire.NewQuery(78, warmName(10), dnswire.TypeA)
	for name, tamper := range map[string]func(m *dnswire.Message){
		"id":       func(m *dnswire.Message) { m.Header.ID++ },
		"rcode":    func(m *dnswire.Message) { m.Header.RCode = dnswire.RCodeServFail },
		"question": func(m *dnswire.Message) { m.Questions = other.Questions },
		"address":  func(m *dnswire.Message) { m.Answers[0].Data = dnswire.ARecord{Addr: z.addrFor(hitSalt, 10)} },
		"owner":    func(m *dnswire.Message) { m.Answers = auth.Answer(other).Answers },
		"count":    func(m *dnswire.Message) { m.Answers = append(m.Answers, m.Answers[0]) },
		"empty":    func(m *dnswire.Message) { m.Answers = nil },
		"ttl":      func(m *dnswire.Message) { m.Answers[0].TTL = zoneTTL + 1 },
	} {
		resp := auth.Answer(q)
		tamper(resp)
		if err := z.checkAnswer(q, resp); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

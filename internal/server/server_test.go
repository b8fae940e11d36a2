package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// startTestServer builds a HiCuts engine over a small classifier and serves
// it on a loopback port.
func startTestServer(t *testing.T) (*Server, *rule.Set, string) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 1)
	srv := New(hicutsEngine(t, set))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, set, addr.String()
}

// hicutsEngine builds a HiCuts engine over set, closed when the test ends.
func hicutsEngine(t *testing.T, set *rule.Set) *engine.Engine {
	t.Helper()
	eng, err := engine.NewEngine("hicuts", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestServerClassifiesOverTCP(t *testing.T) {
	_, set, addr := startTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := DialV2(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	trace := classbench.GenerateTrace(set, 200, 2)
	for _, e := range trace {
		id, priority, ok, err := client.Classify(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || priority != e.MatchRule {
			t.Fatalf("packet %v: got id=%d prio=%d ok=%v, want priority %d", e.Key, id, priority, ok, e.MatchRule)
		}
	}
}

func TestServerNoMatch(t *testing.T) {
	// A classifier without a default rule produces no-match responses.
	r0 := rule.NewWildcardRule(0)
	r0.Ranges[rule.DimProto] = rule.Range{Lo: 6, Hi: 6}
	srv := New(hicutsEngine(t, rule.NewSet([]rule.Rule{r0})))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	client, err := DialV2(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, _, ok, err := client.Classify(rule.Packet{Proto: 17})
	if err != nil || ok {
		t.Errorf("expected no-match, got ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := client.Classify(rule.Packet{Proto: 6}); err != nil || !ok {
		t.Errorf("expected match, got ok=%v err=%v", ok, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	_, set, addr := startTestServer(t)
	trace := classbench.GenerateTrace(set, 100, 5)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			client, err := DialV2(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 50; i++ {
				e := trace[(offset*50+i)%len(trace)]
				_, priority, ok, err := client.Classify(e.Key)
				if err != nil {
					errs <- err
					return
				}
				if !ok || priority != e.MatchRule {
					errs <- fmt.Errorf("wrong result for %v", e.Key)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseAndDialErrors(t *testing.T) {
	srv, _, addr := startTestServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Listening again on a closed server fails.
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listening on a closed server should fail")
	}
	// Dialing the now-closed address eventually fails.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if client, err := DialV2(ctx, addr); err == nil {
		// Some platforms accept then reset; a classify call must then fail.
		if _, _, _, err := client.Classify(rule.Packet{}); err == nil {
			t.Error("expected failure against closed server")
		}
		client.Close()
	}
	// Dialing a bogus address fails.
	if _, err := DialV2(ctx, "127.0.0.1:1"); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}

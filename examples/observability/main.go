// Observability: embed the classifier's HTTP admin plane in a Go program.
// The SDK's AdminHandler exposes everything a monitoring stack needs —
// Prometheus-format metrics (lookup counters, flow-cache effectiveness, the
// online-update subsystem's overlay/compaction/journal state), liveness and
// readiness probes, and the standard pprof profiling endpoints — with no
// client-library dependency, so any Prometheus-compatible scraper can watch
// an embedded classifier exactly as it watches classifyd -admin.
//
// This example mounts the handler on a loopback listener, drives some
// traffic and updates through the classifier, then scrapes its own /metrics
// and prints the neurocuts_* samples.
//
// Run with:
//
//	go run ./examples/observability
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"neurocuts/pkg/classifier"
)

func main() {
	ctx := context.Background()
	rules, err := classifier.GenerateRules("acl1", 1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	c, err := classifier.Open(rules,
		classifier.WithBackend("hicuts"),
		classifier.WithFlowCache(4096))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Mount the admin plane on a loopback listener. A real service would
	// pick a fixed management port (and typically keep it loopback- or
	// cluster-internal-only); :0 keeps the example self-contained.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: c.AdminHandler()}
	go srv.Serve(ln)
	defer srv.Shutdown(ctx)
	fmt.Printf("admin plane on http://%s (metrics, healthz, readyz, tables, debug/pprof)\n\n", ln.Addr())

	// Drive some work so the counters have something to say: lookups (the
	// repeats hit the flow cache) and a couple of live updates.
	keys := classifier.GenerateTrace(rules, 2000, 7)
	for pass := 0; pass < 2; pass++ {
		if _, err := c.ClassifyBatch(ctx, keys); err != nil {
			log.Fatal(err)
		}
	}
	res, err := c.Insert(0, rules.Rule(1))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Delete(res.ID); err != nil {
		log.Fatal(err)
	}

	// Scrape ourselves, exactly as Prometheus would.
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("scraped /metrics (neurocuts_* samples):")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "neurocuts_") {
			fmt.Println(" ", line)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

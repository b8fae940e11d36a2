// Command classify builds any registered classification backend over a rule
// set and classifies a header trace with it, reporting correctness against
// linear search, lookup throughput (single-packet and batch), and
// the backend's cost metrics.
//
// Backends are selected by registry name (see internal/engine); -algo list
// prints them.
//
// With -artifact the classifier is warm-started from a compiled artifact
// (see internal/compiled) instead of being built: the rule set embedded in
// the artifact becomes the linear-search ground truth, so this doubles as
// the artifact round-trip checker CI runs.
//
// Example:
//
//	genrules -family acl1 -size 1000 -out acl.rules -trace 100000 -traceout acl.trace
//	classify -rules acl.rules -trace acl.trace -algo hicuts
//	classify -rules acl.rules -trace acl.trace -algo neurocuts -timesteps 20000
//	classify -family fw1 -algo linear -batch 512
//	neurocuts -family acl1 -save-artifact policy.ncaf && classify -artifact policy.ncaf
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/engine"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

func main() {
	var (
		rulesPath = flag.String("rules", "", "classifier file in ClassBench format (required unless -family given)")
		family    = flag.String("family", "", "generate this ClassBench family instead of reading -rules")
		size      = flag.Int("size", 1000, "classifier size when generating")
		tracePath = flag.String("trace", "", "header trace file (optional; a synthetic trace is generated otherwise)")
		traceN    = flag.Int("tracen", 100000, "synthetic trace length when -trace is not given")
		algo      = flag.String("algo", "hicuts", "backend name, or 'list' to print the registry")
		binth     = flag.Int("binth", 16, "leaf threshold")
		timesteps = flag.Int("timesteps", 20000, "NeuroCuts training budget (neurocuts only)")
		batch     = flag.Int("batch", 1024, "batch size for the batch throughput pass (0 disables)")
		seed      = flag.Int64("seed", 1, "random seed")
		artifact  = flag.String("artifact", "", "warm-start from this compiled classifier artifact instead of building")
		journal   = flag.String("journal", "", "replay this update journal on top of -artifact before classifying ('auto' = <artifact>.journal)")
		artVer    = flag.Bool("artifact-version", false, "print the compiled artifact schema version and exit")
		serverAt  = flag.String("server", "", "classify through a running classifyd at this address instead of in-process (results are checked against the local rules, which must match the served table)")
		table     = flag.String("table", "", "table name to address with -server (empty = default table)")
	)
	flag.Parse()

	if *artVer {
		fmt.Println(compiled.SchemaVersion)
		return
	}
	if strings.ToLower(*algo) == "list" {
		fmt.Println("registered backends:", strings.Join(engine.Backends(), ", "))
		return
	}

	if *serverAt != "" {
		set, err := classbench.Load(*rulesPath, *family, *size, *seed)
		if err != nil {
			fatal(err)
		}
		trace, err := loadTrace(*tracePath, set, *traceN, *seed)
		if err != nil {
			fatal(err)
		}
		if err := classifyViaServer(*serverAt, *table, set, trace, *batch); err != nil {
			fatal(err)
		}
		return
	}

	opts := engine.Options{Binth: *binth, Timesteps: *timesteps, Seed: *seed}
	var (
		eng *engine.Engine
		set *rule.Set
		err error
	)
	start := time.Now()
	if *artifact != "" {
		if *journal == "auto" {
			*journal = engine.JournalPathFor(*artifact)
		}
		opts.JournalPath = *journal
		eng, err = engine.NewEngineFromArtifact(*artifact, opts)
		if err != nil {
			fatal(err)
		}
		// The artifact's embedded rule set — with any replayed journal
		// updates merged in — is the ground truth below, so this doubles as
		// the post-recovery differential check.
		set = eng.Rules()
	} else {
		if *journal != "" {
			fatal(fmt.Errorf("-journal requires -artifact"))
		}
		set, err = classbench.Load(*rulesPath, *family, *size, *seed)
		if err != nil {
			fatal(err)
		}
		eng, err = engine.NewEngine(strings.ToLower(*algo), set, opts)
		if err != nil {
			fatal(err)
		}
	}
	buildTime := time.Since(start)
	trace, err := loadTrace(*tracePath, set, *traceN, *seed)
	if err != nil {
		fatal(err)
	}

	m := eng.Metrics()
	if *artifact != "" {
		fmt.Printf("loaded %s artifact %s (%d rules) in %s — no build/train path invoked\n",
			engine.DisplayName(eng.Backend()), *artifact, set.Len(), buildTime.Round(time.Millisecond))
		if st := eng.UpdaterStats(); st.JournalRecords > 0 {
			fmt.Printf("  replayed %d journaled updates from %s\n", st.JournalRecords, st.JournalPath)
		}
	} else {
		fmt.Printf("built %s over %d rules in %s\n", engine.DisplayName(eng.Backend()), set.Len(), buildTime.Round(time.Millisecond))
	}
	fmt.Printf("  lookup cost (worst-case sequential steps): %d\n", m.LookupCost)
	fmt.Printf("  memory: %d bytes (%.1f bytes/rule), %d stored entries\n", m.MemoryBytes, m.BytesPerRule, m.Entries)
	if m.CompiledBytes > 0 {
		fmt.Printf("  compiled serve form: %d bytes\n", m.CompiledBytes)
	}

	// Single-packet pass, checking each result against the ground truth (or
	// against linear search when the trace has no ground truth).
	mismatches := 0
	wants := make([]int, len(trace))
	start = time.Now()
	for i, e := range trace {
		got, ok := eng.Classify(e.Key)
		want := e.MatchRule
		if want < 0 {
			want = set.MatchIndex(e.Key)
		}
		wants[i] = want
		if (want < 0) != !ok {
			mismatches++
			continue
		}
		if ok && got.Priority != want {
			mismatches++
		}
	}
	elapsed := time.Since(start)
	rate := float64(len(trace)) / elapsed.Seconds()
	fmt.Printf("classified %d packets in %s (%.0f packets/sec, single)\n", len(trace), elapsed.Round(time.Millisecond), rate)

	// Batch pass over the same trace.
	if *batch > 0 {
		keys := make([]rule.Packet, len(trace))
		for i, e := range trace {
			keys[i] = e.Key
		}
		out := make([]engine.Result, len(trace))
		start = time.Now()
		for lo := 0; lo < len(keys); lo += *batch {
			hi := lo + *batch
			if hi > len(keys) {
				hi = len(keys)
			}
			eng.ClassifyBatch(keys[lo:hi], out[lo:hi])
		}
		batchElapsed := time.Since(start)
		batchRate := float64(len(trace)) / batchElapsed.Seconds()
		fmt.Printf("classified %d packets in %s (%.0f packets/sec, batch=%d, %.2fx)\n",
			len(trace), batchElapsed.Round(time.Millisecond), batchRate, *batch, batchRate/rate)
		for i, want := range wants {
			if (want < 0) != !out[i].OK || (out[i].OK && out[i].Rule.Priority != want) {
				mismatches++
			}
		}
	}

	if mismatches > 0 {
		fmt.Printf("MISMATCHES: %d packets classified differently from linear search\n", mismatches)
		os.Exit(1)
	}
	fmt.Println("all classifications match linear search")
}

// classifyViaServer pushes the trace through a running server in batches
// and checks every response against linear search over the local rules.
// The local rule set must describe the served table for the check to be
// meaningful (the typical use: the server was started from the same -rules
// or -family/-size/-seed).
func classifyViaServer(addr, table string, set *rule.Set, trace []packet.TraceEntry, batch int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if batch <= 0 {
		batch = 1024
	}
	client, err := server.DialV2(ctx, addr)
	if err != nil {
		return err
	}
	defer client.Close()
	if table != "" {
		id, err := client.ResolveTable(table)
		if err != nil {
			return err
		}
		client.UseTable(id)
	}

	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	mismatches := 0
	start := time.Now()
	done := 0
	for lo := 0; lo < len(keys); lo += batch {
		hi := lo + batch
		if hi > len(keys) {
			hi = len(keys)
		}
		out, err := client.ClassifyBatch(keys[lo:hi])
		if err != nil {
			return err
		}
		for i, res := range out {
			want := trace[lo+i].MatchRule
			if want < 0 {
				want = set.MatchIndex(keys[lo+i])
			}
			if (want < 0) != !res.OK || (res.OK && res.Rule.Priority != want) {
				mismatches++
			}
		}
		done += hi - lo
	}
	elapsed := time.Since(start)
	fmt.Printf("classified %d packets via %s in %s (%.0f packets/sec, batch=%d)\n",
		done, addr, elapsed.Round(time.Millisecond),
		float64(done)/elapsed.Seconds(), batch)
	if mismatches > 0 {
		fmt.Printf("MISMATCHES: %d packets classified differently from local linear search\n", mismatches)
		os.Exit(1)
	}
	fmt.Println("all server classifications match local linear search")
	return nil
}

func loadTrace(path string, set *rule.Set, n int, seed int64) ([]packet.TraceEntry, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return packet.ReadTrace(f)
	}
	return classbench.GenerateTrace(set, n, seed+7), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "classify:", err)
	os.Exit(1)
}

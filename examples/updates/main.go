// Updates: operate a live classifier through the public SDK's update path —
// rule insertions and deletions land in a delta overlay with no rebuild on
// the write path, the update that brings the overlay to its threshold starts
// a goroutine that folds it into the base structure, and a durable journal
// makes every acknowledged update survive a crash.
//
// Run with:
//
//	go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"neurocuts/pkg/classifier"
)

func main() {
	ctx := context.Background()
	rules, err := classifier.GenerateRules("acl2", 300, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial classifier: %d rules\n", rules.Len())

	dir, err := os.MkdirTemp("", "classifier-updates")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "updates.journal")

	// Open with a durable journal: inserts and deletes are acknowledged
	// after hitting the journal, without rebuilding the tree, and a restart
	// over the same journal replays them.
	c, err := classifier.Open(rules,
		classifier.WithBackend("hicuts"),
		classifier.WithJournal(journal))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	m := c.Stats().Metrics
	fmt.Printf("built tree: %d worst-case lookups, %.1f bytes/rule\n\n", m.LookupCost, m.BytesPerRule)

	// A new access-control rule for a device that just joined the network:
	// block TCP/22 to a specific host, with priority above everything else.
	newRule := classifier.NewWildcardRule(-1)
	newRule.Ranges[classifier.DimDstIP] = classifier.PrefixRange(0x0A00002A, 32, 32) // 10.0.0.42
	newRule.Ranges[classifier.DimDstPort] = classifier.Range{Lo: 22, Hi: 22}
	newRule.Ranges[classifier.DimProto] = classifier.Range{Lo: 6, Hi: 6}
	res, err := c.Insert(0, newRule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inserted a new highest-priority rule (block TCP/22 to 10.0.0.42) without rebuilding")

	// The new rule is live immediately.
	pkt := classifier.Packet{SrcIP: 0xC0A80105, DstIP: 0x0A00002A, SrcPort: 50000, DstPort: 22, Proto: 6}
	match, ok, err := c.Classify(ctx, pkt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lookup %v -> rule ID %d (ok=%v)\n", pkt, match.ID, ok)
	if !ok || match.ID != res.ID {
		log.Fatal("the inserted rule should win this lookup")
	}

	// Retire an old rule: IDs for rules present at Open are their list
	// positions.
	victim := rules.Len() / 3
	if _, err := c.Delete(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted rule #%d (a tombstone in the overlay; no rebuild)\n", victim)

	// Apply a burst of further updates and watch the pending delta grow;
	// when it crosses the compaction threshold, a background rebuild folds
	// it into the base structure off the critical path.
	for i := 0; i < 25; i++ {
		r := classifier.NewWildcardRule(-(i + 2))
		r.Ranges[classifier.DimSrcPort] = classifier.Range{Lo: uint64(30000 + i), Hi: uint64(30000 + i)}
		if _, err := c.Insert(0, r); err != nil {
			log.Fatal(err)
		}
	}
	st := c.Stats()
	fmt.Printf("\napplied %d journaled updates; pending in overlay: %d, compactions so far: %d\n",
		st.JournalRecords, st.PendingUpdates, st.Compactions)
	fmt.Printf("journal at %s makes every acknowledged update crash-durable\n", st.JournalPath)
}

package classifier_test

import (
	"context"
	"fmt"
	"log"

	"neurocuts/pkg/classifier"
)

// Example embeds a classifier end to end: build a rule set, open a backend,
// classify a packet.
func Example() {
	// Parse a classifier (ClassBench filter-file format); real deployments
	// would read a file with classifier.ParseRules.
	rules := classifier.NewRuleSet([]classifier.Rule{
		mustParse("@10.0.0.0/8 0.0.0.0/0 0 : 65535 22 : 22 0x06/0xFF"),
		mustParse("@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00"),
	})

	c, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	src, _ := classifier.ParseIPv4("10.1.2.3")
	dst, _ := classifier.ParseIPv4("192.168.0.9")
	match, ok, err := c.Classify(context.Background(),
		classifier.Packet{SrcIP: src, DstIP: dst, SrcPort: 40000, DstPort: 22, Proto: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok, match.Priority)
	// Output: true 0
}

// ExampleClassifier_ClassifyBatch classifies many packets against one
// coherent rule-set snapshot, on the calling goroutine.
func ExampleClassifier_ClassifyBatch() {
	rules, err := classifier.GenerateRules("acl1", 100, 1)
	if err != nil {
		log.Fatal(err)
	}
	c, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	keys := classifier.GenerateTrace(rules, 1000, 7)
	results, err := c.ClassifyBatch(context.Background(), keys)
	if err != nil {
		log.Fatal(err)
	}
	matched := 0
	for _, r := range results {
		if r.OK {
			matched++
		}
	}
	fmt.Println(len(results), matched)
	// Output: 1000 1000
}

// ExampleClassifier_Insert adds a rule to a live classifier without
// blocking concurrent lookups.
func ExampleClassifier_Insert() {
	rules, err := classifier.GenerateRules("acl1", 50, 1)
	if err != nil {
		log.Fatal(err)
	}
	c, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Block TCP/22 to 10.0.0.42, above every existing rule.
	r := classifier.NewWildcardRule(-1)
	r.Ranges[classifier.DimDstIP] = classifier.PrefixRange(0x0A00002A, 32, 32)
	r.Ranges[classifier.DimDstPort] = classifier.Range{Lo: 22, Hi: 22}
	r.Ranges[classifier.DimProto] = classifier.Range{Lo: 6, Hi: 6}
	res, err := c.Insert(0, r)
	if err != nil {
		log.Fatal(err)
	}

	match, ok, err := c.Classify(context.Background(),
		classifier.Packet{SrcIP: 1, DstIP: 0x0A00002A, DstPort: 22, Proto: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok, match.ID == res.ID)
	// Output: true true
}

func mustParse(line string) classifier.Rule {
	r, err := classifier.ParseRule(line)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
